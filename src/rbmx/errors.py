"""Error taxonomy for rbmx.

Every failure that a caller can provoke by feeding bad data maps to one of
the exception classes below, so tests (and the CLI) can distinguish "you
gave me a malformed system" from "the maths says no".  All of them inherit
from RbmxError, which carries an optional context dict for diagnostics.
"""


class RbmxError(Exception):
    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


# --- construction / validation ------------------------------------------

class MalformedSystem(RbmxError):
    """A system violates a structural invariant (weights, domains, rows)."""


class InconsistentSystem(RbmxError):
    """Operation requires positive consistency weight and there is none."""


class UnknownVariable(RbmxError):
    """A variable name is not among the system's visible variables."""


class DomainMismatch(RbmxError):
    """Two variables of the same name disagree on their domains."""


class BadPartition(RbmxError):
    """Polarized blocks do not partition the outcome space."""


# --- kernels / networks ---------------------------------------------------

class MissingInit(RbmxError):
    """A dynamic program uses a pre'd variable with no initial value."""


class VariableSetMismatch(RbmxError):
    """Kernel wiring or network structure breaks the in/out conventions."""


class NotATree(RbmxError):
    """Factor graph operation requires an acyclic (forest) graph."""


class NotIncremental(RbmxError):
    """A Bayesian network admits no incremental sampling order."""


# --- automata --------------------------------------------------------------

class NoTransition(RbmxError):
    """An automaton has no transition for the requested (state, action)."""


class IncompatibleInitials(RbmxError):
    """Composed automata have initial states that do not join."""


class NondeterministicJoin(RbmxError):
    """Action join would map one pair of actions to two different results."""


class CapExceeded(RbmxError):
    """Materializing a construction would exceed the size cap."""


# --- language ---------------------------------------------------------------

class MissingObservation(RbmxError):
    """An observe statement has no datum to bind against."""


class UnknownDistribution(RbmxError):
    """A program refers to a distribution that was never declared."""


class GuardNotBoolean(RbmxError):
    """A reactive guard evaluates to a value that is not a boolean."""


class RbSyntaxError(RbmxError):
    """Source text failed to parse; carries line/col of the offending token."""

    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else " at line %d, col %d" % (line, col)
        super().__init__(message + loc, line=line, col=col)
        self.line = line
        self.col = col


class UndeclaredVariable(RbmxError):
    """Program uses a variable that no declaration introduced."""
