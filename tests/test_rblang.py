import random
import re
from fractions import Fraction

import pytest

from rbmx import (
    MixedSystem,
    State,
    Var,
    compose,
    consistency,
    consistency_weight,
    equivalent,
    inner,
    likelihood,
    outer,
)
from rbmx import core
from rbmx.automata import ma_compose, ma_to_json
from rbmx.bayes import MixedKernel, bn_score, bn_to_json, bn_validate
from rbmx.core import all_states
from rbmx.embeddings import ma_to_spa
from rbmx.errors import (
    CapExceeded,
    DomainMismatch,
    GuardNotBoolean,
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    MissingObservation,
    NotIncremental,
    RbSyntaxError,
    UndeclaredVariable,
    UnknownDistribution,
    VariableSetMismatch,
)
from rbmx.rblang import (
    elaborate_dynamic,
    elaborate_graph,
    elaborate_static,
    is_dynamic,
    parse,
    print_program,
    program_factor_graph,
    run_program,
)
import rbmx.rblang.run as rblang_run
from rbmx.rblang import elaborate
from rbmx.rblang.elaborate import _graft
from rbmx.rblang.syntax import (MAX_NESTING, Const, Func, Pair, Pre, SEq, SObserve, SPar,
                                VarRef, nodes)

from .oracles import (
    chain,
    enumerated_equation,
    full_graft,
    naive_point_outer,
    off_domain_states,
    outer_bn_score,
    rand_domain,
    rand_system_over,
    recheck_builds,
    score_outcome,
)

COUNTER = """
domain z4 = { 0, 1, 2, 3 }
var x : z4
func inc : z4 -> z4 { 0 -> 1, 1 -> 2, 2 -> 3, 3 -> 0 }

|| init x = 0
|| x = inc(pre x)
"""

STATIC = """
domain bit = { 0, 1 }
var x : bit
var y : bit
func neg : bit -> bit { 0 -> 1, 1 -> 0 }
dist coin : bit { 0 : 1/2, 1 : 1/2 }

|| x ~ coin
|| y = neg(x)
"""


# f and g are defined on bit, but x ranges over tri: both leave their tables at x = 2
OFF_TABLE = """
domain bit = { 0, 1 }
domain tri = { 0, 1, 2 }
domain bool = { F, T }
var x : tri
var y : bit
func f : bit -> bit { 0 -> 1, 1 -> 0 }
func g : bit -> bool { 0 -> T, 1 -> F }
"""

HEAD = ("domain bit = { 0, 1 }\nvar x, y : bit\n"
        "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n")
BOOL_HEAD = "domain bool = { F, T }\nvar b : bool\n"

# text whose last line parse must reject with RbSyntaxError, and a piece of
# the message; each case once raised a raw Python error instead
HOSTILE = {
    "parens in an equation": (HEAD + "|| x = " + "(" * 3000 + "y" + ")" * 3000, "nesting"),
    "nested blocks": (HEAD + "|| " + "{ " * 3000 + "x = y" + " }" * 3000, "nesting"),
    "parens around a lhs": (HEAD + "|| " + "(" * 3000 + "x" + ")" * 3000 + " = y", "nesting"),
    "zero denominator in a dist row": (HEAD + "dist d : bit { 0 : 1/0, 1 : 1 }",
                                       "zero denominator"),
    "zero denominator in Bernoulli": (BOOL_HEAD + "|| b ~ Bernoulli(1/0)", "zero denominator"),
    "two decimal points": (HEAD + "dist d : bit { 0 : 1.2.3, 1 : 0 }", "malformed number"),
    "5000-digit value": ("domain d = { " + "7" * 5000 + " }", "longer than"),
    "huge exponent": (BOOL_HEAD + "|| b ~ Bernoulli(1e999999999)", "exponent"),
    "superscript digit": ("domain d = { \u00b2 }", "stray character"),
}


def deep_call(k):
    """A dynamic program whose equation nests k calls of neg."""
    return HEAD + "|| init y = 0\n|| y = x\n|| x = " + "neg(" * k + "pre y" + ")" * k


def deep_blocks(k):
    """A static program with k nested parallel blocks."""
    return HEAD + "|| x = neg(y)\n|| " + "{ y = y || " * k + "x = x" + " }" * k


# priors that parse must reject, each with its typed error and a piece of
# the message; elaboration trusts a parsed program and checks none of them
BIT_BOOL = "domain bit = { 0, 1 }\ndomain bool = { F, T }\nvar x : bit\nvar b, c : bool\n"
FLIP_DECL = "dist flip(bit) : bit { 0 -> { 0 : 3/4, 1 : 1/4 }, 1 -> { 0 : 1/4, 1 : 3/4 } }\n"
BAD_PRIORS = {
    "Bernoulli of a variable": (BIT_BOOL + "|| b ~ Bernoulli(c)",
                                UnknownDistribution, "fixed rational parameter"),
    "Bernoulli above 1": (BIT_BOOL + "|| b ~ Bernoulli(3/2)", MalformedSystem, "outside [0,1]"),
    "Bernoulli of a string": (BIT_BOOL + '|| b ~ Bernoulli("1/3")',
                              UnknownDistribution, "fixed rational parameter"),
    "Bernoulli of a boolean": (BIT_BOOL + "|| b ~ Bernoulli(T)",
                               UnknownDistribution, "fixed rational parameter"),
    "declared over another domain": (BIT_BOOL + "dist fb : bool { F : 1/2, T : 1/2 }\n|| x ~ fb",
                                     DomainMismatch, "is over 'bool'"),
    "parameter missing": (BIT_BOOL + FLIP_DECL + "|| x ~ flip",
                          UnknownDistribution, "needs a parameter"),
    "parameter not taken": (BIT_BOOL + "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n|| x ~ coin(x)",
                            UnknownDistribution, "takes no parameter"),
    "Bernoulli over 0 and 1": (BIT_BOOL + "|| x ~ Bernoulli(1/3)",
                               DomainMismatch, "Bernoulli needs the boolean domain"),
    "Uniform over 0 and 1 for a boolean": (BIT_BOOL + "|| b ~ Uniform(bit)",
                                           DomainMismatch, "does not match the domain"),
    "Uniform of a constant": (BIT_BOOL + "|| x ~ Uniform(1)",
                              DomainMismatch, "Uniform takes a domain name"),
}

# a value of another type where a domain value is due: 1 is not T, though
# Python's == says so; parse refuses each with DomainMismatch
OTHER_TYPE = {
    "init": (BIT_BOOL + "|| init b = 1\n|| b = pre b", "init b = 1 falls outside"),
    "function key": (BIT_BOOL + "func f : bool -> bit { 0 -> 0, 1 -> 1 }",
                     "function 'f' maps 0, outside its input domains"),
    "function tuple key": (BIT_BOOL + "func f : (bit, bool) -> bit "
                           "{ (0, 0) -> 0, (0, 1) -> 1, (1, 0) -> 1, (1, 1) -> 0 }",
                           "function 'f' maps (0, 0), outside"),
    "function value": (BIT_BOOL + "func f : bit -> bool { 0 -> 1, 1 -> 0 }",
                       "function 'f' produces 1 outside 'bool'"),
    "distribution row": (BIT_BOOL + "dist d : bool { 0 : 1/2, 1 : 1/2 }",
                         "distribution 'd' weights 0 outside 'bool'"),
    "distribution parameter": (BIT_BOOL + "dist d(bool) : bit { 0 -> { 0 : 1 }, 1 -> { 1 : 1 } }",
                               "must give a table for every value of 'bool'"),
}

# constants that parse must reject as values of another type than the
# domain they meet, each with a piece of the message
TYPED_CONSTANTS = {
    "equation side": (BIT_BOOL + "|| b = 1", "constant 1 in equation is not a value of 'bool'"),
    "left equation side": (BIT_BOOL + "|| T = x", "constant T in equation is not a value of 'bit'"),
    "function argument": (BIT_BOOL + "func neg : bool -> bool { F -> T, T -> F }\n|| c = neg(1)",
                          "constant 1 in equation is not a value of 'bool'"),
    "if branch": (BIT_BOOL + "|| b = if c then T else 0",
                  "constant 0 in equation is not a value of 'bool'"),
    "if condition": (BIT_BOOL + "|| x = if 1 then 0 else 1",
                     "constant 1 in equation is not a value of 'bool'"),
    "pair item": (BIT_BOOL + "|| (x, b) = (0, 1)", "constant 1 in equation is not a value of 'bool'"),
    "if branch against the if's own domain": (BIT_BOOL + "|| (if c then 1 else b) = T",
                                              "constant 1 in equation is not a value of 'bool'"),
    "pair of constants as an if branch": (BIT_BOOL + "|| (if c then (0, 1) else (b, x)) = (T, 0)",
                                          "constant 0 in equation is not a value of 'bool'"),
    "distribution parameter": (BIT_BOOL + "dist flip(bool) : bit { F -> { 0 : 1 }, T -> { 1 : 1 } }"
                               "\n|| x ~ flip(1)",
                               "constant 1 in prior for 'x' is not a value of 'bool'"),
    "argument of a distribution parameter": (BIT_BOOL + FLIP_DECL
                                             + "func g : bool -> bit { F -> 0, T -> 1 }\n"
                                             "|| x ~ flip(g(0))",
                                             "constant 0 in prior for 'x' is not a value of 'bool'"),
    "guard function argument": (BIT_BOOL + "func neg : bool -> bool { F -> T, T -> F }\n"
                                "|| init c = F || on neg(1) then b = T else b = F",
                                "constant 1 in guard is not a value of 'bool'"),
    "guard if condition": (BIT_BOOL + "|| init c = F || on (if 0 then c else c) then b = T "
                           "else b = F", "constant 0 in guard is not a value of 'bool'"),
}


# the parameterized priors: y ~ flip(x) with x free, then with x drawn first
FLIP_KERNEL = """
domain bit = { 0, 1 }
var x : bit
var y : bit
dist flip(bit) : bit { 0 -> { 0 : 3/4, 1 : 1/4 }, 1 -> { 0 : 1/4, 1 : 3/4 } }

|| y ~ flip(x)
"""

FLIP_COVERED = """
domain bit = { 0, 1 }
var x : bit
var y : bit
dist coin : bit { 0 : 1/2, 1 : 1/2 }
dist flip(bit) : bit { 0 -> { 0 : 3/4, 1 : 1/4 }, 1 -> { 0 : 1/4, 1 : 3/4 } }

|| x ~ coin
|| y ~ flip(x)
"""

# a dynamic step that grafts: z's next value is drawn from a row chosen by pre z
MARKOV = """
domain t3 = { 0, 1, 2 }
var z : t3
dist step(t3) : t3 { 0 -> { 0 : 1/2, 1 : 1/2, 2 : 0 }, 1 -> { 0 : 0, 1 : 1/3, 2 : 2/3 },
                     2 -> { 0 : 1/4, 1 : 0, 2 : 3/4 } }

|| init z = 0
|| z ~ step(pre z)
"""


# a declaration given twice, or a table key or value given twice in one
# declaration: parse refuses each with RbSyntaxError at the token after it
BIT_DECL = "domain bit = { 0, 1 }\n"
REPEATED = {
    "domain": (BIT_DECL + "domain bit = { 0 }", "domain 'bit' declared twice at line 2, col 12"),
    "domain value": ("domain d = { 0, 1, 0 }", "domain 'd' repeats a value at line 1, col 23"),
    "variable": (BIT_DECL + "var x : bit\nvar y, x : bit",
                 "variable 'x' declared twice at line 3, col 15"),
    "function": (BIT_DECL + "func f : bit -> bit { 0 -> 1, 1 -> 0 }\n"
                 "op f : bit -> bit { 0 -> 0, 1 -> 1 }",
                 "function 'f' declared twice at line 3, col 6"),
    "function named if": (BIT_DECL + "func if : bit -> bit { 0 -> 1, 1 -> 0 }",
                          "expected function name, found 'if' at line 2, col 6"),
    "function key": (BIT_DECL + "func f : bit -> bit { 0 -> 1, 1 -> 0, 0 -> 0 }",
                     "function 'f' maps 0 twice at line 2, col 46"),
    "function tuple key": (BIT_DECL + "func f : (bit, bit) -> bit { (0, 0) -> 0, (0, 0) -> 1 }",
                           "function 'f' maps (0, 0) twice at line 2, col 55"),
    "distribution": (BIT_DECL + "dist d : bit { 0 : 1 }\ndist d : bit { 1 : 1 }",
                     "distribution 'd' declared twice at line 3, col 8"),
    "builtin distribution": (BIT_DECL + "dist Uniform : bit { 0 : 1 }",
                             "distribution 'Uniform' declared twice at line 2, col 14"),
    "distribution key": (BIT_DECL + "dist d(bit) : bit { 0 -> { 0 : 1 }, 0 -> { 1 : 1 } }",
                         "distribution 'd' maps 0 twice at line 2, col 52"),
    "distribution value": (BIT_DECL + "dist d : bit { 0 : 1/2, 0 : 1/2 }",
                           "distribution repeats value 0 at line 2, col 33"),
}

# statements that parse refuses after the syntax: each error type and message
BAD_STATEMENTS = {
    "undeclared function": (HEAD + "|| x = foo(y)", UndeclaredVariable,
                            "undeclared function 'foo' in equation"),
    "wrong arity": (HEAD + "|| x = neg(x, y)", DomainMismatch,
                    "function 'neg' takes 1 arguments, got 2 in equation"),
    "conflicting inits": (HEAD + "|| init x = 0\n|| init x = 1\n|| x = pre x",
                          MalformedSystem, "conflicting init values for 'x'"),
    "nested on": (HEAD + "|| init x = 0\n|| on pre x then { on pre x then y = 0 else y = 1 } "
                  "else y = 0", MalformedSystem, "on-statements do not nest inside branches"),
}

# st(x): a parameterized prior over bit, as in x ~ st(z)
ST_HEAD = (HEAD + "var z, w : bit\n"
           "dist st(bit) : bit { 0 -> { 0 : 1/2, 1 : 1/2 }, 1 -> { 0 : 1/3, 1 : 2/3 } }\n")


def roundtrip(text):
    p = parse(text)
    out = print_program(p)
    assert parse(out) == p, out
    return p


class TestParsePrint:
    def test_programs_round_trip(self):
        for text in (COUNTER, STATIC):
            roundtrip(text)

    def test_pre_of_pre_is_rejected(self):
        with pytest.raises(RbSyntaxError):
            parse("domain bit = { 0, 1 }\nvar x : bit\n|| x = pre (pre x)")

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            parse("domain bit = { 0, 1 }\nvar x : bit\n|| x = zz")

    def test_guard_without_init(self):
        with pytest.raises(MissingInit):
            parse("domain bool = { F, T }\nvar b : bool\nvar x : bool\n"
                  "|| on b then x = T else x = F")

    def test_init_must_be_top_level(self):
        with pytest.raises(MalformedSystem):
            parse("domain bool = { F, T }\nvar b : bool\nvar x : bool\n"
                  "|| init b = T\n|| on pre b then init x = T else x = F")

    def test_partial_function_table(self):
        with pytest.raises(DomainMismatch):
            parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "func f : bit -> bit { 0 -> 1 }\n|| x = f(x)")

    def test_dist_must_sum_to_one(self):
        with pytest.raises(MalformedSystem):
            parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "dist d : bit { 0 : 1/2, 1 : 1/3 }\n|| x ~ d")

    @pytest.mark.parametrize("name", sorted(BAD_PRIORS))
    def test_bad_prior_is_rejected_at_parse(self, name):
        text, error, words = BAD_PRIORS[name]
        with pytest.raises(error, match=re.escape(words)):
            parse(text)

    @pytest.mark.parametrize("name", sorted(OTHER_TYPE))
    def test_a_value_of_another_type_is_rejected_at_parse(self, name):
        text, words = OTHER_TYPE[name]
        with pytest.raises(DomainMismatch, match=re.escape(words)):
            parse(text)

    @pytest.mark.parametrize("name", sorted(TYPED_CONSTANTS))
    def test_a_constant_of_another_type_is_rejected_at_parse(self, name):
        text, words = TYPED_CONSTANTS[name]
        with pytest.raises(DomainMismatch, match=re.escape(words)):
            parse(text)

    def test_constants_of_the_domain_they_meet_parse(self):
        p = parse(BIT_BOOL + "func neg : bool -> bool { F -> T, T -> F }\n"
                  "dist flip(bool) : bit { F -> { 0 : 1 }, T -> { 1 : 1 } }\n"
                  "|| b = neg(T) || (x, c) = (1, if b then F else T) || x ~ flip(F)")
        assert parse(print_program(p)) == p

    def test_programs_whose_values_differ_in_type_differ(self):
        ints = parse("domain d = { 0, 1 }\nvar x : d\n|| x = 1")
        bools = parse("domain d = { F, T }\nvar x : d\n|| x = T")
        assert ints != bools
        assert ints == parse(print_program(ints))

    def test_decimal_probabilities_are_exact(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "dist d : bit { 0 : 0.5, 1 : 0.5 }\n|| x ~ d")
        S = elaborate_static(p)
        assert outer(S, lambda q: q["x"] == 0) == Fraction(1, 2)

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_input_is_a_positioned_syntax_error(self, name):
        text, words = HOSTILE[name]
        with pytest.raises(RbSyntaxError) as exc:
            parse(text)
        assert words in str(exc.value)
        assert exc.value.line == text.count("\n") + 1
        assert exc.value.col is not None

    def test_deepest_accepted_nesting_round_trips_and_elaborates(self):
        # the statement and its right-hand side take the first two levels
        k = MAX_NESTING - 2
        p = roundtrip(deep_call(k))
        r = run_program(p, steps=3, seed=0)
        assert [st["x"] for st in r.trace[1:]] == [0, 0]  # k is even: x = pre y
        S = elaborate_static(roundtrip(deep_blocks(k)))
        assert outer(S, lambda q: q["x"] != q["y"]) == 1
        for text in (deep_call(k + 1), deep_blocks(k + 1)):
            with pytest.raises(RbSyntaxError, match="nesting"):
                parse(text)

    @pytest.mark.parametrize("text, dynamic", [
        (STATIC, False),
        (COUNTER, True),
        (BOOL_HEAD + "|| init b = T", True),
        (BOOL_HEAD + "var x : bool\n|| init b = T\n|| on b then x = T else x = F", True),
    ], ids=["static", "init and pre", "init alone", "init and on"])
    def test_is_dynamic(self, text, dynamic):
        assert is_dynamic(parse(text)) is dynamic

    @pytest.mark.parametrize("text, line, col", [
        ("domain d = { 0, 1 }\nvar x : d\n|| x = \u0661", 3, 8),
        ("domain d = { 0, 1 }\nvar x : d\n|| x = 1\u0661", 3, 9),
        ("domain d = { 0, \uff11 }", 1, 17),
    ], ids=["an Arabic-Indic one", "after an ASCII digit", "a fullwidth one"])
    def test_numbers_are_ascii_digits_only(self, text, line, col):
        with pytest.raises(RbSyntaxError, match="stray character") as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_syntax_error_carries_position(self):
        with pytest.raises(RbSyntaxError) as exc:
            parse("domain bit = { 0, 1 }\nvar x bit\n|| x = 0")
        assert exc.value.line == 2

    @pytest.mark.parametrize("name", sorted(REPEATED))
    def test_a_repeated_declaration_or_key_is_a_syntax_error(self, name):
        text, message = REPEATED[name]
        with pytest.raises(RbSyntaxError, match="^%s$" % re.escape(message)):
            parse(text)

    @pytest.mark.parametrize("name", sorted(BAD_STATEMENTS))
    def test_a_bad_statement_is_rejected_at_parse(self, name):
        text, error, message = BAD_STATEMENTS[name]
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            parse(text)

    def test_shorthands_parse_to_their_long_forms(self):
        assert parse(HEAD + "|| observe x, y").body == SPar((SObserve("x"), SObserve("y")))
        assert parse(HEAD + "|| ( x = 1 )") == parse(HEAD + "|| x = 1")
        assert parse(HEAD + "|| ((x, y)) = (0, 1)") == parse(HEAD + "|| (x, y) = (0, 1)")
        pre_call = parse(HEAD + "|| init x = 0\n|| x = neg(pre(x))")
        assert pre_call == parse(HEAD + "|| init x = 0\n|| x = neg(pre x)")
        assert pre_call.body.items[1] == SEq(VarRef("x"), Func("neg", (Pre("x"),)))


class TestRun:
    def test_counter_trace(self):
        p = roundtrip(COUNTER)
        r = run_program(p, steps=5, seed=7)
        assert [st["x"] for st in r.trace] == [0, 1, 2, 3, 0]
        assert all(z == 1 for z in r.norms)

    def test_deterministic_dynamics_ignore_the_seed(self):
        p = parse(COUNTER)
        a = run_program(p, steps=5, seed=7)
        b = run_program(p, steps=5, seed=424242)
        assert a.trace == b.trace

    def test_guarded_alternation(self):
        p = roundtrip("""
domain bit = { 0, 1 }
domain bool = { F, T }
var b : bool
var x : bit

|| init b = T
|| init x = 0
|| on pre b then { x = 0 || b = F } else { x = 1 || b = T }
""")
        r = run_program(p, steps=5, seed=0)
        seq = [(st["b"], st["x"]) for st in r.trace]
        assert seq == [(True, 0), (False, 0), (True, 1), (False, 0), (True, 1)]

    def test_guard_must_be_boolean(self):
        p = parse("domain bit = { 0, 1 }\nvar g : bit\nvar x : bit\n"
                  "|| init g = 0\n|| init x = 0\n"
                  "|| on pre g then x = 1 else x = 0")
        with pytest.raises(GuardNotBoolean):
            run_program(p, steps=2)

    def test_observation_norms(self):
        p = parse(STATIC + "|| observe y\n")
        r = run_program(p, obs=[{"y": 1}, {"y": 0}, {"y": 1}], steps=4, seed=3)
        assert [st["x"] for st in r.trace[1:]] == [0, 1, 0]
        assert r.norms == (Fraction(1, 2),) * 3

    def test_contradictory_observation_names_the_step(self):
        p = parse("""
domain bit = { 0, 1 }
var x : bit
var y : bit
dist coin : bit { 0 : 1/2, 1 : 1/2 }

|| x ~ coin
|| y = x
|| x = 0
|| observe y
""")
        with pytest.raises(InconsistentSystem) as exc:
            run_program(p, obs=[{"y": 0}, {"y": 1}], steps=3, seed=0)
        assert "step 2" in str(exc.value)

    def test_a_run_too_long_to_keep_is_refused_before_its_first_step(self, monkeypatch):
        # steps times visible variables, counting at least one, above the cap
        monkeypatch.setattr(rblang_run, "sample", None)  # no step may be drawn
        cap = core.MAX_OUTCOMES
        for text, visible in ((STATIC, 2), (COUNTER, 1), ("domain bit = { 0, 1 }\n", 0)):
            steps = cap // max(1, visible) + 1
            with pytest.raises(CapExceeded, match="a run of %d instants over %d visible "
                               "variables .* above the cap of %d" % (steps, visible, cap)):
                run_program(parse(text), steps=steps)


class TestStatic:
    def test_an_equation_compares_values_by_type(self):
        # b : { F, T } and x : { 0, 1 } share no value, though T == 1
        S = elaborate_static(parse(BIT_BOOL + "|| b = x"))
        assert [v.name for v in S.vars] == ["b", "x"]
        assert all(row == () for row in S.rel.values())
        S = elaborate_static(parse(BIT_BOOL + "|| (x, b) = (x, c)"))
        assert sorted((q["x"], q["b"]) for q in S.rel["e"]) == [
            (0, False), (0, True), (1, False), (1, True)]
        assert all(q["b"] is q["c"] for q in S.rel["e"])

    def test_a_dynamic_program_is_refused(self):
        with pytest.raises(MalformedSystem, match="^the static semantics covers programs "
                                                  "without pre/init/on$"):
            elaborate_static(parse(COUNTER))

    def test_priors_that_feed_each_other_are_a_cycle(self):
        cycle = "parameterized priors depend on each other in a cycle"
        with pytest.raises(NotIncremental, match="^%s$" % cycle):
            elaborate_static(parse(ST_HEAD + "|| x ~ st(z) || z ~ st(x)"))
        # with a free input the kernel is made, and the cycle found when it is applied
        K = elaborate_static(parse(ST_HEAD + "|| x ~ st(z) || z ~ st(x) || y ~ st(w)"))
        assert (K.in_names, K.out_names) == (("w",), ("x", "y", "z"))
        with pytest.raises(NotIncremental, match="^%s$" % cycle):
            K.apply(State({"w": 0}))

    def test_a_parameter_of_another_type_has_no_case(self):
        p = parse(BIT_BOOL + "var y : bit\n"
                  "dist flip(bool) : bit { F -> { 0 : 1 }, T -> { 1 : 1 } }\n"
                  "|| y ~ Uniform(bit) || x ~ flip(y)")
        with pytest.raises(DomainMismatch, match="distribution 'flip' has no case for parameter 0"):
            elaborate_static(p)

    def test_joint_law(self):
        S = elaborate_static(parse(STATIC))
        assert outer(S, lambda q: q["x"] == 0 and q["y"] == 1) == Fraction(1, 2)
        assert outer(S, lambda q: q["x"] == q["y"]) == 0

    def test_parallel_blocks_compose(self):
        p1 = parse("domain bit = { 0, 1 }\nvar x : bit\n"
                   "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n|| x ~ coin")
        p2 = parse("domain bit = { 0, 1 }\nvar x : bit\nvar y : bit\n"
                   "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n|| y = neg(x)")
        S = elaborate_static(parse(STATIC))
        assert equivalent(S, compose(elaborate_static(p1), elaborate_static(p2)))

    def test_observation_conditions_the_law(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "dist coin : bit { 0 : 1/3, 1 : 2/3 }\n|| x ~ coin\n|| observe x")
        S = elaborate_static(p, obs={"x": 1})
        assert outer(S, lambda q: q["x"] == 1) == 1
        assert consistency_weight(S) == Fraction(2, 3)
        with pytest.raises(MissingObservation):
            elaborate_static(p)

    def test_conflicting_constraints_condition(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n|| x ~ coin\n|| x = 1")
        S = elaborate_static(p)
        assert outer(S, lambda q: q["x"] == 1) == 1
        assert consistency_weight(S) == Fraction(1, 2)

    def test_if_then_else(self):
        p = parse("""
domain bit = { 0, 1 }
domain bool = { F, T }
var f : bool
var x : bit
var y : bit
dist fb : bool { F : 9/10, T : 1/10 }

|| f ~ fb
|| x ~ Uniform(bit)
|| y = if f then x else 0
""")
        S = elaborate_static(p)
        assert outer(S, lambda q: q["y"] == 1) == Fraction(1, 20)

    def test_function_outside_its_table_is_a_domain_mismatch(self):
        p = parse(OFF_TABLE + "|| x ~ Uniform(tri) || y = f(x)")
        with pytest.raises(DomainMismatch, match=r"function f is not defined at \(2\)"):
            elaborate_static(p)

    def test_guard_outside_its_table_is_a_domain_mismatch(self):
        p = parse(OFF_TABLE + "|| init x = 0\n|| x ~ Uniform(tri)\n"
                  "|| on g(x) then y = 0 else y = 1")
        with pytest.raises(DomainMismatch, match=r"function g is not defined at \(2\)"):
            elaborate_dynamic(p)

    def test_builtin_dists(self):
        S = elaborate_static(parse("domain bool = { F, T }\nvar rf : bool\n"
                                   "|| rf ~ Bernoulli(1e-6)"))
        assert outer(S, lambda q: q["rf"]) == Fraction(1, 1000000)
        with pytest.raises(DomainMismatch):
            elaborate_static(parse("domain tri = { 0, 1, 2 }\nvar x : tri\n"
                                   "|| x ~ Bernoulli(1/2)"))
        with pytest.raises(DomainMismatch):
            elaborate_static(parse(
                "domain bit = { 0, 1 }\ndomain tri = { 0, 1, 2 }\n"
                "var x : bit\n|| x ~ Uniform(tri)"))
        with pytest.raises(UnknownDistribution):
            elaborate_static(parse("domain bit = { 0, 1 }\nvar x : bit\n"
                                   "|| x ~ nosuch"))

    def test_parameter_outside_the_table_is_a_domain_mismatch(self):
        # flip has a case for 0 and 1 only; x ranges over tri
        p = parse("domain bit = { 0, 1 }\ndomain tri = { 0, 1, 2 }\nvar x : tri\nvar y : bit\n"
                  + FLIP_DECL + "|| x ~ Uniform(tri)\n|| y ~ flip(x)")
        with pytest.raises(DomainMismatch, match="'flip' has no case for parameter 2"):
            elaborate_static(p)

    def test_parameterized_prior_becomes_a_kernel(self):
        p = roundtrip(FLIP_KERNEL)
        K = elaborate_static(p)
        assert isinstance(K, MixedKernel)
        assert K.in_names == ("x",)
        assert outer(K.apply(State({"x": 1})), lambda q: q["y"] == 1) == Fraction(3, 4)

    def test_covered_parameter_grafts_into_a_system(self):
        p = parse(FLIP_COVERED)
        S = elaborate_static(p)
        assert outer(S, lambda q: q["y"] == 1 and q["x"] == 0) == Fraction(1, 8)
        assert outer(S, lambda q: q["y"] == 1) == Fraction(1, 2)

    def test_graft_checks_the_size_cap(self, monkeypatch):
        p = parse(FLIP_COVERED)
        # 2 base outcomes, each drawing only the one cell its row reads: 4
        monkeypatch.setattr(core, "MAX_OUTCOMES", 4)
        assert len(elaborate_static(p).omega) == 4
        monkeypatch.setattr(core, "MAX_OUTCOMES", 3)
        with pytest.raises(CapExceeded):
            elaborate_static(p)


def _static_systems(p):
    """The static elaboration of p as systems: the system itself, or the
    kernel's system at every input."""
    res = elaborate_static(p)
    if isinstance(res, MixedKernel):
        return [res.apply(c) for c in res.inputs()]
    return [res]


def _under_both_grafts(build):
    """build() with the graft under test, then with the full-product graft."""
    new = build()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(elaborate, "_graft", full_graft)
        old = build()
    return new, old


def rand_graft(rng):
    """A random base and a kernel on some of its variables.  Base rows hold
    several states or none; the kernel's output may share a base variable,
    so joins can clash, and a cell may admit no state at all."""
    pool = [Var("x%d" % i, rand_domain(rng, "D%d" % i, max_size=2)) for i in range(3)]
    base_vars = rng.sample(pool, rng.randint(1, 3))
    base = rand_system_over(rng, base_vars, max_omega=3)
    in_vars = rng.sample(base_vars, rng.randint(0, min(2, len(base_vars))))
    out_vars = [Var("y", rand_domain(rng, "Dy", max_size=2))]
    rest = [v for v in base_vars if v not in in_vars]
    if rest and rng.random() < 0.4:
        out_vars.append(rng.choice(rest))
    table = {}
    for cell in all_states(in_vars):
        if rng.random() < 0.15:
            table[cell] = MixedSystem((["e"], {"e": Fraction(1)}), out_vars, {"e": []})
        else:
            table[cell] = rand_system_over(rng, out_vars, max_omega=3)
    return base, MixedKernel(in_vars, out_vars, table, name="k")


class TestGraft:
    @pytest.mark.parametrize("text", [FLIP_KERNEL, FLIP_COVERED, chain(2), chain(3), chain(4)],
                             ids=["kernel", "covered", "chain2", "chain3", "chain4"])
    def test_static_agrees_with_the_full_product(self, text):
        p = parse(text)
        new, old = _under_both_grafts(lambda: _static_systems(p))
        assert len(new) == len(old)
        assert all(equivalent(S, T) for S, T in zip(new, old))

    def test_dynamic_steps_agree_with_the_full_product(self):
        for text in (MARKOV, chain(3)):
            p = parse(text)
            new, old = _under_both_grafts(lambda: elaborate_dynamic(p).materialize())
            assert new.delta.keys() == old.delta.keys()
            assert all(equivalent(S, old.delta[key]) for key, S in new.delta.items())

    def test_random_grafts_agree_with_the_full_product(self, monkeypatch):
        built = recheck_builds(monkeypatch)  # each graft equals the checked build
        rng = random.Random(8080)
        seen = {"several cells": 0, "empty row": 0, "inconsistent cell": 0, "queried": 0}
        for _ in range(300):
            base, K = rand_graft(rng)
            G, F = _graft(base, K), full_graft(base, K)
            assert equivalent(G, F)
            assert consistency_weight(G) == consistency_weight(F)
            cells = [{q.restrict(K.in_names) for q in base.rel[o]} for o in base.omega]
            seen["several cells"] += any(len(c) > 1 for c in cells)
            seen["empty row"] += any(not c for c in cells)
            seen["inconsistent cell"] += any(
                not any(K.apply(c).rel.values()) for c in K.inputs())
            if consistency_weight(G) > 0:
                seen["queried"] += 1
                states = list(all_states(G.vars))
                A = rng.sample(states, rng.randint(1, min(3, len(states))))
                for query in (outer, inner, likelihood):
                    assert query(G, A) == query(F, A)
        assert all(seen.values()), seen
        assert len(built) >= 300

    def test_chains_draw_one_cell_per_outcome(self):
        # the full product had 81, 2,187 and 59,049 outcomes
        sizes = [len(elaborate_static(parse(chain(k))).omega) for k in (2, 3, 4)]
        assert sizes == [9, 27, 81]


# a static program that elaborate_graph turns into a network through its
# factor graph, not one kernel per statement
TREE_REWRITE = ("domain bit = { 0, 1 }\nvar x : bit\nvar y : bit\n"
                "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n"
                "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n"
                "|| { x ~ coin || y = neg(x) }\n|| observe y")


COIN_HEAD = HEAD + "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n"

# programs the directed rules refuse, each for one reason, whose blocks'
# factor graph is a tree, with the kernels fg_to_bn makes of it
FALLBACKS = {
    "pair on the left": (COIN_HEAD + "|| x ~ coin\n|| (x, y) = (x, neg(x))",
                         ["cond[S2|x]", "head[S1]"]),
    "defined from itself": (COIN_HEAD + "|| y = neg(x)\n|| x = neg(x)",
                            ["cond[S2|x]", "head[S1]"]),
    "two producers": (COIN_HEAD + "|| x ~ coin\n|| x = 0", ["cond[S2|x]", "head[S1]"]),
}

# y is observed and produced, so no directed reading; the blocks form a
# forest of two trees, { S1, S2 } joined by y and S3 alone
FOREST = COIN_HEAD + "var z : bit\n|| { x ~ coin || y = neg(x) } || observe y || z ~ coin"


class TestGraph:
    def test_direct_rules(self):
        N = elaborate_graph(parse(STATIC))
        assert not bn_validate(N)
        assert bn_score(N, State({"x": 0, "y": 1})).value == Fraction(1, 2)

    def test_circular_equations_rejected(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\nvar y : bit\n"
                  "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n"
                  "|| x = neg(y)\n|| y = neg(x)")
        with pytest.raises(NotIncremental, match="^%s$" % re.escape(
                "no directed reading (graph has a cycle through kernels "
                "['k[x]', 'k[y]', 'k[x]']) and factor graph component "
                "['S1', 'S2'] has a cycle")):
            elaborate_graph(p)

    @pytest.mark.parametrize("name", sorted(FALLBACKS))
    def test_each_failed_direct_rule_falls_back_to_the_factor_graph(self, name):
        text, kernels = FALLBACKS[name]
        N = elaborate_graph(parse(text))
        assert [K.name for K in N.kernels] == kernels
        for q in list(all_states(N.vars)) + list(off_domain_states(N)):
            assert score_outcome(bn_score, N, q) == score_outcome(outer_bn_score, N, q)

    def test_a_forest_of_blocks_scores_like_their_composition(self):
        p = parse(FOREST)
        N = elaborate_graph(p)
        assert not bn_validate(N)
        assert [K.name for K in N.kernels] == ["cond[S2|y]", "head[S1]", "head[S3]"]
        g = program_factor_graph(p)
        S = compose(*(g.systems[label] for label in g.labels))
        scores = [bn_score(N, q).value for q in all_states(N.vars)]
        assert scores == [naive_point_outer(S, q) for q in all_states(N.vars)]
        assert sorted(set(scores)) == [0, Fraction(1, 4)]

    def test_an_equation_off_its_domain_is_refused_when_its_kernel_is_applied(self):
        p = parse("domain bit = { 0, 1 }\ndomain tri = { 0, 1, 2 }\nvar x : bit\n"
                  "var y : tri\n|| y ~ Uniform(tri) || x = y")
        N = elaborate_graph(p)
        with pytest.raises(DomainMismatch,
                           match="^equation drives 'x' to 2 outside its domain$"):
            bn_to_json(N)

    def test_a_block_that_leaves_a_prior_without_its_input_is_refused(self):
        # x and z feed each other, so no directed reading; block 1 lacks z
        p = parse(ST_HEAD + "|| { x ~ st(z) || observe x } || x = z || z = x")
        with pytest.raises(NotIncremental, match="^block 1 has parameterized priors whose "
                                                 "inputs it does not determine$"):
            elaborate_graph(p)

    def test_fallback_tree_rewrite(self):
        N = elaborate_graph(parse(TREE_REWRITE))
        assert not bn_validate(N)
        assert bn_score(N, State({"x": 0, "y": 1})).value == Fraction(1, 2)

    def test_scores_match_the_outer_oracle(self):
        texts = [STATIC, TREE_REWRITE, FLIP_KERNEL, FLIP_COVERED] + [chain(k) for k in (2, 3, 4)]
        for text in texts:
            N = elaborate_graph(parse(text))
            for q in list(all_states(N.vars)) + list(off_domain_states(N)):
                assert score_outcome(bn_score, N, q) == score_outcome(outer_bn_score, N, q)

    def test_factor_graph_exposure(self):
        g = program_factor_graph(parse(STATIC))
        assert g.labels == ("S1", "S2")
        assert ("S1", "x") in g.edges
        assert ("S2", "y") in g.edges


class TestDynamic:
    def test_agrees_with_static_when_memoryless(self):
        p = parse(STATIC)
        M = elaborate_dynamic(p)
        S_step = M.transition(State({}), State({}))
        assert equivalent(S_step, elaborate_static(p))

    def test_free_variables_stay_free(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\nvar y : bit\n"
                  "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n|| x ~ coin\n|| y = y")
        S = elaborate_static(p)
        assert outer(S, lambda q: q["y"] == 0) == 1  # both values admitted
        assert outer(S, lambda q: q["y"] == 1) == 1

    def test_padding_frees_what_the_chosen_branch_leaves_unconstrained(self):
        p = parse("domain bool = { F, T }\ndomain bit = { 0, 1 }\n"
                  "var b : bool\nvar y, z : bit\n"
                  "|| init b = T\n|| b = pre b\n|| on pre b then y = 1 else z = 1")
        M = elaborate_dynamic(p)
        S = M.transition(M.initial, State({"pre b": True}))
        assert outer(S, lambda q: q["y"] == 0) == 0
        assert outer(S, lambda q: q["z"] == 0) == 1  # z is padded, so free
        assert outer(S, lambda q: q["z"] == 1) == 1

    def test_consumers_of_the_whole_table_materialize_lazy_automata(self):
        def copy(v):
            return elaborate_dynamic(parse(
                "domain bit = { 0, 1 }\nvar %s : bit\n|| init %s = 0\n|| %s = pre %s"
                % (v, v, v, v)))

        lazy = ma_compose(copy("x"), copy("y"))
        eager = ma_compose(copy("x").materialize(), copy("y").materialize())
        # 4 total states and the partial initial on each side
        assert len(lazy.delta) == len(eager.delta) == 25
        assert lazy.delta.keys() == eager.delta.keys()
        assert all(equivalent(S, eager.delta[k]) for k, S in lazy.delta.items())

        step = "domain bit = { 0, 1 }\nvar x : bit\n|| init x = 0\n|| x ~ Uniform(bit)"
        assert len(ma_to_spa(elaborate_dynamic(parse(step))).transitions) == 2
        assert ma_to_json(elaborate_dynamic(parse(step))) == ma_to_json(
            elaborate_dynamic(parse(step)).materialize())

    def test_the_provider_answers_only_its_actions_at_states_binding_every_pre(self):
        M = elaborate_dynamic(parse(BOOL_HEAD + "var x : bool\n|| init b = T || init x = F\n"
                                    "|| on pre b then x = pre x else x = F || b = pre b"))
        q = State({"b": True, "x": False})
        a = State({"pre b": True})
        assert M.provider(q, State({"pre c": True})) is None
        assert M.provider(q, "a") is None
        assert M.provider(State({"b": True}), a) is None
        assert M.provider(q, a) is M.transition(q, a)

    def test_a_guard_branch_constant_is_left_to_elaboration(self):
        # a guard's own value meets no domain at parse, so its if-branches'
        # constants are not checked there; the guard is refused as not boolean
        p = parse(BOOL_HEAD + "var c : bool\ndomain bit = { 0, 1 }\nvar x : bit\n"
                  "|| init b = T || init c = F\n"
                  "|| on (if b then 1 else c) then x = 0 else x = 1")
        with pytest.raises(GuardNotBoolean, match="evaluates to 1"):
            elaborate_dynamic(p)

    def test_materialize_without_a_provider_is_a_no_op(self):
        M = elaborate_dynamic(parse(COUNTER)).materialize()
        assert M.provider is None
        assert M.materialize(cap=0) is M

    def test_observation_outside_the_domain_raises(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n|| observe x")
        with pytest.raises(DomainMismatch, match="observed value 7 outside the domain of 'x'"):
            elaborate.observe_point(p, "x", {"x": 7})
        with pytest.raises(DomainMismatch, match="observed value 7"):
            elaborate_static(p, obs={"x": 7})

    def test_observation_of_another_type_raises(self):
        bits = parse("domain bit = { 0, 1 }\nvar x : bit\n|| observe x")
        bools = parse("domain bool = { F, T }\nvar x : bool\n|| observe x")
        for p, val in ((bits, True), (bits, 1.0), (bools, 1), (bools, 0)):
            with pytest.raises(DomainMismatch, match="outside the domain of 'x'"):
                elaborate.observe_point(p, "x", {"x": val})
            with pytest.raises(DomainMismatch, match="outside the domain of 'x'"):
                elaborate_static(p, obs={"x": val})
        assert elaborate.observed_value(Var("x", core.Domain("bool", (False, True))),
                                        {"x": False}) is False

    def test_pinning_a_value_outside_the_domain_raises(self):
        # transition checks the state before any lookup or provider call,
        # so True is not served z = 1's target
        M = elaborate_dynamic(parse(MARKOV))
        served = M.transition(State({"z": 1}), State({}))
        for bad in (7, True):
            with pytest.raises(VariableSetMismatch,
                               match="value %r outside domain of 'z'" % bad):
                M.transition(State({"z": bad}), State({}))
        assert M.transition(State({"z": 1}), State({})) is served

    def test_a_value_of_another_type_is_not_served_the_target_of_its_equal(self):
        M = elaborate_dynamic(parse("domain t3 = { 0, 1, 2 }\nvar z : t3\n"
                                    "|| init z = 0\n|| z = pre z"))
        a = M.alphabet[0]
        assert M.transition(State({"z": 1, "•z": 0}), a) is not None
        with pytest.raises(VariableSetMismatch, match="value True outside domain of 'z'"):
            M.transition(State({"z": True, "•z": 0}), a)
        with pytest.raises(VariableSetMismatch, match="unknown variable 'q'"):
            M.transition(State({"z": 1, "q": 0}), a)

    def test_observe_only_program(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n|| observe x")
        S = elaborate_static(p, obs={"x": 1})
        flag, _ = consistency(S)
        assert flag
        assert outer(S, lambda q: q["x"] == 1) == 1

    def test_steps_without_pre_share_one_target(self):
        p = parse("domain bit = { 0, 1 }\nvar x : bit\n"
                  "dist coin : bit { 0 : 1/2, 1 : 1/2 }\n|| init x = 0\n|| x ~ coin")
        M = elaborate_dynamic(p)
        q1, q2 = M.reachable()
        a = State({})
        assert q1 != q2
        assert M.transition(q1, a) is M.transition(q2, a)

    def test_steps_share_a_target_when_they_agree_on_pre(self):
        M = elaborate_dynamic(parse(MARKOV))
        a = State({})
        S = M.transition(State({"z": 1, "•z": 0}), a)
        assert M.transition(State({"z": 1, "•z": 2}), a) is S
        assert M.transition(State({"z": 2, "•z": 0}), a) is not S
        assert outer(S, lambda q: q["z"] == 2) == Fraction(2, 3)

    def test_dynamic_chain_grafts_one_cell_per_outcome(self):
        M = elaborate_dynamic(parse(chain(4))).materialize()
        assert len(M.delta) == 3 ** 4 * 2 + 1  # every total state and the empty initial
        assert {len(S.omega) for S in M.delta.values()} == {81}


# two parts, {z, b, u} and {o}: a prior read through pre, a guard, an
# observation
PARTS = """
domain t3 = { 0, 1, 2 }
domain bool = { F, T }
var z, u : t3
var b, o : bool
dist step(t3) : t3 { 0 -> { 0 : 1/2, 1 : 1/2 }, 1 -> { 1 : 1/3, 2 : 2/3 }, 2 -> { 0 : 1/4, 2 : 3/4 } }
func big : t3 -> bool { 0 -> F, 1 -> F, 2 -> T }

|| init z = 0
|| z ~ step(pre z)
|| init b = F
|| b = big(z)
|| on b then { u = z } else { u = 0 }
|| o ~ Bernoulli(1/2)
|| observe o
"""


class TestCompiledDeclarations:
    """Everything elaborated from one Program holds its one Var per name,
    over the typed Domain that parse kept."""

    def assert_own(self, p, vars):
        for v in vars:
            assert v is p.typed_vars[v.name], v
            assert v.domain is p.domains[p.vars[elaborate.base_name(v.name)]], v

    def assert_kernel_own(self, p, K):
        self.assert_own(p, K.in_vars + K.out_vars)
        for q in K.inputs():
            self.assert_own(p, K.apply(q).vars)

    @pytest.mark.parametrize("text", [STATIC, TREE_REWRITE, FLIP_KERNEL, FLIP_COVERED, chain(4)],
                             ids=["static", "tree rewrite", "flip kernel", "flip covered",
                                  "chain"])
    def test_static_and_graph(self, text):
        p = parse(text)
        S = elaborate_static(p, obs={"y": 0})
        if isinstance(S, MixedKernel):
            self.assert_kernel_own(p, S)
        else:
            self.assert_own(p, S.vars)
        N = elaborate_graph(p)
        self.assert_own(p, N.vars)
        for K in N.kernels:
            self.assert_kernel_own(p, K)

    def test_dynamic_parts_and_run(self, monkeypatch):
        p = parse(PARTS)
        M = elaborate_dynamic(p)
        assert {"•z", "•b"} <= {v.name for v in M.vars}
        self.assert_own(p, M.vars)
        for a in M.alphabet:
            self.assert_own(p, M.transition(M.initial, a).vars)
        assert len(elaborate.program_parts(p)) == 2
        targets = []
        sample = rblang_run.sample

        def recorded(systems, rng, resolver):
            targets.extend(systems)
            return sample(systems, rng, resolver)

        monkeypatch.setattr(rblang_run, "sample", recorded)
        run = run_program(p, obs=[{"o": True}] * 4, steps=5, seed=3)
        assert len(run.trace) == 5 and len(targets) == 2 * 4
        for S in targets:
            self.assert_own(p, S.vars)


# --- equations solved for their variable ---------------------------------------

EQUATION_HEAD = """
domain bool = { F, T }
domain bit = { 0, 1 }
domain tri = { 0, 1, 2 }
var a, b : bool
var x, y : bit
var t, u : tri
func neg : bit -> bit { 0 -> 1, 1 -> 0 }
func pos : bit -> bool { 0 -> F, 1 -> T }
func and2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> F, (T,F) -> F, (T,T) -> T }
func inc : tri -> tri { 0 -> 1, 1 -> 2, 2 -> 0 }
func low : tri -> bit { 0 -> 0, 1 -> 1, 2 -> 1 }
"""

# each variable with the functions that take its values, and the names
# of each kind of value
EQUATION_VARS = {"a": "bool", "b": "bool", "x": "bit", "y": "bit", "t": "tri", "u": "tri"}
EQUATION_FUNCS = {"neg": ("bit",), "pos": ("bit",), "and2": ("bool", "bool"),
                  "inc": ("tri",), "low": ("tri",)}
EQUATION_CONSTS = {"bool": (False, True), "bit": (0, 1), "tri": (0, 1, 2)}


def rand_expr(rng, dom, depth=2):
    """A random expression over EQUATION_HEAD showing values of dom: a
    constant, a variable, pre of one, a function, an if, or, when the
    domain is None, a pair."""
    kind = rng.choice(("const", "var", "pre", "func", "if", "pair") if depth else
                      ("const", "var", "pre"))
    if dom is None or kind == "pair":
        return Pair((rand_expr(rng, rng.choice(list(EQUATION_CONSTS)), depth - 1),
                     rand_expr(rng, rng.choice(list(EQUATION_CONSTS)), depth - 1)))
    if kind == "const":
        return Const(rng.choice(EQUATION_CONSTS[dom]))
    if kind in ("var", "pre"):
        # now and then a variable of another domain, whose value may match
        # by == but not by type
        names = [nm for nm, d in EQUATION_VARS.items() if d == dom or rng.random() < 0.2]
        name = rng.choice(names)
        return VarRef(name) if kind == "var" else Pre(name)
    if kind == "if":
        return Func("if", (rand_expr(rng, "bool", depth - 1), rand_expr(rng, dom, depth - 1),
                           rand_expr(rng, dom, depth - 1)))
    name = rng.choice([f for f, ins in EQUATION_FUNCS.items()])
    return Func(name, tuple(rand_expr(rng, d, depth - 1) for d in EQUATION_FUNCS[name]))


def equation_outcome(build, p, s):
    """build(p, lhs, rhs)'s system as (vars, omega, weights, rows in order),
    or the type and message of what it raises."""
    try:
        S = build(p, s.lhs, s.rhs)
    except Exception as exc:  # compared as they are raised
        return type(exc), str(exc)
    return S.vars, S.omega, list(S.pi.items()), [(o, list(row)) for o, row in S.rel.items()]


class TestEquations:
    """equation_system solves x = e for x without enumerating x, and keeps
    the rows of the enumeration over every state (enumerated_equation)."""

    def test_every_equation_of_the_test_programs(self):
        from .test_tools import ROOT, programs

        checked = solved = 0
        for text in programs.literals(ROOT):
            try:
                p = parse(text)
            except Exception:  # a program the front end refuses has no equations
                continue
            for s in nodes(p.body) if p.body is not None else ():
                if isinstance(s, SEq):
                    got = equation_outcome(elaborate.equation_system, p, s)
                    assert got == equation_outcome(enumerated_equation, p, s), text
                    checked += 1
                    solved += isinstance(s.lhs, VarRef)
        assert checked > 40 and solved > 30

    def test_seeded_equations_over_bool_int_and_pair_domains(self):
        rng = random.Random(2911)
        p = parse(EQUATION_HEAD)
        kinds = {"rows": 0, "none": 0, "error": 0}
        for _ in range(600):
            if rng.random() < 0.7:
                name = rng.choice(list(EQUATION_VARS))
                lhs = VarRef(name)
                rhs = rand_expr(rng, EQUATION_VARS[name] if rng.random() < 0.8 else None)
            else:
                lhs = rand_expr(rng, rng.choice(list(EQUATION_CONSTS) + [None]))
                rhs = rand_expr(rng, rng.choice(list(EQUATION_CONSTS) + [None]))
            s = SEq(lhs, rhs)
            got = equation_outcome(elaborate.equation_system, p, s)
            assert got == equation_outcome(enumerated_equation, p, s), s
            kinds["error" if len(got) == 2 else "rows" if got[3][0][1] else "none"] += 1
        assert all(n > 20 for n in kinds.values()), kinds

    def test_a_boolean_function_into_bits_has_no_solution(self):
        # pos(y) is F or T, never the bit 0 or 1 that x takes
        p = parse(EQUATION_HEAD + "|| x = pos(y)")
        s = p.body
        assert list(elaborate.equation_system(p, s.lhs, s.rhs).rel["e"]) == []
        assert equation_outcome(elaborate.equation_system, p, s) == equation_outcome(
            enumerated_equation, p, s)
        # over bools the same function gives one row per value of y
        p = parse(EQUATION_HEAD + "|| a = pos(y)")
        S = elaborate.equation_system(p, p.body.lhs, p.body.rhs)
        assert [q.as_dict() for q in S.rel["e"]] == [{"a": False, "y": 0}, {"a": True, "y": 1}]

    @pytest.mark.parametrize("stmt", ["y = f(x)", "(y, y) = (f(x), 1)", "y = neg(f(x))",
                                      "y = if g(pre y) then f(x) else 0"])
    def test_a_function_outside_its_table_raises_as_before(self, stmt):
        p = parse(OFF_TABLE + "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n"
                  "|| init y = 0\n|| " + stmt)
        s = next(x for x in nodes(p.body) if isinstance(x, SEq))
        got = equation_outcome(elaborate.equation_system, p, s)
        assert got == equation_outcome(enumerated_equation, p, s)
        assert got == (DomainMismatch, "function f is not defined at (2)")
