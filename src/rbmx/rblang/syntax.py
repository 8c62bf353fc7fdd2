"""Surface syntax of the modelling minilanguage: tokenizer, recursive-descent
parser, AST, and a canonical printer whose output reparses to an equal AST.

A source file is a header of declarations followed by a body of statements
joined by ``||`` (a leading ``|`` or ``||`` before the first statement is
allowed, mirroring the usual vertical list layout):

    domain bit = { 0, 1 }
    var x : bit
    func inc : bit -> bit { 0 -> 1, 1 -> 0 }

    || init x = 0
    || x = inc(pre x)

Declarations give every variable a finite domain and every external
function/operator a finite table, so elaboration can enumerate relations
exhaustively.  Distributions are declared as rational tables (optionally
parameterized over a domain); Bernoulli and Uniform are built in.

Numeric literals are decimal integers with an optional leading minus
(``-3``), and, as probabilities and distribution parameters only, ratios of
two integers with a nonzero denominator (``1/3``) and decimals with one
point or an exponent or both (``0.25``, ``1e-6``).  A literal has at most
MAX_NUMBER_LENGTH characters and an exponent of at most core.MAX_EXPONENT
in size; core.rat holds numbers in documents to the same exponent bound.
Statements and expressions nest at most MAX_NESTING levels deep, counted
together: each sits one level below the one containing it, and a
parenthesis or brace adds a level of its own.  Deeper programs are rejected
with RbSyntaxError, so every recursive pass over a parsed program stays far
below Python's recursion limit.

parse is the one boundary for programs: elaboration trusts what it returns.
parse keeps each declared domain as the one typed core.Domain that
elaboration reads (Program.domains), and each leaf statement's facts in
the program's statement table (statement_facts): the variables it
touches, those it reads through pre, an on-statement's guard and the
leaves of its branches, found in one walk of the statement.  Everything
that needs those facts reads them there: the init check below,
is_dynamic, and elaboration's parts, guards and automata.  Beyond the
syntax, parse checks that
* every domain a declaration names is declared;
* function tables cover their input domains, inside their output domain;
* a value given for a domain is one of its values of the same type (see
  core.domain_index): 1 does not stand for T, nor F for 0.  That holds for
  declarations and inits, and for each constant of an expression against
  the typed domain it meets: an equation side's constants against the
  domain the other side shows (a variable's, a function's output), a
  function argument against its input domain, an if-condition against
  { F, T }, and a distribution parameter against its parameter domain.
  A guard's own value meets no domain (a guard that is not boolean is
  elaboration's GuardNotBoolean).  A statement's names are checked
  before its constants, each in one walk of each expression;
* distribution tables are exact (core.exact_weights), one per parameter;
* statements use declared variables and functions with the right arity;
* inits lie in their domains and agree, and sit at the top level, as
  on-statements do;
* a prior's distribution is declared over its variable's domain and gets
  the parameter it takes: Bernoulli a number literal in [0,1] (the variable is
  boolean), Uniform a domain name, a declared one an expression exactly
  when it has a parameter domain;
* whatever pre or a guard reads, the union of the leaves' pres in the
  statement table, has an init.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from ..core import (Domain, describe_rat, domains_agree, exact_weights, format_rat,
                    number_text_problem)
from ..errors import (
    DomainMismatch,
    MalformedSystem,
    MissingInit,
    RbSyntaxError,
    UndeclaredVariable,
    UnknownDistribution,
)

KEYWORDS = frozenset(
    "domain var func op dist observe pre init on then else if T F".split()
)

BUILTIN_DISTS = frozenset(("Bernoulli", "Uniform"))

IF_FUNC = "if"  # if-then-else expressions are carried as this function name

MAX_NESTING = 100
MAX_NUMBER_LENGTH = 100


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: object  # int | bool | str | Fraction (Fraction only in dist args)


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Pair:
    items: tuple


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple


@dataclass(frozen=True)
class Pre:
    name: str


@dataclass(frozen=True)
class SPrior:
    var: str
    dist: str
    arg: object  # Expr or None


@dataclass(frozen=True)
class SEq:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class SObserve:
    var: str


@dataclass(frozen=True)
class SInit:
    var: str
    value: object


@dataclass(frozen=True)
class SOn:
    guard: object
    then: object
    els: object


@dataclass(frozen=True)
class SPar:
    items: tuple


@dataclass
class FuncDecl:
    name: str
    kind: str  # "func" or "op"
    in_domains: tuple  # domain names
    out_domain: str
    table: dict  # scalar-or-tuple key -> value


@dataclass
class DistDecl:
    name: str
    param_domain: object  # domain name or None
    target_domain: str
    table: dict  # value -> Fraction, or param value -> {value -> Fraction}


@dataclass
class Program:
    """A parsed program: its declarations and its body.

    domains maps each declared domain's name to its typed core.Domain,
    built once by parse.  The last three fields are compiled from the
    declarations and statements, each entry once, and are not part of the
    program's value (==, repr): elaboration fills typed_vars with the one
    Var of each variable and •x companion it meets, over those Domain
    objects; tied_laws with each parameterized distribution's score
    tables, read from its rows when its first tied kernel is made and
    shared by all of them (elaborate.prior_kernel), where
    MixedKernel.score_table checks each input before it reads them.
    statement_table holds each leaf statement's Facts, keyed by the
    statement's identity (statement_facts): parse fills it for every leaf
    while it checks the inits, and a Program built without parse fills it
    on first ask.  The parts of a program (elaborate.program_parts) share
    its dicts, so everything elaborated from one program holds the same
    Domain and Var objects and walks each statement once."""

    domains: dict  # name -> Domain
    vars: dict  # name -> domain name
    funcs: dict  # name -> FuncDecl
    dists: dict  # name -> DistDecl
    body: object  # Stmt or None
    typed_vars: dict = field(default_factory=dict, compare=False, repr=False)
    tied_laws: dict = field(default_factory=dict, compare=False, repr=False)
    statement_table: dict = field(default_factory=dict, compare=False, repr=False)


# --- tokenizer ---------------------------------------------------------------


_PUNCT2 = ("||", "->")
_PUNCT1 = "(){},:=~|/"
# a number is written in ASCII digits only: str.isdecimal() also takes
# other scripts' digits, which int() would read as these
_DIGITS = frozenset("0123456789")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.text, self.line, self.col)


def _number_kind(word, line, col):
    """"int" or "num" for a numeric literal within the bounds; anything else
    is rejected here, before int() or Fraction() reads it."""
    if len(word) > MAX_NUMBER_LENGTH:
        raise RbSyntaxError(
            "number longer than %d characters" % MAX_NUMBER_LENGTH, line, col
        )
    problem = number_text_problem(word)
    if problem is not None:
        raise RbSyntaxError(problem, line, col)
    return "num" if "." in word or "e" in word.lower() else "int"


def tokenize(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        two = text[i : i + 2]
        if two in _PUNCT2:
            toks.append(Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise RbSyntaxError("unterminated string", start_line, start_col)
            toks.append(Token("str", text[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            word = text[i:j]
            kind = _number_kind(word, start_line, start_col)
            toks.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT1:
            toks.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise RbSyntaxError("stray character %r" % c, start_line, start_col)
    toks.append(Token("eof", "", line, col))
    return toks


# --- parser ------------------------------------------------------------------


def _nested(rule):
    """A recursive parse rule, run one nesting level deeper; past
    MAX_NESTING levels the program is rejected."""

    def counted(self):
        if self.depth >= MAX_NESTING:
            self.fail("nesting deeper than %d levels" % MAX_NESTING)
        self.depth += 1
        try:
            return rule(self)
        finally:
            self.depth -= 1

    return counted


class _Parser:
    def __init__(self, text):
        # next() never passes the eof token, and peek looks at most one
        # token ahead, so a second eof keeps every index in the list
        self.toks = tokenize(text)
        self.toks.append(self.toks[-1])
        self.i = 0
        self.depth = 0

    def peek(self, k=0):
        return self.toks[self.i + k]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text):
        t = self.toks[self.i]
        return t.text == text and t.kind in ("punct", "ident")

    def accept(self, text):
        if self.at(text):
            return self.next()
        return None

    def expect(self, text):
        t = self.peek()
        if t.text != text or t.kind not in ("punct", "ident"):
            raise RbSyntaxError(
                "expected %r, found %r" % (text, t.text or "end of input"),
                t.line,
                t.col,
            )
        return self.next()

    def fail(self, msg):
        t = self.peek()
        raise RbSyntaxError(msg, t.line, t.col)

    def ident(self, what="name"):
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail("expected %s, found %r" % (what, t.text or "end of input"))
        return self.next().text

    def items(self, item, sep=","):
        """One or more item()s separated by sep, as a list."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return out

    # values and numbers

    def value(self):
        """A literal domain value: integer, T/F boolean, or quoted symbol."""
        t = self.peek()
        if t.kind == "int":
            self.next()
            return int(t.text)
        if t.kind == "str":
            self.next()
            return t.text
        if t.kind == "ident" and t.text in ("T", "F"):
            self.next()
            return t.text == "T"
        self.fail("expected a value, found %r" % (t.text or "end of input"))

    def rational(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Fraction(t.text)
        if t.kind != "int":
            self.fail("expected a rational number, found %r" % (t.text or "end of input"))
        self.next()
        if not self.accept("/"):
            return Fraction(int(t.text))
        u = self.peek()
        if u.kind != "int":
            self.fail("expected denominator")
        if int(u.text) == 0:
            self.fail("zero denominator")
        self.next()
        return Fraction(int(t.text), int(u.text))

    def key_value(self):
        """A table key: a value or a tuple of values."""
        if self.accept("("):
            vals = self.items(self.value)
            self.expect(")")
            return vals[0] if len(vals) == 1 else tuple(vals)
        return self.value()

    # declarations

    def parse_program(self):
        p = Program({}, {}, {}, {}, None)
        decls = {"domain": self.decl_domain, "var": self.decl_var,
                 "func": self.decl_func, "op": self.decl_func, "dist": self.decl_dist}
        while self.peek().kind == "ident" and self.peek().text in decls:
            decls[self.peek().text](p)
        if self.peek().kind != "eof":
            p.body = self.parse_body()
        t = self.peek()
        if t.kind != "eof":
            self.fail("trailing input %r" % t.text)
        _validate(p)
        return p

    def decl_domain(self, p):
        self.expect("domain")
        name = self.ident("domain name")
        if name in p.domains:
            self.fail("domain %r declared twice" % name)
        self.expect("=")
        self.expect("{")
        vals = self.items(self.value)
        self.expect("}")
        if len(set(vals)) != len(vals):
            self.fail("domain %r repeats a value" % name)
        p.domains[name] = Domain(name, vals)

    def decl_var(self, p):
        self.expect("var")
        names = self.items(lambda: self.ident("variable name"))
        self.expect(":")
        dom = self.ident("domain name")
        for nm in names:
            if nm in p.vars:
                self.fail("variable %r declared twice" % nm)
            p.vars[nm] = dom

    def decl_func(self, p):
        kind = self.next().text  # func or op
        name = self.ident("function name")
        if name in p.funcs:  # "if" is a keyword, so ident() refused it
            self.fail("function %r declared twice" % name)
        self.expect(":")
        if self.accept("("):
            in_doms = self.items(lambda: self.ident("domain name"))
            self.expect(")")
        else:
            in_doms = [self.ident("domain name")]
        self.expect("->")
        out_dom = self.ident("domain name")
        self.expect("{")
        table = {}

        def entry():
            key = self.key_value()
            self.expect("->")
            val = self.value()
            if key in table:
                self.fail("function %r maps %r twice" % (name, key))
            table[key] = val

        self.items(entry)
        self.expect("}")
        p.funcs[name] = FuncDecl(name, kind, tuple(in_doms), out_dom, table)

    def decl_dist(self, p):
        self.expect("dist")
        name = self.ident("distribution name")
        if name in p.dists or name in BUILTIN_DISTS:
            self.fail("distribution %r declared twice" % name)
        param = None
        if self.accept("("):
            param = self.ident("domain name")
            self.expect(")")
        self.expect(":")
        target = self.ident("domain name")
        self.expect("{")
        if param is None:
            table = self.dist_rows()
        else:
            table = {}

            def entry():
                key = self.key_value()
                self.expect("->")
                self.expect("{")
                rows = self.dist_rows()
                self.expect("}")
                if key in table:
                    self.fail("distribution %r maps %r twice" % (name, key))
                table[key] = rows

            self.items(entry)
        self.expect("}")
        p.dists[name] = DistDecl(name, param, target, table)

    def dist_rows(self):
        """value : rational pairs up to (not including) the closing brace."""
        rows = {}

        def row():
            val = self.value()
            self.expect(":")
            prob = self.rational()
            if val in rows:
                self.fail("distribution repeats value %r" % (val,))
            rows[val] = prob

        self.items(row)
        return rows

    # statements

    def parse_body(self):
        if self.at("||") or self.at("|"):
            self.next()
        items = self.items(self.parse_stmt, "||")
        if len(items) == 1:
            return items[0]
        return SPar(tuple(items))

    @_nested
    def parse_stmt(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "observe":
            self.next()
            names = self.items(lambda: self.ident("variable name"))
            if len(names) == 1:
                return SObserve(names[0])
            return SPar(tuple(SObserve(nm) for nm in names))
        if t.kind == "ident" and t.text == "init":
            self.next()
            var = self.ident("variable name")
            self.expect("=")
            return SInit(var, self.value())
        if t.kind == "ident" and t.text == "on":
            self.next()
            guard = self.parse_expr()
            self.expect("then")
            then = self.parse_stmt()
            self.expect("else")
            els = self.parse_stmt()
            return SOn(guard, then, els)
        if t.text == "{":
            self.next()
            body = self.parse_body()
            self.expect("}")
            return body
        if t.text == "(":
            # either a parenthesized statement or a pair-typed equation lhs
            mark = self.i
            try:
                self.next()
                inner = self.parse_stmt()
                self.expect(")")
                if not self.at("="):
                    return inner
            except RbSyntaxError:
                pass
            self.i = mark
        if t.kind == "ident" and t.text not in KEYWORDS and self.peek(1).text == "~":
            var = self.ident()
            self.expect("~")
            dist = self.ident("distribution name")
            arg = None
            if self.accept("("):
                arg = self.parse_prior_arg()
                self.expect(")")
            return SPrior(var, dist, arg)
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        return SEq(lhs, rhs)

    def parse_prior_arg(self):
        t = self.peek()
        if t.kind == "num" or (t.kind == "int" and self.peek(1).text == "/"):
            return Const(self.rational())
        return self.parse_expr()

    # expressions

    @_nested
    def parse_expr(self):
        t = self.peek()
        if t.kind in ("int", "str") or (t.kind == "ident" and t.text in ("T", "F")):
            return Const(self.value())
        if t.kind == "num":
            self.fail("decimal literals are only allowed as distribution parameters")
        if t.kind == "ident" and t.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            els = self.parse_expr()
            return Func(IF_FUNC, (cond, then, els))
        if t.kind == "ident" and t.text == "pre":
            self.next()
            paren = self.accept("(")
            name = self.ident("variable name (pre nests no deeper)")
            if paren:
                self.expect(")")
            return Pre(name)
        if t.kind == "ident" and t.text not in KEYWORDS:
            name = self.next().text
            if self.accept("("):
                args = self.items(self.parse_expr)
                self.expect(")")
                return Func(name, tuple(args))
            return VarRef(name)
        if self.accept("("):
            items = self.items(self.parse_expr)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return Pair(tuple(items))
        self.fail("expected an expression, found %r" % (t.text or "end of input"))


def parse(text) -> Program:
    """Parse and validate a program; every error carries a position when one
    is known."""
    return _Parser(text).parse_program()


# --- static analysis helpers --------------------------------------------------


def _children(node):
    """The direct sub-nodes of an expression or statement, left to right.
    Uniform's argument names a domain, not a variable, so it has none."""
    if isinstance(node, (Pair, SPar)):
        return node.items
    if isinstance(node, Func):
        return node.args
    if isinstance(node, SEq):
        return (node.lhs, node.rhs)
    if isinstance(node, SOn):
        return (node.guard, node.then, node.els)
    if isinstance(node, SPrior) and node.arg is not None and node.dist != "Uniform":
        return (node.arg,)
    return ()


def nodes(node):
    """Every node at or below node, in left-to-right preorder."""
    stack = [node]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(_children(x)))


def expr_vars(e, pre_as=None):
    """Variable names read at or below e, in first-seen order.  Pre nodes
    are skipped unless pre_as is given, in which case they contribute
    pre_as(name)."""
    out = {}
    for x in nodes(e):
        if isinstance(x, VarRef):
            out.setdefault(x.name)
        elif isinstance(x, Pre) and pre_as is not None:
            out.setdefault(pre_as(x.name))
    return list(out)


def statements(body):
    """Flatten the parallel structure into a list of leaf statements (SOn
    counts as a leaf; its branches are elaborated separately)."""
    if body is None:
        return []
    if isinstance(body, SPar):
        return [leaf for s in body.items for leaf in statements(s)]
    return [body]


def rewrite_guard(e):
    if isinstance(e, VarRef):
        return Pre(e.name)
    if isinstance(e, Pair):
        return Pair(tuple(rewrite_guard(x) for x in e.items))
    if isinstance(e, Func):
        return Func(e.name, tuple(rewrite_guard(x) for x in e.args))
    return e


class Facts(NamedTuple):
    """A leaf statement's entry in its program's statement table."""

    stmt: object  # the statement; holding it keeps its id from being reused
    touched: frozenset  # every variable it touches, pre x and a guard's x included
    pres: frozenset  # variables read through pre, a guard's variables included
    guard: object  # on-statement: (label, rewritten guard, guard's variables)
    branches: tuple  # on-statement: the leaves of its then and else branches


def statement_facts(p: Program, s) -> Facts:
    """The statement table's entry for s, a leaf statement of p's body, made
    in one walk of s when first asked for and kept in p.statement_table,
    which p's parts share; parse fills it for every leaf.  A guard's
    variables count as read through pre: a guard is evaluated at the
    previous state."""
    got = p.statement_table.get(id(s))
    if got is not None:
        return got
    touched, pres = set(), set()
    guard = branches = None
    roots = (s,)
    if isinstance(s, SOn):
        pres.update(x.name for x in nodes(s.guard) if isinstance(x, (VarRef, Pre)))
        g = rewrite_guard(s.guard)
        # pres holds the guard's variables only, until the branches are walked
        guard = (print_expr(g), g, frozenset(pres))
        branches = (tuple(statements(s.then)), tuple(statements(s.els)))
        roots = (s.then, s.els)
    for root in roots:
        for x in nodes(root):
            if isinstance(x, Pre):
                pres.add(x.name)
            elif isinstance(x, VarRef):
                touched.add(x.name)
            elif isinstance(x, (SObserve, SInit, SPrior)):
                touched.add(x.var)
    got = p.statement_table[id(s)] = Facts(s, frozenset(touched | pres), frozenset(pres),
                                           guard, branches)
    return got


def is_dynamic(p: Program) -> bool:
    """Whether the program needs the dynamic semantics: it reads some
    variable through pre, or holds an init or on statement."""
    return any(isinstance(s, (SInit, SOn)) or statement_facts(p, s).pres
               for s in statements(p.body))


BOOL = Domain("bool", (False, True))


def _validate(p: Program):
    # Domain membership compares types too, so 1 never stands for T
    for name, dom in p.vars.items():
        if dom not in p.domains:
            raise UndeclaredVariable(
                "variable %r uses undeclared domain %r" % (name, dom)
            )
    for f in p.funcs.values():
        for d in f.in_domains + (f.out_domain,):
            if d not in p.domains:
                raise UndeclaredVariable(
                    "function %r uses undeclared domain %r" % (f.name, d)
                )
        full = [(v,) for v in p.domains[f.in_domains[0]].values]
        for d in f.in_domains[1:]:
            full = [k + (v,) for k in full for v in p.domains[d].values]
        keys = {k[0] if len(k) == 1 else k for k in full}
        have = set(f.table)
        if have != keys:
            missing = sorted(keys - have, key=repr)
            extra = sorted(have - keys, key=repr)
            raise DomainMismatch(
                "function %r table mismatch: missing %r, extra %r"
                % (f.name, missing, extra)
            )
        # the keys equal the input tuples; each part must also be of its type
        for k in f.table:
            parts = (k,) if len(f.in_domains) == 1 else k
            if not all(v in p.domains[d] for v, d in zip(parts, f.in_domains)):
                raise DomainMismatch(
                    "function %r maps %r, outside its input domains" % (f.name, k)
                )
        for v in f.table.values():
            if v not in p.domains[f.out_domain]:
                raise DomainMismatch(
                    "function %r produces %r outside %r" % (f.name, v, f.out_domain)
                )
    for d in p.dists.values():
        for dd in [d.target_domain] + ([d.param_domain] if d.param_domain else []):
            if dd not in p.domains:
                raise UndeclaredVariable(
                    "distribution %r uses undeclared domain %r" % (d.name, dd)
                )
        tables = {None: d.table} if d.param_domain is None else d.table
        if d.param_domain is not None:
            want = p.domains[d.param_domain]
            if len(tables) != len(want.values) or not all(c in want for c in tables):
                raise DomainMismatch(
                    "distribution %r must give a table for every value of %r"
                    % (d.name, d.param_domain)
                )
        for rows in tables.values():
            for val in rows:
                if val not in p.domains[d.target_domain]:
                    raise DomainMismatch(
                        "distribution %r weights %r outside %r"
                        % (d.name, val, d.target_domain)
                    )
            exact_weights(rows, rows)
    _validate_body(p, p.body)
    leaves = statements(p.body)
    inits = {s.var for s in leaves if isinstance(s, SInit)}
    read = frozenset().union(*(statement_facts(p, s).pres for s in leaves))
    missing = sorted(read - inits)
    if missing:
        raise MissingInit("variable %r is read through pre but has no init" % missing[0])


def _validate_expr(p, e, where):
    """Raise when e reads an undeclared variable or calls an undeclared
    function or one with the wrong number of arguments; its constants are
    _check_consts's, once every name is known."""
    for x in nodes(e):
        if isinstance(x, (VarRef, Pre)) and x.name not in p.vars:
            raise UndeclaredVariable("undeclared variable %r in %s" % (x.name, where))
        if isinstance(x, Func) and x.name != IF_FUNC:
            decl = p.funcs.get(x.name)
            if decl is None:
                raise UndeclaredVariable(
                    "undeclared function %r in %s" % (x.name, where)
                )
            if len(x.args) != len(decl.in_domains):
                raise DomainMismatch(
                    "function %r takes %d arguments, got %d in %s"
                    % (x.name, len(decl.in_domains), len(x.args), where)
                )


def _expr_domain(p, e):
    """The typed domain of e's values as e shows it: a variable's, a
    function's output domain, an if's from its first branch that shows one,
    and for a pair the tuple of its items' (None for an item that shows
    none); None for a constant, and for a pair whose items show none."""
    if isinstance(e, (VarRef, Pre)):
        return p.domains[p.vars[e.name]]
    if isinstance(e, Pair):
        ds = tuple(_expr_domain(p, x) for x in e.items)
        return None if ds.count(None) == len(ds) else ds
    if isinstance(e, Func) and e.name == IF_FUNC:
        d = _expr_domain(p, e.args[1])
        return d if d is not None else _expr_domain(p, e.args[2])
    if isinstance(e, Func):
        return p.domains[p.funcs[e.name].out_domain]
    return None


UNMET = "unmet"  # what a guard's value meets, and an argument no parameter takes


def _check_consts(p, e, dom, where):
    """Raise DomainMismatch when a constant anywhere in e is not a value of
    the typed domain it meets, in one walk of e, whose names
    _validate_expr has checked.  e itself meets dom; a function argument
    meets its input domain and an if-condition { F, T }; an if's branches
    meet what the if meets, or the domain the if shows itself when that is
    None, so in (if c then 1 else b) = T the 1 meets b's domain; pair items
    meet the items of a tuple of domains, or UNMET when the pair does.  A
    constant meeting None or UNMET is not checked, so with dom UNMET only
    the constants inside a function argument or an if-condition are.  1 is
    not a value of { F, T }, nor T of { 0, 1 }."""
    stack = [(e, dom)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, Const):
            if isinstance(d, Domain) and x.value not in d:
                raise DomainMismatch("constant %s in %s is not a value of %r"
                                     % (print_value(x.value), where, d.name))
        elif isinstance(x, Func) and x.name == IF_FUNC:
            if d is None:
                d = _expr_domain(p, x)
            stack += ((x.args[1], d), (x.args[2], d), (x.args[0], BOOL))
        elif isinstance(x, Func):
            stack += ((a, p.domains[i]) for a, i in zip(x.args, p.funcs[x.name].in_domains))
        elif isinstance(x, Pair):
            if not (isinstance(d, tuple) and len(d) == len(x.items)):
                d = (UNMET if d is UNMET else None,) * len(x.items)
            stack += zip(x.items, d)


def _validate_prior(p, s):
    if s.var not in p.vars:
        raise UndeclaredVariable("prior for undeclared variable %r" % s.var)
    where = "prior for %r" % s.var
    dom = p.vars[s.var]
    if s.dist == "Uniform":
        if not isinstance(s.arg, VarRef) or s.arg.name not in p.domains:
            raise DomainMismatch("Uniform takes a domain name, in %s" % where)
        if not domains_agree(p.domains[s.arg.name], p.domains[dom]):
            raise DomainMismatch("Uniform over %r does not match the domain of %r"
                                 % (s.arg.name, s.var))
        return
    decl = p.dists.get(s.dist)
    if s.arg is not None:
        _validate_expr(p, s.arg, where)
        param = decl.param_domain if decl is not None else None
        _check_consts(p, s.arg, p.domains[param] if param else UNMET, where)
    if s.dist == "Bernoulli":
        # a number literal parses to an int or a Fraction; the exact type
        # test turns away T and F (bools) and quoted strings like "1/3"
        if not (isinstance(s.arg, Const) and type(s.arg.value) in (int, Fraction)):
            raise UnknownDistribution("Bernoulli takes a fixed rational parameter, in %s"
                                      % where)
        prob = Fraction(s.arg.value)
        if prob < 0 or prob > 1:
            raise MalformedSystem("Bernoulli parameter %s outside [0,1]" % describe_rat(prob))
        if not domains_agree(p.domains[dom], BOOL):
            raise DomainMismatch("Bernoulli needs the boolean domain, %r has %r"
                                 % (s.var, dom))
        return
    if decl is None:
        raise UnknownDistribution("no distribution named %r" % s.dist)
    if decl.target_domain != dom:
        raise DomainMismatch("distribution %r is over %r but %r has domain %r"
                             % (s.dist, decl.target_domain, s.var, dom))
    if decl.param_domain is not None and s.arg is None:
        raise UnknownDistribution("distribution %r needs a parameter, in %s" % (s.dist, where))
    if decl.param_domain is None and s.arg is not None:
        raise UnknownDistribution("distribution %r takes no parameter, in %s" % (s.dist, where))


def _validate_body(p, body):
    inits = {}
    for s in statements(body):
        if isinstance(s, SObserve):
            if s.var not in p.vars:
                raise UndeclaredVariable("observe of undeclared variable %r" % s.var)
        elif isinstance(s, SInit):
            if s.var not in p.vars:
                raise UndeclaredVariable("init of undeclared variable %r" % s.var)
            if s.value not in p.domains[p.vars[s.var]]:
                raise DomainMismatch(
                    "init %s = %r falls outside its domain" % (s.var, s.value)
                )
            if s.var in inits and inits[s.var] != s.value:
                raise MalformedSystem("conflicting init values for %r" % s.var)
            inits[s.var] = s.value
        elif isinstance(s, SPrior):
            _validate_prior(p, s)
        elif isinstance(s, SEq):
            _validate_expr(p, s.lhs, "equation")
            _validate_expr(p, s.rhs, "equation")
            _check_consts(p, s.lhs, _expr_domain(p, s.rhs), "equation")
            _check_consts(p, s.rhs, _expr_domain(p, s.lhs), "equation")
        elif isinstance(s, SOn):
            _validate_expr(p, s.guard, "guard")
            _check_consts(p, s.guard, UNMET, "guard")
            for branch in (s.then, s.els):
                for leaf in statements(branch):
                    if isinstance(leaf, SOn):
                        raise MalformedSystem(
                            "on-statements do not nest inside branches"
                        )
                    if isinstance(leaf, SInit):
                        raise MalformedSystem("init must sit at the top level")
            _validate_body(p, s.then)
            _validate_body(p, s.els)


# --- printer -------------------------------------------------------------------


def print_value(v):
    if isinstance(v, bool):
        return "T" if v else "F"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return format_rat(v)
    return '"%s"' % v


def print_key(k):
    if isinstance(k, tuple):
        return "(%s)" % ", ".join(print_value(v) for v in k)
    return print_value(k)


def print_expr(e):
    if isinstance(e, Const):
        return print_value(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Pre):
        return "pre %s" % e.name
    if isinstance(e, Pair):
        return "(%s)" % ", ".join(print_expr(x) for x in e.items)
    if isinstance(e, Func):
        if e.name == IF_FUNC and len(e.args) == 3:
            return "if %s then %s else %s" % tuple(print_expr(x) for x in e.args)
        return "%s(%s)" % (e.name, ", ".join(print_expr(x) for x in e.args))
    raise MalformedSystem("not an expression: %r" % (e,))


def print_stmt(s):
    if isinstance(s, SObserve):
        return "observe %s" % s.var
    if isinstance(s, SInit):
        return "init %s = %s" % (s.var, print_value(s.value))
    if isinstance(s, SPrior):
        if s.arg is None:
            return "%s ~ %s" % (s.var, s.dist)
        return "%s ~ %s(%s)" % (s.var, s.dist, print_expr(s.arg))
    if isinstance(s, SEq):
        return "%s = %s" % (print_expr(s.lhs), print_expr(s.rhs))
    if isinstance(s, SOn):
        return "on %s then %s else %s" % (
            print_expr(s.guard),
            _print_branch(s.then),
            _print_branch(s.els),
        )
    if isinstance(s, SPar):
        return "{ %s }" % " || ".join(print_stmt(x) for x in s.items)
    raise MalformedSystem("not a statement: %r" % (s,))


def _print_branch(s):
    if isinstance(s, SPar):
        return print_stmt(s)
    return "{ %s }" % print_stmt(s)


def _by_key(table):
    return sorted(table.items(), key=lambda kv: repr(kv[0]))


def _print_rows(rows):
    return ", ".join("%s : %s" % (print_value(v), print_value(pr))
                     for v, pr in _by_key(rows))


def print_program(p: Program) -> str:
    lines = []
    for name, d in p.domains.items():
        lines.append("domain %s = { %s }" % (name, ", ".join(print_value(v) for v in d.values)))
    for name, dom in p.vars.items():
        lines.append("var %s : %s" % (name, dom))
    for f in p.funcs.values():
        sig = f.in_domains[0] if len(f.in_domains) == 1 else "(%s)" % ", ".join(f.in_domains)
        rows = ", ".join("%s -> %s" % (print_key(k), print_value(v))
                         for k, v in _by_key(f.table))
        lines.append("%s %s : %s -> %s { %s }" % (f.kind, f.name, sig, f.out_domain, rows))
    for d in p.dists.values():
        if d.param_domain is None:
            head, rows = d.name, _print_rows(d.table)
        else:
            head = "%s(%s)" % (d.name, d.param_domain)
            rows = ", ".join("%s -> { %s }" % (print_key(k), _print_rows(r))
                             for k, r in _by_key(d.table))
        lines.append("dist %s : %s { %s }" % (head, d.target_domain, rows))
    if p.body is not None:
        if lines:
            lines.append("")
        items = p.body.items if isinstance(p.body, SPar) else (p.body,)
        for s in items:
            lines.append("|| %s" % print_stmt(s))
    return "\n".join(lines) + "\n"
