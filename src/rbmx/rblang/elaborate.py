"""From programs to semantic objects.

Three targets, at increasing expressiveness:

* elaborate_static: the body without pre/init/on becomes one mixed system
  (observations arrive as a per-variable record); programs with parameterized
  priors whose inputs stay free become a kernel over those inputs.
* elaborate_graph: the same fragment as a Bayesian network.  Directed rules
  first (priors and equations of the shape x = e feed kernels); when the
  side conditions fail, fall back to the factor graph of the top-level
  parallel blocks and convert it with fg_to_bn when it is a forest, each
  tree on its own.
* elaborate_dynamic: the full language as a mixed automaton.  Every variable
  read through pre gets a companion variable carrying the previous value,
  pinned per step from the source state; guards are evaluated at the source
  state and selected through actions that assign a truth value to every
  guard.

Each target trusts a Program from syntax.parse, which checked its
declarations, statements and priors; only what depends on the values and
dependencies met while elaborating is checked here.  What each leaf
statement touches, reads through pre and, for an on-statement, guards and
selects is read from the program's statement table (syntax.statement_facts),
which parse fills; no target walks a statement for it again.

What a Program declares is compiled once and kept on it, shared with its
parts (program_parts): parse keeps each declared domain as its typed
Domain in p.domains, the only form of a domain that elaboration reads;
_var makes one Var per variable and •x companion over it, and
prior_kernel ties the kernels of priors such as z2 ~ step(z1) to one
store of score tables per distribution, read from its rows.  So every
system, kernel, network and automaton elaborated from one Program holds
the same Domain and Var objects, and a chain's one transition law is
compiled once, not once per step.  Equations compare values by type as well as
by value, as domains do: 1 is not T.
"""

import dataclasses
import itertools
from fractions import Fraction

from ..automata import MixedAutomaton
from ..bayes import (
    BayesianNetwork,
    MixedKernel,
    bn_validate,
    kernel_from_system,
    point_system,
    score_entries,
)
from ..core import (
    MixedSystem,
    State,
    Var,
    _prob,
    _system,
    all_states,
    check_outcome_cap,
    compose,
    marginal,
    merge_vars,
    nil_system,
    norm_vars,
    state_join,
)
from ..errors import (
    DomainMismatch,
    MalformedSystem,
    NotATree,
    NotIncremental,
    MissingObservation,
    GuardNotBoolean,
)
from ..factorgraph import _components, factor_graph, fg_to_bn
from .syntax import (
    IF_FUNC,
    Const,
    Func,
    Pair,
    Pre,
    Program,
    SInit,
    SObserve,
    SOn,
    SPar,
    SPrior,
    VarRef,
    expr_vars,
    is_dynamic,
    statement_facts,
    statements,
)

PRE_MARK = "•"  # previous-value companion: •x carries x's value from n-1


def pre_name(x):
    return PRE_MARK + x


def base_name(x):
    return x[1:] if x.startswith(PRE_MARK) else x


# --- expressions --------------------------------------------------------------


def _var(p: Program, name) -> Var:
    """The one Var of variable name, or of the •x companion name, in p and
    its parts: made on first use over its declared domain's typed Domain
    and kept in p.typed_vars, so every system, kernel, network and
    automaton elaborated from p holds the same Var and Domain objects, and
    merge_vars, domains_agree and norm_vars meet them by identity."""
    v = p.typed_vars.get(name)
    if v is None:
        v = p.typed_vars[name] = Var(name, p.domains[p.vars[base_name(name)]])
    return v


def _same_value(a, b) -> bool:
    """a == b with each value of its own type, item by item for pairs:
    1 is not T, as in core.domain_index."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def eval_expr(p: Program, e, env):
    """Value of e under env (a mapping name -> value; pre x reads the
    companion name •x).  Raises DomainMismatch for a non-boolean
    if-condition or a function applied outside its table."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, Pre):
        return env[pre_name(e.name)]
    if isinstance(e, Pair):
        return tuple(eval_expr(p, x, env) for x in e.items)
    if isinstance(e, Func):
        if e.name == IF_FUNC:
            cond = eval_expr(p, e.args[0], env)
            if not isinstance(cond, bool):
                raise DomainMismatch("if-condition evaluated to %r" % (cond,))
            return eval_expr(p, e.args[1 if cond else 2], env)
        decl = p.funcs[e.name]
        vals = [eval_expr(p, x, env) for x in e.args]
        key = vals[0] if len(vals) == 1 else tuple(vals)
        if key not in decl.table:
            raise DomainMismatch("function %s is not defined at (%s)"
                                 % (e.name, ", ".join(map(repr, vals))))
        return decl.table[key]
    raise MalformedSystem("cannot evaluate %r" % (e,))


# --- leaf systems --------------------------------------------------------------


def _dist_rows(p: Program, leaf: SPrior, env=None):
    """The probability table a prior denotes, resolving builtins and
    parameters.  env supplies values for a parameterized table's expression;
    parse has checked the rest of the prior."""
    if leaf.dist == "Bernoulli":
        prob = Fraction(leaf.arg.value)
        return {False: 1 - prob, True: prob}
    if leaf.dist == "Uniform":
        vals = p.domains[leaf.arg.name].values
        share = Fraction(1, len(vals))
        return {v: share for v in vals}
    decl = p.dists[leaf.dist]
    if decl.param_domain is None:
        return decl.table
    c = eval_expr(p, leaf.arg, env)
    rows = decl.table.get(c)
    if rows is None or c not in p.domains[decl.param_domain]:
        raise DomainMismatch(
            "distribution %r has no case for parameter %r" % (leaf.dist, c)
        )
    return rows


def prior_system(p: Program, leaf: SPrior, env=None) -> MixedSystem:
    """A private copy of the variable's domain, weighted by the distribution,
    exposed through the equation x = outcome."""
    rows = _dist_rows(p, leaf, env)
    var = _var(p, leaf.var)
    order = [v for v in var.domain.values if v in rows]
    rel = {v: [State({leaf.var: v})] for v in order}
    return MixedSystem((order, rows), [var], rel)


# The systems below follow from a parsed Program: its variables' domains
# are its declared ones, named once each, and every value comes from them,
# so they are built unchecked by core._system.


def _certain(v: Var, row) -> MixedSystem:
    """One certain outcome admitting the row's states, which bind exactly v
    to values of its domain."""
    return _system(_prob(("1",), {"1": Fraction(1)}), (v,), {"1": row})


def equation_system(p: Program, lhs, rhs) -> MixedSystem:
    """Trivial probability over the equation's solution set: the states of
    the participating variables at which both sides have the same value
    (_same_value), in all_states order.  An equation x = e whose e does not
    read x is solved rather than checked: e is evaluated at each state of
    its own variables only, and x takes e's value when it is one of x's
    domain values of the same type, which gives the same rows and the same
    first error."""
    read = expr_vars(rhs, pre_name)
    if isinstance(lhs, VarRef) and lhs.name not in read:
        out = _var(p, lhs.name).domain
        sols = []
        for q in all_states([_var(p, nm) for nm in read]):
            val = eval_expr(p, rhs, dict(q.pairs))
            i = out.index.get(val)
            if i is not None and _same_value(out.values[i], val):
                sols.append(State(q.pairs + ((lhs.name, out.values[i]),)))
        names = sorted(set(read) | {lhs.name})
    else:
        names = sorted(set(expr_vars(lhs, pre_name) + read))
        sols = []
        for q in all_states([_var(p, nm) for nm in names]):
            env = dict(q.items())
            if _same_value(eval_expr(p, lhs, env), eval_expr(p, rhs, env)):
                sols.append(q)
    # _system sorts each row into all_states order
    vars = tuple(_var(p, nm) for nm in names)
    return _system(_prob(("e",), {"e": Fraction(1)}), vars, {"e": sols})


def free_system(p: Program, name) -> MixedSystem:
    """No probability, no constraint: the variable may take any value."""
    v = _var(p, name)
    return _certain(v, [State({name: w}) for w in v.domain.values])


def _pin(v: Var, val) -> MixedSystem:
    """The point system pinning v to val, a value of its domain."""
    return _certain(v, [State({v.name: val})])


def observed_value(v: Var, obs):
    """The value of the observed variable v in the record obs, a {variable:
    value} dict, checked to be one of v's domain values."""
    if obs is not None and not isinstance(obs, dict):
        raise MalformedSystem("observation record %r is not an object" % (obs,))
    if obs is None or v.name not in obs:
        raise MissingObservation("no value supplied for observed variable %r" % v.name)
    val = obs[v.name]
    if val not in v.domain:
        raise DomainMismatch(
            "observed value %r outside the domain of %r" % (val, v.name)
        )
    return val


def observe_point(p: Program, name, obs) -> MixedSystem:
    """The point system pinning the observed variable to its value in the
    record obs, a {variable: value} dict."""
    v = _var(p, name)
    return _pin(v, observed_value(v, obs))


def prior_kernel(p: Program, leaf: SPrior) -> MixedKernel:
    """A parameterized prior as a kernel from the parameter expression's
    variables to the declared variable.

    A prior whose parameter is a bare variable of the distribution's
    parameter domain, such as z2 ~ step(z1), is tied to its distribution:
    its score table at input c is the distribution's row for c, the same
    for every such prior of the distribution in p, so all of them share
    one table store, kept in p.tied_laws.  The store is filled from the
    distribution's rows, once per distribution, when its first tied
    kernel is made; its inputs are checked by MixedKernel.score_table.  A
    parameter that is an expression, such as step(inc(z)), keeps the
    kernel's own store, filled by score_table from prior_system."""
    in_vars = [_var(p, nm) for nm in expr_vars(leaf.arg, pre_name)]

    def fn(q_in, _leaf=leaf):
        return prior_system(p, _leaf, env=dict(q_in.items()))

    decl = p.dists[leaf.dist]
    store = None
    if isinstance(leaf.arg, VarRef) and p.vars[leaf.arg.name] == decl.param_domain:
        store = p.tied_laws.get(leaf.dist)
        if store is None:
            # parse checked that the rows give every parameter value, over
            # the prior's domain, as Fractions
            store = p.tied_laws[leaf.dist] = {
                (c,): score_entries({(v,): f for v, f in rows.items()})
                for c, rows in decl.table.items()}
    return MixedKernel(in_vars, [_var(p, leaf.var)], fn, name="k[%s]" % leaf.var,
                       _scores=store)


def _is_parameterized(p: Program, leaf: SPrior) -> bool:
    return leaf.dist in p.dists and p.dists[leaf.dist].param_domain is not None


# --- kernel grafting ------------------------------------------------------------


def _graft(base: MixedSystem, K: MixedKernel) -> MixedSystem:
    """Compose a system with a kernel whose inputs the system determines.

    Each input cell (a state over K's inputs) carries its own independent
    draw from K.  A base outcome ob draws only the cells its row's states
    restrict to, in cell order, so its outcomes are (ob, (i1, o1), (i2, o2),
    ...) for every oi in the outcome space of cell i, weighted
    base.pi[ob] * K(cell i1).pi[o1] * ...; each row state joins with the
    row of its own cell's draw.  This is the exact marginal of the full
    product with one draw per cell for every base outcome, over the draws
    no row consults, so every query answers as on that product.  K is still
    applied at every cell, so an error at any cell surfaces, and CapExceeded
    is raised on the number of outcomes built, before building them."""
    cells = list(all_states(K.in_vars))
    cell_index = {c: i for i, c in enumerate(cells)}
    cell_sys = [K.apply(c) for c in cells]
    vars = norm_vars(merge_vars(base.vars, K.out_vars))
    in_names = list(K.in_names)

    # per base outcome: its row states with their cells, and the cells drawn
    plans = []
    total = 0
    for ob in base.omega:
        row = [(qb, cell_index[qb.restrict(in_names)]) for qb in base.rel[ob]]
        drawn = sorted({i for _, i in row})
        size = 1
        for i in drawn:
            size *= len(cell_sys[i].omega)
        total += size
        plans.append((ob, row, drawn))
    check_outcome_cap([total], "graft of kernel %r" % K.name)

    weights = {}
    rel = {}
    for ob, row, drawn in plans:
        for draw in itertools.product(*(cell_sys[i].omega for i in drawn)):
            pick = dict(zip(drawn, draw))
            o = (ob,) + tuple(pick.items())
            mass = base.pi[ob]
            for i, oc in pick.items():
                mass *= cell_sys[i].pi[oc]
            weights[o] = mass
            joined_row = []
            for qb, i in row:
                for qc in cell_sys[i].rel[pick[i]]:
                    joined = state_join(qb, qc)
                    if joined is not None:
                        joined_row.append(joined)
            rel[o] = joined_row
    # a joined state restricts to the base state and to the kernel state it
    # came from, so it binds every variable and a row holds no repeats
    return _system(_prob(tuple(weights), weights), vars, rel)


def _fold(base: MixedSystem, kernels):
    """Graft every kernel whose inputs the running system determines;
    returns the grown system and the kernels still waiting for inputs."""
    pending = list(kernels)
    progress = True
    while pending and progress:
        progress = False
        for K in pending:
            if set(K.in_names) <= set(base.var_names):
                base = _graft(base, K)
                pending.remove(K)
                progress = True
                break
    return base, pending


# --- static semantics -----------------------------------------------------------


def _static_only(p: Program):
    if is_dynamic(p):
        raise MalformedSystem(
            "the static semantics covers programs without pre/init/on"
        )


def _leaf(p: Program, s, obs=None, observe_free=False):
    """The system a leaf statement denotes, or the kernel of a parameterized
    prior.  An observed variable is pinned to its value in obs, or left free
    with observe_free.  s is an observe, a prior or an equation: the static
    targets refuse pre, init and on (_static_only), and parse keeps on and
    init out of branches."""
    if isinstance(s, SObserve):
        return free_system(p, s.var) if observe_free else observe_point(p, s.var, obs)
    if isinstance(s, SPrior):
        return prior_kernel(p, s) if _is_parameterized(p, s) else prior_system(p, s)
    return equation_system(p, s.lhs, s.rhs)


def _assemble(pieces, pins=()):
    """Compose the pins and the leaves' systems in order, then graft the
    parameterized priors' kernels; returns the system and the kernels still
    waiting for inputs.  pieces holds what _leaf gives for each leaf."""
    systems = list(pins)
    kernels = []
    for x in pieces:
        (kernels if isinstance(x, MixedKernel) else systems).append(x)
    if len(systems) > 1:
        base = compose(*systems)
    else:
        base = systems[0] if systems else nil_system()
    return _fold(base, kernels)


def elaborate_static(p: Program, obs=None):
    """One mixed system for the whole body (or a kernel over the inputs that
    parameterized priors leave free).  obs supplies the value of every
    observed variable."""
    leaves = statements(p.body)
    _static_only(p)
    base, left = _assemble([_leaf(p, s, obs) for s in leaves])
    if not left:
        return base

    produced = set()
    needed = set()
    for K in left:
        produced |= set(K.out_names)
        needed |= set(K.in_names)
    missing = sorted(needed - set(base.var_names) - produced)
    if not missing:
        raise NotIncremental("parameterized priors depend on each other in a cycle")
    in_vars = [_var(p, nm) for nm in missing]
    out_names = sorted((set(base.var_names) | produced) - set(missing))
    out_vars = [_var(p, nm) for nm in out_names]

    def fn(q_in, _base=base, _left=tuple(left), _missing=tuple(missing)):
        b2 = compose(_base, point_system([_var(p, nm) for nm in _missing], q_in))
        b2, l2 = _fold(b2, list(_left))
        if l2:
            raise NotIncremental(
                "parameterized priors depend on each other in a cycle"
            )
        return marginal(b2, out_names)

    return MixedKernel(in_vars, out_vars, fn)


# --- graph semantics --------------------------------------------------------------


class _DirectRulesFail(Exception):
    pass


def _direct_bn(p: Program, leaves) -> BayesianNetwork:
    """The directed reading of leaves, each an observe, a prior or an
    equation (see _leaf): one kernel per prior and per equation x = e."""
    producers = {}
    flagged = set()
    mentioned = set()
    kernels = []
    for s in leaves:
        if isinstance(s, SObserve):
            flagged.add(s.var)
            mentioned.add(s.var)
            continue
        if isinstance(s, SPrior):
            x = s.var
            K = (
                prior_kernel(p, s)
                if _is_parameterized(p, s)
                else kernel_from_system(prior_system(p, s), name="k[%s]" % x)
            )
        else:
            if not isinstance(s.lhs, VarRef):
                raise _DirectRulesFail("equation lhs is not a variable")
            x = s.lhs.name
            rhs = s.rhs
            in_names = expr_vars(rhs)
            if x in in_names:
                raise _DirectRulesFail("equation defines %r from itself" % x)
            in_vars = [_var(p, nm) for nm in in_names]
            out = _var(p, x)

            def fn(q_in, _rhs=rhs, _out=out):
                val = eval_expr(p, _rhs, dict(q_in.items()))
                if val not in _out.domain:
                    raise DomainMismatch(
                        "equation drives %r to %r outside its domain" % (_out.name, val)
                    )
                return point_system([_out], State({_out.name: val}))

            K = MixedKernel(in_vars, [out], fn, name="k[%s]" % x)
        if x in producers:
            raise _DirectRulesFail("two producers for %r" % x)
        producers[x] = K
        mentioned.add(x)
        mentioned.update(K.in_names)
        kernels.append(K)
    N = BayesianNetwork(
        kernels,
        sources=flagged,
        variables=[_var(p, nm) for nm in sorted(mentioned)],
    )
    problems = bn_validate(N)
    if problems:
        raise _DirectRulesFail("; ".join(problems))
    return N


def _block_system(p: Program, block, idx) -> MixedSystem:
    base, left = _assemble([_leaf(p, s, observe_free=True) for s in statements(block)])
    if left:
        raise NotIncremental(
            "block %d has parameterized priors whose inputs it does not determine"
            % idx
        )
    return base


def program_factor_graph(p: Program):
    """The top-level parallel blocks as a factor graph, labelled S1..Sk."""
    _static_only(p)
    blocks = p.body.items if isinstance(p.body, SPar) else (p.body,)
    systems = [_block_system(p, b, i + 1) for i, b in enumerate(blocks)]
    labels = ["S%d" % (i + 1) for i in range(len(systems))]
    return factor_graph(systems, labels)


def elaborate_graph(p: Program) -> BayesianNetwork:
    """The body as a Bayesian network: directed rules when every statement
    gives one and the union stays acyclic with observed variables as
    sources; otherwise fg_to_bn's rewrite of the blocks' factor graph when
    it is a forest, rooted at the first block in its tree.  Anything else
    is not incremental."""
    leaves = statements(p.body)
    _static_only(p)
    try:
        return _direct_bn(p, leaves)
    except _DirectRulesFail as first:
        reason = str(first)
    fg = program_factor_graph(p)
    try:
        return fg_to_bn(fg, root=fg.labels[0])
    except NotATree as e:
        raise NotIncremental("no directed reading (%s) and %s" % (reason, e)) from None


# --- dynamic semantics ---------------------------------------------------------


def _guards(p: Program):
    """{label: (rewritten guard, its variables)} over p's on-statements,
    the first statement of each label giving its guard."""
    seen = {}
    for s in statements(p.body):
        if isinstance(s, SOn):
            label, g, read = statement_facts(p, s).guard
            seen.setdefault(label, (g, read))
    return seen


def program_guards(p: Program):
    """(label, rewritten guard) per distinct guard, sorted by label."""
    return sorted((label, g) for label, (g, _) in _guards(p).items())


def _check_guards_boolean(p: Program, guards):
    for label, (g, read) in sorted(guards.items()):
        vars = [_var(p, nm) for nm in sorted(read)]
        for q in all_states(vars):
            val = eval_expr(p, g, {pre_name(k): v for k, v in q.items()})
            if not isinstance(val, bool):
                raise GuardNotBoolean(
                    "guard %s evaluates to %r at %r" % (label, val, q)
                )


def program_parts(p: Program):
    """The program's top-level parallel statements grouped into independent
    parts: two statements share a part when they touch a common variable,
    where reading pre x, init x and a guard reading x all touch x, so x
    and •x stay in one part.  What each statement touches is read
    from the statement table (statement_facts).  Each part is a Program
    with p's declarations, its compiled Domains, Vars and tied score
    tables, and its statement table; parts keep the order of their first
    statements, and statements keep theirs.  A program with one part gives
    (p,)."""
    leaves = statements(p.body)
    adj = {("s", i): {("v", x) for x in statement_facts(p, s).touched}
           for i, s in enumerate(leaves)}
    for node, touched in list(adj.items()):
        for v in touched:
            adj.setdefault(v, set()).add(node)
    groups = [sorted(i for kind, i in comp if kind == "s") for comp in _components(adj)]
    if len(groups) <= 1:
        return (p,)
    return tuple(dataclasses.replace(p, body=SPar(tuple(leaves[i] for i in group)))
                 for group in groups)


def active_leaves(p: Program, assign):
    """The statements a step of p runs under a guard assignment {label:
    bool}: every leaf but init, with each on-statement replaced by the
    statements of the branch its guard's value selects.  They are p's own
    statement objects."""
    active = []
    for s in statements(p.body):
        if isinstance(s, SOn):
            f = statement_facts(p, s)
            active.extend(f.branches[0 if assign[f.guard[0]] else 1])
        elif not isinstance(s, SInit):
            active.append(s)
    return active


def elaborate_dynamic(p: Program):
    """The whole program as one mixed automaton.

    Variables: every name a statement touches, plus a •x companion for each
    variable read through pre (explicitly or from a guard).  Actions: total
    truth assignments to the guards, as states over the guard labels; with
    no guards the single empty assignment plays the role of "true".  The
    target at (q, action) composes, in order: the pins •x = q(x), every
    always-on statement, and the branch each guard's assigned value selects;
    variables the selected statements leave unconstrained stay free.

    Only the pins depend on q.  Each leaf statement's system (prior,
    equation, free observe) or kernel (parameterized prior), and each free
    padding variable's system, is built once, when a target first needs
    it, and shared by every target of this automaton.  The provider builds
    a target once per (pinned values, action), composing fresh pins with
    those shared systems, and hands the same system to every state that
    agrees on the variables read through pre; a program with no pre builds
    one target per action.  All of it lives as long as the automaton.  The
    variables, the pinned ones and the guards are read from the statement
    table (statement_facts), so a program or part walks its statements
    once however often it is elaborated.
    """
    leaves = statements(p.body)
    facts = [statement_facts(p, s) for s in leaves]
    pres = sorted(frozenset().union(*(f.pres for f in facts)))
    guards = _guards(p)
    _check_guards_boolean(p, guards)

    names = set().union(*(f.touched for f in facts), map(pre_name, pres))
    vars = [_var(p, nm) for nm in sorted(names)]
    labels = sorted(guards)

    alphabet = [
        State(dict(zip(labels, bits)))
        for bits in itertools.product((False, True), repeat=len(labels))
    ]
    initial = State({s.var: s.value for s in leaves if isinstance(s, SInit)})
    pin_vars = [_var(p, pre_name(x)) for x in pres]
    targets = {}  # (values of pres, action) -> target system
    pieces = {}  # id of a leaf statement -> its system or kernel
    pads = {}  # free variable -> its system

    def piece(s):
        # active_leaves hands back the program's own statement objects
        got = pieces.get(id(s))
        if got is None:
            got = pieces[id(s)] = _leaf(p, s, observe_free=True)
        return got

    def pad(nm):
        got = pads.get(nm)
        if got is None:
            got = pads[nm] = free_system(p, nm)
        return got

    def build(values, a):
        # transition checked the state these values come from
        pins = [_pin(var, v) for var, v in zip(pin_vars, values)]
        base, left = _assemble([piece(s) for s in active_leaves(p, a)], pins)
        if left:
            raise NotIncremental(
                "parameterized priors need inputs the step does not determine"
            )
        free = [pad(nm) for nm in sorted(names - set(base.var_names))]
        if free:
            base = compose(base, *free)
        return base

    def provider(q, a):
        if not isinstance(a, State) or set(a.names) != set(labels):
            return None
        for x in pres:
            if x not in q:
                return None
        key = (tuple(q[x] for x in pres), a)
        if key not in targets:
            targets[key] = build(*key)
        return targets[key]

    return MixedAutomaton(alphabet, vars, initial, provider=provider)
