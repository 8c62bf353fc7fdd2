"""Programs run as independent parts: the split, and runs checked against the
single automaton of the whole program (oracles.whole_run)."""

import json
import random

import pytest

from rbmx import core
from rbmx.core import State, compose, consistency_weight, equivalent
from rbmx.errors import CapExceeded, DomainMismatch, MalformedSystem, MissingObservation
from rbmx.rblang import elaborate_dynamic, parse, run_program, statements
from rbmx.rblang import elaborate, run, syntax
from rbmx.rblang.elaborate import program_parts

from .oracles import recheck_builds, whole_run, whole_step
from .test_cli import CHAINS, CHAINS_OBS, GUARDED, GUARDED_OBS, NOISY
from .test_rblang import MARKOV

XOR = "func xor2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> F }"


def xor_chains(k, observed):
    """k independent noisy xor chains; chain i is observed when i is in
    observed."""
    lines = ["domain bool = { F, T }", XOR]
    lines += ["var x%d, n%d : bool" % (i, i) for i in range(k)]
    for i in range(k):
        lines += ["|| init x%d = F" % i, "|| n%d ~ Bernoulli(1/10)" % i,
                  "|| x%d = xor2(pre x%d, n%d)" % (i, i, i)]
        if i in observed:
            lines.append("|| observe x%d" % i)
    return "\n".join(lines) + "\n"


def chain_obs(rng, observed, steps):
    return [{"x%d" % i: rng.random() < 0.5 for i in observed} for _ in range(steps - 1)]


def records(text):
    return [json.loads(line) for line in text.splitlines()]


# --- random multi-part programs ------------------------------------------------

RAND_HEAD = """
domain bool = { F, T }
domain t3 = { 0, 1, 2 }
func inc : t3 -> t3 { 0 -> 1, 1 -> 2, 2 -> 0 }
%s
dist coin : t3 { 0 : 1/4, 1 : 1/2, 2 : 1/4 }
dist step(t3) : t3 { 0 -> { 0 : 1/2, 1 : 1/2, 2 : 0 }, 1 -> { 0 : 0, 1 : 1/3, 2 : 2/3 },
                     2 -> { 0 : 1/4, 1 : 0, 2 : 3/4 } }
dist flip(bool) : t3 { F -> { 0 : 1/3, 1 : 1/3, 2 : 1/3 }, T -> { 0 : 1/5, 1 : 0, 2 : 4/5 } }
""" % XOR


def rand_part(rng, j):
    """(declarations, statements, observed variables, uses a graft) of one
    part over variables suffixed j; every observation is consistent with
    every state the part reaches."""
    kind = rng.choice(("xor", "markov", "guarded", "static"))
    if kind == "xor":
        decl = "var x%d, n%d : bool" % (j, j)
        body = ["init x%d = F" % j, "n%d ~ Bernoulli(%d/7)" % (j, rng.randint(1, 6)),
                "x%d = xor2(pre x%d, n%d)" % (j, j, j)]
        if rng.random() < 0.5:
            decl += "\nvar v%d : t3" % j
            body.append("v%d ~ flip(x%d)" % (j, j))
            return decl, body, [], True
        return decl, body + ["observe x%d" % j], ["x%d" % j], False
    if kind == "markov":
        return ("var z%d : t3" % j, ["init z%d = %d" % (j, rng.randint(0, 2)),
                                     "z%d ~ step(pre z%d)" % (j, j)], [], True)
    if kind == "guarded":
        return ("var b%d, x%d, y%d : bool" % (j, j, j),
                ["init b%d = T" % j, "y%d ~ Bernoulli(%d/5)" % (j, rng.randint(1, 4)),
                 "on pre b%d then { x%d = y%d || b%d = F || observe x%d } "
                 "else { x%d = T || b%d = T }" % (j, j, j, j, j, j, j)],
                ["x%d" % j], False)
    return ("var u%d, w%d : t3" % (j, j),
            ["u%d ~ coin" % j, "w%d = inc(u%d)" % (j, j), "observe w%d" % j],
            ["w%d" % j], False)


def rand_program(rng):
    """(text, observed variables, whether the whole step's random operands
    come part by part).  Parts are laid out one after another or
    interleaved; grafts draw after every leaf, so a graft in any part but
    the last interleaves too."""
    parts = [rand_part(rng, j) for j in range(rng.randint(2, 4))]
    queues = [list(body) for _, body, _, _ in parts]
    interleave = rng.random() < 0.5
    lines = []
    while any(queues):
        i = rng.choice([i for i, q in enumerate(queues) if q]) if interleave else \
            next(i for i, q in enumerate(queues) if q)
        lines.append("|| " + queues[i].pop(0))
    text = RAND_HEAD + "\n".join(d for d, _, _, _ in parts) + "\n" + "\n".join(lines) + "\n"
    observed = [x for _, _, xs, _ in parts for x in xs]
    grafts = [g for _, _, _, g in parts]
    in_order = not interleave and not any(grafts[:-1])
    return text, observed, in_order


def rand_obs(rng, observed, steps):
    values = {"x": (False, True), "w": (0, 1, 2)}
    return [{x: rng.choice(values[x[0]]) for x in observed} for _ in range(steps - 1)]


# --- checks ----------------------------------------------------------------------


def run_with_targets(p, **kw):
    """run_program(p, **kw) and, per transition, the parts' targets it drew
    from."""
    seen = []

    def recording(targets, rng, resolver):
        seen.append(list(targets))
        return core.sample(targets, rng, resolver)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(run, "sample", recording)
        r = run_program(p, **kw)
    return r, seen


def check_against_whole(p, obs, steps, seed, resolver="lex", same_trace=True):
    """Along the parts' run, every step's composed part targets equal the
    whole program's target from the same state, and the norms are its
    consistency weights; with same_trace the whole run is the same run."""
    r, seen = run_with_targets(p, obs=obs, steps=steps, seed=seed, resolver=resolver)
    M = elaborate_dynamic(p)
    for n, targets in enumerate(seen, start=1):
        assign, W = whole_step(p, M, State(r.trace[n - 1]), obs, n)
        assert assign == r.actions[n - 1]
        assert equivalent(compose(*targets) if len(targets) > 1 else targets[0], W)
        assert consistency_weight(W) == r.norms[n - 1]
        assert r.sizes[n - 1] == tuple(len(S.omega) for S in targets)
    if same_trace:
        w = whole_run(p, obs=obs, steps=steps, seed=seed, resolver=resolver)
        assert (r.trace, r.actions, r.norms, r.flags) == (w.trace, w.actions, w.norms, w.flags)
    return r


class TestSplit:
    def test_chains_split_into_one_part_each(self):
        p = parse(CHAINS)
        parts = program_parts(p)
        assert [sorted({s.var for s in statements(q.body) if hasattr(s, "var")})
                for q in parts] == [["n0", "x0"], ["n1", "x1"], ["n2", "x2"]]
        assert all(q.vars is p.vars and q.dists is p.dists for q in parts)

    def test_one_part_is_the_program_itself(self):
        for text in (GUARDED, NOISY, MARKOV):
            p = parse(text)
            parts = program_parts(p)
            assert len(parts) == 1 and parts[0] is p

    def test_pre_init_and_guards_touch_their_variable(self):
        p = parse("""
domain bool = { F, T }
var a, b, c, d : bool
|| init a = T
|| b = pre a
|| on c then { d = T } else { d = F }
|| init c = F
|| c = T
""")
        parts = program_parts(p)
        assert [len(statements(q.body)) for q in parts] == [2, 3]
        assert statements(parts[1].body)[0] == statements(p.body)[2]


class TestAgainstTheWholeProgram:
    def test_chains(self):
        obs = records(CHAINS_OBS)
        for seed in range(8):
            check_against_whole(parse(CHAINS), obs, 6, seed)

    def test_guarded(self):
        obs = records(GUARDED_OBS)
        for seed in (1, 2, 3):
            check_against_whole(parse(GUARDED), obs, 10, seed, resolver="uniform")

    def test_noisy(self):
        obs = [{"y": 1}, {"y": 0}, {"y": 1}]
        for seed in range(4):
            check_against_whole(parse(NOISY), obs, 4, seed)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_xor_chains(self, k):
        rng = random.Random(k)
        observed = set(rng.sample(range(k), k // 2))
        p = parse(xor_chains(k, observed))
        for seed in range(3):
            obs = chain_obs(rng, observed, 8)
            r = check_against_whole(p, obs, 8, seed)
            assert all(s == (2,) * k for s in r.sizes)

    def test_random_programs(self):
        rng = random.Random(2201)
        seen = {"in order": 0, "interleaved": 0, "traces differ": 0}
        for _ in range(40):
            text, observed, in_order = rand_program(rng)
            p = parse(text)
            obs = rand_obs(rng, observed, 6)
            for resolver in ("lex", "uniform"):
                seed = rng.randrange(1000)
                r = check_against_whole(p, obs, 6, seed, resolver, same_trace=in_order)
                if not in_order:
                    w = whole_run(p, obs=obs, steps=6, seed=seed, resolver=resolver)
                    seen["traces differ"] += r.trace != w.trace
            seen["in order" if in_order else "interleaved"] += 1
        assert all(seen.values()), seen


def test_runs_build_what_the_checked_constructor_builds(monkeypatch):
    # each step's targets, pins and observation points are built unchecked;
    # recheck_builds rebuilds every one with MixedSystem
    built = recheck_builds(monkeypatch)
    rng = random.Random(2202)
    for _ in range(12):
        text, observed, _ = rand_program(rng)
        run_program(parse(text), obs=rand_obs(rng, observed, 5), steps=5,
                    seed=rng.randrange(1000), resolver=rng.choice(("lex", "uniform")))
    for k in (2, 5):
        observed = set(range(0, k, 2))
        run_program(parse(xor_chains(k, observed)),
                    obs=chain_obs(rng, observed, 6), steps=6, seed=k)
    run_program(parse(GUARDED), obs=records(GUARDED_OBS), steps=10, seed=1)
    assert len(built) > 100


def test_many_chains_run_in_linear_space():
    # 24 chains: the whole step would have 2**24 outcomes, above the cap
    k = 24
    observed = set(range(0, k, 2))
    p = parse(xor_chains(k, observed))
    r = run_program(p, obs=chain_obs(random.Random(5), observed, 5), steps=5, seed=5)
    assert r.sizes == ((2,) * k,) * 4
    assert 2 ** k > core.MAX_OUTCOMES
    M = elaborate_dynamic(p)
    with pytest.raises(CapExceeded):
        M.transition(M.initial, State())


# --- what a run builds once -------------------------------------------------------


def counting(monkeypatch, module, *names):
    """Wrap module's functions of the given names to count their calls."""
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


def same_system(S, T):
    return (S.vars == T.vars and S.omega == T.omega
            and list(S.pi.items()) == list(T.pi.items())
            and list(S.rel.items()) == list(T.rel.items()))


class TestBuiltOnce:
    def test_each_leaf_statement_is_elaborated_once_per_automaton(self, monkeypatch):
        calls = counting(monkeypatch, elaborate, "equation_system", "prior_system",
                         "free_system", "prior_kernel")
        M = elaborate_dynamic(parse(xor_chains(4, {0, 2})))
        M.materialize(cap=2 ** 12 + 1)
        assert len(M.delta) == 2 ** 12 + 1  # every total state and the initial
        # four equations, four priors, two observes left free
        assert calls == {"equation_system": 4, "prior_system": 4, "free_system": 2,
                         "prior_kernel": 0}

    def test_a_parameterized_prior_is_one_kernel_applied_once_per_cell(self, monkeypatch):
        calls = counting(monkeypatch, elaborate, "prior_system", "prior_kernel")
        elaborate_dynamic(parse(MARKOV)).materialize()
        assert calls == {"prior_system": 3, "prior_kernel": 1}

    def test_a_run_builds_each_leaf_once_per_part(self, monkeypatch):
        calls = counting(monkeypatch, elaborate, "equation_system", "prior_system")
        observed = {0, 2}
        run_program(parse(xor_chains(4, observed)),
                    obs=chain_obs(random.Random(4), observed, 30), steps=30, seed=4)
        assert calls == {"equation_system": 4, "prior_system": 4}

    def test_an_observed_target_is_composed_once_per_observation(self, monkeypatch):
        composed = []
        build = run.compose

        def recording(S, *points):
            composed.append((S, tuple(T.rel["1"][0] for T in points)))
            return build(S, *points)

        monkeypatch.setattr(run, "compose", recording)
        observed = {0, 2}
        r = run_program(parse(xor_chains(4, observed)),
                        obs=chain_obs(random.Random(4), observed, 30), steps=30, seed=4)
        assert len(r.trace) == 30
        keys = [(id(S), states) for S, states in composed]
        assert len(keys) == len(set(keys))
        # an observed chain has two targets (pre x = F or T) and two values
        assert len(keys) <= 2 * 2 * len(observed)

    def test_every_reachable_target_equals_the_one_built_alone(self):
        # the parts run_program steps, and one whole program of three parts
        rng = random.Random(2203)
        programs = [parse(text) for text in (GUARDED, NOISY, MARKOV, CHAINS)]
        programs += [parse(rand_program(rng)[0]) for _ in range(8)]
        machines = [part for p in programs for part in program_parts(p)]
        machines.append(parse(CHAINS))
        checked = 0
        for p in machines:
            M = elaborate_dynamic(p)
            for q in M.reachable():
                for a in M.alphabet:
                    alone = elaborate_dynamic(p).transition(q, a)
                    assert same_system(M.transition(q, a), alone)
                    checked += 1
        assert checked > 300

    @pytest.mark.parametrize("fifth, error", [
        ({}, MissingObservation), ({"x0": 1}, DomainMismatch),
        ({"x0": "F"}, DomainMismatch), (5, MalformedSystem)])
    def test_every_record_is_checked_after_memo_hits(self, monkeypatch, fifth, error):
        # one observed chain that stays at F: steps 2 to 4 reuse the
        # observed target step 1 composed, and step 5's record still fails
        drawn = counting(monkeypatch, run, "sample", "compose")
        obs = [{"x0": False}] * 4 + [fifth]
        with pytest.raises(error):
            run_program(parse(xor_chains(1, {0})), obs=obs, steps=7, seed=3)
        assert drawn == {"sample": 4, "compose": 1}

    def test_a_run_plans_each_guard_assignment_once(self, monkeypatch):
        calls = counting(monkeypatch, run, "active_leaves")
        observed = {0, 2}
        run_program(parse(xor_chains(4, observed)),
                    obs=chain_obs(random.Random(4), observed, 30), steps=30, seed=4)
        assert calls == {"active_leaves": 1}  # no guards: one empty assignment
        calls["active_leaves"] = 0
        r = run_program(parse(GUARDED), obs=records(GUARDED_OBS), steps=10, seed=1,
                        resolver="uniform")
        distinct = {tuple(sorted(a.items())) for a in r.actions}
        assert len(distinct) > 1
        assert calls == {"active_leaves": len(distinct)}

    def test_a_run_walks_each_statement_once(self, monkeypatch):
        # parse filled the statement table, so the run walks only each
        # equation's right-hand side, once in its equation_system: 4 * 3 nodes
        walk = syntax.nodes
        seen = []

        def counted(node):
            for x in walk(node):
                seen.append(x)
                yield x

        observed = {0, 2}
        p = parse(xor_chains(4, observed))
        monkeypatch.setattr(syntax, "nodes", counted)
        run_program(p, obs=chain_obs(random.Random(4), observed, 30), steps=30, seed=4)
        assert len(seen) == 12
