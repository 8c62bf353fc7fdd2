import random
from fractions import Fraction

import pytest

from rbmx import Domain, MixedSystem, State, equivalent
from rbmx.automata import (
    MixedAutomaton,
    assignment_algebra,
    bisimilar,
    lift_check,
    ma_compose,
    ma_from_json,
    ma_run,
    ma_step,
    ma_to_json,
    sim_equivalent,
    simulates,
    sync_on_equal,
    verify_weighting,
)
from rbmx.errors import (
    CapExceeded,
    IncompatibleInitials,
    MalformedSystem,
    MissingInit,
    NoTransition,
    NondeterministicJoin,
    VariableSetMismatch,
)
from rbmx.transport import feasible_transport

from .oracles import (
    allowed_pairs,
    both_ways,
    cut_feasible,
    ma_ok,
    naive_greatest,
    rand_ma,
    rand_system,
    rand_system_over,
)

BIT = Domain("bit", (0, 1))


def target(*vals, name="x", pi=None):
    """System over one bit variable whose single outcome admits the given
    values (several = a nondeterministic row)."""
    if pi is None:
        pi = {"o": Fraction(1)}
        rel = {"o": [State({name: v}) for v in vals]}
    else:
        rel = {o: [State({name: v}) for v in row] for o, row in vals[0].items()}
    return MixedSystem(pi, [(name, BIT)], rel)


def walker():
    """One-bit automaton: "flip" moves to the other value, "stay" keeps it."""
    delta = {}
    for v in (0, 1):
        delta[(State({"x": v}), "flip")] = target(1 - v)
        delta[(State({"x": v}), "stay")] = target(v)
    return MixedAutomaton(("flip", "stay"), [("x", BIT)], {"x": 0}, delta)


class TestConstruction:
    def test_target_variables_must_match(self):
        with pytest.raises(VariableSetMismatch):
            MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                           {(State({"x": 0}), "a"): target(0, name="y")})

    def test_initial_validated(self):
        with pytest.raises(VariableSetMismatch):
            MixedAutomaton(("a",), [("x", BIT)], {"zz": 0}, {})
        with pytest.raises(VariableSetMismatch):
            MixedAutomaton(("a",), [("x", BIT)], {"x": 7}, {})

    def test_partial_initial_allowed(self):
        M = MixedAutomaton(("a",), [("x", BIT), ("y", BIT)], {"x": 0}, {})
        assert M.initial == State({"x": 0})
        assert not M.is_total_state(M.initial)

    def test_alphabet_is_sorted_and_deduped(self):
        M = MixedAutomaton(("b", "a", "b"), [("x", BIT)], {"x": 0}, {})
        assert M.alphabet == ("a", "b")

    def test_variables_are_validated_like_a_system(self):
        with pytest.raises(MalformedSystem, match="declared twice"):
            MixedAutomaton(("a",), [("x", BIT), ("x", BIT)], {"x": 0})
        with pytest.raises(MalformedSystem, match="two different value lists"):
            MixedAutomaton(("a",), [("x", BIT), ("y", Domain("bit", (0, 1, 2)))],
                           {"x": 0})


class TestProvider:
    def test_lazy_transitions_are_cached(self):
        calls = []

        def provide(q, a):
            calls.append((q, a))
            return target(q["x"]) if a == "stay" else None

        M = MixedAutomaton(("stay", "go"), [("x", BIT)], {"x": 0},
                           provider=provide)
        q = State({"x": 0})
        S1 = M.transition(q, "stay")
        S2 = M.transition(q, "stay")
        assert S1 is S2
        assert calls.count((q, "stay")) == 1
        assert M.transition(q, "go") is None

    def test_materialize_caps(self):
        M = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                           provider=lambda q, a: target(q["x"]))
        M.materialize(cap=16)
        assert len(M.delta) == 2
        M2 = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                            provider=lambda q, a: target(q["x"]))
        with pytest.raises(CapExceeded):
            M2.materialize(cap=1)


class TestReachable:
    def test_bfs_from_total_initial(self):
        M = walker()
        assert M.reachable() == [State({"x": 0}), State({"x": 1})]

    def test_unreachable_states_are_dropped(self):
        delta = {(State({"x": 0}), "stay"): target(0)}
        M = MixedAutomaton(("stay",), [("x", BIT)], {"x": 0}, delta)
        assert M.reachable() == [State({"x": 0})]

    def test_partial_initial_falls_back_to_all_states(self):
        M = MixedAutomaton(("a",), [("x", BIT), ("y", BIT)], {"x": 0}, {})
        assert len(M.reachable()) == 4


class TestRuns:
    def test_run_follows_actions(self):
        M = walker()
        r = ma_run(M, ["flip", "flip", "stay", "flip"], random.Random(0))
        assert r.error is None
        assert [q["x"] for q in r.states] == [0, 1, 0, 0, 1]
        assert [s.action for s in r.steps] == ["flip", "flip", "stay", "flip"]

    def test_missing_transition_aborts(self):
        M = walker()
        r = ma_run(M, ["flip", "jump"], random.Random(0))
        assert len(r.steps) == 1
        assert "no transition" in r.error
        with pytest.raises(NoTransition):
            ma_step(M, State({"x": 0}), "jump", random.Random(0))

    def test_inconsistent_target_aborts_with_error(self):
        dead = MixedSystem({"o": Fraction(1)}, [("x", BIT)], {"o": []})
        M = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                           {(State({"x": 0}), "a"): dead})
        r = ma_run(M, ["a"], random.Random(0))
        assert r.steps == ()
        assert "inconsistent" in r.error

    def test_partial_initial_cannot_run(self):
        M = MixedAutomaton(("a",), [("x", BIT), ("y", BIT)], {"x": 0}, {})
        with pytest.raises(MissingInit):
            ma_run(M, ["a"], random.Random(0))

    def test_seeded_runs_repeat(self):
        rng1, rng2 = random.Random(42), random.Random(42)
        M = walker()
        acts = ["flip", "stay"] * 5
        assert ma_run(M, acts, rng1) == ma_run(M, acts, rng2)


class TestCompose:
    def test_sync_on_equal_joins_shared_actions(self):
        M1 = walker()
        delta2 = {(State({"y": v}), "flip"): target(1 - v, name="y")
                  for v in (0, 1)}
        M2 = MixedAutomaton(("flip",), [("y", BIT)], {"y": 1}, delta2)
        C = ma_compose(M1, M2)
        assert C.alphabet == ("flip",)  # "stay" has no partner
        assert C.initial == State({"x": 0, "y": 1})
        S = C.transition(State({"x": 0, "y": 1}), "flip")
        assert S is not None
        assert equivalent(S, MixedSystem(
            {"o": Fraction(1)}, [("x", BIT), ("y", BIT)],
            {"o": [State({"x": 1, "y": 0})]}))

    def test_clashing_initials(self):
        M1 = walker()
        M2 = MixedAutomaton(("flip",), [("x", BIT)], {"x": 1}, {})
        with pytest.raises(IncompatibleInitials):
            ma_compose(M1, M2)

    def test_assignment_algebra_joins_partial_assignments(self):
        alg = assignment_algebra()
        a1 = State({"g": True})
        a2 = State({"h": False})
        assert alg.compatible(a1, a2)
        assert alg.join(a1, a2) == State({"g": True, "h": False})
        assert not alg.compatible(a1, State({"g": False}))

    def test_colliding_nonequivalent_targets_rejected(self):
        # two distinct left transitions join with the same right transition
        # onto one composite key but with different targets
        alg = assignment_algebra()
        qa = State({"x": 0})
        d1 = {(qa, State({"g": True})): target(0),
              (qa, State({"g": True, "h": True})): target(1)}
        M1 = MixedAutomaton(tuple(a for _, a in d1), [("x", BIT)], {"x": 0}, d1)
        d2 = {(State({"y": 0}), State({"h": True})): target(0, name="y")}
        M2 = MixedAutomaton((State({"h": True}),), [("y", BIT)], {"y": 0}, d2)
        with pytest.raises(NondeterministicJoin):
            ma_compose(M1, M2, alg)


class TestLifting:
    def test_weightings_verify_and_match_the_cut_oracle(self):
        rng = random.Random(71)
        same = lambda q1, q2: q1 == q2
        checked = 0
        for _ in range(150):
            S1 = rand_system(rng, max_omega=5, max_vars=1)
            S2 = rand_system_over(rng, list(S1.vars), max_omega=5)
            w = lift_check(S1, S2, same)
            allowed = allowed_pairs(S1, S2, same)
            feasible = cut_feasible(
                {o: S1.pi[o] for o in S1.omega},
                {o: S2.pi[o] for o in S2.omega},
                allowed,
            )
            assert (w is not None) == feasible
            if w is not None:
                assert verify_weighting(S1, S2, same, w)
                checked += 1
        assert checked > 10

    def test_identity_lifts_to_itself(self):
        rng = random.Random(72)
        for _ in range(40):
            S = rand_system(rng)
            w = lift_check(S, S, lambda a, b: a == b)
            assert w is not None
            assert verify_weighting(S, S, lambda a, b: a == b, w)

    def test_relation_as_pair_list(self):
        S1 = target(0)
        S2 = target(1)
        pairs = [(State({"x": 0}), State({"x": 1}))]
        assert lift_check(S1, S2, pairs) is not None
        assert lift_check(S1, S2, []) is None

    def test_verify_rejects_bad_weightings(self):
        S = target(0)
        same = lambda a, b: a == b
        assert not verify_weighting(S, S, same, {})  # projects to nothing
        assert not verify_weighting(S, S, same, {("o", "o"): Fraction(-1)})
        w = {("o", "o"): Fraction(1)}
        assert verify_weighting(S, S, same, w)

    def test_transport_direct(self):
        mu = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        nu = {"c": Fraction(1)}
        w = feasible_transport(mu, nu, [("a", "c"), ("b", "c")])
        assert w == {("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)}
        assert feasible_transport(mu, nu, [("a", "c")]) is None
        assert feasible_transport(mu, {"c": Fraction(1, 2)}, [("a", "c")]) is None


class TestSimulation:
    def test_every_automaton_simulates_itself(self):
        rng = random.Random(73)
        for _ in range(25):
            M = rand_ma(rng, "u")
            R = simulates(M, M)
            assert R is not None
            for q in M.reachable():
                assert (q, q) in R
            assert bisimilar(M, M) is not None

    def test_richer_automaton_simulates_poorer(self):
        M = walker()
        # drop the "stay" loops: fewer behaviors
        delta = {(q, a): S for (q, a), S in M.delta.items() if a == "flip"}
        P = MixedAutomaton(("flip", "stay"), [("x", BIT)], {"x": 0}, delta)
        assert simulates(P, M) is not None
        assert simulates(M, P) is None
        assert not sim_equivalent(M, P)
        assert bisimilar(M, P) is None

    def test_probability_split_blocks_simulation(self):
        # left: one certain outcome to x=0; right: x=0 w.p. 1/2 else x=1
        S_cert = target(0)
        S_half = MixedSystem(
            {"h": Fraction(1, 2), "t": Fraction(1, 2)}, [("x", BIT)],
            {"h": [State({"x": 0})], "t": [State({"x": 1})]},
        )
        M1 = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                            {(State({"x": 0}), "a"): S_cert})
        M2 = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                            {(State({"x": 0}), "a"): S_half})
        assert simulates(M1, M2) is None
        # the other direction holds: x=1 deadlocks on the right-hand automaton
        # and a deadlocked state is simulated by anything
        assert simulates(M2, M1) is not None

    def test_nondeterministic_row_simulates_point(self):
        S_point = target(0)
        S_both = target(0, 1)
        M_point = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                                 {(State({"x": 0}), "a"): S_point})
        M_both = MixedAutomaton(("a",), [("x", BIT)], {"x": 0},
                                {(State({"x": 0}), "a"): S_both})
        assert simulates(M_point, M_both) is not None

    def test_partial_initials_join_the_relation(self):
        M = MixedAutomaton(("a",), [("x", BIT), ("y", BIT)], {"x": 0}, {})
        R = simulates(M, M)
        assert R is not None
        assert (M.initial, M.initial) in R


class TestRefinement:
    def test_relations_equal_the_naive_fixpoint(self):
        # the naive fixpoint runs over all states; lifting only consults
        # reachable ones, so restricted to them it is the engine's relation
        rng = random.Random(75)
        states = [State({"u": v}) for v in (0, 1, 2)]
        everything = [(a, b) for a in states for b in states]
        verdicts = set()
        for _ in range(60):
            M1, M2 = rand_ma(rng, "u"), rand_ma(rng, "u")
            keep = {(a, b) for a in M1.reachable() for b in M2.reachable()}
            initial = (M1.initial, M2.initial)
            fwd = naive_greatest(everything, ma_ok(M1, M2))
            both = naive_greatest(everything,
                                  both_ways(ma_ok(M1, M2), ma_ok(M2, M1)))
            for got, want in ((simulates(M1, M2), fwd), (bisimilar(M1, M2), both)):
                if initial in want:
                    assert got == want & keep
                else:
                    assert got is None
            verdicts.add((initial in fwd, initial in both))
        assert verdicts == {(True, True), (True, False), (False, False)}


class TestJson:
    def test_round_trip_plain_actions(self):
        M = walker()
        M2 = ma_from_json(ma_to_json(M))
        assert M2.alphabet == M.alphabet
        assert M2.initial == M.initial
        assert sim_equivalent(M, M2)
        assert bisimilar(M, M2) is not None

    def test_round_trip_state_actions(self):
        q0 = State({"x": 0})
        act = State({"g": True})
        M = MixedAutomaton((act,), [("x", BIT)], {"x": 0}, {(q0, act): target(1)})
        M2 = ma_from_json(ma_to_json(M))
        assert M2.alphabet == (act,)
        assert M2.transition(q0, act) is not None
        assert sim_equivalent(M, M2)

    def test_random_round_trips(self):
        rng = random.Random(74)
        for _ in range(15):
            M = rand_ma(rng, "u")
            M2 = ma_from_json(ma_to_json(M))
            assert sim_equivalent(M, M2)
