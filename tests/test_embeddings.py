import random
import re
from fractions import Fraction

import pytest

from rbmx.automata import (
    MixedAutomaton,
    bisimilar,
    ma_compose,
    sim_equivalent,
    simulates,
)
from rbmx import core
from rbmx.core import Domain, MixedSystem, State, all_states
from rbmx.errors import CapExceeded, MalformedSystem, MissingInit
from rbmx.embeddings import (
    PA,
    SPA,
    _pair,
    ma_to_spa,
    pa_bisimilar,
    pa_compose,
    pa_from_json,
    pa_simulates,
    pa_to_json,
    pa_to_ma,
    spa_bisimilar,
    spa_compose,
    spa_embed_pa,
    spa_from_json,
    spa_sim_equivalent,
    spa_simulates,
    spa_to_json,
    spa_to_ma,
)

from .oracles import (
    both_ways,
    naive_greatest,
    pa_ok,
    rand_ma,
    rand_pa,
    rand_spa,
    sim_equivalent_not_bisimilar,
    spa_ok,
)

HALF = Fraction(1, 2)


class TestSpaImage:
    def test_verdicts_agree_with_the_image(self):
        rng = random.Random(9001)
        for trial in range(25):
            P1 = rand_spa(rng)
            P2 = rand_spa(rng)
            v_spa = spa_simulates(P1, P2) is not None
            v_ma = simulates(spa_to_ma(P1, var="x1"),
                             spa_to_ma(P2, var="x2")) is not None
            assert v_spa == v_ma, (trial, v_spa, v_ma)

    def test_composition_commutes_with_the_image(self):
        rng = random.Random(9002)
        for trial in range(10):
            P1 = rand_spa(rng, nq=2)
            P2 = rand_spa(rng, nq=2)
            lhs = spa_to_ma(spa_compose(P1, P2), var="xc")
            rhs = ma_compose(spa_to_ma(P1, var="x1"), spa_to_ma(P2, var="x2"))
            assert sim_equivalent(lhs, rhs), trial

    def test_self_simulation(self):
        rng = random.Random(9003)
        P = rand_spa(rng)
        assert spa_simulates(P, P) is not None
        assert spa_sim_equivalent(P, P)

    def test_candidates_are_ordered_by_weight_value(self):
        # the order names the commitment tokens; (numerator, denominator)
        # would put 1/2 before 1/3
        third = {"s": Fraction(1, 3), "t": Fraction(2, 3)}
        doc = {"kind": "spa", "alphabet": ["a"], "states": ["q", "s", "t"], "initial": "q",
               "transitions": [{"from": "q", "action": "a", "dist": [["s", w], ["t", w]]}
                               for w in ("1/2", "2/4")]
               + [{"from": "q", "action": "a", "dist": [["s", "1/3"], ["t", "2/3"]]}]}
        for P in (spa_from_json(doc),
                  SPA(["a"], ["q", "s", "t"], "q", [("q", "a", {"s": HALF, "t": HALF}),
                                                    ("q", "a", third)])):
            assert [d for _, _, d in P.transitions] == [third, {"s": HALF, "t": HALF}]
            M = spa_to_ma(P, var="x")
            first = M.transition({"x": "q@a#0"}, "@commit")
            assert {o: first.pi[o] for o in first.omega} == third
            assert M.transition({"x": "q@a#1"}, "@commit").pi["s"] == HALF
        G = PA(["a"], ["q", "s"], "q", [("q", {("a", "q"): HALF, ("a", "s"): HALF}),
                                        ("q", {("a", "q"): Fraction(1, 3),
                                               ("a", "s"): Fraction(2, 3)})])
        assert [d[("a", "q")] for _, d in G.transitions] == [Fraction(1, 3), HALF]

    def test_a_token_name_a_state_holds_is_primed(self):
        P = SPA(["a"], ["q", "q@a#0"], "q", [("q", "a", {"q@a#0": Fraction(1)})])
        M = spa_to_ma(P, var="x")
        assert M.vars[0].domain.values == ("q", "q@a#0", "q@a#0'")
        commit = M.transition({"x": "q"}, "a")
        assert [q["x"] for q in commit.rel[commit.omega[0]]] == ["q@a#0'"]
        draw = M.transition({"x": "q@a#0'"}, "@commit")
        assert {o: draw.pi[o] for o in draw.omega} == {"q@a#0": 1}


ONE = PA(("a",), ("q",), "q", [("q", {("a", "q"): 1})])

# automata the constructors and conversions refuse, each with its message
MALFORMED = {
    "duplicate states": (lambda: SPA(("a",), ("q", "q"), "q", []), "duplicate SPA states"),
    "transition from an unknown state": (lambda: SPA(("a",), ("q",), "q", [("r", "a", {"q": 1})]),
                                         "transition from unknown state 'r'"),
    "SPA distribution off the states": (lambda: SPA(("a",), ("q",), "q", [("q", "a", {"r": 1})]),
                                        "distribution leaves the state set"),
    "PA distribution off the actions": (lambda: PA(("a",), ("q",), "q", [("q", {("b", "q"): 1})]),
                                        "distribution leaves Σ×Q at ('b', 'q')"),
    "PA distribution off the states": (lambda: PA(("a",), ("q",), "q", [("q", {("a", "r"): 1})]),
                                       "distribution leaves Σ×Q at ('a', 'r')"),
    "scheduler at 0": (lambda: pa_compose(ONE, ONE, 0),
                       "scheduler parameter must lie strictly between 0 and 1"),
    "scheduler at 1": (lambda: pa_compose(ONE, ONE, 1),
                       "scheduler parameter must lie strictly between 0 and 1"),
    "reserved action": (lambda: spa_to_ma(SPA(("@commit",), ("q",), "q",
                                               [("q", "@commit", {"q": 1})])),
                        "action name '@commit' is reserved"),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_a_malformed_automaton_is_refused(self, name):
        build, message = MALFORMED[name]
        with pytest.raises(MalformedSystem, match="^%s$" % re.escape(message)):
            build()

    def test_a_partial_initial_state_has_no_image(self):
        vars = [("u", Domain("D", (0, 1))), ("w", Domain("D", (0, 1)))]
        with pytest.raises(MissingInit, match="^automaton initial state is partial$"):
            ma_to_spa(MixedAutomaton(["a"], vars, {"u": 0}, {}))


class TestMaToSpa:
    def test_simulation_carries_to_the_image(self):
        # one direction only: an automaton-level simulation must survive the
        # embedding.  The converse can fail — a transition into a dead
        # system obliges the other automaton, but leaves no trace in the
        # image, which skips unsamplable targets.
        rng = random.Random(9004)
        positives = 0
        for trial in range(25):
            M1 = rand_ma(rng, "u")
            if trial % 3 == 0:
                sub = {k: v for k, v in M1.delta.items() if rng.random() < 0.7}
                M2 = MixedAutomaton(M1.alphabet, M1.vars, M1.initial, M1.delta)
                M1 = MixedAutomaton(M1.alphabet, M1.vars, M1.initial, sub)
            else:
                M2 = rand_ma(rng, "v")
            if simulates(M1, M2) is None:
                continue
            positives += 1
            assert spa_simulates(ma_to_spa(M1), ma_to_spa(M2)) is not None, trial
        assert positives >= 5

    def test_selections_past_the_cap_are_refused(self):
        # two outcomes that each admit both states: 2 * 2 selections
        vars = [("u", core.Domain("D", (0, 1)))]
        both = [State({"u": 0}), State({"u": 1})]
        S = MixedSystem({"o1": HALF, "o2": HALF}, vars, {"o1": both, "o2": both})
        M = MixedAutomaton(["a"], vars, {"u": 0}, {(State({"u": 0}), "a"): S})
        assert len(ma_to_spa(M, cap=4).transitions) == 3
        with pytest.raises(CapExceeded, match=r"^ma_to_spa at .*: 4 selections exceed cap 3$"):
            ma_to_spa(M, cap=3)

    def test_product_image_vs_image_product(self):
        # Two single-step automata sharing variable x.  The SPA product of
        # the images keeps the full product distribution including pairs
        # that disagree on x; the image of the MA product carries the
        # conditioned distribution.  The compatible part of the former
        # renormalizes exactly to the latter, but the distributions differ
        # as a whole, so no image map can commute with composition.
        dom = Domain("B", (0, 1))
        vx1 = [("x", dom), ("x1", dom)]
        vx2 = [("x", dom), ("x2", dom)]
        pi1 = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 6),
               (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6)}
        pi2 = {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3),
               (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6)}
        S1 = MixedSystem((list(pi1), pi1), vx1,
                         {o: [State({"x1": o[0], "x": o[1]})] for o in pi1})
        S2 = MixedSystem((list(pi2), pi2), vx2,
                         {o: [State({"x": o[0], "x2": o[1]})] for o in pi2})
        from rbmx.automata import MixedAutomaton

        M1 = MixedAutomaton(("t",), vx1, {"x": 0, "x1": 0},
                            {(q, "t"): S1 for q in all_states(vx1)})
        M2 = MixedAutomaton(("t",), vx2, {"x": 0, "x2": 0},
                            {(q, "t"): S2 for q in all_states(vx2)})

        Pprod = spa_compose(ma_to_spa(M1), ma_to_spa(M2))
        Mprod = ma_to_spa(ma_compose(M1, M2))

        (d_prod,) = Pprod.dists(Pprod.initial, "t")
        (d_cond,) = Mprod.dists(Mprod.initial, "t")

        mapped = {}
        for q, m in d_cond.items():
            qd = q.as_dict()
            left = State({"x1": qd["x1"], "x": qd["x"]})
            right = State({"x": qd["x"], "x2": qd["x2"]})
            mapped[_pair(left, right)] = m

        matched = sum((m for k, m in d_prod.items() if k in mapped), Fraction(0))
        assert matched == Fraction(5, 9)
        renorm = {k: m / matched for k, m in d_prod.items() if k in mapped}
        assert renorm == mapped
        assert d_prod != mapped

    def test_bundle_fixtures_agree_both_ways(self):
        # positive: a two-bundle splitter against a single-bundle one
        B1 = SPA(("t", "x", "y"), ("q0", "a", "b", "c", "d"), "q0",
                 [("q0", "t", {"a": HALF, "b": HALF}),
                  ("q0", "t", {"c": HALF, "d": HALF}),
                  ("a", "x", {"a": 1}), ("c", "x", {"c": 1}),
                  ("b", "y", {"b": 1}), ("d", "y", {"d": 1})])
        B2 = SPA(("t", "x", "y"), ("r0", "e", "f"), "r0",
                 [("r0", "t", {"e": HALF, "f": HALF}),
                  ("e", "x", {"e": 1}), ("f", "y", {"f": 1})])
        assert spa_simulates(B1, B2) is not None
        assert simulates(spa_to_ma(B1, var="u"), spa_to_ma(B2, var="v")) is not None
        # negative: a fair coin cannot be matched by two point bundles
        B3 = SPA(("t", "x", "y"), ("q0", "u", "v"), "q0",
                 [("q0", "t", {"u": HALF, "v": HALF}),
                  ("u", "x", {"u": 1}), ("v", "y", {"v": 1})])
        B4 = SPA(("t", "x", "y"), ("r0", "u2", "v2"), "r0",
                 [("r0", "t", {"u2": 1}), ("r0", "t", {"v2": 1}),
                  ("u2", "x", {"u2": 1}), ("v2", "y", {"v2": 1})])
        assert spa_simulates(B3, B4) is None
        assert simulates(spa_to_ma(B3, var="u"), spa_to_ma(B4, var="v")) is None


class TestPaToMa:
    def test_positive_verdicts_are_preserved(self):
        rng = random.Random(9005)
        positives = 0
        for trial in range(30):
            P1 = rand_pa(rng)
            if trial % 3 == 0:
                extra = [(q, d) for q, d in rand_pa(rng).transitions
                         if q in P1.states]
                P2 = PA(P1.alphabet, P1.states, P1.initial,
                        list(P1.transitions) + extra)
            else:
                P2 = rand_pa(rng)
            if pa_simulates(P1, P2) is None:
                continue
            positives += 1
            assert simulates(pa_to_ma(P1, act_var="a1", state_var="s1"),
                             pa_to_ma(P2, act_var="a2", state_var="s2")) is not None
        assert positives >= 8

    def test_converse_fails_witness(self):
        # After the draw the action is plain state data with no behavioral
        # footprint, so the image's greatest simulation may relate
        # cross-action states that pa_simulates keeps apart.  Pinned pair
        # found by random search.
        P1 = PA(("a", "b"), ("q0", "q1"), "q0",
                [("q0", {("a", "q1"): Fraction(1, 6),
                         ("b", "q0"): Fraction(1, 3),
                         ("b", "q1"): Fraction(1, 2)})])
        P2 = PA(("a", "b"), ("q0", "q1"), "q0",
                [("q0", {("a", "q1"): Fraction(1, 6),
                         ("a", "q0"): Fraction(5, 6)}),
                 ("q0", {("b", "q1"): Fraction(1)})])
        assert pa_simulates(P1, P2) is None
        assert simulates(pa_to_ma(P1, act_var="a1", state_var="s1"),
                         pa_to_ma(P2, act_var="a2", state_var="s2")) is not None

    def test_composition_is_not_preserved(self):
        # E1 composes the images: the alphabets are disjoint, so the product
        # automaton deadlocks.  E2 embeds the scheduled composition, which
        # keeps electing the right-hand component forever.
        Pd1 = PA(("a",), ("q0", "q1"), "q0", [("q0", {("a", "q1"): 1})])
        Pd2 = PA(("b",), ("r0",), "r0", [("r0", {("b", "r0"): 1})])
        E1 = ma_compose(pa_to_ma(Pd1, act_var="a1", state_var="s1"),
                        pa_to_ma(Pd2, act_var="a2", state_var="s2"))
        E2 = pa_to_ma(pa_compose(Pd1, Pd2, HALF))
        assert simulates(E2, E1) is None
        assert simulates(E1, E2) is not None
        assert not sim_equivalent(E1, E2)


class TestSpaToPa:
    def test_embedding_simulates_itself(self):
        rng = random.Random(9006)
        P = rand_spa(rng)
        G = spa_embed_pa(P)
        assert pa_simulates(G, G) is not None


class TestRefinement:
    @pytest.mark.parametrize("kind", ["spa", "pa"])
    def test_relations_equal_the_naive_fixpoint(self, kind):
        rng = random.Random(9011)
        draw, ok, sim, bisim = {
            "spa": (rand_spa, spa_ok, spa_simulates, spa_bisimilar),
            "pa": (rand_pa, pa_ok, pa_simulates, pa_bisimilar),
        }[kind]
        verdicts = set()
        for _ in range(60):
            P1, P2 = draw(rng, nq=rng.randint(2, 4)), draw(rng, nq=rng.randint(2, 4))
            if rng.random() < 0.3:
                P2 = P1
            pairs = [(a, b) for a in P1.states for b in P2.states]
            initial = (P1.initial, P2.initial)
            fwd = naive_greatest(pairs, ok(P1, P2))
            both = naive_greatest(pairs, both_ways(ok(P1, P2), ok(P2, P1)))
            for got, want in ((sim(P1, P2), fwd), (bisim(P1, P2), both)):
                assert got == (want if initial in want else None)
            verdicts.add((initial in fwd, initial in both))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_spa_checks_agree_with_pa_checks_on_the_embedding(self):
        # spa_embed_pa keeps the states, so the greatest relations must be
        # equal pair for pair, not only in their verdicts
        rng = random.Random(9012)
        kinds = set()
        for _ in range(80):
            P1 = rand_spa(rng, nq=rng.randint(2, 4))
            P2 = P1 if rng.random() < 0.25 else rand_spa(rng, nq=rng.randint(2, 4))
            G1, G2 = spa_embed_pa(P1), spa_embed_pa(P2)
            sim, bisim = spa_simulates(P1, P2), spa_bisimilar(P1, P2)
            assert pa_simulates(G1, G2) == sim
            assert pa_bisimilar(G1, G2) == bisim
            kinds.add((P1 is P2, sim is not None, bisim is not None))
        assert kinds == {(True, True, True), (False, True, True),
                         (False, True, False), (False, False, False)}

    @pytest.mark.parametrize("sim", [spa_simulates, spa_bisimilar,
                                     pa_simulates, pa_bisimilar])
    def test_candidate_relation_is_capped_before_building(self, monkeypatch, sim):
        P = rand_spa(random.Random(9013), nq=3)
        if sim in (pa_simulates, pa_bisimilar):
            P = spa_embed_pa(P)
        monkeypatch.setattr(core, "MAX_OUTCOMES", 9)
        assert sim(P, P) is not None
        monkeypatch.setattr(core, "MAX_OUTCOMES", 8)
        with pytest.raises(CapExceeded, match="9 state pairs"):
            sim(P, P)

    def test_bisimulation_is_stronger_than_mutual_simulation(self):
        P1, P2 = sim_equivalent_not_bisimilar()
        assert spa_sim_equivalent(P1, P2)
        assert spa_bisimilar(P1, P2) is None
        G1, G2 = spa_embed_pa(P1), spa_embed_pa(P2)
        assert pa_simulates(G1, G2) is not None and pa_simulates(G2, G1) is not None
        assert pa_bisimilar(G1, G2) is None
        M1, M2 = spa_to_ma(P1, var="x1"), spa_to_ma(P2, var="x2")
        assert sim_equivalent(M1, M2)
        assert bisimilar(M1, M2) is None


class TestJsonRoundTrips:
    def test_plain_labels(self):
        rng = random.Random(9007)
        P = rand_spa(rng)
        assert spa_from_json(spa_to_json(P)).transitions == P.transitions
        G = rand_pa(rng)
        assert pa_from_json(pa_to_json(G)).transitions == G.transitions

    def test_state_labels_are_uniquified_strings(self):
        rng = random.Random(9008)
        M = rand_ma(rng, "u")
        img = ma_to_spa(M)
        doc = spa_to_json(img)
        assert all(isinstance(s, str) for s in doc["states"])
        assert len(set(doc["states"])) == len(doc["states"])
        rt = spa_from_json(doc)
        assert spa_sim_equivalent(img, rt)

    def test_missing_fields_are_typed(self):
        spa = spa_to_json(rand_spa(random.Random(9009)))
        del spa["states"]
        with pytest.raises(MalformedSystem, match="missing field 'states'"):
            spa_from_json(spa)
        pa = pa_to_json(rand_pa(random.Random(9010)))
        del pa["transitions"]
        with pytest.raises(MalformedSystem, match="missing field 'transitions'"):
            pa_from_json(pa)
