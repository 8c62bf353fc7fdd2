import random
from fractions import Fraction

import pytest

from rbmx import Domain, MixedSystem, State, compose
from rbmx.bayes import bn_score, bn_validate
from rbmx.core import all_states
from rbmx.errors import DomainMismatch, MalformedSystem, NotATree
from rbmx.factorgraph import (
    dot_export,
    factor_graph,
    fg_from_json,
    fg_to_bn,
    fg_to_json,
    is_tree,
)

from .oracles import naive_point_outer, rand_tree_fg

BIT = Domain("bit", (0, 1))


def pair_system(a, b, flip=False):
    """Uniform over {a=b} (or {a!=b} when flip), exposing both variables."""
    rel = {}
    pi = {}
    k = 0
    for va in (0, 1):
        vb = 1 - va if flip else va
        o = "o%d" % k
        k += 1
        pi[o] = Fraction(1, 2)
        rel[o] = [State({a: va, b: vb})]
    return MixedSystem((list(pi), pi), [(a, BIT), (b, BIT)], rel)


class TestStructure:
    def test_edges_and_variables(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z")],
                         ["A", "B"])
        assert g.variables == ("x", "y", "z")
        assert ("A", "x") in g.edges and ("B", "z") in g.edges
        assert ("A", "z") not in g.edges

    def test_default_labels(self):
        g = factor_graph([pair_system("x", "y")])
        assert g.labels == ("S0",)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            factor_graph([pair_system("x", "y"), pair_system("y", "z")],
                         ["A", "A"])

    def test_domain_clash_rejected(self):
        three = Domain("three", (0, 1, 2))
        S1 = pair_system("x", "y")
        S2 = MixedSystem({"o": Fraction(1)}, [("y", three)],
                         {"o": [State({"y": 2})]})
        with pytest.raises(DomainMismatch):
            factor_graph([S1, S2])


class TestIsTree:
    def test_chain_is_tree(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z")])
        assert is_tree(g)

    def test_cycle_is_not(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z"),
                          pair_system("z", "x")])
        assert not is_tree(g)

    def test_forest_is_not_a_tree(self):
        g = factor_graph([pair_system("x", "y"), pair_system("u", "v")])
        assert not is_tree(g)

    def test_random_trees(self):
        rng = random.Random(31)
        for _ in range(20):
            assert is_tree(rand_tree_fg(rng, rng.randint(1, 5)))


class TestToBn:
    def test_scores_match_composition_for_every_root(self):
        rng = random.Random(32)
        for _ in range(8):
            g = rand_tree_fg(rng, 3)
            joint = compose(*[g.systems[lab] for lab in g.labels]) \
                if len(g.labels) > 1 else g.systems[g.labels[0]]
            from rbmx.core import consistency

            if not consistency(joint)[0]:
                continue
            for root in g.labels:
                N = fg_to_bn(g, root=root)
                assert not bn_validate(N)
                for q in all_states(joint.vars):
                    assert bn_score(N, q).value == naive_point_outer(joint, q)

    def test_forest_scores_like_the_product(self):
        g = factor_graph([pair_system("x", "y"), pair_system("u", "v", flip=True)],
                         ["L", "R"])
        N = fg_to_bn(g)
        joint = compose(g.systems["L"], g.systems["R"])
        for q in all_states(joint.vars):
            assert bn_score(N, q).value == naive_point_outer(joint, q)

    def test_cycle_raises(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z"),
                          pair_system("z", "x")])
        with pytest.raises(NotATree):
            fg_to_bn(g)

    def test_unknown_root(self):
        g = factor_graph([pair_system("x", "y")])
        with pytest.raises(NotATree):
            fg_to_bn(g, root="nope")


class TestExports:
    def test_dot(self):
        g = factor_graph([pair_system("x", "y")], ["A"])
        dot = dot_export(g)
        assert dot.startswith("graph factor_graph {")
        assert '"A" [shape=box];' in dot
        assert '"x" [shape=ellipse];' in dot
        assert '"A" -- "x";' in dot
        assert dot.rstrip().endswith("}")

    def test_json(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z")],
                         ["A", "B"])
        doc = fg_to_json(g)
        assert set(doc["systems"]) == {"A", "B"}
        assert doc["tree"] is True
        assert ["A", "x"] in doc["edges"]

    def test_json_round_trip(self):
        g = factor_graph([pair_system("x", "y"), pair_system("y", "z")],
                         ["A", "B"])
        h = fg_from_json(fg_to_json(g))
        assert h.labels == g.labels
        assert h.edges == g.edges
        assert fg_to_json(h) == fg_to_json(g)

    @pytest.mark.parametrize("doc", [
        {},
        {"systems": [{"omega": []}]},
        {"systems": 3},
        {"systems": {"A": {"omega": []}}},
    ])
    def test_bad_documents_are_typed(self, doc):
        with pytest.raises(MalformedSystem, match="bad (factor graph|system) document"):
            fg_from_json(doc)
