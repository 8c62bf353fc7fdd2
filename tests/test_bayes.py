import itertools
import random
from fractions import Fraction

import pytest

from rbmx import Domain, MixedSystem, State, compose, nil_system
from rbmx.bayes import (
    BayesianNetwork,
    MixedKernel,
    bayes_split,
    bn_equivalent_p,
    bn_from_json,
    bn_sample,
    bn_score,
    bn_to_json,
    bn_validate,
    conditional,
    kernel_from_system,
    kernel_to_system,
    point_system,
    seq_compose,
)
from rbmx.core import EMPTY_STATE, all_states, outer
from rbmx.errors import (
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NotIncremental,
    VariableSetMismatch,
)

from .oracles import naive_point_outer, rand_system

BIT = Domain("bit", (0, 1))


def coin_system(p=Fraction(1, 2)):
    return MixedSystem(
        {"h": p, "t": 1 - p},
        [("x", BIT)],
        {"h": [State({"x": 1})], "t": [State({"x": 0})]},
    )


def neg_kernel():
    """y = 1 - x as a table kernel."""
    table = {
        State({"x": v}): MixedSystem(
            {"o": Fraction(1)}, [("y", BIT)], {"o": [State({"y": 1 - v})]}
        )
        for v in (0, 1)
    }
    return MixedKernel([("x", BIT)], [("y", BIT)], table, name="neg")


class TestKernel:
    def test_in_out_must_be_disjoint(self):
        with pytest.raises(VariableSetMismatch):
            MixedKernel([("x", BIT)], [("x", BIT)], {})

    def test_variables_are_validated_like_a_system(self):
        with pytest.raises(MalformedSystem, match="declared twice"):
            MixedKernel([("x", BIT), ("x", BIT)], [("y", BIT)], {})
        with pytest.raises(MalformedSystem, match="two different value lists"):
            MixedKernel([], [("x", BIT), ("y", Domain("bit", (0, 1, 2)))], {})

    def test_apply_validates_input_names(self):
        K = neg_kernel()
        with pytest.raises(VariableSetMismatch):
            K.apply(State({"z": 0}))
        with pytest.raises(VariableSetMismatch):
            K.apply(State({}))

    def test_apply_validates_output_vars(self):
        bad = MixedKernel(
            [("x", BIT)],
            [("y", BIT)],
            lambda q: coin_system(),  # produces x, not y
        )
        with pytest.raises(VariableSetMismatch):
            bad.apply(State({"x": 0}))

    def test_callable_mapping_is_cached(self):
        calls = []

        def fn(q):
            calls.append(q)
            return MixedSystem(
                {"o": Fraction(1)}, [("y", BIT)], {"o": [State({"y": q["x"]})]}
            )

        K = MixedKernel([("x", BIT)], [("y", BIT)], fn)
        K.apply(State({"x": 1}))
        K.apply(State({"x": 1}))
        assert len(calls) == 1

    def test_inputs_enumerates_the_domain(self):
        K = neg_kernel()
        assert list(K.inputs()) == [State({"x": 0}), State({"x": 1})]

    def test_system_round_trip(self):
        S = coin_system()
        K = kernel_from_system(S, name="c")
        assert K.in_names == ()
        assert kernel_to_system(K) is S
        with pytest.raises(VariableSetMismatch):
            kernel_to_system(neg_kernel())


class TestPointSystem:
    def test_forces_the_state(self):
        P = point_system([("x", BIT)], State({"x": 1}))
        assert outer(P, lambda q: q["x"] == 1) == 1
        assert outer(P, lambda q: q["x"] == 0) == 0

    def test_empty_is_nil(self):
        from rbmx import equivalent

        assert equivalent(point_system([], EMPTY_STATE), nil_system())


class TestConditional:
    def test_reachable_input_gives_conditional_law(self):
        # joint: x ~ 1/4-coin, y = x
        S = MixedSystem(
            {"a": Fraction(1, 4), "b": Fraction(3, 4)},
            [("x", BIT), ("y", BIT)],
            {"a": [State({"x": 1, "y": 1})], "b": [State({"x": 0, "y": 0})]},
        )
        K = conditional(S, ["x"])
        assert K.in_names == ("x",)
        assert K.out_names == ("y",)
        S1 = K.apply(State({"x": 1}))
        assert outer(S1, lambda q: q["y"] == 1) == 1

    def test_unreachable_input_is_inconsistent(self):
        S = MixedSystem(
            {"a": Fraction(1)},
            [("x", BIT), ("y", BIT)],
            {"a": [State({"x": 0, "y": 0})]},
        )
        K = conditional(S, ["x"])
        out = K.apply(State({"x": 1}))
        from rbmx import consistency

        flag, _ = consistency(out)
        assert not flag


class TestBayesSplit:
    def test_split_scores_like_the_system(self):
        rng = random.Random(1111)
        for _ in range(30):
            S = rand_system(rng, max_omega=5, max_vars=2)
            whole = BayesianNetwork([kernel_from_system(S, name="joint")])
            names = list(S.var_names)
            for r in range(len(names) + 1):
                for Y in itertools.combinations(names, r):
                    N = bayes_split(S, Y)
                    assert not bn_validate(N)
                    for q in all_states(S.vars):
                        got = bn_score(N, q).value
                        assert got == bn_score(whole, q).value
                        assert got == naive_point_outer(S, q)

    def test_split_networks_for_different_cuts_agree(self):
        S = MixedSystem(
            {"a": Fraction(1, 3), "b": Fraction(2, 3)},
            [("x", BIT), ("y", BIT)],
            {"a": [State({"x": 1, "y": 0}), State({"x": 1, "y": 1})],
             "b": [State({"x": 0, "y": 0})]},
        )
        assert bn_equivalent_p(bayes_split(S, ["x"]), bayes_split(S, ["y"]))

    def test_inconsistent_system_rejected(self):
        S = MixedSystem({"a": Fraction(1)}, [("x", BIT)], {"a": []})
        with pytest.raises(InconsistentSystem):
            bayes_split(S, ["x"])


class TestSeqCompose:
    def test_chains_and_validates(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        assert not bn_validate(N)
        assert bn_score(N, State({"x": 1, "y": 0})).value == Fraction(1, 2)
        assert bn_score(N, State({"x": 1, "y": 1})).value == 0

    def test_missing_upstream_variable(self):
        with pytest.raises(VariableSetMismatch):
            seq_compose(kernel_from_system(coin_system(), name="prior"),
                        MixedKernel([("zz", BIT)], [("y", BIT)],
                                    lambda q: point_system([("y", BIT)],
                                                           State({"y": 0}))))


class TestValidate:
    def test_duplicate_producer(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c1"),
                             kernel_from_system(coin_system(), name="c2")])
        assert any("output by both" in p for p in bn_validate(N))

    def test_cycle_through_extra_edges(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c")],
                            extra_in={"c": {"x"}})
        assert any("cycle" in p for p in bn_validate(N))

    def test_source_with_producer(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c")],
                            sources={"x"})
        assert any("source" in p for p in bn_validate(N))


def copy_chain(n):
    """x0 ~ coin, then x_i = x_(i-1) for i < n: a chain of n kernels."""
    coin = MixedSystem({"h": Fraction(1, 2), "t": Fraction(1, 2)}, [("x0", BIT)],
                       {"h": [State({"x0": 1})], "t": [State({"x0": 0})]})
    kernels = [kernel_from_system(coin, name="k0")]
    for i in range(1, n):
        src, dst = "x%d" % (i - 1), "x%d" % i
        kernels.append(MixedKernel(
            [(src, BIT)], [(dst, BIT)],
            lambda q, _src=src, _dst=dst: point_system([(_dst, BIT)],
                                                       State({_dst: q[_src]})),
            name="k%d" % i))
    return kernels


class TestValidateLongChains:
    def test_long_chain_is_well_formed(self):
        assert bn_validate(BayesianNetwork(copy_chain(1500))) == []

    def test_cycle_closing_a_long_chain_is_found(self):
        N = BayesianNetwork(copy_chain(1500), extra_in={"k0": {"x1499"}})
        assert any("cycle" in p for p in bn_validate(N))


class TestScore:
    def test_factor_trace(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        sc = bn_score(N, State({"x": 0, "y": 1}))
        assert sc.value == Fraction(1, 2)
        assert [name for name, _ in sc.factors] == ["prior", "neg"]
        assert sc.factors[0][1] == Fraction(1, 2)
        assert sc.factors[1][1] == 1

    def test_wrong_variable_set(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c")])
        with pytest.raises(VariableSetMismatch):
            bn_score(N, State({"zz": 0}))

    def test_inconsistent_kernel_needs_zero_cover(self):
        # tail kernel is inconsistent at x=1; the x=1 prior weight is 0, so
        # scoring x=1 is tolerated and yields 0; a positive-weight version
        # of the same network raises instead.
        dead = MixedSystem({"o": Fraction(1)}, [("y", BIT)], {"o": []})
        live = point_system([("y", BIT)], State({"y": 0}))
        tail = MixedKernel([("x", BIT)], [("y", BIT)],
                           {State({"x": 0}): live, State({"x": 1}): dead},
                           name="tail")
        dirac = MixedSystem({"h": Fraction(1), "t": Fraction(0)},
                            [("x", BIT)],
                            {"h": [State({"x": 0})], "t": [State({"x": 1})]})
        N0 = seq_compose(kernel_from_system(dirac, name="prior"), tail)
        assert bn_score(N0, State({"x": 1, "y": 0})).value == 0
        N1 = seq_compose(kernel_from_system(coin_system(), name="prior"), tail)
        with pytest.raises(InconsistentSystem):
            bn_score(N1, State({"x": 1, "y": 0}))


class TestSampleBn:
    def test_respects_the_equations(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        rng = random.Random(5)
        draws = [bn_sample(N, {}, rng) for _ in range(40)]
        assert all(q["y"] == 1 - q["x"] for q in draws)
        assert {q["x"] for q in draws} == {0, 1}

    def test_deterministic_under_seed(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        a = [bn_sample(N, {}, random.Random(77)) for _ in range(20)]
        b = [bn_sample(N, {}, random.Random(77)) for _ in range(20)]
        assert a == b

    def test_round_that_assigns_nothing_is_typed(self):
        # bn_validate flags the two producers of x; sampling must still end
        # in a typed error when the second one runs in a round of its own
        y0 = MixedSystem({"o": Fraction(1)}, [("y", BIT)], {"o": [State({"y": 0})]})
        copy = MixedKernel([("y", BIT)], [("x", BIT)],
                           lambda q: point_system([("x", BIT)], State({"x": q["y"]})),
                           name="copy")
        N = BayesianNetwork([kernel_from_system(coin_system(), name="px"),
                             kernel_from_system(y0, name="py"), copy])
        with pytest.raises(NotIncremental):
            bn_sample(N, {}, random.Random(0))

    def test_init_must_cover_min_vars(self):
        N = BayesianNetwork([neg_kernel()])
        with pytest.raises(MissingInit):
            bn_sample(N, {}, random.Random(0))
        q = bn_sample(N, {"x": 0}, random.Random(0))
        assert q == State({"x": 0, "y": 1})


class TestBnJson:
    def test_round_trip_scores_identically(self):
        rng = random.Random(2222)
        for _ in range(15):
            S = rand_system(rng, max_omega=4, max_vars=2)
            N = bayes_split(S, [S.var_names[0]])
            M = bn_from_json(bn_to_json(N))
            assert bn_equivalent_p(N, M)

    def test_missing_field_and_unknown_variable_are_typed(self):
        doc = bn_to_json(seq_compose(kernel_from_system(coin_system(), name="prior"),
                                     neg_kernel()))
        with pytest.raises(MalformedSystem, match="missing field 'kernels'"):
            bn_from_json({k: v for k, v in doc.items() if k != "kernels"})
        doc["kernels"][0]["out"] = ["nosuch"]
        with pytest.raises(MalformedSystem, match="nosuch"):
            bn_from_json(doc)
