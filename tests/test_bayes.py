import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from rbmx import Domain, MixedSystem, State, Var, bayes, compose, nil_system
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
from rbmx.core import (EMPTY_STATE, all_states, conditioned, consistency_weight, norm_vars, outer,
                       system_to_json)
from rbmx.errors import (
    DomainMismatch,
    InconsistentSystem,
    MalformedSystem,
    MissingInit,
    NotIncremental,
    RbmxError,
    UnknownVariable,
    VariableSetMismatch,
)
from rbmx.factorgraph import fg_to_bn
from rbmx.rblang import elaborate_graph, parse

from .oracles import (
    apply_table,
    chain,
    consistent_tree_fgs,
    dfs_cycle,
    naive_point_outer,
    off_domain_states,
    outer_bn_score,
    rand_network,
    rand_system,
    rand_system_over,
    rand_wiring,
    round_sample,
    score_outcome,
)

BIT = Domain("bit", (0, 1))


def tied_program(rng):
    """A seeded static chain over one domain t: z0 ~ init0, then each z_i
    drawn from step or hop, two parameterized distributions over t, at an
    earlier z_j: mostly bare (a tied kernel), sometimes through inc (the
    kernel's own tables), and sometimes at y, a variable of domain u with
    t's values under another name (not tied); w = f(z_last).  Rows may
    weigh some values 0."""
    size = rng.randint(2, 3)
    vals = range(size)

    def dist():
        w = [rng.randint(0, 3) for _ in vals]
        w[rng.randrange(size)] += 1
        return "{ %s }" % ", ".join("%d : %d/%d" % (v, x, sum(w)) for v, x in zip(vals, w))

    k = rng.randint(2, 4)
    names = ["z%d" % i for i in range(k)]
    values = ", ".join(map(str, vals))
    lines = ["domain t = { %s }" % values, "domain u = { %s }" % values,
             "domain bool = { F, T }", "var %s : t" % ", ".join(names), "var y : u",
             "var w : bool", "dist init0 : t " + dist()]
    lines += ["dist %s(t) : t { %s }" % (d, ", ".join("%d -> %s" % (c, dist()) for c in vals))
              for d in ("step", "hop")]
    lines += ["func inc : t -> t { %s }" % ", ".join("%d -> %d" % (c, (c + 1) % size)
                                                     for c in vals),
              "func f : t -> bool { %s }" % ", ".join("%d -> %s" % (c, rng.choice("FT"))
                                                      for c in vals),
              "|| z0 ~ init0", "|| y ~ Uniform(u)"]
    for i in range(1, k):
        arg = rng.choice(["z%d" % rng.randrange(i)] * 4 + ["inc(z%d)" % rng.randrange(i), "y"])
        lines.append("|| z%d ~ %s(%s)" % (i, rng.choice(("step", "hop")), arg))
    lines.append("|| w = f(z%d)" % (k - 1))
    return "\n".join(lines) + "\n"


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

    def test_a_table_kernel_refuses_an_input_it_lacks(self):
        table = {State({"x": 0}): copy_mapping("dict")[State({"x": 0})]}
        K = MixedKernel([("x", BIT)], [("y", BIT)], table, name="k")
        with pytest.raises(VariableSetMismatch, match=re.escape(
                "kernel k has no entry for State(x=1)")):
            K.apply({"x": 1})

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


def copy_mapping(kind, out=BIT):
    """y = x, for x over BIT and y over out, as a table or a function."""
    def fn(q):
        return point_system([("y", out)], State({"y": out.values[q["x"]]}))
    return fn if kind == "callable" else {q: fn(q) for q in all_states([("x", BIT)])}


class TestKernelChecks:
    """A kernel checks inputs and systems by a mixed automaton's rules."""

    @pytest.mark.parametrize("kind", ["dict", "callable"])
    def test_an_input_of_another_type_is_refused_even_after_its_equal(self, kind):
        # State(x=True) == State(x=1), so a table lookup alone would serve it
        K = MixedKernel([("x", BIT)], [("y", BIT)], copy_mapping(kind), name="k")
        words = "input of kernel k value True outside domain of 'x'"
        with pytest.raises(VariableSetMismatch, match=words):
            K.apply({"x": True})
        assert K.apply({"x": 1}).rel["1"] == (State({"y": 1}),)
        with pytest.raises(VariableSetMismatch, match=words):
            K.apply({"x": True})

    def test_sampling_refuses_an_init_of_another_type(self):
        N = BayesianNetwork([MixedKernel([("x", BIT)], [("y", BIT)], copy_mapping("dict"))])
        assert bn_sample(N, {"x": 1}, random.Random(0)) == State({"x": 1, "y": 1})
        with pytest.raises(VariableSetMismatch, match="value True outside domain of 'x'"):
            bn_sample(N, {"x": True}, random.Random(0))

    @pytest.mark.parametrize("kind", ["dict", "callable"])
    def test_a_value_that_cannot_be_hashed_is_refused(self, kind):
        K = MixedKernel([("x", BIT)], [("y", BIT)], copy_mapping(kind), name="k")
        with pytest.raises(VariableSetMismatch,
                           match=re.escape("input of kernel k value [1] outside domain of 'x'")):
            K.apply({"x": [1]})

    def test_a_score_at_a_value_that_cannot_be_hashed(self):
        # at an input it is refused, at an output it scores 0
        N = elaborate_graph(parse(chain(3)))
        q = dict({"z%d" % i: 0 for i in range(3)}, w=True)
        with pytest.raises(VariableSetMismatch,
                           match=re.escape("input of kernel k[z1] value [1] outside domain")):
            bn_score(N, dict(q, z0=[1]))
        assert bn_score(N, dict(q, w=[1])).value == 0
        assert bn_score(N, q).value > 0

    @pytest.mark.parametrize("kind", ["dict", "callable"])
    @pytest.mark.parametrize("values", [(False, True), (0, 1, 2)])
    def test_a_system_over_another_domain_is_refused(self, kind, values):
        mapping = copy_mapping(kind, Domain("bit", values))
        words = re.escape("system of kernel k at State(x=0) has 'y' over [%s], kernel has it "
                          "over [0, 1]" % ", ".join(map(repr, values)))
        with pytest.raises(DomainMismatch, match=words):
            MixedKernel([("x", BIT)], [("y", BIT)], mapping, name="k").apply({"x": 0})

    @pytest.mark.parametrize("values", [[False, True], [0, 1, 2]])
    def test_a_network_document_with_a_kernel_over_another_domain_is_refused(self, values):
        doc = bn_to_json(seq_compose(kernel_from_system(coin_system(), name="prior"),
                                     neg_kernel()))
        for _, sdoc in next(kd for kd in doc["kernels"] if kd["name"] == "neg")["table"]:
            sdoc["domains"] = {"bit": values}
            for _, binding in sdoc["rel"]:
                binding["y"] = values[binding["y"]]
        with pytest.raises(DomainMismatch, match="system of kernel neg at State"):
            bn_from_json(doc)

    @pytest.mark.parametrize("kind", ["dict", "callable"])
    def test_each_system_is_checked_once(self, kind, monkeypatch):
        checked = []
        check_vars = bayes.check_vars
        monkeypatch.setattr(bayes, "check_vars",
                            lambda vars, S, *rest: checked.append(S) or check_vars(vars, S, *rest))
        K = MixedKernel([("x", BIT)], [("y", BIT)], copy_mapping(kind))
        assert len(checked) == (2 if kind == "dict" else 0)
        for _ in range(3):
            systems = [K.apply(q) for q in K.inputs()]
            assert [K.score_table((v,)) for v in (0, 1)]
        assert checked == systems


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


    def test_an_unknown_variable_is_refused(self):
        with pytest.raises(UnknownVariable,
                           match=re.escape("not variables of the system: ['zz']")):
            conditional(coin_system(), ["x", "zz"])


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

    def test_networks_over_other_variables_or_scores_are_not_equivalent(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        biased = seq_compose(kernel_from_system(coin_system(Fraction(1, 3)), name="prior"),
                             neg_kernel())
        assert bn_equivalent_p(N, N) and not bn_equivalent_p(N, biased)
        with pytest.raises(VariableSetMismatch, match=re.escape(
                "networks differ in variables: ['x', 'y'] vs ['x']")):
            bn_equivalent_p(N, BayesianNetwork([kernel_from_system(coin_system())]))


class TestSeqCompose:
    def test_chains_and_validates(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        assert not bn_validate(N)
        assert bn_score(N, State({"x": 1, "y": 0})).value == Fraction(1, 2)
        assert bn_score(N, State({"x": 1, "y": 1})).value == 0

    def test_a_minimal_variable_of_the_first_network_feeds_the_second(self):
        # x is minimal in the first network, which produces only y
        copy = MixedKernel([("x", BIT)], [("z", BIT)],
                           lambda q: point_system([("z", BIT)], State({"z": q["x"]})),
                           name="copy")
        N = seq_compose(BayesianNetwork([neg_kernel()]), copy)
        assert N.min_vars() == ("x",) and bn_validate(N) == []
        assert bn_sample(N, {"x": 1}, random.Random(0)) == State({"x": 1, "y": 0, "z": 1})

    def test_two_producers_of_one_variable(self):
        with pytest.raises(VariableSetMismatch, match="^variable 'x' is output by both a and b$"):
            seq_compose(kernel_from_system(coin_system(), name="a"),
                        kernel_from_system(coin_system(), name="b"))

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

    def test_duplicate_kernel_names(self):
        with pytest.raises(VariableSetMismatch,
                           match=re.escape("duplicate kernel names: ['neg', 'neg']")):
            BayesianNetwork([neg_kernel(), neg_kernel()])

    def test_cycle_through_extra_edges(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c")],
                            extra_in={"c": {"x"}})
        assert any("cycle" in p for p in bn_validate(N))

    def test_source_with_producer(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c")],
                            sources={"x"})
        assert any("source" in p for p in bn_validate(N))

    def test_an_extra_input_outside_the_network_is_reported(self):
        N = BayesianNetwork([neg_kernel()], extra_in={"neg": {"ghost"}})
        assert bn_validate(N) == ["extra input 'ghost' of kernel neg is not a network variable"]
        with pytest.raises(NotIncremental, match="extra input 'ghost'"):
            bn_sample(N, {"x": 0}, random.Random(0))

    def test_an_extra_input_of_no_kernel_is_reported(self):
        N = BayesianNetwork([neg_kernel()], extra_in={"nosuch": {"x"}})
        assert bn_validate(N) == ["extra inputs name 'nosuch', no kernel of the network"]
        with pytest.raises(NotIncremental, match="'nosuch', no kernel"):
            bn_sample(N, {"x": 0}, random.Random(0))

    def test_cycle_verdicts_equal_the_dfs(self):
        rng = random.Random(2701)
        cyclic = 0
        for _ in range(3000):
            N = rand_wiring(rng, rng.randint(1, 7))
            want = dfs_cycle(N)
            assert any("cycle" in p for p in bn_validate(N)) == want, N.kernels
            cyclic += want
        assert 500 < cyclic < 2500, cyclic


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

    def test_the_cycle_of_a_long_chain_is_named_briefly(self):
        N = BayesianNetwork(copy_chain(1500), extra_in={"k0": {"x1499"}})
        [problem] = bn_validate(N)
        assert problem.startswith("graph has a cycle through kernels [")
        assert "..." in problem and len(problem) < 150


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


class TestCompiledScores:
    """bn_score reads per-input tables; outer_bn_score recomputes each
    factor with outer.  Both must give the same Score, or the same error."""

    def assert_agree(self, N, states):
        """The oracle's outcome at each state, after checking bn_score's."""
        wants = []
        for q in states:
            want = score_outcome(outer_bn_score, N, q)
            assert score_outcome(bn_score, N, q) == want, q
            wants.append(want)
        return wants

    def test_random_networks(self):
        rng = random.Random(4242)
        seen = {"positive": 0, "zero": 0, "tolerated": 0, "raised": 0, "no entry": 0}
        for _ in range(120):
            N = rand_network(rng, rng.randint(1, 4))
            states = list(all_states(N.vars)) + list(off_domain_states(N))
            for got in self.assert_agree(N, states):
                if got[0] is InconsistentSystem:
                    seen["raised"] += 1
                elif got[0] is VariableSetMismatch:
                    seen["no entry"] += 1
                elif any(f is None for _, f in got[0].factors):
                    seen["tolerated"] += 1
                else:
                    seen["positive" if got[0].value else "zero"] += 1
        assert all(seen.values()), seen

    def test_tree_graphs_at_every_root(self):
        # the graphs of acceptance criterion 4
        for g, _ in consistent_tree_fgs(random.Random(1004), 18):
            for root in g.labels:
                N = fg_to_bn(g, root=root)
                self.assert_agree(N, list(all_states(N.vars)) + list(off_domain_states(N)))

    def test_each_input_is_compiled_once(self):
        calls = []

        def copy(q):
            calls.append(q)
            return point_system([("y", BIT)], State({"y": q["x"]}))

        N = seq_compose(kernel_from_system(coin_system(), name="prior"),
                        MixedKernel([("x", BIT)], [("y", BIT)], copy, name="copy"))
        states = list(all_states(N.vars))
        assert [bn_score(N, q).value for q in states] == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
        assert sorted(calls, key=repr) == [State({"x": 0}), State({"x": 1})]
        assert bn_equivalent_p(N, N)
        assert len(calls) == 2
        # an input outside the domain is refused at the kernel's input each
        # time, before the kernel's function sees it
        for _ in range(2):
            with pytest.raises(VariableSetMismatch,
                               match="input of kernel copy value 5 outside domain of 'x'"):
                bn_score(N, State({"x": 5, "y": 0}))
        assert len(calls) == 2
        assert bn_score(N, State({"x": 0, "y": 5})).value == 0

    def test_a_kernel_shared_by_two_networks(self):
        # K reads (b, d) and writes (c, e): among N1's variables b c d e its
        # keys sit at positions (0, 2) and (1, 3), among N2's a b c cc d e at
        # (1, 4) and (2, 5); both read and fill K's one set of tables
        rng = random.Random(15)
        ins, outs = norm_vars([("b", BIT), ("d", BIT)]), norm_vars([("c", BIT), ("e", BIT)])
        K = MixedKernel(ins, outs, {q: rand_system_over(rng, outs) for q in all_states(ins)},
                        name="K")

        def prior(vars, name):
            return kernel_from_system(
                rand_system_over(rng, norm_vars(vars), allow_empty_rows=False), name=name)

        N1 = BayesianNetwork([prior(ins, "head"), K])
        tail = MixedKernel([("c", BIT)], [("cc", BIT)],
                           {q: rand_system_over(rng, norm_vars([("cc", BIT)]))
                            for q in all_states(norm_vars([("c", BIT)]))}, name="tail")
        N2 = BayesianNetwork([prior(ins + (("a", BIT),), "head"), K, tail])
        assert N1.var_names == ("b", "c", "d", "e")
        assert N2.var_names == ("a", "b", "c", "cc", "d", "e")
        positive = 0
        for N in (N1, N2, N1):
            for got in self.assert_agree(N, all_states(N.vars)):
                positive += got[0] is not InconsistentSystem and got[0].value > 0
        assert positive

    def test_an_inconsistent_input_gives_the_same_outcome_every_time(self):
        dead = MixedSystem({"o": Fraction(1)}, [("y", BIT)], {"o": []})
        live = point_system([("y", BIT)], State({"y": 0}))
        tail = MixedKernel([("x", BIT)], [("y", BIT)],
                           {State({"x": 0}): live, State({"x": 1}): dead}, name="tail")
        dirac = MixedSystem({"h": Fraction(1), "t": Fraction(0)}, [("x", BIT)],
                            {"h": [State({"x": 0})], "t": [State({"x": 1})]})
        N0 = seq_compose(kernel_from_system(dirac, name="prior"), tail)
        N1 = seq_compose(kernel_from_system(coin_system(), name="prior"), tail)
        q = State({"x": 1, "y": 0})
        for _ in range(2):
            sc = bn_score(N0, q)
            assert sc.value == 0
            assert sc.factors == (("prior", 0), ("tail", None))
            with pytest.raises(InconsistentSystem, match="kernel tail is inconsistent"):
                bn_score(N1, q)

    def test_an_input_apply_rejects_raises_on_every_score(self):
        # at x=1 the kernel's system is over the wrong variable, so apply
        # raises there, and no table is kept for that input
        def fn(q):
            return point_system([("y" if q["x"] == 0 else "zz", BIT)],
                                State({"y" if q["x"] == 0 else "zz": 0}))

        N = seq_compose(kernel_from_system(coin_system(), name="prior"),
                        MixedKernel([("x", BIT)], [("y", BIT)], fn, name="odd"))
        assert bn_score(N, State({"x": 0, "y": 0})).value == Fraction(1, 2)
        words = re.escape("system of kernel odd at State(x=1) has variables ['zz']")
        for _ in range(2):
            with pytest.raises(VariableSetMismatch, match=words):
                bn_score(N, State({"x": 1, "y": 0}))
        self.assert_agree(N, all_states(N.vars))

    def test_off_domain_outputs_keep_no_entry(self):
        # an output value outside its domain scores 0 and leaves the
        # network's entries as they were, however many of them are scored
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        states = list(all_states(N.vars))
        for q in states:
            bn_score(N, q)
        sizes = [len(entries) for *_, entries in N._entries]
        for i in range(50):
            assert bn_score(N, State({"x": 0, "y": "off%d" % i})).value == 0
        assert [len(entries) for *_, entries in N._entries] == sizes == [2, len(states)]

    def test_a_chain_compiles_each_input_once(self, monkeypatch):
        # z1..z4 ~ step(z_i-1) are tied to step, whose one store is filled
        # from its rows when the network is elaborated; every other table
        # is built once per (store, input), at the first score of its input
        built = []
        score_table = MixedKernel.score_table

        def counted(K, in_values):
            if in_values not in K._scores:
                built.append((id(K._scores), K.name, in_values))
            return score_table(K, in_values)

        monkeypatch.setattr(MixedKernel, "score_table", counted)
        p = parse(chain(5))
        N = elaborate_graph(p)
        step = p.tied_laws["step"]
        inputs = [(0,), (1,), (2,)]
        assert list(p.tied_laws) == ["step"] and sorted(step) == inputs
        assert [K.name for K in N.kernels if K._scores is step] == ["k[z%d]" % i
                                                                   for i in range(1, 5)]
        states = list(all_states(N.vars))
        assert len(states) == 3 ** 5 * 2
        total = sum(bn_score(N, q).value for q in states)
        assert total == 1
        assert sorted((name, v) for _, name, v in built) == [("k[w]", v) for v in inputs] + [
            ("k[z0]", ())]
        for q in states:
            bn_score(N, q)
        assert len(built) == len(set((store, v) for store, _, v in built)) == 4
        assert list(p.tied_laws) == ["step"] and p.tied_laws["step"] is step
        assert sorted(step) == inputs

    def test_tied_laws_score_as_the_outer_oracle(self):
        # every kernel of N also sits in N2, at other positions, and tied
        # kernels share their law's tables across both networks
        rng = random.Random(1901)
        seen = Counter()
        for _ in range(30):
            p = parse(tied_program(rng))
            N = elaborate_graph(p)
            N2 = BayesianNetwork(N.kernels, variables=[Var("a", BIT)])
            for net in (N, N2, N):
                self.assert_agree(net, list(all_states(net.vars)) + list(off_domain_states(net)))
            stores = Counter(id(K._scores) for K in N.kernels)
            laws = {id(store): store for store in p.tied_laws.values()}
            for K in N.kernels:
                if K.in_names:
                    seen["tied" if id(K._scores) in laws else "own"] += 1
                    seen["shared"] += id(K._scores) in laws and stores[id(K._scores)] > 1
            seen["two laws"] += len(p.tied_laws) == 2
            seen["zero entries"] += any(
                f == 0 for store in laws.values() for table in store.values()
                for f, _, _ in table.values())
        assert all(seen[k] for k in ("tied", "own", "shared", "two laws", "zero entries")), seen

    def test_conditioned_is_the_raw_prob_exactly_at_consistent_weight_one(self):
        rng = random.Random(1505)
        kinds = set()
        for _ in range(300):
            S = rand_system(rng)
            one = consistency_weight(S) == 1
            assert (conditioned(S) is S.prob) == one
            kinds.add(one)
        assert kinds == {True, False}
        # an empty row of weight 0 leaves the consistent weight at 1
        S = MixedSystem({"h": Fraction(1), "t": Fraction(0)}, [("x", BIT)],
                        {"h": [State({"x": 0})], "t": []})
        assert conditioned(S) is S.prob


def input_values(K):
    """Each input of K as its value tuple, in in_names order."""
    return [tuple(v for _, v in q.pairs) for q in K.inputs()]


class TestCompiledTables:
    """Every score table, whether conditional or prior_kernel filled its
    store from the kernel's law or score_table built it at a miss, is the
    table of apply's system at its input (oracles.apply_table), as an
    exact dict with its zero-mass entries, or None."""

    def assert_tables(self, K):
        for vals in input_values(K):
            assert K.score_table(vals) == apply_table(K, vals), (K, vals)

    def test_conditional_kernels_fill_their_tables_from_one_pass(self):
        rng = random.Random(2501)
        seen = Counter()
        for _ in range(300):
            S = rand_system(rng, max_vars=4)
            Y = rng.sample(S.var_names, min(len(S.vars), rng.randint(1, 2)))
            K = conditional(S, Y)
            filled = dict(K._scores)
            for vals in input_values(K):
                want = apply_table(K, vals)
                assert K.score_table(vals) == want, (S, Y, vals)
                if vals not in filled:
                    assert want is None
                    seen["unreached"] += 1
                elif want is None:
                    seen["inconsistent"] += 1
                else:
                    seen["zero entries" if any(f == 0 for f, _, _ in want.values())
                         else "positive"] += 1
            assert set(filled) <= set(input_values(K))
            seen["two inputs"] += len(Y) == 2
            seen["no outputs"] += not K.out_vars
        assert all(seen[k] for k in ("unreached", "inconsistent", "zero entries", "positive",
                                     "two inputs", "no outputs")), seen

    def test_tree_networks_at_random_roots(self):
        rng = random.Random(2502)
        for g, _ in consistent_tree_fgs(rng, 18):
            for K in fg_to_bn(g, root=rng.choice(g.labels)).kernels:
                self.assert_tables(K)

    def test_program_networks(self):
        rng = random.Random(2503)
        texts = [tied_program(rng) for _ in range(20)] + [chain(k, seed=k) for k in range(1, 5)]
        for text in texts:
            for K in elaborate_graph(parse(text)).kernels:
                self.assert_tables(K)

    @pytest.mark.parametrize("kind", ["tied", "conditional", "equation"])
    def test_a_mistyped_input_raises_on_a_cold_network(self, kind):
        # the stores of tied and conditional kernels are filled before any
        # score, and their keys take True for 1
        if kind == "conditional":
            g, _ = next(consistent_tree_fgs(random.Random(2504), 1))
            N = fg_to_bn(g, root="S1")
            K = next(K for K in N.kernels if K.in_names)
            assert K._scores
        else:
            N = elaborate_graph(parse(chain(3)))
            K = next(K for K in N.kernels if K.name == ("k[z1]" if kind == "tied" else "k[w]"))
        x = K.in_names[0]
        q = {v.name: v.domain.values[0] for v in N.vars}
        q[x] = True
        words = r"input of kernel .* value True outside domain of '%s'" % x
        with pytest.raises(VariableSetMismatch, match=words):
            bn_score(N, q)
        assert K.score_table((1,)) == apply_table(K, (1,))
        with pytest.raises(VariableSetMismatch, match=words):
            K.score_table((True,))

    def test_a_mistyped_output_scores_zero_on_a_cold_network(self):
        # w is over { F, T }: 1 is not one of its values, though 1 == True
        N = elaborate_graph(parse(chain(5)))
        q = dict({"z%d" % i: 0 for i in range(5)}, w=1)
        assert bn_score(N, q).value == 0
        assert bn_score(N, dict(q, w=True)).value > 0
        assert [len(entries) for K, *_, entries in N._entries if K.name == "k[w]"] == [1]


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

    @pytest.mark.parametrize("y", [7, True, [1]])
    def test_init_values_must_lie_in_their_domains(self, y):
        N = elaborate_graph(parse("domain bit = { 0, 1 }\ndomain bool = { F, T }\n"
                                  "var x : bool\nvar y : bit\n|| observe y\n"
                                  "|| x ~ Bernoulli(1/2)"))
        assert N.min_vars() == ("y",)
        assert bn_sample(N, {"y": 1}, random.Random(0))["y"] == 1
        with pytest.raises(VariableSetMismatch, match="init value .* outside domain of 'y'"):
            bn_sample(N, {"y": y}, random.Random(0))

    def test_two_producers_in_one_round_are_refused(self):
        N = BayesianNetwork([kernel_from_system(coin_system(), name="c1"),
                             kernel_from_system(coin_system(), name="c2")])
        # round_sample draws x twice, the later draw winning
        assert round_sample(N, {}, random.Random(0)).names == ("x",)
        with pytest.raises(NotIncremental, match="x' is output by both c1 and c2"):
            bn_sample(N, {}, random.Random(0))


def draws(sample_fn, N, seed, resolver, count=5):
    """count draws of N from one rng seeded with seed, each init giving the
    minimal variables random values, up to the first error, which ends
    the list as its type and message."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        init = State({v.name: rng.choice(v.domain.values) for v in N.vars
                      if v.name in N.min_vars()})
        try:
            out.append(sample_fn(N, init, rng, resolver))
        except RbmxError as exc:
            out.append((type(exc), str(exc)))
            break
    return out


class TestSampleOrder:
    """bn_sample walks N.order(); round_sample finds each round afresh.
    Both must make the same draws, or raise the same error."""

    @pytest.mark.parametrize("resolver", ["lex", "uniform"])
    def test_draws_equal_the_rounds(self, resolver):
        rng = random.Random(2702)
        nets = [rand_network(rng, rng.randint(1, 6)) for _ in range(60)]
        nets += [elaborate_graph(parse(text)) for text in
                 [chain(k, seed=k) for k in range(1, 6)] + [tied_program(rng) for _ in range(10)]]
        nets += [fg_to_bn(g, root=root) for g, _ in consistent_tree_fgs(rng, 12)
                 for root in g.labels]
        raised = 0
        for i, N in enumerate(nets):
            want = draws(round_sample, N, i, resolver)
            assert draws(bn_sample, N, i, resolver) == want, N
            raised += isinstance(want[-1], tuple)
        assert 0 < raised < len(nets) // 2, raised

    def test_the_order_is_built_once(self, monkeypatch):
        N = BayesianNetwork(copy_chain(200))
        calls = Counter()
        in_set = BayesianNetwork.in_set

        def counted(self, K):
            calls[K.name] += 1
            return in_set(self, K)

        built = []

        class Sorter(bayes.TopologicalSorter):
            def __init__(self, graph):
                built.append(graph)
                super().__init__(graph)

        monkeypatch.setattr(BayesianNetwork, "in_set", counted)
        monkeypatch.setattr(bayes, "TopologicalSorter", Sorter)
        rng = random.Random(7)
        for _ in range(20):
            q = bn_sample(N, {}, rng)
            assert len({v for _, v in q.items()}) == 1 and len(q.names) == 200
        assert len(built) == 1
        assert calls == Counter({"k%d" % i: 1 for i in range(200)})


    def test_each_kernels_outputs_are_read_once_in_all_draws(self, monkeypatch):
        N = BayesianNetwork(copy_chain(200))
        reads = Counter()
        out_names = MixedKernel.out_names

        def counted(K):
            reads[K.name] += 1
            return out_names.fget(K)

        monkeypatch.setattr(MixedKernel, "out_names", property(counted))
        rng = random.Random(7)
        for _ in range(20):
            assert len(bn_sample(N, {}, rng).names) == 200
        assert reads == Counter({"k%d" % i: 1 for i in range(200)})


class TestBnJson:
    def test_round_trip_scores_identically(self):
        rng = random.Random(2222)
        for _ in range(15):
            S = rand_system(rng, max_omega=4, max_vars=2)
            N = bayes_split(S, [S.var_names[0]])
            M = bn_from_json(bn_to_json(N))
            assert bn_equivalent_p(N, M)

    def test_kernel_systems_are_read_in_the_network_document(self):
        N = seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel())
        M = bn_from_json(bn_to_json(N))
        domains = {v.name: v.domain for v in M.vars}
        systems = [K.apply(q) for K in M.kernels for q in K.inputs()]
        assert len(systems) == 3
        assert all(v.domain is domains[v.name] for S in systems for v in S.vars)

    def test_missing_field_and_unknown_variable_are_typed(self):
        doc = bn_to_json(seq_compose(kernel_from_system(coin_system(), name="prior"),
                                     neg_kernel()))
        with pytest.raises(MalformedSystem, match="missing field 'kernels'"):
            bn_from_json({k: v for k, v in doc.items() if k != "kernels"})
        doc["kernels"][0]["out"] = ["nosuch"]
        with pytest.raises(MalformedSystem, match="nosuch"):
            bn_from_json(doc)

    @pytest.mark.parametrize("table, words", [
        ([({"x": 1}, True), ({"x": True}, False)], "has a table entry for {'x': 1}"),
        ([({"x": False}, True), ({"x": True}, False), ({"z": "junk"}, False)],
         "has a table entry for {'z': 'junk'}"),
        ([({"x": False, "z": 0}, True)], "has a table entry for {'x': False, 'z': 0}"),
        ([({}, True)], "has a table entry for {}"),
        ([({"x": False}, True), ({"x": True}, False), ({"x": True}, True)],
         "gives input State(x=True) twice"),
    ], ids=["an int for a boolean", "an unknown input", "an extra input", "no input",
            "an input twice"])
    def test_a_kernel_table_binds_each_input_once_to_a_value_of_its_type(self, table, words):
        B = Domain("bool", (False, True))
        prior = kernel_from_system(point_system([("x", B)], State({"x": True})), name="px")
        copy = MixedKernel([("x", B)], [("y", B)],
                           lambda q: point_system([("y", B)], State({"y": q["x"]})), name="k")
        doc = bn_to_json(BayesianNetwork([prior, copy]))
        kd = next(kd for kd in doc["kernels"] if kd["name"] == "k")
        kd["table"] = [[q, system_to_json(point_system([("y", B)], State({"y": y})))]
                       for q, y in table]
        with pytest.raises(MalformedSystem,
                           match=re.escape("bad network document: kernel 'k' " + words)):
            bn_from_json(doc)

    def test_a_copy_cycle_is_refused(self):
        a = MixedKernel([("x", BIT)], [("y", BIT)],
                        lambda q: point_system([("y", BIT)], State({"y": q["x"]})), name="a")
        b = MixedKernel([("y", BIT)], [("x", BIT)],
                        lambda q: point_system([("x", BIT)], State({"x": q["y"]})), name="b")
        doc = bn_to_json(BayesianNetwork([a, b]))
        with pytest.raises(MalformedSystem,
                           match=re.escape("bad network document: graph has a cycle through "
                                           "kernels ['a', 'b', 'a']")):
            bn_from_json(doc)

    def test_two_producers_are_refused(self):
        doc = bn_to_json(BayesianNetwork([kernel_from_system(coin_system(), name="c1"),
                                          kernel_from_system(coin_system(), name="c2")]))
        with pytest.raises(MalformedSystem, match="bad network document: variable 'x' is "
                                                  "output by both c1 and c2"):
            bn_from_json(doc)

    def test_built_networks_round_trip(self):
        observed = ("domain bit = { 0, 1 }\nvar x : bit\nvar y : bit\n"
                    "func neg : bit -> bit { 0 -> 1, 1 -> 0 }\n|| y = neg(x)\n|| observe x\n")
        nets = [seq_compose(kernel_from_system(coin_system(), name="prior"), neg_kernel()),
                elaborate_graph(parse(chain(3))), elaborate_graph(parse(observed))]
        nets += [fg_to_bn(g, root=root) for g, _ in consistent_tree_fgs(random.Random(2703), 6)
                 for root in g.labels]
        assert nets[2].sources == {"x"}
        for N in nets:
            doc = bn_to_json(N)
            assert bn_to_json(bn_from_json(doc)) == doc

    @pytest.mark.parametrize("kernel, field, junk", [
        (1, "name", ["neg"]), (1, "name", None), (1, "in", "x"), (1, "in", [["x"]]),
        (0, "out", [1]), (None, "sources", [["x"]]), (None, "sources", None),
    ])
    def test_names_must_be_strings(self, kernel, field, junk):
        doc = bn_to_json(seq_compose(kernel_from_system(coin_system(), name="prior"),
                                     neg_kernel()))
        (doc if kernel is None else doc["kernels"][kernel])[field] = junk
        with pytest.raises(MalformedSystem, match="bad network document: .*%s" % field):
            bn_from_json(doc)

