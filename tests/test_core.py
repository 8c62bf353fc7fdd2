import functools
import itertools
import random
import re
import reprlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbmx import (
    Domain,
    DiscreteProb,
    EMPTY_STATE,
    MixedSystem,
    PolarizedRelation,
    State,
    Var,
    compose,
    compress,
    conditioned,
    consistency,
    consistency_weight,
    equivalent,
    forall_score,
    inner,
    likelihood,
    marginal,
    nil_system,
    outer,
    polarized_score,
    sample,
    state_join,
    system_from_json,
    system_to_json,
)
from rbmx import core
from rbmx.automata import MixedAutomaton, ma_compose
from rbmx.bayes import (
    BayesianNetwork,
    MixedKernel,
    bn_equivalent_p,
    kernel_from_system,
    point_system,
)
from rbmx.core import all_states, format_rat, polarized_from_json, rat, states_compatible
from rbmx.factorgraph import factor_graph
from rbmx.rblang.elaborate import _graft
from rbmx.errors import (
    BadPartition,
    CapExceeded,
    DomainMismatch,
    InconsistentSystem,
    MalformedSystem,
    UnknownVariable,
    VariableSetMismatch,
)

from .test_acceptance import rand_shared_triple
from .oracles import (
    equivalent_variant,
    fraction_exact_weights,
    loop_sampler_tables,
    naive_compose_sig,
    naive_conditioned,
    naive_inner,
    naive_likelihood,
    naive_marginal_sig,
    naive_outer,
    rand_domain,
    rand_system,
    rand_system_over,
    recheck_builds,
    relabeled_copy,
    signature,
    split_copy,
    text_rat,
)

BIT = Domain("bit", (0, 1))


def read_as(f, *args):
    """("value", f(*args)), or ("error", its error's type and message)."""
    try:
        return "value", f(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def bitsys(pi, rows, names=("x",)):
    """Tiny builder: rows maps outcome -> list of value tuples."""
    vars = [(n, BIT) for n in names]
    rel = {o: [State(dict(zip(names, t))) for t in row] for o, row in rows.items()}
    return MixedSystem((list(pi), pi), vars, rel)


class TestRat:
    def test_accepts_strings_ints_fractions(self):
        assert rat("3/5") == Fraction(3, 5)
        assert rat("0.25") == Fraction(1, 4)
        assert rat(7) == Fraction(7)
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats_and_junk(self):
        with pytest.raises(MalformedSystem):
            rat(0.1)
        with pytest.raises(MalformedSystem):
            rat("one half")
        with pytest.raises(MalformedSystem):
            rat("1/0")

    @pytest.mark.parametrize("x", [True, False, "1e10000000", "1e-10000000", "1e101",
                                   "1/1e101", "9" * 5000, "1ex", "1.2.3"])
    def test_rejects_booleans_and_text_out_of_bounds(self, x):
        with pytest.raises(MalformedSystem):
            rat(x)

    def test_accepts_text_at_the_bounds(self):
        assert rat("1e100") == 10 ** 100
        assert rat("1E-100") == Fraction(1, 10 ** 100)
        # long exact weights, as system_to_json writes them, are read back
        assert rat("9" * 1000) == int("9" * 1000)
        assert rat("1/" + "3" * 1000) == Fraction(1, int("3" * 1000))

    # integer ratios, as format_rat writes them, and their near misses
    RAT_TEXTS = ("3/6", "0/0", "1/0", "\u0663/4", " 1/2", "-1/2", "1/2/3", "1/", "1e3",
                 "0.25", "9" * 5000, "1/" + "9" * 5000, "7", "007/010", "0", "00/000",
                 "", "/", "/2", "1//2", "12/35", "2/1", "\u00b2/3", "1_0/3", "1/2 ",
                 "+1/2", "9" * 4300 + "/" + "9" * 4300, "1" + "0" * 4299 + "/1")

    def test_integer_ratios_read_as_the_general_path_reads_them(self):
        rng = random.Random(2201)
        digits = ["".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
                  for _ in range(200)]
        texts = list(self.RAT_TEXTS) + digits + [
            "%s/%s" % (rng.choice(digits), rng.choice(digits + ["0", "000"]))
            for _ in range(300)]
        for text in texts:
            got, want = read_as(rat, text), read_as(text_rat, text)
            assert got == want, reprlib.repr(text)
            if got[0] == "value":
                assert type(got[1]) is Fraction
        assert read_as(rat, "3/6") == ("value", Fraction(1, 2))
        assert read_as(rat, "0/0")[1] is MalformedSystem

    @pytest.mark.parametrize("x", ["\u0663/4", "\u00b2/3", "\uff11/2", "1_0/3", "1/1_0",
                                   " 1/2", "1/2 ", "\t3/4\n", "\u00a01/2", " 7", "0.2_5"])
    def test_text_no_writer_produces_is_refused(self, x):
        # Fraction's parser reads other scripts' digits, "_" separators and
        # surrounding whitespace; a document's weights are plain ASCII
        with pytest.raises(MalformedSystem, match="only ASCII text"):
            rat(x)

    def test_exact_weights_refuses_what_fraction_sums_refuse(self):
        rng = random.Random(2202)
        big = 10 ** 3000 + 7  # a 3001-digit denominator
        seen = {"value": 0, "error": 0}
        for _ in range(400):
            n = rng.randint(1, 4)
            d = rng.choice([2, 3, 6, 12, big])
            parts = [rng.randint(0, d) for _ in range(n - 1)]
            parts.append(d - sum(parts) + rng.choice([0, 0, 0, 1, -1]))
            weights = {}
            for k, m in enumerate(parts):
                scale = rng.choice([1, 1, 2, 3])  # unreduced texts
                f = Fraction(m, d)
                weights["o%d" % k] = rng.choice([
                    f, "%d/%d" % (m * scale, d * scale),
                    "%d/%d" % (f.numerator, f.denominator)])
            keys = list(weights)
            roll = rng.random()
            if roll < 0.05:
                keys.append("o9")  # missing weight
            elif roll < 0.1:
                keys.pop()  # unknown outcome
            got = read_as(core.exact_weights, keys, weights)
            assert got == read_as(fraction_exact_weights, keys, weights), weights
            seen[got[0]] += 1
        assert min(seen.values()) > 50

    def test_format(self):
        assert format_rat(Fraction(3, 5)) == "3/5"
        assert format_rat(Fraction(2)) == "2/1"


class TestDomainsAndStates:
    def test_domain_validation(self):
        with pytest.raises(MalformedSystem):
            Domain("d", ())
        with pytest.raises(MalformedSystem):
            Domain("d", (0, 0))
        with pytest.raises(MalformedSystem):
            Domain("d", ((1, 2),))

    def test_membership_compares_the_type_of_the_value(self):
        # True == 1 == 1.0 and they hash alike; a value counts only as itself
        bools, ints = Domain("bool", (False, True)), Domain("d", (0, 1, 2))
        assert False in bools and True in bools and 1 in ints
        for dom, val in ((bools, 0), (bools, 1), (ints, True), (ints, 1.0), (ints, "1")):
            assert val not in dom
            assert core.domain_index(dom, val) is None
        assert core.domain_index(bools, True) == 1 and core.domain_index(ints, 2) == 2

    def test_equal_domains_have_values_of_the_same_types(self):
        assert Domain("d", (0, 1)) != Domain("d", (False, True))
        assert Domain("d", (0, 1)) == Domain("d", (0, 1))
        assert Domain("d", (0, 1)) != Domain("d", (1, 0))
        assert Domain("d", (0, 1)) != Domain("e", (0, 1))
        # the hash still reads the values alone; equal domains hash alike
        assert hash(Domain("d", (0, 1))) == hash(Domain("d", (0, 1)))

    def test_state_is_immutable_and_hashable(self):
        q = State({"b": 1, "a": 0})
        assert q.names == ("a", "b")
        assert q["b"] == 1
        assert q.get("zz") is None
        assert "a" in q and "zz" not in q
        with pytest.raises(AttributeError):
            q.pairs = ()
        assert len({q, State({"a": 0, "b": 1})}) == 1

    def test_values_that_do_not_compare_still_sort_by_name(self):
        # None < 1 raises TypeError; names are distinct, so sorting the
        # pairs never compares the values
        for bindings in ({"b": None, "a": 1, "c": "x"}, [("c", "x"), ("a", 1), ("b", None)]):
            q = State(bindings)
            assert q.pairs == (("a", 1), ("b", None), ("c", "x"))
            assert q.names == ("a", "b", "c")
        assert State({"y": None, "x": 1}) == State([("x", 1), ("y", None)])

    def test_join(self):
        a = State({"x": 0})
        b = State({"y": 1})
        c = State({"x": 1})
        assert state_join(a, b) == State({"x": 0, "y": 1})
        assert state_join(a, c) is None
        assert state_join(a, EMPTY_STATE) == a
        assert states_compatible(a, b)
        assert not states_compatible(a, c)

    def test_restrict(self):
        q = State({"x": 0, "y": 1})
        assert q.restrict(["y"]) == State({"y": 1})
        assert q.restrict([]) == EMPTY_STATE


class TestSharedChecks:
    def test_check_state_reads_values_by_type(self):
        doms = {"x": BIT, "b": Domain("bool", (False, True))}
        core.check_state(doms, State({"x": 1}), "s")  # partial states pass
        core.check_state(doms, State({"x": 0, "b": True}), "s")
        for q, words in ((State({"x": True}), "s 7 value True outside domain of 'x'"),
                         (State({"b": 1}), "s 7 value 1 outside domain of 'b'"),
                         (State({"z": 0}), "s 7 binds unknown variable 'z'"),
                         (State({"x": [1]}), "s 7 value [1] outside domain of 'x'")):
            with pytest.raises(VariableSetMismatch, match="^%s$" % re.escape(words)):
                core.check_state(doms, q, "s %d", 7)
        # a value that cannot be hashed is outside every domain
        assert core.domain_index(BIT, [1]) is None and {0: 1} not in BIT

    def test_norm_vars_names_a_plain_value_list_after_its_variable(self):
        y, x = core.norm_vars([("y", [0, "a"]), ("x", BIT)])[::-1]
        assert (x.name, x.domain) == ("x", BIT)
        assert (y.name, y.domain.name, y.domain.values) == ("y", "D_y", (0, "a"))

    def test_check_vars_compares_names_then_typed_domains(self):
        vars = core.norm_vars([("x", BIT), ("y", BIT)])
        same = core.norm_vars([("x", Domain("other", (1, 0))), ("y", BIT)])
        core.check_vars(vars, bitsys({"o": 1}, {"o": [(0, 1)]}, ("x", "y")), "o", "S")
        core.check_vars(vars, MixedSystem({"o": 1}, same, {"o": []}), "o", "S")
        with pytest.raises(VariableSetMismatch,
                           match=r"^S at 3 has variables \['x'\], box has \['x', 'y'\]$"):
            core.check_vars(vars, bitsys({"o": 1}, {"o": [(0,)]}), "box", "S at %d", 3)
        for values in ((False, True), (0, 1, 2)):
            S = MixedSystem({"o": 1}, [("x", BIT), ("y", Domain("d", values))], {"o": []})
            with pytest.raises(DomainMismatch, match="S has 'y' over .*, box has it over"):
                core.check_vars(vars, S, "box", "S")


class TestDiscreteProb:
    def test_must_sum_to_one(self):
        with pytest.raises(MalformedSystem):
            DiscreteProb(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 3)})

    def test_rejects_negative_missing_unknown(self):
        with pytest.raises(MalformedSystem):
            DiscreteProb(("a",), {"a": Fraction(-1)})
        with pytest.raises(MalformedSystem):
            DiscreteProb(("a", "b"), {"a": Fraction(1)})
        with pytest.raises(MalformedSystem):
            DiscreteProb(("a",), {"a": Fraction(1), "b": Fraction(0)})
        with pytest.raises(MalformedSystem):
            DiscreteProb((), {})
        with pytest.raises(MalformedSystem):
            DiscreteProb(("a", "a"), {"a": Fraction(1)})

    def test_long_weights_in_messages_are_named_by_size(self):
        tiny = Fraction(1, 10 ** 5000)
        with pytest.raises(MalformedSystem, match="negative weight a fraction of about 5001"):
            DiscreteProb(["a", "b"], {"a": -tiny, "b": 1 + tiny})
        with pytest.raises(MalformedSystem, match="sum to a fraction of about 5001 digits"):
            DiscreteProb(["a", "b"], {"a": tiny, "b": Fraction(1, 2)})
        assert core.describe_rat(Fraction(-3, 4)) == "-3/4"

    def test_support_skips_zero(self):
        p = DiscreteProb(("a", "b"), {"a": Fraction(1), "b": Fraction(0)})
        assert p.support() == ("a",)


class TestSystemConstruction:
    def test_rows_are_sorted_and_deduped(self):
        S = bitsys(
            {"o": Fraction(1)},
            {"o": [(1,), (0,), (1,)]},
        )
        assert S.rel["o"] == (State({"x": 0}), State({"x": 1}))

    def test_partial_state_rejected(self):
        with pytest.raises(MalformedSystem):
            MixedSystem(
                {"o": Fraction(1)},
                [("x", BIT), ("y", BIT)],
                {"o": [State({"x": 0})]},
            )

    def test_value_outside_domain_rejected(self):
        with pytest.raises(MalformedSystem):
            bitsys({"o": Fraction(1)}, {"o": [(7,)]})
        with pytest.raises(MalformedSystem, match="value 7 outside domain of 'x'"):
            point_system([("x", BIT)], {"x": 7})

    def test_value_of_another_type_rejected(self):
        bools = Domain("bool", (False, True))
        for dom, val in ((bools, 1), (bools, 0), (BIT, True), (BIT, 1.0)):
            with pytest.raises(MalformedSystem, match="value %r outside domain of 'x'" % val):
                MixedSystem({"o": Fraction(1)}, [("x", dom)], {"o": [State({"x": val})]})
        # a document binding 1 where the domain says true is refused, not
        # read back and written out as 1
        doc = system_to_json(MixedSystem({"o": 1}, [("x", bools)], {"o": [{"x": True}]}))
        assert doc["rel"] == [["o", {"x": True}]]
        for val in (1, 1.0):
            doc["rel"] = [["o", {"x": val}]]
            with pytest.raises(MalformedSystem, match="outside domain of 'x'"):
                system_from_json(doc)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(MalformedSystem):
            MixedSystem({"o": Fraction(1)}, [("x", BIT)], {"zz": [State({"x": 0})]})

    def test_duplicate_variable_rejected(self):
        with pytest.raises(MalformedSystem):
            MixedSystem(
                {"o": Fraction(1)},
                [("x", BIT), ("x", BIT)],
                {"o": [State({"x": 0})]},
            )

    def test_nil_system(self):
        z = nil_system()
        assert z.var_names == ()
        assert z.rel["1"] == (EMPTY_STATE,)
        assert outer(z, [EMPTY_STATE]) == 1


class TestConditioning:
    def test_matches_naive(self):
        rng = random.Random(101)
        for _ in range(200):
            S = rand_system(rng)
            want = naive_conditioned(S)
            pt = conditioned(S)
            assert {o: pt.weights[o] for o in S.omega} == want
            flag, cset = consistency(S)
            assert flag
            assert cset == {o for o in S.omega if S.rel[o]}
            z = consistency_weight(S)
            assert z == sum((S.pi[o] for o in cset), Fraction(0))

    def test_dead_system_raises(self):
        S = bitsys({"o1": Fraction(1), "o2": Fraction(0)},
                   {"o1": [], "o2": [(0,)]})
        flag, _ = consistency(S)
        assert not flag
        with pytest.raises(InconsistentSystem):
            conditioned(S)
        with pytest.raises(InconsistentSystem):
            outer(S, lambda q: True)

    def test_inconsistent_outcome_gets_zero(self):
        S = bitsys({"o1": Fraction(1, 3), "o2": Fraction(2, 3)},
                   {"o1": [], "o2": [(0,)]})
        pt = conditioned(S)
        assert pt.weights["o1"] == 0
        assert pt.weights["o2"] == 1
        assert consistency_weight(S) == Fraction(2, 3)


class TestQueries:
    def test_against_naive_oracles(self):
        rng = random.Random(202)
        for _ in range(300):
            S = rand_system(rng)
            states = list(all_states(S.vars))
            q = rng.choice(states)
            picked = rng.sample(states, min(len(states), 2))
            pred = lambda s: s in set(picked)
            assert outer(S, pred) == naive_outer(S, pred)
            assert outer(S, picked) == naive_outer(S, lambda s: s in set(picked))
            assert inner(S, picked) == naive_inner(S, picked)
            assert likelihood(S, pred) == naive_likelihood(S, pred)
            assert outer(S, [q]) == naive_outer(S, lambda s: s == q)

    def test_inner_of_empty_set_is_one(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        assert inner(S, []) == 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_outer_forall_duality(self, seed):
        rng = random.Random(seed)
        S = rand_system(rng)
        states = list(all_states(S.vars))
        chosen = set(rng.sample(states, min(len(states), 3)))
        pred = lambda s: s in chosen
        assert outer(S, pred) + forall_score(S, lambda s: not pred(s)) == 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_outer_monotone_inner_antitone(self, seed):
        rng = random.Random(seed)
        S = rand_system(rng)
        states = list(all_states(S.vars))
        big = rng.sample(states, min(len(states), 3))
        small = big[: len(big) // 2]
        assert outer(S, small) <= outer(S, big)
        assert inner(S, big) <= inner(S, small)
        assert likelihood(S, big) <= outer(S, big)


class TestCompress:
    def test_merges_identical_rows(self):
        S = bitsys(
            {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 2)},
            {"a": [(0,)], "b": [(0,)], "c": [(1,)]},
        )
        C = compress(S)
        assert len(C.omega) == 2
        assert signature(C) == signature(S)

    def test_idempotent_and_query_invariant(self):
        rng = random.Random(303)
        for _ in range(120):
            S = rand_system(rng)
            C = compress(S)
            assert len(compress(C).omega) == len(C.omega)
            assert signature(C) == signature(S)
            states = list(all_states(S.vars))
            A = rng.sample(states, min(len(states), 2))
            assert outer(C, A) == outer(S, A)
            assert inner(C, A) == inner(S, A)
            assert likelihood(C, A) == likelihood(S, A)


class TestEquivalence:
    def test_variants_are_equivalent(self):
        rng = random.Random(404)
        for _ in range(120):
            S = rand_system(rng)
            assert equivalent(S, relabeled_copy(S, rng))
            assert equivalent(S, split_copy(S, rng))
            assert equivalent(S, equivalent_variant(S, rng))
            assert equivalent(S, S)

    def test_distinguishes_weights_and_rows(self):
        S1 = bitsys({"o1": Fraction(1, 2), "o2": Fraction(1, 2)},
                    {"o1": [(0,)], "o2": [(1,)]})
        S2 = bitsys({"o1": Fraction(1, 3), "o2": Fraction(2, 3)},
                    {"o1": [(0,)], "o2": [(1,)]})
        S3 = bitsys({"o1": Fraction(1, 2), "o2": Fraction(1, 2)},
                    {"o1": [(0,), (1,)], "o2": [(1,)]})
        assert not equivalent(S1, S2)
        assert not equivalent(S1, S3)

    def test_different_variables_not_equivalent(self):
        S1 = bitsys({"o": Fraction(1)}, {"o": [(0,)]}, names=("x",))
        S2 = bitsys({"o": Fraction(1)}, {"o": [(0,)]}, names=("y",))
        assert not equivalent(S1, S2)

    def test_zero_mass_outcomes_are_invisible(self):
        S1 = bitsys({"o1": Fraction(1)}, {"o1": [(0,)]})
        S2 = bitsys({"o1": Fraction(1), "dead": Fraction(0)},
                    {"o1": [(0,)], "dead": [(1,)]})
        assert equivalent(S1, S2)


class TestCompose:
    def test_matches_naive_signature(self):
        rng = random.Random(505)
        for _ in range(150):
            S1 = rand_system(rng, max_omega=4, max_vars=2)
            # reuse S1's vars for the overlap so shared names agree on domain
            pool = list(S1.vars)
            if rng.random() < 0.5:
                pool.append(Var("y", rand_domain(rng, "Dy")))
            S2 = rand_system_over(rng, rng.sample(pool, rng.randint(1, len(pool))),
                                  max_omega=4)
            assert signature(compose(S1, S2)) == naive_compose_sig(S1, S2)

    def test_shared_variable_constrains(self):
        S1 = bitsys({"o1": Fraction(1, 2), "o2": Fraction(1, 2)},
                    {"o1": [(0,)], "o2": [(1,)]})
        S2 = bitsys({"p": Fraction(1)}, {"p": [(0,)]})
        C = compose(S1, S2)
        assert consistency_weight(C) == Fraction(1, 2)
        assert outer(C, lambda q: q["x"] == 0) == 1

    def test_domain_mismatch_raises(self):
        S1 = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        S2 = MixedSystem({"p": Fraction(1)}, [("x", Domain("three", (0, 1, 2)))],
                         {"p": [State({"x": 2})]})
        with pytest.raises(DomainMismatch):
            compose(S1, S2)

    @pytest.mark.parametrize("site", ["compose", "ma_compose", "network_kernels",
                                      "network_variables", "factor_graph", "graft"])
    def test_domain_clash_raises_at_every_merge_site(self, site):
        three = Domain("three", (0, 1, 2))
        S = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        T = MixedSystem({"p": Fraction(1)}, [("x", three)], {"p": [State({"x": 2})]})
        merge = {
            "compose": lambda: compose(S, T),
            "ma_compose": lambda: ma_compose(
                MixedAutomaton(("a",), S.vars, {"x": 0}, {(State({"x": 0}), "a"): S}),
                MixedAutomaton(("a",), T.vars, {"x": 0}, {(State({"x": 0}), "a"): T})),
            "network_kernels": lambda: BayesianNetwork(
                [kernel_from_system(S, "k1"), kernel_from_system(T, "k2")]),
            "network_variables": lambda: BayesianNetwork(
                [kernel_from_system(S, "k1")], variables=[("x", three)]),
            "factor_graph": lambda: factor_graph([S, T]),
            "graft": lambda: _graft(S, MixedKernel((), T.vars, {EMPTY_STATE: T})),
        }[site]
        with pytest.raises(DomainMismatch, match="'x' has different domains"):
            merge()

    def test_booleans_and_numbers_are_different_domains(self):
        # False == 0 and True == 1, but a domain's values are typed
        bools, ints = Domain("B", (False, True)), Domain("I", (0, 1))
        S = MixedSystem({"o": 1}, [("x", bools)], {"o": [State({"x": True})]})
        T = MixedSystem({"p": 1}, [("x", ints)], {"p": [State({"x": 1})]})
        assert not core.domains_agree(bools, ints) and not core.domains_agree(ints, bools)
        assert core.domains_agree(bools, Domain("B2", (True, False)))
        with pytest.raises(DomainMismatch, match="'x' has different domains"):
            core.merge_vars(S.vars, T.vars)
        with pytest.raises(DomainMismatch):
            compose(S, T)
        assert not equivalent(S, T)
        with pytest.raises(VariableSetMismatch, match="'x' has different domains"):
            bn_equivalent_p(BayesianNetwork([kernel_from_system(S, "k")]),
                            BayesianNetwork([kernel_from_system(T, "k")]))

    def test_one_domain_name_cannot_name_booleans_and_numbers(self):
        with pytest.raises(MalformedSystem,
                           match="domain name 'D' bound to two different value lists"):
            core.norm_vars([("x", Domain("D", (False, True))), ("y", Domain("D", (0, 1)))])
        # the same typed values in the same order are one domain
        two = core.norm_vars([("x", Domain("D", (0, True))), ("y", Domain("D", (0, True)))])
        assert [v.name for v in two] == ["x", "y"]

    def test_variadic_left_fold(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        T = bitsys({"p": Fraction(1)}, {"p": [(0,)]}, names=("y",))
        U = bitsys({"r": Fraction(1)}, {"r": [(1,)]}, names=("z",))
        W = compose(S, T, U)
        assert set(W.var_names) == {"x", "y", "z"}
        assert equivalent(W, compose(compose(S, T), U))
        # on random operands with shared variables, the one-pass product is
        # the binary fold itself, not merely equivalent to it
        rng = random.Random(707)
        for _ in range(80):
            pool = [Var("x%d" % i, rand_domain(rng, "D%d" % i)) for i in range(4)]
            systems = [rand_system_over(rng, rng.sample(pool, rng.randint(0, 2)),
                                        max_omega=3)
                       for _ in range(rng.randint(3, 5))]
            W = compose(*systems)
            F = functools.reduce(compose, systems)
            ids, pi = list(systems[0].omega), dict(systems[0].pi)
            for S in systems[1:]:
                ids = [(p, o) for p in ids for o in S.omega]
                pi = {(p, o): pi[p] * S.pi[o] for p, o in ids}
            assert W.omega == tuple(ids)
            assert W.pi == pi
            assert W.omega == F.omega
            assert list(W.pi.items()) == list(F.pi.items())
            assert list(W.rel.items()) == list(F.rel.items())
            assert W.var_names == F.var_names
            assert W.vars == F.vars

    def test_outcome_ids_nest_to_the_left(self):
        S = bitsys({"a": Fraction(1)}, {"a": [(0,)]})
        T = bitsys({"b": Fraction(1)}, {"b": [(0,)]}, names=("y",))
        U = bitsys({"c": Fraction(1)}, {"c": [(0,)]}, names=("z",))
        assert compose(S, T, U).omega == ((("a", "b"), "c"),)

    def test_size_cap_is_checked_before_building(self, monkeypatch):
        coins = [bitsys({"h": Fraction(1, 2), "t": Fraction(1, 2)},
                        {"h": [(1,)], "t": [(0,)]}, names=("x%d" % i,))
                 for i in range(21)]
        with pytest.raises(CapExceeded):
            compose(*coins)  # 2^21 outcomes; raises without building any
        monkeypatch.setattr(core, "MAX_OUTCOMES", 8)
        assert len(compose(*coins[:3]).omega) == 8
        with pytest.raises(CapExceeded):
            compose(*coins[:4])


class TestMarginal:
    def test_matches_naive(self):
        rng = random.Random(606)
        for _ in range(150):
            S = rand_system(rng)
            names = rng.sample(S.var_names, rng.randint(0, len(S.var_names)))
            M = marginal(S, names)
            assert set(M.var_names) == set(names)
            assert signature(M) == naive_marginal_sig(S, names)

    def test_unknown_variable(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        with pytest.raises(UnknownVariable):
            marginal(S, ["zz"])


class TestBuiltUnchecked:
    """compose, marginal and compress build their results with the unchecked
    core._system; recheck_builds rebuilds each one with the checking
    MixedSystem, which must give the very same system."""

    def test_compose_marginal_compress_equal_the_checked_build(self, monkeypatch):
        built = recheck_builds(monkeypatch)
        rng = random.Random(1003)
        for _ in range(100):
            S1, S2, S3 = rand_shared_triple(rng)
            for S in (compose(S1, S2), compose(S2, S1), compose(S1, S2, S3),
                      compose(S1, compose(S2, S3)), compose(nil_system(), S1)):
                compress(S)
                for k in range(len(S.vars) + 1):
                    for names in itertools.combinations(S.var_names, k):
                        compress(marginal(S, names))
                if consistency(S)[0]:
                    pt = conditioned(S)  # renormalized unchecked too
                    assert pt.weights == DiscreteProb(S.omega, pt.weights).weights
        assert len(built) > 5000

    def test_compose_keeps_the_domain_name_check(self):
        S = MixedSystem({"o": 1}, [("x", Domain("D", [0, 1]))], {"o": [State({"x": 0})]})
        T = MixedSystem({"p": 1}, [("y", Domain("D", [0, 1, 2]))], {"p": [State({"y": 2})]})
        with pytest.raises(MalformedSystem,
                           match="domain name 'D' bound to two different value lists"):
            compose(S, T)


class TestSample:
    def test_deterministic_and_conditioned(self):
        S = bitsys({"o1": Fraction(1, 3), "o2": Fraction(1, 3), "o3": Fraction(1, 3)},
                   {"o1": [], "o2": [(0,)], "o3": [(0,), (1,)]})
        r1 = [sample(S, random.Random(9)) for _ in range(50)]
        r2 = [sample(S, random.Random(9)) for _ in range(50)]
        assert r1 == r2
        assert all(o != "o1" for o, _ in r1)  # inconsistent outcome never drawn

    def test_lex_resolver_takes_first_row_state(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(1,), (0,)]})
        _, q = sample(S, random.Random(0), resolver="lex")
        assert q == State({"x": 0})

    def test_uniform_resolver_reaches_all_row_states(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,), (1,)]})
        rng = random.Random(4)
        seen = {sample(S, rng, resolver="uniform")[1]["x"] for _ in range(60)}
        assert seen == {0, 1}

    def test_callable_resolver_and_bad_name(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,), (1,)]})
        _, q = sample(S, random.Random(0), resolver=lambda rng, row: row[-1])
        assert q == State({"x": 1})
        with pytest.raises(ValueError):
            sample(S, random.Random(0), resolver="zigzag")

    def test_disjoint_systems_draw_as_their_composition(self):
        rng = random.Random(7474)
        seen = {"zero weight": 0, "inconsistent outcome": 0, "several states": 0,
                "several systems": 0}
        for _ in range(300):
            systems = []
            for i in range(rng.randint(1, 4)):
                vars = [Var("s%d_%d" % (i, j), rand_domain(rng, "D%d_%d" % (i, j)))
                        for j in range(rng.randint(1, 2))]
                systems.append(rand_system_over(rng, vars, max_omega=4))
            whole = compose(*systems) if len(systems) > 1 else systems[0]
            for resolver in ("lex", "uniform"):
                seed = rng.randrange(2 ** 32)
                r1, r2 = random.Random(seed), random.Random(seed)
                parts = [sample(tuple(systems), r1, resolver) for _ in range(5)]
                composed = [sample(whole, r2, resolver) for _ in range(5)]
                assert parts == composed
                assert r1.getstate() == r2.getstate()
            seen["zero weight"] += any(0 in S.pi.values() for S in systems)
            seen["inconsistent outcome"] += any(not r for S in systems for r in S.rel.values())
            seen["several states"] += any(len(r) > 1 for S in systems for r in S.rel.values())
            seen["several systems"] += len(systems) > 1
        assert all(seen.values()), seen

    def test_sampler_tables_are_the_lcm_loop(self):
        # Masses over the conditioned weights gives the loop's integers, so
        # seeded draws stay where they were
        rng = random.Random(2201)
        seen = {"zero weight": 0, "inconsistent outcome": 0, "renormalized": 0}
        for _ in range(400):
            S = rand_system(rng, max_omega=6)
            assert core._sampler_tables(S) == loop_sampler_tables(S)
            seen["zero weight"] += 0 in S.pi.values()
            seen["inconsistent outcome"] += any(not r for r in S.rel.values())
            seen["renormalized"] += consistency_weight(S) != 1
        assert min(seen.values()) > 20, seen

    def test_sampled_systems_must_be_variable_disjoint(self):
        S = bitsys({"o": Fraction(1)}, {"o": [(0,)]})
        with pytest.raises(MalformedSystem):
            sample((S, S), random.Random(0))
        with pytest.raises(MalformedSystem):
            sample((), random.Random(0))


class TestPolarized:
    def test_partition_must_be_exact(self):
        pi = {"o1": Fraction(1, 2), "o2": Fraction(1, 2)}
        rel = {"o1": [State({"x": 0})], "o2": [State({"x": 1})]}
        with pytest.raises(BadPartition):
            polarized_score(pi, PolarizedRelation(rel, [({"o1"}, "angel")]),
                            lambda q: True)
        with pytest.raises(BadPartition):
            polarized_score(
                pi,
                PolarizedRelation(rel, [({"o1", "o2"}, "angel"), ({"o2"}, "demon")]),
                lambda q: True,
            )
        with pytest.raises(BadPartition):
            PolarizedRelation(rel, [({"o1", "o2"}, "wizard")])

    def test_angel_exists_demon_forall(self):
        pi = {"o1": Fraction(1, 2), "o2": Fraction(1, 2)}
        rel = {"o1": [State({"x": 0}), State({"x": 1})],
               "o2": [State({"x": 0}), State({"x": 1})]}
        pr_a = PolarizedRelation(rel, [({"o1", "o2"}, "angel")])
        pr_d = PolarizedRelation(rel, [({"o1", "o2"}, "demon")])
        hit = lambda q: q["x"] == 1
        assert polarized_score(pi, pr_a, hit) == 1
        assert polarized_score(pi, pr_d, hit) == 0

    def test_all_angel_is_outer_all_demon_is_forall(self):
        rng = random.Random(707)
        for _ in range(60):
            S = rand_system(rng)
            pr_a = PolarizedRelation(dict(S.rel), [(set(S.omega), "angel")])
            pr_d = PolarizedRelation(dict(S.rel), [(set(S.omega), "demon")])
            states = list(all_states(S.vars))
            chosen = set(rng.sample(states, min(len(states), 2)))
            pred = lambda q: q in chosen
            assert polarized_score(S.prob, pr_a, pred) == outer(S, pred)
            assert polarized_score(S.prob, pr_d, pred) == forall_score(S, pred)

    def test_no_consistent_mass(self):
        pi = {"o": Fraction(1)}
        pr = PolarizedRelation({"o": []}, [({"o"}, "angel")])
        with pytest.raises(InconsistentSystem):
            polarized_score(pi, pr, lambda q: True)


class TestJson:
    def test_roundtrip_preserves_everything_visible(self):
        rng = random.Random(808)
        for _ in range(80):
            S = rand_system(rng)
            T = system_from_json(system_to_json(S))
            assert T.var_names == S.var_names
            assert [T.pi[o] for o in T.omega] == [S.pi[o] for o in S.omega]
            assert equivalent(S, T)

    def test_tuple_outcome_ids_become_unique_strings(self):
        S1 = bitsys({"o1": Fraction(1, 2), "o2": Fraction(1, 2)},
                    {"o1": [(0,)], "o2": [(1,)]})
        C = compose(S1, relabeled_copy(S1, random.Random(1)))
        doc = system_to_json(C)
        assert len(set(doc["omega"])) == len(C.omega)
        assert equivalent(system_from_json(doc), C)

    def test_outcome_ids_that_print_alike_are_numbered(self):
        S = bitsys({1: Fraction(1, 3), "1": Fraction(2, 3)}, {1: [(0,)], "1": [(1,)]})
        doc = system_to_json(S)
        assert doc["omega"] == ["1", "1#2"]
        assert doc["pi"] == {"1": "1/3", "1#2": "2/3"}
        assert doc["rel"] == [["1", {"x": 0}], ["1#2", {"x": 1}]]
        assert equivalent(system_from_json(doc), S)

    def test_bad_document(self):
        with pytest.raises(MalformedSystem):
            system_from_json({"domains": {}, "vars": [], "omega": []})
        with pytest.raises(MalformedSystem, match="missing field 'omega'"):
            system_from_json({"domains": {}, "vars": []})
        with pytest.raises(MalformedSystem):  # a list where a map belongs
            system_from_json({"domains": [], "vars": [], "omega": []})

    def test_array_binding_is_a_bad_document(self):
        doc = system_to_json(bitsys({"o": Fraction(1)}, {"o": [(0,)]}))
        doc["rel"] = [["o", {"x": [0]}]]
        with pytest.raises(MalformedSystem, match="bad system document"):
            system_from_json(doc)

    def test_a_table_keeps_one_domain_per_name_and_typed_values(self):
        table = {}
        d = core.read_domain(table, "d", [0, 1])
        assert core.read_domain(table, "d", (0, 1)) is d
        b = core.read_domain(table, "d", [False, True])
        assert b is not d and b.values == (False, True)
        assert all(type(v) is bool for v in b.values)
        assert core.read_domain(table, "e", [0, 1]) is not d
        assert core.read_domain({}, "d", [0, 1]) is not d  # nothing kept across tables
        for bad in ([0, 0], [], [[0]], [0.5]):
            for _ in range(2):
                with pytest.raises(MalformedSystem):
                    core.read_domain(table, "d", bad)
        assert len(table) == 3

    def test_a_table_reads_each_weight_text_once(self):
        table = {}
        half = core.read_weight(table, "1/2")
        assert half == Fraction(1, 2) and core.read_weight(table, "1/2") is half
        assert core.read_weight(table, "1") == core.read_weight(table, 1) == 1
        # True, 1 and 1.0 are one dict key; only texts are kept
        with pytest.raises(MalformedSystem, match="refusing boolean"):
            core.read_weight(table, True)
        with pytest.raises(MalformedSystem, match="refusing float"):
            core.read_weight(table, 1.0)
        assert list(table) == ["1/2", "1"]

    def test_a_bad_weight_text_raises_alike_at_each_occurrence(self):
        doc = system_to_json(bitsys({"o1": Fraction(1, 2), "o2": Fraction(1, 2)},
                                    {"o1": [(0,)], "o2": [(1,)]}))
        S = system_from_json(doc)
        assert S.pi["o1"] is S.pi["o2"]
        doc["pi"] = {"o1": "1/0", "o2": "1/0"}
        table = {}
        messages = set()
        for t in (table, table, None):
            with pytest.raises(MalformedSystem) as exc:
                system_from_json(doc, _table=t)
            messages.add(str(exc.value))
        assert len(messages) == 1 and "not a rational: '1/0'" in messages.pop()
        assert "1/0" not in table

    def test_polarized_block_missing_a_field(self):
        doc = system_to_json(bitsys({"o": Fraction(1)}, {"o": [(0,)]}))
        doc["blocks"] = [{"outcomes": ["o"]}]
        with pytest.raises(MalformedSystem, match="missing field 'polarity'"):
            polarized_from_json(doc)
