import importlib.util
import json
import pathlib

import pytest

from .test_cli import NOISY
from .test_rblang import TYPED_CONSTANTS

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abtest = load_tool("abtest")
outputs = load_tool("outputs")
programs = load_tool("programs")
ring = load_tool("ring")
steps = load_tool("steps")
tree = load_tool("tree")
ROOT = TOOLS.parent


class TestAbtestSummary:
    def test_wins_follow_the_metric_direction_and_ties_count_for_neither(self):
        parent, change = [10, 10, 10, 10], [12, 10, 9, 11]
        assert abtest.summarize(parent, change, True, 0.1)["wins"] == 2
        assert abtest.summarize(parent, change, False, 0.1)["wins"] == 1

    def test_quartiles_are_per_side(self):
        s = abtest.summarize([1, 2, 3, 4, 5], [11, 12, 13, 14, 15], True, 0.1)
        assert s["parent"] == (2, 3, 4)
        assert s["change"] == (12, 13, 14)
        assert s["pairs"] == 5

    def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread(self):
        parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        assert abtest.summarize(parent, [p + 20 for p in parent], True, 0.1)["claimable"]
        # every pair won, but by less than the parent's interquartile range
        assert not abtest.summarize(parent, [p + 1 for p in parent], True, 0.1)["claimable"]
        # a wide gap, but two pairs lost
        change = [p + 20 for p in parent[:8]] + [0, 0]
        assert not abtest.summarize(parent, change, True, 0.1)["claimable"]
        # lower is better: the same gap the other way round
        assert abtest.summarize(parent, [p - 20 for p in parent], False, 0.1)["claimable"]

    def test_a_median_worse_by_more_than_the_bound_is_flagged(self):
        parent = [100, 100, 100, 100]
        # higher is better: the median falls by 15% and by 25% of 100
        assert not abtest.summarize(parent, [85] * 4, True, 0.2)["beyond_bound"]
        assert abtest.summarize(parent, [75] * 4, True, 0.2)["beyond_bound"]
        # lower is better: the median rises by 15% and by 25%
        assert not abtest.summarize(parent, [115] * 4, False, 0.2)["beyond_bound"]
        assert abtest.summarize(parent, [125] * 4, False, 0.2)["beyond_bound"]
        # a gain is never a regression, however large
        assert not abtest.summarize(parent, [300] * 4, True, 0.2)["beyond_bound"]
        assert not abtest.summarize(parent, [1] * 4, False, 0.2)["beyond_bound"]
        # only the median counts: one bad pair among good ones is not flagged
        assert not abtest.summarize(parent, [100, 100, 100, 10], True, 0.2)["beyond_bound"]

    def test_one_pair_has_its_value_as_every_quartile(self):
        assert abtest.quartiles([7.5]) == (7.5, 7.5, 7.5)

    def test_a_bad_pair_count_is_refused(self):
        with pytest.raises(SystemExit):
            abtest.main(["a", "b", "--workload", "score_chains", "--pairs", "0"])


class TestRing:
    def test_each_size_prints_one_line_from_its_own_process(self, capsys):
        assert ring.main(["--states", "9,11"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["states"], d["check"], d["pairs"]) for d in lines] == [
            (9, "simulation", 81), (11, "simulation", 121)]
        for d in lines:
            assert d["seconds"] >= 0 and d["peak_rss_mb"] > 0

    def test_bisimulation_keeps_every_pair_too(self, capsys):
        assert ring.main(["--states", "10", "--bisim"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["states"], d["check"], d["pairs"]) == (10, "bisimulation", 100)

    def test_the_mixed_automaton_image_relates_ring_states_and_tokens(self, capsys):
        assert ring.main(["--states", "6", "--ma"]) == 0
        assert ring.main(["--states", "5", "--ma", "--bisim"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["automaton"], d["states"], d["check"], d["pairs"]) for d in lines] == [
            ("ma", 6, "simulation", 72), ("ma", 5, "bisimulation", 50)]
        for d in lines:
            assert d["seconds"] >= 0 and d["peak_rss_mb"] > 0

    def test_the_split_ring_keeps_every_pair_in_each_kind(self, capsys):
        assert ring.main(["--states", "1,7", "--split"]) == 0
        assert ring.main(["--states", "6", "--split", "--bisim"]) == 0
        assert ring.main(["--states", "5", "--split", "--ma"]) == 0
        assert ring.main(["--states", "4", "--split", "--ma", "--bisim"]) == 0
        assert ring.main(["--states", "3"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["automaton"], d["ring"], d["states"], d["check"], d["pairs"])
                for d in lines] == [
            ("spa", "split", 1, "simulation", 1), ("spa", "split", 7, "simulation", 49),
            ("spa", "split", 6, "bisimulation", 36), ("ma", "split", 5, "simulation", 50),
            ("ma", "split", 4, "bisimulation", 32), ("spa", "dirac", 3, "simulation", 9)]
        for d in lines:
            assert d["seconds"] >= 0 and d["peak_rss_mb"] > 0

    def test_read_times_decoding_and_building_each_document(self, capsys):
        assert ring.main(["--states", "4", "--read"]) == 0
        assert ring.main(["--states", "3,5", "--read", "--ma", "--split"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["automaton"], d["ring"], d["states"]) for d in lines] == [
            ("spa", "dirac", 4), ("ma", "split", 3), ("ma", "split", 5)]
        for d in lines:
            assert "check" not in d and d["bytes"] > 0
            assert d["loads_seconds"] >= 0 and d["model_seconds"] >= 0
            assert d["peak_rss_mb"] > 0
        with pytest.raises(SystemExit):
            ring.main(["--states", "3", "--read", "--bisim"])

    def test_a_bad_size_list_is_refused(self):
        for bad in ("0", "ten", "3,,4"):
            with pytest.raises(SystemExit):
                ring.main(["--states", bad])


class TestTree:
    def test_each_size_prints_one_line_from_its_own_process(self, capsys):
        assert tree.main(["--systems", "1,3", "--states", "20"]) == 0
        assert tree.main(["--systems", "3", "--states", "20"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["systems"], d["variables"], d["kernels"], d["states"]) for d in lines] == [
            (1, 2, 1, 20), (3, 4, 3, 20), (3, 4, 3, 20)]
        # every other state follows the tree's rows, so it scores above 0
        assert all(d["positive"] >= 10 for d in lines)
        assert lines[1]["positive"] == lines[2]["positive"]
        for d in lines:
            assert d["seconds"] >= 0 and d["sample_seconds"] > 0 and d["peak_rss_mb"] > 0

    def test_bad_counts_are_refused(self):
        for argv in (["--systems", "0"], ["--systems", "3,,4"], ["--states", "0"],
                     ["--states", "ten"]):
            with pytest.raises(SystemExit):
                tree.main(argv)


class TestSteps:
    def test_each_chain_count_prints_one_line_from_its_own_process(self, capsys):
        assert steps.main(["--chains", "1,3", "--instants", "20"]) == 0
        assert steps.main(["--chains", "3", "--instants", "20", "--seed", "2"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [(d["chains"], d["observed"], d["instants"]) for d in lines] == [
            (1, 0, 20), (3, 1, 20), (3, 1, 20)]
        for d in lines:
            assert d["first_seconds"] > 0 and d["peak_rss_mb"] > 0
            assert isinstance(d["steady_us"], float)

    def test_bad_counts_are_refused(self):
        for argv in (["--chains", "0"], ["--chains", "2,,4"], ["--instants", "0"],
                     ["--instants", "ten"]):
            with pytest.raises(SystemExit):
                steps.main(argv)


class TestOutputs:
    def test_a_checkout_against_itself_prints_one_digest_twice(self, capsys):
        assert outputs.main([str(ROOT), str(ROOT), "--workload", "score_chains", "--seed", "3"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert len(lines) == 2 and lines[0] == lines[1]
        # the four warm-up operations and seven cycles of twenty
        assert lines[0]["operations"] == 4 + 7 * 20
        assert len(lines[0]["sha256"]) == 64

    def test_different_digests_exit_1(self, monkeypatch, capsys):
        fake = iter([{"operations": 2, "sha256": "a"}, {"operations": 2, "sha256": "b"}])
        monkeypatch.setattr(outputs, "digest", lambda *args: next(fake))
        assert outputs.main(["a", "b", "--workload", "score_chains"]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_three_checkouts_are_refused(self):
        with pytest.raises(SystemExit):
            outputs.main(["a", "b", "c", "--workload", "score_chains"])


class TestPrograms:
    def test_a_checkout_against_itself_prints_one_digest_twice(self, capsys):
        assert programs.main([str(ROOT), str(ROOT), "--mutations", "1"]) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0]["programs"] == len(programs.corpus(ROOT, 1, 1))
        assert len(lines[0]["sha256"]) == 64

    def test_the_corpus_holds_literals_sums_and_seeded_mutations(self):
        found = programs.literals(ROOT)
        # a literal, and a module constant plus a literal
        assert NOISY in found
        assert TYPED_CONSTANTS["equation side"][0] in found
        texts = programs.corpus(ROOT, 2, 5)
        assert texts == programs.corpus(ROOT, 2, 5)
        assert set(found) < set(texts) and len(texts) == len(set(texts))

    def test_different_digests_exit_1(self, monkeypatch, capsys):
        fake = iter([{"programs": 2, "sha256": "a"}, {"programs": 2, "sha256": "b"}])
        monkeypatch.setattr(programs, "digest", lambda *args: next(fake))
        assert programs.main([str(ROOT), str(ROOT)]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_three_checkouts_are_refused(self):
        with pytest.raises(SystemExit):
            programs.main(["a", "b", "c"])
