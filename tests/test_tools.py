import importlib.util
import pathlib

import pytest

ABTEST = pathlib.Path(__file__).resolve().parent.parent / "tools" / "abtest.py"
_spec = importlib.util.spec_from_file_location("abtest", ABTEST)
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)


class TestAbtestSummary:
    def test_wins_follow_the_metric_direction_and_ties_count_for_neither(self):
        parent, change = [10, 10, 10, 10], [12, 10, 9, 11]
        assert abtest.summarize(parent, change, True)["wins"] == 2
        assert abtest.summarize(parent, change, False)["wins"] == 1

    def test_quartiles_are_per_side(self):
        s = abtest.summarize([1, 2, 3, 4, 5], [11, 12, 13, 14, 15], True)
        assert s["parent"] == (2, 3, 4)
        assert s["change"] == (12, 13, 14)
        assert s["pairs"] == 5

    def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread(self):
        parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        assert abtest.summarize(parent, [p + 20 for p in parent], True)["claimable"]
        # every pair won, but by less than the parent's interquartile range
        assert not abtest.summarize(parent, [p + 1 for p in parent], True)["claimable"]
        # a wide gap, but two pairs lost
        change = [p + 20 for p in parent[:8]] + [0, 0]
        assert not abtest.summarize(parent, change, True)["claimable"]
        # lower is better: the same gap the other way round
        assert abtest.summarize(parent, [p - 20 for p in parent], False)["claimable"]

    def test_one_pair_has_its_value_as_every_quartile(self):
        assert abtest.quartiles([7.5]) == (7.5, 7.5, 7.5)

    def test_a_bad_pair_count_is_refused(self):
        with pytest.raises(SystemExit):
            abtest.main(["a", "b", "--workload", "score_chains", "--pairs", "0"])
