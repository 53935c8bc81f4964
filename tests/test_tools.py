"""tools/bench_pairs.py: the summary arithmetic of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

from bccsim import montecarlo
from bccsim.config import loads_scenario

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 9.0, 13.0]
CHANGE = [12.0, 12.0, 14.0, 8.0, 15.0]


class TestSummary:
    def test_medians_quartiles_ratio_and_wins(self):
        s = bench_pairs.summarize(PARENT, CHANGE, "higher", "1/s", 0.25)
        assert s["unit"] == "1/s"
        assert (s["parent_median"], s["change_median"]) == (11.0, 12.0)
        # exclusive quartiles: positions 1.5 and 4.5 of the five sorted runs
        assert s["parent_quartiles"] == [9.5, 12.5]
        assert s["change_quartiles"] == [10.0, 14.5]
        assert s["change_over_parent"] == pytest.approx(12.0 / 11.0)
        # pairs 1, 3 and 5 read higher, pair 2 is a tie, pair 4 reads lower
        assert s["change_wins"] == 3
        assert s["parent_runs"] == PARENT and s["change_runs"] == CHANGE
        assert s["bound"] == 0.25 and s["verdict"] == "unresolved"

    def test_lower_is_better_counts_the_other_side(self):
        assert bench_pairs.summarize(PARENT, CHANGE, "lower", "s", 0.25)["change_wins"] == 1

    def test_one_pair_has_degenerate_quartiles(self):
        s = bench_pairs.summarize([2.0], [1.0], "lower", "s", 0.25)
        assert s["parent_quartiles"] == [2.0, 2.0] and s["change_quartiles"] == [1.0, 1.0]
        assert (s["change_over_parent"], s["change_wins"]) == (0.5, 1)

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize([1.0, 2.0], [1.0], "higher", "1/s", 0.25)

    def test_workload_entry(self):
        def result(value, correct=True):
            return {"correct": correct, "metrics": {"sweep_s": {"value": value, "unit": "s"}}}

        end_to_end = [{"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25}]
        results = {"parent": [result(v) for v in PARENT], "change": [result(v) for v in CHANGE]}
        entry = bench_pairs.summarize_workload(range(3, 8), results, end_to_end)
        assert entry["seeds"] == [3, 4, 5, 6, 7] and entry["pairs"] == 5
        assert entry["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]
        assert entry["all_correct"] is True
        assert entry["summary"]["sweep_s"]["change_wins"] == 1
        assert entry["summary"]["sweep_s"]["bound"] == 0.25
        results["change"][2] = result(14.0, correct=False)
        assert bench_pairs.summarize_workload(range(3, 8), results, end_to_end)[
            "all_correct"] is False


class TestVerdict:
    """The first verdict that holds: regression, gain, unresolved, no_change."""

    PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]

    def test_a_median_worse_by_more_than_the_bound_is_a_regression(self):
        # 20% slower in the median against a 10% bound, though three pairs win
        change = [x * 1.2 for x in self.PARENT[:7]] + [90.0, 90.0, 90.0]
        assert bench_pairs.verdict(self.PARENT, change, "lower", 0.1) == "regression"
        assert bench_pairs.verdict(self.PARENT, change, "higher", 0.1) != "regression"

    def test_nine_wins_of_ten_past_the_quartile_distance_is_a_gain(self):
        # the parent's quartiles are 99 and 101; a 3% faster median wins 9 pairs, with one
        # tie, which counts for neither side; 8 wins are not enough
        change = [x * 1.03 for x in self.PARENT[:9]] + [self.PARENT[9]]
        assert bench_pairs.verdict(self.PARENT, change, "higher", 0.25) == "gain"
        change[8] = self.PARENT[8]
        assert bench_pairs.verdict(self.PARENT, change, "higher", 0.25) == "no_change"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        # quartiles 80 and 120 against a 25% bound: 40 of 100 is wider than 25, and
        # one change run does not beat every parent run; when all do, it is resolved
        parent = [60.0, 80.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 120.0, 140.0]
        change = [p + 1.0 for p in parent]
        assert bench_pairs.verdict(parent, change, "higher", 0.25) == "unresolved"
        assert bench_pairs.verdict(parent, [150.0] * 10, "higher", 0.25) == "gain"

    def test_a_small_difference_inside_the_bound_is_no_change(self):
        change = [x * 1.01 for x in self.PARENT[:5]] + [x * 0.99 for x in self.PARENT[5:]]
        assert bench_pairs.verdict(self.PARENT, change, "higher", 0.25) == "no_change"
        assert bench_pairs.verdict(self.PARENT, self.PARENT, "lower", 0.25) == "no_change"


class TestIdentityCsvs:
    def test_the_config_run_reads_its_training_pools_a_power_at_a_time(self):
        # the first document: nine nodes, whose n_t = 4,000 makes a (K, n_t)
        # frame larger than a pass, so the lengths' training pools are read one
        # power at a time; the second runs MRC alone; the third runs three
        # lengths on one- and two-slot blocks at K = 9
        path = _PATH.parent / "identity_csvs.py"
        spec = importlib.util.spec_from_file_location("identity_csvs", path)
        identity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(identity)
        scenario, mrc, lengths = (loads_scenario(doc) for doc in identity.CONFIGS.values())
        assert lengths.nodes == scenario.nodes and lengths.n_t == (10, 50, 100)
        assert lengths.n_data_symbols == 150 and lengths.block_slots(99) == 1
        assert len(scenario.nodes) == 9 and scenario.n_t == (10, 1000, 4000)
        assert len(scenario.power_sweep_dbm) == 2 and scenario.n_data_symbols == 3000
        assert montecarlo._PASS_ELEMENTS // (9 * 4000) == 0
        assert mrc.techniques == ("mrc",) and mrc.nodes == scenario.nodes and mrc.seed == 3
        assert mrc.power_sweep_dbm == scenario.power_sweep_dbm
        assert len(identity.RUNS) + len(identity.CONFIGS) == 37
