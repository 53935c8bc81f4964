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
        s = bench_pairs.summarize(PARENT, CHANGE, "higher", "1/s")
        assert s["unit"] == "1/s"
        assert (s["parent_median"], s["change_median"]) == (11.0, 12.0)
        # exclusive quartiles: positions 1.5 and 4.5 of the five sorted runs
        assert s["parent_quartiles"] == [9.5, 12.5]
        assert s["change_quartiles"] == [10.0, 14.5]
        assert s["change_over_parent"] == pytest.approx(12.0 / 11.0)
        # pairs 1, 3 and 5 read higher, pair 2 is a tie, pair 4 reads lower
        assert s["change_wins"] == 3
        assert s["parent_runs"] == PARENT and s["change_runs"] == CHANGE

    def test_lower_is_better_counts_the_other_side(self):
        assert bench_pairs.summarize(PARENT, CHANGE, "lower", "s")["change_wins"] == 1

    def test_one_pair_has_degenerate_quartiles(self):
        s = bench_pairs.summarize([2.0], [1.0], "lower", "s")
        assert s["parent_quartiles"] == [2.0, 2.0] and s["change_quartiles"] == [1.0, 1.0]
        assert (s["change_over_parent"], s["change_wins"]) == (0.5, 1)

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize([1.0, 2.0], [1.0], "higher", "1/s")

    def test_workload_entry(self):
        def result(value, correct=True):
            return {"correct": correct, "metrics": {"sweep_s": {"value": value, "unit": "s"}}}

        end_to_end = [{"name": "sweep_s", "unit": "s", "better": "lower"}]
        results = {"parent": [result(v) for v in PARENT], "change": [result(v) for v in CHANGE]}
        entry = bench_pairs.summarize_workload(range(3, 8), results, end_to_end)
        assert entry["seeds"] == [3, 4, 5, 6, 7] and entry["pairs"] == 5
        assert entry["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]
        assert entry["all_correct"] is True
        assert entry["summary"]["sweep_s"]["change_wins"] == 1
        results["change"][2] = result(14.0, correct=False)
        assert bench_pairs.summarize_workload(range(3, 8), results, end_to_end)[
            "all_correct"] is False


class TestIdentityCsvs:
    def test_the_config_run_reads_its_training_pools_a_power_at_a_time(self):
        # the first document: nine nodes, whose n_t = 4,000 makes a (K, n_t)
        # frame larger than a pass, so the lengths' training pools are read one
        # power at a time; the second runs MRC alone
        path = _PATH.parent / "identity_csvs.py"
        spec = importlib.util.spec_from_file_location("identity_csvs", path)
        identity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(identity)
        scenario, mrc = (loads_scenario(doc) for doc in identity.CONFIGS.values())
        assert len(scenario.nodes) == 9 and scenario.n_t == (10, 1000, 4000)
        assert len(scenario.power_sweep_dbm) == 2 and scenario.n_data_symbols == 3000
        assert montecarlo._PASS_ELEMENTS // (9 * 4000) == 0
        assert mrc.techniques == ("mrc",) and mrc.nodes == scenario.nodes and mrc.seed == 3
        assert mrc.power_sweep_dbm == scenario.power_sweep_dbm
        assert len(identity.RUNS) + len(identity.CONFIGS) == 33
