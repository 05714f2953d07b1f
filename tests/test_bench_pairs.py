"""The BENCH_<n>.json writer reproduces the figures of a file written by
hand in the same format."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summaries_match_bench_19():
    workloads = json.loads((ROOT / "BENCH_19.json").read_text())["workloads"]
    for workload, metrics in workloads.items():
        for name in ("pass_s", "setup_s", "peak_rss_mb"):
            entry = metrics[name]
            parent, change = entry["parent"]["runs"], entry["change"]["runs"]
            ours = bench_pairs.compare(parent, change, "lower")
            for side in ("parent", "change"):
                assert ours[side]["runs"] == entry[side]["runs"]
                # the file's quartiles come from the unrounded runs
                for stat in ("median", "q1", "q3"):
                    assert abs(ours[side][stat] - entry[side][stat]) < 2e-6, (workload, name, side, stat)
            assert ours["change_better_pairs"] == entry["change_better_pairs"], (workload, name)
            assert ours["pairs"] == entry["pairs"] == 10
            assert abs(ours["median_change_pct"] - entry["median_change_pct"]) < 1e-3, (workload, name)


def test_a_higher_is_better_metric_counts_the_higher_side():
    assert bench_pairs.compare([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "higher")["change_better_pairs"] == 2
    assert bench_pairs.compare([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "lower")["change_better_pairs"] == 1
