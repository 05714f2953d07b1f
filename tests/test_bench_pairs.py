"""The BENCH_<n>.json writer reproduces the figures of a file written by
hand in the same format, and gives each metric the verdict its rules say."""

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


BOUNDS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_verdicts_of_bench_19():
    workloads = json.loads((ROOT / "BENCH_19.json").read_text())["workloads"]
    verdicts = {
        (workload, name): bench_pairs.verdict(
            metrics[name],
            BOUNDS[name]["better"],
            BOUNDS[name]["bound"],
            bench_pairs.failed_shares(metrics["failed"], metrics["attempted"]),
        )
        for workload, metrics in workloads.items()
        for name in BOUNDS
    }
    # desk-verify pass_s: 10 of 10 pairs better, median 0.983 -> 0.762 s
    # against a parent interquartile range of 0.034 s. free-products pass_s
    # is better in 9 of 10 pairs, but its median moves 0.54 ms against an
    # interquartile range of 0.62 ms
    assert verdicts.pop(("desk-verify", "pass_s")) == "gain"
    assert set(verdicts.values()) == {"no regression"}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.03]
WIDE = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]


NO_FAILURES = {"parent": 0.0, "change": 0.0}


def _verdict(parent, change, better="lower", bound=0.25, shares=NO_FAILURES):
    return bench_pairs.verdict(bench_pairs.compare(parent, change, better), better, bound, shares)


def test_synthetic_verdicts():
    assert _verdict(PARENT, [p - 0.1 for p in PARENT]) == "gain"
    # 9 of 10 pairs suffice, 8 do not
    assert _verdict(PARENT, [p - 0.1 for p in PARENT[:9]] + [2.0]) == "gain"
    assert _verdict(PARENT, [p - 0.1 for p in PARENT[:8]] + [2.0, 2.0]) == "no regression"
    # better in every pair, by less than the parent's interquartile range
    assert _verdict(PARENT, [p - 0.001 for p in PARENT]) == "no regression"
    assert _verdict(PARENT, [p * 1.2 for p in PARENT]) == "no regression"
    assert _verdict(PARENT, [p * 1.3 for p in PARENT]) == "regression"
    assert _verdict(WIDE, WIDE[::-1]) == "unresolved"
    # a wide parent spread, but every change run beats every parent run
    assert _verdict(WIDE, [0.48] * 10) == "no regression"
    assert _verdict(WIDE, [w * 1.5 for w in WIDE]) == "regression"
    # a higher-is-better metric turns each comparison round
    assert _verdict(PARENT, [p + 0.1 for p in PARENT], "higher") == "gain"
    assert _verdict(PARENT, [p * 0.7 for p in PARENT], "higher") == "regression"


def test_failed_shares():
    shares = bench_pairs.failed_shares({"parent": 0, "change": 3}, {"parent": 100, "change": 60})
    assert shares == {"parent": 0.0, "change": 0.05}
    assert bench_pairs.failed_shares({"parent": 0, "change": 0}, {"parent": 0, "change": 10}) == NO_FAILURES


def test_a_change_that_fails_more_operations_gets_no_gain():
    faster = [p - 0.1 for p in PARENT]
    more = {"parent": 0.0, "change": 0.01}
    assert _verdict(PARENT, faster, shares=more) == "more failures"
    assert _verdict(PARENT, [p + 0.1 for p in PARENT], "higher", shares=more) == "more failures"
    # nor does it read as a regression or a no regression
    assert _verdict(PARENT, [p * 1.3 for p in PARENT], shares=more) == "more failures"
    assert _verdict(PARENT, PARENT, shares=more) == "more failures"
    # an equal or a smaller failed share keeps the verdict of the timings
    assert _verdict(PARENT, faster, shares={"parent": 0.01, "change": 0.01}) == "gain"
    assert _verdict(PARENT, faster, shares={"parent": 0.02, "change": 0.01}) == "gain"
    assert _verdict(PARENT, [p * 1.3 for p in PARENT], shares={"parent": 0.02, "change": 0.0}) == "regression"


def test_module_line_counts_sum_to_the_total(tmp_path):
    package = tmp_path / "src" / "atomon"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "sub" / "b.py").write_text("\n\nz = 3")
    (package / "notes.txt").write_text("not a module\n")
    assert bench_pairs.module_lines(tmp_path) == {"a.py": 2, "sub/b.py": 3}
    counts = bench_pairs.module_lines(ROOT)
    files = sorted((ROOT / "src" / "atomon").rglob("*.py"))
    assert len(counts) == len(files)
    assert sum(counts.values()) == sum(sum(1 for _ in p.open(encoding="utf-8")) for p in files)
