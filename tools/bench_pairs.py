"""Write a BENCH_<n>.json file: end-to-end benchmark metrics of two commits,
measured in alternating pairs of runs.

    python3 tools/bench_pairs.py --number 22 --parent af79e4e --change HEAD \
        --seed 31 --note "what the change does"

Each commit is exported with ``git archive`` into its own temporary
directory, so only its committed files are measured; the directories are
removed at the end. For every workload of ``BENCHMARK.json``, pair i of 10
runs ``bench/run.py --workload W --seed S --seconds N --trace 0``, N the
file's ``run_seconds``, once in each export, with
``PYTHONDONTWRITEBYTECODE=1``: the parent first in odd pairs (1, 3, ...) and
the change first in even ones. A run's value per end-to-end metric is the
one bench/run.py reports (a median over its passes, or a peak). The file
holds, per workload and metric, both sides' runs with their median and
quartiles (``statistics.quantiles``, exclusive method), the number of pairs
in which the change is better, the change of the median in percent and a
verdict (see ``verdict``), together with the commits, the Python version,
the host and the ``src/atomon`` line counts. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(commit: str, into: Path) -> None:
    """The committed files of commit, extracted into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src" / "atomon").rglob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree: its end-to-end metric values, and the
    attempted and failed job counts and the number of timed passes from its
    record."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"bench/run.py printed nothing in {tree}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    out = {name: metric["value"] for name, metric in result["metrics"].items()}
    out.update(attempted=record["attempted"], failed=record["failed"], passes=record["samples"]["pass_s"])
    return out


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sides = {"parent": summary(parent), "change": summary(change)}
    before, after = sides["parent"]["median"], sides["change"]["median"]
    sign = 1 if better == "lower" else -1
    return {
        **sides,
        "change_better_pairs": sum(sign * c < sign * p for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_change_pct": round((after - before) / before * 100, 6),
    }


def failed_shares(failed: dict, attempted: dict) -> dict:
    """Each side's share of failed operations, from a workload's summed
    ``failed`` and ``attempted`` counts; 0 for a side that attempted none."""
    return {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in attempted}


def verdict(entry: dict, better: str, bound: float, shares: dict) -> str:
    """One metric's verdict from its ``compare`` entry, with the metric's
    ``better`` direction and relative ``bound`` from BENCHMARK.json, and the
    workload's ``failed_shares``:

    - "more failures": the change fails a larger share of its operations
      than the parent; its timings then cover other work, so no other
      verdict is given;
    - "gain": the change is better in at least 9 of 10 pairs, and its median
      is better than the parent's by more than the parent's interquartile
      range;
    - "regression": the change's median is worse than the parent's by more
      than bound times the parent's median;
    - "unresolved": the parent's interquartile range is wider than bound
      times its median, unless every change run beats every parent run;
    - "no regression" otherwise.
    """
    if shares["change"] > shares["parent"]:
        return "more failures"
    parent, change = entry["parent"], entry["change"]
    sign = 1 if better == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    if 10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and gain > spread:
        return "gain"
    if -gain > bound * parent["median"]:
        return "regression"
    beats_all = all(sign * c < sign * p for c in change["runs"] for p in parent["runs"])
    if spread > bound * parent["median"] and not beats_all:
        return "unresolved"
    return "no regression"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", required=True, type=int, help="n in BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="the commit measured as the parent")
    parser.add_argument("--change", default="HEAD", help="the commit measured as the change")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--note", required=True, help="one line saying what the change does")
    parser.add_argument("--dev-seeds", type=int, nargs="*", default=[], help="seeds used while developing the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    commits = {side: git("rev-parse", rev).decode().strip() for side, rev in (("parent", args.parent), ("change", args.change))}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in commits}
        for side, tree in trees.items():
            export(commits[side], tree)
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_once(trees[side], workload, args.seed, seconds))
                    print(workload, i + 1, side, runs[side][-1], file=sys.stderr, flush=True)
            counts = {c: {side: sum(r[c] for r in runs[side]) for side in runs} for c in ("failed", "attempted")}
            shares = failed_shares(counts["failed"], counts["attempted"])
            entry = {}
            for m in spec["end_to_end"]:
                metric = compare(*([r[m["name"]] for r in runs[s]] for s in ("parent", "change")), m["better"])
                entry[m["name"]] = {**metric, "verdict": verdict(metric, m["better"], m["bound"], shares)}
            entry.update(counts)
            entry["passes_per_run"] = {side: [r["passes"] for r in runs[side]] for side in runs}
            workloads[workload] = entry
        lines = {side: src_lines(tree) for side, tree in trees.items()}

    bench = {
        "change": args.note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "python": platform.python_version(),
        "host": f"{platform.system().lower()} {platform.machine()}, nproc {os.cpu_count()}, "
        "each run pinned to one CPU by bench/run.py",
        "src_atomon_lines": lines,
        "method": f"python3 bench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0, "
        "run from a git archive export of each commit with PYTHONDONTWRITEBYTECODE=1 by tools/bench_pairs.py; "
        f"{PAIRS} pairs per workload, parent first in odd pairs and the change first in even ones. Each run's "
        "value is bench/run.py's own median (pass_s, setup_s) or peak (peak_rss_mb); median, q1 and q3 below are "
        f"over the {PAIRS} runs of each side. Each metric's verdict follows the rules of verdict() in "
        "tools/bench_pairs.py, with the metric's bound from BENCHMARK.json.",
        "seeds": {"claimed_runs": args.seed, "used_during_development": args.dev_seeds},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
