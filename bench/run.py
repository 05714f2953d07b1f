"""Benchmark of atomon: end-to-end pass time, set-up time and memory per
workload, or per-layer times and counts from a separately traced run.

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports atomon from ``src/`` there
and fails without printing a result when that is missing. Load is one
client in a closed loop: the next pass starts when the previous one ends,
with no threads; ``desk-verify`` runs one child process at a time, on the
same CPU as the client. Times are scaled to a reference host speed: a fixed
calibration loop runs between every two jobs, and each job's wall time is
multiplied by ``CAL_REF_S`` over the loop's mean time on either side of it
(see ``calibrate``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit. A fuller record, with the commit, Python version,
nproc, seed, input sizes and sample counts, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import jobs as jobs_mod
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tables", "free-products", "desk-verify")
SETUP_REPEATS = 9
# The calibration loop's time on the reference host; a scaled time is the
# wall time that host would have taken.
CAL_REF_S = 0.010


def calibrate() -> float:
    """Wall seconds of a fixed loop of dict, set, tuple and integer work,
    which no atomon code shares. The host this runs on changes speed by up to
    2x over seconds and minutes; a job's wall time over the loop's time
    around it stays put."""
    start = time.perf_counter()
    counts, seen, acc = {}, set(), 0
    for i in range(12000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
        seen.add(i * 7 % 1013)
        if i % 3 == 0:
            seen.discard(i * 5 % 1013)
        acc += i * i % 7
    sorted(counts.values())
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    return wall * CAL_REF_S * 2 / (before + after)


def pin_to_one_cpu() -> None:
    """Run the client, and the children it starts, on one CPU, so that the
    calibration measures the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_atomon(workload: str) -> None:
    """Import atomon afresh, as a new process would, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "atomon" or n.startswith("atomon.")]:
        del sys.modules[name]
    importlib.import_module("atomon.cli" if workload == "desk-verify" else "atomon.serialize")


def set_up(workload: str, seed: int) -> tuple[list | None, list[float], list[float]]:
    """Import atomon and build the seeded inputs, SETUP_REPEATS times.
    Returns the job list and each repeat's wall and scaled time."""
    workdir = OUT / "inputs" / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    walls, times, job_list = [], [], None
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_atomon(workload)
        if workload in jobs_mod.SETUPS:
            job_list = jobs_mod.SETUPS[workload](seed, workdir)
        walls.append(time.perf_counter() - start)
        gc.collect()  # free the copy this one replaced before timing the next
        cal, before = calibrate(), cal
        times.append(scaled(walls[-1], before, cal))
    loaded = Path(sys.modules["atomon"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"error: atomon was imported from {loaded}, not from {SRC}")
    return job_list, walls, times


class Client:
    """One closed-loop client: runs passes back to back and judges each."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = jobs_mod.load_reference()[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.job_times: dict[str, list[float]] = {}

    def run_pass(self, job_list, tracer=None) -> tuple[float, float, dict]:
        """One timed pass. Returns its wall time, its scaled time and, for
        desk-verify, the suite reports; for a traced pass, the per-layer
        summary too."""
        if self.workload == "desk-verify":
            return self._verify_pass(tracer is not None)
        ctx: dict = {}
        outcomes = []
        wall = norm = 0.0
        cal = calibrate()
        for job in job_list:
            if tracer is not None:
                tracer.job = job.name
            began = time.perf_counter()
            try:
                outcomes.append((job, job.run(ctx), None))
            except Exception as exc:  # judged below, like a wrong answer
                # without its traceback, which would keep this pass's frames alive
                outcomes.append((job, None, exc.with_traceback(None)))
            took = time.perf_counter() - began
            cal, before = calibrate(), cal
            wall += took
            norm += scaled(took, before, cal)
            self.job_times.setdefault(job.name, []).append(took)
        errors = sys.modules["atomon.errors"]
        for job, raw, exc in outcomes:
            self.attempted += 1
            if exc is not None:
                expected = getattr(errors, job.expect, None) if job.expect else None
                if expected is None or not isinstance(exc, expected):
                    self.failures.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
                continue
            try:
                problem = jobs_mod.mismatch(job, raw, self.reference)
            except Exception as exc:  # a malformed result is a wrong answer
                problem = f"could not read the result: {type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{job.name}: {problem}")
        return wall, norm, {}

    def _verify_pass(self, traced: bool) -> tuple[float, float, dict]:
        summary_path = OUT / f"{self.workload}-{self.seed}.summary.json" if traced else None
        if traced:
            summary_path.unlink(missing_ok=True)
        # A child pass is one job of about 2 s, so the host's speed on either
        # side of it is taken from three loops rather than one.
        before = statistics.mean(calibrate() for _ in range(3))
        start = time.perf_counter()
        code, stdout = jobs_mod.run_verify(self.seed, ROOT, summary_path)
        wall = time.perf_counter() - start
        norm = scaled(wall, before, statistics.mean(calibrate() for _ in range(3)))
        reports, failures = jobs_mod.verify_failures(code, stdout)
        self.attempted += len(self.reference["suites"])
        self.failures += failures
        extra = {"reports": reports}
        if traced and summary_path.is_file():
            extra["summary"] = json.loads(summary_path.read_text())
        return wall, norm, extra


def per_layer_names() -> list[str]:
    names = []
    for layer, funcs in spans.LAYERS.items():
        for fname in funcs:
            names += [f"{layer}.{fname}.self_s", f"{layer}.{fname}.calls"]
    names += [
        "core.new_monoid.elements",
        "core.new_monoid.rejects",
        "core.enumerate_homs.candidates",
        "core.enumerate_homs.found",
        "core.enumerate_homs.yield_ratio",
        "lengths.power_layers.preperiod",
        "lengths.power_layers.period",
        "lengths.length_system.entries",
        "coproduct.fp_length_system_bounded.entries",
        "coproduct.gamma_admissible.admit_ratio",
        "product.ap_length_system.entries",
        "limits.congruence_closure.classes",
        "limits.congruence_closure.merges",
    ]
    for suite in jobs_mod.load_reference()["desk-verify"]["suites"]:
        names += [f"verify.{suite}.wall_s", f"verify.{suite}.cases"]
    return names + ["cli.outside_suites_s", "trace.overhead_ratio", "trace.root_share", "src.lines"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced: list[tuple], traced: list[tuple]) -> dict[str, float]:
    """Per-pass values, each the median over the passes that measured it."""
    rows = []
    for wall, _, extra in traced:
        row = dict(extra.get("summary", {}))
        row["core.enumerate_homs.yield_ratio"] = ratio(
            row.get("core.enumerate_homs.found", 0), row.get("core.enumerate_homs.candidates", 0)
        )
        row["coproduct.gamma_admissible.admit_ratio"] = ratio(
            row.get("coproduct.gamma_admissible.admitted", 0), row.get("coproduct.gamma_admissible.calls", 0)
        )
        row["trace.root_share"] = ratio(row.get("trace.root_s", 0.0), wall)
        rows.append(row)
    for wall, _, extra in untraced:
        reports = extra.get("reports")
        if reports is None:
            continue
        row = {"cli.outside_suites_s": wall - sum(r.get("wall_time", 0.0) for r in reports)}
        for r in reports:
            row[f"verify.{r['suite']}.wall_s"] = r.get("wall_time", 0.0)
            row[f"verify.{r['suite']}.cases"] = r["cases"]
        rows.append(row)
    values = {}
    for name in per_layer_names():
        seen = [row[name] for row in rows if name in row]
        values[name] = statistics.median(seen) if seen else 0
    values["trace.overhead_ratio"] = ratio(
        statistics.median(n for _, n, _ in traced), statistics.median(n for _, n, _ in untraced)
    )
    values["src.lines"] = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "atomon").rglob("*.py")))
    return values


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "atomon" / "__init__.py").is_file():
        print(f"error: no atomon package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not jobs_mod.REFERENCE.is_file():
        print(f"error: missing {jobs_mod.REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    job_list, setup_walls, setup_times = set_up(args.workload, args.seed)
    client = Client(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    untraced: list[tuple] = []  # (wall, scaled, extra) per pass
    traced: list[tuple] = []
    last_spans: list = []
    start = time.perf_counter()
    while not untraced or (tracer is not None and not traced) or time.perf_counter() - start < args.seconds:
        if tracer is not None and len(traced) < len(untraced):
            if args.workload == "desk-verify":
                traced.append(client.run_pass(None, tracer))
            else:
                with tracer.installed():
                    wall, norm, _ = client.run_pass(job_list, tracer)
                last_spans = tracer.reset()
                traced.append((wall, norm, {"summary": spans.summarize(last_spans)}))
        else:
            untraced.append(client.run_pass(job_list))

    walls = [w for w, _, _ in untraced]
    norms = [n for _, n, _ in untraced]
    rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "desk-verify" else resource.RUSAGE_SELF
    ).ru_maxrss
    failed = len(client.failures)
    if args.trace:
        metrics = layer_metrics(untraced, traced)
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        metrics = {
            "pass_s": statistics.median(norms),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_kb / 1024,
        }
        samples = {"pass_s": len(norms), "setup_s": len(setup_times), "peak_rss_mb": 1}
    result = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "sizes": jobs_mod.SIZES[args.workload],
        "samples": samples,
        "cal_ref_s": CAL_REF_S,
        "pass_s_quartiles": statistics.quantiles(norms, n=4) if len(norms) > 1 else norms * 3,
        "pass_scaled": norms,
        "pass_walls": walls,
        "pass_wall_median_s": statistics.median(walls),
        "traced_walls": [w for w, _, _ in traced],
        "setup_times": setup_times,
        "setup_walls": setup_walls,
        "job_medians_s": {name: statistics.median(ts) for name, ts in client.job_times.items()},
        "attempted": client.attempted,
        "failed": failed,
        "failed_ratio": failed / client.attempted,
        "failures": client.failures[:20],
        "metrics": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if last_spans:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(last_spans))

    print(f"atomon benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {record['python']}, nproc {record['nproc']}, commit {record['commit'][:12]}")
    for name, entry in result.items():
        count = samples.get(name)
        note = f"  (median of {count})" if count and count > 1 else ""
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}{note}")
    if not args.trace:
        print(f"  {'(pass wall time, unscaled)':48s} {record['pass_wall_median_s']:.6g} s")
    print(f"  {'failed_ratio':48s} {record['failed_ratio']:.6g} ratio  ({failed} of {client.attempted} jobs)")
    for line in client.failures[:20]:
        print(f"  FAILED {line}")
    print(f"  record: {OUT.name}/{stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted, "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
