"""Count the bytecodes that warm atomon calls execute: a deterministic twin
of the wall times of bench/run.py.

    python3 tools/counts.py [--seed 0]

Prints one line per target: a warm ``verify.run_all(seed)``, the work that
the ``desk-verify`` workload's child process does after its start-up, and
one warm pass of each ``bench/jobs.py`` workload that has a set-up
(``tables``, ``free-products``) at ``--seed``, each followed by its count per
source file. Warm means that the same target ran once, untraced, just
before; a workload pass gets a fresh context, as in bench/run.py, so it
loads its inputs again.

A ``sys.settrace`` hook sets ``f_trace_opcodes`` on every frame the target
opens and counts its ``opcode`` events, keyed by the frame's
``co_filename``, so no library name is rebound. Work done in C (set and
dict operations, big-int arithmetic, ``sorted``) is not counted, so a count
stands beside seconds, never in place of them. The hook makes a target run
about ten times slower.

Standard library only. atomon is imported from ``src/`` of the checkout
that holds this file, and ``bench/`` is imported without writing bytecode,
so nothing is written there; the workload inputs go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import collections
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def count(call: Callable[[], object]) -> collections.Counter:
    """The opcodes that call() executes in the frames it opens, per source
    file. The hook that was installed before is restored afterwards."""
    counts: collections.Counter = collections.Counter()
    tracers = {}

    def tracer_for(filename: str):
        def local(frame, event, arg):
            if event == "opcode":
                counts[filename] += 1
            return local

        return local

    def opened(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        name = frame.f_code.co_filename
        local = tracers.get(name)
        if local is None:
            local = tracers[name] = tracer_for(name)
        return local

    previous = sys.gettrace()
    sys.settrace(opened)
    try:
        call()
    finally:
        sys.settrace(previous)
    return counts


def workload_pass(jobs: list, expected: type[Exception]) -> Callable[[], None]:
    """One pass of the jobs over a fresh context. A job that raises
    expected, as some must, ends only itself, as in bench/run.py."""

    def run() -> None:
        ctx: dict = {}
        for job in jobs:
            try:
                job.run(ctx)
            except expected:
                pass

    return run


def shown(filename: str) -> str:
    """filename relative to the checkout or to the standard library, where
    it lies in one."""
    path = Path(filename)
    for base in (ROOT, Path(sysconfig.get_paths()["stdlib"])):
        if base in path.parents:
            return path.relative_to(base).as_posix()
    return filename


def targets(seed: int, workdir: Path) -> dict[str, Callable[[], object]]:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import atomon.serialize  # the jobs read atomon's modules from sys.modules
    import atomon.verify
    import jobs
    from atomon.errors import AtomonError

    found = {f"verify.run_all({seed})": lambda: atomon.verify.run_all(seed)}
    for name, setup in jobs.SETUPS.items():
        found[f"{name} pass"] = workload_pass(setup(seed, workdir), AtomonError)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of run_all and of the workload inputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for label, call in targets(args.seed, Path(workdir)).items():
            call()
            counts = count(call)
            print(f"{label:<24} {sum(counts.values()):>14,}")
            for filename, n in counts.most_common():
                print(f"    {shown(filename):<36} {n:>14,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
