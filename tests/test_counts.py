"""tools/counts.py counts the bytecodes a call executes, and the count is
deterministic: the same call on fresh inputs counts the same twice, file by
file, and the hook that was installed before is back afterwards. Its
targets hold one count per verify suite, and each also gets its traced
memory peak."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

from atomon.coproduct import Family, fp_union_k
from atomon.core import new_monoid
from atomon.lengths import union_k
from atomon.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("counts", ROOT / "tools" / "counts.py")
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)


def fixed_call():
    # fresh monoids, so no cache carries over from one count to the next
    three = new_monoid(("1", "a", "0"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)
    c2 = new_monoid(("1", "u"), ((0, 1), (1, 0)), 0)
    return union_k(three, 4), fp_union_k(Family([three, c2]), 4)


def test_two_counts_of_a_fixed_call_agree():
    fixed_call()
    before = sys.gettrace()
    first, second = counts.count(fixed_call), counts.count(fixed_call)
    assert sys.gettrace() is before
    assert first == second
    assert {"core.py", "lengths.py", "coproduct.py"} <= {Path(name).name for name in first}
    assert sum(first.values()) > 1000


def test_the_peak_of_a_small_call_is_a_positive_int_and_tracing_stays_as_it_was():
    fixed_call()
    tracing = tracemalloc.is_tracing()
    peak = counts.peak(fixed_call)
    assert type(peak) is int and peak > 0
    assert tracemalloc.is_tracing() is tracing


def test_targets_count_every_verify_suite_under_run_all(tmp_path, monkeypatch):
    # the targets are built, not run; targets() puts src/ and bench/ on the
    # path and writes no bytecode, both undone here
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    labels = list(counts.targets(0, tmp_path))
    assert labels[: len(SUITES) + 1] == ["verify.run_all(0)"] + [f"  {name}" for name in SUITES]
