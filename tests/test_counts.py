"""tools/counts.py counts the bytecodes a call executes, and the count is
deterministic: the same call on fresh inputs counts the same twice, file by
file, and the hook that was installed before is back afterwards."""

import importlib.util
import sys
from pathlib import Path

from atomon.coproduct import Family, fp_union_k
from atomon.core import new_monoid
from atomon.lengths import union_k

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
