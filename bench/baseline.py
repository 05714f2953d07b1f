"""Time each layer at the sizes of the ROADMAP's baseline table and rewrite
that table in bench/NOTES.md.

    python3 bench/baseline.py

Run from the root of a checkout. Each row is the median wall time of three
calls on freshly built inputs (the per-instance caches start empty), and it
takes a few minutes in all.
"""

from __future__ import annotations

import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import builders  # noqa: E402
import jobs  # noqa: E402
from atomon import coproduct, core, lengths, limits  # noqa: E402
from atomon.serialize import eps_from_json  # noqa: E402

NOTES = HERE / "NOTES.md"
REPEATS = 3


def family():
    return coproduct.Family([core.new_monoid(*builders.MEMBERS[name]) for name in ("one", "m31", "c2")])


def validate(raw):
    return lambda: core.new_monoid(*raw)


def congruence(n):
    m = core.new_monoid(*builders.monogenic(n))
    return lambda: limits.congruence_closure(m, [(2, 4)])


def homs(n):
    source, target = core.new_monoid(*builders.monogenic(n)), core.new_monoid(*builders.monogenic(n))
    return lambda: tuple(core.enumerate_homs(source, target))


def union_k(k):
    f = family()
    return lambda: coproduct.fp_union_k(f, k)


def system(blocks):
    f = family()
    return lambda: coproduct.fp_length_system_bounded(f, blocks)


def minkowski():
    a, b = eps_from_json(jobs.BIG_A), eps_from_json(jobs.BIG_B)
    return lambda: lengths.eps_minkowski_sum(a, b)


def length_system(raw):
    m = core.new_monoid(*raw)
    return lambda: lengths.length_system(m)


# (layer, input, set-up returning the call to time). The set-up runs untimed
# before each call, so every call starts on a new monoid with empty caches.
ROWS = [
    ("new_monoid", "T_4, n=256", lambda: validate(builders.full_transformation(4))),
    ("new_monoid", "<11,12> cut at 400, n=346", lambda: validate(builders.numerical_semigroup(11, 400))),
    ("congruence_closure", "pair (2,4), monogenic n=180", lambda: congruence(180)),
    ("congruence_closure", "pair (2,4), monogenic n=346", lambda: congruence(346)),
    ("enumerate_homs", "monogenic 7 -> 7", lambda: homs(7)),
    ("enumerate_homs", "monogenic 8 -> 8", lambda: homs(8)),
    ("fp_union_k", "family (one, m31, c2), k=6", lambda: union_k(6)),
    ("fp_union_k", "family (one, m31, c2), k=8", lambda: union_k(8)),
    ("fp_length_system_bounded", "same family, 4 blocks", lambda: system(4)),
    ("fp_length_system_bounded", "same family, 5 blocks", lambda: system(5)),
    ("eps_minkowski_sum", "periods 97 and 89", minkowski),
    ("length_system", "<11,12> cut at 400, n=346", lambda: length_system(builders.numerical_semigroup(11, 400))),
]


def measure(factory) -> float:
    times = []
    for _ in range(REPEATS):
        call = factory()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def seconds(value: float) -> str:
    return f"{value:.3f} s" if value >= 0.1 else f"{value * 1000:.1f} ms"


def main() -> int:
    lines = [
        "| layer | input | median of 3 |",
        "|---|---|---|",
    ]
    for layer, label, factory in ROWS:
        value = measure(factory)
        lines.append(f"| `{layer}` | {label} | {seconds(value)} |")
        print(lines[-1], flush=True)
    lines.append("")
    lines.append(
        f"Python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}, "
        f"src/atomon {sum(len(p.read_text().splitlines()) for p in (HERE.parent / 'src' / 'atomon').rglob('*.py'))} lines."
    )
    text = NOTES.read_text()
    new = re.sub(
        r"(<!-- baseline:start -->\n).*?(<!-- baseline:end -->)",
        lambda m: m.group(1) + "\n".join(lines) + "\n" + m.group(2),
        text,
        flags=re.S,
    )
    NOTES.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
