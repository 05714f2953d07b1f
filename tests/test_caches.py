"""Caches stay on the instances they describe.

Every table the library memoizes (units, atoms, length sets, the U_k tables,
the free-product letter tables, union DP and pair sums) lives in a container
made when the monoid or family it belongs to is built (``FiniteMonoid._memo``,
the family's fields), so each new object, each CLI call and each benchmark
pass starts cold. A module-level ``functools.cache`` or ``lru_cache`` would
keep answers warm across all of them and hide what a computation costs. The
test reads every library module with ``ast``; ``cli``, ``verify`` and
``oracles`` drive and check the library and may keep their own.
"""

import ast
from pathlib import Path

import pytest

import atomon
from atomon import coproduct
from atomon.coproduct import Family, fp_union_k
from atomon.fixtures import c2, m31, one

SRC = Path(atomon.__file__).resolve().parent
EXEMPT = {"cli", "verify", "oracles"}
CACHES = {"cache", "lru_cache"}


def _cache_uses(tree) -> list[int]:
    """Line numbers where the module imports or reads functools' caches."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem not in EXEMPT), ids=lambda p: p.stem)
def test_library_modules_keep_no_module_level_cache(path):
    assert _cache_uses(ast.parse(path.read_text())) == []


def test_the_check_sees_both_spellings():
    source = "import functools\nfrom functools import lru_cache\n\n@functools.cache\ndef f(): pass\n"
    assert _cache_uses(ast.parse(source)) == [2, 4]


def test_a_new_family_over_the_same_members_sums_again(monkeypatch):
    members = (one(), m31(), c2())
    fp_union_k(Family(members), 7)
    calls = []
    real = coproduct.eps_sum_many
    monkeypatch.setattr(coproduct, "eps_sum_many", lambda parts: calls.append(parts) or real(parts))
    fam = Family(members)
    assert fam._pair_sums == {}
    fp_union_k(fam, 7)
    assert calls and len(fam._pair_sums) == len(calls)
