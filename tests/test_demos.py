"""Smoke test: every walkthrough in demos/ runs to the end as a script."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert [p.stem for p in DEMOS] == [
        "free_products",
        "length_sets",
        "limits_colimits",
        "monoid_basics",
        "products",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
