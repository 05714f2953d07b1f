"""Acceptance gate: every criterion runs its verify suite at the stated
tolerance (exact, zero mismatches) and within its runtime target.

Run with `pytest tests/test_acceptance.py -v` for one line per criterion,
or `atomon verify --all` for the same checks through the CLI.
"""

import pytest

from atomon import verify
from atomon.errors import SearchBudgetExceededError
from atomon.verify import SUITES, cmd_verify

CRITERIA = [
    (1, "length-set oracle", ("length-oracle",), 10.0),
    (2, "coproduct length formula", ("coproduct-lengths",), 60.0),
    (3, "coproduct unions", ("coproduct-unions",), 60.0),
    (4, "coproduct unit/atom recognition", ("coproduct-recognition",), 30.0),
    (5, "product formulas", ("product-formulas", "product-unions"), 30.0),
    (6, "cancellativity preservation", ("preserved-properties",), 60.0),
    (7, "universal properties", ("universal-properties",), 120.0),
    (8, "coequalizer correctness", ("coequalizers",), 60.0),
    (9, "terminal object uniqueness", ("terminal-uniqueness",), 10.0),
    (10, "eventually periodic set arithmetic", ("epset-arithmetic",), 5.0),
]


@pytest.mark.parametrize(
    "number,label,suites,limit",
    CRITERIA,
    ids=[f"criterion_{n:02d}_{suites[0]}" for n, _, suites, _ in CRITERIA],
)
def test_acceptance_criterion(number, label, suites, limit):
    reports = [cmd_verify(suite, seed=0) for suite in suites]
    elapsed = sum(r.wall_time for r in reports)
    mismatches = [m for r in reports for m in r.mismatches]
    cases = sum(r.cases for r in reports)
    status = "PASS" if not mismatches and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number:2d} {label}: {status} ({cases} cases, {elapsed:.2f}s < {limit:.0f}s)")
    assert not mismatches, f"criterion {number} mismatches: {mismatches[:5]}"
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (target {limit}s)"


# module invariants not tied to a numbered criterion still must hold
INVARIANT_SUITES = (
    "core-axioms",
    "length-invariance",
    "coproduct-reduction",
    "coproduct-systems",
    "generator-oracles",
)


def test_remaining_invariant_suites():
    for suite in INVARIANT_SUITES:
        report = cmd_verify(suite, seed=0)
        print(f"INVARIANTS {suite}: {'PASS' if report.ok else 'FAIL'} ({report.cases} cases)")
        assert report.ok, f"{suite} mismatches: {report.mismatches[:5]}"


def test_every_verify_suite_is_gated():
    gated = {suite for _, _, suites, _ in CRITERIA for suite in suites} | set(INVARIANT_SUITES)
    assert gated == set(SUITES)


# cases each suite reports at seed 0; a suite that drops, doubles or adds a
# case shows here even when all its cases pass
CASES_AT_SEED_0 = {
    "coequalizers": 333,
    "coproduct-lengths": 306,
    "coproduct-recognition": 147,
    "coproduct-reduction": 4756,
    "coproduct-systems": 366,
    "coproduct-unions": 63,
    "core-axioms": 1400,
    "epset-arithmetic": 1600,
    "generator-oracles": 534,
    "length-invariance": 121,
    "length-oracle": 470,
    "preserved-properties": 60,
    "product-formulas": 276,
    "product-unions": 56,
    "terminal-uniqueness": 9,
    "universal-properties": 1637,
}


def test_case_counts_at_seed_0():
    assert {suite: cmd_verify(suite, seed=0).cases for suite in SUITES} == CASES_AT_SEED_0


def test_runner_counts_one_outcome_per_case(monkeypatch):
    def fake(rng, budget):
        yield None
        yield False
        yield "bad"

    monkeypatch.setitem(verify.SUITES, "fake", fake)
    report = cmd_verify("fake")
    assert (report.cases, report.mismatches) == (3, ["bad"])


def test_runner_propagates_a_suite_error(monkeypatch):
    def failing(rng, budget):
        yield None
        raise SearchBudgetExceededError(7)

    monkeypatch.setitem(verify.SUITES, "failing", failing)
    with pytest.raises(SearchBudgetExceededError):
        cmd_verify("failing")
