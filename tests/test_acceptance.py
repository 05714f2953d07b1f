"""Acceptance gate: every criterion runs its verify suite at the stated
tolerance (exact, zero mismatches) and within its runtime target.

Run with `pytest tests/test_acceptance.py -v` for one line per criterion,
or `atomon verify --all` for the same checks through the CLI.
"""

import json

import pytest

from atomon import oracles, verify
from atomon.cli import main
from atomon.errors import SearchBudgetExceededError, ValidationError
from atomon.limits import coequalizer
from atomon.verify import COPRODUCT_FAMILIES, SUITES, cmd_verify

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
    "core-axioms": 1599,
    "epset-arithmetic": 1600,
    "generator-oracles": 534,
    "length-invariance": 121,
    "length-oracle": 470,
    "preserved-properties": 60,
    "product-formulas": 276,
    "product-unions": 56,
    "terminal-uniqueness": 9,
    "universal-properties": 1653,
}


def test_case_counts_at_seed_0():
    assert {suite: cmd_verify(suite, seed=0).cases for suite in SUITES} == CASES_AT_SEED_0


def test_runner_counts_one_outcome_per_case(monkeypatch):
    def fake(value, rng, budget):
        yield None
        yield False
        yield f"bad {value}"

    monkeypatch.setitem(verify.SUITES, "fake", ((lambda rng: [("first", 1), ("second", 2)], fake),))
    report = cmd_verify("fake")
    assert (report.cases, report.mismatches) == (6, ["first: bad 1", "second: bad 2"])


def _raise_on_the_first_coequalizer(monkeypatch) -> list:
    """Make verify's ``coequalizer`` raise on its first call, and return the
    list that receives that call's pair of homs."""
    first = []

    def planted(f, g):
        if not first:
            first.append((f, g))
            raise ValidationError("planted")
        return coequalizer(f, g)

    monkeypatch.setattr(verify, "coequalizer", planted)
    return first


def test_runner_counts_a_raising_input_as_one_mismatch(monkeypatch):
    first = _raise_on_the_first_coequalizer(monkeypatch)
    report = cmd_verify("coequalizers", seed=0)
    [(f, g)] = first
    label = f"coequalizer of {f.map}, {g.map}: h2->h2"
    assert report.mismatches == [f"{label}: raised ValidationError: planted"]
    # the pick would have given one case for atomicity, one per element of
    # the target and two for the closure; the raise is one case in their place
    assert report.cases == CASES_AT_SEED_0["coequalizers"] - (3 + f.target.size) + 1


def test_verify_all_reports_every_suite_when_a_check_raises(monkeypatch, capsys):
    first = _raise_on_the_first_coequalizer(monkeypatch)
    assert main(["verify", "--all"]) == 1
    out, err = capsys.readouterr()
    headers = [line for line in out.splitlines() if line.startswith("suite ")]
    assert [h.split(":")[0] for h in headers] == [f"suite {name}" for name in sorted(SUITES)]
    cases = CASES_AT_SEED_0["coequalizers"] - (3 + first[0][0].target.size) + 1
    assert headers[0] == f"suite coequalizers: {cases} cases, 1 mismatch(es)"
    assert all(h.endswith(", ok") for h in headers[1:])
    assert "error:" not in out + err


def test_verify_all_counts_a_raise_while_drawing_inputs_as_one_mismatch(monkeypatch, capsys):
    # _random_eps draws the inputs of the first two parts of epset-arithmetic;
    # each part's raise is one case, and the third part runs
    def planted(rng):
        raise ValidationError("planted")

    monkeypatch.setattr(verify, "_random_eps", planted)
    report = cmd_verify("epset-arithmetic", seed=0)
    assert report.mismatches == [
        f"inputs of {check}: raised ValidationError: planted" for check in ("_eps_operations", "_eps_sum_many")
    ]
    assert report.cases == 2 + 3 * 20  # the 20 draws of _eps_draws give three cases each
    assert main(["verify", "--all"]) == 1
    out, err = capsys.readouterr()
    headers = [line for line in out.splitlines() if line.startswith("suite ")]
    assert [h.split(":")[0] for h in headers] == [f"suite {name}" for name in sorted(SUITES)]
    assert f"suite epset-arithmetic: {report.cases} cases, 2 mismatch(es)" in headers
    assert "error:" not in out + err


def test_verify_names_each_family_whose_oracle_runs_out_of_budget(capsys):
    def runs_out(names):
        fam = verify._family(names)
        try:
            for w in oracles.reduced_words_upto(fam, 3):
                oracles.fp_brute_force_lengths(fam, w, 10, budget=5)
        except SearchBudgetExceededError:
            return True
        return False

    assert main(["verify", "--suite", "coproduct-lengths", "--budget", "5", "--json"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    raised = ": raised SearchBudgetExceededError: search budget of 5 expansions exceeded"
    assert all(m.endswith(raised) for m in report["mismatches"])
    named = [m[: -len(raised)] for m in report["mismatches"]]
    assert named == [str(names) for names in COPRODUCT_FAMILIES if runs_out(names)] and named
