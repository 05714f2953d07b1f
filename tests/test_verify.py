"""The free-product verify suites still catch a planted fault, and build each
definition's set once.

A fault is planted by monkeypatching a name that ``verify`` imports, so only
the suites see it. The call counts are deterministic at seed 0: each bound
below fails for a suite that rescans its definition per case.
"""

import functools
import sys
import types

import pytest

from atomon import coproduct, core, lengths, limits, oracles, product, verify
from atomon.lengths import EPSet, LengthSystem, eps_finite, eps_minkowski_sum
from atomon.verify import COPRODUCT_FAMILIES, RECOGNITION_FAMILIES, UNION_FAMILIES, cmd_verify

from test_acceptance import CASES_AT_SEED_0


def _patch(monkeypatch, name, fault):
    """Replace verify's ``name`` by fault(real, *args)."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: fault(real, *args))


def _count_calls(monkeypatch, name, suite) -> int:
    calls = 0

    def counted(real, *args):
        nonlocal calls
        calls += 1
        return real(*args)

    _patch(monkeypatch, name, counted)
    report = cmd_verify(suite, seed=0)
    assert report.ok and report.cases == CASES_AT_SEED_0[suite]
    return calls


def _word_counts(families, max_len: int) -> list[int]:
    return [len(list(oracles.reduced_words_upto(verify._family(names), max_len))) for names in families]


def test_recognition_reports_a_negated_atom_test(monkeypatch):
    _patch(monkeypatch, "fp_is_atom", lambda real, fam, w: not real(fam, w))
    report = cmd_verify("coproduct-recognition", seed=0)
    assert report.cases == CASES_AT_SEED_0["coproduct-recognition"]
    assert any("atom test disagrees" in m for m in report.mismatches)


def test_systems_report_an_entry_no_short_word_realizes(monkeypatch):
    ghost = EPSet(1000, (), 1, (0,))
    _patch(
        monkeypatch,
        "fp_length_system_bounded",
        lambda real, fam, max_blocks: LengthSystem(real(fam, max_blocks).entries | {ghost}, max_blocks),
    )
    report = cmd_verify("coproduct-systems", seed=0)
    # the ghost is one more entry, so one more realization case, per family
    assert report.cases == CASES_AT_SEED_0["coproduct-systems"] + len(COPRODUCT_FAMILIES)
    unrealized = [m for m in report.mismatches if "is not realized" in m]
    assert len(unrealized) == len(COPRODUCT_FAMILIES)
    assert all(repr(ghost) in m for m in unrealized)


def test_unions_report_shifted_length_sets(monkeypatch):
    _patch(monkeypatch, "fp_length_set", lambda real, fam, w: eps_minkowski_sum(real(fam, w), eps_finite([1])))
    report = cmd_verify("coproduct-unions", seed=0)
    assert report.cases == CASES_AT_SEED_0["coproduct-unions"]
    assert any("vs enumerated" in m for m in report.mismatches)


def test_recognition_multiplies_pairs_of_words_not_triples(monkeypatch):
    # the unit test may try both products of each pair of words, and the
    # products of two non-units are formed once: 3·Σ|W|² = 4,845, where a
    # rescan per word makes 8,711
    bound = 3 * sum(n * n for n in _word_counts(RECOGNITION_FAMILIES, 3))
    assert _count_calls(monkeypatch, "fp_mul", "coproduct-recognition") <= bound


def test_unions_take_one_length_set_per_word(monkeypatch):
    # the 1,012 words of at most 4 letters, where one pass per k makes 1,527
    expected = sum(_word_counts(UNION_FAMILIES, 4))
    assert _count_calls(monkeypatch, "fp_length_set", "coproduct-unions") == expected


def test_systems_stop_once_every_entry_is_realized(monkeypatch):
    # fewer than the 2,878 words of at most 5 letters, where reading them
    # all, after the words of at most 3 letters, makes 3,166
    bound = sum(_word_counts(COPRODUCT_FAMILIES, 5))
    assert _count_calls(monkeypatch, "fp_length_set", "coproduct-systems") < bound


@pytest.mark.parametrize("budget, cases, mismatches", [(0, 13, 6), (10, 17, 6), (100, 207, 1), (1000, 306, 0)])
def test_search_budget_outcomes_of_coproduct_lengths(budget, cases, mismatches):
    # each family's first search over budget ends its input as one raising
    # case, so these counts move with any change to what a search charges
    report = cmd_verify("coproduct-lengths", seed=0, budget=budget)
    assert (report.cases, len(report.mismatches)) == (cases, mismatches)
    assert all(m.endswith(f"search budget of {budget} expansions exceeded") for m in report.mismatches)


# public callables no verify suite enters, each with the reason it is not
# yet under an oracle; an entry whose callable a suite starts to enter fails
# the test below and must be removed
NOT_ENTERED_BY_VERIFY: dict[str, str] = {}


def _public_callables():
    """(module.qualname, code) for each public function, and each public
    method, property or ``__call__`` of a public class, that the module
    defines. Dataclass-generated dunders are left out with the rest of the
    dunders."""
    for mod in (core, lengths, coproduct, product, limits):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                yield f"{short}.{name}", obj.__code__
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else member
                    if isinstance(member, types.FunctionType) and (not attr.startswith("_") or attr == "__call__"):
                        yield f"{short}.{name}.{attr}", member.__code__


def test_verify_all_enters_every_public_callable(monkeypatch):
    # fresh fixture caches, so every fixture is built under the profile, as
    # in a new process
    for name in ("_named_fixtures", "_random_monoid", "_cyclic", "_hom_list"):
        monkeypatch.setattr(verify, name, functools.cache(getattr(verify, name).__wrapped__))
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        verify.run_all(seed=0)
    finally:
        sys.setprofile(None)
    missed = {name for name, code in _public_callables() if code not in entered}
    assert missed == set(NOT_ENTERED_BY_VERIFY)
