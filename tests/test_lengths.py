import random

import pytest

from atomon import (
    EMPTY,
    ZERO_ONLY,
    brute_force_lengths,
    eps_cofinite,
    eps_finite,
    eps_from_window,
    eps_intersect,
    eps_minkowski_sum,
    eps_sum_many,
    eps_union,
    length_set,
    length_system,
    power_layers,
    union_k,
)
from atomon.core import atoms, units
from atomon.errors import PeriodViolatedError, WindowTooShortError
from atomon.fixtures import c2, h2, m31, one, random_monoid, sl2, zero
from atomon.lengths import _canonical


def members(s, bound=40):
    return s.members_upto(bound)


# --- canonical form ---------------------------------------------------------


def test_canonical_minimizes_period_and_threshold():
    # evens from 2, described wastefully with period 4 and threshold 6
    s = _canonical(6, {2, 4}, 4, {0, 2})
    assert s.period == 2 and s.threshold == 1
    assert members(s, 10) == [2, 4, 6, 8, 10]


def test_canonical_finite_sets_have_unit_period():
    s = _canonical(9, {1, 5}, 3, ())
    assert s == eps_finite({1, 5})
    assert s.period == 1 and s.threshold == 6 and s.tail == frozenset()


def test_structural_equality_is_extensional():
    a = _canonical(4, {2}, 2, {0})
    b = _canonical(2, {}, 2, {0})
    assert a == b and hash(a) == hash(b)
    assert eps_finite(()) == EMPTY
    assert eps_finite({0}) == ZERO_ONLY


def test_random_round_trip_window(seeded_rng=random.Random(7)):
    for _ in range(200):
        t = seeded_rng.randint(0, 8)
        p = seeded_rng.randint(1, 8)
        s = _canonical(
            t,
            {n for n in range(t) if seeded_rng.random() < 0.5},
            p,
            {r for r in range(p) if seeded_rng.random() < 0.4},
        )
        bits = [n in s for n in range(s.threshold + 3 * s.period)]
        again = eps_from_window(bits, s.period, s.threshold)
        assert again == s


# --- window construction ----------------------------------------------------


def test_from_window_examples():
    cofinite = eps_from_window([n >= 2 for n in range(8)], 1, 2)
    assert cofinite == eps_cofinite(2)
    singleton = eps_from_window([n == 1 for n in range(8)], 1, 2)
    assert singleton == eps_finite({1})
    evens = eps_from_window([n >= 2 and n % 2 == 0 for n in range(10)], 2, 2)
    assert members(evens, 8) == [2, 4, 6, 8]


def test_from_window_errors():
    with pytest.raises(WindowTooShortError):
        eps_from_window([True] * 3, 2, 2)
    with pytest.raises(PeriodViolatedError):
        eps_from_window([False, False, True, False, False, False, False, False], 1, 2)


# --- set algebra -------------------------------------------------------------


def test_union_intersect_examples():
    k2 = eps_cofinite(2)
    assert eps_intersect(k2, eps_finite({1})) == EMPTY
    assert eps_union(k2, eps_finite({2})) == k2
    evens = _canonical(2, (), 2, (0,))
    assert members(eps_intersect(evens, eps_cofinite(3)), 10) == [4, 6, 8, 10]


def test_minkowski_examples():
    assert eps_minkowski_sum(eps_finite({1}), eps_finite({1})) == eps_finite({2})
    k2 = eps_cofinite(2)
    assert eps_minkowski_sum(ZERO_ONLY, k2) == k2
    assert eps_minkowski_sum(k2, k2) == eps_cofinite(4)
    assert eps_minkowski_sum(k2, EMPTY) == EMPTY
    assert eps_sum_many([]) == ZERO_ONLY


def test_eps_algebra_laws():
    rng = random.Random(11)
    sets = [
        _canonical(
            rng.randint(0, 6),
            {n for n in range(6) if rng.random() < 0.5},
            rng.randint(1, 6),
            {r for r in range(6) if rng.random() < 0.4},
        )
        for _ in range(12)
    ]
    for a in sets:
        assert eps_union(a, EMPTY) == a
        assert eps_intersect(a, EMPTY) == EMPTY
        assert eps_minkowski_sum(a, EMPTY) == EMPTY
        for b in sets:
            assert eps_union(a, b) == eps_union(b, a)
            assert eps_intersect(a, b) == eps_intersect(b, a)
            assert eps_minkowski_sum(a, b) == eps_minkowski_sum(b, a)


# --- layers and length sets --------------------------------------------------


def test_power_layers_examples():
    seq = power_layers(one())
    assert seq.layers == (frozenset({1}), frozenset({2}))
    assert (seq.preperiod, seq.period) == (2, 1)

    seq = power_layers(c2())
    assert seq.layers == (frozenset(),)
    assert (seq.preperiod, seq.period) == (1, 1)

    seq = power_layers(m31())
    assert seq.layers == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert (seq.preperiod, seq.period) == (3, 1)


def test_power_layers_cycle_certificate():
    for m in (one(), c2(), h2(), m31(), sl2(), random_monoid(3)):
        seq = power_layers(m)
        ats = sorted(atoms(m))
        layer = seq.layer(seq.preperiod)
        for _ in range(seq.period):
            layer = frozenset(m.mul(x, a) for x in layer for a in ats)
        assert layer == seq.layer(seq.preperiod)


def test_length_set_terminal_monoid():
    m = one()
    assert length_set(m, 0) == ZERO_ONLY
    assert length_set(m, 1) == eps_finite({1})
    assert length_set(m, 2) == eps_cofinite(2)


def test_length_set_units_are_empty():
    m = c2()
    assert length_set(m, 0) == ZERO_ONLY
    assert length_set(m, 1) == EMPTY


def test_length_system_examples():
    entries = set(length_system(one()).entries)
    assert entries == {ZERO_ONLY, eps_finite({1}), eps_cofinite(2)}
    assert set(length_system(c2(), nonzero_only=True).entries) == set()
    assert set(length_system(zero()).entries) == {ZERO_ONLY}


def test_union_k_examples():
    m = one()
    assert union_k(m, 1) == eps_finite({1})
    assert union_k(m, 3) == eps_cofinite(2)
    for fixture in (zero(), one(), c2(), h2(), m31()):
        assert union_k(fixture, 0) == ZERO_ONLY


def test_only_identity_length_set_contains_zero():
    for m in (zero(), one(), c2(), h2(), m31(), sl2(), random_monoid(5)):
        for x in range(m.size):
            if x != m.identity:
                assert 0 not in length_set(m, x)


def test_brute_force_examples():
    m = one()
    assert brute_force_lengths(m, 2, 5) == {2, 3, 4, 5}
    assert brute_force_lengths(m, 1, 5) == {1}
    assert brute_force_lengths(c2(), 1, 5) == set()


def test_length_set_matches_oracle_on_fixtures():
    mons = [zero(), one(), c2(), h2(), m31(), sl2()]
    mons += [random_monoid(i) for i in range(6)]
    for m in mons:
        for x in range(m.size):
            assert set(length_set(m, x).members_upto(12)) == brute_force_lengths(m, x, 12)


def test_unit_translation_invariance():
    for m in (one(), c2(), h2(), m31()):
        for u in units(m):
            for v in units(m):
                for x in range(m.size):
                    if x in units(m):
                        continue
                    assert length_set(m, m.mul(m.mul(u, x), v)) == length_set(m, x)


def test_minkowski_against_window_convolution():
    rng = random.Random(23)
    for _ in range(120):
        a = _canonical(
            rng.randint(0, 8),
            {n for n in range(8) if rng.random() < 0.5},
            rng.randint(1, 8),
            {r for r in range(8) if rng.random() < 0.4},
        )
        b = _canonical(
            rng.randint(0, 8),
            {n for n in range(8) if rng.random() < 0.5},
            rng.randint(1, 8),
            {r for r in range(8) if rng.random() < 0.4},
        )
        direct = {
            x + y for x in members(a, 60) for y in members(b, 60) if x + y <= 60
        }
        assert set(eps_minkowski_sum(a, b).members_upto(60)) == direct
