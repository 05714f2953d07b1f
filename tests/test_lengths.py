import copy
import functools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomon import (
    EMPTY,
    ZERO_ONLY,
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
from atomon.errors import PeriodViolatedError, ValidationError, WindowTooShortError
from atomon.fixtures import c2, cyclic, h2, m31, one, random_monoid, sl2, zero
from atomon.lengths import EPSet, _least_period, _mask, _normalize
from atomon.oracles import brute_force_lengths, union_k_by_fold
from test_generators import full_transformation_3


def members(s, bound=40):
    return s.members_upto(bound)


# --- canonical form ---------------------------------------------------------


def test_canonical_minimizes_period_and_threshold():
    # evens from 2, described wastefully with period 4 and threshold 6
    s = EPSet(6, {2, 4}, 4, {0, 2})
    assert s.period == 2 and s.threshold == 1
    assert members(s, 10) == [2, 4, 6, 8, 10]


def test_canonical_finite_sets_have_unit_period():
    s = EPSet(9, {1, 5}, 3, ())
    assert s == eps_finite({1, 5})
    assert s.period == 1 and s.threshold == 6 and s.tail == frozenset()


def test_structural_equality_is_extensional():
    a = EPSet(4, {2}, 2, {0})
    b = EPSet(2, {}, 2, {0})
    assert a == b and hash(a) == hash(b)
    assert eps_finite(()) == EMPTY
    assert eps_finite({0}) == ZERO_ONLY


def test_copies_and_pickles_are_equal_sets():
    # a monoid caches its length sets, so copying it copies EPSets
    m = m31()
    sets = [length_set(m, x) for x in range(m.size)]
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert clone(sets) == sets
        assert [length_set(clone(m), x) for x in range(m.size)] == sets


def test_equal_sets_built_any_way_hash_alike():
    # the hash is computed once, when the set is built, from its four fields
    built = EPSet(4, {0, 2}, 3, {2})
    clones = [
        EPSet(7, {0, 2, 5}, 6, {2, 5}),
        eps_from_window([n in built for n in range(20)], 3, 1),
        copy.copy(built),
        copy.deepcopy(built),
        pickle.loads(pickle.dumps(built)),
    ]
    fields = (built.threshold, built._head, built.period, built._tail)
    for s in clones:
        assert s == built and hash(s) == hash(built) == hash(fields)


def test_membership_and_positivity_edges():
    assert -1 not in eps_cofinite(0) and -1 not in ZERO_ONLY
    assert not ZERO_ONLY.has_positive() and not EMPTY.has_positive()
    assert eps_finite({0, 3}).has_positive() and EPSet(2, (), 3, (2,)).has_positive()


def test_random_round_trip_window(seeded_rng=random.Random(7)):
    for _ in range(200):
        t = seeded_rng.randint(0, 8)
        p = seeded_rng.randint(1, 8)
        s = EPSet(
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


@pytest.mark.parametrize(
    "period, threshold, message",
    [
        (1, True, "threshold must be an integer"),
        (1, -1, "threshold must be non-negative"),
        (0, 2, "period must be at least 1"),
    ],
)
def test_from_window_checks_its_period_and_threshold(period, threshold, message):
    with pytest.raises(ValidationError, match=message):
        eps_from_window([True] * 8, period, threshold)


# --- set algebra -------------------------------------------------------------


def test_union_intersect_examples():
    k2 = eps_cofinite(2)
    assert eps_intersect(k2, eps_finite({1})) == EMPTY
    assert eps_union(k2, eps_finite({2})) == k2
    evens = EPSet(2, (), 2, (0,))
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
        EPSet(
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
        layer = seq.layers[seq.preperiod - 1]
        for _ in range(seq.period):
            layer = frozenset(m.mul(x, a) for x in layer for a in ats)
        assert layer == seq.layers[seq.preperiod - 1]


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


def test_cyclic_monoid_layers_have_a_shifted_preperiod():
    # a preperiod that is no multiple of the period pins the residue rotation
    for i, p in ((3, 4), (5, 3), (2, 6)):
        m = cyclic(i, p)
        seq = power_layers(m)
        assert (seq.preperiod, seq.period) == (i, p)
        assert length_set(m, i + 1) == EPSet(i, (), p, {(i + 1) % p})


def test_length_set_matches_oracle_on_fixtures():
    mons = [zero(), one(), c2(), h2(), m31(), sl2()]
    mons += [random_monoid(i) for i in range(6)]
    mons += [cyclic(i, p) for i, p in ((1, 1), (3, 4), (5, 3), (2, 6))] + [full_transformation_3()]
    bound = 24
    for m in mons:
        oracle = [brute_force_lengths(m, x, bound) for x in range(m.size)]
        for x in range(m.size):
            assert set(length_set(m, x).members_upto(bound)) == oracle[x]
        for k in range(13):
            expected = set().union(*(lengths for lengths in oracle if k in lengths))
            assert set(union_k(m, k).members_upto(bound)) == expected


def test_union_k_far_past_the_period_is_the_fold_at_the_reduced_index():
    for m in [cyclic(i, p) for i, p in ((3, 4), (5, 3), (2, 6))] + [one(), m31(), h2(), full_transformation_3()]:
        seq = power_layers(m)
        k = 10**6
        reduced = seq.preperiod + (k - seq.preperiod) % seq.period
        assert union_k(m, k) == union_k_by_fold(m, reduced) == union_k_by_fold(m, k)


def test_union_k_table_is_built_on_the_first_call_and_kept():
    m = cyclic(5, 3)
    assert "lengths" not in m._memo and "unions" not in m._memo
    length_set(m, 1)
    assert "lengths" in m._memo and "unions" not in m._memo
    first = union_k(m, 7)
    assert len(m._memo["unions"]) == 5 + 3
    assert union_k(m, 7) is first is union_k(m, 10)
    assert "unions" not in cyclic(5, 3)._memo


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
        a = EPSet(
            rng.randint(0, 8),
            {n for n in range(8) if rng.random() < 0.5},
            rng.randint(1, 8),
            {r for r in range(8) if rng.random() < 0.4},
        )
        b = EPSet(
            rng.randint(0, 8),
            {n for n in range(8) if rng.random() < 0.5},
            rng.randint(1, 8),
            {r for r in range(8) if rng.random() < 0.4},
        )
        direct = {
            x + y for x in members(a, 60) for y in members(b, 60) if x + y <= 60
        }
        assert set(eps_minkowski_sum(a, b).members_upto(60)) == direct


@pytest.mark.parametrize("lengths_of", [length_set, lambda m, x: brute_force_lengths(m, x, 5)])
@pytest.mark.parametrize("x", [99, 4, -1, True, 2.0])
def test_element_index_must_be_in_range(lengths_of, x):
    with pytest.raises(ValidationError):
        lengths_of(m31(), x)


@st.composite
def epsets(draw, max_threshold=30, max_period=24):
    t = draw(st.integers(0, max_threshold))
    p = draw(st.integers(1, max_period))
    head = draw(st.sets(st.integers(0, t - 1))) if t else set()
    return EPSet(t, head, p, draw(st.sets(st.integers(0, p - 1))))


def bitmask(s, bound):
    # one ``in`` per integer, not the tiled window masks that members_upto reads
    return sum(1 << n for n in range(bound + 1) if n in s)


# short windows, and long thresholds over short periods, where the window
# spans many periods and the doubling tile runs several rounds
epset_pairs = st.one_of(st.tuples(epsets(), epsets()), st.tuples(epsets(400, 6), epsets(400, 6)))


@settings(max_examples=150)
@given(epset_pairs)
def test_minkowski_sum_matches_a_direct_mask_convolution(pair):
    a, b = pair
    # three times the window T_a + T_b + 3·lcm, beyond the twice-window
    # the sum certifies itself on
    bound = 3 * (a.threshold + b.threshold + 3 * math.lcm(a.period, b.period))
    bm, conv = bitmask(b, bound), 0
    for x in a.members_upto(bound):
        conv |= bm << x
    total = eps_minkowski_sum(a, b)
    assert bitmask(total, bound) == conv & ((2 << bound) - 1)
    assert eps_minkowski_sum(b, a) == total


# fields as given to the constructor, not canonical: head members past the
# threshold, tail residues past the period, periods and thresholds longer
# than needed
raw_fields = st.tuples(
    st.integers(0, 20),
    st.frozensets(st.integers(0, 30)),
    st.integers(1, 8),
    st.frozensets(st.integers(0, 12)),
)
raw_epsets = raw_fields.map(lambda fields: EPSet(*fields))


def raw_member(fields, n):
    threshold, head, period, tail = fields
    return n in head if n < threshold else n % period in {r % period for r in tail}


@settings(max_examples=150)
@given(
    st.one_of(st.just(EMPTY), st.builds(eps_finite, st.sets(st.integers(0, 40))), epsets(), epsets(400, 6), raw_epsets),
    st.sampled_from([0, 1, -1]),
    st.integers(0, 3),
)
def test_mask_matches_membership(s, offset, periods):
    # windows below, at and above threshold + period, then whole periods on
    window = s.threshold + s.period + offset + periods * s.period
    assert _mask(s, window) == bitmask(s, window - 1)
    assert s.members_upto(window - 1) == [n for n in range(window) if n in s]


def test_a_set_without_a_tail_lists_at_a_huge_bound_at_once(memory_cap):
    # its members lie below its threshold, so the window stops there: a
    # window of 10**11 bits would need 12.5 GB
    for members in ([], [0], [1, 3, 7], [2, 40]):
        assert eps_finite(members).members_upto(10**11) == members


def brute_least_period(pattern, period):
    """The least d dividing period with bit i of pattern equal to bit (i + d) % period for every i."""
    bit = lambda i: pattern >> i & 1
    return next(
        d for d in range(1, period + 1) if period % d == 0 and all(bit(i) == bit((i + d) % period) for i in range(period))
    )


@st.composite
def cyclic_patterns(draw):
    """A period, among them ones with repeated prime factors and 97·89, and
    a pattern of that many bits: none set, all set, or a drawn pattern over
    a drawn divisor of the period, repeated."""
    period = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 9, 12, 8633]), st.integers(1, 40)))
    kind = draw(st.sampled_from(["empty", "full", "repeated"]))
    if kind == "empty":
        return period, 0
    if kind == "full":
        return period, (1 << period) - 1
    d = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    unit = draw(st.integers(0, (1 << d) - 1))
    return period, sum(unit << j for j in range(0, period, d))


@settings(max_examples=300)
@given(cyclic_patterns())
def test_least_period_matches_a_bit_by_bit_search(case):
    period, pattern = case
    assert _least_period(pattern, period) == brute_least_period(pattern, period)


@settings(max_examples=300)
@given(cyclic_patterns(), st.integers(0, 30), st.integers(0, (1 << 30) - 1))
def test_normalize_matches_a_bit_by_bit_search(case, threshold, head):
    # the set with the head bits below the threshold, then the cycle repeated
    period, cycle = case
    head &= (1 << threshold) - 1
    s = _normalize(head | cycle << threshold, threshold, period)
    member = lambda n: head >> n & 1 if n < threshold else cycle >> (n - threshold) % period & 1
    d = brute_least_period(cycle, period)
    # the least t from which every n agrees with n + d; past the threshold all do
    t = min(t for t in range(threshold + 1) if all(member(n) == member(n + d) for n in range(t, threshold)))
    assert (s.threshold, s.period) == (t, d)
    assert s._head == sum(member(n) << n for n in range(t))
    assert s._tail == sum(member(n) << n % d for n in range(t, t + d))


@settings(max_examples=150)
@given(raw_fields)
def test_constructor_keeps_the_members_of_its_fields(fields):
    s = EPSet(*fields)
    bound = fields[0] + 2 * fields[2]
    assert [n for n in range(bound + 1) if n in s] == [n for n in range(bound + 1) if raw_member(fields, n)]
    assert s.threshold <= fields[0] and fields[2] % s.period == 0


def _redescribed(fields, extra_threshold, factor):
    """The same set as fields, with a threshold raised by extra_threshold and
    a period multiplied by factor."""
    threshold, head, period, tail = fields
    later = threshold + extra_threshold
    head = {n for n in range(later) if raw_member(fields, n)}
    tail = {n % (period * factor) for n in range(later, later + period * factor) if raw_member(fields, n)}
    return later, head, period * factor, tail


# two descriptions of one set, or two drawn descriptions that may or may not
# describe one set (small fields, so that they often do)
small_fields = st.tuples(st.integers(0, 3), st.frozensets(st.integers(0, 3)), st.integers(1, 3), st.frozensets(st.integers(0, 2)))
field_pairs = st.one_of(
    st.tuples(small_fields, small_fields),
    st.builds(lambda f, t, c: (f, _redescribed(f, t, c)), raw_fields, st.integers(0, 10), st.integers(1, 4)),
)


@settings(max_examples=200)
@given(field_pairs)
def test_equal_membership_means_equal_fields_and_hash(pair):
    f, g = pair
    bound = max(f[0], g[0]) + 2 * math.lcm(f[2], g[2])
    same = all(raw_member(f, n) == raw_member(g, n) for n in range(bound + 1))
    a, b = EPSet(*f), EPSet(*g)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
        assert (a.threshold, a.head, a.period, a.tail) == (b.threshold, b.head, b.period, b.tail)


def test_a_lone_part_sums_to_its_canonical_form():
    # non-canonical fields: a head member past the threshold, period 2 where 1 will do
    x = EPSet(5, {0, 9}, 2, {0, 1})
    assert eps_sum_many([x]) == eps_minkowski_sum(ZERO_ONLY, x)
    assert repr(x) == "EPSet(T=5, head=[0], p=1, tail=[0])"


@pytest.mark.parametrize(
    "build",
    [
        lambda: EPSet(-1, (), 1, ()),
        lambda: EPSet(0, (), 0, ()),
        lambda: EPSet(2.0, (), 1, ()),
        lambda: EPSet(2, (), True, ()),
        lambda: EPSet(2, (-1,), 1, ()),
        lambda: EPSet(2, (), 1, (1.5,)),
        lambda: EPSet(2, (False,), 1, ()),
        lambda: eps_finite({-1}),
        lambda: eps_finite({"a"}),
        lambda: EPSet(2, [[1]], 1, ()),
        lambda: eps_finite([[1]]),
        lambda: eps_finite([1, True]),
        lambda: eps_cofinite(-2),
        lambda: eps_from_window([True] * 4, 1.0, 0),
        lambda: EPSet(2, 5, 1, ()),
        lambda: eps_finite(None),
    ],
)
def test_malformed_fields_are_refused(build):
    with pytest.raises(ValidationError):
        build()


def test_fields_are_read_only():
    s = eps_cofinite(2)
    for name in ("threshold", "head", "period", "tail"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)


# random_monoid draws mostly groups; these seeds give monoids with atoms
PREMISE_MONOIDS = [zero(), one(), c2(), h2(), m31(), sl2()] + [random_monoid(seed) for seed in (9, 17, 34)]


@settings(max_examples=100)
@given(st.sampled_from(PREMISE_MONOIDS), st.integers(0, 8), st.integers(0, 8))
def test_unions_of_one_monoid_add_into_the_union_of_the_sum(m, a, b):
    # L(x) + L(y) lies in L(xy), so U(a) + U(b) lies in U(a + b): the reason
    # fp_union_k may ignore admissibility
    total, whole = eps_minkowski_sum(union_k(m, a), union_k(m, b)), union_k(m, a + b)
    bound = max(total.threshold, whole.threshold) + math.lcm(total.period, whole.period)
    assert set(total.members_upto(bound)) <= set(whole.members_upto(bound))


sum_parts = st.lists(st.one_of(st.just(EMPTY), st.just(ZERO_ONLY), epsets(12, 6)), max_size=4)


@settings(max_examples=150)
@given(sum_parts.flatmap(lambda parts: st.tuples(st.just(parts), st.permutations(parts))))
def test_sum_many_is_the_fold_from_zero_in_any_order(case):
    parts, reordered = case
    fold = functools.reduce(eps_minkowski_sum, parts, ZERO_ONLY)
    assert eps_sum_many(parts) == fold
    assert eps_sum_many(iter(reordered)) == fold


# up to three distinct sets, each repeated up to 40 times, so the doubling
# in eps_sum_many runs several rounds and meets EMPTY and {0} among them
repeated_parts = st.lists(
    st.tuples(st.one_of(st.just(EMPTY), st.just(ZERO_ONLY), epsets(12, 6)), st.integers(0, 40)), max_size=3
).map(lambda groups: [part for part, count in groups for _ in range(count)])


@settings(max_examples=100)
@given(repeated_parts.flatmap(lambda parts: st.tuples(st.just(parts), st.permutations(parts))))
def test_sum_many_of_repeated_parts_is_the_fold_and_the_sumset(case):
    parts, reordered = case
    fold = functools.reduce(eps_minkowski_sum, parts, ZERO_ONLY)
    assert eps_sum_many(reordered) == fold
    # per-integer sumset on a window, one part at a time
    bound = 60
    window = {0}
    for part in parts:
        members_of_part = part.members_upto(bound)
        window = {x + y for x in window for y in members_of_part if x + y <= bound}
    assert set(fold.members_upto(bound)) == window


@settings(max_examples=150)
@given(epsets(), epsets(), epsets())
def test_minkowski_sum_distributes_over_union(a, b, c):
    assert eps_minkowski_sum(a, eps_union(b, c)) == eps_union(eps_minkowski_sum(a, b), eps_minkowski_sum(a, c))
