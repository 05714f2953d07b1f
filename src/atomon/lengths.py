"""Eventually periodic subsets of the naturals and factorization length sets.

An EPSet holds four ints: the threshold T, the head mask (bit n set for each
member n < T), the period p, and the tail mask (bit r set for each residue r
mod p whose n >= T are members). The form is canonical: p is the least
eventual period of the set and T the least threshold with that period, so
two EPSets are equal exactly when they have the same members, and ``==`` and
``hash`` compare the four ints. The length-system deduplication relies on it.
``head`` and ``tail`` are read-only frozensets derived from the masks.

Every EPSet is canonical. ``EPSet(threshold, head, period, tail)`` reads the
set from plain fields and canonicalizes them; ``eps_finite``,
``eps_cofinite``, ``eps_from_window`` and ``serialize.eps_from_json`` build
through it or through ``_normalize``, and refuse malformed fields with a
``ValidationError`` (a ``ParseError`` for JSON). All of them end in
``_make``, the unchecked maker of an EPSet, as ``core._rebuild`` is of every
other value type; an EPSet, like them, refuses assignment.

The operations work on membership windows held as one int bitmask, bit n for
n: the head mask, then the tail mask tiled up to the window by doubling
shifts, so a window costs O(log(window / period)) big-int operations rather
than one membership test per position. ``_normalize`` reads a result off its
window in a few big-int operations and O(sqrt(p)) trial divisions, one
rotation per prime factor of p. A union or intersection is two windows and a
normalization, a sum a window, a shift per set bit of A, a tiling, a
normalization and two certificates. ``in`` tests one bit of the head or tail
mask.

``eps_sum_many`` sums equal parts by binary doubling (c·A from A, 2A, 4A,
...), so n parts with d distinct values cost O(d·log n) Minkowski sums
rather than n - 1; a free-product word repeats few letter length sets.

The length sets of a finite monoid are one table per monoid: one walk of
the power layers gives each element its mask of lengths, and each distinct
mask is decoded once, with the layers' preperiod T and period p, which the
table keeps. ``length_set`` and ``length_system`` read it. The unions U_k
are a second table per monoid, built by the first ``union_k`` call: every
length set repeats with period p from T on, so there are at most T + p
distinct unions, and each later call is one lookup. Both tables live on the
monoid, never in a module-level cache, so a fresh monoid starts cold.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Mapping, Sequence

from .core import FiniteMonoid, _Value, _check_count, _check_indices, _check_monoid, _sequence, atoms
from .errors import PeriodViolatedError, ValidationError, WindowTooShortError


class EPSet(_Value):
    """An eventually periodic set of naturals, in canonical form.

    ``EPSet(threshold, head, period, tail)`` is the set of the n < threshold
    in head and the n >= threshold with n % period in {r % period : r in
    tail}; head members at or past the threshold are ignored. It needs an
    int threshold >= 0, an int period >= 1 and int members >= 0, else
    ``ValidationError``, and it returns the canonical form of that set.

    The four fields are stored as ints (see the module docstring), with
    their hash, computed once when the set is built. ``head`` and ``tail``
    are decoded from their masks on each read.
    """

    __slots__ = ("_threshold", "_head", "_period", "_tail", "_hash")

    def __new__(cls, threshold: int, head: Iterable[int], period: int, tail: Iterable[int]) -> EPSet:
        _check_count(threshold, "threshold")
        _check_count(period, "period", 1)
        head_mask = cycle = 0
        for n in _naturals(head):
            if n < threshold:
                head_mask |= 1 << n
        # bit j of the cycle is n = threshold + j, a member iff j = (r - threshold) % period for a tail member r
        for r in _naturals(tail):
            cycle |= 1 << (r - threshold) % period
        return _normalize(head_mask | cycle << threshold, threshold, period)

    threshold = property(operator.attrgetter("_threshold"))
    period = property(operator.attrgetter("_period"))

    @property
    def head(self) -> frozenset[int]:
        return frozenset(_bits(self._head))

    @property
    def tail(self) -> frozenset[int]:
        return frozenset(_bits(self._tail))

    def __contains__(self, n: int) -> bool:
        if n < self._threshold:
            return n >= 0 and bool(self._head >> n & 1)
        return bool(self._tail >> n % self._period & 1)

    def __eq__(self, other) -> bool:
        if other.__class__ is not EPSet:
            return NotImplemented
        return (
            self._head == other._head
            and self._tail == other._tail
            and self._threshold == other._threshold
            and self._period == other._period
        )

    def __hash__(self) -> int:
        return self._hash

    def has_positive(self) -> bool:
        return self._tail != 0 or self._head > 1

    def members_upto(self, bound: int) -> list[int]:
        """Sorted members n with n <= bound."""
        return _bits(_mask(self, bound + 1)) if bound >= 0 else []

    def sort_key(self):
        return (self._threshold, tuple(_bits(self._head)), self._period, tuple(_bits(self._tail)))

    def __repr__(self) -> str:
        return f"EPSet(T={self._threshold}, head={_bits(self._head)}, p={self._period}, tail={_bits(self._tail)})"


_set_threshold, _set_head, _set_period, _set_tail, _set_hash = EPSet._setters


def _make(threshold: int, head: int, period: int, tail: int) -> EPSet:
    """The EPSet with these fields, which must already be canonical. Every
    EPSet is made here, so every EPSet holds the hash of its four fields.
    On this hot path ``EPSet._setters`` are called unrolled, not looped."""
    s = object.__new__(EPSet)
    _set_threshold(s, threshold), _set_head(s, head), _set_period(s, period), _set_tail(s, tail)
    _set_hash(s, hash((threshold, head, period, tail)))
    return s


def _naturals(members: Iterable[int]) -> tuple[int, ...]:
    """members as a tuple, if they can be iterated and each is an int >= 0;
    else ValidationError. Each member is checked before any mask is built
    from it, so True is not read as 1 nor 1.0 as 1."""
    try:
        members = tuple(members)
    except TypeError:
        raise ValidationError(f"EPSet members must be a collection of ints, not {members!r}") from None
    for n in members:
        if type(n) is not int or n < 0:
            raise ValidationError("EPSet members must be ints >= 0")
    return members


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    return list(itertools.compress(itertools.count(), format(mask, "b")[::-1].encode().translate(_DIGIT_VALUES)))


def _tile(pattern: int, period: int, width: int) -> int:
    """OR of pattern << (j * period) over j >= 0, cut to width bits: the
    shifted copies double each round."""
    span = period
    while span < width:
        pattern |= pattern << span
        span *= 2
    return pattern & ((1 << width) - 1)


def _least_period(pattern: int, period: int) -> int:
    """The least d such that the period-bit cyclic pattern repeats every d
    bits, 1 at once if no bit or every bit is set. The periods that divide
    ``period`` are the multiples of that d, so it is reached by dividing out
    one prime factor at a time while the quotient e is still a period, that
    is, while the pattern rotated by e is itself: O(sqrt(period)) trial
    divisions and one rotation per prime factor."""
    full = (1 << period) - 1
    if not pattern or pattern == full:
        return 1
    d, rest, q = period, period, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q:
            q += 1
            continue
        rest //= q
        e = d // q
        if (pattern >> e | pattern << period - e) & full == pattern:
            d = e
    return d


EMPTY = _make(0, 0, 1, 0)
ZERO_ONLY = _make(1, 1, 1, 0)


def eps_finite(members: Iterable[int]) -> EPSet:
    mask = sum(1 << n for n in set(_naturals(members)))
    return _normalize(mask, mask.bit_length(), 1)


def eps_cofinite(start: int) -> EPSet:
    """All naturals n >= start.

    Kept although no library code calls it: {n >= s} is the length set of an
    absorbing element first reached at length s (L(0) = {n >= 2} in
    {1, a, 0}), and tests state many expected length sets with it.
    """
    return EPSet(start, (), 1, (0,))


def eps_from_window(bits: Sequence[bool], period: int, threshold: int) -> EPSet:
    """Build an EPSet from an explicit membership window.

    The window must cover the claimed threshold plus two full periods, and
    the bits must actually repeat with the claimed period beyond the
    threshold; both are verified, not trusted.
    """
    _check_count(period, "period", 1)
    _check_count(threshold, "threshold")
    bits = _sequence(bits, "window {!r} is not a sequence of bits")
    mask = int("0" + "".join("1" if bit else "0" for bit in reversed(bits)), 2)
    return _from_mask(mask, len(bits), period, threshold)


def _from_mask(mask: int, window: int, period: int, threshold: int) -> EPSet:
    """eps_from_window on the bitmask of a window of the given length; period and threshold come checked."""
    if window < threshold + 2 * period:
        raise WindowTooShortError(
            f"window of {window} bits cannot certify threshold {threshold} and period {period}"
        )
    # bit n of diff: bits n and n + period of the window differ, n >= threshold
    diff = ((mask >> threshold) ^ (mask >> (threshold + period))) & ((1 << (window - period - threshold)) - 1)
    if diff:
        raise PeriodViolatedError(threshold + (diff & -diff).bit_length() - 1)
    return _normalize(mask, threshold, period)


def _normalize(mask: int, threshold: int, period: int) -> EPSet:
    """The canonical EPSet whose bits below threshold + period are those of
    mask and that repeats with the period from the threshold on. Every way
    of building an EPSet but a copy ends here."""
    # bit j of the cycle is n = threshold + j, of residue (threshold + j) % d
    # for the least period d; the least threshold t is one past the last
    # n < threshold whose bit differs from bit n + d
    cycle = mask >> threshold & ((1 << period) - 1)
    d = _least_period(cycle, period)
    t = ((mask ^ mask >> d) & ((1 << threshold) - 1)).bit_length()
    low, shift = (1 << d) - 1, threshold % d
    cycle &= low
    return _make(t, mask & ((1 << t) - 1), d, (cycle << shift | cycle >> d - shift) & low)


def _mask(s: EPSet, window: int) -> int:
    """Bit n set iff n is in s, for n < window. Past the threshold only a
    tail is tiled and cut, so a set with none costs nothing however wide."""
    if window <= s._threshold:
        return s._head & ((1 << window) - 1)
    if not s._tail:
        return s._head
    return s._head | _tile(s._tail, s._period, window) >> s._threshold << s._threshold


def _pointwise(a: EPSet, b: EPSet, keep) -> EPSet:
    t = max(a._threshold, b._threshold)
    p = math.lcm(a._period, b._period)
    return _normalize(keep(_mask(a, t + p), _mask(b, t + p)), t, p)


def eps_union(a: EPSet, b: EPSet) -> EPSet:
    return _pointwise(a, b, operator.or_)


def eps_intersect(a: EPSet, b: EPSet) -> EPSet:
    return _pointwise(a, b, operator.and_)


def eps_minkowski_sum(a: EPSet, b: EPSet) -> EPSet:
    """Exact Minkowski sum {x + y : x in A, y in B}.

    With L = lcm(p_a, p_b), n is in A+B iff n+L is, once n >= T_a+T_b+L:
    if n = x+y >= T_a+T_b, then x >= T_a or y >= T_b, and adding L to that
    summand keeps it in its set; if n+L = x+y >= T_a+T_b+2L, then x >= T_a+L
    or y >= T_b+L, and subtracting L keeps it in its set. The window T_a+T_b+3L
    holds that threshold and the two periods eps_from_window needs, and the
    result is certified against a direct convolution on twice that window.

    The convolution shifts B's mask by each member of A: once per set bit of
    A's head mask, and once per set bit of its tail mask into a pattern that
    is then tiled with A's period. A is the operand with fewer set bits in
    its two masks, so an empty operand is A; the sum is symmetric and its
    canonical form unique, so the swap cannot change the answer.
    """
    if a._head.bit_count() + a._tail.bit_count() > b._head.bit_count() + b._tail.bit_count():
        a, b = b, a
    ta, head, pa, tail = a._threshold, a._head, a._period, a._tail
    if not head | tail:
        return EMPTY
    lcm, start = math.lcm(pa, b._period), ta + b._threshold
    window = start + 3 * lcm
    bm, conv, pattern = _mask(b, 2 * window), 0, 0
    # walk the set bits low to high, each the lowest one x & -x
    while head:
        low = head & -head
        conv |= bm << low.bit_length() - 1
        head ^= low
    while tail:
        low = tail & -tail
        pattern |= bm << (low.bit_length() - 1 - ta) % pa
        tail ^= low
    if pattern:
        conv |= _tile(pattern, pa, 2 * window - ta) << ta
    conv &= (1 << 2 * window) - 1
    result = _from_mask(conv & ((1 << window) - 1), window, lcm, start + lcm)
    diff = _mask(result, 2 * window) ^ conv
    if diff:
        raise PeriodViolatedError((diff & -diff).bit_length() - 1)
    return result


def eps_sum_many(parts: Iterable[EPSet]) -> EPSet:
    """Minkowski sum of several sets; the empty family sums to {0}.

    Equal parts are summed together: c copies of A by binary doubling, from
    A, 2A, 4A, ... and the doubles at the set bits of c, then the distinct
    results are folded. n parts with d distinct values cost O(d·log n)
    Minkowski sums, never more than the n - 1 of a plain fold. The sum is
    associative and commutative and canonical form is unique, so grouping
    cannot change the answer. No sum starts from {0}: every EPSet is
    canonical, so a lone part already is the set {0} + part would give, and
    comes back as given.
    """
    return _sum_counted(collections.Counter(parts), eps_minkowski_sum)


def _sum_counted(counts: Mapping[EPSet, int], add: Callable[[EPSet, EPSet], EPSet]) -> EPSet:
    """The sum of c copies of A over the counts {A: c}, each c >= 1: the
    doubles of each distinct part, then one fold, each sum of two sets an
    ``add`` call (``coproduct.fp_length_set`` adds through its family's
    pair sums). {0} for no parts."""
    if not counts:
        return ZERO_ONLY
    if len(counts) > 1 and EMPTY in counts:
        return EMPTY
    return functools.reduce(add, (_multiple(a, c, add) for a, c in counts.items()))


def _multiple(a: EPSet, c: int, add: Callable[[EPSet, EPSet], EPSet]) -> EPSet:
    """c·A = A + ... + A for c >= 1: the sum of the doubles 2^i·A over the
    set bits i of c, bit_length(c) + popcount(c) - 2 calls of add."""
    result = None
    while True:
        if c & 1:
            result = a if result is None else add(result, a)
        c >>= 1
        if not c:
            return result
        a = add(a, a)


class LayerSequence(_Value):
    """S_k = elements expressible as a product of exactly k atoms, with a cycle certificate."""

    __slots__ = ("layers", "preperiod", "period")

    def __init__(self, layers: tuple[frozenset[int], ...], preperiod: int, period: int) -> None:
        self._set(layers, preperiod, period)


def power_layers(m: FiniteMonoid) -> LayerSequence:
    """Iterate S_{k+1} = S_k * atoms(m) until a repeated layer closes the cycle."""
    _check_monoid(m)
    ats = sorted(atoms(m))
    layers: list[frozenset[int]] = []
    seen: dict[frozenset[int], int] = {}
    current = frozenset(ats)
    k = 1
    while current not in seen:
        seen[current] = k
        layers.append(current)
        current = frozenset(m.mul(x, a) for x in current for a in ats)
        k += 1
    preperiod = seen[current]
    return LayerSequence(tuple(layers), preperiod, k - preperiod)


def _length_table(m: FiniteMonoid) -> tuple[tuple[EPSet, ...], int, int]:
    """(L(x) for every element x, T, p), built on first use and cached on m,
    where T and p are the preperiod and period of m's power layers.

    Bit k of x's mask says x is in S_k. Only the identity is a product of no
    atoms, and no unit is a product of atoms, so the identity's mask is 1.
    Every set is decoded with the same T and p, so membership of each n >= T
    repeats with period p in all of them.
    """
    if (table := m._memo.get("lengths")) is None:
        seq = power_layers(m)
        masks = [0] * m.size
        masks[m.identity] = 1
        for k, layer in enumerate(seq.layers, 1):
            for x in layer:
                masks[x] |= 1 << k
        decoded = {mask: _normalize(mask, seq.preperiod, seq.period) for mask in set(masks)}
        table = m._memo["lengths"] = (tuple(map(decoded.__getitem__, masks)), seq.preperiod, seq.period)
    return table


def length_set(m: FiniteMonoid, x: int) -> EPSet:
    """L(x): lengths of factorizations of x into atoms, as an exact EPSet."""
    _check_monoid(m)
    _check_indices((x,), m.size, "element index")
    return _length_table(m)[0][x]


class LengthSystem(_Value):
    """A deduplicated set of length sets; empty length sets are never stored.
    ``==`` and ``hash`` read ``entries`` only: ``truncated_at`` is not compared."""

    __slots__ = ("entries", "truncated_at")

    def __init__(self, entries: frozenset[EPSet], truncated_at: int | None = None) -> None:
        self._set(entries, truncated_at)

    def __eq__(self, other) -> bool:
        if other.__class__ is not LengthSystem:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __contains__(self, s: EPSet) -> bool:
        return s in self.entries

    def __iter__(self):
        return iter(sorted(self.entries, key=EPSet.sort_key))

    def __len__(self) -> int:
        return len(self.entries)


def length_system(m: FiniteMonoid, nonzero_only: bool = False) -> LengthSystem:
    _check_monoid(m)
    entries = set(_length_table(m)[0])
    entries.discard(EMPTY)
    if nonzero_only:
        entries.discard(ZERO_ONLY)
    return LengthSystem(frozenset(entries))


def _union_table(sets: Sequence[EPSet], threshold: int, period: int) -> tuple[EPSet, ...]:
    """U(j) for j < threshold + period, from length sets that all repeat with
    the period from the threshold on: for each j, the OR of the masks of the
    distinct sets holding j, decoded once per distinct OR."""
    width = threshold + period
    ors = [0] * width
    for mask in {_mask(s, width) for s in set(sets)}:
        for j in _bits(mask):
            ors[j] |= mask
    decoded = {mask: _normalize(mask, threshold, period) for mask in set(ors)}
    return tuple(map(decoded.__getitem__, ors))


def union_k(m: FiniteMonoid, k: int) -> EPSet:
    """Union of all length sets of m containing k.

    Membership of each n >= T in every length set of m repeats with the
    period p of its power layers, so U(k) = U(T + (k - T) mod p) for k >= T
    and m has at most T + p distinct unions. They are tabled on m by the
    first call, in O((T + p)·d) mask operations for d distinct length sets;
    every call after that is one lookup.
    """
    _check_count(k, "k")
    _check_monoid(m)
    sets, threshold, period = _length_table(m)
    if (unions := m._memo.get("unions")) is None:
        unions = m._memo["unions"] = _union_table(sets, threshold, period)
    if k >= threshold + period:
        k = threshold + (k - threshold) % period
    return unions[k]
