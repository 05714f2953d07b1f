"""Eventually periodic subsets of the naturals and factorization length sets.

An EPSet is stored in canonical form: the period is the minimal eventual
period of the set, and the threshold is the least one compatible with that
period. Canonical form makes structural equality coincide with extensional
equality, which the length-system deduplication relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import FiniteMonoid, atoms, units
from .errors import PeriodViolatedError, ValidationError, WindowTooShortError


@dataclass(frozen=True)
class EPSet:
    threshold: int
    head: frozenset[int]
    period: int
    tail: frozenset[int]

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.head
        return (n % self.period) in self.tail

    @property
    def is_empty(self) -> bool:
        return not self.head and not self.tail

    def has_positive(self) -> bool:
        return bool(self.tail) or any(h > 0 for h in self.head)

    def members_upto(self, bound: int) -> list[int]:
        """Sorted members n with n <= bound."""
        return [n for n in range(bound + 1) if n in self]

    def sort_key(self):
        return (self.threshold, tuple(sorted(self.head)), self.period, tuple(sorted(self.tail)))

    def __repr__(self) -> str:
        return f"EPSet(T={self.threshold}, head={sorted(self.head)}, p={self.period}, tail={sorted(self.tail)})"


def _canonical(threshold: int, head: Iterable[int], period: int, tail: Iterable[int]) -> EPSet:
    """Normalize to minimal period, then minimal threshold."""
    head = {n for n in head if 0 <= n < threshold}
    tail = {r % period for r in tail}
    # minimal eventual period divides every eventual period, so scan divisors
    for d in range(1, period + 1):
        if period % d:
            continue
        if all(((r + d) % period in tail) == (r in tail) for r in range(period)):
            tail = {r % d for r in tail}
            period = d
            break
    t = threshold
    while t > 0 and ((t - 1) in head) == (((t - 1) % period) in tail):
        head.discard(t - 1)
        t -= 1
    return EPSet(t, frozenset(head), period, frozenset(tail))


EMPTY = _canonical(0, (), 1, ())
ZERO_ONLY = _canonical(1, (0,), 1, ())


def eps_finite(members: Iterable[int]) -> EPSet:
    members = set(members)
    if any(n < 0 for n in members):
        raise ValidationError("EPSet members must be non-negative")
    bound = max(members) + 1 if members else 0
    return _canonical(bound, members, 1, ())


def eps_cofinite(start: int) -> EPSet:
    """All naturals n >= start.

    Kept although no library code calls it: {n >= s} is the length set of an
    absorbing element first reached at length s (L(0) = {n >= 2} in
    {1, a, 0}), and tests state many expected length sets with it.
    """
    return _canonical(start, (), 1, (0,))


def eps_from_window(bits: Sequence[bool], period: int, threshold: int) -> EPSet:
    """Build an EPSet from an explicit membership window.

    The window must cover the claimed threshold plus two full periods, and
    the bits must actually repeat with the claimed period beyond the
    threshold; both are verified, not trusted.
    """
    window = len(bits)
    if period < 1 or threshold < 0:
        raise ValidationError("need period >= 1 and threshold >= 0")
    if window < threshold + 2 * period:
        raise WindowTooShortError(
            f"window of {window} bits cannot certify threshold {threshold} and period {period}"
        )
    for n in range(threshold, window - period):
        if bool(bits[n]) != bool(bits[n + period]):
            raise PeriodViolatedError(n)
    head = {n for n in range(threshold) if bits[n]}
    tail = {n % period for n in range(threshold, threshold + period) if bits[n]}
    return _canonical(threshold, head, period, tail)


def _pointwise(a: EPSet, b: EPSet, keep) -> EPSet:
    t = max(a.threshold, b.threshold)
    p = math.lcm(a.period, b.period)
    head = {n for n in range(t) if keep(n in a, n in b)}
    tail = {n % p for n in range(t, t + p) if keep(n in a, n in b)}
    return _canonical(t, head, p, tail)


def eps_union(a: EPSet, b: EPSet) -> EPSet:
    return _pointwise(a, b, lambda x, y: x or y)


def eps_intersect(a: EPSet, b: EPSet) -> EPSet:
    return _pointwise(a, b, lambda x, y: x and y)


def _mask(s: EPSet, window: int) -> int:
    m = 0
    for n in range(window):
        if n in s:
            m |= 1 << n
    return m


def _sum_mask(a: EPSet, b: EPSet, window: int) -> int:
    bm = _mask(b, window)
    cut = (1 << window) - 1
    out = 0
    am = _mask(a, window)
    n = 0
    while am:
        if am & 1:
            out |= bm << n
        am >>= 1
        n += 1
    return out & cut


def eps_minkowski_sum(a: EPSet, b: EPSet) -> EPSet:
    """Exact Minkowski sum {x + y : x in A, y in B}.

    The sum is lcm(p_a, p_b)-periodic from T_a + T_b + lcm onward; the
    window is deliberately larger than that bound, and the extracted set is
    re-verified against a direct convolution on a second window of the same
    length before being returned.
    """
    if a.is_empty or b.is_empty:
        return EMPTY
    lcm = math.lcm(a.period, b.period)
    window = a.threshold + b.threshold + 4 * lcm + a.period * b.period
    conv = _sum_mask(a, b, window)
    result = eps_from_window(
        [bool(conv >> n & 1) for n in range(window)],
        period=lcm,
        threshold=a.threshold + b.threshold + lcm,
    )
    check = _sum_mask(a, b, 2 * window)
    for n in range(2 * window):
        if (n in result) != bool(check >> n & 1):
            raise PeriodViolatedError(n)
    return result


def eps_sum_many(parts: Iterable[EPSet]) -> EPSet:
    """Minkowski sum of several sets; the empty family sums to {0}."""
    acc = ZERO_ONLY
    for part in parts:
        acc = eps_minkowski_sum(acc, part)
        if acc.is_empty:
            return EMPTY
    return acc


@dataclass(frozen=True)
class LayerSequence:
    """S_k = elements expressible as a product of exactly k atoms, with a cycle certificate."""

    layers: tuple[frozenset[int], ...]
    preperiod: int
    period: int

    def layer(self, k: int) -> frozenset[int]:
        if k < 1:
            raise ValidationError("layers are indexed from 1")
        if k <= len(self.layers):
            return self.layers[k - 1]
        return self.layers[self.preperiod - 1 + (k - self.preperiod) % self.period]


def power_layers(m: FiniteMonoid) -> LayerSequence:
    """Iterate S_{k+1} = S_k * atoms(m) until a repeated layer closes the cycle."""
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


def _layers_of(m: FiniteMonoid) -> LayerSequence:
    if m._layers is None:
        m._layers = power_layers(m)
    return m._layers


def length_set(m: FiniteMonoid, x: int) -> EPSet:
    """L(x): lengths of factorizations of x into atoms, as an exact EPSet."""
    if x == m.identity:
        return ZERO_ONLY
    if x in units(m):
        return EMPTY
    seq = _layers_of(m)
    t, p = seq.preperiod, seq.period
    head = {k for k in range(1, t) if x in seq.layer(k)}
    tail = {k % p for k in range(t, t + p) if x in seq.layer(k)}
    return _canonical(t, head, p, tail)


@dataclass(frozen=True)
class LengthSystem:
    """A deduplicated set of length sets; empty length sets are never stored."""

    entries: frozenset[EPSet]
    truncated_at: int | None = field(default=None, compare=False)

    def __contains__(self, s: EPSet) -> bool:
        return s in self.entries

    def __iter__(self):
        return iter(sorted(self.entries, key=EPSet.sort_key))

    def __len__(self) -> int:
        return len(self.entries)


def length_system(m: FiniteMonoid, nonzero_only: bool = False) -> LengthSystem:
    entries = {length_set(m, x) for x in range(m.size)}
    entries.discard(EMPTY)
    if nonzero_only:
        entries.discard(ZERO_ONLY)
    return LengthSystem(frozenset(entries))


def union_k(m: FiniteMonoid, k: int) -> EPSet:
    """Union of all length sets of m containing k."""
    if k < 0:
        raise ValidationError("k must be non-negative")
    acc = EMPTY
    for entry in length_system(m):
        if k in entry:
            acc = eps_union(acc, entry)
    return acc


def brute_force_lengths(m: FiniteMonoid, x: int, bound: int) -> set[int]:
    """Oracle: {k <= bound : x is a product of exactly k atoms}.

    Plain dynamic programming over (length, element) with no periodicity
    reasoning, kept independent from length_set on purpose.
    """
    if bound < 0:
        raise ValidationError("bound must be non-negative")
    found = set()
    if x == m.identity:
        found.add(0)
    ats = sorted(atoms(m))
    reach = {m.identity}
    for k in range(1, bound + 1):
        reach = {m.mul(y, a) for y in reach for a in ats}
        if x in reach:
            found.add(k)
        if not reach:
            break
    return found
