"""Remaining limits and colimits: initial/terminal objects, equalizers,
pullbacks, coequalizers via congruence closure, pushout presentations."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import (
    FiniteMonoid,
    MonoidHom,
    atoms,
    check_property,
    new_hom,
    new_monoid,
    restrict_to_submonoid,
    submonoid_closure,
    terminal_monoid,
    trivial_monoid,
    units,
)
from .coproduct import Family, Letter, ReducedWord, reduce
from .errors import (
    SourceMismatchError,
    TargetMismatchError,
    ValidationError,
)
from .product import _product_submonoid


def initial() -> FiniteMonoid:
    return trivial_monoid()


def terminal() -> FiniteMonoid:
    return terminal_monoid()


def equalizer(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom]:
    """The submonoid generated by the agreeing atoms and agreeing units,
    with its inclusion. Strictly smaller than the plain-monoid equalizer in
    general: agreeing elements outside that closure are left out."""
    if f.source != g.source:
        raise SourceMismatchError("equalizer needs a parallel pair")
    if f.target != g.target:
        raise TargetMismatchError("equalizer needs a parallel pair")
    h = f.source
    gens = [a for a in atoms(h) if f.map[a] == g.map[a]]
    gens += [u for u in units(h) if f.map[u] == g.map[u]]
    elements = submonoid_closure(h, gens)
    return restrict_to_submonoid(h, elements)


def pullback(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom, MonoidHom]:
    """Pairs over a cospan: the submonoid of the direct product generated by
    agreeing atom pairs and agreeing unit pairs, with both projections. Built
    by the same routine as the materialized product, so elements are indexed
    in discovery order and named "(x,y)"."""
    if f.target != g.target:
        raise TargetMismatchError("pullback needs a common target")
    h, k = f.source, g.source
    gens = [(x, y) for x in atoms(h) for y in atoms(k) if f.map[x] == g.map[y]]
    gens += [(x, y) for x in units(h) for y in units(k) if f.map[x] == g.map[y]]
    p, (p1, p2) = _product_submonoid((h, k), gens)
    return p, p1, p2


@dataclass(frozen=True)
class Congruence:
    """A monoid congruence as a partition, produced at a verified fixpoint."""

    carrier: FiniteMonoid
    leader: tuple[int, ...]

    def classes(self) -> list[frozenset[int]]:
        buckets: dict[int, set[int]] = {}
        for x, lead in enumerate(self.leader):
            buckets.setdefault(lead, set()).add(x)
        return [frozenset(buckets[lead]) for lead in sorted(buckets)]


def congruence_closure(m: FiniteMonoid, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest monoid congruence containing the given pairs.

    Union-find with a worklist: merging x and y enqueues only the translates
    (g·x, g·y) and (x·g, y·g) by the generators g of m, which suffices because
    they generate m and the table is associative. The fixpoint is re-verified
    by generators too: x·g and leader(x)·g share a leader, and so do g·x and
    g·leader(x).
    """
    n = m.size
    tab, gens = m.table, m.generators
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque(pairs)
    while queue:
        x, y = queue.popleft()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        row_x, row_y = tab[x], tab[y]
        for g in gens:
            queue.append((tab[g][x], tab[g][y]))
            queue.append((row_x[g], row_y[g]))
    leader = tuple(find(x) for x in range(n))
    lead = leader.__getitem__
    for g in gens:
        for translate in (tuple(row[g] for row in tab), tab[g]):  # x -> x·g, x -> g·x
            if list(map(lead, translate)) != list(map(lead, map(translate.__getitem__, leader))):
                raise ValidationError("congruence closure reached an incompatible fixpoint")
    return Congruence(m, leader)


def quotient(m: FiniteMonoid, cong: Congruence) -> tuple[FiniteMonoid, MonoidHom]:
    """Quotient table of a congruence, with the canonical projection."""
    classes = cong.classes()
    index_of = {x: ci for ci, cls in enumerate(classes) for x in cls}
    reps = [min(cls) for cls in classes]
    table = [
        [index_of[m.mul(rx, ry)] for ry in reps]
        for rx in reps
    ]
    names = [m.names[r] for r in reps]
    q_monoid = new_monoid(names, table, index_of[m.identity])
    proj = new_hom(m, q_monoid, tuple(index_of[x] for x in range(m.size)))
    return q_monoid, proj


def coequalizer(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom]:
    """Quotient of the common target by the congruence generated by the
    pairs (f(h), g(h)). The quotient is checked to be atomic with an
    atom-preserving projection; a failure here would contradict the theory
    and raises."""
    if f.source != g.source:
        raise SourceMismatchError("coequalizer needs a parallel pair")
    if f.target != g.target:
        raise TargetMismatchError("coequalizer needs a parallel pair")
    k = f.target
    cong = congruence_closure(k, [(f.map[h], g.map[h]) for h in range(f.source.size)])
    q_monoid, proj = quotient(k, cong)
    if not check_property(q_monoid, "atomic"):
        raise ValidationError("coequalizer quotient is unexpectedly non-atomic")
    if not proj.atom_preserving:
        raise ValidationError("coequalizer projection unexpectedly fails to preserve atoms")
    return q_monoid, proj


@dataclass(frozen=True)
class PushoutPresentation:
    """The pushout of a span, presented as the coproduct of the two legs'
    targets modulo the relations identifying both images of the source."""

    family: Family
    relation_pairs: tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...]


def pushout_presentation(f: MonoidHom, g: MonoidHom) -> PushoutPresentation:
    if f.source != g.source:
        raise SourceMismatchError("pushout needs a common source")
    family = Family([f.target, g.target])
    pairs = tuple(
        ((Letter(0, f.map[l]),), (Letter(1, g.map[l]),))
        for l in range(f.source.size)
    )
    return PushoutPresentation(family, pairs)


class Reachability(enum.Enum):
    EQUAL = "equal"
    UNKNOWN = "unknown"


def _rewrites(presentation: PushoutPresentation, word: tuple[Letter, ...]):
    family = presentation.family
    sides = []
    for lhs, rhs in presentation.relation_pairs:
        l = reduce(family, lhs).letters
        r = reduce(family, rhs).letters
        sides.append((l, r))
        sides.append((r, l))
    for pattern, replacement in sides:
        span = len(pattern)
        for start in range(len(word) - span + 1):
            if word[start : start + span] == pattern:
                yield reduce(family, word[:start] + replacement + word[start + span :]).letters


def pushout_eq_bounded(
    presentation: PushoutPresentation,
    w1: ReducedWord,
    w2: ReducedWord,
    depth: int,
) -> Reachability:
    """Semi-decision of word equality in the pushout: bidirectional
    breadth-first rewriting, at most `depth` rewrite applications per side.

    Searching from both ends keeps the answer symmetric in (w1, w2) even
    though a single rewrite step is not (reduction after a rewrite cannot be
    undone without splitting letters). Never answers "not equal".
    """
    if depth < 0:
        raise ValidationError("depth must be non-negative")
    visited = ({w1.letters}, {w2.letters})
    frontiers = [{w1.letters}, {w2.letters}]
    if visited[0] & visited[1]:
        return Reachability.EQUAL
    for _ in range(depth):
        progressed = False
        for side in (0, 1):
            nxt = set()
            for word in frontiers[side]:
                for rewritten in _rewrites(presentation, word):
                    if rewritten not in visited[side]:
                        visited[side].add(rewritten)
                        nxt.add(rewritten)
            frontiers[side] = nxt
            progressed = progressed or bool(nxt)
            if visited[0] & visited[1]:
                return Reachability.EQUAL
        if not progressed:
            break
    return Reachability.UNKNOWN
