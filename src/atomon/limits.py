"""Remaining limits and colimits: equalizers, pullbacks, coequalizers via
congruence closure, pushout presentations. Equalizers and pullbacks are
built by the one limit construction, ``product._limit``. The initial and
terminal objects are built in ``core`` (``core.initial``, ``core.terminal``).
Every arrow argument must be an AtoMon arrow, an atom-preserving hom between
atomic monoids; ``core._arrows`` checks it, and the shared ends, before
anything is built.

``Congruence`` and ``PushoutPresentation`` check themselves when built
from outside input; the constructions here build them unchecked, through
``core._rebuild``, each from a fact its docstring names. A congruence is
stored in canonical form, each element led by the least element of its
class, and is compatible with multiplication; ``quotient`` takes only a
congruence on the monoid it is given. A pushout presentation stores each
relation side reduced, so rewriting in ``pushout_eq_bounded`` needs only
junction products."""

from __future__ import annotations

import enum
import itertools
from collections import deque
from collections.abc import Iterable

from .core import (
    FiniteMonoid,
    MonoidHom,
    _Value,
    _arrows,
    _check_count,
    _check_indices,
    _check_monoid,
    _check_pairs,
    _hom,
    _rebuild,
    _search_budget,
    _sequence,
    _tabulate,
)
from .coproduct import Family, Letter, ReducedWord, _check_family, _check_word, _join, reduce
from .errors import SearchBudgetExceededError, ValidationError
from .product import _limit


def equalizer(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom]:
    """The limit of the parallel pair, ``product._limit`` over the source
    read back onto it, so it keeps the source's order and names: the
    submonoid generated by the agreeing atoms and units, with its inclusion.
    Strictly smaller than the plain-monoid equalizer in general: agreeing
    elements outside that closure are left out. The inclusion is built
    unchecked: it is the leg of ``_limit``, read back onto the source."""
    _arrows((f, g), "source", "target")
    h = f.source
    _, (inclusion,) = _limit((h,), lambda x: f.map[x] == g.map[x])
    elements = sorted(inclusion.map)
    sub = _tabulate(elements, h.mul, [h.names[x] for x in elements], h.identity)
    return sub, _hom(sub, h, tuple(elements))


def pullback(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom, MonoidHom]:
    """The limit of the cospan, ``product._limit`` over both sources: the
    submonoid of the direct product generated by agreeing atom pairs and
    agreeing unit pairs, with both projections, indexed and named as there."""
    _arrows((f, g), "target")
    p, (p1, p2) = _limit((f.source, g.source), lambda x, y: f.map[x] == g.map[y])
    return p, p1, p2


class Congruence(_Value):
    """A monoid congruence on ``carrier`` as a partition, checked when built.

    ``leader[x]`` is the least element of x's class. This canonical form is
    the one ``congruence_closure`` builds, and ``quotient`` names each class
    after its leader. The partition is checked to be a congruence on the
    generators g of the carrier: x·g and leader(x)·g share a leader, and so
    do g·x and g·leader(x). That suffices because the generators generate
    the carrier and its table is associative.
    """

    __slots__ = ("carrier", "leader")

    def __init__(self, carrier: FiniteMonoid, leader: tuple[int, ...]) -> None:
        _check_monoid(carrier)
        leader = _sequence(leader, "leader {!r} is not a sequence")
        if len(leader) != carrier.size:
            raise ValidationError(f"leader must have length {carrier.size}")
        _check_indices(leader, carrier.size, "leader")
        bad = next((x for x, lead in enumerate(leader) if leader[lead] != lead or lead > x), None)
        if bad is not None:
            raise ValidationError(f"leader {leader[bad]} of element {bad} is not the least element of its class")
        tab = carrier.table
        lead = leader.__getitem__
        for g in carrier.generators:
            for translate in (tuple(row[g] for row in tab), tab[g]):  # x -> x·g, x -> g·x
                if list(map(lead, translate)) != list(map(lead, map(translate.__getitem__, leader))):
                    raise ValidationError("leader is not a congruence: a class is split by a translate")
        self._set(carrier, leader)

    def classes(self) -> list[frozenset[int]]:
        buckets: dict[int, set[int]] = {}
        for x, lead in enumerate(self.leader):
            buckets.setdefault(lead, set()).add(x)
        return [frozenset(buckets[lead]) for lead in sorted(buckets)]


def congruence_closure(m: FiniteMonoid, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest monoid congruence containing the given pairs.

    Union-find with a worklist: merging x and y enqueues only the translates
    (g·x, g·y) and (x·g, y·g) by the generators g of m, which suffices because
    they generate m and the table is associative.

    The result is built unchecked. It is canonical: the root of each class
    is its least element, since a merge keeps the smaller root. It is a
    congruence: the classes are the equivalence closure of the merged pairs,
    and each merge enqueues its generator translates, so once the queue is
    empty a translate by a generator sends each class into one class.
    """
    _check_monoid(m)
    n = m.size
    if not isinstance(pairs, Iterable):
        raise ValidationError(f"pairs {pairs!r} are not a collection of pairs")
    pairs = list(pairs)
    _check_pairs(pairs, "{!r} is not a pair of element indices")
    if pairs:
        _check_indices(tuple(itertools.chain.from_iterable(pairs)), n, "element index")
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
    return _rebuild(Congruence, (m, tuple(find(x) for x in range(n))))


def quotient(m: FiniteMonoid, cong: Congruence) -> tuple[FiniteMonoid, MonoidHom]:
    """Quotient table of a congruence, with the canonical projection. The
    classes are indexed in the order of their leaders, and named after them.
    The projection is built unchecked: ``cong`` is a congruence, so the
    class of a product is the product of the classes."""
    _check_monoid(m)
    if not isinstance(cong, Congruence):
        raise ValidationError(f"{cong!r} is not a Congruence")
    if cong.carrier != m:
        raise ValidationError("the congruence is on another monoid")
    leader, tab = cong.leader, m.table
    reps = sorted(set(leader))
    q_monoid = _tabulate(reps, lambda x, y: leader[tab[x][y]], [m.names[r] for r in reps], leader[m.identity])
    index = {r: i for i, r in enumerate(reps)}
    return q_monoid, _hom(m, q_monoid, tuple(index[x] for x in leader))


def coequalizer(f: MonoidHom, g: MonoidHom) -> tuple[FiniteMonoid, MonoidHom]:
    """Quotient of the common target K by the congruence ~ generated by the
    pairs (f(h), g(h)). This is the plain-monoid coequalizer, and it lies in
    AtoMon, so nothing is checked:

    1. The seed pairs pair unit with unit, atom with atom and reducible with
       reducible. A hom sends a unit to a unit, f and g send an atom to an
       atom, and a reducible h is a product of at least two atoms, the
       source being atomic, so f(h) and g(h) are products of two non-units.
    2. A two-sided translate keeps that pairing. Unit factors do not change
       a class, and a product with two non-unit factors is reducible, since
       the non-units form an ideal (see ``core.units``). So the class of
       u·x·v is fixed by the classes of u, x and v.
    3. So the partition of K into units, atoms and reducibles is a
       congruence holding the seed pairs, and ~, the least one, never joins
       two classes. A class [x] is a unit exactly when x is, since x·y ~ 1
       makes x·y, and with it x, a unit; [a] is an atom for every atom a,
       since a ~ p·q with p, q non-units would join two classes; and every
       other non-unit class is a product of such [a], K being atomic. So
       K/~ is atomic and the projection preserves atoms.
    """
    _arrows((f, g), "source", "target")
    k = f.target
    cong = congruence_closure(k, [(f.map[h], g.map[h]) for h in range(f.source.size)])
    return quotient(k, cong)


class PushoutPresentation(_Value):
    """The pushout of a span, presented as the coproduct of the two legs'
    targets modulo the relations identifying both images of the source.

    Checked when built: the family is a ``Family``, and each relation is a
    tuple of two sequences of letters. A side need not be reduced: it is
    stored as the letters of its reduced word, each letter checked by
    ``reduce``, so ``pushout_eq_bounded`` never reduces a relation again."""

    __slots__ = ("family", "relation_pairs")

    def __init__(self, family: Family, relation_pairs: tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...]):
        _check_family(family)
        pairs = _sequence(relation_pairs, "relation pairs {!r} are not a sequence")
        _check_pairs(pairs, "{!r} is not a pair of words")
        side = "relation side {!r} is not a sequence of letters"
        pairs = tuple(tuple(reduce(family, _sequence(w, side)).letters for w in pair) for pair in pairs)
        self._set(family, pairs)


def pushout_presentation(f: MonoidHom, g: MonoidHom) -> PushoutPresentation:
    """The presentation, built unchecked: each side is one canonical letter,
    a reduced word, or the empty word where that letter is an identity."""
    _arrows((f, g), "source")
    family = Family([f.target, g.target])
    letters = family._letters
    pairs = tuple(
        tuple(() if lt in family._identities else (lt,) for lt in (letters[0, f.map[l]], letters[1, g.map[l]]))
        for l in range(f.source.size)
    )
    return _rebuild(PushoutPresentation, (family, pairs))


class Reachability(enum.Enum):
    EQUAL = "equal"
    UNKNOWN = "unknown"


def _rewrites(family: Family, rules, word: tuple[Letter, ...]):
    """The reduced words one rule away from ``word``. Prefix, suffix and
    replacement are all reduced, so two junction products give the reduced
    word of their concatenation (``coproduct._join``)."""
    for pattern, replacement in rules:
        span = len(pattern)
        for start in range(len(word) - span + 1):
            if word[start : start + span] == pattern:
                yield _join(family, _join(family, word[:start], replacement), word[start + span :])


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

    The rules are the stored, reduced relation pairs, read both ways and
    each kept once. A pair with equal sides, such as the identity relation
    (ε, ε) of every presentation, rewrites a word only to itself: skipped.
    Each rewritten word is charged against the search budget, past which
    SearchBudgetExceededError is raised (an empty side matches anywhere).
    """
    _check_count(depth, "depth")
    if not isinstance(presentation, PushoutPresentation):
        raise ValidationError(f"{presentation!r} is not a PushoutPresentation")
    ends = (_check_word(presentation.family, w1), _check_word(presentation.family, w2))
    rules = dict.fromkeys(rule for l, r in presentation.relation_pairs if l != r for rule in ((l, r), (r, l)))
    visited = ({ends[0]}, {ends[1]})
    frontiers = [{ends[0]}, {ends[1]}]
    if visited[0] & visited[1]:
        return Reachability.EQUAL
    spare = limit = _search_budget(None)
    for _ in range(depth):
        progressed = False
        for side in (0, 1):
            nxt = set()
            for word in frontiers[side]:
                for rewritten in _rewrites(presentation.family, rules, word):
                    if (spare := spare - 1) < 0:
                        raise SearchBudgetExceededError(limit, "rewrites")
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
