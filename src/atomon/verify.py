"""Formula-versus-oracle verification suites: suites only.

Every suite pits a closed-form computation against an independent bounded
or exhaustive check from ``oracles`` and reports mismatches with their full
inputs. This module holds the suites, their fixtures and the runner; the
oracles themselves live in ``oracles``. Suite names are stable identifiers
used by the CLI `verify` command.

A suite is a generator `(rng, budget)` that yields exactly one outcome per
case: a falsy value when the case passes, or the mismatch message (a
non-empty str) when it fails. Messages are written `bad and f"..."`, so a
passing case never formats one. `cmd_verify` alone counts the cases and
collects the mismatches; an `AtomonError` raised by a suite propagates.

A suite builds the set that a definition quantifies over once per family,
then tests each case by membership in it: the products of two non-units for
the atoms of a free product, the length sets of the short words for U_k. A
search for witnesses stops when every target has one, as the realization of
a length system's entries does over the lazy, shortest-first
``reduced_words_upto``.

A limit is checked against its definition by one oracle, ``_limit_up``. A
cone from W over the diagram's objects is one atom-preserving hom W -> o per
object o, on which the diagram's ``commutes`` holds; W ranges over the
atomic fixtures. Each cone is one case, and it passes when the limit's own
legs are atom-preserving and satisfy ``commutes`` (they form a cone), and
exactly one hom τ from W to the apex has legᵢ∘τ = coneᵢ for every i.
Equalizers, pullbacks and products are diagrams fed to it.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass

from . import fixtures, oracles
from .coproduct import Cocone, Family, coprojection, fp_is_atom, fp_is_unit
from .coproduct import fp_length_set, fp_length_system_bounded, fp_mul, fp_union_k, reduce
from .core import _LAWS, FiniteMonoid, atoms, canonical_to_terminal, check_property, classify, compose, enumerate_homs
from .core import eval_word, extend_atom_map, identity_hom, is_atomon_mono, new_hom, new_monoid, terminal, units
from .errors import ImageNotAtomError, NonAssociativeError, UnknownSuiteError
from .lengths import EMPTY, ZERO_ONLY, EPSet, eps_cofinite, eps_finite, eps_from_window, eps_intersect
from .lengths import eps_minkowski_sum, eps_sum_many, eps_union
from .lengths import length_set, length_system, power_layers, union_k
from .limits import Reachability, congruence_closure, coequalizer, equalizer, pullback, pushout_eq_bounded
from .limits import pushout_presentation
from .product import ap_contains, ap_generators, ap_is_atom, ap_is_unit, ap_length_set, ap_length_system
from .product import ap_materialize, ap_union_k, ap_universal
from .serialize import word_to_text

_NAMED = ("zero", "one", "c2", "h2", "m31", "sl2")
_ATOMIC_NAMED = ("zero", "one", "c2", "h2", "m31")
_PERIODIC = ((3, 4), (5, 3), (2, 6))  # (preperiod, period) of the cyclic monoids

COPRODUCT_FAMILIES = (
    ("one", "one"),
    ("one", "c2"),
    ("one", "h2"),
    ("c2", "m31"),
    ("h2", "m31"),
    ("one", "c2", "m31"),
)
UNION_FAMILIES = (
    ("one", "m31"),
    ("one", "h2"),
    ("one", "c2"),
    ("m31", "h2"),
    ("m31", "c2"),
    ("h2", "c2"),
    ("one", "m31", "c2"),
)
RECOGNITION_FAMILIES = (
    ("one", "c2"),
    ("one", "one"),
    ("c2", "c2"),
    ("h2", "c2"),
)
PRODUCT_FAMILIES = (
    ("one", "one"),
    ("one", "c2"),
    ("c2", "c2"),
    ("one", "m31"),
    ("h2", "m31"),
    ("h2", "h2"),
    ("one", "one", "one"),
    ("one", "c2", "m31"),
)
GROUP_FAMILIES = (
    ("c2", "c2"),
    ("zero", "c2"),
    ("c2", "c2", "c2"),
)


@dataclass
class VerifyReport:
    suite: str
    cases: int
    mismatches: list[str]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self, timings: bool = False) -> list[str]:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        header = f"suite {self.suite}: {self.cases} cases, {status}"
        if timings:
            header += f" [{self.wall_time:.3f}s]"
        return [header] + [f"  mismatch: {m}" for m in self.mismatches]


# built once, on first use rather than at import; the monoids are immutable
_named_fixtures = functools.cache(fixtures.named_fixtures)
_random_monoid = functools.cache(fixtures.random_monoid)
_cyclic = functools.cache(fixtures.cyclic)


def _named(name: str) -> FiniteMonoid:
    return _named_fixtures()[name]


def _monoids(names, randoms: int = 0) -> list[tuple[str, FiniteMonoid]]:
    """The named fixtures, then the random monoids of seeds 0 .. randoms - 1,
    each with its label."""
    return [(n, _named(n)) for n in names] + [(f"random{i}", _random_monoid(i)) for i in range(randoms)]


def _periodic() -> list[tuple[str, FiniteMonoid]]:
    """The cyclic monoids of ``_PERIODIC``, each with its label. Every named
    and random fixture has power-layer period 1; in these the period exceeds
    1 and need not divide the preperiod."""
    return [(f"C({i},{p})", _cyclic(i, p)) for i, p in _PERIODIC]


def _family(names) -> Family:
    return Family([_named(n) for n in names])


@functools.cache
def _hom_list(source: FiniteMonoid, target: FiniteMonoid):
    return tuple(enumerate_homs(source, target))


def _composite(g, f) -> tuple[int, ...]:
    """The map of g∘f, read off the two maps: a composite of homs is a hom."""
    return tuple(map(g.map.__getitem__, f.map))


# ---------------------------------------------------------------------------
# lenset suites


def suite_length_oracle(rng, budget):
    bound = 12
    for name, m in _monoids(_NAMED, 20) + _periodic():
        rows = [oracles.brute_force_lengths(m, x, bound) for x in range(m.size)]
        for x, oracle in enumerate(rows):
            closed = set(length_set(m, x).members_upto(bound))
            yield closed != oracle and (
                f"{name} elem {m.names[x]}: length_set {sorted(closed)} vs oracle {sorted(oracle)}"
            )
        # up to the bound, U_k is the union of the rows that hold k
        for k in range(bound + 1):
            got = set(union_k(m, k).members_upto(bound))
            expected = set().union(*(row for row in rows if k in row))
            yield got != expected and f"{name} k={k}: union_k {sorted(got)} vs the oracle rows {sorted(expected)}"


def suite_length_invariance(rng, budget):
    for name, m in _monoids(_ATOMIC_NAMED, 8) + _periodic():
        us = sorted(units(m))
        for x in range(m.size):
            if x in units(m):
                continue
            base = length_set(m, x)
            for u in us:
                for v in us:
                    moved = length_set(m, m.mul(m.mul(u, x), v))
                    yield moved != base and f"{name}: L({u}*{x}*{v}) != L({x})"
        # only the identity's length set may contain 0
        for x in range(m.size):
            yield 0 in length_set(m, x) and x != m.identity and f"{name}: L({m.names[x]}) contains 0"
        # the layer cycle certificate must re-verify
        seq = power_layers(m)
        ats = sorted(atoms(m))
        recomputed = seq.layers[seq.preperiod - 1]
        for _ in range(seq.period):
            recomputed = frozenset(m.mul(y, a) for y in recomputed for a in ats)
        yield recomputed != seq.layers[seq.preperiod - 1] and f"{name}: layer cycle certificate failed"


def _random_eps(rng):
    t = rng.randint(0, 8)
    p = rng.randint(1, 8)
    head = {n for n in range(t) if rng.random() < 0.5}
    tail = {r for r in range(p) if rng.random() < 0.4}
    return EPSet(t, head, p, tail)


def suite_epset_arithmetic(rng, budget):
    bound = 60
    for _ in range(500):
        a, b = _random_eps(rng), _random_eps(rng)
        mem_a, mem_b = oracles.json_members(a, bound), oracles.json_members(b, bound)
        direct_sum = {x + y for x in mem_a for y in mem_b if x + y <= bound}
        checks = [
            ("sum", eps_minkowski_sum(a, b), direct_sum),
            ("union", eps_union(a, b), mem_a | mem_b),
            ("intersect", eps_intersect(a, b), mem_a & mem_b),
        ]
        for label, result, expected in checks:
            yield set(result.members_upto(bound)) != expected and (
                f"{label} of {a!r} and {b!r} wrong on [0,{bound}]"
            )
    # eps_sum_many sums equal parts by doubling; the plain fold is its oracle
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(2, 3)):
            parts += [_random_eps(rng)] * rng.randint(1, 8)
        rng.shuffle(parts)
        fold = functools.reduce(eps_minkowski_sum, parts, ZERO_ONLY)
        yield eps_sum_many(parts) != fold and f"sum of {parts!r} is not the fold {fold!r}"
    # the three plain constructors, read back through the JSON lists
    for _ in range(20):
        members = {n for n in range(rng.randint(0, 20)) if rng.random() < 0.4}
        yield oracles.json_members(eps_finite(members), bound) != members and f"eps_finite({sorted(members)}) wrong"
        start = rng.randint(0, 20)
        yield oracles.json_members(eps_cofinite(start), bound) != set(range(start, bound + 1)) and (
            f"eps_cofinite({start}) wrong"
        )
        t, p = rng.randint(0, 8), rng.randint(1, 8)
        head = {n for n in range(t) if rng.random() < 0.5}
        tail = {r for r in range(p) if rng.random() < 0.4}
        inside = lambda n: n in head if n < t else n % p in tail
        bits = [inside(n) for n in range(t + 2 * p + rng.randint(0, 5))]
        expected = set(filter(inside, range(bound + 1)))
        yield oracles.json_members(eps_from_window(bits, p, t), bound) != expected and (
            f"eps_from_window({bits}, {p}, {t}) wrong"
        )


# ---------------------------------------------------------------------------
# coproduct suites


def suite_coproduct_reduction(rng, budget):
    families = [_family(names) for names in (("one", "c2"), ("one", "one"))]
    for fam in families:
        alphabet = oracles.raw_alphabet(fam)
        # soundness of single moves, and confluence under random move orders
        for _ in range(150):
            length = rng.randint(0, 5)
            raw = tuple(rng.choice(alphabet) for _ in range(length))
            normal = reduce(fam, raw)
            for moved in oracles.congruence_moves(fam, raw):
                yield reduce(fam, moved) != normal and f"move changed the normal form of {raw}"
            word = raw
            while True:
                moves = oracles.congruence_moves(fam, word)
                if not moves:
                    break
                word = rng.choice(moves)
            yield word != normal.letters and f"random move order on {raw} missed the normal form"
        # words congruent to eps have only unit letters (exhaustive, length <= 4)
        for length in range(1, 5):
            for raw in itertools.product(alphabet, repeat=length):
                yield reduce(fam, raw) == fam.eps and not all(
                    x in units(fam.members[i]) for i, x in raw
                ) and f"non-unit letters in empty-class word {raw}"
    # the junction product against the normal form of the concatenation;
    # c2's unit letters make the merges cascade
    for names in (("one", "c2"), ("one", "one"), ("h2", "c2")):
        fam = _family(names)
        words = list(oracles.reduced_words_upto(fam, 3))
        for x, y in itertools.product(words, repeat=2):
            yield fp_mul(fam, x, y) != reduce(fam, x.letters + y.letters) and (
                f"{names}: fp_mul differs from reduce on {word_to_text(fam, x)} * {word_to_text(fam, y)}"
            )


def suite_coproduct_recognition(rng, budget):
    for names in RECOGNITION_FAMILIES:
        fam = _family(names)
        words = list(oracles.reduced_words_upto(fam, 3))
        unit_flags = {w: fp_is_unit(fam, w) for w in words}
        non_units = [w for w in words if not unit_flags[w]]
        reducible = {fp_mul(fam, u, v) for u in non_units for v in non_units}
        for w in words:
            definitional_unit = any(
                fp_mul(fam, w, v) == fam.eps and fp_mul(fam, v, w) == fam.eps
                for v in words
            )
            yield unit_flags[w] != definitional_unit and f"{names}: unit test disagrees on {word_to_text(fam, w)}"
            definitional_atom = not unit_flags[w] and w not in reducible
            yield fp_is_atom(fam, w) != definitional_atom and (
                f"{names}: atom test disagrees on {word_to_text(fam, w)}"
            )
    # atoms of a free product outnumber the member atoms (finite-scale contrast)
    fam = _family(("c2", "one"))
    atom_words = [w for w in oracles.reduced_words_upto(fam, 3) if fp_is_atom(fam, w)]
    member_atoms = sum(len(atoms(m)) for m in fam.members)
    yield len(atom_words) <= member_atoms and "free product did not gain atoms over its members"


def suite_coproduct_lengths(rng, budget):
    for names in COPRODUCT_FAMILIES:
        fam = _family(names)
        for w in oracles.reduced_words_upto(fam, 3):
            closed = set(fp_length_set(fam, w).members_upto(10))
            oracle = oracles.fp_brute_force_lengths(fam, w, 10, budget=budget)
            yield closed != oracle and (
                f"{names} word {word_to_text(fam, w)}: formula {sorted(closed)} vs search {sorted(oracle)}"
            )


def suite_coproduct_unions(rng, budget):
    max_k = 4
    for names in UNION_FAMILIES:
        fam = _family(names)
        # each word of at most max_k letters, as (letter count, length set),
        # shortest first; U_k is read off those of at most k letters
        sets = [(len(w.letters), fp_length_set(fam, w)) for w in oracles.reduced_words_upto(fam, max_k)]
        for k in range(0, max_k + 1):
            formula = fp_union_k(fam, k)
            if k:  # 0 has no composition into positive parts
                yield formula != oracles.union_k_oracle(fam, k) and (
                    f"{names} k={k}: {formula!r} vs the composition oracle"
                )
            direct = EMPTY
            for n, ls in sets:
                if n <= k and k in ls:
                    direct = eps_union(direct, ls)
            yield formula != direct and f"{names} k={k}: {formula!r} vs enumerated {direct!r}"


def suite_coproduct_systems(rng, budget):
    max_blocks = 3
    for names in COPRODUCT_FAMILIES:
        fam = _family(names)
        system = fp_length_system_bounded(fam, max_blocks)
        yield system.entries != oracles.system_oracle(fam, max_blocks) and (
            f"{names}: system differs from the index-word oracle"
        )
        # every short non-unit word's length set is listed, and every listed
        # entry is realized by an actual element: the words come shortest
        # first, so the longer ones are read only while an entry is unrealized
        unrealized = set(system.entries)
        for w in oracles.reduced_words_upto(fam, 2 * max_blocks - 1):
            short = len(w.letters) <= max_blocks
            if not short and not unrealized:
                break
            if not w.letters or fp_is_unit(fam, w):
                continue
            ls = fp_length_set(fam, w)
            unrealized.discard(ls)
            if short:
                yield ls not in system and f"{names}: system misses L({word_to_text(fam, w)})"
        for entry in system:
            yield entry in unrealized and f"{names}: system entry {entry!r} is not realized"


def suite_preserved_properties(rng, budget):
    """The cancellation laws ``core._LAWS`` on the free product and the
    product, one case per family and law, against two theorems. Each loop
    has families on both sides of its theorem.

    The free product satisfies each law iff every member is a group. If
    every member is one, every word is a unit and the free product is a
    group, where all three laws hold (see ``check_property``). Otherwise a
    member's non-unit has a non-unit idempotent power e, and the one-letter
    word e breaks all three laws. ``oracles.laws_hold`` decides them over
    the words of at most three letters, with ``fp_mul`` and ``fp_is_unit``.

    The product of atomic monoids satisfies each law iff some member is a
    group: then there is no atom tuple, and the unit tuples generate a
    group; otherwise an atom tuple is a non-unit, which breaks every law in
    a finite monoid.
    """
    for names in GROUP_FAMILIES + COPRODUCT_FAMILIES:
        fam = _family(names)
        group = all(len(units(m)) == m.size for m in fam.members)
        words = list(oracles.reduced_words_upto(fam, 3))
        mul, is_unit = functools.partial(fp_mul, fam), functools.partial(fp_is_unit, fam)
        for prop in _LAWS:
            yield oracles.laws_hold(prop, words, mul, is_unit) != group and (
                f"coproduct of {names}: {prop} is not {group}"
            )
    for names in GROUP_FAMILIES + PRODUCT_FAMILIES:
        fam = _family(names)
        mat, _ = ap_materialize(fam, 60)
        group = any(len(units(m)) == m.size for m in fam.members)
        for prop in _LAWS:
            yield check_property(mat, prop) != group and f"product of {names}: {prop} is not {group}"


# ---------------------------------------------------------------------------
# product suites


def suite_product_formulas(rng, budget):
    for names in PRODUCT_FAMILIES:
        fam = _family(names)
        mat, projections = ap_materialize(fam, 60)
        order = list(zip(*(p.map for p in projections)))
        index = {t: i for i, t in enumerate(order)}
        gens = ap_generators(fam)
        # formula length sets match table-level dynamic programming
        for t, i in index.items():
            yield ap_length_set(fam, t) != length_set(mat, i) and (
                f"{names}: L{t} disagrees with materialized table"
            )
        yield ap_length_system(fam).entries != length_system(mat).entries and (
            f"{names}: length systems disagree"
        )
        yield ap_length_system(fam, True).entries != length_system(mat, True).entries and (
            f"{names}: non-zero length systems disagree"
        )
        # the fold against the intersections of every choice
        for nonzero in (False, True):
            yield ap_length_system(fam, nonzero).entries != oracles.product_system_oracle(fam, nonzero) and (
                f"{names}: length system (nonzero_only={nonzero}) differs from the product of choices"
            )
        # membership criterion matches the closure, over the full direct product
        for t in itertools.product(*(range(m.size) for m in fam.members)):
            yield ap_contains(fam, t) != (t in index) and f"{names}: membership of {t} wrong"
        # units and atoms of the materialized table are the generator tuples,
        # and the tuples the unit and atom tests accept
        mat_units, mat_atoms = units(mat), atoms(mat)
        yield {order[u] for u in mat_units} != set(gens.unit_tuples) and f"{names}: unit tuples disagree"
        yield {order[a] for a in mat_atoms} != set(gens.atom_tuples) and f"{names}: atom tuples disagree"
        for i, t in enumerate(order):
            yield ap_is_unit(fam, t) != (i in mat_units) and f"{names}: ap_is_unit{t} disagrees with the table"
            yield ap_is_atom(fam, t) != (i in mat_atoms) and f"{names}: ap_is_atom{t} disagrees with the table"
        # projections restricted to the product preserve atoms
        for comp, member in enumerate(fam.members):
            member_atoms = atoms(member)
            yield not all(t[comp] in member_atoms for t in gens.atom_tuples) and (
                f"{names}: projection {comp} not atom-preserving"
            )
        # unit * atom * unit stays an atom
        for u1 in sorted(gens.unit_tuples):
            for a in sorted(gens.atom_tuples):
                for u2 in sorted(gens.unit_tuples):
                    conj = oracles.tuple_mul(fam, oracles.tuple_mul(fam, u1, a), u2)
                    yield conj not in gens.atom_tuples and f"{names}: {u1}*{a}*{u2} left the atom tuples"


def suite_product_unions(rng, budget):
    for names in PRODUCT_FAMILIES:
        fam = _family(names)
        mat, _ = ap_materialize(fam, 60)
        for k in range(0, 7):
            yield ap_union_k(fam, k) != union_k(mat, k) and (
                f"{names} k={k}: union formula disagrees with table"
            )


# ---------------------------------------------------------------------------
# limit suites


def suite_universal_properties(rng, budget):
    yield from _equalizer_up()
    yield from _pullback_up()
    yield from _coproduct_up()
    yield from _product_up()
    yield from _mono_up()
    yield from _pushout_sound()


def _limit_up(label, apex, legs, objects, commutes):
    """The limit (apex, legs) of a diagram over ``objects``, checked as the
    module docstring says. ``commutes`` takes a tuple of homs, one into each
    object, and tells whether it agrees with the diagram's arrows."""
    legs_form_a_cone = all(leg.atom_preserving for leg in legs) and commutes(legs)
    for wn, w in _monoids(_ATOMIC_NAMED):
        # the cone each τ: W -> apex gives, as its tuple of maps
        cones_via_apex = [tuple(_composite(leg, tau) for leg in legs) for tau in _hom_list(w, apex)]
        for cone in itertools.product(*(_hom_list(w, o) for o in objects)):
            if not commutes(cone):
                continue
            found = cones_via_apex.count(tuple(c.map for c in cone))
            yield (not legs_form_a_cone or found != 1) and (
                f"{label}: the cone {[c.map for c in cone]} from {wn} factors {found} times"
                + ("" if legs_form_a_cone else ", and the legs are not an atom-preserving cone")
            )


def _equalizer_up():
    for hn, kn in (("h2", "h2"), ("h2", "one"), ("c2", "c2"), ("m31", "one")):
        for f, g in itertools.product(_hom_list(_named(hn), _named(kn)), repeat=2):
            e_monoid, e = equalizer(f, g)
            yield from _limit_up(
                f"equalizer of {f.map}, {g.map}: {hn}->{kn}", e_monoid, (e,), (f.source,),
                lambda c: _composite(f, c[0]) == _composite(g, c[0]),
            )


def _pullback_up():
    # (source of f, source of g, common target); on (h2, h2) -> h2 the
    # identity and the swap disagree on atoms, so atom pairs need the filter
    for hn, kn, tn in (("h2", "one", "one"), ("h2", "h2", "one"), ("m31", "h2", "one"),
                       ("c2", "c2", "c2"), ("h2", "h2", "h2")):
        t = _named(tn)
        for f, g in itertools.product(_hom_list(_named(hn), t), _hom_list(_named(kn), t)):
            p, p1, p2 = pullback(f, g)
            yield from _limit_up(
                f"pullback of {f.map}, {g.map}: {hn}->{tn}<-{kn}", p, (p1, p2), (f.source, g.source),
                lambda c: _composite(f, c[0]) == _composite(g, c[1]),
            )


def _product_up():
    """The materialized product as a limit, then ``ap_universal``: for each
    cone from W, the map w -> ap_universal(cone, w), read as elements of the
    table through the projections, must be one of the homs W -> product and
    give back each leg of the cone after the projection. One case per cone."""
    for names in (("one", "one"), ("one", "c2"), ("h2", "h2")):
        fam = _family(names)
        mat, projections = ap_materialize(fam, 60)
        yield from _limit_up(f"product of {names}", mat, projections, fam.members, lambda c: True)
        index = {t: i for i, t in enumerate(zip(*(p.map for p in projections)))}
        for wn, w in _monoids(_ATOMIC_NAMED):
            homs = {h.map for h in _hom_list(w, mat)}
            for cone in itertools.product(*(_hom_list(w, m) for m in fam.members)):
                tau = tuple(index.get(ap_universal(cone, x)) for x in range(w.size))
                legs = [tuple(map(p.map.__getitem__, tau)) for p in projections] if tau in homs else None
                yield legs != [c.map for c in cone] and (
                    f"product of {names}: ap_universal sends the cone {[c.map for c in cone]} from {wn} to {tau}"
                )


def _mono_up():
    """is_atomon_mono against the definition of a mono, in its sound
    direction: when f: S -> T passes the test, no two atom-preserving homs
    g != h from an atomic test object W into S have f∘g = f∘h. Proof: W is
    atomic, so its units and atoms generate it. A hom sends units to units
    (g(u)·g(u⁻¹) = g(1) = 1), and g and h, being atom-preserving, send atoms
    to atoms. f is injective on the units and atoms of S, so f∘g = f∘h makes
    g and h agree on those generators of W, hence everywhere. The converse,
    that a hom the test refuses has such a pair, needs test objects the five
    atomic fixtures may lack, so it is not checked. One case per f that
    passes the test and test object W.
    """
    for (sn, s), (tn, t) in itertools.product(_monoids(_ATOMIC_NAMED), repeat=2):
        for f in _hom_list(s, t):
            if not is_atomon_mono(f):
                continue
            for wn, w in _monoids(_ATOMIC_NAMED):
                homs = _hom_list(w, s)
                yield len({_composite(f, g) for g in homs}) < len(homs) and (
                    f"mono {sn}->{tn} {f.map}: two homs from {wn} agree after it"
                )


def _coproduct_up():
    for names in (("one", "c2"), ("one", "one")):
        fam = _family(names)
        for kn in ("one", "h2"):
            k = _named(kn)
            for homs in itertools.product(*(_hom_list(m, k) for m in fam.members)):
                induced = Cocone(fam, homs)
                # coprojection triangles
                for i, m in enumerate(fam.members):
                    for x in range(m.size):
                        via = induced(coprojection(fam, i, x))
                        yield via != homs[i].map[x] and f"coproduct triangle fails at {names}[{i}]:{x}"
                # multiplicativity on short words
                words = list(oracles.reduced_words_upto(fam, 2))
                for w1 in words:
                    for w2 in words:
                        lhs = induced(fp_mul(fam, w1, w2))
                        rhs = k.mul(induced(w1), induced(w2))
                        yield lhs != rhs and f"induced coproduct map not multiplicative on {names}"


def _pushout_sound():
    """pushout_eq_bounded against the cocones of its span, in its sound
    direction. A cocone (u, v) from the span f, g into K, with u∘f = v∘g,
    factors through the pushout, so two words EQUAL there have equal images
    under it. Over the pushout of identity_hom(h2) with itself, each pair of
    words of at most two letters that some cocone into an atomic fixture
    separates is one case; it passes when the depth-1 answer is UNKNOWN. The
    pairs no cocone separates cannot fail, so they are not asked. Both legs
    of the span are one hom, so swapping the two members maps the
    presentation onto itself, and a pair and its mirror image have one
    answer. So only the pairs whose first word has no letter of member 1
    are asked; every other separated pair is the mirror image of one of
    them.

    Then the depth bound. Over the span one -> h2 <- one with both legs
    a -> a, the relations identify a@0 with a@1 and 0@0 with 0@1. One
    rewrite takes (a@0)(b@1) only to (a@1)(b@1) = 0@1, one takes (b@0)(a@1)
    only to (b@0)(a@0) = 0@0, and a third joins 0@1 to 0@0. So the two
    words, and their mirror images, first meet at depth 2. Each pair is one
    case: UNKNOWN at depth 1, EQUAL at depth 2, and separated by no cocone.
    """
    h2 = _named("h2")
    pres, images = _span_images(identity_hom(h2))
    words = [(w, images(w)) for w in oracles.reduced_words_upto(pres.family, 2)]
    for (w1, i1), (w2, i2) in itertools.combinations(words, 2):
        if i1 != i2 and all(letter.mon == 0 for letter in w1.letters):
            yield pushout_eq_bounded(pres, w1, w2, 1) is Reachability.EQUAL and (
                f"pushout of id_h2 with itself: {word_to_text(pres.family, w1)} and "
                f"{word_to_text(pres.family, w2)} are EQUAL, but a cocone separates them"
            )
    pres, images = _span_images(new_hom(_named("one"), h2, (0, 1, 3)))
    for i, j in ((0, 1), (1, 0)):
        w1, w2 = reduce(pres.family, ((i, 1), (j, 2))), reduce(pres.family, ((i, 2), (j, 1)))
        answers = [pushout_eq_bounded(pres, w1, w2, depth).value for depth in (1, 2)]
        yield (answers != ["unknown", "equal"] or images(w1) != images(w2)) and (
            f"pushout of one -> h2 <- one: {word_to_text(pres.family, w1)} and "
            f"{word_to_text(pres.family, w2)} answer {answers} at depths 1 and 2"
        )


def _span_images(f):
    """The pushout presentation of the span f, f, and a function giving a
    word's images under every cocone from that span into an atomic fixture."""
    pres = pushout_presentation(f, f)
    cocones = [
        Cocone(pres.family, (u, v))
        for _, k in _monoids(_ATOMIC_NAMED)
        for u, v in itertools.product(_hom_list(f.target, k), repeat=2)
        if _composite(u, f) == _composite(v, f)
    ]
    return pres, lambda w: tuple(c(w) for c in cocones)


def _blocks(labels) -> list[frozenset[int]]:
    """The blocks of the partition in which x and y share a block when
    labels[x] == labels[y], in the order of their least elements."""
    blocks: dict = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, set()).add(x)
    return [frozenset(block) for block in blocks.values()]


def _refines(fine, coarse) -> bool:
    return all(len({coarse[x] for x in block}) == 1 for block in _blocks(fine))


def suite_coequalizers(rng, budget):
    pool = [
        (hn, kn, f, g)
        for (hn, h), (kn, k) in itertools.product(_monoids(_ATOMIC_NAMED), repeat=2)
        for f, g in itertools.product(_hom_list(h, k), repeat=2)
    ]
    picks = [pool[rng.randrange(len(pool))] for _ in range(50)]
    for hn, kn, f, g in picks:
        k = f.target
        try:
            q_monoid, q = coequalizer(f, g)
        except Exception as exc:
            yield f"coequalizer {hn}->{kn} failed: {exc}"
            continue
        yield not check_property(q_monoid, "atomic") and f"coequalizer of {hn}->{kn}: quotient not atomic"
        for x in range(k.size):
            yield classify(k, x).value != classify(q_monoid, q.map[x]).value and (
                f"coequalizer of {hn}->{kn}: class of {x} not preserved"
            )
        seeds = [(f.map[h], g.map[h]) for h in range(f.source.size)]
        closure = congruence_closure(k, seeds)
        compatible = [
            leader
            for leader in oracles.all_partitions(k.size)
            if oracles.is_congruence(k, leader) and all(leader[a] == leader[b] for a, b in seeds)
        ]
        # the least compatible partition: it refines every one, and one refines it
        least = all(_refines(closure.leader, other) for other in compatible) and any(
            _refines(other, closure.leader) for other in compatible
        )
        yield not least and f"coequalizer of {hn}->{kn}: closure {closure.leader} is not least for {seeds}"
        # the classes against the blocks of the least partition, found among the oracle's alone
        oracle = next((_blocks(p) for p in compatible if all(_refines(p, other) for other in compatible)), None)
        yield closure.classes() != oracle and (
            f"coequalizer of {hn}->{kn}: classes {closure.classes()} are not the least partition {oracle}"
        )


def suite_terminal_uniqueness(rng, budget):
    target = terminal()
    for name, m in _monoids(_ATOMIC_NAMED, 10):
        if not check_property(m, "atomic"):
            continue
        homs = _hom_list(m, target)
        canonical = canonical_to_terminal(m)
        yield (len(homs) != 1 or homs[0].map != canonical.map) and (
            f"{name}: expected exactly the canonical map, found {len(homs)}"
        )


def suite_core_axioms(rng, budget):
    for name, m in _monoids(_NAMED, 10):
        us = units(m)
        yield m.identity not in us and f"{name}: identity is not a unit"
        closed = all(m.mul(u, v) in us for u in us for v in us)
        has_inverses = all(
            any(m.mul(u, v) == m.identity and m.mul(v, u) == m.identity for v in us)
            for u in us
        )
        yield not (closed and has_inverses) and f"{name}: units do not form a group"
        yield bool(us & atoms(m)) and f"{name}: an atom is a unit"
        inverses = [(x, y) for x in range(m.size) for y in range(m.size) if m.mul(x, y) == m.identity]
        dedekind = all(m.mul(y, x) == m.identity for x, y in inverses)
        yield check_property(m, "dedekind_finite") != dedekind and f"{name}: dedekind_finite is not {dedekind}"
        if check_property(m, "atomic"):
            ats = atoms(m)
            for u in sorted(us):
                for v in sorted(us):
                    for x in range(m.size):
                        yield (x in ats) != (m.mul(m.mul(u, x), v) in ats) and (
                            f"{name}: unit conjugation moved atom status of {x}"
                        )
        for _ in range(20):
            w1 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
            w2 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
            yield eval_word(m, w1 + w2) != m.mul(eval_word(m, w1), eval_word(m, w2)) and (
                f"{name}: word evaluation is not multiplicative"
            )
    # atom-preserving homs preserve the unit/atom/reducible classes
    pairs = itertools.product(_monoids(_ATOMIC_NAMED), repeat=2)
    arrows = [(hn, kn, f) for (hn, h), (kn, k) in pairs for f in _hom_list(h, k)]
    for hn, kn, f in arrows:
        for x in range(f.source.size):
            yield classify(f.source, x).value != classify(f.target, f.map[x]).value and (
                f"hom {hn}->{kn} moves class of {x}"
            )
    # compose gives the atom-preserving composite of the maps, and is
    # associative on composable triples
    homs = [f for _, _, f in arrows]
    composites = {(j, i): compose(g, f) for i, f in enumerate(homs) for j, g in enumerate(homs) if f.target == g.source}
    for (j, i), gf in composites.items():
        bad = gf.map != _composite(homs[j], homs[i]) or not gf.atom_preserving
        yield bad and f"compose of {homs[j].map} after {homs[i].map} is {gf.map}"
    for (j, i), (k, after) in itertools.product(composites, repeat=2):
        if after == j:
            bad = compose(homs[k], composites[j, i]) != compose(composites[k, j], homs[i])
            yield bad and f"compose is not associative on {homs[k].map}, {homs[j].map}, {homs[i].map}"
    # extend_atom_map, for each map of the symbols x and y to atoms: on a
    # concatenation w1 + w2 it gives the product of w1 and w2, each multiplied
    # out; and it refuses a non-atom image
    words = [w for n in range(3) for w in itertools.product("xy", repeat=n)]
    for name, m in _monoids(_ATOMIC_NAMED):
        for images in (dict(zip("xy", ab)) for ab in itertools.product(sorted(atoms(m)), repeat=2)):
            value = {w: functools.reduce(m.mul, map(images.get, w), m.identity) for w in words}
            for w1, w2 in itertools.product(words, repeat=2):
                bad = extend_atom_map(m, images, w1 + w2) != m.mul(value[w1], value[w2])
                yield bad and f"{name}: extend_atom_map of {images} is not multiplicative on {w1}, {w2}"
        for x in sorted(set(range(m.size)) - atoms(m)):
            try:
                extend_atom_map(m, {"x": x}, ())
                refused = None
            except ImageNotAtomError as exc:
                refused = exc.symbol
            yield refused != "x" and f"{name}: extend_atom_map does not refuse the non-atom image {x}"


# ---------------------------------------------------------------------------
# generator-based table algorithms against the exhaustive ones they replaced


_PERTURBED_COPIES = 4
_HOM_SPACE_LIMIT = 4096


def suite_generator_oracles(rng, budget):
    monoids = _monoids(_NAMED, 20)
    for name, m in monoids:
        yield units(m) != oracles.units_by_pairs(m) and f"{name}: units {sorted(units(m))} vs the pair scan"
        yield atoms(m) != oracles.atoms_by_pairs(m) and f"{name}: atoms {sorted(atoms(m))} vs the pair scan"
        # check_property decides the cancellation laws by counting units
        for prop in _LAWS:
            got = check_property(m, prop)
            expected = oracles.laws_hold(prop, range(m.size), m.mul, units(m).__contains__)
            yield got != expected and f"{name}: {prop} is {got}, the law scan says {expected}"
        # copies with one entry changed off the identity row and column, so
        # the identity law still holds and only associativity can fail:
        # every such copy of a named fixture, a seeded sample of the others
        others = [x for x in range(m.size) if x != m.identity]
        changes = [(x, y, v) for x in others for y in others for v in range(m.size) if v != m.table[x][y]]
        if name not in _NAMED:
            changes = rng.sample(changes, min(_PERTURBED_COPIES, len(changes)))
        tables = [(name, m.table)]
        for x, y, v in changes:
            table = [list(row) for row in m.table]
            table[x][y] = v
            tables.append((f"{name} with {x}*{y}={v}", table))
        for label, table in tables:
            try:
                new_monoid(m.names, table, m.identity)
                got = None
            except NonAssociativeError as exc:
                got = exc.triple
            expected = oracles.ijk_scan(table)
            yield got != expected and f"{label}: Light's test gives {got}, the scan {expected}"
    # union_k reads U(T + (k - T) mod p) from T + p on, and the fold reads no
    # period, so the cyclic monoids of period > 1 are added for the wrap-around
    for name, m in monoids + _periodic():
        seq = power_layers(m)
        for k in range(seq.preperiod + 2 * seq.period + 1):
            got, expected = union_k(m, k), oracles.union_k_by_fold(m, k)
            yield got != expected and f"{name}: union_k at {k} is {got!r}, the fold gives {expected!r}"
    # equal tables have equal hom lists, so each distinct table is kept once
    distinct: dict = {}
    for name, m in monoids:
        distinct.setdefault((m.table, m.identity), (name, m))
    for (sn, s), (tn, t) in itertools.product(distinct.values(), repeat=2):
        if t.size ** (s.size - 1) > _HOM_SPACE_LIMIT:
            continue
        got = [(h.map, h.atom_preserving) for h in enumerate_homs(s, t, atom_preserving_only=False)]
        yield got != oracles.exhaustive_homs(s, t) and (
            f"homs {sn}->{tn}: generator search disagrees with exhaustive search"
        )


SUITES = {
    "length-oracle": suite_length_oracle,
    "length-invariance": suite_length_invariance,
    "epset-arithmetic": suite_epset_arithmetic,
    "coproduct-reduction": suite_coproduct_reduction,
    "coproduct-recognition": suite_coproduct_recognition,
    "coproduct-lengths": suite_coproduct_lengths,
    "coproduct-unions": suite_coproduct_unions,
    "coproduct-systems": suite_coproduct_systems,
    "preserved-properties": suite_preserved_properties,
    "product-formulas": suite_product_formulas,
    "product-unions": suite_product_unions,
    "universal-properties": suite_universal_properties,
    "coequalizers": suite_coequalizers,
    "terminal-uniqueness": suite_terminal_uniqueness,
    "core-axioms": suite_core_axioms,
    "generator-oracles": suite_generator_oracles,
}


def cmd_verify(suite: str, seed: int = 0, budget: int | None = None) -> VerifyReport:
    """Run one verification suite to completion."""
    if suite not in SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    rng = random.Random(seed)
    start = time.perf_counter()
    outcomes = list(SUITES[suite](rng, budget))
    wall_time = time.perf_counter() - start
    return VerifyReport(suite, len(outcomes), [o for o in outcomes if o], wall_time)


def run_all(seed: int = 0, budget: int | None = None) -> list[VerifyReport]:
    return [cmd_verify(name, seed, budget) for name in sorted(SUITES)]
