"""Formula-versus-oracle verification suites: suites only.

Every suite pits a closed-form computation against an independent bounded
or exhaustive check from ``oracles`` and reports mismatches with their full
inputs. This module holds the suites, their fixtures and the runner; the
oracles themselves live in ``oracles``. Suite names are stable identifiers
used by the CLI `verify` command.

A suite is a tuple of parts ``(inputs, check)``, run in order with one
seeded rng. ``inputs(rng)`` gives ``(label, value)`` pairs, and
``check(value, rng, budget)`` yields one outcome per case of that input: a
falsy value when it passes, or the mismatch message (a non-empty str),
written `bad and f"..."` so a passing case formats none; a label is
formatted only for a mismatch too, so it may be the value itself.
`cmd_verify` alone loops over the inputs, counts the cases and prefixes
each mismatch with its input's label. An `AtomonError` raised while an
input is checked counts as one failing case, "<label>: raised <Type>:
<message>", and the next input runs; one raised while a part's inputs are
drawn is one failing case labelled "inputs of <check>", and the next part
runs. Any other exception propagates. The search budget is resolved before
any case runs, so a bad one is an error.

A check builds the set that a definition quantifies over once per family,
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
from typing import NamedTuple

from . import fixtures, oracles
from .coproduct import Cocone, Family, coprojection, fp_is_atom, fp_is_unit
from .coproduct import fp_length_set, fp_length_system_bounded, fp_mul, fp_union_k, reduce
from .core import _LAWS, FiniteMonoid, _search_budget, atoms, canonical_to_terminal, check_property, classify
from .core import compose, enumerate_homs, eval_word, extend_atom_map, identity_hom, is_atomon_mono, new_hom
from .core import new_monoid, terminal, units
from .errors import AtomonError, ImageNotAtomError, NonAssociativeError, UnknownSuiteError
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
_EPS_BOUND = 60  # EPSets are compared on [0, _EPS_BOUND]

COPRODUCT_FAMILIES = (("one", "one"), ("one", "c2"), ("one", "h2"), ("c2", "m31"), ("h2", "m31"), ("one", "c2", "m31"))
UNION_FAMILIES = (
    ("one", "m31"), ("one", "h2"), ("one", "c2"), ("m31", "h2"), ("m31", "c2"), ("h2", "c2"), ("one", "m31", "c2"),
)
RECOGNITION_FAMILIES = (("one", "c2"), ("one", "one"), ("c2", "c2"), ("h2", "c2"))
PRODUCT_FAMILIES = (
    ("one", "one"), ("one", "c2"), ("c2", "c2"), ("one", "m31"), ("h2", "m31"), ("h2", "h2"), ("one", "one", "one"),
    ("one", "c2", "m31"),
)
GROUP_FAMILIES = (("c2", "c2"), ("zero", "c2"), ("c2", "c2", "c2"))


class VerifyReport(NamedTuple):
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


# built once, on first use rather than at import; sharing is sound, as a FiniteMonoid cannot change
_named_fixtures = functools.cache(fixtures.named_fixtures)
_random_monoid = functools.cache(fixtures.random_monoid)
_cyclic = functools.cache(fixtures.cyclic)
_partitions = functools.cache(oracles.all_partitions)


def _named(name: str) -> FiniteMonoid:
    return _named_fixtures()[name]


def _monoids(names, randoms: int = 0, periodic: bool = False) -> list[tuple[str, FiniteMonoid]]:
    """The named fixtures, then the random monoids of seeds 0 .. randoms - 1,
    then, if ``periodic``, the cyclic monoids of ``_PERIODIC``, each with its
    label. Every named and random fixture has power-layer period 1; in the
    cyclic ones the period exceeds 1 and need not divide the preperiod."""
    return (
        [(n, _named(n)) for n in names]
        + [(f"random{i}", _random_monoid(i)) for i in range(randoms)]
        + [(f"C({i},{p})", _cyclic(i, p)) for i, p in _PERIODIC if periodic]
    )


def _family(names) -> Family:
    return Family([_named(n) for n in names])


def _families(*groups, prefix: str = ""):
    """Inputs: the family of each tuple of fixture names in the groups, labelled by ``prefix`` and the names."""
    return lambda rng: [(f"{prefix}{names}", _family(names)) for group in groups for names in group]


def _homs_among(names) -> list[tuple]:
    """Each atom-preserving hom between two of the named fixtures, labelled by its ends and map."""
    pairs = itertools.product(_monoids(names), repeat=2)
    return [(f"{hn}->{kn} {f.map}", f) for (hn, h), (kn, k) in pairs for f in _hom_list(h, k)]


@functools.cache
def _hom_list(source: FiniteMonoid, target: FiniteMonoid):
    return tuple(enumerate_homs(source, target))


def _composite(g, f) -> tuple[int, ...]:
    """The map of g∘f, read off the two maps: a composite of homs is a hom."""
    return tuple(map(g.map.__getitem__, f.map))


# ---------------------------------------------------------------------------
# lenset suites


def _length_oracle(m, rng, budget):
    bound = 12
    rows = [oracles.brute_force_lengths(m, x, bound, budget) for x in range(m.size)]
    for x, oracle in enumerate(rows):
        closed = set(length_set(m, x).members_upto(bound))
        yield closed != oracle and f"elem {m.names[x]}: length_set {sorted(closed)} vs oracle {sorted(oracle)}"
    # up to the bound, U_k is the union of the rows that hold k
    for k in range(bound + 1):
        got = set(union_k(m, k).members_upto(bound))
        expected = set().union(*(row for row in rows if k in row))
        yield got != expected and f"k={k}: union_k {sorted(got)} vs the oracle rows {sorted(expected)}"


def _length_invariance(m, rng, budget):
    us = sorted(units(m))
    for x in range(m.size):
        if x in units(m):
            continue
        base = length_set(m, x)
        for u in us:
            for v in us:
                moved = length_set(m, m.mul(m.mul(u, x), v))
                yield moved != base and f"L({u}*{x}*{v}) != L({x})"
    # only the identity's length set may contain 0
    for x in range(m.size):
        yield 0 in length_set(m, x) and x != m.identity and f"L({m.names[x]}) contains 0"
    # the layer cycle certificate must re-verify
    seq = power_layers(m)
    ats = sorted(atoms(m))
    recomputed = seq.layers[seq.preperiod - 1]
    for _ in range(seq.period):
        recomputed = frozenset(m.mul(y, a) for y in recomputed for a in ats)
    yield recomputed != seq.layers[seq.preperiod - 1] and "layer cycle certificate failed"


def _random_eps(rng):
    t = rng.randint(0, 8)
    p = rng.randint(1, 8)
    head = {n for n in range(t) if rng.random() < 0.5}
    tail = {r for r in range(p) if rng.random() < 0.4}
    return EPSet(t, head, p, tail)


def _eps_pairs(rng):
    for _ in range(500):
        pair = _random_eps(rng), _random_eps(rng)
        yield pair, pair


def _eps_operations(pair, rng, budget):
    a, b = pair
    mem_a, mem_b = oracles.json_members(a, _EPS_BOUND), oracles.json_members(b, _EPS_BOUND)
    mask_b = sum(1 << y for y in mem_b)  # the sums: mask_b shifted by each member of mem_a
    sums = functools.reduce(int.__or__, (mask_b << x for x in mem_a), 0)
    direct_sum = {n for n in range(_EPS_BOUND + 1) if sums >> n & 1}
    checks = [
        ("sum", eps_minkowski_sum(a, b), direct_sum),
        ("union", eps_union(a, b), mem_a | mem_b),
        ("intersect", eps_intersect(a, b), mem_a & mem_b),
    ]
    for op, result, expected in checks:
        yield set(result.members_upto(_EPS_BOUND)) != expected and f"{op} wrong on [0,{_EPS_BOUND}]"


def _eps_summands(rng):
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(2, 3)):
            parts += [_random_eps(rng)] * rng.randint(1, 8)
        rng.shuffle(parts)
        yield parts, parts


def _eps_sum_many(parts, rng, budget):
    # eps_sum_many sums equal parts by doubling; the plain fold is its oracle
    fold = functools.reduce(eps_minkowski_sum, parts, ZERO_ONLY)
    yield eps_sum_many(parts) != fold and f"eps_sum_many is not the fold {fold!r}"


def _eps_draws(rng):
    # a finite set, the start of a cofinite one, and a window with its period and preperiod
    for _ in range(20):
        members = {n for n in range(rng.randint(0, 20)) if rng.random() < 0.4}
        start = rng.randint(0, 20)
        t, p = rng.randint(0, 8), rng.randint(1, 8)
        head = {n for n in range(t) if rng.random() < 0.5}
        tail = {r for r in range(p) if rng.random() < 0.4}
        inside = lambda n: n in head if n < t else n % p in tail
        bits = [inside(n) for n in range(t + 2 * p + rng.randint(0, 5))]
        expected = set(filter(inside, range(_EPS_BOUND + 1)))
        label = f"eps_finite({sorted(members)}), eps_cofinite({start}), eps_from_window({bits}, {p}, {t})"
        yield label, (members, start, (bits, p, t), expected)


def _eps_constructors(draw, rng, budget):
    # each read back through the JSON lists
    members, start, window, expected = draw
    read = functools.partial(oracles.json_members, bound=_EPS_BOUND)
    yield read(eps_finite(members)) != members and "eps_finite wrong"
    yield read(eps_cofinite(start)) != set(range(start, _EPS_BOUND + 1)) and "eps_cofinite wrong"
    yield read(eps_from_window(*window)) != expected and "eps_from_window wrong"


# ---------------------------------------------------------------------------
# coproduct suites


def _reduction_moves(fam, rng, budget):
    alphabet, eps = oracles.raw_alphabet(fam), fam.eps
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
            yield reduce(fam, raw) == eps and not all(
                x in units(fam.members[i]) for i, x in raw
            ) and f"non-unit letters in empty-class word {raw}"


def _junction_products(fam, rng, budget):
    # the junction product against the normal form of the concatenation;
    # c2's unit letters make the merges cascade
    words = list(oracles.reduced_words_upto(fam, 3))
    for x, y in itertools.product(words, repeat=2):
        yield fp_mul(fam, x, y) != reduce(fam, x.letters + y.letters) and (
            f"fp_mul differs from reduce on {word_to_text(fam, x)} * {word_to_text(fam, y)}"
        )


def _recognition(fam, rng, budget):
    words, eps = list(oracles.reduced_words_upto(fam, 3)), fam.eps
    unit_flags = {w: fp_is_unit(fam, w) for w in words}
    non_units = [w for w in words if not unit_flags[w]]
    reducible = {fp_mul(fam, u, v) for u in non_units for v in non_units}
    for w in words:
        definitional_unit = any(fp_mul(fam, w, v) == eps == fp_mul(fam, v, w) for v in words)
        yield unit_flags[w] != definitional_unit and f"unit test disagrees on {word_to_text(fam, w)}"
        definitional_atom = not unit_flags[w] and w not in reducible
        yield fp_is_atom(fam, w) != definitional_atom and f"atom test disagrees on {word_to_text(fam, w)}"


def _atoms_outnumber_the_members(fam, rng, budget):
    # atoms of a free product outnumber the member atoms (finite-scale contrast)
    atom_words = [w for w in oracles.reduced_words_upto(fam, 3) if fp_is_atom(fam, w)]
    member_atoms = sum(len(atoms(m)) for m in fam.members)
    yield len(atom_words) <= member_atoms and "free product did not gain atoms over its members"


def _coproduct_lengths(fam, rng, budget):
    for w in oracles.reduced_words_upto(fam, 3):
        closed = set(fp_length_set(fam, w).members_upto(10))
        oracle = oracles.fp_brute_force_lengths(fam, w, 10, budget=budget)
        yield closed != oracle and (
            f"word {word_to_text(fam, w)}: formula {sorted(closed)} vs search {sorted(oracle)}"
        )


def _coproduct_unions(fam, rng, budget):
    max_k = 4
    # each word of at most max_k letters, as (letter count, length set),
    # shortest first; U_k is read off those of at most k letters
    sets = [(len(w.letters), fp_length_set(fam, w)) for w in oracles.reduced_words_upto(fam, max_k)]
    for k in range(0, max_k + 1):
        formula = fp_union_k(fam, k)
        if k:  # 0 has no composition into positive parts
            yield formula != oracles.union_k_oracle(fam, k) and f"k={k}: {formula!r} vs the composition oracle"
        direct = EMPTY
        for n, ls in sets:
            if n <= k and k in ls:
                direct = eps_union(direct, ls)
        yield formula != direct and f"k={k}: {formula!r} vs enumerated {direct!r}"


def _coproduct_systems(fam, rng, budget):
    max_blocks = 3
    system = fp_length_system_bounded(fam, max_blocks)
    yield system.entries != oracles.system_oracle(fam, max_blocks) and "system differs from the index-word oracle"
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
            yield ls not in system and f"system misses L({word_to_text(fam, w)})"
    for entry in system:
        yield entry in unrealized and f"system entry {entry!r} is not realized"


def _coproduct_laws(fam, rng, budget):
    """The cancellation laws ``core._LAWS`` on the free product, one case per
    law. With ``_product_laws`` this is the `preserved-properties` suite,
    which checks two theorems over families on both sides of each.

    The free product satisfies each law iff every member is a group. If
    every member is one, every word is a unit and the free product is a
    group, where all three laws hold (see ``check_property``). Otherwise a
    member's non-unit has a non-unit idempotent power e, and the one-letter
    word e breaks all three laws. ``oracles.laws_hold`` decides them over
    the words of at most three letters, with ``fp_mul`` and ``fp_is_unit``.
    """
    group = all(len(units(m)) == m.size for m in fam.members)
    words = list(oracles.reduced_words_upto(fam, 3))
    mul, is_unit = functools.partial(fp_mul, fam), functools.partial(fp_is_unit, fam)
    for prop in _LAWS:
        yield oracles.laws_hold(prop, words, mul, is_unit) != group and f"{prop} is not {group}"


def _product_laws(fam, rng, budget):
    """The cancellation laws on the product of atomic monoids, one case per
    law. It satisfies each law iff some member is a group: then there is no
    atom tuple, and the unit tuples generate a group; otherwise an atom tuple
    is a non-unit, which breaks every law in a finite monoid."""
    mat, _ = ap_materialize(fam, 60)
    group = any(len(units(m)) == m.size for m in fam.members)
    for prop in _LAWS:
        yield check_property(mat, prop) != group and f"{prop} is not {group}"


# ---------------------------------------------------------------------------
# product suites


def _product_formulas(fam, rng, budget):
    mat, projections = ap_materialize(fam, 60)
    order = list(zip(*(p.map for p in projections)))
    index = {t: i for i, t in enumerate(order)}
    gens = ap_generators(fam)
    # formula length sets match table-level dynamic programming
    for t, i in index.items():
        yield ap_length_set(fam, t) != length_set(mat, i) and f"L{t} disagrees with materialized table"
    yield ap_length_system(fam).entries != length_system(mat).entries and "length systems disagree"
    yield ap_length_system(fam, True).entries != length_system(mat, True).entries and (
        "non-zero length systems disagree"
    )
    # the fold against the intersections of every choice
    for nonzero in (False, True):
        yield ap_length_system(fam, nonzero).entries != oracles.product_system_oracle(fam, nonzero) and (
            f"length system (nonzero_only={nonzero}) differs from the product of choices"
        )
    # membership criterion matches the closure, over the full direct product
    for t in itertools.product(*(range(m.size) for m in fam.members)):
        yield ap_contains(fam, t) != (t in index) and f"membership of {t} wrong"
    # units and atoms of the materialized table are the generator tuples,
    # and the tuples the unit and atom tests accept
    mat_units, mat_atoms = units(mat), atoms(mat)
    yield {order[u] for u in mat_units} != set(gens.unit_tuples) and "unit tuples disagree"
    yield {order[a] for a in mat_atoms} != set(gens.atom_tuples) and "atom tuples disagree"
    for i, t in enumerate(order):
        yield ap_is_unit(fam, t) != (i in mat_units) and f"ap_is_unit{t} disagrees with the table"
        yield ap_is_atom(fam, t) != (i in mat_atoms) and f"ap_is_atom{t} disagrees with the table"
    # projections restricted to the product preserve atoms
    for comp, member in enumerate(fam.members):
        member_atoms = atoms(member)
        yield not all(t[comp] in member_atoms for t in gens.atom_tuples) and f"projection {comp} not atom-preserving"
    # unit * atom * unit stays an atom
    for u1 in sorted(gens.unit_tuples):
        for a in sorted(gens.atom_tuples):
            for u2 in sorted(gens.unit_tuples):
                conj = oracles.tuple_mul(fam, oracles.tuple_mul(fam, u1, a), u2)
                yield conj not in gens.atom_tuples and f"{u1}*{a}*{u2} left the atom tuples"


def _product_unions(fam, rng, budget):
    mat, _ = ap_materialize(fam, 60)
    for k in range(0, 7):
        yield ap_union_k(fam, k) != union_k(mat, k) and f"k={k}: union formula disagrees with table"


# ---------------------------------------------------------------------------
# limit suites


def _limit_up(apex, legs, objects, commutes):
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
                f"the cone {[c.map for c in cone]} from {wn} factors {found} times"
                + ("" if legs_form_a_cone else ", and the legs are not an atom-preserving cone")
            )


def _equalizer_pairs(rng):
    for hn, kn in (("h2", "h2"), ("h2", "one"), ("c2", "c2"), ("m31", "one")):
        for f, g in itertools.product(_hom_list(_named(hn), _named(kn)), repeat=2):
            yield f"equalizer of {f.map}, {g.map}: {hn}->{kn}", (f, g)


def _equalizer_up(pair, rng, budget):
    f, g = pair
    e_monoid, e = equalizer(f, g)
    yield from _limit_up(e_monoid, (e,), (f.source,), lambda c: _composite(f, c[0]) == _composite(g, c[0]))


def _pullback_pairs(rng):
    # (source of f, source of g, common target); on (h2, h2) -> h2 the
    # identity and the swap disagree on atoms, so atom pairs need the filter
    for hn, kn, tn in (("h2", "one", "one"), ("h2", "h2", "one"), ("m31", "h2", "one"),
                       ("c2", "c2", "c2"), ("h2", "h2", "h2")):
        t = _named(tn)
        for f, g in itertools.product(_hom_list(_named(hn), t), _hom_list(_named(kn), t)):
            yield f"pullback of {f.map}, {g.map}: {hn}->{tn}<-{kn}", (f, g)


def _pullback_up(pair, rng, budget):
    f, g = pair
    p, p1, p2 = pullback(f, g)
    yield from _limit_up(p, (p1, p2), (f.source, g.source), lambda c: _composite(f, c[0]) == _composite(g, c[1]))


def _product_up(fam, rng, budget):
    """The materialized product as a limit, then ``ap_universal``: for each
    cone from W, the map w -> ap_universal(cone, w), read as elements of the
    table through the projections, must be one of the homs W -> product and
    give back each leg of the cone after the projection. One case per cone."""
    mat, projections = ap_materialize(fam, 60)
    yield from _limit_up(mat, projections, fam.members, lambda c: True)
    index = {t: i for i, t in enumerate(zip(*(p.map for p in projections)))}
    for wn, w in _monoids(_ATOMIC_NAMED):
        homs = {h.map for h in _hom_list(w, mat)}
        for cone in itertools.product(*(_hom_list(w, m) for m in fam.members)):
            tau = tuple(index.get(ap_universal(cone, x)) for x in range(w.size))
            legs = [tuple(map(p.map.__getitem__, tau)) for p in projections] if tau in homs else None
            yield legs != [c.map for c in cone] and (
                f"ap_universal sends the cone {[c.map for c in cone]} from {wn} to {tau}"
            )


def _mono_up(f, rng, budget):
    """is_atomon_mono against the definition of a mono, in its sound
    direction: when f: S -> T passes the test, no two atom-preserving homs
    g != h from an atomic test object W into S have f∘g = f∘h. Proof: W is
    atomic, so its units and atoms generate it. A hom sends units to units
    (g(u)·g(u⁻¹) = g(1) = 1), and g and h, being atom-preserving, send atoms
    to atoms. f is injective on the units and atoms of S, so f∘g = f∘h makes
    g and h agree on those generators of W, hence everywhere. The converse,
    that a hom the test refuses has such a pair, needs test objects the five
    atomic fixtures may lack, so it is not checked. One case per test object
    W, for an f that passes the test.
    """
    if is_atomon_mono(f):
        for wn, w in _monoids(_ATOMIC_NAMED):
            homs = _hom_list(w, f.source)
            yield len({_composite(f, g) for g in homs}) < len(homs) and f"two homs from {wn} agree after it"


def _coproduct_up(fam, rng, budget):
    words = list(oracles.reduced_words_upto(fam, 2))
    for kn in ("one", "h2"):
        k = _named(kn)
        for homs in itertools.product(*(_hom_list(m, k) for m in fam.members)):
            induced = Cocone(fam, homs)
            # coprojection triangles
            for i, m in enumerate(fam.members):
                for x in range(m.size):
                    via = induced(coprojection(fam, i, x))
                    yield via != homs[i].map[x] and f"triangle into {kn} fails at member {i} element {x}"
            # multiplicativity on short words
            for w1 in words:
                for w2 in words:
                    lhs = induced(fp_mul(fam, w1, w2))
                    rhs = k.mul(induced(w1), induced(w2))
                    yield lhs != rhs and f"induced map into {kn} not multiplicative"


def _pushout_sound(h2, rng, budget):
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
    """
    pres, images = _span_images(identity_hom(h2))
    words = [(w, images(w)) for w in oracles.reduced_words_upto(pres.family, 2)]
    for (w1, i1), (w2, i2) in itertools.combinations(words, 2):
        if i1 != i2 and all(letter.mon == 0 for letter in w1.letters):
            yield pushout_eq_bounded(pres, w1, w2, 1) is Reachability.EQUAL and (
                f"{word_to_text(pres.family, w1)} and {word_to_text(pres.family, w2)} are EQUAL, "
                "but a cocone separates them"
            )


def _pushout_depth(h2, rng, budget):
    """The depth bound of pushout_eq_bounded. Over the span one -> h2 <- one
    with both legs a -> a, the relations identify a@0 with a@1 and 0@0 with
    0@1. One rewrite takes (a@0)(b@1) only to (a@1)(b@1) = 0@1, one takes
    (b@0)(a@1) only to (b@0)(a@0) = 0@0, and a third joins 0@1 to 0@0. So
    the two words, and their mirror images, first meet at depth 2. Each pair
    is one case: UNKNOWN at depth 1, EQUAL at depth 2, and separated by no
    cocone.
    """
    pres, images = _span_images(new_hom(_named("one"), h2, (0, 1, 3)))
    for i, j in ((0, 1), (1, 0)):
        w1, w2 = reduce(pres.family, ((i, 1), (j, 2))), reduce(pres.family, ((i, 2), (j, 1)))
        answers = [pushout_eq_bounded(pres, w1, w2, depth).value for depth in (1, 2)]
        yield (answers != ["unknown", "equal"] or images(w1) != images(w2)) and (
            f"{word_to_text(pres.family, w1)} and {word_to_text(pres.family, w2)} "
            f"answer {answers} at depths 1 and 2"
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


def _refines(blocks, coarse) -> bool:
    return all(len({coarse[x] for x in block}) == 1 for block in blocks)


def _coequalizer_picks(rng):
    pool = [
        (f"coequalizer of {f.map}, {g.map}: {hn}->{kn}", (f, g))
        for (hn, h), (kn, k) in itertools.product(_monoids(_ATOMIC_NAMED), repeat=2)
        for f, g in itertools.product(_hom_list(h, k), repeat=2)
    ]
    return [pool[rng.randrange(len(pool))] for _ in range(50)]


def _coequalizer(pair, rng, budget):
    f, g = pair
    k = f.target
    q_monoid, q = coequalizer(f, g)
    yield not check_property(q_monoid, "atomic") and "quotient not atomic"
    for x in range(k.size):
        yield classify(k, x).value != classify(q_monoid, q.map[x]).value and f"class of {x} not preserved"
    seeds = [(f.map[h], g.map[h]) for h in range(f.source.size)]
    closure = congruence_closure(k, seeds)
    compatible = [leader for leader in _partitions(k.size) if all(leader[a] == leader[b] for a, b in seeds)]
    compatible = [leader for leader in compatible if oracles.is_congruence(k, leader)]
    # the least compatible partition: it refines every one, and one refines it
    blocks = _blocks(closure.leader)
    least = all(_refines(blocks, other) for other in compatible)
    least = least and any(_refines(_blocks(other), closure.leader) for other in compatible)
    yield not least and f"closure {closure.leader} is not least for {seeds}"
    # the classes against the least partition: the compatible one with the most blocks, if it refines every other
    oracle = _blocks(max(compatible, key=lambda p: len(set(p))))
    oracle = oracle if all(_refines(oracle, other) for other in compatible) else None
    yield closure.classes() != oracle and f"classes {closure.classes()} are not the least partition {oracle}"


def _terminal_uniqueness(m, rng, budget):
    if check_property(m, "atomic"):
        homs = _hom_list(m, terminal())
        canonical = canonical_to_terminal(m)
        yield (len(homs) != 1 or homs[0].map != canonical.map) and (
            f"expected exactly the canonical map, found {len(homs)}"
        )


def _monoid_axioms(m, rng, budget):
    us = units(m)
    yield m.identity not in us and "identity is not a unit"
    closed = all(m.mul(u, v) in us for u in us for v in us)
    has_inverses = all(any(m.mul(u, v) == m.identity == m.mul(v, u) for v in us) for u in us)
    yield not (closed and has_inverses) and "units do not form a group"
    yield bool(us & atoms(m)) and "an atom is a unit"
    inverses = [(x, y) for x in range(m.size) for y in range(m.size) if m.mul(x, y) == m.identity]
    dedekind = all(m.mul(y, x) == m.identity for x, y in inverses)
    yield check_property(m, "dedekind_finite") != dedekind and f"dedekind_finite is not {dedekind}"
    if check_property(m, "atomic"):
        ats = atoms(m)
        for u in sorted(us):
            for v in sorted(us):
                for x in range(m.size):
                    yield (x in ats) != (m.mul(m.mul(u, x), v) in ats) and (
                        f"unit conjugation moved atom status of {x}"
                    )
    for _ in range(20):
        w1 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
        w2 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
        yield eval_word(m, w1 + w2) != m.mul(eval_word(m, w1), eval_word(m, w2)) and (
            "word evaluation is not multiplicative"
        )


def _hom_classes(f, rng, budget):
    # atom-preserving homs preserve the unit/atom/reducible classes
    for x in range(f.source.size):
        yield classify(f.source, x).value != classify(f.target, f.map[x]).value and f"moves the class of {x}"


def _composition(homs, rng, budget):
    # compose gives the atom-preserving composite of the maps, and is
    # associative on composable triples
    composites = {(j, i): compose(g, f) for i, f in enumerate(homs) for j, g in enumerate(homs) if f.target == g.source}
    for (j, i), gf in composites.items():
        bad = gf.map != _composite(homs[j], homs[i]) or not gf.atom_preserving
        yield bad and f"compose of {homs[j].map} after {homs[i].map} is {gf.map}"
    for (j, i), (k, after) in itertools.product(composites, repeat=2):
        if after == j:
            bad = compose(homs[k], composites[j, i]) != compose(composites[k, j], homs[i])
            yield bad and f"compose is not associative on {homs[k].map}, {homs[j].map}, {homs[i].map}"


def _extend_atom_map(m, rng, budget):
    # for each map of the symbols x and y to atoms: on a concatenation
    # w1 + w2 it gives the product of w1 and w2, each multiplied out; and it
    # refuses a non-atom image. ab tells x·y from y·x.
    words = [w for n in range(3) for w in itertools.product("xy", repeat=n)]
    for images in (dict(zip("xy", pair)) for pair in itertools.product(sorted(atoms(m)), repeat=2)):
        value = {w: functools.reduce(m.mul, map(images.get, w), m.identity) for w in words}
        for w1, w2 in itertools.product(words, repeat=2):
            bad = extend_atom_map(m, images, w1 + w2) != m.mul(value[w1], value[w2])
            yield bad and f"extend_atom_map of {images} is not multiplicative on {w1}, {w2}"
    for x in sorted(set(range(m.size)) - atoms(m)):
        try:
            extend_atom_map(m, {"x": x}, ())
            refused = None
        except ImageNotAtomError as exc:
            refused = exc.symbol
        yield refused != "x" and f"extend_atom_map does not refuse the non-atom image {x}"


# ---------------------------------------------------------------------------
# generator-based table algorithms against the exhaustive ones they replaced


_PERTURBED_COPIES = 4
_HOM_SPACE_LIMIT = 4096


def _table_oracles(value, rng, budget):
    m, every_copy = value
    yield units(m) != oracles.units_by_pairs(m) and f"units {sorted(units(m))} vs the pair scan"
    yield atoms(m) != oracles.atoms_by_pairs(m) and f"atoms {sorted(atoms(m))} vs the pair scan"
    # check_property decides the cancellation laws by counting units
    for prop in _LAWS:
        got = check_property(m, prop)
        expected = oracles.laws_hold(prop, range(m.size), m.mul, units(m).__contains__)
        yield got != expected and f"{prop} is {got}, the law scan says {expected}"
    # copies with one entry changed off the identity row and column, so
    # the identity law still holds and only associativity can fail:
    # every such copy of a named fixture, a seeded sample of the others
    others = [x for x in range(m.size) if x != m.identity]
    changes = [(x, y, v) for x in others for y in others for v in range(m.size) if v != m.table[x][y]]
    if not every_copy:
        changes = rng.sample(changes, min(_PERTURBED_COPIES, len(changes)))
    tables = [("the table", m.table)]
    for x, y, v in changes:
        table = [list(row) for row in m.table]
        table[x][y] = v
        tables.append((f"the table with {x}*{y}={v}", table))
    for label, table in tables:
        try:
            new_monoid(m.names, table, m.identity)
            got = None
        except NonAssociativeError as exc:
            got = exc.triple
        expected = oracles.ijk_scan(table)
        yield got != expected and f"{label}: Light's test gives {got}, the scan {expected}"


def _union_k_fold(m, rng, budget):
    # union_k reads U(T + (k - T) mod p) from T + p on, and the fold reads no
    # period, so the cyclic monoids of period > 1 are in the inputs for the wrap-around
    seq = power_layers(m)
    for k in range(seq.preperiod + 2 * seq.period + 1):
        got, expected = union_k(m, k), oracles.union_k_by_fold(m, k)
        yield got != expected and f"union_k at {k} is {got!r}, the fold gives {expected!r}"


def _hom_space_pairs(rng):
    # equal tables have equal hom lists, so each distinct table is kept once
    distinct: dict = {}
    for name, m in _monoids(_NAMED, 20):
        distinct.setdefault((m.table, m.identity), (name, m))
    for (sn, s), (tn, t) in itertools.product(distinct.values(), repeat=2):
        if t.size ** (s.size - 1) <= _HOM_SPACE_LIMIT:
            yield f"homs {sn}->{tn}", (s, t)


def _hom_search(pair, rng, budget):
    s, t = pair
    got = [(h.map, h.atom_preserving) for h in enumerate_homs(s, t, atom_preserving_only=False)]
    yield got != oracles.exhaustive_homs(s, t) and "generator search disagrees with exhaustive search"


SUITES = {
    "length-oracle": ((lambda rng: _monoids(_NAMED, 20, periodic=True), _length_oracle),),
    "length-invariance": ((lambda rng: _monoids(_ATOMIC_NAMED, 8, periodic=True), _length_invariance),),
    "epset-arithmetic": (
        (_eps_pairs, _eps_operations), (_eps_summands, _eps_sum_many), (_eps_draws, _eps_constructors),
    ),
    "coproduct-reduction": (
        (_families((("one", "c2"), ("one", "one"))), _reduction_moves),
        (_families((("one", "c2"), ("one", "one"), ("h2", "c2"))), _junction_products),
    ),
    "coproduct-recognition": ((_families(RECOGNITION_FAMILIES), _recognition),
                              (_families((("c2", "one"),)), _atoms_outnumber_the_members)),
    "coproduct-lengths": ((_families(COPRODUCT_FAMILIES), _coproduct_lengths),),
    "coproduct-unions": ((_families(UNION_FAMILIES), _coproduct_unions),),
    "coproduct-systems": ((_families(COPRODUCT_FAMILIES), _coproduct_systems),),
    "preserved-properties": ((_families(GROUP_FAMILIES, COPRODUCT_FAMILIES, prefix="coproduct of "), _coproduct_laws),
                             (_families(GROUP_FAMILIES, PRODUCT_FAMILIES, prefix="product of "), _product_laws)),
    "product-formulas": ((_families(PRODUCT_FAMILIES), _product_formulas),),
    "product-unions": ((_families(PRODUCT_FAMILIES), _product_unions),),
    "universal-properties": (
        (_equalizer_pairs, _equalizer_up),
        (_pullback_pairs, _pullback_up),
        (_families((("one", "c2"), ("one", "one")), prefix="coproduct of "), _coproduct_up),
        (_families((("one", "one"), ("one", "c2"), ("h2", "h2"), ("ab", "one")), prefix="product of "), _product_up),
        (lambda rng: [(f"mono {label}", f) for label, f in _homs_among(_ATOMIC_NAMED)], _mono_up),
        (lambda rng: [("pushout of id_h2 with itself", _named("h2"))], _pushout_sound),
        (lambda rng: [("pushout of one -> h2 <- one", _named("h2"))], _pushout_depth),
    ),
    "coequalizers": ((_coequalizer_picks, _coequalizer),),
    "terminal-uniqueness": ((lambda rng: _monoids(_ATOMIC_NAMED, 10), _terminal_uniqueness),),
    "core-axioms": (
        (lambda rng: _monoids(_NAMED, 10), _monoid_axioms),
        (lambda rng: [(f"hom {label}", f) for label, f in _homs_among(_ATOMIC_NAMED)], _hom_classes),
        (lambda rng: [("the atomic fixtures' homs", [f for _, f in _homs_among(_ATOMIC_NAMED)])], _composition),
        (lambda rng: _monoids(_ATOMIC_NAMED + ("ab",)), _extend_atom_map),
    ),
    "generator-oracles": (
        (lambda rng: [(n, (m, n in _NAMED)) for n, m in _monoids(_NAMED, 20)], _table_oracles),
        (lambda rng: _monoids(_NAMED, 20, periodic=True), _union_k_fold),
        (_hom_space_pairs, _hom_search),
    ),
}


def cmd_verify(suite: str, seed: int = 0, budget: int | None = None) -> VerifyReport:
    """Run one verification suite to completion, as the module docstring says."""
    if suite not in SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    budget = _search_budget(budget)
    rng = random.Random(seed)
    start = time.perf_counter()
    cases, mismatches = 0, []
    for inputs, check in SUITES[suite]:
        try:
            for label, value in inputs(rng):
                try:
                    for outcome in check(value, rng, budget):
                        cases += 1
                        if outcome:
                            mismatches.append(f"{label}: {outcome}")
                except AtomonError as exc:
                    cases += 1
                    mismatches.append(f"{label}: raised {type(exc).__name__}: {exc}")
        except AtomonError as exc:
            cases += 1
            mismatches.append(f"inputs of {check.__name__}: raised {type(exc).__name__}: {exc}")
    return VerifyReport(suite, cases, mismatches, time.perf_counter() - start)


def run_all(seed: int = 0, budget: int | None = None) -> list[VerifyReport]:
    return [cmd_verify(name, seed, budget) for name in sorted(SUITES)]
