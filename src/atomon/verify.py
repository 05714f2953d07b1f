"""Formula-versus-oracle verification suites.

Every suite pits a closed-form computation against an independent bounded
or exhaustive check and reports mismatches with their full inputs. Suite
names are stable identifiers used by the CLI `verify` command.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass

from . import fixtures
from .coproduct import (
    EPS_WORD,
    Family,
    Letter,
    ReducedWord,
    coprojection,
    fp_brute_force_lengths,
    fp_check_property_bounded,
    fp_couniversal,
    fp_is_atom,
    fp_is_unit,
    fp_length_set,
    fp_length_system_bounded,
    fp_mul,
    fp_union_k,
    reduce,
    reduced_words_upto,
)
from .core import (
    FiniteMonoid,
    atoms,
    canonical_to_terminal,
    check_property,
    classify,
    compose,
    enumerate_homs,
    eval_word,
    new_hom,
    new_monoid,
    terminal_monoid,
    units,
)
from .errors import NonAssociativeError, PreconditionError, UnknownSuiteError
from .lengths import (
    EMPTY,
    brute_force_lengths,
    eps_intersect,
    eps_minkowski_sum,
    eps_union,
    length_set,
    length_system,
    power_layers,
    union_k,
    _canonical,
)
from .limits import congruence_closure, coequalizer, equalizer, pullback
from .product import (
    ap_contains,
    ap_generators,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
    tuple_mul,
)

_NAMED = ("zero", "one", "c2", "h2", "m31", "sl2")
_ATOMIC_NAMED = ("zero", "one", "c2", "h2", "m31")

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
            header += f" [{self.wall_time:.2f}s]"
        return [header] + [f"  mismatch: {m}" for m in self.mismatches]


# built once, on first use rather than at import; the monoids are immutable
_named_fixtures = functools.cache(fixtures.named_fixtures)


def _named(name: str) -> FiniteMonoid:
    return _named_fixtures()[name]


def _family(names) -> Family:
    return Family([_named(n) for n in names])


_HOM_CACHE: dict = {}


def _hom_list(source: FiniteMonoid, target: FiniteMonoid):
    key = (source, target)
    if key not in _HOM_CACHE:
        _HOM_CACHE[key] = tuple(enumerate_homs(source, target))
    return _HOM_CACHE[key]


def _fmt_word(w: ReducedWord) -> str:
    if not w.letters:
        return "eps"
    return "*".join(f"({i}:{x})" for i, x in w.letters)


# ---------------------------------------------------------------------------
# lenset suites


def _oracle_monoids():
    mons = [(name, _named(name)) for name in _NAMED]
    mons += [(f"random{i}", fixtures.random_monoid(i)) for i in range(20)]
    return mons


def suite_length_oracle(rng, budget):
    cases, mismatches = 0, []
    for name, m in _oracle_monoids():
        for x in range(m.size):
            cases += 1
            closed = set(length_set(m, x).members_upto(12))
            oracle = brute_force_lengths(m, x, 12)
            if closed != oracle:
                mismatches.append(
                    f"{name} elem {m.names[x]}: length_set {sorted(closed)} vs oracle {sorted(oracle)}"
                )
    return cases, mismatches


def suite_length_invariance(rng, budget):
    cases, mismatches = 0, []
    monoids = [(n, _named(n)) for n in _ATOMIC_NAMED]
    monoids += [(f"random{i}", fixtures.random_monoid(i)) for i in range(8)]
    for name, m in monoids:
        us = sorted(units(m))
        for x in range(m.size):
            if x in units(m):
                continue
            base = length_set(m, x)
            for u in us:
                for v in us:
                    cases += 1
                    moved = length_set(m, m.mul(m.mul(u, x), v))
                    if moved != base:
                        mismatches.append(f"{name}: L({u}*{x}*{v}) != L({x})")
        # only the identity's length set may contain 0
        for x in range(m.size):
            cases += 1
            if 0 in length_set(m, x) and x != m.identity:
                mismatches.append(f"{name}: L({m.names[x]}) contains 0")
        # the layer cycle certificate must re-verify
        cases += 1
        seq = power_layers(m)
        ats = sorted(atoms(m))
        recomputed = seq.layer(seq.preperiod)
        for _ in range(seq.period):
            recomputed = frozenset(m.mul(y, a) for y in recomputed for a in ats)
        if recomputed != seq.layer(seq.preperiod):
            mismatches.append(f"{name}: layer cycle certificate failed")
    return cases, mismatches


def _random_eps(rng):
    t = rng.randint(0, 8)
    p = rng.randint(1, 8)
    head = {n for n in range(t) if rng.random() < 0.5}
    tail = {r for r in range(p) if rng.random() < 0.4}
    return _canonical(t, head, p, tail)


def suite_epset_arithmetic(rng, budget):
    cases, mismatches = 0, []
    bound = 60
    for _ in range(500):
        a, b = _random_eps(rng), _random_eps(rng)
        mem_a = set(a.members_upto(bound))
        mem_b = set(b.members_upto(bound))
        direct_sum = {x + y for x in mem_a for y in mem_b if x + y <= bound}
        checks = [
            ("sum", eps_minkowski_sum(a, b), direct_sum),
            ("union", eps_union(a, b), mem_a | mem_b),
            ("intersect", eps_intersect(a, b), mem_a & mem_b),
        ]
        for label, result, expected in checks:
            cases += 1
            if set(result.members_upto(bound)) != expected:
                mismatches.append(f"{label} of {a!r} and {b!r} wrong on [0,{bound}]")
    return cases, mismatches


# ---------------------------------------------------------------------------
# coproduct suites


def _raw_alphabet(family: Family):
    return [
        Letter(i, x) for i, m in enumerate(family.members) for x in range(m.size)
    ]


def _congruence_moves(family: Family, letters):
    """All single-step congruence moves applicable to a raw word."""
    moves = []
    for pos, (i, x) in enumerate(letters):
        if x == family.members[i].identity:
            moves.append(letters[:pos] + letters[pos + 1 :])
    for pos in range(len(letters) - 1):
        i, x = letters[pos]
        j, y = letters[pos + 1]
        if i == j:
            merged = (Letter(i, family.members[i].mul(x, y)),)
            moves.append(letters[:pos] + merged + letters[pos + 2 :])
    return moves


def suite_coproduct_reduction(rng, budget):
    cases, mismatches = 0, []
    families = [_family(names) for names in (("one", "c2"), ("one", "one"))]
    for fam in families:
        alphabet = _raw_alphabet(fam)
        # soundness of single moves, and confluence under random move orders
        for _ in range(150):
            length = rng.randint(0, 5)
            raw = tuple(rng.choice(alphabet) for _ in range(length))
            normal = reduce(fam, raw)
            for moved in _congruence_moves(fam, raw):
                cases += 1
                if reduce(fam, moved) != normal:
                    mismatches.append(f"move changed the normal form of {raw}")
            word = raw
            while True:
                moves = _congruence_moves(fam, word)
                if not moves:
                    break
                word = rng.choice(moves)
            cases += 1
            if ReducedWord(word) != normal:
                mismatches.append(f"random move order on {raw} missed the normal form")
        # words congruent to eps have only unit letters (exhaustive, length <= 4)
        for length in range(1, 5):
            for raw in itertools.product(alphabet, repeat=length):
                cases += 1
                if reduce(fam, raw) == EPS_WORD and not all(
                    x in units(fam.members[i]) for i, x in raw
                ):
                    mismatches.append(f"non-unit letters in empty-class word {raw}")
    return cases, mismatches


def suite_coproduct_recognition(rng, budget):
    cases, mismatches = 0, []
    family_names = (("one", "c2"), ("one", "one"), ("c2", "c2"), ("h2", "c2"))
    for names in family_names:
        fam = _family(names)
        words = list(reduced_words_upto(fam, 3))
        unit_flags = {w: fp_is_unit(fam, w) for w in words}
        for w in words:
            cases += 1
            definitional_unit = any(
                fp_mul(fam, w, v) == EPS_WORD and fp_mul(fam, v, w) == EPS_WORD
                for v in words
            )
            if unit_flags[w] != definitional_unit:
                mismatches.append(f"{names}: unit test disagrees on {_fmt_word(w)}")
            cases += 1
            definitional_atom = not unit_flags[w] and not any(
                fp_mul(fam, u, v) == w
                for u in words
                if not unit_flags[u]
                for v in words
                if not unit_flags[v]
            )
            if fp_is_atom(fam, w) != definitional_atom:
                mismatches.append(f"{names}: atom test disagrees on {_fmt_word(w)}")
    # atoms of a free product outnumber the member atoms (finite-scale contrast)
    fam = _family(("c2", "one"))
    cases += 1
    atom_words = [w for w in reduced_words_upto(fam, 3) if fp_is_atom(fam, w)]
    member_atoms = sum(len(atoms(m)) for m in fam.members)
    if len(atom_words) <= member_atoms:
        mismatches.append("free product did not gain atoms over its members")
    return cases, mismatches


def suite_coproduct_lengths(rng, budget):
    cases, mismatches = 0, []
    for names in COPRODUCT_FAMILIES:
        fam = _family(names)
        for w in reduced_words_upto(fam, 3):
            cases += 1
            closed = set(fp_length_set(fam, w).members_upto(10))
            oracle = fp_brute_force_lengths(fam, w, 10, budget=budget)
            if closed != oracle:
                mismatches.append(
                    f"{names} word {_fmt_word(w)}: formula {sorted(closed)} vs search {sorted(oracle)}"
                )
    return cases, mismatches


def suite_coproduct_unions(rng, budget):
    cases, mismatches = 0, []
    for names in UNION_FAMILIES:
        fam = _family(names)
        for k in range(1, 5):
            cases += 1
            formula = fp_union_k(fam, k)
            direct = EMPTY
            for w in reduced_words_upto(fam, k):
                ls = fp_length_set(fam, w)
                if k in ls:
                    direct = eps_union(direct, ls)
            if formula != direct:
                mismatches.append(f"{names} k={k}: {formula!r} vs enumerated {direct!r}")
    return cases, mismatches


def suite_coproduct_systems(rng, budget):
    cases, mismatches = 0, []
    max_blocks = 3
    for names in COPRODUCT_FAMILIES:
        fam = _family(names)
        system = fp_length_system_bounded(fam, max_blocks)
        # every short non-unit word's length set is listed
        for w in reduced_words_upto(fam, max_blocks):
            if not w.letters or fp_is_unit(fam, w):
                continue
            cases += 1
            if fp_length_set(fam, w) not in system:
                mismatches.append(f"{names}: system misses L({_fmt_word(w)})")
        # every listed entry is realized by an actual element
        realized = {
            fp_length_set(fam, w)
            for w in reduced_words_upto(fam, 2 * max_blocks - 1)
            if w.letters and not fp_is_unit(fam, w)
        }
        for entry in system:
            cases += 1
            if entry not in realized:
                mismatches.append(f"{names}: system entry {entry!r} is not realized")
    return cases, mismatches


def suite_preserved_properties(rng, budget):
    cases, mismatches = 0, []
    props = ("acyclic", "unit_cancellative", "cancellative")
    for names in GROUP_FAMILIES:
        fam = _family(names)
        mat, _ = ap_materialize(fam, 60)
        for prop in props:
            cases += 1
            try:
                if not fp_check_property_bounded(fam, prop, 3):
                    mismatches.append(f"coproduct of {names} violates {prop}")
            except PreconditionError:
                mismatches.append(f"members of {names} unexpectedly fail {prop}")
            cases += 1
            if not check_property(mat, prop):
                mismatches.append(f"product of {names} violates {prop}")
    # non-qualifying members must be refused
    fam = _family(("one", "c2"))
    for prop in props:
        cases += 1
        try:
            fp_check_property_bounded(fam, prop, 2)
            mismatches.append(f"({prop}) accepted a family whose members fail it")
        except PreconditionError:
            pass
    return cases, mismatches


# ---------------------------------------------------------------------------
# product suites


def suite_product_formulas(rng, budget):
    cases, mismatches = 0, []
    for names in PRODUCT_FAMILIES:
        fam = _family(names)
        mat, projections = ap_materialize(fam, 60)
        order = list(zip(*(p.map for p in projections)))
        index = {t: i for i, t in enumerate(order)}
        gens = ap_generators(fam)
        # formula length sets match table-level dynamic programming
        for t, i in index.items():
            cases += 1
            if ap_length_set(fam, t) != length_set(mat, i):
                mismatches.append(f"{names}: L{t} disagrees with materialized table")
        cases += 1
        if ap_length_system(fam).entries != length_system(mat).entries:
            mismatches.append(f"{names}: length systems disagree")
        cases += 1
        if ap_length_system(fam, True).entries != length_system(mat, True).entries:
            mismatches.append(f"{names}: non-zero length systems disagree")
        # membership criterion matches the closure, over the full direct product
        for t in itertools.product(*(range(m.size) for m in fam.members)):
            cases += 1
            if ap_contains(fam, t) != (t in index):
                mismatches.append(f"{names}: membership of {t} wrong")
        # units and atoms of the materialized table are the generator tuples
        cases += 1
        if {order[u] for u in units(mat)} != set(gens.unit_tuples):
            mismatches.append(f"{names}: unit tuples disagree")
        cases += 1
        if {order[a] for a in atoms(mat)} != set(gens.atom_tuples):
            mismatches.append(f"{names}: atom tuples disagree")
        # projections restricted to the product preserve atoms
        for comp, member in enumerate(fam.members):
            cases += 1
            member_atoms = atoms(member)
            if not all(t[comp] in member_atoms for t in gens.atom_tuples):
                mismatches.append(f"{names}: projection {comp} not atom-preserving")
        # unit * atom * unit stays an atom
        for u1 in sorted(gens.unit_tuples):
            for a in sorted(gens.atom_tuples):
                for u2 in sorted(gens.unit_tuples):
                    cases += 1
                    conj = tuple_mul(fam, tuple_mul(fam, u1, a), u2)
                    if conj not in gens.atom_tuples:
                        mismatches.append(f"{names}: {u1}*{a}*{u2} left the atom tuples")
    return cases, mismatches


def suite_product_unions(rng, budget):
    cases, mismatches = 0, []
    for names in PRODUCT_FAMILIES:
        fam = _family(names)
        mat, _ = ap_materialize(fam, 60)
        for k in range(0, 7):
            cases += 1
            if ap_union_k(fam, k) != union_k(mat, k):
                mismatches.append(f"{names} k={k}: union formula disagrees with table")
    return cases, mismatches


# ---------------------------------------------------------------------------
# limit suites


def _apexes():
    return [(n, _named(n)) for n in ("zero", "one", "c2", "h2", "m31")]


def suite_universal_properties(rng, budget):
    cases, mismatches = 0, []
    cases, mismatches = _equalizer_up(cases, mismatches)
    cases, mismatches = _pullback_up(cases, mismatches)
    cases, mismatches = _coproduct_up(cases, mismatches)
    cases, mismatches = _product_up(cases, mismatches)
    return cases, mismatches


def _equalizer_up(cases, mismatches):
    pairs = [("h2", "h2"), ("h2", "one"), ("c2", "c2"), ("m31", "one")]
    for hn, kn in pairs:
        h, k = _named(hn), _named(kn)
        homs = _hom_list(h, k)
        for f, g in itertools.product(homs, repeat=2):
            e_monoid, e = equalizer(f, g)
            image = {v: i for i, v in enumerate(e.map)}
            for wn, w in _apexes():
                for alpha in _hom_list(w, h):
                    if compose(f, alpha) != compose(g, alpha):
                        continue
                    cases += 1
                    if not all(alpha.map[x] in image for x in range(w.size)):
                        mismatches.append(
                            f"equalizer {hn}->{kn}: cone from {wn} does not factor"
                        )
                        continue
                    try:
                        tau = new_hom(w, e_monoid, [image[alpha.map[x]] for x in range(w.size)])
                    except Exception as exc:
                        mismatches.append(f"equalizer {hn}->{kn}: factorization invalid: {exc}")
                        continue
                    if not tau.atom_preserving or compose(e, tau) != alpha:
                        mismatches.append(f"equalizer {hn}->{kn}: factorization wrong from {wn}")
    return cases, mismatches


def _pullback_up(cases, mismatches):
    h2, one, c2, m31 = _named("h2"), _named("one"), _named("c2"), _named("m31")
    cospans = []
    cospans += [(f, g) for f in _hom_list(h2, one) for g in _hom_list(one, one)]
    cospans += [(f, g) for f in _hom_list(h2, one) for g in _hom_list(h2, one)]
    cospans += [(f, g) for f in _hom_list(m31, one) for g in _hom_list(h2, one)]
    cospans += [(f, g) for f in _hom_list(c2, c2) for g in _hom_list(c2, c2)]
    for f, g in cospans:
        p, p1, p2 = pullback(f, g)
        pair_index = {(p1.map[i], p2.map[i]): i for i in range(p.size)}
        for wn, w in _apexes():
            for alpha in _hom_list(w, f.source):
                for beta in _hom_list(w, g.source):
                    if compose(f, alpha) != compose(g, beta):
                        continue
                    cases += 1
                    wanted = [(alpha.map[x], beta.map[x]) for x in range(w.size)]
                    if not all(pair in pair_index for pair in wanted):
                        mismatches.append(f"pullback cone from {wn} does not factor")
                        continue
                    candidates = [
                        tau
                        for tau in _hom_list(w, p)
                        if compose(p1, tau) == alpha and compose(p2, tau) == beta
                    ]
                    if len(candidates) != 1 or candidates[0].map != tuple(
                        pair_index[pair] for pair in wanted
                    ):
                        mismatches.append(
                            f"pullback cone from {wn}: {len(candidates)} factorizations"
                        )
    return cases, mismatches


def _coproduct_up(cases, mismatches):
    for names in (("one", "c2"), ("one", "one")):
        fam = _family(names)
        for kn in ("one", "h2"):
            k = _named(kn)
            for homs in itertools.product(*(_hom_list(m, k) for m in fam.members)):
                # coprojection triangles
                for i, m in enumerate(fam.members):
                    for x in range(m.size):
                        cases += 1
                        via = fp_couniversal(fam, homs, coprojection(fam, i, x))
                        if via != homs[i].map[x]:
                            mismatches.append(f"coproduct triangle fails at {names}[{i}]:{x}")
                # multiplicativity on short words
                words = list(reduced_words_upto(fam, 2))
                for w1 in words:
                    for w2 in words:
                        cases += 1
                        lhs = fp_couniversal(fam, homs, fp_mul(fam, w1, w2))
                        rhs = k.mul(
                            fp_couniversal(fam, homs, w1), fp_couniversal(fam, homs, w2)
                        )
                        if lhs != rhs:
                            mismatches.append(
                                f"induced coproduct map not multiplicative on {names}"
                            )
    return cases, mismatches


def _product_up(cases, mismatches):
    for names in (("one", "one"), ("one", "c2"), ("h2", "h2")):
        fam = _family(names)
        mat, projections = ap_materialize(fam, 60)
        index = {t: i for i, t in enumerate(zip(*(p.map for p in projections)))}
        for wn, w in _apexes():
            for cone in itertools.product(*(_hom_list(w, m) for m in fam.members)):
                cases += 1
                tuples = [tuple(h.map[x] for h in cone) for x in range(w.size)]
                if not all(ap_contains(fam, t) for t in tuples):
                    mismatches.append(f"product cone from {wn} leaves the product")
                    continue
                sigma = new_hom(w, mat, [index[t] for t in tuples])
                if not sigma.atom_preserving:
                    mismatches.append(f"induced product map from {wn} not atom-preserving")
                    continue
                if any(compose(projections[i], sigma) != cone[i] for i in range(len(cone))):
                    mismatches.append(f"product triangles fail from {wn}")
                    continue
                candidates = [
                    tau
                    for tau in _hom_list(w, mat)
                    if all(compose(projections[i], tau) == cone[i] for i in range(len(cone)))
                ]
                if candidates != [sigma]:
                    mismatches.append(
                        f"product factorization from {wn} not unique: {len(candidates)}"
                    )
    return cases, mismatches


def _all_partitions(n: int):
    """All set partitions of range(n) as leader tuples, via restricted growth."""
    out = []

    def grow(prefix, used):
        pos = len(prefix)
        if pos == n:
            out.append(tuple(prefix))
            return
        for lead in range(used + 1):
            grow(prefix + [lead], max(used, lead + 1))

    grow([], 0)
    return out


def _is_congruence(m: FiniteMonoid, leader) -> bool:
    n = m.size
    for x in range(n):
        for y in range(x + 1, n):
            if leader[x] != leader[y]:
                continue
            for a in range(n):
                if leader[m.mul(a, x)] != leader[m.mul(a, y)]:
                    return False
                if leader[m.mul(x, a)] != leader[m.mul(y, a)]:
                    return False
    return True


def _refines(fine, coarse) -> bool:
    blocks = {}
    for x, lead in enumerate(fine):
        blocks.setdefault(lead, []).append(x)
    return all(len({coarse[x] for x in block}) == 1 for block in blocks.values())


def suite_coequalizers(rng, budget):
    cases, mismatches = 0, []
    pool = []
    for hn in _ATOMIC_NAMED:
        for kn in _ATOMIC_NAMED:
            homs = _hom_list(_named(hn), _named(kn))
            for f, g in itertools.product(homs, repeat=2):
                pool.append((hn, kn, f, g))
    picks = [pool[rng.randrange(len(pool))] for _ in range(50)]
    for hn, kn, f, g in picks:
        k = f.target
        try:
            q_monoid, q = coequalizer(f, g)
        except Exception as exc:
            cases += 1
            mismatches.append(f"coequalizer {hn}->{kn} failed: {exc}")
            continue
        cases += 1
        if not check_property(q_monoid, "atomic"):
            mismatches.append(f"coequalizer of {hn}->{kn}: quotient not atomic")
        for x in range(k.size):
            cases += 1
            if classify(k, x).value != classify(q_monoid, q.map[x]).value:
                mismatches.append(f"coequalizer of {hn}->{kn}: class of {x} not preserved")
        seeds = [(f.map[h], g.map[h]) for h in range(f.source.size)]
        cases += 1
        cong = congruence_closure(k, seeds)
        computed = tuple(cong.leader[x] for x in range(k.size))
        compatible = [
            leader
            for leader in _all_partitions(k.size)
            if _is_congruence(k, leader)
            and all(leader[a] == leader[b] for a, b in seeds)
        ]
        normalized = _normalize_leader(computed)
        if normalized not in {_normalize_leader(l) for l in compatible}:
            mismatches.append(f"coequalizer of {hn}->{kn}: closure is not a congruence")
        elif not all(_refines(computed, other) for other in compatible):
            mismatches.append(f"coequalizer of {hn}->{kn}: closure is not minimal")
    return cases, mismatches


def _normalize_leader(leader):
    relabel = {}
    out = []
    for lead in leader:
        relabel.setdefault(lead, len(relabel))
        out.append(relabel[lead])
    return tuple(out)


def suite_terminal_uniqueness(rng, budget):
    cases, mismatches = 0, []
    target = terminal_monoid()
    monoids = [(n, _named(n)) for n in _ATOMIC_NAMED]
    monoids += [
        (f"random{i}", m)
        for i, m in enumerate(fixtures.random_fixtures(10))
        if check_property(m, "atomic")
    ]
    for name, m in monoids:
        cases += 1
        homs = _hom_list(m, target)
        canonical = canonical_to_terminal(m)
        if len(homs) != 1 or homs[0].map != canonical.map:
            mismatches.append(
                f"{name}: expected exactly the canonical map, found {len(homs)}"
            )
    return cases, mismatches


def suite_core_axioms(rng, budget):
    cases, mismatches = 0, []
    monoids = [(n, _named(n)) for n in _NAMED]
    monoids += [(f"random{i}", fixtures.random_monoid(i)) for i in range(10)]
    for name, m in monoids:
        us = units(m)
        cases += 1
        if m.identity not in us:
            mismatches.append(f"{name}: identity is not a unit")
        cases += 1
        closed = all(m.mul(u, v) in us for u in us for v in us)
        has_inverses = all(
            any(m.mul(u, v) == m.identity and m.mul(v, u) == m.identity for v in us)
            for u in us
        )
        if not (closed and has_inverses):
            mismatches.append(f"{name}: units do not form a group")
        cases += 1
        if us & atoms(m):
            mismatches.append(f"{name}: an atom is a unit")
        cases += 1
        if not check_property(m, "dedekind_finite"):
            mismatches.append(f"{name}: not Dedekind-finite")
        if check_property(m, "atomic"):
            ats = atoms(m)
            for u in sorted(us):
                for v in sorted(us):
                    for x in range(m.size):
                        cases += 1
                        if (x in ats) != (m.mul(m.mul(u, x), v) in ats):
                            mismatches.append(f"{name}: unit conjugation moved atom status of {x}")
        for _ in range(20):
            w1 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
            w2 = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
            cases += 1
            if eval_word(m, w1 + w2) != m.mul(eval_word(m, w1), eval_word(m, w2)):
                mismatches.append(f"{name}: word evaluation is not multiplicative")
    # atom-preserving homs preserve the unit/atom/reducible classes
    for hn in _ATOMIC_NAMED:
        for kn in _ATOMIC_NAMED:
            h, k = _named(hn), _named(kn)
            for f in _hom_list(h, k):
                for x in range(h.size):
                    cases += 1
                    if classify(h, x).value != classify(k, f.map[x]).value:
                        mismatches.append(f"hom {hn}->{kn} moves class of {x}")
    return cases, mismatches


# ---------------------------------------------------------------------------
# generator-based table algorithms against the exhaustive ones they replaced


def _ijk_scan(table):
    """Oracle: the first (i, j, k) with (i*j)*k != i*(j*k), by the plain n^3
    scan, or None for an associative table."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            row_ij = table[table[i][j]]
            row_i = table[i]
            for k in range(n):
                if row_ij[k] != row_i[table[j][k]]:
                    return (i, j, k)
    return None


def _exhaustive_homs(source: FiniteMonoid, target: FiniteMonoid):
    """Oracle: (map, atom-preserving) for every hom, in map order, by trying
    every map with the identity pinned and checking every product."""
    src, tgt = source.table, target.table
    src_atoms, tgt_atoms = atoms(source), atoms(target)
    out = []
    for values in itertools.product(range(target.size), repeat=source.size - 1):
        mp = list(values)
        mp.insert(source.identity, target.identity)
        if all([mp[v] for v in src[x]] == [tgt[mp[x]][w] for w in mp] for x in range(source.size)):
            out.append((tuple(mp), all(mp[a] in tgt_atoms for a in src_atoms)))
    return out


_PERTURBED_COPIES = 4
_HOM_SPACE_LIMIT = 4096


def suite_generator_oracles(rng, budget):
    cases, mismatches = 0, []
    monoids = _oracle_monoids()
    for name, m in monoids:
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
            cases += 1
            try:
                new_monoid(m.names, table, m.identity)
                got = None
            except NonAssociativeError as exc:
                got = exc.triple
            expected = _ijk_scan(table)
            if got != expected:
                mismatches.append(f"{label}: Light's test gives {got}, the scan {expected}")
    # equal tables have equal hom lists, so each distinct table is kept once
    distinct: dict = {}
    for name, m in monoids:
        distinct.setdefault((m.table, m.identity), (name, m))
    for (sn, s), (tn, t) in itertools.product(distinct.values(), repeat=2):
        if t.size ** (s.size - 1) > _HOM_SPACE_LIMIT:
            continue
        cases += 1
        got = [(h.map, h.atom_preserving) for h in enumerate_homs(s, t, atom_preserving_only=False)]
        if got != _exhaustive_homs(s, t):
            mismatches.append(f"homs {sn}->{tn}: generator search disagrees with exhaustive search")
    return cases, mismatches


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
    cases, mismatches = SUITES[suite](rng, budget)
    return VerifyReport(suite, cases, mismatches, time.perf_counter() - start)


def run_all(seed: int = 0, budget: int | None = None) -> list[VerifyReport]:
    return [cmd_verify(name, seed, budget) for name in sorted(SUITES)]
