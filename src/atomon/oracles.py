"""Oracles: slow exhaustive or bounded computations that check the library.

Each oracle computes a reference answer by a plain scan, an exhaustive
enumeration or a bounded search, by a different route from the fast path it
checks. The verify suites, the tests and ``lengthset --bound`` compare the
library against them. ``tests/test_oracles.py`` lists, for each public
oracle, the library names it may use (directly or through its private
helpers), and checks that list against this file.

An oracle does a pure piece of work once per call: a pruning verdict per
product, a sum per multiset of summands, the pinned identity's row for all
maps. It keeps no state across calls and reads no library cache.

Import rule: only ``verify`` imports this module at its top, and ``cli``
imports it only inside the handlers that run an oracle (``lengthset
--bound`` and ``coproduct lengthset --bound``). So importing ``atomon`` or
``atomon.cli`` never loads an oracle.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Callable, Iterator, Sequence

from .coproduct import Family, Letter, ReducedWord, _check_family, _check_word, _is_unit_letter, _join
from .coproduct import fp_is_unit, gamma_admissible
from .core import FiniteMonoid, _check_count, _check_indices, _check_monoid, _search_budget, atoms, units
from .errors import SearchBudgetExceededError, ValidationError
from .lengths import EMPTY, ZERO_ONLY, eps_intersect, eps_sum_many, eps_union, length_system, union_k
from .serialize import eps_to_json

# ---------------------------------------------------------------------------
# per-monoid arithmetic


def units_by_pairs(m: FiniteMonoid) -> frozenset[int]:
    """The elements with a two-sided inverse, by trying every pair."""
    _check_monoid(m)
    found = set()
    for u in range(m.size):
        for v in range(m.size):
            if m.mul(u, v) == m.identity and m.mul(v, u) == m.identity:
                found.add(u)
                break
    return frozenset(found)


def atoms_by_pairs(m: FiniteMonoid) -> frozenset[int]:
    """The non-units outside the set of all products of two non-units."""
    us = units_by_pairs(m)
    non_units = [x for x in range(m.size) if x not in us]
    reducible = {m.mul(x, y) for x in non_units for y in non_units}
    return frozenset(x for x in non_units if x not in reducible)


def laws_hold(prop: str, elements: Sequence, mul: Callable, is_unit: Callable) -> bool:
    """Decide one of the cancellation laws ``_LAWS`` over a list of distinct
    elements, with their product and unit test.

    acyclic: no y·x·z = x unless y and z are both units. unit_cancellative:
    no x·y = x or y·x = x with y a non-unit. cancellative: every left and
    right translation is injective on ``elements``, which is the same as no
    x != y with x·z = y·z or z·x = z·y. Any other law raises ValidationError.
    """
    if prop == "acyclic":
        for y in elements:
            for z in elements:
                if is_unit(y) and is_unit(z):
                    continue
                for x in elements:
                    if mul(mul(y, x), z) == x:
                        return False
        return True
    if prop == "unit_cancellative":
        for y in elements:
            if is_unit(y):
                continue
            for x in elements:
                if mul(x, y) == x or mul(y, x) == x:
                    return False
        return True
    if prop != "cancellative":
        raise ValidationError(f"unknown law {prop!r}; expected acyclic, unit_cancellative or cancellative")
    n = len(elements)
    for z in elements:
        if len({mul(z, x) for x in elements}) != n or len({mul(x, z) for x in elements}) != n:
            return False
    return True


def ijk_scan(table) -> tuple[int, int, int] | None:
    """The first (i, j, k) with (i*j)*k != i*(j*k), by the plain n^3 scan, or
    None for an associative table."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            row_ij = table[table[i][j]]
            row_i = table[i]
            for k in range(n):
                if row_ij[k] != row_i[table[j][k]]:
                    return (i, j, k)
    return None


def exhaustive_homs(source: FiniteMonoid, target: FiniteMonoid):
    """(map, atom-preserving) for every hom, in map order, by trying every map
    with the identity pinned (which settles its row) and checking the rest."""
    _check_monoid(source)
    _check_monoid(target)
    src, tgt = source.table, target.table
    src_atoms, tgt_atoms = atoms(source), atoms(target)
    rows = [x for x in range(source.size) if x != source.identity]
    out = []
    for values in itertools.product(range(target.size), repeat=source.size - 1):
        mp = list(values)
        mp.insert(source.identity, target.identity)
        if all([mp[v] for v in src[x]] == [tgt[mp[x]][w] for w in mp] for x in rows):
            out.append((tuple(mp), all(mp[a] in tgt_atoms for a in src_atoms)))
    return out


# ---------------------------------------------------------------------------
# length sets


def brute_force_lengths(m: FiniteMonoid, x: int, bound: int, budget: int | None = None) -> set[int]:
    """{k <= bound : x is a product of exactly k atoms}.

    Plain dynamic programming over (length, element) with no periodicity
    reasoning, kept independent from length_set on purpose. Each level
    costs ``budget`` one per product y·a and at least one, as in
    ``fp_brute_force_lengths``.
    """
    _check_monoid(m)
    _check_indices((x,), m.size, "element index")
    _check_count(bound, "bound")
    spare = limit = _search_budget(budget)
    found = set()
    if x == m.identity:
        found.add(0)
    ats = sorted(atoms(m))
    reach = {m.identity}
    for k in range(1, bound + 1):
        spare -= max(1, len(reach) * len(ats))
        if spare < 0:
            raise SearchBudgetExceededError(limit, "products")
        reach = {m.mul(y, a) for y in reach for a in ats}
        if x in reach:
            found.add(k)
        if not reach:
            break
    return found


def union_k_by_fold(m: FiniteMonoid, k: int):
    """union_k, by folding the union over every distinct length set of m
    that contains k, with no periodicity reasoning."""
    _check_count(k, "k")
    return functools.reduce(eps_union, (s for s in length_system(m) if k in s), EMPTY)


def json_members(s, bound: int) -> set[int]:
    """The members n <= bound of s, read off its JSON lists, never the masks:
    the head members, then each tail residue stepped by the period."""
    _check_count(bound, "bound")
    data = eps_to_json(s)
    t, p = data["threshold"], data["period"]
    tails = (range(t + (r - t) % p, bound + 1, p) for r in data["tail"])
    return {n for n in data["head"] if n < t and n <= bound}.union(*tails)


# ---------------------------------------------------------------------------
# free products


def raw_alphabet(family: Family) -> list[Letter]:
    _check_family(family)
    return [Letter(i, x) for i, m in enumerate(family.members) for x in range(m.size)]


def congruence_moves(family: Family, letters):
    """All single-step congruence moves applicable to a raw word."""
    _check_family(family)
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


def reduced_words_upto(family: Family, max_len: int) -> Iterator[ReducedWord]:
    """All reduced words with at most max_len letters, shortest first, as a
    lazy iterator: a caller may stop once it has what it needs. The
    arguments are checked at the call, before the first word."""
    _check_family(family)
    _check_count(max_len, "max_len")
    return _reduced_words(family, max_len)


def _reduced_words(family: Family, max_len: int) -> Iterator[ReducedWord]:
    alphabet = [
        Letter(i, x)
        for i, m in enumerate(family.members)
        for x in range(m.size)
        if x != m.identity
    ]
    current: list[tuple[Letter, ...]] = [()]
    yield ReducedWord(family, ())
    for _ in range(max_len):
        nxt = []
        for word in current:
            for lt in alphabet:
                if word and word[-1].mon == lt.mon:
                    continue
                ext = word + (lt,)
                nxt.append(ext)
                yield ReducedWord(family, ext)
        current = nxt


def _candidate_atoms(family: Family, letters: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
    # unit decorations: contiguous all-unit subwords of w, plus single units
    decorations: set[tuple[Letter, ...]] = {()}
    run: list[Letter] = []
    for lt in letters + (None,):
        if lt is not None and _is_unit_letter(family, lt):
            run.append(lt)
            continue
        for a in range(len(run)):
            for b in range(a + 1, len(run) + 1):
                decorations.add(tuple(run[a:b]))
        run = []
    for i, m in enumerate(family.members):
        for u in units(m):
            if u != m.identity:
                decorations.add((Letter(i, u),))
    pool: set[tuple[Letter, ...]] = set()
    for i, m in enumerate(family.members):
        for a in atoms(m):
            for left in decorations:
                for right in decorations:
                    pool.add(_join(family, _join(family, left, (Letter(i, a),)), right))
    return sorted(pool)


def _can_extend_to(family: Family, state: tuple[Letter, ...], target: tuple[Letter, ...], pad: int) -> bool:
    """Prune states that provably cannot reach the target by further right
    multiplication: letters before the last non-unit letter are frozen, and
    that letter can only absorb on the right within its member."""
    if len(state) > len(target) + pad:
        return False
    last_nu = None
    for pos in range(len(state) - 1, -1, -1):
        if not _is_unit_letter(family, state[pos]):
            last_nu = pos
            break
    if last_nu is None:
        return True
    if last_nu >= len(target):
        return False
    if state[:last_nu] != target[:last_nu]:
        return False
    ti, tx = target[last_nu]
    si, sx = state[last_nu]
    if si != ti or _is_unit_letter(family, target[last_nu]):
        return False
    return tx in family.members[si].table[sx]  # some z has sx·z = tx, z = 1 when sx = tx


def fp_brute_force_lengths(
    family: Family,
    w: ReducedWord,
    bound: int,
    budget: int | None = None,
) -> set[int]:
    """Lengths of factorizations of w into atoms of the free product, by
    bounded search over decorated-atom sequences.

    Candidate atoms carry unit decorations drawn from w's own unit runs and
    from single member units; partial products are kept reduced and pruned
    against w's frozen prefix. Level k is the set of states reachable by k
    candidates. A state's successors (its products with every candidate that
    survive the pruning) are computed the first time the state is met, on
    any level, and kept for the rest of the call. ``budget`` bounds the work
    done: a state's first expansion costs one per candidate, and each later
    level that meets it again costs one more. Every level of a non-empty
    frontier costs at least one, so a search whose frontier never empties
    stops within ``budget`` levels, whatever ``bound`` is. The pruning
    verdict on each product is taken once per call and costs no budget.
    """
    target = _check_word(family, w)
    _check_count(bound, "bound")
    if not target:
        return {0}
    if fp_is_unit(family, w):
        return set()
    limit = _search_budget(budget)
    pool = _candidate_atoms(family, target)
    pad = max((len(c) for c in pool), default=0)
    found: set[int] = set()
    frontier: set[tuple[Letter, ...]] = {()}
    successors: dict[tuple[Letter, ...], set[tuple[Letter, ...]]] = {}
    verdicts: dict[tuple[Letter, ...], bool] = {}
    expansions = 0
    for k in range(1, bound + 1):
        nxt: set[tuple[Letter, ...]] = set()
        for state in frontier:
            after = successors.get(state)
            expansions += len(pool) if after is None else 1
            if expansions > limit:
                raise SearchBudgetExceededError(limit, "expansions")
            if after is None:
                after = successors[state] = set()
                for cand in pool:
                    p = _join(family, state, cand)
                    keep = verdicts.get(p)
                    if keep is None:
                        keep = verdicts[p] = _can_extend_to(family, p, target, pad)
                    if keep:
                        after.add(p)
            nxt |= after
        if target in nxt:
            found.add(k)
        frontier = nxt
        if not frontier:
            break
    return found


def _admissible_words(fam: Family, max_len: int):
    words = (w for n in range(1, max_len + 1) for w in itertools.product(range(len(fam.members)), repeat=n))
    return [w for w in words if gamma_admissible(fam, w)]


def _sums(summands) -> list:
    """eps_sum_many of each distinct multiset of summands, once: a sum ignores their order."""
    multisets = {frozenset(collections.Counter(parts).items()) for parts in summands}
    return [eps_sum_many(s for s, count in ms for _ in range(count)) for ms in multisets]


def union_k_oracle(fam: Family, k: int):
    """fp_union_k over all admissible index words × compositions of k, for
    k >= 1: k = 0 has no composition into positive parts."""
    _check_family(fam)
    _check_count(k, "k", 1)
    summands = (
        [union_k(fam.members[i], b - a) for i, a, b in zip(word, (0,) + cuts, cuts + (k,))]
        for word in _admissible_words(fam, k)
        for cuts in itertools.combinations(range(1, k), len(word) - 1)
    )
    return functools.reduce(eps_union, _sums(summands), EMPTY)


def system_oracle(fam: Family, max_blocks: int):
    """fp_length_system_bounded over all admissible index words × choices."""
    _check_family(fam)
    _check_count(max_blocks, "max_blocks", 1)
    systems = [length_system(m, nonzero_only=True).entries for m in fam.members]
    words = _admissible_words(fam, max_blocks)
    return set(_sums(choice for w in words for choice in itertools.product(*(systems[i] for i in w))))


# ---------------------------------------------------------------------------
# the categorical product


def tuple_mul(family: Family, s: tuple, t: tuple) -> tuple:
    """The componentwise product of two tuples of the direct product."""
    _check_family(family)
    if not len(s) == len(t) == len(family.members):
        raise ValidationError(f"tuple must have {len(family.members)} components")
    return tuple(m.mul(x, y) for m, x, y in zip(family.members, s, t))


def product_system_oracle(fam: Family, nonzero_only: bool):
    """ap_length_system as the intersections of every choice of one length set
    per member."""
    _check_family(fam)
    systems = (length_system(m).entries for m in fam.members)
    entries = {functools.reduce(eps_intersect, choice) for choice in itertools.product(*systems)}
    return entries - {EMPTY, ZERO_ONLY} if nonzero_only else entries - {EMPTY}


# ---------------------------------------------------------------------------
# congruences


def all_partitions(n: int):
    """All set partitions of range(n) as leader tuples, via restricted growth."""
    _check_count(n, "n")
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


def is_congruence(m: FiniteMonoid, leader) -> bool:
    """Whether the partition given by ``leader`` is compatible with both
    translations, by checking every pair in one block against every element."""
    _check_monoid(m)
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
