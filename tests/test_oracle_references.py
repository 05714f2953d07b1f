"""The oracles that do each piece of work once, against the plain forms they
replaced, kept here as the references.

Each plain form is the earlier body of its oracle. The two must agree on
seeded draws, and the search must charge its budget exactly as before, so
that no ``--budget`` outcome moves. The sums the free-product oracles save
are pinned at seed 0.
"""

import collections
import functools
import itertools
import random

import pytest

from atomon import oracles, verify
from atomon.coproduct import _check_word, _join, fp_is_unit
from atomon.core import atoms, new_monoid
from atomon.errors import SearchBudgetExceededError
from atomon.fixtures import c2, h2, m31
from atomon.lengths import EMPTY, eps_finite, eps_sum_many, eps_union, length_system, union_k
from atomon.serialize import eps_to_json
from atomon.verify import _EPS_BOUND, COPRODUCT_FAMILIES, UNION_FAMILIES, cmd_verify

from test_acceptance import CASES_AT_SEED_0


def plain_json_members(s, bound):
    data = eps_to_json(s)
    head, tail = set(data["head"]), set(data["tail"])
    return {n for n in range(bound + 1) if (n in head if n < data["threshold"] else n % data["period"] in tail)}


def plain_exhaustive_homs(source, target):
    src, tgt = source.table, target.table
    src_atoms, tgt_atoms = atoms(source), atoms(target)
    out = []
    for values in itertools.product(range(target.size), repeat=source.size - 1):
        mp = list(values)
        mp.insert(source.identity, target.identity)
        if all([mp[v] for v in src[x]] == [tgt[mp[x]][w] for w in mp] for x in range(source.size)):
            out.append((tuple(mp), all(mp[a] in tgt_atoms for a in src_atoms)))
    return out


def plain_direct_sum(mem_a, mem_b):
    return {x + y for x in mem_a for y in mem_b if x + y <= _EPS_BOUND}


def union_summands(fam, k):
    """The parts of each sum the plain union_k_oracle took, in its order."""
    for word in oracles._admissible_words(fam, k):
        for cuts in itertools.combinations(range(1, k), len(word) - 1):
            parts = [b - a for a, b in zip((0,) + cuts, cuts + (k,))]
            yield [union_k(fam.members[i], p) for i, p in zip(word, parts)]


def plain_union_k_oracle(fam, k):
    acc = EMPTY
    for parts in union_summands(fam, k):
        acc = eps_union(acc, eps_sum_many(parts))
    return acc


def system_summands(fam, max_blocks):
    """The choices the plain system_oracle summed, in its order."""
    systems = [length_system(m, nonzero_only=True).entries for m in fam.members]
    for w in oracles._admissible_words(fam, max_blocks):
        yield from itertools.product(*(systems[i] for i in w))


def plain_system_oracle(fam, max_blocks):
    return {eps_sum_many(choice) for choice in system_summands(fam, max_blocks)}


def plain_fp_brute_force_lengths(family, w, bound, budget=None):
    target = _check_word(family, w)
    if not target:
        return {0}
    if fp_is_unit(family, w):
        return set()
    limit = oracles._search_budget(budget)
    pool = oracles._candidate_atoms(family, target)
    pad = max((len(c) for c in pool), default=0)
    found = set()
    frontier = {()}
    successors = {}
    expansions = 0
    for k in range(1, bound + 1):
        nxt = set()
        for state in frontier:
            after = successors.get(state)
            expansions += len(pool) if after is None else 1
            if expansions > limit:
                raise SearchBudgetExceededError(limit)
            if after is None:
                products = (_join(family, state, cand) for cand in pool)
                after = successors[state] = {p for p in products if oracles._can_extend_to(family, p, target, pad)}
            nxt |= after
        if target in nxt:
            found.add(k)
        frontier = nxt
        if not frontier:
            break
    return found


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except SearchBudgetExceededError as exc:
        return str(exc)


def test_json_members_matches_the_plain_scan():
    rng = random.Random(0)
    for s in (verify._random_eps(rng) for _ in range(500)):
        for bound in range(_EPS_BOUND + 1):
            assert oracles.json_members(s, bound) == plain_json_members(s, bound), (s, bound)


def _reversed_labels(m):
    """m with its elements numbered last to first, so the identity moves off 0."""
    n = m.size
    table = [[n - 1 - m.table[n - 1 - x][n - 1 - y] for y in range(n)] for x in range(n)]
    return new_monoid(m.names[::-1], table, n - 1 - m.identity)


def test_exhaustive_homs_matches_the_plain_search():
    # every pair of generator-oracles, and pairs whose identities are not 0
    pairs = [pair for _, pair in verify._hom_space_pairs(random.Random(0))]
    moved = [_reversed_labels(m) for m in (c2(), h2(), m31())]
    pairs += [(s, t) for s in moved for t in moved + [c2(), h2()]]
    for s, t in pairs:
        assert oracles.exhaustive_homs(s, t) == plain_exhaustive_homs(s, t)


def test_direct_sum_matches_the_plain_sum(monkeypatch):
    # the library sum is replaced by the plain direct sum, so the sum case
    # passes exactly when the two direct sums agree, on the pairs of
    # epset-arithmetic at seed 0
    def plain(a, b):
        return plain_direct_sum(plain_json_members(a, _EPS_BOUND), plain_json_members(b, _EPS_BOUND))

    pairs = [pair for pair, _ in verify._eps_pairs(random.Random(0))]
    assert len(pairs) == 500
    monkeypatch.setattr(verify, "eps_minkowski_sum", lambda a, b: eps_finite(plain(a, b)))
    assert not any(next(verify._eps_operations(pair, None, None)) for pair in pairs)
    # and the case is live: a plain sum without its least member fails it
    monkeypatch.setattr(verify, "eps_minkowski_sum", lambda a, b: eps_finite(sorted(plain(a, b))[1:]))
    failed = [bool(next(verify._eps_operations(pair, None, None))) for pair in pairs]
    assert failed == [bool(plain(*pair)) for pair in pairs] and any(failed)


@pytest.mark.parametrize("names", UNION_FAMILIES)
def test_union_k_oracle_matches_the_plain_fold(names):
    fam = verify._family(names)
    for k in range(1, 5):
        assert oracles.union_k_oracle(fam, k) == plain_union_k_oracle(fam, k), k


@pytest.mark.parametrize("names", COPRODUCT_FAMILIES)
def test_system_oracle_matches_the_plain_sums(names):
    fam = verify._family(names)
    for max_blocks in range(1, 4):
        assert oracles.system_oracle(fam, max_blocks) == plain_system_oracle(fam, max_blocks), max_blocks


def _multisets(summands) -> int:
    return len({frozenset(collections.Counter(parts).items()) for parts in summands})


def test_free_product_oracles_sum_each_multiset_once(monkeypatch):
    # at seed 0 the two suites ask for 276 distinct multisets of parts, one
    # sum each, where a sum per composition or choice makes 771
    union_fams = [verify._family(names) for names in UNION_FAMILIES]
    system_fams = [verify._family(names) for names in COPRODUCT_FAMILIES]
    expected = sum(_multisets(union_summands(fam, k)) for fam in union_fams for k in range(1, 5))
    expected += sum(_multisets(system_summands(fam, 3)) for fam in system_fams)
    calls = 0

    def counted(parts):
        nonlocal calls
        calls += 1
        return eps_sum_many(parts)

    monkeypatch.setattr(oracles, "eps_sum_many", counted)
    for suite in ("coproduct-unions", "coproduct-systems"):
        report = cmd_verify(suite, seed=0)
        assert report.ok and report.cases == CASES_AT_SEED_0[suite]
    assert calls == expected == 276


@pytest.mark.parametrize("names", COPRODUCT_FAMILIES)
def test_factorization_search_matches_the_plain_search_at_every_budget(names):
    # the outcome, the lengths or the exceeded budget, of each word of
    # coproduct-lengths at budgets on both sides of every word's cost
    fam = verify._family(names)
    search = functools.partial(oracles.fp_brute_force_lengths, fam)
    for w in oracles.reduced_words_upto(fam, 3):
        for budget in (0, 1, 5, 10, 30, 100, 300, 1000, None):
            got = _outcome(search, w, 10, budget=budget)
            assert got == _outcome(plain_fp_brute_force_lengths, fam, w, 10, budget=budget), (w, budget)
