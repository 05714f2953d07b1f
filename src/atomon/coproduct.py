"""Free products of atomic monoids: reduced words, recognition, length formulas.

A word over a family is a sequence of letters (member index, element index).
Congruence classes are represented by their unique reduced word: no identity
letters, adjacent letters from distinct members.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import FiniteMonoid, MonoidHom, atoms, check_property, units
from .errors import (
    NotAtomicError,
    NotAtomPreservingError,
    ParseError,
    PreconditionError,
    SearchBudgetExceededError,
    TargetMismatchError,
    ValidationError,
)
from .lengths import (
    EMPTY,
    ZERO_ONLY,
    EPSet,
    LengthSystem,
    eps_sum_many,
    eps_union,
    length_set,
    length_system,
    union_k,
)

DEFAULT_SEARCH_BUDGET = 250_000


class Letter(NamedTuple):
    mon: int
    elem: int


class Family:
    """A non-empty family of atomic monoids, the index set of a free product."""

    __slots__ = ("members", "non_reduced")

    def __init__(self, members: Sequence[FiniteMonoid]):
        if not members:
            raise ValidationError("a family needs at least one member")
        for i, m in enumerate(members):
            if not check_property(m, "atomic"):
                raise NotAtomicError(f"family member {i} is not atomic")
        self.members = tuple(members)
        # members whose unit group is non-trivial
        self.non_reduced = frozenset(
            i for i, m in enumerate(self.members) if len(units(m)) > 1
        )

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> FiniteMonoid:
        return self.members[i]

    def check_letter(self, letter) -> Letter:
        i, x = letter
        if not 0 <= i < len(self.members):
            raise ValidationError(f"member index {i} out of range")
        if not 0 <= x < self.members[i].size:
            raise ValidationError(f"element {x} out of range for member {i}")
        return Letter(i, x)

    def __repr__(self) -> str:
        return f"Family({list(self.members)!r})"


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)


EPS_WORD = ReducedWord(())


def reduce(family: Family, word: Iterable[tuple[int, int]]) -> ReducedWord:
    """Normal form of a raw word: one stack pass merging same-member runs
    and dropping identity letters."""
    stack: list[Letter] = []
    for raw in word:
        i, x = family.check_letter(raw)
        member = family.members[i]
        while True:
            if x == member.identity:
                break
            if stack and stack[-1].mon == i:
                x = member.mul(stack.pop().elem, x)
                continue
            stack.append(Letter(i, x))
            break
    return ReducedWord(tuple(stack))


def fp_mul(family: Family, x: ReducedWord, y: ReducedWord) -> ReducedWord:
    return reduce(family, x.letters + y.letters)


def fp_is_unit(family: Family, w: ReducedWord) -> bool:
    return all(x in units(family.members[i]) for i, x in w.letters)


def fp_is_unit_letter(family: Family, letter: Letter) -> bool:
    return letter.elem in units(family.members[letter.mon])


def fp_is_atom(family: Family, w: ReducedWord) -> bool:
    """Exactly one non-unit letter, and that letter is an atom of its member."""
    non_unit = [lt for lt in w.letters if not fp_is_unit_letter(family, lt)]
    if len(non_unit) != 1:
        return False
    i, x = non_unit[0]
    return x in atoms(family.members[i])


def fp_length_set(family: Family, w: ReducedWord) -> EPSet:
    """Length set of a reduced word: the sum of its non-unit letters' length sets."""
    if not w.letters:
        return ZERO_ONLY
    if fp_is_unit(family, w):
        return EMPTY
    return eps_sum_many(
        length_set(family.members[i], x)
        for i, x in w.letters
        if not fp_is_unit_letter(family, Letter(i, x))
    )


def gamma_admissible(family: Family, index_word: Sequence[int]) -> bool:
    """Membership in the admissible index-word set of the free product.

    Three regimes depending on how many members have non-trivial units:
    two or more lets everything through, exactly one forbids consecutive
    repeats of that member only, none forces non-empty strictly alternating
    words.
    """
    for i in index_word:
        if not 0 <= i < len(family.members):
            raise ValidationError(f"member index {i} out of range")
    nr = family.non_reduced
    if len(nr) >= 2:
        return True
    if len(nr) == 1:
        bad = next(iter(nr))
        return all(
            not (a == b == bad) for a, b in zip(index_word, index_word[1:])
        )
    if not index_word:
        return False
    return all(a != b for a, b in zip(index_word, index_word[1:]))


def fp_length_system_bounded(family: Family, max_blocks: int) -> LengthSystem:
    """Sums of member non-zero length sets over admissible index words of
    bounded length. Truncated, never presented as the full system."""
    if max_blocks < 1:
        raise ValidationError("max_blocks must be at least 1")
    member_systems = [
        sorted(length_system(m, nonzero_only=True), key=EPSet.sort_key)
        for m in family.members
    ]
    entries: set[EPSet] = set()
    for n in range(1, max_blocks + 1):
        for index_word in itertools.product(range(len(family.members)), repeat=n):
            if not gamma_admissible(family, index_word):
                continue
            for choice in itertools.product(*(member_systems[i] for i in index_word)):
                entries.add(eps_sum_many(choice))
    entries.discard(EMPTY)
    return LengthSystem(frozenset(entries), truncated_at=max_blocks)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def fp_union_k(family: Family, k: int) -> EPSet:
    """Exact union of length sets containing k, via compositions of k over
    admissible index words (every part is positive, so word length <= k)."""
    if k < 1:
        raise ValidationError("k must be positive")
    member_unions = [[None] + [union_k(m, kk) for kk in range(1, k + 1)] for m in family.members]
    acc = EMPTY
    for n in range(1, k + 1):
        for index_word in itertools.product(range(len(family.members)), repeat=n):
            if not gamma_admissible(family, index_word):
                continue
            for parts in _compositions(k, n):
                summands = [member_unions[i][kk] for i, kk in zip(index_word, parts)]
                if any(s.is_empty for s in summands):
                    continue
                acc = eps_union(acc, eps_sum_many(summands))
    return acc


def coprojection(family: Family, i: int, x: int) -> ReducedWord:
    return reduce(family, [(i, x)])


def fp_couniversal(
    family: Family,
    homs: Sequence[MonoidHom],
    w: ReducedWord,
) -> int:
    """Evaluate the induced morphism out of the free product at a word."""
    if len(homs) != len(family.members):
        raise ValidationError("need exactly one hom per family member")
    target = homs[0].target
    for i, h in enumerate(homs):
        if h.source != family.members[i]:
            raise ValidationError(f"hom {i} does not start at family member {i}")
        if h.target != target:
            raise TargetMismatchError("homs must share one target")
        if not h.atom_preserving:
            raise NotAtomPreservingError(i)
    acc = target.identity
    for i, x in w.letters:
        acc = target.mul(acc, homs[i].map[x])
    return acc


def reduced_words_upto(family: Family, max_len: int) -> Iterator[ReducedWord]:
    """All reduced words with at most max_len letters, shortest first."""
    alphabet = [
        Letter(i, x)
        for i, m in enumerate(family.members)
        for x in range(m.size)
        if x != m.identity
    ]
    current: list[tuple[Letter, ...]] = [()]
    yield EPS_WORD
    for _ in range(max_len):
        nxt = []
        for word in current:
            for lt in alphabet:
                if word and word[-1].mon == lt.mon:
                    continue
                ext = word + (lt,)
                nxt.append(ext)
                yield ReducedWord(ext)
        current = nxt


def _search_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("ATOMON_BUDGET")
    if not env:
        return DEFAULT_SEARCH_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"ATOMON_BUDGET must be an integer, not {env!r}") from None


def _candidate_atoms(family: Family, w: ReducedWord) -> list[tuple[Letter, ...]]:
    # unit decorations: contiguous all-unit subwords of w, plus single units
    decorations: set[tuple[Letter, ...]] = {()}
    run: list[Letter] = []
    for lt in w.letters + (None,):
        if lt is not None and fp_is_unit_letter(family, lt):
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
                    cand = reduce(family, left + (Letter(i, a),) + right)
                    pool.add(cand.letters)
    return sorted(pool)


def _left_divides(m: FiniteMonoid, x: int, y: int) -> bool:
    return any(m.mul(x, z) == y for z in range(m.size))


def _can_extend_to(family: Family, state: tuple[Letter, ...], target: tuple[Letter, ...], pad: int) -> bool:
    """Prune states that provably cannot reach the target by further right
    multiplication: letters before the last non-unit letter are frozen, and
    that letter can only absorb on the right within its member."""
    if len(state) > len(target) + pad:
        return False
    last_nu = None
    for pos in range(len(state) - 1, -1, -1):
        if not fp_is_unit_letter(family, state[pos]):
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
    if si != ti or fp_is_unit_letter(family, target[last_nu]):
        return False
    return sx == tx or _left_divides(family.members[si], sx, tx)


def fp_brute_force_lengths(
    family: Family,
    w: ReducedWord,
    bound: int,
    budget: int | None = None,
) -> set[int]:
    """Oracle: lengths of factorizations of w into atoms of the free product,
    by bounded search over decorated-atom sequences.

    Candidate atoms carry unit decorations drawn from w's own unit runs and
    from single member units; partial products are kept reduced and pruned
    against w's frozen prefix.
    """
    if bound < 0:
        raise ValidationError("bound must be non-negative")
    if not w.letters:
        return {0}
    if fp_is_unit(family, w):
        return set()
    limit = _search_budget(budget)
    pool = _candidate_atoms(family, w)
    pad = max((len(c) for c in pool), default=0)
    target = w.letters
    found: set[int] = set()
    frontier: set[tuple[Letter, ...]] = {()}
    expansions = 0
    for k in range(1, bound + 1):
        nxt: set[tuple[Letter, ...]] = set()
        for state in frontier:
            for cand in pool:
                expansions += 1
                if expansions > limit:
                    raise SearchBudgetExceededError(limit)
                prod = reduce(family, state + cand).letters
                if _can_extend_to(family, prod, target, pad):
                    nxt.add(prod)
        if target in nxt:
            found.add(k)
        frontier = nxt
        if not frontier:
            break
    return found


def fp_check_property_bounded(family: Family, prop: str, max_len: int) -> bool:
    """Verify a cancellativity-style property over all reduced words of
    bounded length. Members must already satisfy the property."""
    if prop not in ("acyclic", "unit_cancellative", "cancellative"):
        raise ValidationError(f"unsupported property {prop!r}")
    for i, m in enumerate(family.members):
        if not check_property(m, prop):
            raise PreconditionError(f"family member {i} does not satisfy {prop}")
    words = list(reduced_words_upto(family, max_len))
    is_unit = {w: fp_is_unit(family, w) for w in words}
    if prop == "acyclic":
        for y in words:
            for z in words:
                if is_unit[y] and is_unit[z]:
                    continue
                for x in words:
                    if fp_mul(family, fp_mul(family, y, x), z) == x:
                        return False
        return True
    if prop == "unit_cancellative":
        for y in words:
            if is_unit[y]:
                continue
            for x in words:
                if fp_mul(family, x, y) == x or fp_mul(family, y, x) == x:
                    return False
        return True
    for x, y in itertools.combinations(words, 2):
        for z in words:
            if fp_mul(family, x, z) == fp_mul(family, y, z):
                return False
            if fp_mul(family, z, x) == fp_mul(family, z, y):
                return False
    return True
