"""Free products of atomic monoids: reduced words, recognition, length formulas.

A word over a family is a sequence of letters (member index, element index).
Congruence classes are represented by their unique reduced word: no identity
letters, adjacent letters from distinct members.

Two reduced words can only cancel where they meet, so products merge at the
junction (``_join``); ``reduce`` is for raw words only. A ``ReducedWord``
carries its family and checks itself when built, so every public function
taking one only asks whether it is a word over the family it is given.
Every function taking a family refuses anything that is not a ``Family``.
A ``Cocone`` is the one spelling of the induced map out of a free product:
built from its homs, which must be AtoMon arrows, atom-preserving homs
between atomic monoids, as ``core._arrows`` checks, then called on words.

This module holds the construction only; its oracles (the bounded
factorization search and the enumeration of reduced words) are in
``oracles``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import FiniteMonoid, MonoidHom, _Value, _arrows, _check_count, _check_indices, _check_pairs, _sequence
from .core import _rebuild, _search_budget, atoms, check_property, units
from .errors import NotAtomicError, SearchBudgetExceededError, ValidationError
from .lengths import (
    EMPTY,
    ZERO_ONLY,
    EPSet,
    LengthSystem,
    _length_table,
    _sum_counted,
    eps_minkowski_sum,
    eps_sum_many,
    eps_union,
    length_system,
    union_k,
)


class Letter(NamedTuple):
    mon: int
    elem: int


_MON = operator.itemgetter(0)


class Family(_Value):
    """A non-empty family of atomic monoids, the index set of a free product.
    A family compares and hashes by identity, as a ``Cocone`` does: a word
    belongs to the one family it was built over.

    Three letter tables are built once, here: ``_letters`` maps every pair
    (i, x) with x in range for member i, identities included, to one
    canonical ``Letter(i, x)``; ``_identities`` and ``_units`` are the
    frozensets of the identity letters and of the unit letters. ``eps``, the
    family's empty word, is built on read, so no field refers back to the
    family. Length sets are not tabled here: they stay lazy, per member.
    ``_pooled`` and ``_totals`` hold the rows of ``fp_union_k``'s DP computed
    so far; they start empty and grow to the largest k asked for.
    ``_pair_sums`` maps each unordered pair of length sets {A, B} that a
    free-product DP has added, as ``frozenset((A, B))``, to A + B
    (``_sum_once``); it starts empty. All three are containers made here and
    filled only by calls on this family, so a new family over the same
    members starts cold.
    """

    __slots__ = ("members", "non_reduced", "_letters", "_identities", "_units", "_pooled", "_totals", "_pair_sums")
    __eq__, __hash__ = object.__eq__, object.__hash__
    eps = property(lambda self: _rebuild(ReducedWord, (self, ())))

    def __init__(self, members: Sequence[FiniteMonoid]):
        members = _sequence(members, "family {!r} is not a sequence of monoids")
        if not members:
            raise ValidationError("a family needs at least one member")
        for i, m in enumerate(members):
            if not isinstance(m, FiniteMonoid):
                raise ValidationError(f"family member {i} is {m!r}, not a FiniteMonoid")
            if not check_property(m, "atomic"):
                raise NotAtomicError(f"family member {i} is not atomic")
        non_reduced = frozenset(i for i, m in enumerate(members) if len(units(m)) > 1)  # non-trivial unit groups
        letters = {(i, x): Letter(i, x) for i, m in enumerate(members) for x in range(m.size)}
        identities = frozenset(letters[i, m.identity] for i, m in enumerate(members))
        unit_letters = frozenset(letters[i, u] for i, m in enumerate(members) for u in units(m))
        self._set(members, non_reduced, letters, identities, unit_letters, [], [], {})

    def __len__(self) -> int:
        # bench/jobs.py checks a loaded family by its length; the library reads .members
        return len(self.members)

    def _check_letter(self, letter) -> Letter:
        """The letter as a Letter: a tuple of two ints (not bools), each in
        range. A list, a range or a dict of two is refused, not read as a pair."""
        _check_pairs((letter,), "letter {!r} is not a (member, element) pair")
        i, x = letter
        if type(i) is not int or type(x) is not int:
            raise ValidationError(f"letter {letter!r} does not hold two integers")
        if not 0 <= i < len(self.members):
            raise ValidationError(f"member index {i} out of range")
        if not 0 <= x < self.members[i].size:
            raise ValidationError(f"element {x} out of range for member {i}")
        return Letter(i, x)

    def _checked(self, word) -> tuple[Letter, ...]:
        """The word's letters as ``_check_letter`` accepts them, read once.

        Each letter is looked up in ``_letters``, whose hits are in range. A
        hit cannot tell 1 from True or 1.0, so the letters must also be the
        canonical ones or hold only ints. All of this runs in C; a word that
        fails it goes through ``_check_letter``, which names the first culprit.
        """
        letters = _sequence(word, "word {!r} is not an iterable of letters")
        try:
            checked = tuple(map(self._letters.__getitem__, letters))
            if all(map(operator.is_, checked, letters)) or set(map(type, itertools.chain.from_iterable(letters))) <= {int}:
                return checked
        except (KeyError, TypeError):
            pass
        return tuple(map(self._check_letter, letters))

    def __repr__(self) -> str:
        return f"Family({list(self.members)!r})"


class ReducedWord(_Value):
    """A reduced word over a family: no identity letter, and no two adjacent
    letters from one member. Checked when built; the letters are read by
    ``Family._checked`` and stored as a tuple of canonical ``Letter``s, so a
    list of letters is frozen, and only a word that is not reduced runs the
    position loop, to name where it fails.

    ``==`` compares the letters, then the families by identity, and ``hash``
    covers both: equal letters over two families, even with the same
    members, are two words. ``repr`` shows the letters only. A word has no
    ``len`` and is always true: read its length and emptiness off
    ``letters``. A ``copy.copy`` keeps its family; a ``deepcopy`` or a pickle
    round trip carries a copy of the family, which the original family
    refuses.
    """

    __slots__ = ("family", "letters")

    def __init__(self, family: Family, letters: tuple[Letter, ...]) -> None:
        _check_family(family)
        letters = family._checked(letters)
        mons = tuple(map(_MON, letters))
        if not family._identities.isdisjoint(letters) or any(map(operator.eq, mons, mons[1:])):
            for pos, (i, x) in enumerate(letters):
                if x == family.members[i].identity:
                    raise ValidationError(f"letter {pos} of the word is the identity of member {i}")
                if pos and letters[pos - 1].mon == i:
                    raise ValidationError(f"letters {pos - 1} and {pos} of the word are both from member {i}")
        self._set(family, letters)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ReducedWord:
            return NotImplemented
        return self.letters == other.letters and self.family is other.family

    def __hash__(self) -> int:
        return hash((self.family, self.letters))

    def __repr__(self) -> str:
        return f"ReducedWord(letters={self.letters!r})"


def _check_family(family) -> None:
    if not isinstance(family, Family):
        raise ValidationError(f"family {family!r} is not a Family")


def reduce(family: Family, word: Iterable[tuple[int, int]]) -> ReducedWord:
    """Normal form of a raw word: one stack pass merging same-member runs
    and dropping identity letters."""
    _check_family(family)
    members, letters = family.members, family._letters
    stack: list[Letter] = []
    top = -1  # the member of stack's top letter, -1 while stack is empty
    for letter in family._checked(word):
        i, x = letter
        member = members[i]
        if i == top:
            x = member.table[stack.pop().elem][x]
            if x == member.identity:
                top = stack[-1].mon if stack else -1
                continue
            letter = letters[i, x]
        elif x == member.identity:
            continue
        stack.append(letter)
        top = i
    return _rebuild(ReducedWord, (family, tuple(stack)))


def _check_word(family: Family, w: ReducedWord) -> tuple[Letter, ...]:
    """w's letters, if w is a word over family; a word checked itself when
    it was built, so only its family is asked for."""
    if not isinstance(w, ReducedWord):
        raise ValidationError(f"{w!r} is not a ReducedWord")
    if w.family is not family:
        _check_family(family)
        raise ValidationError(f"{w!r} is over another family")
    return w.letters


def _join(family: Family, x: tuple[Letter, ...], y: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The reduced word of x·y, for reduced letter tuples x and y.

    Inside x and inside y no letter is an identity and adjacent letters come
    from distinct members, so the only place a reduction can apply is the
    junction. If x's last and y's first letter share a member they merge. A
    merged letter that is not the member's identity has neighbours from other
    members on both sides (x and y are reduced), so nothing more reduces. Only
    an identity is dropped, and then the letters it separated meet: the
    cascade goes on with them. The result is reduced and congruent to x·y,
    so it is the normal form ``reduce`` gives for the concatenation.
    """
    i, j = len(x), 0
    while i and j < len(y) and x[i - 1].mon == y[j].mon:
        member = family.members[y[j].mon]
        z = member.mul(x[i - 1].elem, y[j].elem)
        if z != member.identity:
            return x[: i - 1] + (family._letters[y[j].mon, z],) + y[j + 1 :]
        i, j = i - 1, j + 1
    return x[:i] + y[j:]


def fp_mul(family: Family, x: ReducedWord, y: ReducedWord) -> ReducedWord:
    """Product of two reduced words, merged at the junction."""
    return _rebuild(ReducedWord, (family, _join(family, _check_word(family, x), _check_word(family, y))))


def fp_is_unit(family: Family, w: ReducedWord) -> bool:
    letters = _check_word(family, w)
    return family._units.issuperset(letters)


def _is_unit_letter(family: Family, letter: Letter) -> bool:
    return letter in family._units


def fp_is_atom(family: Family, w: ReducedWord) -> bool:
    """Exactly one non-unit letter, and that letter is an atom of its member."""
    non_unit = [lt for lt in _check_word(family, w) if not _is_unit_letter(family, lt)]
    if len(non_unit) != 1:
        return False
    i, x = non_unit[0]
    return x in atoms(family.members[i])


def _sum_once(family: Family, miss: Callable[[EPSet, EPSet], EPSet], a: EPSet, b: EPSet) -> EPSet:
    """a + b, summed once per family: looked up in ``family._pair_sums``
    under the unordered pair {a, b}, and only a pair the family has not
    added before costs ``miss(a, b)``. The free-product DPs add through
    here; EPSets are canonical and the sum is commutative, so a kept sum is
    the one a fresh call would give."""
    key = frozenset((a, b))
    total = family._pair_sums.get(key)
    if total is None:
        total = family._pair_sums[key] = miss(a, b)
    return total


def fp_length_set(family: Family, w: ReducedWord) -> EPSet:
    """Length set of a reduced word: the sum of its non-unit letters' length
    sets, read from each member's cached table. Equal letters are counted
    first, then their counts merged per distinct length set.

    A word of n letters costs one counting pass over them, then
    O(d·log n) additions for d distinct length sets: the doubles and the
    fold of ``lengths._sum_counted``, each through ``_sum_once``, so only a
    pair this family has not added before costs a Minkowski sum."""
    letters = _check_word(family, w)
    if not letters:
        return ZERO_ONLY
    non_unit = collections.Counter(itertools.filterfalse(family._units.__contains__, letters))
    if not non_unit:
        return EMPTY
    counts = collections.Counter()
    for (i, x), c in non_unit.items():
        counts[_length_table(family.members[i])[0][x]] += c
    return _sum_counted(counts, functools.partial(_sum_once, family, eps_minkowski_sum))


def gamma_admissible(family: Family, index_word: Sequence[int]) -> bool:
    """Membership in the admissible index-word set of the free product.

    Three regimes depending on how many members have non-trivial units:
    two or more lets everything through, exactly one forbids consecutive
    repeats of that member only, none forces non-empty strictly alternating
    words.
    """
    _check_family(family)
    index_word = _sequence(index_word, "index word {!r} is not a sequence of member indices")
    if index_word:
        _check_indices(index_word, len(family.members), "member index")
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


def _follows(family: Family) -> list[list[int]]:
    """follows[i]: the members that may precede member i. A non-empty index
    word is admissible iff each adjacent pair is, in all three regimes."""
    size = len(family.members)
    return [[h for h in range(size) if gamma_admissible(family, (h, i))] for i in range(size)]


def fp_length_system_bounded(family: Family, max_blocks: int) -> LengthSystem:
    """Sums of member non-zero length sets over admissible index words of
    bounded length. Truncated, never presented as the full system.

    A DP over the last member: sums[i] holds the distinct sums over the words
    of the current length that end in i. The words one block longer ending in
    i extend those ending in a member that may precede i, and these are all
    the admissible ones, since admissibility is a condition on adjacent pairs.
    Each sum goes through ``_sum_once``, so a recurring pair is summed once.
    """
    _check_family(family)
    _check_count(max_blocks, "max_blocks", 1)
    systems = [length_system(m, nonzero_only=True).entries for m in family.members]
    follows = _follows(family)
    add = functools.partial(_sum_once, family, eps_minkowski_sum)
    sums = [set(system) for system in systems]
    entries = set().union(*sums)
    for _ in range(1, max_blocks):
        before = [set().union(*(sums[h] for h in hs)) for hs in follows]
        sums = [{add(s, e) for s in prev for e in system} for prev, system in zip(before, systems)]
        entries.update(*sums)
    return LengthSystem(frozenset(entries), truncated_at=max_blocks)


def fp_union_k(family: Family, k: int) -> EPSet:
    """Exact union of the length sets containing k: the union of the sums
    U_{i_1}(k_1) + ... + U_{i_n}(k_n), U_i(j) = union_k(member i, j), over
    admissible index words and compositions of k into positive parts.

    Admissibility does not change that union. In any monoid L(x) + L(y) is
    in L(xy), so U_i(a) + U_i(b) is in U_i(a + b): merging two adjacent
    blocks of one member gives a word whose sum contains the longer word's.
    Merging every adjacent repeat ends in a non-empty word with no repeat,
    which all three regimes admit. So the union may run over all words: with
    the pooled U(j) = U_1(j) ∪ ... ∪ U_n(j), it is totals[k] for the DP
    totals[j] = U(j) ∪ ⋃_{1<=s<j} totals[s] + U(j-s), exact because the
    Minkowski sum distributes over union. totals[0] is the pooled U(0) =
    {0}: only the empty word has length 0.

    Row j reads only earlier rows, so the rows live on the family and grow
    only to the largest k asked for; a call at or below a k already reached
    is one lookup. A DP up to K makes O(K²) lookups, one sum per distinct
    pair: each totals[s] + U(j-s) goes through ``_sum_once`` (a new pair
    through ``eps_sum_many``), and each row folds only its distinct sums.
    The U_i repeat and the rows settle, so (one, m31, c2) at K = 48 makes
    1,128 lookups and 3 sums. Before any work, the rows still to build are
    charged their lookups, j - 1 for row j, against the search budget.
    """
    _check_family(family)
    _check_count(k, "k")
    pooled, totals = family._pooled, family._totals
    if k >= len(totals):  # rows 0..done made done(done-1)/2 lookups
        limit, done = _search_budget(None), max(len(totals) - 1, 0)
        if (k * (k - 1) - done * (done - 1)) // 2 > limit:
            raise SearchBudgetExceededError(limit, "DP lookups")
    add = functools.partial(_sum_once, family, lambda a, b: eps_sum_many((a, b)))
    for j in range(len(totals), k + 1):
        pooled_j = functools.reduce(eps_union, (union_k(m, j) for m in family.members), EMPTY)
        sums = dict.fromkeys(add(totals[s], pooled[j - s]) for s in range(1, j))
        total_j = functools.reduce(eps_union, sums, pooled_j)
        pooled.append(pooled_j)
        totals.append(total_j)
    return totals[k]


def coprojection(family: Family, i: int, x: int) -> ReducedWord:
    return reduce(family, [(i, x)])


class Cocone(_Value):
    """The morphism out of the free product of ``family`` induced by one
    AtoMon arrow per member, hom i starting at member i, all sharing one
    target. Checked when built, in this order: the family, the homs as
    arrows sharing a target (``core._arrows``), then their sources. Called
    on a word over the family, it folds the word's letters into the target.

    A cocone compares and hashes by identity, so no monoid table is ever
    hashed.
    """

    __slots__ = ("family", "homs")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, family: Family, homs: tuple[MonoidHom, ...]) -> None:
        _check_family(family)
        homs = _arrows(homs, "target")
        if tuple(h.source for h in homs) != family.members:
            raise ValidationError("need one hom per family member, hom i starting at member i")
        self._set(family, homs)

    def __call__(self, w: ReducedWord) -> int:
        letters = _check_word(self.family, w)
        target = self.homs[0].target
        acc = target.identity
        for i, x in letters:
            acc = target.mul(acc, self.homs[i].map[x])
        return acc
