import collections
import copy
import functools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomon import (
    EMPTY,
    Cocone,
    Family,
    Letter,
    PushoutPresentation,
    ReducedWord,
    ZERO_ONLY,
    ap_contains,
    ap_generators,
    ap_is_atom,
    ap_is_unit,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
    canonical_to_terminal,
    coprojection,
    eps_cofinite,
    eps_finite,
    fp_is_atom,
    fp_is_unit,
    fp_length_set,
    fp_length_system_bounded,
    fp_mul,
    fp_union_k,
    gamma_admissible,
    identity_hom,
    new_hom,
    reduce,
)
from atomon.errors import (
    NotAtomicError,
    SearchBudgetExceededError,
    ValidationError,
)
from atomon import coproduct, lengths, oracles
from atomon.coproduct import _join
from atomon.core import units
from atomon.fixtures import atomic_fixtures, c2, h2, m31, one, sl2
from atomon.lengths import eps_minkowski_sum, eps_sum_many, eps_union, length_set
from atomon.oracles import fp_brute_force_lengths, reduced_words_upto, system_oracle, union_k_oracle
from atomon.serialize import parse_tuple, parse_word, word_to_text
from test_core import annotated_parameters


@pytest.fixture
def two_ones():
    return Family([one(), one()])


@pytest.fixture
def one_c2():
    return Family([one(), c2()])


def test_family_requires_atomic_members():
    with pytest.raises(NotAtomicError):
        Family([one(), sl2()])


@pytest.mark.parametrize(
    "members,message",
    [
        ([1, 2], "member 0 is 1, not a FiniteMonoid"),
        ("ab", "family 'ab' is not a sequence of monoids"),
        ([one(), "x"], "member 1 is 'x', not a FiniteMonoid"),
        (5, "family 5 is not a sequence of monoids"),
        ([], "at least one member"),
    ],
)
def test_family_members_must_be_monoids(members, message):
    with pytest.raises(ValidationError, match=message):
        Family(members)


def test_reduce_examples(two_ones, one_c2):
    assert reduce(two_ones, [(0, 1), (0, 1)]).letters == (Letter(0, 2),)
    assert reduce(two_ones, [(0, 0)]) == two_ones.eps
    w = reduce(one_c2, [(0, 1), (1, 1), (0, 1)])
    assert w.letters == (Letter(0, 1), Letter(1, 1), Letter(0, 1))


def test_reduce_is_idempotent(one_c2):
    rng = random.Random(5)
    alphabet = [(i, x) for i, m in enumerate(one_c2.members) for x in range(m.size)]
    for _ in range(100):
        raw = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        w = reduce(one_c2, raw)
        assert reduce(one_c2, w.letters) == w


def test_fp_mul_examples(two_ones, one_c2):
    a = reduce(two_ones, [(0, 1)])
    assert fp_mul(two_ones, a, a).letters == (Letter(0, 2),)
    assert fp_mul(two_ones, a, two_ones.eps) == a
    u = reduce(one_c2, [(1, 1)])
    assert fp_mul(one_c2, u, u) == one_c2.eps


def test_unit_and_atom_recognition(one_c2):
    assert fp_is_unit(one_c2, one_c2.eps)
    u = reduce(one_c2, [(1, 1)])
    assert fp_is_unit(one_c2, u) and not fp_is_atom(one_c2, u)
    a = reduce(one_c2, [(0, 1)])
    assert not fp_is_unit(one_c2, a) and fp_is_atom(one_c2, a)
    ua = reduce(one_c2, [(1, 1), (0, 1)])
    assert fp_is_atom(one_c2, ua)
    zero_letter = reduce(one_c2, [(0, 2)])
    assert not fp_is_atom(one_c2, zero_letter)


def test_two_non_unit_letters_not_an_atom(two_ones):
    w = reduce(two_ones, [(0, 1), (1, 1)])
    assert not fp_is_atom(two_ones, w)


def test_fp_length_set_examples(two_ones, one_c2):
    w = reduce(two_ones, [(0, 2), (1, 1)])
    assert fp_length_set(two_ones, w) == eps_cofinite(3)
    w = reduce(one_c2, [(0, 2), (1, 1), (0, 1)])
    assert fp_length_set(one_c2, w) == eps_cofinite(3)
    assert fp_length_set(two_ones, two_ones.eps) == ZERO_ONLY
    assert fp_length_set(one_c2, reduce(one_c2, [(1, 1)])) == EMPTY


def test_gamma_cases():
    both_units = Family([c2(), c2()])
    assert gamma_admissible(both_units, (0, 0))
    assert gamma_admissible(both_units, ())

    single_unit = Family([one(), c2()])  # member 1 is the only non-reduced one
    assert not gamma_admissible(single_unit, (1, 1))
    assert gamma_admissible(single_unit, (0, 0))
    assert gamma_admissible(single_unit, ())

    no_units = Family([one(), one()])
    assert not gamma_admissible(no_units, (0, 0))
    assert gamma_admissible(no_units, (0, 1, 0))
    assert not gamma_admissible(no_units, ())


@pytest.mark.parametrize(
    "word,message",
    [
        ([(0, True)], "two integers"),
        ([(0, 1.0)], "two integers"),
        ([(0, "a")], "two integers"),
        ([(False, 1)], "two integers"),
        ([(0, 1), (0, 1.0)], "two integers"),
        ([(0,)], "pair"),
        ([(0, 1, 2)], "pair"),
        ([5], "pair"),
        ([None], "pair"),
        ([(2, 1)], "member index 2 out of range"),
        ([(-1, 1)], "member index -1 out of range"),
        ([(1, 2)], "element 2 out of range"),
        (5, "word 5 is not an iterable of letters"),
        (None, "word None is not an iterable of letters"),
        ([{0: "x", 1: "y"}], "pair"),
        ([range(0, 2)], "pair"),
        ([[1, 1]], "pair"),
    ],
)
def test_letters_must_be_pairs_of_indices_in_range(one_c2, word, message):
    with pytest.raises(ValidationError, match=message):
        reduce(one_c2, word)


def _cocone(fam, w):
    return Cocone(fam, [identity_hom(one()), new_hom(c2(), one(), (0, 0))])(w)


WORD_CONSUMERS = {
    "fp_length_set": fp_length_set,
    "fp_is_unit": fp_is_unit,
    "fp_is_atom": fp_is_atom,
    "Cocone": _cocone,
    "fp_brute_force_lengths": lambda fam, w: fp_brute_force_lengths(fam, w, 3),
    "fp_mul left": lambda fam, w: fp_mul(fam, w, fam.eps),
    "fp_mul right": lambda fam, w: fp_mul(fam, fam.eps, w),
}


@pytest.mark.parametrize("consumer", WORD_CONSUMERS)
@pytest.mark.parametrize(
    "letters,message",
    [
        ((Letter(-1, 1),), "member index -1 out of range"),
        ((Letter(5, 1),), "member index 5 out of range"),
        (((0, True),), "two integers"),
        (((0, 0),), "identity of member 0"),
        (((0, 1), (0, 1)), "both from member 0"),
        (5, "word 5 is not an iterable of letters"),
        (None, "word None is not an iterable of letters"),
    ],
    ids=["negative-member", "member-5", "bool-element", "identity-letter", "same-member-neighbours", "int-word", "none-word"],
)
def test_reduced_word_inputs_are_checked(one_c2, consumer, letters, message):
    # a word checks its letters when it is built; a consumer refuses the
    # letters themselves, and a good word over another family with the
    # same members
    with pytest.raises(ValidationError, match=message):
        ReducedWord(one_c2, letters)
    compute = WORD_CONSUMERS[consumer]
    with pytest.raises(ValidationError, match="not a ReducedWord"):
        compute(one_c2, letters)
    with pytest.raises(ValidationError, match="over another family"):
        compute(one_c2, reduce(Family(one_c2.members), [(0, 1)]))


def test_fp_mul_refuses_a_raw_word(one_c2):
    with pytest.raises(ValidationError, match="not a ReducedWord"):
        fp_mul(one_c2, [(0, 1)], one_c2.eps)


FAMILY_CONSUMERS = {
    "reduce": lambda fam, w: reduce(fam, []),
    "fp_mul": lambda fam, w: fp_mul(fam, w, w),
    "fp_is_unit": fp_is_unit,
    "fp_is_atom": fp_is_atom,
    "fp_length_set": fp_length_set,
    "fp_union_k": lambda fam, w: fp_union_k(fam, 1),
    "fp_length_system_bounded": lambda fam, w: fp_length_system_bounded(fam, 2),
    "gamma_admissible": lambda fam, w: gamma_admissible(fam, (0,)),
    "coprojection": lambda fam, w: coprojection(fam, 0, 1),
    "Cocone": lambda fam, w: Cocone(fam, [identity_hom(one())]),
    "ReducedWord": lambda fam, w: ReducedWord(fam, ()),
    "PushoutPresentation": lambda fam, w: PushoutPresentation(fam, ()),
    "ap_contains": lambda fam, w: ap_contains(fam, (0, 0)),
    "ap_is_unit": lambda fam, w: ap_is_unit(fam, (0, 0)),
    "ap_is_atom": lambda fam, w: ap_is_atom(fam, (0, 0)),
    "ap_length_set": lambda fam, w: ap_length_set(fam, (0, 0)),
    "ap_generators": lambda fam, w: ap_generators(fam),
    "ap_length_system": lambda fam, w: ap_length_system(fam),
    "ap_union_k": lambda fam, w: ap_union_k(fam, 1),
    "ap_materialize": lambda fam, w: ap_materialize(fam, 10),
    "word_to_text": word_to_text,
    "parse_word": lambda fam, w: parse_word(fam, ""),
    "parse_tuple": lambda fam, w: parse_tuple(fam, "1"),
    "raw_alphabet": lambda fam, w: oracles.raw_alphabet(fam),
    "congruence_moves": lambda fam, w: oracles.congruence_moves(fam, ()),
    "reduced_words_upto": lambda fam, w: reduced_words_upto(fam, 1),
    "fp_brute_force_lengths": lambda fam, w: fp_brute_force_lengths(fam, w, 2),
    "union_k_oracle": lambda fam, w: union_k_oracle(fam, 1),
    "system_oracle": lambda fam, w: system_oracle(fam, 1),
    "tuple_mul": lambda fam, w: oracles.tuple_mul(fam, (0, 0), (0, 0)),
    "product_system_oracle": lambda fam, w: oracles.product_system_oracle(fam, False),
}


@pytest.mark.parametrize("consumer", FAMILY_CONSUMERS)
@pytest.mark.parametrize("family", [5, None, (one(), c2())], ids=["int", "none", "tuple-of-monoids"])
def test_family_arguments_must_be_families(one_c2, consumer, family):
    # the word is over a real family, so only the family argument is wrong
    w = reduce(one_c2, [(0, 1)])
    with pytest.raises(ValidationError, match="is not a Family"):
        FAMILY_CONSUMERS[consumer](family, w)


def test_every_family_parameter_is_in_the_table():
    # a new public callable taking a family, in any module, must be listed
    # above, so that its check is tested
    assert {name for name, _ in annotated_parameters(Family)} == set(FAMILY_CONSUMERS)


@pytest.mark.parametrize("consumer", WORD_CONSUMERS)
@pytest.mark.parametrize(
    "members,letter,message",
    [
        ((one(), c2(), m31()), (2, 1), "member index 2 out of range"),
        ((one(), m31()), (1, 2), "element 2 out of range for member 1"),
    ],
    ids=["member-out-of-range", "element-out-of-range"],
)
def test_a_word_over_another_family_is_refused(one_c2, consumer, members, letter, message):
    other = reduce(Family(members), [letter])
    with pytest.raises(ValidationError, match=message):
        ReducedWord(one_c2, other.letters)
    with pytest.raises(ValidationError, match="over another family"):
        WORD_CONSUMERS[consumer](one_c2, other)


@pytest.mark.parametrize("consumer", WORD_CONSUMERS)
def test_a_list_of_letters_is_frozen_into_a_tuple(one_c2, consumer):
    letters = [(1, 1)]
    w = ReducedWord(one_c2, letters)
    assert type(w.letters) is tuple and w.letters == (Letter(1, 1),)
    assert all(type(lt) is Letter for lt in w.letters)
    letters.append((0, 0))
    assert w.letters == (Letter(1, 1),)
    WORD_CONSUMERS[consumer](one_c2, w)


@pytest.mark.parametrize("consumer", WORD_CONSUMERS)
def test_equal_letters_over_another_family_are_another_word(one_c2, consumer):
    built = fp_mul(one_c2, reduce(one_c2, [(0, 1)]), one_c2.eps)
    by_hand = ReducedWord(one_c2, ((0, 1),))
    assert by_hand == built and hash(by_hand) == hash(built)
    WORD_CONSUMERS[consumer](one_c2, by_hand)
    twin = ReducedWord(Family(one_c2.members), ((0, 1),))
    assert twin.letters == built.letters
    assert twin != built and hash(twin) != hash(built)
    with pytest.raises(ValidationError, match="over another family"):
        WORD_CONSUMERS[consumer](one_c2, twin)


def test_a_words_repr_shows_its_letters_only(one_c2):
    w = fp_mul(one_c2, reduce(one_c2, [(0, 1), (1, 1)]), reduce(one_c2, [(0, 1)]))
    twin = ReducedWord(Family(one_c2.members), w.letters)
    want = "ReducedWord(letters=(Letter(mon=0, elem=1), Letter(mon=1, elem=1), Letter(mon=0, elem=1)))"
    assert repr(w) == repr(twin) == want


def test_a_copy_keeps_its_family_and_a_deepcopy_or_pickle_carries_a_copy(one_c2):
    w = fp_mul(one_c2, reduce(one_c2, [(0, 1), (1, 1)]), reduce(one_c2, [(0, 1)]))
    clone = copy.copy(w)
    assert clone == w and clone.family is one_c2
    assert fp_length_set(one_c2, clone) == fp_length_set(one_c2, w)
    for far in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert far.letters == w.letters and far.family is not one_c2 and far != w
        with pytest.raises(ValidationError, match="over another family"):
            fp_length_set(one_c2, far)
        assert fp_length_set(far.family, far) == fp_length_set(one_c2, w)


@pytest.mark.parametrize(
    "index_word,message",
    [
        ((0, 1.0), "is not an integer"),
        ((True,), "is not an integer"),
        (("a", 0), "is not an integer"),
        ((0, 2), "out of range"),
        ((-1,), "out of range"),
    ],
)
def test_index_words_must_hold_member_indices(one_c2, index_word, message):
    with pytest.raises(ValidationError, match=message):
        gamma_admissible(one_c2, index_word)


def test_bounded_length_system(two_ones):
    system = fp_length_system_bounded(two_ones, 2)
    assert system.truncated_at == 2
    assert set(system.entries) == {
        eps_finite({1}),
        eps_finite({2}),
        eps_cofinite(2),
        eps_cofinite(3),
        eps_cofinite(4),
    }
    no_non_units = fp_length_system_bounded(Family([c2(), c2()]), 3)
    assert len(no_non_units) == 0
    single = fp_length_system_bounded(Family([one(), h2()]), 1)
    assert set(single.entries) == {eps_finite({1}), eps_cofinite(2)}


def test_fp_union_examples(two_ones):
    assert fp_union_k(two_ones, 2) == eps_cofinite(2)
    assert fp_union_k(two_ones, 1) == eps_finite({1})
    assert fp_union_k(Family([c2(), c2()]), 1) == EMPTY
    # only the empty word has length 0, as in every atomic monoid
    for fam in (two_ones, Family([c2(), c2()]), Family([one(), m31(), c2()])):
        assert fp_union_k(fam, 0) == ZERO_ONLY
    with pytest.raises(ValidationError):
        fp_union_k(two_ones, -1)


def test_fp_union_k_charges_the_lookups_of_its_new_rows_before_any_work(two_ones, monkeypatch):
    # row j of the DP makes j - 1 lookups, so rows 1..k make k(k-1)/2
    monkeypatch.delenv("ATOMON_BUDGET", raising=False)
    with pytest.raises(SearchBudgetExceededError):
        fp_union_k(two_ones, 10**6)
    assert two_ones._totals == []
    monkeypatch.setenv("ATOMON_BUDGET", "10")
    fp_union_k(two_ones, 5)  # 0 + 1 + 2 + 3 + 4 lookups
    with pytest.raises(SearchBudgetExceededError, match="budget of 10 "):
        fp_union_k(Family([one(), one()]), 6)
    fp_union_k(two_ones, 6)  # only row 6 is new: 5 lookups
    with pytest.raises(SearchBudgetExceededError):
        fp_union_k(two_ones, 8)  # rows 7 and 8: 6 + 7 lookups
    assert len(two_ones._totals) == 7


@pytest.mark.parametrize(
    "order",
    [range(9), range(8, -1, -1), [3, 3, 1, 6, 6, 2, 8, 0, 8, 5]],
    ids=["ascending", "descending", "repeated"],
)
def test_union_k_rows_kept_on_a_family_give_the_answers_of_a_fresh_one(order):
    members = (one(), m31(), c2())
    fam = Family(members)
    assert fam._pooled == [] and fam._totals == [] and fam._pair_sums == {}
    for k in order:
        assert fp_union_k(fam, k) == fp_union_k(Family(members), k)
    assert len(fam._totals) == len(fam._pooled) == max(order) + 1


WARM_MEMBERS = (one(), m31(), c2(), h2())


def _random_letters(members, n, seed):
    """n letters of a reduced word over members: no identity letter, and no
    two adjacent letters from one member."""
    rng = random.Random(seed)
    letters = []
    for _ in range(n):
        i = rng.choice([i for i in range(len(members)) if not letters or letters[-1].mon != i])
        m = members[i]
        letters.append(Letter(i, rng.choice([x for x in range(m.size) if x != m.identity])))
    return tuple(letters)


def _dp_answers(fam, n):
    """fp_union_k, fp_length_system_bounded and fp_length_set on fam, each
    at a size drawn from n."""
    word = ReducedWord(fam, _random_letters(fam.members, 5 * n, n))
    return fp_union_k(fam, n), fp_length_system_bounded(fam, 1 + n % 4), fp_length_set(fam, word)


@pytest.mark.parametrize(
    "order",
    [range(9), range(8, -1, -1), [3, 3, 1, 6, 6, 2, 8, 0, 8, 5]],
    ids=["ascending", "descending", "repeated"],
)
def test_a_warm_family_gives_the_answers_of_a_fresh_one(order):
    # the three DPs share the family's pair sums, in any order of calls
    fam = Family(WARM_MEMBERS)
    for n in order:
        assert _dp_answers(fam, n) == _dp_answers(Family(WARM_MEMBERS), n)
    assert fam._pair_sums
    for copied in (copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        assert copied._pair_sums == fam._pair_sums
        for n in order:
            assert _dp_answers(copied, n) == _dp_answers(Family(WARM_MEMBERS), n)


@pytest.fixture
def sums(monkeypatch):
    """The Minkowski sums made while the test runs, one entry per call,
    counted under every name the library calls the primitive by."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return eps_minkowski_sum(a, b)

    for module in (lengths, coproduct):
        monkeypatch.setattr(module, "eps_minkowski_sum", counted)
    return calls


def test_union_k_sums_each_distinct_pair_once(sums):
    # the DP makes 1,128 additions at k = 48; all but a few repeat a pair
    fam = Family([one(), m31(), c2()])
    fp_union_k(fam, 48)
    assert 0 < len(sums) <= 8 and len(fam._pair_sums) == len(sums)


def test_union_matches_word_enumeration():
    fam = Family([one(), m31()])
    for k in range(1, 5):
        direct = EMPTY
        for w in reduced_words_upto(fam, k):
            ls = fp_length_set(fam, w)
            if k in ls:
                direct = eps_union(direct, ls)
        assert fp_union_k(fam, k) == direct


def test_coprojection(one_c2):
    assert coprojection(one_c2, 0, 1).letters == (Letter(0, 1),)
    assert coprojection(one_c2, 0, 0) == one_c2.eps
    u = coprojection(one_c2, 1, 1)
    assert fp_is_unit(one_c2, u)


def test_couniversal(one_c2):
    induced = Cocone(one_c2, [identity_hom(one()), new_hom(c2(), one(), (0, 0))])
    w = reduce(one_c2, [(0, 1), (1, 1), (0, 1)])
    assert induced(w) == 2  # a*1*a = 0
    assert induced(one_c2.eps) == 0
    for i, member in enumerate(one_c2.members):
        for x in range(member.size):
            assert induced(coprojection(one_c2, i, x)) == induced.homs[i].map[x]


def test_couniversal_respects_reduction(one_c2):
    # evaluating a raw word letterwise agrees with evaluating its normal form
    phi = [identity_hom(one()), new_hom(c2(), one(), (0, 0))]
    induced = Cocone(one_c2, phi)
    rng = random.Random(9)
    alphabet = [(i, x) for i, m in enumerate(one_c2.members) for x in range(m.size)]
    target = one()
    for _ in range(80):
        raw = [rng.choice(alphabet) for _ in range(rng.randint(0, 5))]
        direct = target.identity
        for i, x in raw:
            direct = target.mul(direct, phi[i].map[x])
        assert induced(reduce(one_c2, raw)) == direct


def test_a_cocone_checks_its_homs_when_built_not_when_called(one_c2, monkeypatch):
    phi = [identity_hom(one()), new_hom(c2(), one(), (0, 0))]
    for sources in (phi[::-1], phi[:1], phi + phi[:1]):
        with pytest.raises(ValidationError, match="one hom per family member"):
            Cocone(one_c2, sources)
    induced = Cocone(one_c2, phi)
    assert induced.homs == tuple(phi)
    # two cocones of equal homs are two values: no monoid table is compared
    # or hashed
    assert induced != Cocone(one_c2, phi) and induced in {induced}
    words = list(reduced_words_upto(one_c2, 3))
    # the letterwise fold into the target, as in the test above
    target = one()
    expected = [functools.reduce(target.mul, (phi[i].map[x] for i, x in w.letters), target.identity) for w in words]

    def refuse(*args):
        raise AssertionError("the homs were checked again")

    monkeypatch.setattr(coproduct, "_arrows", refuse)
    assert [induced(w) for w in words] == expected


def test_a_cocone_refuses_a_word_over_another_family(one_c2):
    induced = Cocone(one_c2, [identity_hom(one()), new_hom(c2(), one(), (0, 0))])
    twin = reduce(Family(one_c2.members), [(0, 1)])
    with pytest.raises(ValidationError, match="over another family"):
        induced(twin)
    with pytest.raises(ValidationError, match="not a ReducedWord"):
        induced([(0, 1)])


def test_brute_force_examples(two_ones):
    w = reduce(two_ones, [(0, 2)])
    assert fp_brute_force_lengths(two_ones, w, 5) == {2, 3, 4, 5}
    assert fp_brute_force_lengths(two_ones, reduce(two_ones, [(0, 1)]), 5) == {1}
    assert fp_brute_force_lengths(two_ones, two_ones.eps, 5) == {0}


def test_brute_force_budget(two_ones):
    w = reduce(two_ones, [(0, 2), (1, 2), (0, 2)])
    with pytest.raises(SearchBudgetExceededError):
        fp_brute_force_lengths(two_ones, w, 10, budget=5)


def test_brute_force_budget_stops_a_search_that_never_ends(two_ones):
    # a word of lengths {2, 3, ...}: every level is non-empty, and after a few
    # levels every state has been expanded, so only meeting states again is
    # charged
    w = reduce(two_ones, [(0, 2)])
    with pytest.raises(SearchBudgetExceededError):
        fp_brute_force_lengths(two_ones, w, 10**8, budget=1000)


@pytest.mark.parametrize(
    "names,raw,least",
    [
        ((one, c2), [(0, 2), (1, 1), (0, 1)], 54),
        ((one, c2, m31), [(2, 1), (1, 1), (0, 1)], 40),
    ],
)
def test_brute_force_budget_is_pinned(names, raw, least):
    # the least budgets that let the search finish: a state's first
    # expansion costs one per candidate and each later level that meets it
    # costs one, so how products are merged must not change which states
    # the search expands, or how often it meets them
    fam = Family([make() for make in names])
    w = reduce(fam, raw)
    fp_brute_force_lengths(fam, w, 10, budget=least)
    with pytest.raises(SearchBudgetExceededError):
        fp_brute_force_lengths(fam, w, 10, budget=least - 1)


@pytest.mark.parametrize("names", [("one", "c2"), ("one", "h2"), ("one", "c2", "m31")])
def test_brute_force_expands_each_state_once(names, monkeypatch):
    # every state met on any level is joined with each candidate exactly
    # once per call, and the answers match the formula
    fam = Family([atomic_fixtures()[n] for n in names])
    pools, joined = [], []
    candidate_atoms, join = oracles._candidate_atoms, oracles._join

    def pool_of(family, letters):
        pools.append(candidate_atoms(family, letters))
        joined.clear()
        return pools[-1]

    def counted(family, x, y):
        joined.append(x)
        return join(family, x, y)

    monkeypatch.setattr(oracles, "_candidate_atoms", pool_of)
    monkeypatch.setattr(oracles, "_join", counted)
    for w in reduced_words_upto(fam, 3):
        lengths_found = fp_brute_force_lengths(fam, w, 10)
        assert lengths_found == set(fp_length_set(fam, w).members_upto(10))
        if pools:
            assert set(collections.Counter(joined).values()) <= {len(pools[-1])}
            pools.clear()


def test_formula_matches_search(one_c2):
    for w in reduced_words_upto(one_c2, 3):
        formula = set(fp_length_set(one_c2, w).members_upto(10))
        assert formula == fp_brute_force_lengths(one_c2, w, 10)


def test_check_property_bounded():
    # the laws over the words of at most three letters hold in a free
    # product of groups, and fail once a member is not a group
    for fam, group in ((Family([c2(), c2()]), True), (Family([one(), c2()]), False)):
        words = list(reduced_words_upto(fam, 3))
        mul, is_unit = functools.partial(fp_mul, fam), functools.partial(fp_is_unit, fam)
        for prop in ("acyclic", "unit_cancellative", "cancellative"):
            assert oracles.laws_hold(prop, words, mul, is_unit) is group


def test_free_product_gains_atoms():
    fam = Family([c2(), one()])
    atom_words = [w for w in reduced_words_upto(fam, 3) if fp_is_atom(fam, w)]
    assert len(atom_words) == 4  # a, u*a, a*u, u*a*u
    assert len(atom_words) > 1  # strictly more than the members contribute


def test_empty_class_words_have_only_unit_letters(one_c2):
    import itertools

    from atomon import units

    alphabet = [(i, x) for i, m in enumerate(one_c2.members) for x in range(m.size)]
    for length in range(1, 4):
        for raw in itertools.product(alphabet, repeat=length):
            if reduce(one_c2, raw) == one_c2.eps:
                assert all(x in units(one_c2.members[i]) for i, x in raw)


ATOMIC = list(atomic_fixtures().values())
FAMILIES = st.lists(st.sampled_from(ATOMIC), min_size=1, max_size=3).map(Family)


@settings(max_examples=60)
@given(FAMILIES, st.integers(1, 6))
def test_union_k_dp_matches_the_composition_oracle(fam, k):
    assert fp_union_k(fam, k) == union_k_oracle(fam, k)


@settings(max_examples=60)
@given(FAMILIES, st.integers(1, 3))
def test_system_dp_matches_the_index_word_oracle(fam, blocks):
    assert fp_length_system_bounded(fam, blocks).entries == system_oracle(fam, blocks)


JOIN_FAMILIES = [Family([h2(), c2()]), Family([one(), m31(), c2()])]


@st.composite
def reduced_letters(draw, fam):
    """A reduced word of up to 8 letters, drawn letter by letter."""
    alphabet = [Letter(i, x) for i, m in enumerate(fam.members) for x in range(m.size) if x != m.identity]
    letters = ()
    for _ in range(draw(st.integers(0, 8))):
        letters += (draw(st.sampled_from([lt for lt in alphabet if not letters or lt.mon != letters[-1].mon])),)
    return letters


@settings(max_examples=300)
@given(st.sampled_from(JOIN_FAMILIES).flatmap(lambda f: st.tuples(st.just(f), reduced_letters(f), reduced_letters(f))))
def test_join_matches_reducing_the_concatenation(case):
    fam, x, y = case
    assert _join(fam, x, y) == reduce(fam, x + y).letters
    assert fp_mul(fam, ReducedWord(fam, x), ReducedWord(fam, y)).letters == _join(fam, x, y)


TWIN_MEMBERS = (one(), c2())
TWINS = (Family(TWIN_MEMBERS), Family(TWIN_MEMBERS))  # two families on the same member objects


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(TWINS), reduced_letters(TWINS[0])), min_size=1, max_size=6))
def test_words_are_equal_exactly_when_family_and_letters_are(drawn):
    # ReducedWord writes its own ==, != and hash: they must agree with the
    # family object and the letters, whatever the order of the comparison
    words = [ReducedWord(fam, letters) for fam, letters in drawn]
    for v in words:
        clone = copy.copy(v)
        assert clone == v and hash(clone) == hash(v) and v != v.letters
        for w in words:
            same = v.family is w.family and v.letters == w.letters
            assert (v == w) is (not v != w) is same
            assert not same or hash(v) == hash(w)
    # a dict or set keyed by one family's words misses the other family's twins
    for fam, other in (TWINS, TWINS[::-1]):
        keyed = {w: w for w in words if w.family is fam}
        assert all(copy.copy(w) in keyed and w in set(keyed) for w in keyed)
        twins = [ReducedWord(other, w.letters) for w in keyed]
        assert not any(t in keyed or t in set(keyed) for t in twins)


def _letter_parts(fam, w):
    return [length_set(fam.members[i], x) for i, x in w.letters if x not in units(fam.members[i])]


def test_long_word_length_set_needs_few_sums(sums):
    # equal letter length sets are summed by doubling: O(d·log n) Minkowski
    # sums for n non-unit letters with d distinct length sets, not n - 1
    fam = Family([one(), m31(), c2()])
    w = reduce(fam, _random_letters(fam.members, 400, 7))
    assert len(w.letters) == 400
    parts = _letter_parts(fam, w)
    n, d = len(parts), len(set(parts))
    fold = functools.reduce(eps_minkowski_sum, parts, ZERO_ONLY)
    sums.clear()
    assert fp_length_set(fam, w) == fold
    assert n > 200 and 0 < len(sums) <= 2 * d * math.ceil(math.log2(n))


def test_a_second_long_word_reuses_the_doubles_of_the_first(sums):
    # the doubles 2^i·A of a letter length set A are kept on the family, so
    # a second word over the same letter length sets sums fewer new pairs
    fam = Family([one(), m31(), c2()])
    first, second = (reduce(fam, _random_letters(fam.members, 400, seed)) for seed in (7, 8))
    assert set(_letter_parts(fam, first)) == set(_letter_parts(fam, second))
    fp_length_set(fam, first)
    made_first = len(sums)
    fp_length_set(fam, second)
    assert 0 < len(sums) - made_first < made_first


MEMO_FAMILY = Family([h2(), m31(), c2(), one()])


@st.composite
def call_orders(draw):
    """Up to five reduced words over MEMO_FAMILY, in a drawn order with
    repeats."""
    words = [ReducedWord(MEMO_FAMILY, letters) for letters in draw(st.lists(reduced_letters(MEMO_FAMILY), min_size=1, max_size=5))]
    return [words[i] for i in draw(st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=12))]


@settings(max_examples=200)
@given(call_orders())
def test_length_sets_summed_once_per_family_match_a_fresh_sum(words):
    # MEMO_FAMILY lives across every example, so its pair sums fill up
    for w in words:
        parts = [length_set(MEMO_FAMILY.members[i], x) for i, x in w.letters if x not in units(MEMO_FAMILY.members[i])]
        # a non-empty word of units only is not a product of atoms
        want = EMPTY if w.letters and not parts else eps_sum_many(parts)
        assert fp_length_set(MEMO_FAMILY, w) == want


def _reduce_per_letter(fam, word):
    """reduce letter by letter: each raw letter through _check_letter, then
    the stack pass."""
    stack = []
    for raw in word:
        i, x = fam._check_letter(raw)
        member = fam.members[i]
        while x != member.identity:
            if stack and stack[-1].mon == i:
                x = member.mul(stack.pop().elem, x)
                continue
            stack.append(Letter(i, x))
            break
    return tuple(stack)


def _check_word_per_letter(fam, word):
    """The reduced-word check letter by letter: _check_letter on each letter,
    then the position loop."""
    letters = tuple(map(fam._check_letter, word))
    for pos, (i, x) in enumerate(letters):
        if x == fam.members[i].identity:
            raise ValidationError(f"letter {pos} of the word is the identity of member {i}")
        if pos and letters[pos - 1].mon == i:
            raise ValidationError(f"letters {pos - 1} and {pos} of the word are both from member {i}")
    return letters


def _outcome(compute):
    """The letters computed, or the type and message of what was raised."""
    try:
        letters = compute()
    except Exception as exc:
        return type(exc), str(exc)
    assert all(type(lt) is Letter for lt in letters)
    return letters


def _generator(word):
    yield from word


@st.composite
def raw_words(draw):
    """A family, a word of up to 8 letters and the container to pass it in.
    Half the words hold only well-formed letters (canonical Letters and
    plain pairs, so identities and same-member neighbours still occur)."""
    fam = draw(st.sampled_from(JOIN_FAMILIES))
    index = st.integers(-1, 4)
    pairs = st.sampled_from(sorted(fam._letters))
    letter = st.one_of(st.sampled_from(list(fam._letters.values())), pairs)
    if draw(st.booleans()):
        component = st.one_of(index, st.sampled_from([True, False, 1.0, 0.0]))
        letter = st.one_of(
            letter,
            st.builds(Letter, index, index),
            st.tuples(component, component),
            st.lists(index, max_size=3).map(tuple),
            st.lists(index, max_size=3),
            st.none(),
        )
    return fam, draw(st.lists(letter, max_size=8)), draw(st.sampled_from([list, tuple, _generator]))


@settings(max_examples=400)
@given(raw_words())
@example((JOIN_FAMILIES[0], [(0, True)], _generator))
@example((JOIN_FAMILIES[1], [(1, 1), (1, 1.0)], tuple))
def test_bulk_letter_check_matches_the_per_letter_check(case):
    fam, word, container = case
    assert _outcome(lambda: reduce(fam, container(word)).letters) == _outcome(lambda: _reduce_per_letter(fam, word))
    want = _outcome(lambda: _check_word_per_letter(fam, word))
    assert _outcome(lambda: fp_mul(fam, ReducedWord(fam, container(word)), fam.eps).letters) == want
    assert _outcome(lambda: fp_mul(fam, fam.eps, ReducedWord(fam, container(word))).letters) == want


@pytest.mark.parametrize("fam", JOIN_FAMILIES)
def test_letter_tables_agree_with_the_members(fam):
    assert all(type(lt) is Letter and lt == key for key, lt in fam._letters.items())
    for i, m in enumerate(fam.members):
        assert sorted(x for j, x in fam._letters if j == i) == list(range(m.size))
        assert {x for j, x in fam._identities if j == i} == {m.identity}
        assert {x for j, x in fam._units if j == i} == set(units(m))


# the families above that hold c2, whose unit u is its own inverse
UNIT_FAMILIES = [Family([one(), c2()]), Family([c2(), c2()]), Family([c2(), one()]), *JOIN_FAMILIES, MEMO_FAMILY]


@st.composite
def inflated_words(draw):
    """A family of UNIT_FAMILIES and a raw word of up to ten pieces, each a
    letter, an identity letter, a letter split in two (y, z for the letter
    y·z) or a unit pair u·u⁻¹."""
    fam = draw(st.sampled_from(UNIT_FAMILIES))
    word = []
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(fam.members) - 1))
        m = fam.members[i]
        element = st.integers(0, m.size - 1)
        kind = draw(st.sampled_from(["letter", "identity", "split", "unit pair"]))
        if kind == "letter":
            word.append((i, draw(element)))
        elif kind == "identity":
            word.append((i, m.identity))
        elif kind == "split":
            word += [(i, draw(element)), (i, draw(element))]
        else:
            u = draw(st.sampled_from(sorted(units(m))))
            word += [(i, u), (i, next(v for v in units(m) if m.mul(u, v) == m.identity))]
    return fam, word


def _congruence_fixpoint(fam, word):
    """The word after congruence moves, any one at a time, until none applies."""
    letters = tuple(word)
    while moves := oracles.congruence_moves(fam, letters):
        letters = moves[0]
    return letters


@settings(max_examples=300)
@given(inflated_words(), st.sampled_from([None, (1, True), (True, 1), (0, 1.0), (1, 1.0)]), st.integers(0, 20))
@example((UNIT_FAMILIES[0], [(1, 1), (1, 1)]), (1, True), 1)
@example((UNIT_FAMILIES[3], [(0, 1), (0, 2)]), (0, 1.0), 2)
def test_reduce_is_the_fixpoint_of_the_congruence_moves(case, bad, at):
    fam, word = case
    if bad is None:
        assert reduce(fam, word).letters == _congruence_fixpoint(fam, word)
    else:
        # a letter holding True or 1.0 is refused wherever it stands
        with pytest.raises(ValidationError, match="two integers"):
            reduce(fam, word[:at] + [bad] + word[at:])


def test_well_formed_long_words_skip_the_per_letter_check(monkeypatch):
    # structural guard on the fast path: a well-formed word never reaches
    # _check_letter, which only names the culprit of a malformed one
    fam = Family([one(), m31(), c2()])
    rng = random.Random(11)
    letters = []
    for _ in range(2000):
        i = rng.choice([i for i in range(3) if not letters or letters[-1][0] != i])
        m = fam.members[i]
        letters.append((i, rng.choice([x for x in range(m.size) if x != m.identity])))
    homs = [canonical_to_terminal(m) for m in fam.members]
    calls = []
    check_letter = Family._check_letter

    def counted(self, letter):
        calls.append(letter)
        return check_letter(self, letter)

    monkeypatch.setattr(Family, "_check_letter", counted)
    w = reduce(fam, letters)
    assert w.letters == tuple(letters)
    assert fp_mul(fam, w, w) == fp_mul(fam, ReducedWord(fam, tuple(letters)), w)
    fp_length_set(fam, w)
    fp_is_unit(fam, w)
    Cocone(fam, homs)(w)
    assert calls == []
    with pytest.raises(ValidationError, match="two integers"):
        reduce(fam, letters + [(1, 1.0)])
    assert calls
