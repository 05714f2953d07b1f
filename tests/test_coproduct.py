import random

import pytest

from atomon import (
    EMPTY,
    EPS_WORD,
    Family,
    Letter,
    ZERO_ONLY,
    coprojection,
    eps_cofinite,
    eps_finite,
    fp_brute_force_lengths,
    fp_check_property_bounded,
    fp_couniversal,
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
    reduced_words_upto,
)
from atomon.errors import (
    NotAtomicError,
    PreconditionError,
    SearchBudgetExceededError,
)
from atomon.fixtures import c2, h2, m31, one, sl2
from atomon.lengths import eps_union


@pytest.fixture
def two_ones():
    return Family([one(), one()])


@pytest.fixture
def one_c2():
    return Family([one(), c2()])


def test_family_requires_atomic_members():
    with pytest.raises(NotAtomicError):
        Family([one(), sl2()])


def test_reduce_examples(two_ones, one_c2):
    assert reduce(two_ones, [(0, 1), (0, 1)]).letters == (Letter(0, 2),)
    assert reduce(two_ones, [(0, 0)]) == EPS_WORD
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
    assert fp_mul(two_ones, a, EPS_WORD) == a
    u = reduce(one_c2, [(1, 1)])
    assert fp_mul(one_c2, u, u) == EPS_WORD


def test_unit_and_atom_recognition(one_c2):
    assert fp_is_unit(one_c2, EPS_WORD)
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
    assert fp_length_set(two_ones, EPS_WORD) == ZERO_ONLY
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
    assert coprojection(one_c2, 0, 0) == EPS_WORD
    u = coprojection(one_c2, 1, 1)
    assert fp_is_unit(one_c2, u)


def test_couniversal(one_c2):
    phi = [identity_hom(one()), new_hom(c2(), one(), (0, 0))]
    w = reduce(one_c2, [(0, 1), (1, 1), (0, 1)])
    assert fp_couniversal(one_c2, phi, w) == 2  # a*1*a = 0
    assert fp_couniversal(one_c2, phi, EPS_WORD) == 0
    for i, member in enumerate(one_c2.members):
        for x in range(member.size):
            assert fp_couniversal(one_c2, phi, coprojection(one_c2, i, x)) == phi[i].map[x]


def test_couniversal_respects_reduction(one_c2):
    # evaluating a raw word letterwise agrees with evaluating its normal form
    phi = [identity_hom(one()), new_hom(c2(), one(), (0, 0))]
    rng = random.Random(9)
    alphabet = [(i, x) for i, m in enumerate(one_c2.members) for x in range(m.size)]
    target = one()
    for _ in range(80):
        raw = [rng.choice(alphabet) for _ in range(rng.randint(0, 5))]
        direct = target.identity
        for i, x in raw:
            direct = target.mul(direct, phi[i].map[x])
        assert fp_couniversal(one_c2, phi, reduce(one_c2, raw)) == direct


def test_brute_force_examples(two_ones):
    w = reduce(two_ones, [(0, 2)])
    assert fp_brute_force_lengths(two_ones, w, 5) == {2, 3, 4, 5}
    assert fp_brute_force_lengths(two_ones, reduce(two_ones, [(0, 1)]), 5) == {1}
    assert fp_brute_force_lengths(two_ones, EPS_WORD, 5) == {0}


def test_brute_force_budget(two_ones):
    w = reduce(two_ones, [(0, 2), (1, 2), (0, 2)])
    with pytest.raises(SearchBudgetExceededError):
        fp_brute_force_lengths(two_ones, w, 10, budget=5)


def test_formula_matches_search(one_c2):
    for w in reduced_words_upto(one_c2, 3):
        formula = set(fp_length_set(one_c2, w).members_upto(10))
        assert formula == fp_brute_force_lengths(one_c2, w, 10)


def test_check_property_bounded():
    groups = Family([c2(), c2()])
    for prop in ("acyclic", "unit_cancellative", "cancellative"):
        assert fp_check_property_bounded(groups, prop, 3)
    with pytest.raises(PreconditionError):
        fp_check_property_bounded(Family([one(), c2()]), "unit_cancellative", 2)


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
            if reduce(one_c2, raw) == EPS_WORD:
                assert all(x in units(one_c2.members[i]) for i, x in raw)
