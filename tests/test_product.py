import itertools
from collections import Counter

import pytest

from atomon import product
from atomon import (
    EMPTY,
    Family,
    ZERO_ONLY,
    ap_contains,
    ap_generators,
    ap_is_atom,
    ap_is_unit,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
    ap_universal,
    check_property,
    eps_cofinite,
    eps_finite,
    identity_hom,
    length_set,
    length_system,
    new_hom,
    union_k,
    units,
)
from atomon.errors import (
    CapExceededError,
    NotAtomPreservingError,
    NotInProductError,
    SourceMismatchError,
    ValidationError,
)
from atomon.fixtures import c2, h2, m31, named_fixtures, one, zero
from atomon.fixtures import random_monoid
from atomon.oracles import product_system_oracle, tuple_mul
from test_lengths import cyclic


@pytest.fixture
def two_ones():
    return Family([one(), one()])


def test_generators_examples(two_ones):
    gens = ap_generators(two_ones)
    assert gens.unit_tuples == {(0, 0)}
    assert gens.atom_tuples == {(1, 1)}

    gens = ap_generators(Family([one(), c2()]))
    assert gens.unit_tuples == {(0, 0), (0, 1)}
    assert gens.atom_tuples == frozenset()

    gens = ap_generators(Family([zero()]))
    assert gens.unit_tuples == {(0,)}
    assert gens.atom_tuples == frozenset()


def test_contains_examples(two_ones):
    assert ap_contains(two_ones, (2, 2))
    assert not ap_contains(two_ones, (2, 1))  # lengths {>=2} vs {1}
    assert ap_contains(two_ones, (0, 0))
    assert not ap_contains(two_ones, (1, 0))  # mixed atom/unit tuple


def test_materialize_examples(two_ones):
    mat, _ = ap_materialize(two_ones, 100)
    assert mat.size == 3
    assert check_property(mat, "atomic")

    group, _ = ap_materialize(Family([c2(), c2()]), 100)
    assert group.size == 4
    assert units(group) == frozenset(range(4))

    with pytest.raises(CapExceededError):
        ap_materialize(Family([one(), one(), one()]), 2)
    with pytest.raises(ValidationError):
        ap_materialize(two_ones, 0)


def test_materialize_element_order_and_names(two_ones):
    # breadth-first from the identity tuple over the sorted generator tuples
    mat, projections = ap_materialize(two_ones, 100)
    assert mat.names == ("(1,1)", "(a,a)", "(0,0)")
    assert [p.map for p in projections] == [(0, 1, 2), (0, 1, 2)]
    mat, projections = ap_materialize(Family([h2(), m31()]), 100)
    assert mat.names == ("(1,1)", "(a,g)", "(b,g)", "(0,g2)", "(0,g3)")
    assert [p.map for p in projections] == [(0, 1, 2, 3, 3), (0, 1, 1, 2, 3)]


@pytest.mark.parametrize(
    "members",
    [(one(), one()), (h2(), m31()), (one(), one(), one()), (c2(), c2(), c2())],
    ids=["one*one", "h2*m31", "one*one*one", "c2*c2*c2"],
)
def test_materialize_cap_boundary(members):
    fam = Family(list(members))
    size = ap_materialize(fam, 100)[0].size
    assert ap_materialize(fam, size)[0].size == size
    with pytest.raises(CapExceededError):
        ap_materialize(fam, size - 1)


def test_unit_and_atom_membership(two_ones):
    assert ap_is_unit(two_ones, (0, 0))
    assert not ap_is_atom(two_ones, (0, 0))
    assert ap_is_atom(two_ones, (1, 1))
    assert not ap_is_unit(two_ones, (2, 2)) and not ap_is_atom(two_ones, (2, 2))
    with pytest.raises(NotInProductError):
        ap_is_unit(two_ones, (1, 0))


@pytest.mark.parametrize("names", [("one", "c2", "m31"), ("h2", "m31"), ("c2", "c2")])
def test_unit_and_atom_tests_match_the_generator_tuples(names):
    fam = Family([named_fixtures()[n] for n in names])
    gens = ap_generators(fam)
    for t in itertools.product(*(range(m.size) for m in fam.members)):
        if not ap_contains(fam, t):
            with pytest.raises(NotInProductError):
                ap_is_unit(fam, t)
            with pytest.raises(NotInProductError):
                ap_is_atom(fam, t)
            continue
        assert ap_is_unit(fam, t) == (t in gens.unit_tuples)
        assert ap_is_atom(fam, t) == (t in gens.atom_tuples)


@pytest.mark.parametrize(
    "t,message",
    [
        (("a", 0), "is not an integer"),
        ((0, True), "is not an integer"),
        ((1.0, 0), "is not an integer"),
        ((None, 0), "is not an integer"),
        ((-1, 0), "out of range"),
        ((0, 5), "out of range"),
        ((3, 0), "out of range"),
        ((0,), "2 components"),
        ((0, 0, 0), "2 components"),
        ((0, 2), "component 1 out of range"),
    ],
)
def test_tuples_must_hold_one_index_per_member(t, message):
    fam = Family([one(), c2()])
    for check in (ap_contains, ap_is_unit, ap_is_atom, ap_length_set):
        with pytest.raises(ValidationError, match=message):
            check(fam, t)


def test_length_set_examples(two_ones):
    assert ap_length_set(two_ones, (2, 2)) == eps_cofinite(2)
    assert ap_length_set(Family([m31(), one()]), (3, 2)) == eps_cofinite(3)
    assert ap_length_set(two_ones, (0, 0)) == ZERO_ONLY
    with pytest.raises(NotInProductError):
        ap_length_set(two_ones, (2, 1))


def test_length_system_examples(two_ones):
    assert set(ap_length_system(two_ones).entries) == {
        ZERO_ONLY,
        eps_finite({1}),
        eps_cofinite(2),
    }
    assert set(ap_length_system(Family([c2(), one()])).entries) == {ZERO_ONLY}
    assert set(ap_length_system(Family([zero()])).entries) == {ZERO_ONLY}
    assert ZERO_ONLY not in ap_length_system(two_ones, nonzero_only=True).entries


@pytest.mark.parametrize(
    "members",
    [
        (cyclic(3, 4), cyclic(2, 6), cyclic(5, 3)),
        (cyclic(4, 4), cyclic(3, 4)),
        (random_monoid(9), random_monoid(34), cyclic(5, 3)),
        (m31(), cyclic(3, 4), h2(), one()),
        (cyclic(2, 6),),
    ],
)
def test_length_system_fold_matches_every_choice(members):
    fam = Family(members)
    for nonzero in (False, True):
        assert ap_length_system(fam, nonzero).entries == product_system_oracle(fam, nonzero)


def test_union_examples(two_ones):
    assert ap_union_k(two_ones, 1) == eps_finite({1})
    assert ap_union_k(Family([one(), m31()]), 3) == eps_cofinite(3)
    assert ap_union_k(two_ones, 0) == ZERO_ONLY
    assert ap_union_k(Family([c2(), one()]), 1) == EMPTY


def test_universal_examples(two_ones):
    phis = [identity_hom(one()), identity_hom(one())]
    t = ap_universal(phis, 2)
    assert t == (2, 2) and ap_contains(two_ones, t)
    assert ap_universal(phis, 0) == tuple(m.identity for m in two_ones.members)

    fold = new_hom(h2(), one(), (0, 1, 1, 2))
    assert ap_universal([fold, fold], 2) == (1, 1)

    with pytest.raises(SourceMismatchError):
        ap_universal([identity_hom(one()), identity_hom(c2())], 0)
    with pytest.raises(NotAtomPreservingError):
        ap_universal([new_hom(one(), one(), (0, 2, 2))], 1)


@pytest.mark.parametrize("w", [True, 1.0, 3, -1, "1"])
def test_universal_refuses_non_element_indices(w):
    with pytest.raises(ValidationError):
        ap_universal([identity_hom(one())], w)


def test_formula_matches_materialized_tables():
    families = [
        Family([one(), one()]),
        Family([one(), c2()]),
        Family([h2(), m31()]),
        Family([one(), one(), one()]),
    ]
    for fam in families:
        mat, projections = ap_materialize(fam, 60)
        index = {tuple(p.map[i] for p in projections): i for i in range(mat.size)}
        for t, i in index.items():
            assert ap_length_set(fam, t) == length_set(mat, i)
        assert ap_length_system(fam).entries == length_system(mat).entries
        for k in range(7):
            assert ap_union_k(fam, k) == union_k(mat, k)
        for t in itertools.product(*(range(m.size) for m in fam.members)):
            assert ap_contains(fam, t) == (t in index)


def test_unit_conjugates_of_atom_tuples_are_atom_tuples():
    fam = Family([h2(), m31()])
    gens = ap_generators(fam)
    for u1 in gens.unit_tuples:
        for a in gens.atom_tuples:
            for u2 in gens.unit_tuples:
                assert tuple_mul(fam, tuple_mul(fam, u1, a), u2) in gens.atom_tuples


def test_projections_preserve_atoms():
    for members in ([one(), one()], [h2(), m31()], [one(), c2(), m31()], [c2(), c2()]):
        fam = Family(members)
        mat, projections = ap_materialize(fam, 60)
        assert [p.target for p in projections] == members
        assert all(p.source is mat and p.atom_preserving for p in projections)
        # the projections are the components of the element tuples
        for i in range(mat.size):
            t = tuple(p.map[i] for p in projections)
            assert ap_contains(fam, t)
            assert mat.names[i] == "(" + ",".join(m.names[x] for m, x in zip(members, t)) + ")"


@pytest.mark.parametrize("query", [ap_contains, ap_is_unit, ap_is_atom, ap_length_set])
def test_an_element_query_checks_its_tuple_once_and_intersects_at_most_once(monkeypatch, query):
    fam = Family([one(), c2(), m31()])
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in ("_check_tuple", "length_set", "eps_intersect"):
        monkeypatch.setattr(product, name, counted(name, getattr(product, name)))
    for t in itertools.product(*(range(m.size) for m in fam.members)):
        calls.clear()
        try:
            query(fam, t)
        except NotInProductError:
            pass
        # at most one intersection of the three component length sets
        assert calls["_check_tuple"] == 1 and calls["length_set"] <= 3 and calls["eps_intersect"] <= 2, (t, calls)
