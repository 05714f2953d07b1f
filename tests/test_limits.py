import pytest

from atomon import (
    Reachability,
    atoms,
    canonical_to_terminal,
    check_property,
    classify,
    coequalizer,
    compose,
    congruence_closure,
    enumerate_homs,
    equalizer,
    identity_hom,
    initial,
    new_hom,
    pullback,
    pushout_eq_bounded,
    pushout_presentation,
    quotient,
    reduce,
    terminal,
    units,
)
from atomon.errors import SourceMismatchError, TargetMismatchError
from atomon.fixtures import c2, h2, m31, one, zero


def test_initial_and_terminal():
    assert initial().size == 1
    t = terminal()
    assert t.size == 3
    assert atoms(t) == {1}
    assert units(t) == {0}
    assert t.mul(1, 1) == 2 and t.mul(2, 1) == 2 and t.mul(1, 2) == 2


def test_equalizer_of_equal_maps_is_whole_monoid():
    f = identity_hom(h2())
    e_monoid, e = equalizer(f, f)
    assert e_monoid.size == h2().size


def test_equalizer_can_be_trivial_even_with_agreeing_elements():
    h = h2()
    f = identity_hom(h)
    swap = new_hom(h, h, (0, 2, 1, 3))
    e_monoid, e = equalizer(f, swap)
    # f(0) = swap(0) = 0, yet 0 is outside: only the generated submonoid counts
    assert e_monoid.size == 1
    assert e.map == (0,)


def test_equalizer_collapse_example():
    h = h2()
    f = identity_hom(h)
    g = new_hom(h, h, (0, 1, 1, 3))
    e_monoid, e = equalizer(f, g)
    assert e_monoid.size == 3
    assert [h.names[v] for v in e.map] == ["1", "a", "0"]
    assert atoms(e_monoid) == {e.map.index(1)}


def test_equalizer_guards():
    with pytest.raises(SourceMismatchError):
        equalizer(identity_hom(h2()), identity_hom(one()))
    with pytest.raises(TargetMismatchError):
        equalizer(canonical_to_terminal(h2()), identity_hom(h2()))


def test_pullback_diagonal():
    f = identity_hom(one())
    p, p1, p2 = pullback(f, f)
    assert p.size == 3
    assert p1.map == p2.map


def test_pullback_element_order_and_names():
    # breadth-first from (1,1) over the sorted agreeing pairs
    fold = new_hom(h2(), one(), (0, 1, 1, 2))
    p, p1, p2 = pullback(fold, fold)
    assert p.names == ("(1,1)", "(a,a)", "(a,b)", "(b,a)", "(b,b)", "(0,0)")
    assert p1.map == (0, 1, 1, 2, 2, 3)
    assert p2.map == (0, 1, 2, 1, 2, 3)
    assert p1.target == h2() and p2.target == h2()


def test_pullback_against_terminal_recovers_source():
    f = canonical_to_terminal(h2())
    p, p1, p2 = pullback(f, identity_hom(one()))
    assert p.size == 4
    assert compose(f, p1).map == compose(identity_hom(one()), p2).map
    assert check_property(p, "atomic")


def test_pullback_of_unit_maps():
    t = one()
    f = new_hom(c2(), t, (0, 0))
    p, p1, p2 = pullback(f, f)
    # unit pairs {(1,1),(1,u),(u,1),(u,u)} generate the whole 2x2 group
    assert p.size == 4
    assert units(p) == frozenset(range(4))


def test_coequalizer_of_equal_maps():
    f = identity_hom(h2())
    q_monoid, q = coequalizer(f, f)
    assert q_monoid.size == h2().size
    assert sorted(q.map) == list(range(h2().size))


def test_coequalizer_merges_atoms():
    f = new_hom(one(), h2(), (0, 1, 3))
    g = new_hom(one(), h2(), (0, 2, 3))
    q_monoid, q = coequalizer(f, g)
    assert q_monoid.size == 3
    assert q.map == (0, 1, 1, 2)
    assert check_property(q_monoid, "atomic")
    assert q.atom_preserving


def test_coequalizer_with_trivial_source():
    k = h2()
    f = new_hom(zero(), k, (0,))
    q_monoid, q = coequalizer(f, f)
    assert q_monoid.size == k.size


def test_coequalizer_preserves_classes():
    f = new_hom(one(), h2(), (0, 1, 3))
    g = new_hom(one(), h2(), (0, 2, 3))
    q_monoid, q = coequalizer(f, g)
    for x in range(h2().size):
        assert classify(h2(), x) is classify(q_monoid, q.map[x])


def _all_partitions(n):
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for lead in range(used + 1):
            grow(prefix + [lead], max(used, lead + 1))

    grow([], 0)
    return out


def _is_congruence(m, leader):
    for x in range(m.size):
        for y in range(m.size):
            if leader[x] != leader[y]:
                continue
            for a in range(m.size):
                if leader[m.mul(a, x)] != leader[m.mul(a, y)]:
                    return False
                if leader[m.mul(x, a)] != leader[m.mul(y, a)]:
                    return False
    return True


def test_congruence_closure_is_minimal():
    for m, seeds in [
        (h2(), [(1, 2)]),
        (m31(), [(1, 2)]),
        (one(), [(1, 2)]),
        (h2(), [(0, 0)]),
    ]:
        cong = congruence_closure(m, seeds)
        computed = cong.leader
        compatible = [
            leader
            for leader in _all_partitions(m.size)
            if _is_congruence(m, leader) and all(leader[a] == leader[b] for a, b in seeds)
        ]
        # the closure is itself compatible and refines every other candidate
        assert any(
            all((computed[x] == computed[y]) == (other[x] == other[y]) for x in range(m.size) for y in range(m.size))
            for other in compatible
        )
        for other in compatible:
            for x in range(m.size):
                for y in range(m.size):
                    if computed[x] == computed[y]:
                        assert other[x] == other[y]


def test_quotient_of_full_congruence():
    m = h2()
    cong = congruence_closure(m, [(0, 3)])
    q_monoid, proj = quotient(m, cong)
    assert q_monoid.size == 1  # 1 = 0 collapses everything


def test_pushout_presentation_examples():
    f = identity_hom(one())
    pres = pushout_presentation(f, f)
    assert len(pres.relation_pairs) == 3
    fam = pres.family
    lhs, rhs = pres.relation_pairs[1]
    assert reduce(fam, lhs).letters == ((0, 1),)
    assert reduce(fam, rhs).letters == ((1, 1),)

    z = zero()
    empty_pres = pushout_presentation(new_hom(z, one(), (0,)), new_hom(z, one(), (0,)))
    assert all(
        reduce(empty_pres.family, lhs) == reduce(empty_pres.family, rhs) == reduce(empty_pres.family, ())
        for lhs, rhs in empty_pres.relation_pairs
    )

    with pytest.raises(SourceMismatchError):
        pushout_presentation(identity_hom(one()), identity_hom(h2()))


def test_pushout_eq_examples():
    f = identity_hom(one())
    pres = pushout_presentation(f, f)
    w1 = reduce(pres.family, [(0, 1)])
    w2 = reduce(pres.family, [(1, 1)])
    assert pushout_eq_bounded(pres, w1, w2, 1) is Reachability.EQUAL
    assert pushout_eq_bounded(pres, w1, w1, 0) is Reachability.EQUAL

    z = zero()
    free = pushout_presentation(new_hom(z, one(), (0,)), new_hom(z, one(), (0,)))
    v1 = reduce(free.family, [(0, 1)])
    v2 = reduce(free.family, [(1, 1)])
    assert pushout_eq_bounded(free, v1, v2, 5) is Reachability.UNKNOWN


def test_pushout_eq_monotone_and_symmetric():
    f = identity_hom(one())
    pres = pushout_presentation(f, f)
    w1 = reduce(pres.family, [(0, 1), (1, 1)])
    w2 = reduce(pres.family, [(1, 2)])
    results = [pushout_eq_bounded(pres, w1, w2, d) for d in range(5)]
    flipped = [pushout_eq_bounded(pres, w2, w1, d) for d in range(5)]
    assert results == flipped
    seen_equal = False
    for r in results:
        if seen_equal:
            assert r is Reachability.EQUAL
        seen_equal = seen_equal or (r is Reachability.EQUAL)


def test_equalizer_universal_property_enumerated():
    h = h2()
    f = identity_hom(h)
    g = new_hom(h, h, (0, 1, 1, 3))
    e_monoid, e = equalizer(f, g)
    image = {v: i for i, v in enumerate(e.map)}
    for w in (zero(), one(), c2(), h2()):
        for alpha in enumerate_homs(w, h):
            if compose(f, alpha) != compose(g, alpha):
                continue
            tau_map = [image[alpha.map[x]] for x in range(w.size)]
            tau = new_hom(w, e_monoid, tau_map)
            assert tau.atom_preserving
            assert compose(e, tau) == alpha
