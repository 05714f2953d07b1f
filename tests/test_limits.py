import itertools

import pytest

from atomon import (
    Congruence,
    PushoutPresentation,
    Family,
    Reachability,
    ReducedWord,
    ap_materialize,
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
    new_monoid,
    pullback,
    pushout_eq_bounded,
    pushout_presentation,
    quotient,
    reduce,
    terminal,
    units,
)
from atomon import limits, verify
from atomon.errors import SourceMismatchError, TargetMismatchError, ValidationError
from atomon.core import _closure, _tabulate
from atomon.fixtures import atomic_fixtures, c2, cyclic, h2, m31, one, zero
from atomon.oracles import all_partitions, is_congruence, reduced_words_upto
from atomon.product import _limit


def test_initial_and_terminal():
    assert initial().size == 1
    t = terminal()
    assert t.size == 3
    assert atoms(t) == {1}
    assert units(t) == {0}
    assert t.mul(1, 1) == 2 and t.mul(2, 1) == 2 and t.mul(1, 2) == 2


def test_the_one_element_monoid_is_not_terminal():
    # the empty product of the limit recipe is the one-element monoid, which
    # has no atom for a source's atoms to go to: terminal() needs its own atom
    for source in (one(), h2()):
        assert list(enumerate_homs(source, initial())) == []


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


def test_an_equalizer_keeps_the_order_and_names_of_its_source():
    # g3 comes before g and g2 here, so the breadth-first order from 1,
    # (1, g, g2, g3), is not the source's
    power = (0, 3, 1, 2)
    m = new_monoid(("1", "g3", "g", "g2"), [[power.index(min(i + j, 3)) for j in power] for i in power], 0)
    e_monoid, e = equalizer(identity_hom(m), identity_hom(m))
    assert e.map == (0, 1, 2, 3)
    assert (e_monoid.names, e_monoid.table) == (m.names, m.table)


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
            for leader in all_partitions(m.size)
            if is_congruence(m, leader) and all(leader[a] == leader[b] for a, b in seeds)
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


@pytest.mark.parametrize(
    "m, pair, names, projection",
    [
        (m31(), (2, 3), ("1", "g", "g2"), (0, 1, 2, 2)),
        (h2(), (1, 2), ("1", "a", "0"), (0, 1, 1, 2)),
    ],
)
def test_quotient_names_table_and_projection(m, pair, names, projection):
    # classes are indexed by their least element and named after it
    cong = congruence_closure(m, [pair])
    q_monoid, proj = quotient(m, cong)
    assert cong.classes() == [frozenset(x for x in range(m.size) if proj.map[x] == q) for q in range(len(names))]
    assert q_monoid.names == names
    assert q_monoid.table == ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    assert q_monoid.identity == 0
    assert proj.map == projection
    assert proj.target is q_monoid


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


def test_pushout_eq_checks_its_words():
    pres = pushout_presentation(identity_hom(one()), identity_hom(one()))
    eps = pres.family.eps
    with pytest.raises(ValidationError, match="not a ReducedWord"):
        pushout_eq_bounded(pres, "ab", eps, 1)
    with pytest.raises(ValidationError, match="over another family"):
        pushout_eq_bounded(pres, ReducedWord(Family([one(), one()]), ((0, 1),)), eps, 1)
    with pytest.raises(ValidationError, match="over another family"):
        pushout_eq_bounded(pres, eps, reduce(Family(pres.family.members), ()), 1)


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


@pytest.mark.parametrize(
    "pairs", [[(True, 2)], [(1.5, 2)], [(9, 2)], [(1, -1)], [(1, 2, 3)], [(1,)], [5], 5, [[1, 2]], [None]]
)
def test_congruence_closure_refuses_non_element_pairs(pairs):
    with pytest.raises(ValidationError):
        congruence_closure(one(), pairs)


def _equalizer_keeping_every_atom(f, g):
    h = f.source
    e_monoid, (e,) = _limit((h,), lambda x: x in atoms(h) or f.map[x] == g.map[x])
    return e_monoid, e


def _pullback_keeping_every_atom_pair(f, g):
    h = f.source
    p, (p1, p2) = _limit((h, g.source), lambda x, y: x in atoms(h) or f.map[x] == g.map[y])
    return p, p1, p2


@pytest.mark.parametrize(
    "name, wrong",
    [("equalizer", _equalizer_keeping_every_atom), ("pullback", _pullback_keeping_every_atom_pair)],
)
def test_universal_properties_catch_a_limit_that_ignores_the_arrows_on_atoms(monkeypatch, name, wrong):
    # the wrong limits keep atoms the arrows send apart, so their legs are no cone
    monkeypatch.setattr(verify, name, wrong)
    assert verify.cmd_verify("universal-properties").mismatches


@pytest.mark.parametrize(
    "wrong, message",
    [
        (lambda pres, w1, w2, depth: Reachability.EQUAL, "are EQUAL, but a cocone separates them"),
        (lambda pres, w1, w2, depth: pushout_eq_bounded(pres, w1, w2, min(depth, 1)), "['unknown', 'unknown']"),
    ],
)
def test_universal_properties_catch_a_wrong_pushout_answer(monkeypatch, wrong, message):
    # an EQUAL for words a cocone separates, and a search that stops after
    # one round whatever the depth
    monkeypatch.setattr(verify, "pushout_eq_bounded", wrong)
    assert any(message in m for m in verify.cmd_verify("universal-properties").mismatches)


def test_limit_oracle_refuses_an_apex_with_two_factorizations():
    # h2 x h2 over h2 alone: a cone from one sending a to a lifts to (a,a) and (a,b)
    mat, (p1, p2) = ap_materialize(Family([h2(), h2()]), 60)
    outcomes = list(verify._limit_up(mat, (p1,), (h2(),), lambda cone: True))
    assert "the cone [(0, 1, 3)] from one factors 2 times" in outcomes
    # with both legs it is the product, and every cone factors once
    assert not any(verify._limit_up(mat, (p1, p2), (h2(), h2()), lambda cone: True))


def test_a_hand_built_congruence_is_checked_and_quotients():
    cong = Congruence(h2(), [0, 1, 1, 3])  # a = b
    assert cong.leader == (0, 1, 1, 3) and cong == congruence_closure(h2(), [(1, 2)])
    q_monoid, proj = quotient(h2(), cong)
    assert q_monoid.names == ("1", "a", "0") and proj.map == (0, 1, 1, 2)


@pytest.mark.parametrize(
    "carrier, leader, message",
    [
        (5, (0,), "is not a FiniteMonoid"),
        (h2(), (0, 1, 2), "leader must have length 4"),
        (h2(), (0, 1, 2, 3, 3), "leader must have length 4"),
        (h2(), 5, "is not a sequence"),
        (h2(), (0, 1, 2, True), "leader True is not an integer"),
        (h2(), (0, 1, 2, 4), r"leader 4 out of range \[0, 4\)"),
        (h2(), (0, 2, 2, 3), "leader 2 of element 1 is not the least element of its class"),
        (h2(), (0, 1, 3, 3), "leader 3 of element 2 is not the least element of its class"),
        (h2(), (0, 1, 1, 0), "is not a congruence"),
        (one(), (0, 0, 2), "is not a congruence"),
    ],
)
def test_congruence_refuses_what_is_no_canonical_congruence(carrier, leader, message):
    with pytest.raises(ValidationError, match=message):
        Congruence(carrier, leader)


def test_quotient_refuses_a_congruence_on_another_monoid():
    with pytest.raises(ValidationError, match="on another monoid"):
        quotient(h2(), congruence_closure(one(), [(1, 2)]))
    with pytest.raises(ValidationError, match="not a Congruence"):
        quotient(h2(), (0, 1, 1, 3))


_FAM = Family([one(), one()])
_W = ((0, 1),)


@pytest.mark.parametrize(
    "family, pairs, message",
    [
        (5, (), "is not a Family"),
        ((one(), one()), (), "is not a Family"),
        (_FAM, 5, "relation pairs 5 are not a sequence"),
        (_FAM, {(_W, _W)}, "are not a sequence"),
        (_FAM, ((_W,),), "is not a pair of words"),
        (_FAM, ((_W, _W, _W),), "is not a pair of words"),
        (_FAM, ([_W, _W],), "is not a pair of words"),
        (_FAM, ((_W, 5),), "relation side 5 is not a sequence of letters"),
        (_FAM, (("ab", _W),), "relation side 'ab' is not a sequence of letters"),
        (_FAM, (None,), "None is not a pair of words"),
    ],
)
def test_pushout_presentation_refuses_forged_inputs(family, pairs, message):
    with pytest.raises(ValidationError, match=message):
        PushoutPresentation(family, pairs)


@pytest.mark.parametrize(
    "lhs, rhs, message",
    [
        (((0, 99),), ((1, 0),), "element 99 out of range for member 0"),
        (((0, 1),), ((2, 0),), "member index 2 out of range"),
        (((0, True),), ((1, 0),), "does not hold two integers"),
        (((0, 1),), (5,), "letter 5 is not a"),
    ],
)
def test_pushout_presentation_checks_its_relation_letters_when_built(lhs, rhs, message):
    with pytest.raises(ValidationError, match=message):
        PushoutPresentation(_FAM, ((lhs, rhs),))


def test_a_hand_built_pushout_presentation_matches_the_built_one():
    built = pushout_presentation(identity_hom(one()), identity_hom(one()))
    by_hand = PushoutPresentation(built.family, [(list(l), iter(r)) for l, r in built.relation_pairs])
    assert by_hand == built
    w1, w2 = reduce(built.family, [(0, 1)]), reduce(built.family, [(1, 1)])
    assert pushout_eq_bounded(by_hand, w1, w2, 1) is Reachability.EQUAL
    with pytest.raises(ValidationError, match="not a PushoutPresentation"):
        pushout_eq_bounded(5, w1, w2, 1)


def test_pushout_eq_runs_no_reduce(monkeypatch):
    # one -> h2 <- one, both legs a -> a: (a@0)(b@1) and (b@0)(a@1) meet at depth 2
    f = new_hom(one(), h2(), (0, 1, 3))
    pres = pushout_presentation(f, f)
    w1, w2 = reduce(pres.family, ((0, 1), (1, 2))), reduce(pres.family, ((0, 2), (1, 1)))

    def refuse(*args):
        raise AssertionError("reduce called")

    monkeypatch.setattr(limits, "reduce", refuse)
    assert pushout_eq_bounded(pres, w1, w2, 1) is Reachability.UNKNOWN
    assert pushout_eq_bounded(pres, w1, w2, 2) is Reachability.EQUAL


def test_rewrites_are_the_reduced_concatenations():
    f = identity_hom(h2())
    pres = pushout_presentation(f, f)
    fam = pres.family
    # both ways, the equal-sided identity relation included: its empty
    # pattern matches everywhere and exercises the empty replacement
    rules = pres.relation_pairs + tuple((r, l) for l, r in pres.relation_pairs)
    for w in reduced_words_upto(fam, 3):
        word = w.letters
        expected = [
            reduce(fam, word[:start] + replacement + word[start + len(pattern) :]).letters
            for pattern, replacement in rules
            for start in range(len(word) - len(pattern) + 1)
            if word[start : start + len(pattern)] == pattern
        ]
        assert list(limits._rewrites(fam, rules, word)) == expected


def test_pushout_presentation_stores_its_sides_reduced():
    fam = Family([one(), h2()])
    # a·a = 0 in one, the identity of member 1 drops, and b·a = 0 in h2
    pres = PushoutPresentation(fam, [([(0, 1), (1, 0), (0, 1)], [(1, 2), (1, 1), (0, 0)])])
    assert pres.relation_pairs == ((((0, 2),), ((1, 3),)),)


# The equalizer, the pullback and the materialized product, each with its own
# tuple picker and closure: the reference that product._limit must
# reproduce, element order and names included.


def _submonoid_by_hand(members, gens, cap=None):
    def mul(s, t):
        return tuple(m.mul(x, y) for m, x, y in zip(members, s, t))

    found = {tuple(m.identity for m in members): None}
    _closure(list(found), sorted(set(gens)), mul, found, cap)
    elements = list(found)
    names = ["(" + ",".join(m.names[x] for m, x in zip(members, t)) + ")" for t in elements]
    apex = _tabulate(elements, mul, names, elements[0])
    return apex, tuple(new_hom(apex, m, tuple(t[i] for t in elements)) for i, m in enumerate(members))


def _equalizer_by_hand(f, g):
    h = f.source
    gens = [a for a in atoms(h) if f.map[a] == g.map[a]]
    gens += [u for u in units(h) if f.map[u] == g.map[u]]
    found = {h.identity: None}
    _closure([h.identity], gens, h.mul, found)
    elements = sorted(found)
    sub = _tabulate(elements, h.mul, [h.names[x] for x in elements], h.identity)
    return sub, (new_hom(sub, h, tuple(elements)),)


def _pullback_by_hand(f, g):
    h, k = f.source, g.source
    gens = [(x, y) for x in atoms(h) for y in atoms(k) if f.map[x] == g.map[y]]
    gens += [(x, y) for x in units(h) for y in units(k) if f.map[x] == g.map[y]]
    return _submonoid_by_hand((h, k), gens)


def _product_by_hand(members, cap):
    unit_tuples = frozenset(itertools.product(*(sorted(units(m)) for m in members)))
    atom_tuples = frozenset(itertools.product(*(sorted(atoms(m)) for m in members)))
    return _submonoid_by_hand(members, unit_tuples | atom_tuples, cap)


def _drawn(apex, legs):
    return apex.names, apex.table, apex.identity, [leg.map for leg in legs]


def test_the_limits_match_their_tuple_pickers_by_hand():
    objects = [*atomic_fixtures().values(), cyclic(3, 4), cyclic(5, 3), cyclic(2, 6), cyclic(2, 2)]
    homs = {(s, t): list(enumerate_homs(a, b)) for (s, a), (t, b) in itertools.product(enumerate(objects), repeat=2)}
    built = 0
    for parallel in homs.values():
        for f, g in itertools.product(parallel, repeat=2):
            e_monoid, e = equalizer(f, g)
            assert _drawn(e_monoid, (e,)) == _drawn(*_equalizer_by_hand(f, g))
            built += 1
    for (s, t), (r, u) in itertools.product(homs, repeat=2):
        if u != t:
            continue
        for f, g in itertools.product(homs[s, t], homs[r, u]):
            p, p1, p2 = pullback(f, g)
            assert _drawn(p, (p1, p2)) == _drawn(*_pullback_by_hand(f, g))
            built += 1
    for pair in itertools.product(objects, repeat=2):
        cap = pair[0].size * pair[1].size
        assert _drawn(*ap_materialize(Family(pair), cap)) == _drawn(*_product_by_hand(pair, cap))
        built += 1
    assert built == 1268


def test_the_unchecked_builds_pass_the_checked_constructors():
    # every hom, congruence and presentation that a construction builds
    # unchecked is what the checked constructor builds from the same fields,
    # and every coequalizer keeps the class of each element (its docstring)
    objects = [*atomic_fixtures().values(), cyclic(3, 4), cyclic(5, 3), cyclic(2, 6)]
    homs = {(a, b): list(enumerate_homs(a, b)) for a, b in itertools.product(objects, repeat=2)}
    built = [identity_hom(m) for m in objects] + [canonical_to_terminal(m) for m in objects]
    built += [compose(g, f) for (a, b), fs in homs.items() for c in objects for f in fs for g in homs[b, c]]
    for pair in itertools.product(objects, repeat=2):
        built += ap_materialize(Family(pair), pair[0].size * pair[1].size)[1]
    coequalizers = spans = 0
    for (a, k), parallel in homs.items():
        for f, g in itertools.product(parallel, repeat=2):
            coequalizers += 1
            built += equalizer(f, g)[1:]
            q_monoid, q = coequalizer(f, g)
            assert check_property(q_monoid, "atomic") and q.atom_preserving
            assert all(classify(k, x) is classify(q_monoid, q.map[x]) for x in range(k.size))
            built.append(q)
        for (b, c), others in homs.items():
            for f, g in itertools.product(parallel, others):
                if c == k:
                    built += pullback(f, g)[1:]
                if b == a:
                    p = pushout_presentation(f, g)
                    assert p == PushoutPresentation(p.family, p.relation_pairs)
                    spans += 1
    for m in objects:
        for seeds in [[]] + [[pair] for pair in itertools.combinations(range(m.size), 2)]:
            cong = congruence_closure(m, seeds)
            assert cong == Congruence(m, cong.leader)
            built.append(quotient(m, cong)[1])
    assert all(h == new_hom(h.source, h.target, h.map) for h in built)
    assert (len(built), coequalizers, spans) == (2659, 119, 489)
