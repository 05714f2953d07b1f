"""Property tests: the generator-based table algorithms against the
exhaustive algorithms they replaced, which live on as verify oracles."""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomon.core import _closure, enumerate_homs, new_hom, new_monoid, submonoid_closure
from atomon.errors import CapExceededError, NonAssociativeError, NotMultiplicativeError, ValidationError
from atomon.fixtures import named_fixtures, random_monoid
from atomon.limits import congruence_closure
from atomon.verify import _exhaustive_homs, _ijk_scan

FIXTURES = list(named_fixtures().values()) + [random_monoid(seed) for seed in range(20)]

PROPERTY = settings(deadline=None, database=None, max_examples=150)


def monogenic(n):
    return new_monoid([f"g{i}" for i in range(n)], [[min(i + j, n - 1) for j in range(n)] for i in range(n)], 0)


def full_transformation_3():
    """T_3, which needs three generators: two for its group of units, one more."""
    maps = list(itertools.product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[tuple(g[v] for v in f)] for g in maps] for f in maps]
    return new_monoid(["t" + "".join(map(str, f)) for f in maps], table, index[(0, 1, 2)])


def null_monoid(n):
    """1, n-2 atoms and a zero; every product of two non-units is the zero."""
    table = [[x if y == 0 else y if x == 0 else n - 1 for y in range(n)] for x in range(n)]
    return new_monoid([str(x) for x in range(n)], table, 0)


LARGER = [full_transformation_3(), null_monoid(8)]


def outcome(names, table, identity):
    """None when new_monoid accepts the table, else the reported triple."""
    try:
        new_monoid(names, table, identity)
    except NonAssociativeError as exc:
        return exc.triple
    return None


@st.composite
def tables_with_identity(draw):
    """A random table of order <= 6 whose identity row and column are right,
    so that only associativity can fail (and almost always does)."""
    n = draw(st.integers(1, 6))
    e = draw(st.integers(0, n - 1))
    table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table, e


@st.composite
def perturbed_fixtures(draw):
    """A fixture table with one entry off the identity row and column changed."""
    m = draw(st.sampled_from([m for m in FIXTURES + LARGER if m.size > 1]))
    others = [x for x in range(m.size) if x != m.identity]
    x, y = draw(st.sampled_from(others)), draw(st.sampled_from(others))
    table = [list(row) for row in m.table]
    table[x][y] = draw(st.sampled_from([v for v in range(m.size) if v != m.table[x][y]]))
    return m, table


@PROPERTY
@given(tables_with_identity())
def test_light_test_matches_the_scan_on_random_tables(case):
    table, e = case
    assert outcome([str(x) for x in range(len(table))], table, e) == _ijk_scan(table)


@PROPERTY
@given(perturbed_fixtures())
def test_light_test_matches_the_scan_on_perturbed_fixtures(case):
    m, table = case
    assert outcome(m.names, table, m.identity) == _ijk_scan(table)


@PROPERTY
@given(st.sampled_from(FIXTURES), st.sampled_from(FIXTURES), st.booleans())
def test_hom_search_matches_the_exhaustive_oracle(source, target, atom_preserving_only):
    expected = [
        (mp, keep) for mp, keep in _exhaustive_homs(source, target) if keep or not atom_preserving_only
    ]
    homs = enumerate_homs(source, target, atom_preserving_only)
    assert [(h.map, h.atom_preserving) for h in homs] == expected


@PROPERTY
@given(st.sampled_from(FIXTURES), st.sampled_from(FIXTURES), st.data())
def test_hom_check_reports_the_first_failing_pair(source, target, data):
    mp = [data.draw(st.integers(0, target.size - 1)) for _ in range(source.size)]
    mp[source.identity] = target.identity
    failing = [
        (x, y)
        for x in range(source.size)
        for y in range(source.size)
        if mp[source.mul(x, y)] != target.mul(mp[x], mp[y])
    ]
    try:
        new_hom(source, target, mp)
    except NotMultiplicativeError as exc:
        assert failing and exc.pair == failing[0]
    else:
        assert not failing


def brute_force_congruence(m, pairs):
    """Leader (least member) of each class of the congruence generated by
    the pairs: a worklist in which every merge enqueues its translates by
    every element."""
    label = list(range(m.size))
    queue = deque(pairs)
    while queue:
        x, y = queue.popleft()
        a, b = sorted((label[x], label[y]))
        if a == b:
            continue
        label = [a if lab == b else lab for lab in label]
        for z in range(m.size):
            queue.append((m.mul(z, x), m.mul(z, y)))
            queue.append((m.mul(x, z), m.mul(y, z)))
    return tuple(label)


@st.composite
def seeded_monoids(draw):
    m = draw(st.one_of(st.sampled_from(FIXTURES + LARGER), st.integers(1, 40).map(monogenic)))
    element = st.integers(0, m.size - 1)
    return m, draw(st.lists(st.tuples(element, element), max_size=3))


@PROPERTY
@given(seeded_monoids())
def test_congruence_closure_matches_the_all_elements_worklist(case):
    m, pairs = case
    assert congruence_closure(m, pairs).leader == brute_force_congruence(m, pairs)


@PROPERTY
@given(
    st.one_of(
        st.sampled_from(FIXTURES + LARGER),
        st.integers(0, 500).map(random_monoid),
        st.integers(1, 40).map(monogenic),
    )
)
def test_stored_generators_generate_the_monoid(m):
    assert m.identity not in m.generators
    assert submonoid_closure(m, m.generators) == list(range(m.size))


def test_generating_sets_of_known_size():
    t3, null8 = LARGER
    assert len(t3.generators) == 3
    assert len(null8.generators) == 6  # every atom is needed
    assert len(monogenic(30).generators) == 1


def test_closure_stops_at_the_first_element_past_the_cap():
    t3, _ = LARGER
    for m in (monogenic(30), t3):
        found = {m.identity: None}
        _closure([m.identity], m.generators, m.mul, found, cap=m.size)
        assert len(found) == m.size
        for cap in (1, m.size // 2, m.size - 1):
            found = {m.identity: None}
            with pytest.raises(CapExceededError):
                _closure([m.identity], m.generators, m.mul, found, cap)
            assert len(found) == cap + 1


@pytest.mark.parametrize("entry", [1.5, True, "1", None])
def test_non_integer_entries_are_refused(entry):
    with pytest.raises(ValidationError, match="is not an integer"):
        new_monoid(("1", "x"), ((0, 1), (1, entry)), 0)
    with pytest.raises(ValidationError, match="is not an integer"):
        new_monoid(("1", "x"), ((0, 1), (1, 1)), entry)
    one = named_fixtures()["one"]
    with pytest.raises(ValidationError, match="is not an integer"):
        new_hom(one, one, (0, entry, 2))
