"""Property tests: the generator-based table algorithms against the
exhaustive algorithms they replaced, which live on as verify oracles."""

import itertools
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomon.core import _LAWS, _closure, atoms, check_property, enumerate_homs, new_hom, new_monoid, units
from atomon.errors import CapExceededError, NonAssociativeError, NotMultiplicativeError, ValidationError
from atomon.fixtures import cyclic, named_fixtures, random_monoid
from atomon.limits import congruence_closure
from atomon.oracles import atoms_by_pairs, exhaustive_homs, ijk_scan, laws_hold, units_by_pairs

FIXTURES = list(named_fixtures().values()) + [random_monoid(seed) for seed in range(20)]

PROPERTY = settings(max_examples=150)


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


def perturb(draw, m):
    """m's table with one entry off the identity row and column changed."""
    others = [x for x in range(m.size) if x != m.identity]
    x, y = draw(st.sampled_from(others)), draw(st.sampled_from(others))
    table = [list(row) for row in m.table]
    table[x][y] = draw(st.sampled_from([v for v in range(m.size) if v != m.table[x][y]]))
    return table


@st.composite
def perturbed_fixtures(draw):
    """A fixture table with one entry off the identity row and column changed."""
    m = draw(st.sampled_from([m for m in FIXTURES + LARGER if m.size > 1]))
    return m, perturb(draw, m)


def with_corrupted_block(base, late, powers):
    """The monogenic monoid of order ``base`` (x·y = min(x + y, base - 1))
    plus a nilpotent block {b1, b2} with b1·b1 = b2 and one corrupted entry,
    b1·b2 = b2 where the zero belongs. The identity comes first, then the
    powers g^i for i in ``powers`` and the block, the block first unless
    ``late``. Only the triples starting with b1 fail."""
    zero = ("g", base - 1)

    def mul(p, q):
        if p == ("g", 0) or q == ("g", 0):
            return q if p == ("g", 0) else p
        if p[0] == q[0] == "g":
            return ("g", min(p[1] + q[1], base - 1))
        return ("b", 2) if p == ("b", 1) and q[0] == "b" else zero

    rest = [("g", i) for i in powers]
    block = [("b", 1), ("b", 2)]
    labels = [("g", 0)] + (rest + block if late else block + rest)
    index = {lab: i for i, lab in enumerate(labels)}
    return [[index[mul(p, q)] for q in labels] for p in labels]


def numerical(k, cap):
    """The submonoid of ({0..cap}, min(x + y, cap)) generated by k and k + 1."""
    values = sorted({min(a * k + b * (k + 1), cap) for a in range(cap // k + 1) for b in range(cap // k + 1)})
    index = {v: i for i, v in enumerate(values)}
    return new_monoid([str(v) for v in values], [[index[min(x + y, cap)] for y in values] for x in values], 0)


@st.composite
def tables_with_a_small_fault(draw):
    """An order 30-60 table whose fault touches few rows, so that most
    closure steps of the failure path have few suspect rows. Either a
    corrupted nilpotent block, first or last, beside shuffled monogenic
    powers; or one perturbed entry in a cyclic monoid C(i, p), a null monoid,
    or a numerical monoid <k, k+1> cut to 30-60 elements, relabelled at
    random so the fault lands before, among or after the other rows. The
    first failing row is found in all three ways the suspect rule allows: as
    a row of some B_g, as a row i with i·j1 in B_g outside every B_g, and by
    the whole column pass at a step j1·g with j1 in B_g (see
    ``_first_nonassociative``). Returns the table and its identity."""
    kind = draw(st.sampled_from(["block", "cyclic", "null", "numerical"]))
    if kind == "block":
        base = draw(st.integers(28, 58))
        return with_corrupted_block(base, draw(st.booleans()), draw(st.permutations(range(1, base)))), 0
    if kind == "cyclic":
        index = draw(st.integers(0, 30))
        m = cyclic(index, draw(st.integers(max(1, 30 - index), 60 - index)))
    elif kind == "null":
        m = null_monoid(draw(st.integers(30, 60)))
    else:
        k = draw(st.integers(3, 6))  # <k, k+1> leaves k(k-1)/2 gaps below its conductor
        m = numerical(k, draw(st.integers(30, 60)) - 1 + k * (k - 1) // 2)
    table = perturb(draw, m)
    sigma = draw(st.permutations(range(m.size)))
    return relabel(table, sigma), sigma[m.identity]


def relabel(table, sigma):
    """The table with element x renamed sigma[x]."""
    relabelled = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            relabelled[sigma[x]][sigma[y]] = sigma[v]
    return relabelled


@PROPERTY
@given(tables_with_identity())
def test_light_test_matches_the_scan_on_random_tables(case):
    table, e = case
    assert outcome([str(x) for x in range(len(table))], table, e) == ijk_scan(table)


@PROPERTY
@given(perturbed_fixtures())
def test_light_test_matches_the_scan_on_perturbed_fixtures(case):
    m, table = case
    assert outcome(m.names, table, m.identity) == ijk_scan(table)


@settings(max_examples=100, deadline=None)
@given(tables_with_a_small_fault())
def test_light_test_matches_the_scan_when_few_rows_are_suspects(case):
    table, e = case
    assert outcome([str(x) for x in range(len(table))], table, e) == ijk_scan(table)


def test_light_test_finds_a_first_failing_row_outside_every_fault_set():
    """C(2, 2) = {1, g, g², g³} with g⁴ = g², its entry g³·g² changed from g³
    to g. Its one generator g fails Light's test at B_g = {g², g³}, and the
    first failing row g lies outside B_g. Row g holds at every step j1·g
    with j1 in B_g, so no whole column pass finds it: only the suspect rule's
    rows i with i·j1 in B_g do, at the step g·g, since g·g = g² is in B_g."""
    table = [[0, 1, 2, 3], [1, 2, 3, 2], [2, 3, 2, 3], [3, 2, 1, 2]]
    assert outcome(["1", "g", "g2", "g3"], table, 0) == ijk_scan(table) == (1, 2, 2)


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("base", [254, 255])
def test_light_test_reports_the_block_triple_on_both_sides_of_256_elements(base, late):
    """n = 256 takes the byte rows and n = 257 the tuple rows. Only the
    triples starting with b1 fail, and the first is (b1, b1, b1): b1·b1 = b2,
    the corrupted b1·b2 = b2, and b2·b1 is the zero. b1 is 1 in the early
    layout and n - 2 in the late one (the scan is too slow at n = 257)."""
    table = with_corrupted_block(base, late, range(1, base))
    n = len(table)
    b1 = n - 2 if late else 1
    assert n == base + 2
    assert outcome([str(x) for x in range(n)], table, 0) == (b1, b1, b1)


def test_a_numerical_monoid_of_more_than_256_elements_validates_on_tuple_rows():
    m = numerical(3, 300)  # 0, 3, 4 and 6..300
    assert m.size == 298
    assert m.generators == (1, 2)


@PROPERTY
@given(st.sampled_from(FIXTURES), st.sampled_from(FIXTURES), st.booleans())
def test_hom_search_matches_the_exhaustive_oracle(source, target, atom_preserving_only):
    expected = [
        (mp, keep) for mp, keep in exhaustive_homs(source, target) if keep or not atom_preserving_only
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


def test_units_and_atoms_match_the_pair_scans():
    monoids = FIXTURES + LARGER + [random_monoid(seed, 8) for seed in range(200)]
    monoids += [cyclic(n - 1, 1) for n in range(2, 41)]
    for m in monoids:
        assert units(m) == units_by_pairs(m)
        assert atoms(m) == atoms_by_pairs(m)
        pairs = itertools.product(range(m.size), repeat=2)
        two_sided = all(m.mul(y, x) == m.identity for x, y in pairs if m.mul(x, y) == m.identity)
        assert check_property(m, "dedekind_finite") == two_sided


def test_cancellation_laws_match_their_definitions():
    monoids = list(named_fixtures().values()) + [full_transformation_3()]
    monoids += [random_monoid(seed, 8) for seed in range(100)]
    for m in monoids:
        for prop in _LAWS:
            assert check_property(m, prop) == laws_hold(prop, range(m.size), m.mul, units(m).__contains__)


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
    m = draw(st.one_of(st.sampled_from(FIXTURES + LARGER), st.integers(1, 40).map(lambda n: cyclic(n - 1, 1))))
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
        st.integers(1, 40).map(lambda n: cyclic(n - 1, 1)),
    )
)
def test_stored_generators_generate_the_monoid(m):
    assert m.identity not in m.generators
    found = {m.identity: None}
    _closure([m.identity], m.generators, m.mul, found)
    assert sorted(found) == list(range(m.size))


def rarest_product_first(m):
    """The greedy generating set with the count up front: candidates ranked
    by their count in the whole table, ties by index, each closed under
    right multiplication in turn."""
    counts = Counter(itertools.chain.from_iterable(m.table))
    found = {m.identity: None}
    gens = []
    for c in sorted(range(m.size), key=counts.__getitem__):
        if len(found) == m.size:
            break
        if c in found:
            continue
        gens.append(c)
        _closure(_closure(list(found), [c], m.mul, found), gens, m.mul, found)
    return tuple(gens)


def irreducibles_generate(m):
    """Whether the non-identity elements that are no product of two
    non-identity elements generate m."""
    others = [x for x in range(m.size) if x != m.identity]
    products = {m.mul(x, y) for x in others for y in others}
    found = {m.identity: None}
    _closure([m.identity], [x for x in others if x not in products], m.mul, found)
    return len(found) == m.size


@st.composite
def relabelled_monoids(draw):
    """A monoid relabelled at random, and whether its irreducibles generate
    it (None where that varies). They do not in T_3, nor in the cyclic
    groups of order >= 3, where every element is a product of two
    non-identity ones. They do in c2, whose one non-identity element
    squares to the identity, and in numerical, monogenic and null monoids
    that are more than an idempotent over the identity."""
    kind = draw(st.sampled_from(["t3", "group", "c2", "numerical", "monogenic", "null", "random"]))
    m, generate = {
        "t3": lambda: (LARGER[0], False),
        "group": lambda: (cyclic(0, draw(st.integers(3, 12))), False),
        "c2": lambda: (named_fixtures()["c2"], True),
        "numerical": lambda: (numerical(draw(st.integers(2, 6)), draw(st.integers(7, 40))), True),
        "monogenic": lambda: (cyclic(draw(st.integers(3, 40)) - 1, 1), True),
        "null": lambda: (null_monoid(draw(st.integers(3, 12))), True),
        "random": lambda: (random_monoid(draw(st.integers(0, 500)), draw(st.integers(2, 8))), None),
    }[kind]()
    sigma = draw(st.permutations(range(m.size)))
    relabelled = new_monoid([m.names[sigma.index(x)] for x in range(m.size)], relabel(m.table, sigma), sigma[m.identity])
    return relabelled, generate


@PROPERTY
@given(relabelled_monoids())
def test_generators_match_the_rarest_product_first_greedy(case):
    m, generate = case
    assert generate is None or irreducibles_generate(m) is generate
    assert m.generators == rarest_product_first(m)


def test_generating_sets_of_known_size():
    t3, null8 = LARGER
    assert len(t3.generators) == 3
    assert len(null8.generators) == 6  # every atom is needed
    assert len(cyclic(29, 1).generators) == 1


def test_generator_tuples_are_pinned():
    # the rarest-product-first ranking fixes these; a change to it shows here
    expected = {"zero": (), "one": (1,), "c2": (1,), "h2": (1, 2), "m31": (1,), "sl2": (1,), "ab": (1, 2)}
    assert {name: m.generators for name, m in named_fixtures().items()} == expected
    assert [m.generators for m in LARGER] == [(7, 11, 1), (1, 2, 3, 4, 5, 6)]


def test_closure_stops_at_the_first_element_past_the_cap():
    t3, _ = LARGER
    for m in (cyclic(29, 1), t3):
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
