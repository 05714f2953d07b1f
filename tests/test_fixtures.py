import pytest

from atomon import check_property
from atomon.errors import ValidationError
from atomon.fixtures import atomic_fixtures, named_fixtures, random_monoid


def test_named_fixtures_validate():
    fixtures = named_fixtures()
    assert set(fixtures) == {"zero", "one", "c2", "h2", "m31", "sl2", "ab"}
    sizes = {name: m.size for name, m in fixtures.items()}
    assert sizes == {"zero": 1, "one": 3, "c2": 2, "h2": 4, "m31": 4, "sl2": 2, "ab": 5}


def test_atomicity_flags():
    atomic = set(atomic_fixtures())
    assert atomic == {"zero", "one", "c2", "h2", "m31", "ab"}
    assert not check_property(named_fixtures()["sl2"], "atomic")


def test_random_monoids_are_valid_and_deterministic():
    for seed in range(20):
        m1 = random_monoid(seed)
        m2 = random_monoid(seed)
        assert m1 == m2
        assert 2 <= m1.size <= 5
        assert check_property(m1, "dedekind_finite")


def test_random_monoid_tables_are_pinned():
    m = random_monoid(0)
    assert m.names == ("t012", "t111")
    assert m.table == ((0, 1), (1, 1))
    m = random_monoid(2)
    assert m.names == ("t01", "t10", "t00", "t11")
    assert m.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 2, 2, 2), (3, 3, 3, 3))
    assert m.identity == 0


def test_random_fixture_batch():
    batch = [random_monoid(seed) for seed in range(5)]
    assert len(batch) == 5
    assert any(m1 != m2 for m1 in batch for m2 in batch)


@pytest.mark.parametrize("max_size", [1, 0, -3, "5", 2.5])
def test_random_monoid_needs_room_for_two_elements(max_size):
    with pytest.raises(ValidationError):
        random_monoid(0, max_size)
