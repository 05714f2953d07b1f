"""Finite monoids as multiplication tables: units, atoms, predicates, homs.

Elements are dense integer indices into the table; names are metadata.
Words over a monoid (or over an abstract alphabet) are plain sequences,
the empty sequence being the empty word. The initial object {1} and the
terminal object {1, a, 0} of AtoMon are built here, by ``initial`` and
``terminal``.

The value types are ``__slots__`` classes on ``_Value``, not data classes,
whose module imports ``inspect`` and runs ``exec``. ``_Value`` gives them
``==``, ``hash``, ``repr`` and pickling over all fields, read by ``_values``.
``ReducedWord``, compared thousands of times a run, writes its own: an
``==`` ten times faster, a faster ``hash`` and a ``repr`` of its letters.
``LengthSystem`` compares ``entries`` only, ``FiniteMonoid`` its names,
table and identity, ``Cocone`` and ``Family`` compare by identity,
``MonoidHom`` writes its ``repr``, and ``EPSet`` all three, over its one
field ``_key``. Every value type is guarded: assigning to or deleting a
field raises ``AttributeError``, and only ``_setters`` write one (see
``_Value``). A cache is a container made at construction and filled in
place (``FiniteMonoid._memo``, ``Family``'s DP rows and pair sums), so it
answers for the value that holds it. Each value type checks itself when
built. ``FiniteMonoid`` validates its table and derives its generators from
it, ``MonoidHom`` its map; ``new_monoid`` and ``new_hom`` are their public
spellings.

Six primitives check arguments for the whole library. ``_sequence`` reads
an ordered argument as a tuple and refuses a str, bytes, set, mapping or
non-iterable. ``_check_pairs`` refuses an item that is not a tuple of two,
``_check_count`` a count that is no int or too small, ``_check_indices`` an
element index that is no int in range, and ``_check_monoid`` a monoid that is
not a ``FiniteMonoid``. ``_arrows`` refuses an arrow argument that is not an
arrow of AtoMon (an atom-preserving hom between atomic monoids) or does not
share the ends its construction needs.

Check once, at the boundary. Public functions and constructors check what
arrives from outside. A value that a construction proves correct from
checked inputs is built through the one unchecked maker instead,
``_rebuild``: every EPSet from ``lengths._normalize``, and ``_hom`` a hom,
computing only ``atom_preserving``. Each such construction names, in its
docstring, the fact that lets it skip the check.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from collections.abc import Iterable, Mapping, Set
import operator
import os
from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterator, Sequence

from .errors import (
    BadIdentityError,
    CapExceededError,
    DuplicateNameError,
    ImageNotAtomError,
    NonAssociativeError,
    NotAtomicError,
    NotAtomPreservingError,
    NotIdentityPreservingError,
    NotMultiplicativeError,
    ParseError,
    SearchBudgetExceededError,
    SourceMismatchError,
    TargetMismatchError,
    ValidationError,
)

PROPERTIES = ("atomic", "dedekind_finite", "acyclic", "unit_cancellative", "cancellative")
_LAWS = ("acyclic", "unit_cancellative", "cancellative")  # cancellation laws, see check_property
DEFAULT_SEARCH_BUDGET = 250_000


class _Value:
    """The shared behaviour of the value types. A field is a slot, written
    once, by ``_set`` or ``_rebuild``, through ``_setters`` (the ``__set__``
    of each slot's descriptor), and read-only after. ``_values`` reads the
    fields in slot order; ``==``, ``hash`` and ``repr`` cover all of them,
    and copies and pickles rebuild them unchecked. A type that compares or
    shows fewer fields, or compares often, writes its own methods."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {self.__class__.__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles skip the checks
        return _rebuild, (self.__class__, self._values())


def _rebuild(cls: type, values: tuple) -> _Value:
    v = object.__new__(cls)  # _set's loop, not a call of it: every derived word and EPSet is built here
    for setter, value in zip(cls._setters, values):
        setter(v, value)
    return v


class FiniteMonoid(_Value):
    """A finite monoid, validated when built from its multiplication table.
    ``==`` and ``hash`` read ``names``, ``table`` and ``identity``.

    ``generators`` is a small generating set G, derived from the table: every
    element is a product of members of G. The table algorithms
    (associativity and hom checks, hom search, congruence closure) work over G
    instead of over all elements. ``_memo`` is the per-instance cache, a dict
    filled on first use under the keys "units", "atoms", "atomic", "lengths"
    (the length-set table) and "unions" (the U_k table, see ``lengths``). No
    value is None, so a reader finds a hit with one ``get``.

    Associativity is decided by Light's test over G:
    (x·g)·y = x·(g·y) for all x, y and every g in G. The elements g passing it
    are closed under the product, and G generates, so this is sound without
    assuming associativity. A failure reports the same lexicographically
    first triple as a full i-j-k scan.

    The n² entries are read by C-level passes: one type pass through a chain
    of the rows, and one set of the products x·y with x, y != identity. With
    the identity row and column that set gives the range check, and the
    non-identity elements outside it are the irreducibles, with which the
    greedy for G starts (see ``_generating_set``). Only if they do not
    generate is the whole table counted, to rank the other candidates. Then
    Light's test makes |G| C passes, each comparing n pairs of rows: byte
    rows up to 256 elements, packed once for the check and then dropped, and
    tuples above (see ``_light_rows``). A failed check scans for its culprit
    only then. A non-associative table adds one such pass over the suspect
    rows of each closure step by a generator that fails, and Python work set
    by the size of the fault (see ``_first_nonassociative``).
    """

    __slots__ = ("names", "table", "identity", "size", "generators", "_memo")

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]], identity: int):
        names = _sequence(names, "names {!r} are not a sequence")
        _check_type(names, str, "name", "a string")
        n = len(names)
        if n == 0:
            raise ValidationError("a monoid needs at least one element")
        if len(set(names)) != n or any(name == "" for name in names):
            raise DuplicateNameError("names must be distinct non-empty strings")
        rows = f"table must be {n}x{n}, a sequence of rows"
        tab = tuple([_sequence(row, rows) for row in _sequence(table, rows)])
        if len(tab) != n or any(len(row) != n for row in tab):
            raise ValidationError(f"table must be {n}x{n}")
        entries = itertools.chain.from_iterable
        if not set(map(type, entries(tab))) <= {int}:  # only a failure flattens, to find the culprit
            _check_type(tuple(entries(tab)), int, "table entry", "an integer")
        if type(identity) is int and 0 <= identity < n:
            products = set()  # x·y for x, y != identity
            for row in tab[:identity] + tab[identity + 1 :]:
                products.update(row[:identity], row[identity + 1 :])
            seen = products.union(tab[identity], map(itemgetter(identity), tab))
        else:  # an identity error follows the range check
            seen = set(entries(tab))
        _check_range(entries(tab), seen, n, "table entry")
        if type(identity) is not int:
            raise ValidationError(f"identity index {identity!r} is not an integer")
        if not 0 <= identity < n:
            raise ValidationError(f"identity index {identity} out of range")
        ident = tuple(range(n))
        if tab[identity] != ident or tuple(map(itemgetter(identity), tab)) != ident:
            raise BadIdentityError(next(x for x in range(n) if tab[identity][x] != x or tab[x][identity] != x))
        irreducibles = [x for x in ident if x not in products and x != identity]
        gens = _generating_set(tab, identity, irreducibles)
        # good[p][x]: (x·g)·y == x·(g·y) for every y, where g = gens[p]
        holds = _light_rows(tab)
        good = [list(holds(ident, g)) for g in gens]
        if not all(map(all, good)):
            raise NonAssociativeError(*_first_nonassociative(tab, identity, gens, good, holds))
        self._set(names, tab, identity, n, gens, {})

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMonoid)
            and self.names == other.names
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self) -> int:
        return hash((self.names, self.table, self.identity))

    def __repr__(self) -> str:
        return f"FiniteMonoid(size={self.size}, names={self.names})"


def _check_type(values: Sequence, kind: type, what: str, noun: str) -> None:
    """Each of the values must have type exactly ``kind``, so a bool is no
    int. The check runs in C; only a failure scans in Python for the first
    culprit."""
    if not set(map(type, values)) <= {kind}:
        bad = next(v for v in values if type(v) is not kind)
        raise ValidationError(f"{what} {bad!r} is not {noun}")


def _check_range(values: Sequence[int], distinct, bound: int, what: str) -> None:
    """Each of the int values (there is at least one) must lie in [0, bound).
    ``distinct`` holds the distinct values, or is ``values`` itself; min and
    max read it, and only a failure scans the values, which may be an
    iterator, for the first culprit."""
    if not (0 <= min(distinct) and max(distinct) < bound):
        bad = next(v for v in values if not 0 <= v < bound)
        raise ValidationError(f"{what} {bad} out of range [0, {bound})")


def _check_indices(values: Sequence[int], bound: int, what: str) -> None:
    """Each of the values (there is at least one) must be an int, not a bool,
    in [0, bound)."""
    _check_type(values, int, what, "an integer")
    _check_range(values, values, bound, what)


def _check_monoid(m) -> None:
    if not isinstance(m, FiniteMonoid):
        raise ValidationError(f"monoid {m!r} is not a FiniteMonoid")


def _check_count(value, what: str, least: int = 0) -> None:
    """A count parameter must be an int, not a bool, and at least ``least``."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValidationError(f"{what} must be {bound}, not {value}")


def _search_budget(budget: int | None) -> int:
    """The bound on a search's work: ``budget``, a count, or if it is None
    the environment's ATOMON_BUDGET, or else DEFAULT_SEARCH_BUDGET."""
    if budget is None:
        env = os.environ.get("ATOMON_BUDGET") or str(DEFAULT_SEARCH_BUDGET)
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"ATOMON_BUDGET must be an integer, not {env!r}") from None
        if budget < 0:
            raise ParseError(f"ATOMON_BUDGET must be non-negative, not {env!r}")
    _check_count(budget, "search budget")
    return budget


def _sequence(values, message: str) -> tuple:
    """values as a tuple if they are a list, tuple, range or iterator; a str,
    bytes, set, mapping or non-iterable raises ValidationError(message.format(values)).
    A tuple or list, as every word and table row on the hot paths is, skips the ABC tests."""
    if values.__class__ is tuple:
        return values
    if values.__class__ is list or isinstance(values, Iterable) and not isinstance(values, (str, bytes, Set, Mapping)):
        return tuple(values)
    raise ValidationError(message.format(values))


def _check_pairs(items: Iterable, message: str) -> None:
    """Each item must be a tuple of two; the first that is not, a list, a
    range or a dict of two included, raises ValidationError(message.format(item))."""
    for item in items:
        if not isinstance(item, tuple) or len(item) != 2:
            raise ValidationError(message.format(item))


def _closure(frontier: list, gens: Sequence, mul: Callable, found: dict, cap: int | None = None) -> list:
    """Grow ``found`` by every product x·g1·…·gk with x in ``frontier`` and
    each g_i in ``gens``, breadth first, where ``mul(x, g)`` is x·g.

    ``found`` maps each element to the pair (x, g) it was first reached from
    as x·g, or to None for a starting element; frontier elements must already
    be in it, and its insertion order is the discovery order. Returns the
    elements added, in the order they were found. Raises CapExceededError as
    soon as ``found`` holds more than ``cap`` elements.
    """
    added = []
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in found:
                    found[y] = (x, g)
                    nxt.append(y)
                    if cap is not None and len(found) > cap:
                        raise CapExceededError(cap)
        added += nxt
        frontier = nxt
    return added


def _generating_set(table, identity: int, irreducibles: Sequence[int]) -> tuple[int, ...]:
    """A small generating set, by greedy right-multiplication closure.

    Candidates go rarest product first: an element that is no product of
    two non-identity elements must be a generator, and a frequent product is
    likely reached anyway. ``irreducibles`` are the non-identity elements
    that are no such product, in index order; the table is counted only if
    they do not generate.

    This is the greedy over all elements ranked by their count in the whole
    table, ties by index, with the count deferred. An irreducible x occurs
    exactly twice, as 1·x and x·1; every other non-identity element occurs
    at least three times, and the identity is taken from the start. The
    closure adds only a generator or a product x·g of two non-identity
    elements, so it never reaches an irreducible: the greedy takes all of
    them first, in index order, before any element of count three or more.
    """
    n = len(table)
    mul = lambda x, g: table[x][g]
    found = {identity: None}
    gens: list[int] = []

    def take(candidates: Iterable[int]) -> None:
        for c in candidates:
            if len(found) == n:
                return
            if c in found:
                continue
            gens.append(c)
            # the old elements are closed under the old generators: multiply
            # them by c alone, then close whatever is new under all generators
            _closure(_closure(list(found), [c], mul, found), gens, mul, found)

    take(irreducibles)
    if len(found) < n:
        counts = Counter(itertools.chain.from_iterable(table))
        take(sorted(range(n), key=counts.__getitem__))
    return tuple(gens)


def _closure_steps(table, identity: int, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """The closure of ``gens`` from the identity as a tree: (y, x, p) with
    y = x·gens[p] for every element y but the identity, each x listed before
    the y it reaches."""
    position = {g: p for p, g in enumerate(gens)}
    found = {identity: None}
    _closure([identity], gens, lambda x, g: table[x][g], found)
    return [(y, x, position[g]) for y, (x, g) in itertools.islice(found.items(), 1, None)]


def _light_rows(tab) -> Callable[[Sequence[int], int], Iterator[bool]]:
    """Light's row test on a validated table: ``holds(xs, j)`` yields lazily,
    for each row index x in the sequence ``xs``, whether (x·j)·y == x·(j·y)
    for every y, comparing row x·j with row x read through row j. Up to 256
    elements an index fits in a byte: the rows are packed once into
    ``bytes``, and row x read through row j is row j translated by row x
    padded to 256 bytes, one C translate and one memcmp. Above, it is the
    ``itemgetter`` tuple of row x at the entries of row j, as n >= 2."""
    if len(tab) > 256:
        rows = pads = tab
        through = lambda j: itemgetter(*tab[j])
    else:
        rows = list(map(bytes, tab))
        pads = [row.ljust(256, b"\0") for row in rows]
        through = lambda j: rows[j].translate

    def holds(xs: Sequence[int], j: int) -> Iterator[bool]:
        products = map(rows.__getitem__, map(itemgetter(j), map(rows.__getitem__, xs)))  # the rows x·j
        return map(operator.eq, products, map(through(j), map(pads.__getitem__, xs)))

    return holds


def _first_nonassociative(
    tab, identity: int, gens: Sequence[int], good: list[list[bool]], holds: Callable
) -> tuple[int, int, int]:
    """The lexicographically first (i, j, k) with (i·j)·k != i·(j·k).

    Write L_x for row x as a map, so row i is associative when
    L_(i·j) = L_i∘L_j for every j. ``holds`` is ``_light_rows``' test, and
    ``good[p][x]`` its answer for row x at j = gens[p]. Walk j along the
    closure of G from the identity: if j = j1·g and row i holds at j1, then
    L_(i·j) = L_((i·j1)·g) = L_(i·j1)∘L_g = L_i∘L_j1∘L_g = L_i∘L_j, provided
    ``good`` holds at (i·j1, g) and at (j1, g).

    Let B_g be the x where ``good`` fails for g. One rule picks the rows to
    check. If row i fails, take its first failing step j = j1·g in closure
    order: row i holds at j1, so by the chain j1 or i·j1 lies in B_g. So at
    each step j = j1·g with B_g non-empty, the suspects are every row if j1
    is in B_g, else the rows i with i·j1 in B_g (a row x of B_g is one at the
    step j = g, where x·1 = x). Each step passes its suspects below the first
    failing row found so far to ``holds``, as one C pass of byte or tuple
    rows, the same test that built ``good``. Every failing row is a suspect
    at its first failing step, so the last row found is the first failing
    row. Row i then walks the certificate and tests only the j it cannot
    certify, so the Python work is set by the size of the fault, not by n².
    """
    n = len(tab)
    bad = [set(itertools.compress(range(n), map(operator.not_, row))) for row in good]
    steps = _closure_steps(tab, identity, gens)
    first = n
    for j, j1, p in steps:
        if bad[p]:
            suspects = range(first)
            if j1 not in bad[p]:  # only the rows i with i·j1 in B_g
                suspects = list(itertools.compress(suspects, map(bad[p].__contains__, map(itemgetter(j1), tab))))
            first = next(itertools.compress(suspects, map(operator.not_, holds(suspects, j))), first)

    row_i = tab[first]
    ok = [True] * n
    for j, j1, p in steps:
        ok[j] = ok[j1] and good[p][j1] and good[p][row_i[j1]] or next(holds((first,), j))
    j = ok.index(False)
    return first, j, next(k for k in range(n) if tab[row_i[j]][k] != row_i[tab[j][k]])


def new_monoid(names: Sequence[str], table: Sequence[Sequence[int]], identity: int) -> FiniteMonoid:
    """Validate a multiplication table and wrap it as a FiniteMonoid."""
    return FiniteMonoid(names, table, identity)


def _tabulate(elements: Sequence, mul: Callable, names: Sequence[str], identity) -> FiniteMonoid:
    """The monoid on a list of distinct elements closed under ``mul``, where
    ``mul(x, y)`` is x·y: element i is elements[i], named names[i]."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    return new_monoid(names, table, index[identity])


def units(m: FiniteMonoid) -> frozenset[int]:
    """The group of units: the closure of the identity under the generators
    whose row holds the identity.

    A right inverse is two-sided in a finite monoid: x·y = 1 makes z ↦ y·z
    injective, hence onto, so y·z = 1 for some z, and z = x·y·z = x. So if
    x·y is a unit with inverse v, then x has the right inverse y·v and y the
    left inverse v·x, and both are units. By induction a product g1·…·gk of
    generators is a unit only if every gi is, and every element is such a
    product, so the units are the products of unit generators. O(n·|G|).
    """
    _check_monoid(m)
    if (us := m._memo.get("units")) is None:
        found = {m.identity: None}
        _closure([m.identity], [g for g in m.generators if m.identity in m.table[g]], m.mul, found)
        us = m._memo["units"] = frozenset(found)
    return us


def atoms(m: FiniteMonoid) -> frozenset[int]:
    """Non-units that are not a product of two non-units.

    The non-units N form an ideal, so N·N is the right ideal generated by
    {x·g : x in N, g in G∖U}, G the generators and U the units: write y in N
    as g1·…·gk and split x·y at the first gi that is not a unit.
    """
    _check_monoid(m)
    if (ats := m._memo.get("atoms")) is None:
        us = units(m)
        non_units = [x for x in range(m.size) if x not in us]
        reducible = dict.fromkeys(m.table[x][g] for g in m.generators if g not in us for x in non_units)
        _closure(list(reducible), m.generators, m.mul, reducible)
        ats = m._memo["atoms"] = frozenset(x for x in non_units if x not in reducible)
    return ats


def _atom_closure(m: FiniteMonoid) -> frozenset[int]:
    # all non-empty products of atoms, by right-extension to a fixpoint
    ats = sorted(atoms(m))
    found = dict.fromkeys(ats)
    _closure(ats, ats, m.mul, found)
    return frozenset(found)


def check_property(m: FiniteMonoid, prop: str) -> bool:
    """Decide one of the supported predicates on m. Every finite monoid is
    Dedekind-finite, since a right inverse is two-sided in it (see ``units``).

    The three cancellation laws ``_LAWS`` each hold exactly when every
    element is a unit. In a group the first two forbid only equations with
    a non-unit, of which there is none, and every translation is a
    bijection, so all three hold. Otherwise take a non-unit x and its
    idempotent power e = x^k, which a finite monoid has. e is a non-unit,
    since a product is a unit only if every factor is (see ``units``). Then
    e·e·e = e breaks acyclicity, e·e = e breaks unit cancellativity, and
    e·e = e·1 with e != 1 breaks cancellativity.
    The ``generator-oracles`` suite checks this against ``oracles.laws_hold``.
    """
    _check_monoid(m)
    if prop == "atomic":
        if (atomic := m._memo.get("atomic")) is None:
            us, covered = units(m), _atom_closure(m)
            atomic = m._memo["atomic"] = all(x in covered for x in range(m.size) if x not in us)
        return atomic
    if prop == "dedekind_finite":
        return True
    if prop in _LAWS:
        return len(units(m)) == m.size
    raise ValidationError(f"unknown property {prop!r}; expected one of {PROPERTIES}")


class ElemClass(enum.Enum):
    UNIT = "unit"
    ATOM = "atom"
    REDUCIBLE = "reducible"


def classify(m: FiniteMonoid, x: int) -> ElemClass:
    """Trichotomy: unit, atom, or non-unit that factors into two non-units."""
    _check_monoid(m)
    _check_indices((x,), m.size, "element index")
    if x in units(m):
        return ElemClass.UNIT
    if x in atoms(m):
        return ElemClass.ATOM
    return ElemClass.REDUCIBLE


class MonoidHom(_Value):
    """A monoid homomorphism given by its value table, checked when built:
    one target index per source element, sending the identity to the identity
    and respecting products (checked on the source's generators; a failure
    names the first failing pair). atom_preserving is computed, never supplied."""

    __slots__ = ("source", "target", "map", "atom_preserving")

    def __init__(self, source: FiniteMonoid, target: FiniteMonoid, map: tuple[int, ...]) -> None:
        mp = _sequence(map, "map must be a sequence, not {0.__class__.__name__}")
        _check_monoid(source)
        _check_monoid(target)
        if len(mp) != source.size:
            raise ValidationError(f"map must have length {source.size}")
        _check_indices(mp, target.size, "map value")
        if mp[source.identity] != target.identity:
            raise NotIdentityPreservingError("map does not send identity to identity")
        if not _respects_generators(source, target, mp):
            raise NotMultiplicativeError(*_first_nonmultiplicative(source, target, mp))
        self._set(source, target, mp, _preserves_atoms(source, target, mp))

    def __repr__(self) -> str:
        return f"MonoidHom({self.source!r} -> {self.target!r}, map={self.map})"


def new_hom(source: FiniteMonoid, target: FiniteMonoid, mapping: Sequence[int]) -> MonoidHom:
    """Validate a map as identity- and product-preserving (see ``MonoidHom``)."""
    return MonoidHom(source, target, mapping)


def _hom(source: FiniteMonoid, target: FiniteMonoid, mp: tuple[int, ...]) -> MonoidHom:
    """The hom with map mp, which the caller has proved to be a hom: built unchecked."""
    return _rebuild(MonoidHom, (source, target, mp, _preserves_atoms(source, target, mp)))


def _preserves_atoms(source: FiniteMonoid, target: FiniteMonoid, mp: tuple[int, ...]) -> bool:
    """Whether mp sends every atom of the source to an atom of the target."""
    return atoms(target).issuperset(map(mp.__getitem__, atoms(source)))


def _respects_generators(source: FiniteMonoid, target: FiniteMonoid, mp: tuple[int, ...]) -> bool:
    """Whether mp(x·g) = mp(x)·mp(g) for every x and every generator g.

    With mp(1) = 1 this makes mp a hom: both tables are associative and every
    element is a product of generators.
    """
    image = mp.__getitem__
    for g in source.generators:
        right = tuple(map(itemgetter(mp[g]), target.table))  # y -> y·mp(g)
        if list(map(image, map(itemgetter(g), source.table))) != list(map(right.__getitem__, mp)):
            return False
    return True


def _first_nonmultiplicative(source: FiniteMonoid, target: FiniteMonoid, mp: tuple[int, ...]) -> tuple[int, int]:
    """The first pair (x, y) with mp(x·y) != mp(x)·mp(y), one row at a time."""
    for x, row in enumerate(source.table):
        left = list(map(mp.__getitem__, row))
        right = list(map(target.table[mp[x]].__getitem__, mp))
        if left != right:
            return x, next(y for y in range(source.size) if left[y] != right[y])
    raise ValueError("map is multiplicative")


def identity_hom(m: FiniteMonoid) -> MonoidHom:
    _check_monoid(m)
    return _hom(m, m, tuple(range(m.size)))


def compose(g: MonoidHom, f: MonoidHom) -> MonoidHom:
    """g after f, built unchecked: a composite of homs is a hom."""
    _check_type((g, f), MonoidHom, "hom", "a MonoidHom")
    if f.target != g.source:
        raise ValidationError("homs do not compose")
    return _hom(f.source, g.target, tuple(g.map[v] for v in f.map))


def _arrows(homs, *shared: str) -> tuple[MonoidHom, ...]:
    """homs as a non-empty tuple of AtoMon arrows sharing each end named in
    ``shared`` ("source" or "target"), which is checked first."""
    homs = _sequence(homs, "homs {!r} are not a sequence")
    if not homs:
        raise ValidationError("need at least one hom")
    _check_type(homs, MonoidHom, "hom", "a MonoidHom")
    for end in shared:
        ends = list(map(attrgetter(end), homs))
        if ends.count(ends[0]) < len(ends):
            raise (SourceMismatchError if end == "source" else TargetMismatchError)(f"the homs do not share one {end}")
    for i, h in enumerate(homs):
        if not h.atom_preserving:
            raise NotAtomPreservingError(i)
        if not (check_property(h.source, "atomic") and check_property(h.target, "atomic")):
            raise NotAtomicError(f"hom {i} has a non-atomic source or target")
    return homs


def is_atomon_mono(f: MonoidHom) -> bool:
    """Monomorphism test: injectivity on atoms and units of the source."""
    _arrows((f,))
    core = atoms(f.source) | units(f.source)
    return len({f.map[x] for x in core}) == len(core)


def terminal() -> FiniteMonoid:
    """The terminal object: the three-element monoid {1, a, 0} with a*a = 0
    and 0 absorbing."""
    return new_monoid(("1", "a", "0"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)


def initial() -> FiniteMonoid:
    """The initial object: the one-element monoid {1}. It is not terminal,
    since it has no atom for a source's atoms to go to."""
    return new_monoid(("1",), ((0,),), 0)


def canonical_to_terminal(m: FiniteMonoid) -> MonoidHom:
    """The unique atom-preserving hom into the terminal monoid, by element
    class, built unchecked: the class map of an atomic monoid into {1, a, 0}
    multiplies as 1, a and 0 do. A unit times a unit is a unit, a unit times
    an atom is an atom, and any other product of two non-units is reducible,
    since the non-units form an ideal (see ``units``)."""
    _check_monoid(m)
    if not check_property(m, "atomic"):
        raise NotAtomicError("canonical map to the terminal object needs an atomic source")
    target = terminal()
    tag_to_index = {ElemClass.UNIT: 0, ElemClass.ATOM: 1, ElemClass.REDUCIBLE: 2}
    return _hom(m, target, tuple(tag_to_index[classify(m, x)] for x in range(m.size)))


def eval_word(m: FiniteMonoid, word: Sequence[int]) -> int:
    """Left-to-right product of a word of element indices; empty word gives 1."""
    word = _sequence(word, "word {!r} is not a sequence of element indices")
    _check_monoid(m)
    if word:
        _check_indices(word, m.size, "element index")
    acc = m.identity
    for x in word:
        acc = m.mul(acc, x)
    return acc


def extend_atom_map(
    target: FiniteMonoid,
    images: Mapping[Hashable, int],
    word: Sequence[Hashable],
) -> int:
    """Evaluate a word over an abstract alphabet through an atom-valued map.

    Every image must be an atom of the target, so the induced map from the
    free monoid on the alphabet is atom-preserving.
    """
    _check_monoid(target)
    if not isinstance(images, Mapping):
        raise ValidationError(f"images {images!r} are not a mapping from symbols to elements")
    if images:
        _check_indices(tuple(images.values()), target.size, "image")
    tgt_atoms = atoms(target)
    for symbol, image in images.items():
        if image not in tgt_atoms:
            raise ImageNotAtomError(symbol)
    try:
        substituted = [images[s] for s in _sequence(word, "word {!r} is not a sequence of symbols")]
    except KeyError as exc:
        raise ValidationError(f"word symbol {exc.args[0]!r} has no image") from None
    return eval_word(target, substituted)


def enumerate_homs(
    source: FiniteMonoid,
    target: FiniteMonoid,
    atom_preserving_only: bool = True,
) -> Iterator[MonoidHom]:
    """All homomorphisms source -> target, in increasing order of their maps.

    A hom is fixed by its images of the source's generating set G. Each of
    the target.size ** len(G) choices of images is extended along the
    closure of G and kept if it respects the generators (and preserves
    atoms, when asked). A kept map has passed both checks of ``MonoidHom``,
    so it is built unchecked. Exponential in |G|: for desk-scale uniqueness
    checks. The choices are charged against the search budget before any
    is tried, and SearchBudgetExceededError is raised past it.
    """
    _check_monoid(source)
    _check_monoid(target)
    gens = source.generators
    if target.size ** len(gens) > (limit := _search_budget(None)):
        raise SearchBudgetExceededError(limit, "candidate maps")
    steps = _closure_steps(source.table, source.identity, gens)
    tgt = target.table
    maps = []
    for images in itertools.product(range(target.size), repeat=len(gens)):
        mp = [target.identity] * source.size
        for y, x, p in steps:
            mp[y] = tgt[mp[x]][images[p]]
        mp = tuple(mp)
        if _respects_generators(source, target, mp):
            ap = _preserves_atoms(source, target, mp)
            if ap or not atom_preserving_only:
                maps.append((mp, ap))
    yield from (_rebuild(MonoidHom, (source, target, mp, ap)) for mp, ap in sorted(maps))
