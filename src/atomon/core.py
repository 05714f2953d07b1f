"""Finite monoids as multiplication tables: units, atoms, predicates, homs.

Elements are dense integer indices into the table; names are metadata.
Words over a monoid (or over an abstract alphabet) are plain sequences,
the empty sequence being the empty word.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass
import operator
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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
    ValidationError,
)

PROPERTIES = ("atomic", "dedekind_finite", "acyclic", "unit_cancellative", "cancellative")


class FiniteMonoid:
    """A validated finite monoid. Immutable after construction.

    ``generators`` is a small generating set G, found by ``new_monoid``: every
    element is a product of members of G. The table algorithms
    (associativity and hom checks, hom search, congruence closure) work over G
    instead of over all elements.
    """

    __slots__ = ("names", "table", "identity", "size", "generators", "_units", "_atoms", "_layers")

    def __init__(
        self,
        names: Sequence[str],
        table: Sequence[Sequence[int]],
        identity: int,
        generators: Sequence[int],
    ):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        self.size = len(self.names)
        self.generators = tuple(generators)
        self._units = None
        self._atoms = None
        self._layers = None

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def elem(self, name: str) -> int:
        """Index of the element with the given name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"no element named {name!r}") from None

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


def _check_indices(values: Sequence[int], bound: int, what: str) -> None:
    """Each of the values (there is at least one) must be an int, not a bool,
    in [0, bound). The checks run in C; only a failure scans in Python for the
    culprit."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValidationError(f"{what} {bad!r} is not an integer")
    if not (0 <= min(values) and max(values) < bound):
        bad = next(v for v in values if not 0 <= v < bound)
        raise ValidationError(f"{what} {bad} out of range [0, {bound})")


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


def _generating_set(table, identity: int) -> tuple[int, ...]:
    """A small generating set, by greedy right-multiplication closure.

    Candidates go rarest product first: an element that is no product of two
    non-identity elements must be a generator, and a frequent product is
    likely reached anyway. Counting the whole table adds exactly two to every
    non-identity element (its identity row and column entries), so it ranks
    as counting the non-identity products alone would; the sort is stable,
    so ties go by index.
    """
    counts = Counter(itertools.chain.from_iterable(table))
    mul = lambda x, g: table[x][g]
    found = {identity: None}
    gens: list[int] = []
    for c in sorted(range(len(table)), key=counts.__getitem__):
        if len(found) == len(table):
            break
        if c in found:
            continue
        gens.append(c)
        # the old elements are closed under the old generators: multiply them
        # by c alone, then close whatever is new under all generators
        _closure(_closure(list(found), [c], mul, found), gens, mul, found)
    return tuple(gens)


def _closure_steps(table, identity: int, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """The closure of ``gens`` from the identity as a tree: (y, x, p) with
    y = x·gens[p] for every element y but the identity, each x listed before
    the y it reaches."""
    position = {g: p for p, g in enumerate(gens)}
    found = {identity: None}
    _closure([identity], gens, lambda x, g: table[x][g], found)
    return [(y, x, position[g]) for y, (x, g) in itertools.islice(found.items(), 1, None)]


def _first_nonassociative(tab, identity: int, gens: Sequence[int], good: list[list[bool]]) -> tuple[int, int, int]:
    """The lexicographically first (i, j, k) with (i·j)·k != i·(j·k).

    Write L_x for row x as a map, so row i is associative when
    L_(i·j) = L_i∘L_j for every j, and ``good[p][x]`` says whether this holds
    for i = x and j = gens[p]. Walk j along the closure of G from the
    identity: if j = j1·g and row i already holds at j1, then
    L_(i·j) = L_((i·j1)·g) = L_(i·j1)∘L_g = L_i∘L_j1∘L_g = L_i∘L_j, provided
    ``good`` holds at (i·j1, g) and at (j1, g). Only the other j are compared
    as whole rows, so the rows before the first failing one cost O(n) each
    when the fault is local; the failing row is then scanned for its first j
    and k.
    """
    # (j, j1, good at g, good at (j1, g)) for each j = j1·g
    steps = [(j, j1, good[p], good[p][j1]) for j, j1, p in _closure_steps(tab, identity, gens)]

    def holds(row_i, j) -> bool:  # (i·j)·k == i·(j·k) for every k
        return tab[row_i[j]] == tuple(map(row_i.__getitem__, tab[j]))

    n = len(tab)
    for i, row_i in enumerate(tab):
        for j, j1, good_g, parent_good in steps:
            if not (parent_good and good_g[row_i[j1]]) and not holds(row_i, j):
                j = next(j for j in range(n) if not holds(row_i, j))
                return i, j, next(k for k in range(n) if tab[row_i[j]][k] != row_i[tab[j][k]])
    raise ValueError("table is associative")


def new_monoid(names: Sequence[str], table: Sequence[Sequence[int]], identity: int) -> FiniteMonoid:
    """Validate a multiplication table and wrap it as a FiniteMonoid.

    Associativity is decided by Light's test over the generating set G:
    (x·g)·y = x·(g·y) for all x, y and every g in G. The elements g passing it
    are closed under the product, and G generates, so this is sound without
    assuming associativity. A failure reports the same lexicographically
    first triple as a full i-j-k scan.
    """
    names = tuple(str(n) for n in names)
    n = len(names)
    if n == 0:
        raise ValidationError("a monoid needs at least one element")
    if len(set(names)) != n or any(name == "" for name in names):
        raise DuplicateNameError("names must be distinct non-empty strings")
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError(f"table must be {n}x{n}")
    tab = tuple(map(tuple, table))
    _check_indices(tuple(itertools.chain.from_iterable(tab)), n, "table entry")
    if type(identity) is not int:
        raise ValidationError(f"identity index {identity!r} is not an integer")
    if not 0 <= identity < n:
        raise ValidationError(f"identity index {identity} out of range")
    cols = tuple(zip(*tab))
    ident = tuple(range(n))
    if tab[identity] != ident or cols[identity] != ident:
        raise BadIdentityError(next(x for x in range(n) if tab[identity][x] != x or tab[x][identity] != x))
    gens = _generating_set(tab, identity)
    # good[p][x]: (x·g)·y == x·(g·y) for every y, where g = gens[p]; the rows
    # of x·g against row x read through row g, compared in C (a generator
    # exists only when n >= 2, so each itemgetter returns a tuple)
    good = [list(map(operator.eq, map(tab.__getitem__, cols[g]), map(itemgetter(*tab[g]), tab))) for g in gens]
    if not all(map(all, good)):
        raise NonAssociativeError(*_first_nonassociative(tab, identity, gens, good))
    return FiniteMonoid(names, tab, identity, gens)


def units(m: FiniteMonoid) -> frozenset[int]:
    """The group of units: elements with a two-sided inverse."""
    if m._units is None:
        found = set()
        for u in range(m.size):
            for v in range(m.size):
                if m.mul(u, v) == m.identity and m.mul(v, u) == m.identity:
                    found.add(u)
                    break
        m._units = frozenset(found)
    return m._units


def atoms(m: FiniteMonoid) -> frozenset[int]:
    """Non-units that are not a product of two non-units."""
    if m._atoms is None:
        us = units(m)
        non_units = [x for x in range(m.size) if x not in us]
        reducible = {m.mul(x, y) for x in non_units for y in non_units}
        m._atoms = frozenset(x for x in non_units if x not in reducible)
    return m._atoms


def _atom_closure(m: FiniteMonoid) -> frozenset[int]:
    # all non-empty products of atoms, by right-extension to a fixpoint
    ats = sorted(atoms(m))
    found = dict.fromkeys(ats)
    _closure(ats, ats, m.mul, found)
    return frozenset(found)


def check_property(m: FiniteMonoid, prop: str) -> bool:
    """Exhaustively decide one of the supported predicates on m."""
    n = m.size
    us = units(m)
    if prop == "atomic":
        covered = _atom_closure(m)
        return all(x in covered for x in range(n) if x not in us)
    if prop == "dedekind_finite":
        return all(
            m.mul(y, x) == m.identity
            for x in range(n)
            for y in range(n)
            if m.mul(x, y) == m.identity
        )
    if prop == "acyclic":
        for y in range(n):
            for z in range(n):
                if y in us and z in us:
                    continue
                for x in range(n):
                    if m.mul(m.mul(y, x), z) == x:
                        return False
        return True
    if prop == "unit_cancellative":
        for y in range(n):
            if y in us:
                continue
            for x in range(n):
                if m.mul(x, y) == x or m.mul(y, x) == x:
                    return False
        return True
    if prop == "cancellative":
        for z in range(n):
            left = [m.mul(z, x) for x in range(n)]
            right = [m.mul(x, z) for x in range(n)]
            if len(set(left)) != n or len(set(right)) != n:
                return False
        return True
    raise ValidationError(f"unknown property {prop!r}; expected one of {PROPERTIES}")


class ElemClass(enum.Enum):
    UNIT = "unit"
    ATOM = "atom"
    REDUCIBLE = "reducible"


def classify(m: FiniteMonoid, x: int) -> ElemClass:
    """Trichotomy: unit, atom, or non-unit that factors into two non-units."""
    if x in units(m):
        return ElemClass.UNIT
    if x in atoms(m):
        return ElemClass.ATOM
    return ElemClass.REDUCIBLE


@dataclass(frozen=True)
class MonoidHom:
    """A validated monoid homomorphism given by its value table.

    atom_preserving is computed at construction, never supplied.
    """

    source: FiniteMonoid
    target: FiniteMonoid
    map: tuple[int, ...]
    atom_preserving: bool

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self) -> str:
        return f"MonoidHom({self.source!r} -> {self.target!r}, map={self.map})"


def new_hom(source: FiniteMonoid, target: FiniteMonoid, mapping: Sequence[int]) -> MonoidHom:
    """Validate a map as identity- and product-preserving.

    Products are checked against the source's generators only; a failure
    reports the same first failing pair (x, y) as a check of all pairs.
    """
    try:
        mp = tuple(mapping)
    except TypeError:
        raise ValidationError(f"map must be a sequence, not {type(mapping).__name__}") from None
    if len(mp) != source.size:
        raise ValidationError(f"map must have length {source.size}")
    _check_indices(mp, target.size, "map value")
    if mp[source.identity] != target.identity:
        raise NotIdentityPreservingError("map does not send identity to identity")
    if not _respects_generators(source, target, mp):
        raise NotMultiplicativeError(*_first_nonmultiplicative(source, target, mp))
    return _hom(source, target, mp)


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


def _hom(source: FiniteMonoid, target: FiniteMonoid, mp: tuple[int, ...]) -> MonoidHom:
    """Wrap a map already checked to be a hom, deciding atom preservation."""
    tgt_atoms = atoms(target)
    return MonoidHom(source, target, mp, all(mp[a] in tgt_atoms for a in atoms(source)))


def identity_hom(m: FiniteMonoid) -> MonoidHom:
    return new_hom(m, m, tuple(range(m.size)))


def compose(g: MonoidHom, f: MonoidHom) -> MonoidHom:
    """g after f."""
    if f.target != g.source:
        raise ValidationError("homs do not compose")
    return new_hom(f.source, g.target, tuple(g.map[v] for v in f.map))


def is_atomon_mono(f: MonoidHom) -> bool:
    """Monomorphism test: injectivity on atoms and units of the source."""
    if not f.atom_preserving:
        raise NotAtomPreservingError()
    core = atoms(f.source) | units(f.source)
    return len({f.map[x] for x in core}) == len(core)


def terminal_monoid() -> FiniteMonoid:
    """The three-element monoid {1, a, 0} with a*a = 0 and 0 absorbing."""
    return new_monoid(("1", "a", "0"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)


def trivial_monoid() -> FiniteMonoid:
    return new_monoid(("1",), ((0,),), 0)


def canonical_to_terminal(m: FiniteMonoid) -> MonoidHom:
    """The unique atom-preserving hom into the terminal monoid, by element class."""
    if not check_property(m, "atomic"):
        raise NotAtomicError("canonical map to the terminal object needs an atomic source")
    target = terminal_monoid()
    tag_to_index = {ElemClass.UNIT: 0, ElemClass.ATOM: 1, ElemClass.REDUCIBLE: 2}
    return new_hom(m, target, tuple(tag_to_index[classify(m, x)] for x in range(m.size)))


def eval_word(m: FiniteMonoid, word: Sequence[int]) -> int:
    """Left-to-right product of a word of element indices; empty word gives 1."""
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
    tgt_atoms = atoms(target)
    for symbol, image in images.items():
        if image not in tgt_atoms:
            raise ImageNotAtomError(symbol)
    try:
        substituted = [images[s] for s in word]
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
    closure of G and kept if it respects the generators. Still exponential
    in |G|: intended for desk-scale uniqueness checks.
    """
    gens = source.generators
    steps = _closure_steps(source.table, source.identity, gens)
    tgt = target.table
    maps = []
    for images in itertools.product(range(target.size), repeat=len(gens)):
        mp = [target.identity] * source.size
        for y, x, p in steps:
            mp[y] = tgt[mp[x]][images[p]]
        mp = tuple(mp)
        if _respects_generators(source, target, mp):
            maps.append(mp)
    for mp in sorted(maps):
        hom = _hom(source, target, mp)
        if atom_preserving_only and not hom.atom_preserving:
            continue
        yield hom


def submonoid_closure(m: FiniteMonoid, generators: Iterable[int]) -> list[int]:
    """Sorted element indices of the submonoid generated by the given elements."""
    found = {m.identity: None}
    _closure([m.identity], sorted(set(generators)), m.mul, found)
    return sorted(found)


def restrict_to_submonoid(m: FiniteMonoid, elements: Sequence[int]) -> tuple[FiniteMonoid, MonoidHom]:
    """Restrict the table to a multiplicatively closed element set.

    Returns the restricted monoid and the inclusion hom.
    """
    order = list(elements)
    back = {x: i for i, x in enumerate(order)}
    if m.identity not in back:
        raise ValidationError("a submonoid must contain the identity")
    try:
        table = [[back[m.mul(x, y)] for y in order] for x in order]
    except KeyError:
        raise ValidationError("element set is not closed under the product") from None
    sub = new_monoid([m.names[x] for x in order], table, back[m.identity])
    return sub, new_hom(sub, m, tuple(order))
