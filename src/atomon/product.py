"""The categorical product of atomic monoids: the submonoid of the direct
product generated by all-unit tuples and all-atom tuples.

Membership and length sets are decided by exact length-set intersection;
materialization is optional and size-capped. ``_product_submonoid`` builds
the submonoid of a direct product generated by given tuples, with its
projections; it materializes the product here and the pullback in
``limits``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import FiniteMonoid, MonoidHom, _closure, atoms, new_hom, new_monoid, units
from .coproduct import Family
from .errors import (
    NotAtomPreservingError,
    NotInProductError,
    SourceMismatchError,
    ValidationError,
)
from .lengths import (
    EMPTY,
    ZERO_ONLY,
    EPSet,
    LengthSystem,
    eps_intersect,
    length_set,
    length_system,
    union_k,
)

TupleElem = tuple  # one element index per family member


@dataclass(frozen=True)
class ProductGenerators:
    unit_tuples: frozenset[TupleElem]
    atom_tuples: frozenset[TupleElem]


def _check_tuple(family: Family, t: Sequence[int]) -> TupleElem:
    if len(t) != len(family.members):
        raise ValidationError(f"tuple must have {len(family.members)} components")
    for i, x in enumerate(t):
        if not 0 <= x < family.members[i].size:
            raise ValidationError(f"component {i} out of range")
    return tuple(t)


def ap_generators(family: Family) -> ProductGenerators:
    unit_tuples = frozenset(itertools.product(*(sorted(units(m)) for m in family.members)))
    atom_tuples = frozenset(itertools.product(*(sorted(atoms(m)) for m in family.members)))
    return ProductGenerators(unit_tuples, atom_tuples)


def _intersection(family: Family, t: TupleElem) -> EPSet:
    acc = None
    for m, x in zip(family.members, t):
        ls = length_set(m, x)
        acc = ls if acc is None else eps_intersect(acc, ls)
        if acc.is_empty:
            return EMPTY
    return acc


def ap_contains(family: Family, t: Sequence[int]) -> bool:
    """A tuple lies in the product iff it is all-units or a non-empty
    product of all-atom tuples, i.e. the component length sets share a
    positive length."""
    t = _check_tuple(family, t)
    if all(x in units(m) for m, x in zip(family.members, t)):
        return True
    return _intersection(family, t).has_positive()


def tuple_mul(family: Family, s: TupleElem, t: TupleElem) -> TupleElem:
    return tuple(m.mul(x, y) for m, x, y in zip(family.members, s, t))


def identity_tuple(family: Family) -> TupleElem:
    return tuple(m.identity for m in family.members)


def _product_submonoid(
    members: Sequence[FiniteMonoid],
    generators: Iterable[TupleElem],
    cap: int | None = None,
) -> tuple[FiniteMonoid, tuple[MonoidHom, ...]]:
    """The submonoid of the direct product of the members generated by the
    given tuples, with one projection onto each member.

    Elements are indexed in breadth-first discovery order from the identity
    tuple over the sorted generators and named "(x1,...,xk)". Raises
    CapExceededError once more than ``cap`` elements are found.
    """
    def mul(s: TupleElem, t: TupleElem) -> TupleElem:
        return tuple(m.mul(x, y) for m, x, y in zip(members, s, t))

    found = {tuple(m.identity for m in members): None}
    _closure(list(found), sorted(set(generators)), mul, found, cap)
    index = {t: i for i, t in enumerate(found)}
    table = [[index[mul(s, t)] for t in index] for s in index]
    names = ["(" + ",".join(m.names[x] for m, x in zip(members, t)) + ")" for t in index]
    apex = new_monoid(names, table, 0)
    return apex, tuple(
        new_hom(apex, m, tuple(t[i] for t in index)) for i, m in enumerate(members)
    )


def ap_materialize(family: Family, cap: int) -> tuple[FiniteMonoid, tuple[MonoidHom, ...]]:
    """Materialize the product as a multiplication table with its projections,
    if it has at most ``cap`` elements.

    The tuple of element i is ``tuple(p.map[i] for p in projections)``.
    """
    if cap < 1:
        raise ValidationError("cap must be positive")
    gens = ap_generators(family)
    return _product_submonoid(family.members, gens.unit_tuples | gens.atom_tuples, cap)


def ap_is_unit(family: Family, t: Sequence[int]) -> bool:
    t = _check_tuple(family, t)
    if not ap_contains(family, t):
        raise NotInProductError(f"{t} is not in the product")
    return t in ap_generators(family).unit_tuples


def ap_is_atom(family: Family, t: Sequence[int]) -> bool:
    t = _check_tuple(family, t)
    if not ap_contains(family, t):
        raise NotInProductError(f"{t} is not in the product")
    return t in ap_generators(family).atom_tuples


def ap_length_set(family: Family, t: Sequence[int]) -> EPSet:
    """Length set in the product: the intersection of the component length sets."""
    t = _check_tuple(family, t)
    if not ap_contains(family, t):
        raise NotInProductError(f"{t} is not in the product")
    return _intersection(family, t)


def ap_length_system(family: Family, nonzero_only: bool = False) -> LengthSystem:
    """All non-empty intersections of one length set per member. Exact."""
    member_systems = [
        sorted(length_system(m), key=EPSet.sort_key) for m in family.members
    ]
    entries = set()
    for choice in itertools.product(*member_systems):
        acc = choice[0]
        for part in choice[1:]:
            acc = eps_intersect(acc, part)
            if acc.is_empty:
                break
        if not acc.is_empty:
            entries.add(acc)
    if nonzero_only:
        entries.discard(ZERO_ONLY)
    return LengthSystem(frozenset(entries))


def ap_union_k(family: Family, k: int) -> EPSet:
    """Union of product length sets containing k: the intersection of the
    member unions."""
    if k < 0:
        raise ValidationError("k must be non-negative")
    acc = None
    for m in family.members:
        u = union_k(m, k)
        acc = u if acc is None else eps_intersect(acc, u)
        if acc.is_empty:
            return EMPTY
    return acc


def ap_universal(homs: Sequence[MonoidHom], w: int) -> TupleElem:
    """The induced morphism into the product: componentwise application."""
    if not homs:
        raise ValidationError("need at least one hom")
    source = homs[0].source
    for i, h in enumerate(homs):
        if h.source != source:
            raise SourceMismatchError(f"hom {i} has a different source")
        if not h.atom_preserving:
            raise NotAtomPreservingError(i)
    if not 0 <= w < source.size:
        raise ValidationError(f"element {w} out of range")
    return tuple(h.map[w] for h in homs)
