"""The categorical product of atomic monoids: the submonoid of the direct
product generated by all-unit tuples and all-atom tuples.

Membership and length sets are decided by exact length-set intersection;
materialization is optional and size-capped. ``_limit`` is the one
construction of a limit in AtoMon: the submonoid of a direct product
generated by the compatible all-unit and all-atom tuples, with its
projections. It materializes the product here, and the pullback and the
equalizer in ``limits``; ``_tuples`` picks the tuples, for it and for
``ap_generators``. The homs given to ``ap_universal`` must be AtoMon arrows,
atom-preserving homs between atomic monoids, as ``core._arrows`` checks.
Every function taking a family refuses anything that is not a ``Family``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from .core import FiniteMonoid, MonoidHom, _arrows, _check_count, _check_indices, _closure, _sequence, _tabulate, atoms
from .core import _Value, new_hom, units
from .coproduct import Family, _check_family
from .errors import NotInProductError, ValidationError
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


class ProductGenerators(_Value):
    __slots__ = ("unit_tuples", "atom_tuples")

    def __init__(self, unit_tuples: frozenset[TupleElem], atom_tuples: frozenset[TupleElem]) -> None:
        self._set(unit_tuples, atom_tuples)


def _check_tuple(family: Family, t: Sequence[int]) -> TupleElem:
    _check_family(family)
    t = _sequence(t, "tuple {!r} is not a sequence of element indices")
    if len(t) != len(family.members):
        raise ValidationError(f"tuple must have {len(family.members)} components")
    _check_indices(t, max(m.size for m in family.members), "component")
    for i, (m, x) in enumerate(zip(family.members, t)):
        if x >= m.size:
            raise ValidationError(f"component {i} out of range")
    return t


def _tuples(objects: Sequence[FiniteMonoid], kind: Callable, agree: Callable | None = None) -> list[TupleElem]:
    """The tuples of one element of ``kind(o)`` per object o, ``kind`` being
    ``units`` or ``atoms``, in sorted order; those on which ``agree`` holds."""
    tuples = itertools.product(*(sorted(kind(o)) for o in objects))
    return list(tuples) if agree is None else [t for t in tuples if agree(*t)]


def ap_generators(family: Family) -> ProductGenerators:
    _check_family(family)
    return ProductGenerators(frozenset(_tuples(family.members, units)), frozenset(_tuples(family.members, atoms)))


def _membership(family: Family, t: Sequence[int], strict: bool = False) -> tuple[TupleElem, EPSet | None]:
    """t, checked, with its length set ∩ L(t_i) if t lies in the product;
    else None, or NotInProductError if ``strict``. The one tuple check and
    intersection of the element queries."""
    t = _check_tuple(family, t)
    meet = functools.reduce(eps_intersect, map(length_set, family.members, t))
    if meet.has_positive() or all(x in units(m) for m, x in zip(family.members, t)):
        return t, meet
    if strict:
        raise NotInProductError(f"{t} is not in the product")
    return t, None


def ap_contains(family: Family, t: Sequence[int]) -> bool:
    """A tuple lies in the product iff it is all-units or a non-empty
    product of all-atom tuples, i.e. the component length sets share a
    positive length."""
    return _membership(family, t)[1] is not None


def _limit(
    objects: Sequence[FiniteMonoid], agree: Callable | None = None, cap: int | None = None
) -> tuple[FiniteMonoid, tuple[MonoidHom, ...]]:
    """The limit in AtoMon of a diagram on ``objects``: the submonoid of
    their direct product generated by the all-unit and all-atom tuples
    (x1, ..., xk) on which the diagram's arrows agree, ``agree(x1, ..., xk)``
    (every tuple when it is None), with one projection onto each object.

    Elements are indexed in breadth-first discovery order from the identity
    tuple over the sorted generators and named "(x1,...,xk)". Raises
    CapExceededError once more than ``cap`` elements are found.
    """
    def mul(s: TupleElem, t: TupleElem) -> TupleElem:
        return tuple(m.mul(x, y) for m, x, y in zip(objects, s, t))

    gens = sorted({*_tuples(objects, units, agree), *_tuples(objects, atoms, agree)})
    found = {tuple(m.identity for m in objects): None}
    _closure(list(found), gens, mul, found, cap)
    elements = list(found)
    names = ["(" + ",".join(m.names[x] for m, x in zip(objects, t)) + ")" for t in elements]
    apex = _tabulate(elements, mul, names, elements[0])
    return apex, tuple(new_hom(apex, m, tuple(t[i] for t in elements)) for i, m in enumerate(objects))


def ap_materialize(family: Family, cap: int) -> tuple[FiniteMonoid, tuple[MonoidHom, ...]]:
    """Materialize the product as a multiplication table with its projections,
    if it has at most ``cap`` elements.

    The tuple of element i is ``tuple(p.map[i] for p in projections)``.
    """
    _check_count(cap, "cap", 1)
    _check_family(family)
    return _limit(family.members, cap=cap)


def ap_is_unit(family: Family, t: Sequence[int]) -> bool:
    """Whether t is a unit tuple: every component a unit of its member."""
    t, _ = _membership(family, t, strict=True)
    return all(x in units(m) for m, x in zip(family.members, t))


def ap_is_atom(family: Family, t: Sequence[int]) -> bool:
    """Whether t is an atom tuple: every component an atom of its member."""
    t, _ = _membership(family, t, strict=True)
    return all(x in atoms(m) for m, x in zip(family.members, t))


def ap_length_set(family: Family, t: Sequence[int]) -> EPSet:
    """Length set in the product: the intersection of the component length sets."""
    return _membership(family, t, strict=True)[1]


def ap_length_system(family: Family, nonzero_only: bool = False) -> LengthSystem:
    """All non-empty intersections of one length set per member. Exact.

    Folded member by member, D <- {d ∩ e : d in D, e in system_j} - {EMPTY}:
    ∩ is associative and EMPTY absorbs, so a choice whose partial
    intersection is already empty, or equal to another's, adds nothing new.
    Each step costs |D|·|system_j| intersections, where the product of
    choices costs ∏ |system_j|.
    """
    def meet(entries, system):
        return {eps_intersect(d, e) for d in entries for e in system} - {EMPTY}

    _check_family(family)
    systems = [length_system(m).entries for m in family.members]
    entries = functools.reduce(meet, systems[1:], systems[0])
    if nonzero_only:
        entries -= {ZERO_ONLY}
    return LengthSystem(frozenset(entries))


def ap_union_k(family: Family, k: int) -> EPSet:
    """Union of product length sets containing k: the intersection of the
    member unions. Each member's U_k is a lookup in its table (see
    ``union_k``), so after the first call per member this costs |family| - 1
    intersections for any k."""
    _check_family(family)
    _check_count(k, "k")
    return functools.reduce(eps_intersect, (union_k(m, k) for m in family.members))


def ap_universal(homs: Sequence[MonoidHom], w: int) -> TupleElem:
    """The induced morphism into the product: componentwise application."""
    homs = _arrows(homs, "source")
    _check_indices((w,), homs[0].source.size, "element index")
    return tuple(h.map[w] for h in homs)
