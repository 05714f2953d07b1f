"""Named fixture monoids and seeded random small monoids for the verify suites."""

from __future__ import annotations

import random

from .core import FiniteMonoid, _closure, check_property, new_monoid, terminal_monoid, trivial_monoid
from .errors import CapExceededError


def zero() -> FiniteMonoid:
    """The one-element monoid."""
    return trivial_monoid()


def one() -> FiniteMonoid:
    """{1, a, 0} with a*a = 0 and 0 absorbing."""
    return terminal_monoid()


def c2() -> FiniteMonoid:
    """The two-element group."""
    return new_monoid(("1", "u"), ((0, 1), (1, 0)), 0)


def h2() -> FiniteMonoid:
    """{1, a, b, 0}: every product of two non-units is 0."""
    return new_monoid(
        ("1", "a", "b", "0"),
        ((0, 1, 2, 3), (1, 3, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3)),
        0,
    )


def m31() -> FiniteMonoid:
    """The monogenic monoid with g^4 = g^3."""
    names = ("1", "g", "g2", "g3")
    table = tuple(tuple(min(i + j, 3) for j in range(4)) for i in range(4))
    return new_monoid(names, table, 0)


def sl2() -> FiniteMonoid:
    """Two-element semilattice {1, e}, e*e = e. Not atomic."""
    return new_monoid(("1", "e"), ((0, 1), (1, 1)), 0)


def named_fixtures() -> dict[str, FiniteMonoid]:
    return {
        "zero": zero(),
        "one": one(),
        "c2": c2(),
        "h2": h2(),
        "m31": m31(),
        "sl2": sl2(),
    }


def atomic_fixtures() -> dict[str, FiniteMonoid]:
    return {name: m for name, m in named_fixtures().items() if check_property(m, "atomic")}


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f[g[i]] for i in range(len(g)))


def random_monoid(seed: int, max_size: int = 5) -> FiniteMonoid:
    """A random monoid of at most max_size elements.

    Built as the closure of random self-maps of a small set under
    composition (a submonoid of a full transformation monoid), which is
    associative by construction; oversized closures are rejected and
    redrawn. Deterministic per seed.
    """
    rng = random.Random(seed)
    while True:
        base = rng.randint(2, 3)
        ident = tuple(range(base))
        gens = [
            tuple(rng.randrange(base) for _ in range(base))
            for _ in range(rng.randint(1, 2))
        ]
        found = {ident: None}
        try:
            _closure([ident], gens, _compose, found, max_size)
        except CapExceededError:
            continue
        if len(found) < 2:
            continue
        elements = list(found)
        index = {f: i for i, f in enumerate(elements)}
        table = [[index[_compose(f, g)] for g in elements] for f in elements]
        names = ["t" + "".join(str(v) for v in f) for f in elements]
        return new_monoid(names, table, 0)


def random_fixtures(count: int, max_size: int = 5, seed_base: int = 0) -> list[FiniteMonoid]:
    return [random_monoid(seed_base + i, max_size) for i in range(count)]
