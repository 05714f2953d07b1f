"""Seeded, scaled inputs for the benchmark, as plain data.

Every monoid builder returns a raw ``(names, table, identity)`` triple, so a
timed pass pays for validation itself. A seed only relabels elements,
reorders family members, or draws words and EPSet pairs. The algebraic
answers of the fixed-shape inputs are invariant under relabelling, which is
what lets one checked-in reference serve every seed.
"""

from __future__ import annotations

import itertools
import random

Raw = tuple  # (names: list[str], table: list[list[int]], identity: int)


def _from_labels(labels, mul, identity_label, name) -> Raw:
    index = {lab: i for i, lab in enumerate(labels)}
    table = [[index[mul(p, q)] for q in labels] for p in labels]
    return [name(lab) for lab in labels], table, index[identity_label]


def full_transformation(n: int) -> Raw:
    """T_n: all self-maps of {0..n-1}; x*y applies x first, then y."""
    maps = list(itertools.product(range(n), repeat=n))
    return _from_labels(
        maps,
        lambda x, y: tuple(y[v] for v in x),
        tuple(range(n)),
        lambda f: "t" + "".join(map(str, f)),
    )


def numerical_semigroup(k: int, cap: int) -> Raw:
    """The submonoid of ({0..cap}, min(x+y, cap)) generated by k and k+1."""
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [v for v in {min(x + g, cap) for x in frontier for g in (k, k + 1)} if v not in seen]
        seen.update(frontier)
    return _from_labels(sorted(seen), lambda x, y: min(x + y, cap), 0, str)


def monogenic(n: int) -> Raw:
    """{1, g, ..., g^(n-1)} with g^n = g^(n-1): x*y = min(i+j, n-1)."""
    names = ["1", "g"] + [f"g{i}" for i in range(2, n)]
    table = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    return names, table, 0


def nonassociative(base: int, late: bool, rng: random.Random) -> Raw:
    """A monogenic monoid of order ``base`` plus a two-element nilpotent
    block {b1, b2} with one corrupted entry, b1*b2 = b2 instead of the zero.

    Every associativity triple that exposes the corruption starts with b1.
    With ``late`` the block sits at the last two indices, so an i-j-k scan
    finds it only after nearly all of its n^3 checks; otherwise the block
    sits at indices 1 and 2, and the scan stops after about n checks. The
    seed shuffles the monogenic elements other than 1 among their own slots.
    """
    zero = ("g", base - 1)

    def mul(p, q):
        if p == ("g", 0):
            return q
        if q == ("g", 0):
            return p
        if p[0] == q[0] == "g":
            return ("g", min(p[1] + q[1], base - 1))
        if p == q == ("b", 1):
            return ("b", 2)
        if (p, q) == (("b", 1), ("b", 2)):
            return ("b", 2)  # the corrupted entry
        return zero

    powers = [("g", i) for i in range(1, base)]
    rng.shuffle(powers)
    block = [("b", 1), ("b", 2)]
    labels = [("g", 0)] + (powers + block if late else block + powers)
    return _from_labels(labels, mul, ("g", 0), lambda lab: f"{lab[0]}{lab[1]}")


def relabel(raw: Raw, rng: random.Random) -> tuple[Raw, list[int]]:
    """An isomorphic copy under a seeded permutation of the element indices.

    Names travel with their elements. Returns the copy and the permutation,
    as new index by old index.
    """
    names, table, identity = raw
    n = len(names)
    sigma = list(range(n))
    rng.shuffle(sigma)
    new_table = [[0] * n for _ in range(n)]
    for x in range(n):
        row, out = table[x], new_table[sigma[x]]
        for y in range(n):
            out[sigma[y]] = sigma[row[y]]
    new_names = [""] * n
    for x in range(n):
        new_names[sigma[x]] = names[x]
    return (new_names, new_table, sigma[identity]), sigma


# The desk fixtures, by their defining tables.
ONE = (["1", "a", "0"], [[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0)
C2 = (["1", "u"], [[0, 1], [1, 0]], 0)
H2 = (["1", "a", "b", "0"], [[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]], 0)
M31 = monogenic(4)
MEMBERS = {"one": ONE, "c2": C2, "h2": H2, "m31": M31}

# Lengths of each non-unit letter of ONE and M31, by element name: the least
# factorization length and whether every longer length occurs too.
LETTER_LENGTHS = {
    ("one", "a"): (1, False),
    ("one", "0"): (2, True),
    ("m31", "g"): (1, False),
    ("m31", "g2"): (2, False),
    ("m31", "g3"): (3, True),
}


def family(member_names, rng: random.Random) -> tuple[list[str], list[Raw]]:
    """Relabelled copies of the named fixtures, in a seeded member order."""
    order = list(member_names)
    rng.shuffle(order)
    return order, [relabel(MEMBERS[name], rng)[0] for name in order]


def random_reduced_word(members: list[Raw], length: int, rng: random.Random):
    """A reduced word of the given length: non-identity letters, adjacent
    letters from distinct members."""
    word = []
    for _ in range(length):
        choices = [i for i in range(len(members)) if not word or word[-1][0] != i]
        i = rng.choice(choices)
        names, _, identity = members[i]
        word.append((i, rng.choice([x for x in range(len(names)) if x != identity])))
    return word


def inflate(members: list[Raw], word, rng: random.Random):
    """A raw word congruent to ``word``: letters split into two factors of
    the same member, identity letters inserted, and unit pairs u*u^-1 added.
    Its reduced form is ``word`` itself."""
    out = []
    for i, x in word:
        names, table, identity = members[i]
        n = len(names)
        splits = [(y, z) for y in range(n) for z in range(n) if table[y][z] == x and identity not in (y, z)]
        if splits and rng.random() < 0.5:
            out.extend((i, v) for v in rng.choice(splits))
        else:
            out.append((i, x))
        if rng.random() < 0.3:
            j = rng.randrange(len(members))
            out.append((j, members[j][2]))
        if rng.random() < 0.3:
            j = rng.randrange(len(members))
            jn, jt, jid = members[j]
            pairs = [(u, v) for u in range(len(jn)) for v in range(len(jn)) if u != jid and jt[u][v] == jid]
            if pairs:
                out.extend((j, v) for v in rng.choice(pairs))
    return out


def random_epset(rng: random.Random, threshold: int, period: int) -> dict:
    """A seeded EPSet in the JSON form of ``atomon.serialize``, with a
    non-empty tail, threshold at most ``threshold`` and period at most
    ``period``."""
    t = rng.randint(0, threshold)
    p = rng.randint(1, period)
    return {
        "threshold": t,
        "head": sorted(n for n in range(t) if rng.random() < 0.5),
        "period": p,
        "tail": sorted({r for r in range(p) if rng.random() < 0.4} | {rng.randrange(p)}),
    }
