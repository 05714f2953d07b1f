"""Walkthrough: factorization length sets as eventually periodic sets.

Length sets of finite monoids are exactly representable: a finite
exceptional part plus a periodic tail. This demo computes them through
the layer recurrence and cross-checks against brute-force enumeration.
"""

from atomon import (
    eps_intersect,
    eps_minkowski_sum,
    eps_union,
    length_set,
    length_system,
    power_layers,
    union_k,
)
from atomon.fixtures import c2, h2, m31, one
from atomon.oracles import brute_force_lengths
from atomon.serialize import eps_to_text


def main():
    m = one()
    print("Layers of {1, a, 0}: S_k = elements that are products of k atoms")
    seq = power_layers(m)
    for k, layer in enumerate(seq.layers, start=1):
        print(f"  S_{k} = {{{', '.join(m.names[x] for x in sorted(layer))}}}")
    print(f"  eventually periodic: preperiod {seq.preperiod}, period {seq.period}")

    print("\nLength sets of each element:")
    for x in range(m.size):
        print(f"  L({m.names[x]}) = {eps_to_text(length_set(m, x))}")

    print("\nBrute force agrees (enumerating atom products up to length 12):")
    for x in range(m.size):
        closed = set(length_set(m, x).members_upto(12))
        oracle = brute_force_lengths(m, x, 12)
        print(f"  {m.names[x]}: {sorted(oracle)} match={closed == oracle}")

    print("\nThe system of length sets deduplicates over all elements:")
    for name, fixture in (("one", one()), ("m31", m31()), ("h2", h2()), ("c2", c2())):
        entries = "; ".join(eps_to_text(e) for e in length_system(fixture)) or "(empty)"
        print(f"  {name}: {entries}")

    print("\nUnions of length sets containing k:")
    for k in range(4):
        print(f"  U_{k}(one) = {eps_to_text(union_k(m, k))}")

    print("\nEventually periodic sets form an exact little algebra:")
    a = length_set(m, 2)  # all lengths >= 2
    b = length_set(m, 1)  # {1}
    print(f"  {eps_to_text(a)} + {eps_to_text(b)} = {eps_to_text(eps_minkowski_sum(a, b))}")
    print(f"  {eps_to_text(a)} | {eps_to_text(b)} = {eps_to_text(eps_union(a, b))}")
    print(f"  {eps_to_text(a)} & {eps_to_text(b)} = {eps_to_text(eps_intersect(a, b))}")


if __name__ == "__main__":
    main()
