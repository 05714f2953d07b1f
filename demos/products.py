"""Walkthrough: the categorical product of atomic monoids.

The right product object is not the full direct product but the submonoid
generated by all-unit tuples and all-atom tuples. Membership and length
sets reduce to exact intersections of component data.
"""

from atomon import (
    Family,
    ap_contains,
    ap_generators,
    ap_is_atom,
    ap_is_unit,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
    ap_universal,
    identity_hom,
    length_set,
    units,
)
from atomon.fixtures import c2, m31, one
from atomon.serialize import eps_to_text


def main():
    fam = Family([one(), one()])
    gens = ap_generators(fam)
    print("Family {1,a,0} x {1,a,0}:")
    print(f"  unit tuples: {sorted(gens.unit_tuples)}")
    print(f"  atom tuples: {sorted(gens.atom_tuples)}")

    print("\nMembership is decided by intersecting component length sets;")
    print("(0,a) is outside because lengths >= 2 and exactly 1 cannot agree:")
    for t in ((2, 2), (2, 1), (0, 0)):
        print(f"  {t}: contains={ap_contains(fam, t)}")

    print("\nMaterialized, the product here is a 3-element monoid again:")
    mat, projections = ap_materialize(fam, 60)
    print(f"  elements: {mat.names}")
    print(f"  (a,a) is an atom: {ap_is_atom(fam, (1, 1))}")
    print(f"  (1,1) is a unit:  {ap_is_unit(fam, (0, 0))}")

    print("\nLength sets are intersections, and they match the table:")
    for i, t in enumerate(zip(*(p.map for p in projections))):
        formula = ap_length_set(fam, t)
        table = length_set(mat, i)
        print(f"  L{t} = {eps_to_text(formula)}  table agrees: {formula == table}")

    print("\nThe same intersection shape gives the whole system and unions:")
    mixed = Family([one(), m31()])
    print(f"  system over (one, m31): {'; '.join(eps_to_text(e) for e in ap_length_system(mixed))}")
    for k in (0, 1, 3):
        print(f"  U_{k} = {eps_to_text(ap_union_k(mixed, k))}")

    print("\nA family of groups has no atom tuples; the product is the")
    print("direct product group:")
    groups = Family([c2(), c2()])
    g, _ = ap_materialize(groups, 60)
    print(f"  size {g.size}, all units: {units(g) == frozenset(range(g.size))}")

    print("\nThe induced map into the product is componentwise application:")
    phis = [identity_hom(one()), identity_hom(one())]
    print(f"  sigma(0) = {ap_universal(phis, 2)} (contained: {ap_contains(fam, (2, 2))})")


if __name__ == "__main__":
    main()
