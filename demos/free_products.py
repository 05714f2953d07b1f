"""Walkthrough: free products of atomic monoids.

Elements are reduced words; units, atoms, and length sets have closed
descriptions in terms of the members, each checked here against a direct
search in the free product itself.
"""

from atomon import (
    Family,
    coprojection,
    fp_is_atom,
    fp_is_unit,
    fp_length_set,
    fp_length_system_bounded,
    fp_mul,
    fp_union_k,
    gamma_admissible,
    reduce,
)
from atomon.fixtures import c2, one
from atomon.oracles import fp_brute_force_lengths, reduced_words_upto
from atomon.serialize import eps_to_text, word_to_text


def main():
    fam = Family([one(), c2()])
    print("Family: member 0 is {1, a, 0}, member 1 is the two-element group")

    print("\nReduction merges same-member runs and drops identities:")
    for raw in ([(0, 1), (0, 1)], [(0, 0)], [(1, 1), (1, 1)], [(0, 1), (1, 1), (0, 1)]):
        w = reduce(fam, raw)
        print(f"  {raw} reduces to {word_to_text(fam, w)}")

    print("\nMultiplication concatenates and re-reduces:")
    x = reduce(fam, [(0, 1), (1, 1)])
    y = reduce(fam, [(1, 1), (0, 1)])
    print(
        f"  {word_to_text(fam, x)} * {word_to_text(fam, y)}"
        f" = {word_to_text(fam, fp_mul(fam, x, y))}  (the units cancel, then a*a = 0)"
    )

    print("\nA word is a unit iff every letter is; an atom iff exactly one")
    print("letter is a non-unit and that letter is an atom of its member:")
    for w in reduced_words_upto(fam, 2):
        flags = []
        if fp_is_unit(fam, w):
            flags.append("unit")
        if fp_is_atom(fam, w):
            flags.append("atom")
        if flags:
            print(f"  {word_to_text(fam, w):18s} {', '.join(flags)}")

    print("\nLength sets add over the non-unit letters (unit letters vanish):")
    w = reduce(fam, [(0, 2), (1, 1), (0, 1)])
    print(f"  L({word_to_text(fam, w)}) = {eps_to_text(fp_length_set(fam, w))}")
    print(f"  search up to 10 finds {sorted(fp_brute_force_lengths(fam, w, 10))}")

    print("\nAdmissible index words track where unit separators can come from;")
    print("here only member 1 has non-trivial units, so its index cannot repeat:")
    for iw in ((0, 0), (1, 1), (0, 1, 0)):
        print(f"  {iw}: {gamma_admissible(fam, iw)}")

    print("\nBounded system of non-zero length sets (sums over admissible words):")
    system = fp_length_system_bounded(fam, 2)
    print(f"  {'; '.join(eps_to_text(e) for e in system)}  (truncated at {system.truncated_at})")

    print("\nUnions of length sets are exact, via compositions of k:")
    for k in (1, 2, 3):
        print(f"  U_{k} = {eps_to_text(fp_union_k(fam, k))}")

    print("\nCoprojections embed each member; images of identities vanish:")
    print(f"  member 0, a: {word_to_text(fam, coprojection(fam, 0, 1))}")
    print(f"  member 1, 1: {word_to_text(fam, coprojection(fam, 1, 0))}")

    print("\nThe free product has more atoms than its members combined")
    print("(unit decorations create new ones):")
    atom_words = [w for w in reduced_words_upto(fam, 3) if fp_is_atom(fam, w)]
    print(f"  atoms among words of length <= 3: {[word_to_text(fam, w) for w in atom_words]}")


if __name__ == "__main__":
    main()
