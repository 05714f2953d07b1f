"""Exact computations with finite atomic monoids.

Multiplication-table monoids, factorization length sets as eventually
periodic subsets of the naturals, free products with reduced-word normal
forms, the generated-submonoid product, and the remaining limit and
colimit constructions, each cross-checked against independent oracles.
"""

from .core import (
    ElemClass,
    FiniteMonoid,
    MonoidHom,
    atoms,
    canonical_to_terminal,
    check_property,
    classify,
    compose,
    enumerate_homs,
    eval_word,
    extend_atom_map,
    identity_hom,
    initial,
    is_atomon_mono,
    new_hom,
    new_monoid,
    terminal,
    units,
)
from .coproduct import (
    Cocone,
    Family,
    Letter,
    ReducedWord,
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
from .lengths import (
    EMPTY,
    ZERO_ONLY,
    EPSet,
    LayerSequence,
    LengthSystem,
    eps_cofinite,
    eps_finite,
    eps_from_window,
    eps_intersect,
    eps_minkowski_sum,
    eps_sum_many,
    eps_union,
    length_set,
    length_system,
    power_layers,
    union_k,
)
from .limits import (
    Congruence,
    PushoutPresentation,
    Reachability,
    coequalizer,
    congruence_closure,
    equalizer,
    pullback,
    pushout_eq_bounded,
    pushout_presentation,
    quotient,
)
from .product import (
    ProductGenerators,
    ap_contains,
    ap_generators,
    ap_is_atom,
    ap_is_unit,
    ap_length_set,
    ap_length_system,
    ap_materialize,
    ap_union_k,
    ap_universal,
)

__version__ = "0.1.0"
