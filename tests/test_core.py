import importlib
import inspect
import itertools
import pkgutil
import re

import pytest

import atomon
from atomon import (
    ElemClass,
    atoms,
    canonical_to_terminal,
    check_property,
    classify,
    compose,
    enumerate_homs,
    eval_word,
    extend_atom_map,
    identity_hom,
    is_atomon_mono,
    new_hom,
    new_monoid,
    units,
)
from atomon.coproduct import Cocone, Family, ReducedWord, fp_length_system_bounded, fp_union_k
from atomon.coproduct import gamma_admissible, reduce
from atomon.core import FiniteMonoid, MonoidHom, terminal
from atomon.errors import (
    BadIdentityError,
    DuplicateNameError,
    ImageNotAtomError,
    NonAssociativeError,
    NotAtomicError,
    NotAtomPreservingError,
    NotIdentityPreservingError,
    NotMultiplicativeError,
    ValidationError,
)
from atomon.fixtures import c2, h2, m31, one, sl2, zero
from atomon.lengths import eps_from_window, length_set, length_system, power_layers, union_k
from atomon.limits import Congruence, coequalizer, congruence_closure, equalizer, pullback, quotient
from atomon.limits import pushout_eq_bounded, pushout_presentation
from atomon import oracles
from atomon.oracles import brute_force_lengths, fp_brute_force_lengths, reduced_words_upto
from atomon.product import ap_contains, ap_materialize, ap_union_k, ap_universal
from atomon.serialize import monoid_to_json, parse_element


def test_new_monoid_accepts_terminal_table():
    m = new_monoid(("1", "a", "0"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)
    assert m.size == 3
    assert m.mul(1, 1) == 2


def test_new_monoid_trivial():
    m = new_monoid(("1",), ((0,),), 0)
    assert m.size == 1 and m.identity == 0


def _refused(error, names, table, identity, match=None):
    """Both spellings, new_monoid and FiniteMonoid, refuse the table with
    the same error type and message."""
    raised = []
    for build in (new_monoid, FiniteMonoid):
        with pytest.raises(error, match=match) as info:
            build(names, table, identity)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_new_monoid_rejects_non_associative():
    # (x*x)*x = y*x = x but x*(x*x) = x*y = 1
    _refused(NonAssociativeError, ("1", "x", "y"), ((0, 1, 2), (1, 2, 0), (2, 1, 1)), 0)


def test_new_monoid_rejects_bad_tables():
    _refused(BadIdentityError, ("1", "x"), ((0, 0), (1, 1)), 0)
    _refused(DuplicateNameError, ("1", "1"), ((0, 1), (1, 0)), 0)
    _refused(ValidationError, ("1", "x"), ((0, 1), (1, 7)), 0)
    _refused(ValidationError, ("1", "x"), ((0, 1), 5), 0, match="table must be 2x2")
    _refused(ValidationError, 5, ((0,),), 0, match="names 5 are not a sequence")
    _refused(ValidationError, (), (), 0, match="at least one element")
    _refused(ValidationError, ("1", "x"), ((0, 1), (1,)), 0, match="table must be 2x2$")
    _refused(ValidationError, ("1", "x"), ((0, 1), (1, 1)), 2, match="identity index 2 out of range")


@pytest.mark.parametrize("names, bad", [([1, "x"], 1), (["1", 2.5], 2.5), (["1", None], None), (["1", b"x"], b"x")])
def test_new_monoid_refuses_names_that_are_not_strings(names, bad):
    _refused(ValidationError, names, ((0, 1), (1, 1)), 0, match=re.escape(f"name {bad!r} is not a string"))


def test_new_monoid_reports_the_first_failing_check():
    # a non-integer entry beats an out-of-range one, even one before it
    for table in (((0, 1), (7, 1.5)), ((0, 1.5), (1, 7))):
        _refused(ValidationError, ("1", "x"), table, 0, match="table entry 1.5 is not an integer")
    # an entry error beats an identity error
    _refused(ValidationError, ("1", "x"), ((0, 0), (1, 7)), 0, match=r"table entry 7 out of range \[0, 2\)")
    _refused(ValidationError, ("1", "x"), ((0, 1), (1, 7)), 2.0, match="table entry 7 out of range")
    # the products x·y with x, y != identity leave out the identity row and
    # column; an entry out of range there, and only there, is still found
    # first, and so it is when the identity index is unusable
    for identity in (0, 1, -1, 2, 2.0, True):
        for bad in (7, -1):
            for x, y in itertools.product(range(2), repeat=2):
                table = [[0, 1], [1, 1]]
                table[x][y] = bad
                _refused(ValidationError, ("1", "x"), table, identity, match=rf"table entry {bad} out of range \[0, 2\)")
    # a name error beats both
    _refused(ValidationError, (1, "x"), ((0, 0), (1.5, 7)), 0, match="name 1 is not a string")
    _refused(ValidationError, ("1", 1), ((0, 1), (1, 7)), 2.0, match="name 1 is not a string")


def test_finite_monoid_derives_its_generators():
    assert list(inspect.signature(FiniteMonoid).parameters) == ["names", "table", "identity"]
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "u"), ((0, 1), (1, 0)), 0, ())
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "u"), ((0, 1), (1, 0)), 0, generators=())
    # with no generators given, units and atoms are still right
    c2_built = FiniteMonoid(("1", "u"), ((0, 1), (1, 0)), 0)
    assert c2_built == c2() and c2_built.generators == c2().generators
    assert units(c2_built) == {0, 1}
    terminal_built = FiniteMonoid(("1", "a", "0"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)
    assert atoms(terminal_built) == {1}
    assert check_property(terminal_built, "atomic")


def test_units_examples():
    assert units(one()) == {0}
    assert units(c2()) == {0, 1}
    assert units(m31()) == {0}


def test_atoms_examples():
    assert atoms(one()) == {1}
    assert atoms(c2()) == frozenset()
    assert atoms(sl2()) == frozenset()  # e = e*e is reducible


def test_check_property_examples():
    assert check_property(one(), "atomic")
    assert not check_property(sl2(), "atomic")
    assert not check_property(one(), "unit_cancellative")  # 0*a = 0
    assert check_property(c2(), "cancellative")
    for m in (zero(), one(), c2(), h2(), m31(), sl2()):
        assert check_property(m, "dedekind_finite")
    with pytest.raises(ValidationError):
        check_property(one(), "commutative")


def test_classify_trichotomy_on_terminal():
    m = one()
    assert classify(m, 0) is ElemClass.UNIT
    assert classify(m, 1) is ElemClass.ATOM
    assert classify(m, 2) is ElemClass.REDUCIBLE


@pytest.mark.parametrize("x", [99, 3, -1, True, 1.0, "1"])
def test_classify_refuses_bad_element_indices(x):
    with pytest.raises(ValidationError):
        classify(terminal(), x)


def test_new_hom_examples():
    m = one()
    ident = new_hom(m, m, (0, 1, 2))
    assert ident.atom_preserving
    fold = new_hom(h2(), m, (0, 1, 1, 2))  # a,b -> a; 0 -> 0
    assert fold.atom_preserving
    with pytest.raises(NotMultiplicativeError):
        new_hom(c2(), m, (0, 1))  # u*u = 1 but a*a = 0
    with pytest.raises(NotIdentityPreservingError):
        new_hom(m, m, (1, 1, 2))
    with pytest.raises(ValidationError):
        new_hom(m, m, (0, 1))


def test_atom_preserving_is_derived_not_supplied():
    with pytest.raises(TypeError):
        MonoidHom(c2(), c2(), (0, 1), atom_preserving=True)
    atomic = (zero(), one(), c2(), h2(), m31())
    for source, target in itertools.product(atomic, repeat=2):
        for h in enumerate_homs(source, target, atom_preserving_only=False):
            expected = all(h.map[a] in atoms(target) for a in atoms(source))
            assert h.atom_preserving == expected
            assert MonoidHom(h.source, h.target, h.map).atom_preserving == expected


def test_is_atomon_mono():
    assert is_atomon_mono(identity_hom(h2()))
    assert not is_atomon_mono(new_hom(h2(), one(), (0, 1, 1, 2)))  # a, b collide
    assert is_atomon_mono(new_hom(zero(), one(), (0,)))
    not_preserving = new_hom(one(), one(), (0, 2, 2))
    assert not not_preserving.atom_preserving
    with pytest.raises(NotAtomPreservingError):
        is_atomon_mono(not_preserving)


def test_canonical_to_terminal():
    assert canonical_to_terminal(one()).map == (0, 1, 2)
    assert canonical_to_terminal(h2()).map == (0, 1, 1, 2)
    assert canonical_to_terminal(m31()).map == (0, 1, 2, 2)
    with pytest.raises(NotAtomicError):
        canonical_to_terminal(sl2())


def test_canonical_map_is_unique_up_to_size_six():
    target = terminal()
    for m in (zero(), one(), c2(), h2(), m31()):
        homs = list(enumerate_homs(m, target))
        assert homs == [canonical_to_terminal(m)]


def test_eval_word():
    m = one()
    assert eval_word(m, (1, 1)) == 2
    assert eval_word(m, ()) == m.identity
    assert eval_word(m31(), (1, 1, 1, 1)) == 3  # g^4 = g^3


def test_eval_word_concatenation():
    m = m31()
    words = list(itertools.product(range(m.size), repeat=2))
    for w1 in words:
        for w2 in words:
            assert eval_word(m, w1 + w2) == m.mul(eval_word(m, w1), eval_word(m, w2))


def test_extend_atom_map():
    m = one()
    assert extend_atom_map(m, {"x": 1}, ("x", "x")) == 2
    assert extend_atom_map(m, {"x": 1}, ()) == m.identity
    assert extend_atom_map(h2(), {"x": 1, "y": 2}, ("x", "y")) == 3
    with pytest.raises(ImageNotAtomError):
        extend_atom_map(m, {"x": 2}, ("x",))
    with pytest.raises(ValidationError):
        extend_atom_map(m, {"x": 1}, ("x", "z"))


@pytest.mark.parametrize("word", [[True], [1.0], [7], [-1], [1, "1"]])
def test_eval_word_refuses_non_element_indices(word):
    with pytest.raises(ValidationError):
        eval_word(one(), word)


@pytest.mark.parametrize("image", [True, 1.0, 7, -1, "1"])
def test_extend_atom_map_refuses_non_element_images(image):
    with pytest.raises(ValidationError):
        extend_atom_map(one(), {"x": image}, ["x", "x"])


def test_unit_conjugation_preserves_atoms():
    for m in (one(), c2(), h2(), m31()):
        ats, us = atoms(m), units(m)
        for u in us:
            for v in us:
                for x in range(m.size):
                    assert (x in ats) == (m.mul(m.mul(u, x), v) in ats)


def test_homs_preserve_element_classes():
    pairs = [(h2(), one()), (h2(), h2()), (m31(), one()), (c2(), c2())]
    for source, target in pairs:
        for f in enumerate_homs(source, target):
            for x in range(source.size):
                assert classify(source, x) is classify(target, f.map[x])


def test_compose_and_identity():
    f = new_hom(h2(), one(), (0, 1, 1, 2))
    assert compose(identity_hom(one()), f) == f
    assert compose(f, identity_hom(h2())) == f
    with pytest.raises(ValidationError, match="homs do not compose"):
        compose(f, f)
    for bad in (5, None, h2()):
        with pytest.raises(ValidationError, match="is not a MonoidHom"):
            compose(bad, f)
        with pytest.raises(ValidationError, match="is not a MonoidHom"):
            compose(f, bad)


def test_units_form_a_group():
    for m in (zero(), one(), c2(), h2(), m31(), sl2()):
        us = units(m)
        assert m.identity in us
        assert all(m.mul(u, v) in us for u in us for v in us)
        assert not (us & atoms(m))


# each count parameter of the library and of the oracles, as a call taking it
_ONE_C2 = Family([one(), c2()])
_A = ReducedWord(_ONE_C2, ((0, 1),))
_PUSHOUT = pushout_presentation(identity_hom(one()), identity_hom(one()))
COUNT_CALLS = {
    "union_k k": lambda n: union_k(m31(), n),
    "ap_union_k k": lambda n: ap_union_k(_ONE_C2, n),
    "fp_union_k k": lambda n: fp_union_k(_ONE_C2, n),
    "max_blocks": lambda n: fp_length_system_bounded(_ONE_C2, n),
    "depth": lambda n: pushout_eq_bounded(_PUSHOUT, _PUSHOUT.family.eps, _PUSHOUT.family.eps, n),
    "cap": lambda n: ap_materialize(_ONE_C2, n),
    "brute_force_lengths bound": lambda n: brute_force_lengths(one(), 1, n),
    "brute_force_lengths budget": lambda n: brute_force_lengths(one(), 1, 3, budget=n),
    "fp_brute_force_lengths bound": lambda n: fp_brute_force_lengths(_ONE_C2, _A, n),
    "fp_brute_force_lengths budget": lambda n: fp_brute_force_lengths(_ONE_C2, _A, 3, budget=n),
    "reduced_words_upto max_len": lambda n: reduced_words_upto(_ONE_C2, n),
    "union_k_oracle k": lambda n: oracles.union_k_oracle(_ONE_C2, n),
    "system_oracle max_blocks": lambda n: oracles.system_oracle(_ONE_C2, n),
    "json_members bound": lambda n: oracles.json_members(length_set(one(), 1), n),
    "all_partitions n": lambda n: oracles.all_partitions(n),
}


# None stands for the default search budget, so the budget is not given None
@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name in COUNT_CALLS for v in (1.5, True, "2", None) if not (v is None and name.endswith("budget"))],
)
def test_count_parameters_refuse_non_integers(name, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        COUNT_CALLS[name](value)


# each ordered-sequence parameter of the library, as a call taking it, with a
# value it accepts
SEQUENCE_CALLS = {
    "new_monoid names": (lambda v: new_monoid(v, ((0, 1), (1, 1)), 0), ("1", "x")),
    "new_monoid table": (lambda v: new_monoid(("1", "x"), v, 0), ((0, 1), (1, 1))),
    "new_monoid row": (lambda v: new_monoid(("1", "u"), ((0, 1), v), 0), (1, 0)),
    "new_hom map": (lambda v: new_hom(h2(), h2(), v), (0, 2, 1, 3)),
    "Family members": (lambda v: Family(v).members, (one(), c2())),
    "reduce word": (lambda v: reduce(_ONE_C2, v), ((0, 1), (1, 1), (1, 1))),
    "eval_word word": (lambda v: eval_word(one(), v), (1, 1)),
    "extend_atom_map word": (lambda v: extend_atom_map(h2(), {"x": 1, "y": 2}, v), ("x", "y")),
    "gamma_admissible index word": (lambda v: gamma_admissible(Family([one(), one()]), v), (0, 1)),
    "ap_contains tuple": (lambda v: ap_contains(Family([one(), one()]), v), (2, 2)),
    "eps_from_window bits": (lambda v: eps_from_window(v, 1, 1), (False, True, True)),
    "ap_universal homs": (lambda v: ap_universal(v, 2), (identity_hom(one()), identity_hom(one()))),
    "Cocone homs": (
        lambda v: Cocone(_ONE_C2, v)(reduce(_ONE_C2, [(0, 1), (1, 1)])),
        (identity_hom(one()), new_hom(c2(), one(), (0, 0))),
    ),
}
ORDERED = {"tuple": tuple, "list": list, "generator": lambda v: (x for x in v)}
# unordered or not iterable: their keys or characters are never read as the values
REFUSED = {
    "set": set,
    "frozenset": frozenset,
    "dict": dict.fromkeys,
    "str": lambda v: "01",
    "int": lambda v: 5,
    "None": lambda v: None,
}


@pytest.mark.parametrize("kind", [*ORDERED, *REFUSED])
@pytest.mark.parametrize("name", SEQUENCE_CALLS)
def test_sequence_parameters_read_ordered_iterables_only(name, kind):
    call, value = SEQUENCE_CALLS[name]
    if kind in ORDERED:
        assert call(ORDERED[kind](value)) == call(value)
    else:
        with pytest.raises(ValidationError):
            call(REFUSED[kind](value))


# each arrow parameter of the library, as a call taking one arrow f
_C2 = Family([c2()])
ARROW_CALLS = {
    "equalizer": lambda f: equalizer(f, f),
    "coequalizer": lambda f: coequalizer(f, f),
    "pullback": lambda f: pullback(f, f),
    "pushout_presentation": lambda f: pushout_presentation(f, f),
    "ap_universal": lambda f: ap_universal([f], 0),
    "Cocone": lambda f: Cocone(_C2, [f]),
    "is_atomon_mono": is_atomon_mono,
}
# arrows that are not arrows of AtoMon, with the error each gets
NON_ARROWS = {
    "not a hom": (lambda: 5, ValidationError),
    "a to 1": (lambda: new_hom(one(), one(), (0, 0, 0)), NotAtomPreservingError),
    "from sl2": (lambda: new_hom(sl2(), one(), (0, 2)), NotAtomicError),
    "into sl2": (lambda: new_hom(c2(), sl2(), (0, 0)), NotAtomicError),
}


@pytest.mark.parametrize("arrow", NON_ARROWS)
@pytest.mark.parametrize("site", ARROW_CALLS)
def test_arrow_parameters_take_atomon_arrows_only(site, arrow):
    make, error = NON_ARROWS[arrow]
    with pytest.raises(error):
        ARROW_CALLS[site](make())


def test_extend_atom_map_refuses_images_that_are_not_a_mapping():
    for images in ([1], ((1, "x"),), 5):
        with pytest.raises(ValidationError, match="not a mapping"):
            extend_atom_map(one(), images, ("x",))


# each monoid and congruence parameter of the library, by callable and
# parameter name, as a call taking it
MONOID_CALLS = {
    "units": {"m": units},
    "atoms": {"m": atoms},
    "check_property": {"m": lambda v: check_property(v, "atomic")},
    "classify": {"m": lambda v: classify(v, 0)},
    "eval_word": {"m": lambda v: eval_word(v, ())},
    "extend_atom_map": {"target": lambda v: extend_atom_map(v, {}, ())},
    "enumerate_homs": {
        "source": lambda v: list(enumerate_homs(v, one())),
        "target": lambda v: list(enumerate_homs(one(), v)),
    },
    "identity_hom": {"m": identity_hom},
    "canonical_to_terminal": {"m": canonical_to_terminal},
    "MonoidHom": {
        "source": lambda v: MonoidHom(v, one(), (0, 1, 2)),
        "target": lambda v: MonoidHom(one(), v, (0, 1, 2)),
    },
    "new_hom": {
        "source": lambda v: new_hom(v, one(), (0, 1, 2)),
        "target": lambda v: new_hom(one(), v, (0, 1, 2)),
    },
    "power_layers": {"m": power_layers},
    "length_set": {"m": lambda v: length_set(v, 0)},
    "length_system": {"m": length_system},
    "union_k": {"m": lambda v: union_k(v, 1)},
    "congruence_closure": {"m": lambda v: congruence_closure(v, [])},
    "Congruence": {"carrier": lambda v: Congruence(v, (0, 1, 2))},
    "quotient": {
        "m": lambda v: quotient(v, congruence_closure(one(), [])),
        "cong": lambda v: quotient(one(), v),
    },
    "monoid_to_json": {"m": monoid_to_json},
    "parse_element": {"m": lambda v: parse_element(v, "1")},
    "units_by_pairs": {"m": oracles.units_by_pairs},
    "atoms_by_pairs": {"m": oracles.atoms_by_pairs},
    "exhaustive_homs": {
        "source": lambda v: oracles.exhaustive_homs(v, one()),
        "target": lambda v: oracles.exhaustive_homs(one(), v),
    },
    "brute_force_lengths": {"m": lambda v: brute_force_lengths(v, 1, 3)},
    "union_k_by_fold": {"m": lambda v: oracles.union_k_by_fold(v, 1)},
    "is_congruence": {"m": lambda v: oracles.is_congruence(v, (0, 1, 2))},
}
NON_MONOIDS = {"int": 5, "None": None, "str": "m", "Family": Family([one()])}


@pytest.mark.parametrize("value", NON_MONOIDS)
@pytest.mark.parametrize(
    "name, parameter", [(name, parameter) for name, calls in MONOID_CALLS.items() for parameter in calls]
)
def test_monoid_parameters_refuse_non_monoids(name, parameter, value):
    with pytest.raises(ValidationError, match="is not a (FiniteMonoid|Congruence)"):
        MONOID_CALLS[name][parameter](NON_MONOIDS[value])


def annotated_parameters(*types) -> set[tuple[str, str]]:
    """(callable, parameter) for each parameter annotated with one of the
    types, over the public callables defined in every ``atomon`` module."""
    wanted = set(types) | {t.__name__ for t in types}
    found = set()
    for info in pkgutil.iter_modules(atomon.__path__):
        module = importlib.import_module(f"atomon.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            found.update((name, p.name) for p in parameters if p.annotation in wanted)
    return found


def test_every_monoid_parameter_is_in_the_table():
    # a new public callable taking a monoid or a congruence, in any module,
    # must be listed above, so that its check is tested
    annotated = annotated_parameters(FiniteMonoid, Congruence)
    assert annotated == {(name, parameter) for name, calls in MONOID_CALLS.items() for parameter in calls}
