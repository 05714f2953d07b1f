"""The contract of the nine value types the constructions return: which
fields ``==`` and ``hash`` read, the ``repr``, immutability, and how copies
and pickles come back. The ``repr`` strings are the ones these instances
have always printed; a change to any of them is a change of output."""

import copy
import pickle

import pytest

from atomon.coproduct import Cocone, Family, fp_length_set, reduce
from atomon.core import identity_hom, new_hom
from atomon.errors import ValidationError
from atomon.fixtures import c2, m31, one
from atomon.lengths import LengthSystem, eps_finite, power_layers
from atomon.limits import PushoutPresentation, congruence_closure
from atomon.product import ap_generators
from atomon.verify import VerifyReport

ONE_C2 = Family([one(), c2()])
C2_C2 = Family([c2(), c2()])

# one instance of each type, built afresh on each call over the shared families
BUILD = {
    "MonoidHom": lambda: new_hom(c2(), one(), (0, 0)),
    "ReducedWord": lambda: reduce(ONE_C2, [(0, 1), (1, 1)]),
    "Cocone": lambda: Cocone(Family([c2()]), (identity_hom(c2()),)),
    "LayerSequence": lambda: power_layers(m31()),
    "LengthSystem": lambda: LengthSystem(frozenset({eps_finite([1])}), truncated_at=3),
    "Congruence": lambda: congruence_closure(m31(), [(1, 2)]),
    "PushoutPresentation": lambda: PushoutPresentation(C2_C2, (((), ()), (((0, 1),), ((1, 1),)))),
    "ProductGenerators": lambda: ap_generators(Family([one(), m31()])),
    "VerifyReport": lambda: VerifyReport("coequalizers", 2, ["a"], 0.5),
}

# the fields of each type in order, and those that == and hash read (None: by identity)
FIELDS = {
    "MonoidHom": (("source", "target", "map", "atom_preserving"), "all"),
    "ReducedWord": (("family", "letters"), "all"),
    "Cocone": (("family", "homs"), None),
    "LayerSequence": (("layers", "preperiod", "period"), "all"),
    "LengthSystem": (("entries", "truncated_at"), ("entries",)),
    "Congruence": (("carrier", "leader"), "all"),
    "PushoutPresentation": (("family", "relation_pairs"), "all"),
    "ProductGenerators": (("unit_tuples", "atom_tuples"), "all"),
    "VerifyReport": (("suite", "cases", "mismatches", "wall_time"), "all"),
}

REPRS = {
    "MonoidHom": "MonoidHom(FiniteMonoid(size=2, names=('1', 'u')) -> FiniteMonoid(size=3, names=('1', 'a', '0')), "
    "map=(0, 0))",
    "ReducedWord": "ReducedWord(letters=(Letter(mon=0, elem=1), Letter(mon=1, elem=1)))",
    "Cocone": "Cocone(family=Family([FiniteMonoid(size=2, names=('1', 'u'))]), homs=(MonoidHom(FiniteMonoid(size=2, "
    "names=('1', 'u')) -> FiniteMonoid(size=2, names=('1', 'u')), map=(0, 1)),))",
    "LayerSequence": "LayerSequence(layers=(frozenset({1}), frozenset({2}), frozenset({3})), preperiod=3, period=1)",
    "LengthSystem": "LengthSystem(entries=frozenset({EPSet(T=2, head=[1], p=1, tail=[])}), truncated_at=3)",
    "Congruence": "Congruence(carrier=FiniteMonoid(size=4, names=('1', 'g', 'g2', 'g3')), leader=(0, 1, 1, 1))",
    "PushoutPresentation": "PushoutPresentation(family=Family([FiniteMonoid(size=2, names=('1', 'u')), "
    "FiniteMonoid(size=2, names=('1', 'u'))]), relation_pairs=(((), ()), ((Letter(mon=0, elem=1),), "
    "(Letter(mon=1, elem=1),))))",
    "ProductGenerators": "ProductGenerators(unit_tuples=frozenset({(0, 0)}), atom_tuples=frozenset({(1, 1)}))",
    "VerifyReport": "VerifyReport(suite='coequalizers', cases=2, mismatches=['a'], wall_time=0.5)",
}

CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v))}


def _fields(value) -> tuple[str, ...]:
    return value._fields if isinstance(value, tuple) else value.__slots__


def _variant(value, field):
    """A copy of value with field set to a fresh object, unchecked."""
    if isinstance(value, tuple):
        return value._replace(**{field: object()})
    other = copy.copy(value)
    object.__setattr__(other, field, object())
    return other


def _plain(value) -> tuple:
    """The field values, each family read as its members: families compare by identity."""
    return tuple(v.members if isinstance(v, Family) else v for v in map(value.__getattribute__, _fields(value)))


@pytest.mark.parametrize("name", BUILD)
def test_value_type_contract(name):
    value, twin = BUILD[name](), BUILD[name]()
    fields, compared = FIELDS[name]
    compared = fields if compared == "all" else compared
    hashable = name != "VerifyReport"  # its mismatches are a list
    assert _fields(value) == fields
    # == and hash read exactly the compared fields
    if compared is None:
        assert value == value and value != twin and hash(value) != hash(twin)
    else:
        assert value == twin and (not hashable or hash(value) == hash(twin))
        for field in fields:
            other = _variant(value, field)
            assert (other == value) is (value == other) is (field not in compared)
            if hashable and field not in compared:
                assert hash(other) == hash(value)
    if not hashable:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == REPRS[name]
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    # copies rebuild the fields; a copy keeps the family, a deepcopy or a
    # pickle carries a copy of it, which the original family refuses
    for clone in CLONES:
        far = CLONES[clone](value)
        assert type(far) is type(value) and _plain(far) == _plain(value)
        if "family" not in fields:
            assert far == value and (not hashable or hash(far) == hash(value))
        elif clone == "copy":
            assert far.family is value.family and (far == value) is (compared is not None)
        else:
            assert far.family is not value.family and far != value
    if name == "ReducedWord":
        for clone in ("deepcopy", "pickle"):
            with pytest.raises(ValidationError, match="over another family"):
                fp_length_set(ONE_C2, CLONES[clone](value))
        assert fp_length_set(ONE_C2, copy.copy(value)) == fp_length_set(ONE_C2, value)
