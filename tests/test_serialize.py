import json

import pytest

from atomon import EMPTY, Family, ZERO_ONLY, eps_cofinite, eps_finite, reduce
from atomon.errors import ParseError, ValidationError
from atomon.fixtures import c2, h2, one
from atomon.lengths import EPSet
from atomon.serialize import (
    eps_from_json,
    eps_to_json,
    eps_to_text,
    load_family,
    load_hom,
    load_monoid,
    monoid_from_json,
    monoid_to_json,
    parse_tuple,
    parse_word,
    word_to_text,
)


def test_monoid_round_trip():
    m = h2()
    assert monoid_from_json(monoid_to_json(m)) == m


def test_monoid_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(monoid_to_json(one())))
    assert load_monoid(path) == one()


def test_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_monoid(path)
    path.write_text(json.dumps({"names": ["1"]}))
    with pytest.raises(ParseError):
        load_monoid(path)
    with pytest.raises(ParseError):
        load_monoid(tmp_path / "missing.json")


def test_hom_and_family_files(tmp_path):
    (tmp_path / "one.json").write_text(json.dumps(monoid_to_json(one())))
    (tmp_path / "c2.json").write_text(json.dumps(monoid_to_json(c2())))
    (tmp_path / "hom.json").write_text(
        json.dumps({"source": "c2.json", "target": "one.json", "map": [0, 0]})
    )
    (tmp_path / "fam.json").write_text(json.dumps({"members": ["one.json", "c2.json"]}))
    h = load_hom(tmp_path / "hom.json")
    assert h.map == (0, 0) and h.atom_preserving
    fam = load_family(tmp_path / "fam.json")
    assert len(fam) == len(fam.members) == 2
    (tmp_path / "hom.json").write_text(json.dumps({"source": "c2.json", "target": "one.json"}))
    with pytest.raises(ParseError, match="malformed hom file"):
        load_hom(tmp_path / "hom.json")
    (tmp_path / "fam.json").write_text(json.dumps({"members": ["one.json", 5]}))
    with pytest.raises(ParseError, match="malformed family file"):
        load_family(tmp_path / "fam.json")


def test_eps_json_round_trip():
    for s in (EMPTY, ZERO_ONLY, eps_finite({1, 4}), eps_cofinite(3), EPSet(3, {1}, 2, {0})):
        assert eps_from_json(eps_to_json(s)) == s


@pytest.mark.parametrize(
    "change",
    [
        {"period": 0},
        {"period": -2},
        {"period": True},
        {"period": 2.0},
        {"threshold": 1.5},
        {"threshold": -1},
        {"threshold": False},
        {"head": [0, -1]},
        {"head": [True]},
        {"head": "01"},
        {"head": [[1]]},
        {"tail": [-1]},
        {"tail": [0.5]},
        {"tail": None},
    ],
)
def test_eps_json_refuses_bad_fields(change):
    data = dict(eps_to_json(EPSet(3, {1}, 2, {0})), **change)
    with pytest.raises(ParseError):
        eps_from_json(data)


def test_eps_json_refuses_a_missing_field():
    data = eps_to_json(EPSet(3, {1}, 2, {0}))
    del data["threshold"]
    with pytest.raises(ParseError, match="malformed EPSet object"):
        eps_from_json(data)


def test_eps_text_forms():
    assert eps_to_text(eps_finite({0})) == "{0}"
    assert eps_to_text(eps_cofinite(2)) == "(2 + {0} mod 1)"
    assert eps_to_text(EMPTY) == "{}"
    assert eps_to_text(EPSet(3, {1}, 2, {0})) == "{1} ∪ (3 + {0} mod 2)"


def test_word_literals():
    fam = Family([one(), c2()])
    w = parse_word(fam, "(a@0)*(u@1)*(a@0)")
    assert word_to_text(fam, w) == "(a@0)*(u@1)*(a@0)"
    assert parse_word(fam, "eps").letters == ()
    assert parse_word(fam, "(1@0)").letters == ()  # identity letters reduce away
    assert parse_word(fam, "(a@0)*(a@0)") == reduce(fam, [(0, 1), (0, 1)])
    with pytest.raises(ParseError):
        parse_word(fam, "(a@5)")
    with pytest.raises(ParseError):
        parse_word(fam, "(zzz@0)")
    with pytest.raises(ParseError):
        parse_word(fam, "a@0")
    with pytest.raises(ParseError):
        parse_word(fam, "(a@\u0660)*(u@\u0661)")  # Arabic-Indic digits, not ASCII


def test_tuple_literals():
    fam = Family([one(), c2()])
    assert parse_tuple(fam, "(a,u)") == (1, 1)
    assert parse_tuple(fam, "(1, 1)") == (0, 0)
    with pytest.raises(ParseError):
        parse_tuple(fam, "(a,u,a)")
    with pytest.raises(ParseError):
        parse_tuple(fam, "a,u")
    with pytest.raises(ParseError, match="no element named 'zzz'"):
        parse_tuple(fam, "(a,zzz)")


@pytest.mark.parametrize("value", [5, None, "m", Family([one()])], ids=["int", "none", "str", "family"])
def test_monoid_to_json_refuses_a_non_monoid(value):
    with pytest.raises(ValidationError, match="is not a FiniteMonoid"):
        monoid_to_json(value)


@pytest.mark.parametrize("family", [5, None, (one(), c2())], ids=["int", "none", "tuple-of-monoids"])
@pytest.mark.parametrize("call", ["word_to_text", "parse_word", "parse_tuple"])
def test_literals_refuse_a_non_family(call, family):
    fam = Family([one(), c2()])
    calls = {
        "word_to_text": lambda f: word_to_text(f, reduce(fam, [(0, 1)])),
        "parse_word": lambda f: parse_word(f, "(a@0)"),
        "parse_tuple": lambda f: parse_tuple(f, "(a,1)"),
    }
    with pytest.raises(ValidationError, match="is not a Family"):
        calls[call](family)


def test_word_to_text_refuses_what_is_no_word_over_its_family():
    fam = Family([one(), c2()])
    with pytest.raises(ValidationError, match="not a ReducedWord"):
        word_to_text(fam, ((0, 1),))
    with pytest.raises(ValidationError, match="over another family"):
        word_to_text(fam, reduce(Family(fam.members), [(0, 1)]))
