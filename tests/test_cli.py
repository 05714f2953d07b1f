import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomon
from atomon.cli import build_parser, main
from atomon.errors import ParseError, ValidationError
from atomon.core import enumerate_homs
from atomon.fixtures import c2, h2, one, sl2, zero
from atomon.serialize import monoid_to_json
from atomon.verify import cmd_verify

from test_acceptance import CASES_AT_SEED_0


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, m in (("one", one()), ("c2", c2()), ("h2", h2()), ("zero", zero())):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(monoid_to_json(m)))
        paths[name] = str(p)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"members": ["one.json", "c2.json"]}))
    paths["fam"] = str(fam)
    hom = tmp_path / "id_one.json"
    hom.write_text(json.dumps({"source": "one.json", "target": "one.json", "map": [0, 1, 2]}))
    paths["id_one"] = str(hom)
    fold = tmp_path / "fold.json"
    fold.write_text(json.dumps({"source": "h2.json", "target": "one.json", "map": [0, 1, 1, 2]}))
    paths["fold"] = str(fold)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"names": ["1", "x"], "identity": 0, "table": [[0, 1], [1, 7]]}))
    paths["bad"] = str(bad)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(files, capsys):
    code, out = run(capsys, "validate", files["one"])
    assert code == 0 and "valid monoid" in out
    code = main(["validate", files["bad"]])
    assert code == 1


@pytest.mark.parametrize("entry", [1.7, True, "x", None])
def test_validate_refuses_non_integer_entries(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"names": ["1", "x"], "identity": 0, "table": [[0, 1], [1, entry]]}))
    assert main(["validate", str(path)]) == 1
    assert "is not an integer" in capsys.readouterr().err


def test_validate_refuses_names_that_are_not_strings(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"names": [1, 2.5], "identity": 0, "table": [[0, 1], [1, 1]]}))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: name 1 is not a string"]


@pytest.mark.parametrize("entry", [1.0, False, "1"])
def test_hom_map_refuses_non_integer_values(files, capsys, entry):
    path = Path(files["one"]).parent / "hom.json"
    path.write_text(json.dumps({"source": "one.json", "target": "one.json", "map": [0, entry, 2]}))
    assert main(["limits", "equalizer", str(path), str(path)]) == 1
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("construction", ["equalizer", "pullback", "coequalizer"])
def test_limits_refuse_an_arrow_that_is_not_atom_preserving(files, capsys, construction):
    # a -> 1 respects products on {1, a, 0}, but sends the atom a to a unit
    path = Path(files["one"]).parent / "a_to_1.json"
    path.write_text(json.dumps({"source": "one.json", "target": "one.json", "map": [0, 0, 0]}))
    assert main(["limits", construction, str(path), files["id_one"]]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: hom 0 is not atom-preserving"]


def test_hom_map_must_be_a_sequence(files, capsys):
    path = Path(files["one"]).parent / "hom.json"
    path.write_text(json.dumps({"source": "one.json", "target": "one.json", "map": 5}))
    assert main(["limits", "equalizer", str(path), str(path)]) == 1
    assert "map must be a sequence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, data",
    [
        ("names", {"names": "1a", "identity": 0, "table": [[0, 1], [1, 1]]}),
        ("table", {"names": ["1"], "identity": 0, "table": "0"}),
    ],
)
def test_monoid_fields_must_be_lists(tmp_path, capsys, field, data):
    # a string is a sequence, so "1a" would otherwise read as the names 1 and a
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert f"'{field}' must be a list" in capsys.readouterr().err


def test_family_members_must_be_a_list(files, capsys):
    path = Path(files["one"]).parent / "fam_str.json"
    path.write_text(json.dumps({"members": "ab"}))
    assert main(["coproduct", "unionk", str(path), "1"]) == 1
    err = capsys.readouterr().err
    assert "'members' must be a list" in err and "no such file" not in err


def _one_error_line(capsys, path) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
    return err[0]


def test_a_directory_as_input_is_a_parse_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 1
    assert "cannot read" in _one_error_line(capsys, tmp_path)


@pytest.mark.parametrize(
    "command", [["analyze", "{}"], ["coproduct", "unionk", "{}", "2"], ["limits", "equalizer", "{}", "{}"]]
)
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert main([arg.format(path) for arg in command]) == 1
    assert "not UTF-8" in _one_error_line(capsys, path)


def test_json_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[" * 200_000)
    assert main(["analyze", str(path)]) == 1
    assert "nested too deeply" in _one_error_line(capsys, path)


def test_analyze(files, capsys):
    code, out = run(capsys, "analyze", files["one"])
    assert code == 0
    assert "atoms: a" in out
    assert "atomic=yes" in out
    assert "(2 + {0} mod 1)" in out


def test_analyze_json_deterministic(files, capsys):
    _, first = run(capsys, "analyze", files["one"], "--json")
    _, second = run(capsys, "analyze", files["one"], "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["atoms"] == ["a"]
    assert payload["properties"]["atomic"] is True


def test_lengthset(files, capsys):
    code, out = run(capsys, "lengthset", files["one"], "0", "--bound", "8")
    assert code == 0
    assert out.splitlines() == ["(2 + {0} mod 1)", "oracle on [0,8]: agrees"]
    code, out = run(capsys, "lengthset", files["one"], "1")
    assert out.strip() == "{0}"


def test_lengthset_refuses_an_unknown_element_name(files, capsys):
    assert main(["lengthset", files["one"], "zzz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: no element named 'zzz'"]


def test_a_member_index_in_non_ascii_digits_is_refused(files, capsys):
    # "٠" is ARABIC-INDIC DIGIT ZERO, which int() would read as 0
    assert main(["coproduct", "reduce", files["fam"], "(a@\u0660)"]) == 1
    captured = capsys.readouterr()
    expected = "error: bad letter '(a@\u0660)'; expected (name@index) or eps"
    assert captured.out == "" and captured.err.splitlines() == [expected]


def test_unions(files, capsys):
    code, out = run(capsys, "unions", files["one"], "3")
    assert code == 0 and out.strip() == "(2 + {0} mod 1)"
    code, out = run(capsys, "unions", files["one"], "0")
    assert out.strip() == "{0}"


def test_coproduct_commands(files, capsys):
    code, out = run(capsys, "coproduct", "reduce", files["fam"], "(a@0)*(1@0)*(a@0)")
    assert code == 0 and out.strip() == "(0@0)"
    code, out = run(capsys, "coproduct", "mul", files["fam"], "(u@1)", "(u@1)")
    assert out.strip() == "eps"
    code, out = run(capsys, "coproduct", "atom", files["fam"], "(u@1)*(a@0)")
    assert "atom: yes" in out
    code, out = run(capsys, "coproduct", "lengthset", files["fam"], "(0@0)*(u@1)*(a@0)", "--bound", "8")
    assert "(3 + {0} mod 1)" in out and "agrees" in out
    code, out = run(capsys, "coproduct", "unionk", files["fam"], "2")
    assert code == 0
    code, out = run(capsys, "coproduct", "unionk", files["fam"], "0")
    assert code == 0 and out.strip() == "{0}"
    code, out = run(capsys, "coproduct", "system", files["fam"], "2")
    assert "truncated at 2 blocks" in out


def test_product_commands(files, capsys):
    code, out = run(capsys, "product", "contains", files["fam"], "(0,1)")
    assert out.strip() == "no"
    code, out = run(capsys, "product", "contains", files["fam"], "(1,u)")
    assert out.strip() == "yes"
    code, out = run(capsys, "product", "system", files["fam"])
    assert code == 0
    code, out = run(capsys, "product", "unionk", files["fam"], "0")
    assert out.strip() == "{0}"
    code, out = run(capsys, "product", "materialize", files["fam"], "--json")
    payload = json.loads(out)
    assert len(payload["names"]) == 2  # only the unit tuples exist here


def test_limits_commands(files, capsys):
    code, out = run(capsys, "limits", "terminal")
    assert code == 0 and "terminal: 3 elements" in out
    code, out = run(capsys, "limits", "initial", "--json")
    assert json.loads(out)["monoid"]["names"] == ["1"]
    code, out = run(capsys, "limits", "equalizer", files["fold"], files["fold"])
    assert "equalizer: 4 elements" in out
    code, out = run(capsys, "limits", "coequalizer", files["fold"], files["fold"])
    assert "coequalizer: 3 elements" in out
    code, out = run(capsys, "limits", "pullback", files["fold"], files["id_one"])
    assert "pullback: 4 elements" in out
    code, out = run(capsys, "limits", "pushout-present", files["id_one"], files["id_one"])
    assert "(a@0) = (a@1)" in out
    code, out = run(
        capsys, "limits", "pushout-eq", files["id_one"], files["id_one"], "(a@0)", "(a@1)",
        "--depth", "1",
    )
    assert out.strip() == "equal"


def test_lengthset_oracle_mismatch_exits_1(files, capsys, monkeypatch):
    monkeypatch.setattr("atomon.oracles.brute_force_lengths", lambda *args: set())
    monkeypatch.setattr("atomon.oracles.fp_brute_force_lengths", lambda *args: set())
    for argv in (
        ["lengthset", files["one"], "0", "--bound", "8"],
        ["coproduct", "lengthset", files["fam"], "(0@0)*(u@1)*(a@0)", "--bound", "8"],
    ):
        code, out = run(capsys, *argv)
        assert code == 1 and out.splitlines()[-1] == "oracle on [0,8]: MISMATCH"
        code, out = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 1 and payload["oracle_bound"] == 8 and payload["oracle_agrees"] is False


def _leaves(parser, path=()):
    """Every leaf parser below ``parser``, keyed by its command path."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return {path: parser}
    return {
        leaf_path: leaf
        for name, child in groups[0].choices.items()
        for leaf_path, leaf in _leaves(child, path + (name,)).items()
    }


def test_every_leaf_has_one_handler_and_runs(files, capsys):
    leaves = _leaves(build_parser())
    assert len(leaves) == 23
    handlers = [p.get_default("func") for p in leaves.values()]
    assert None not in handlers and len(set(handlers)) == len(handlers)
    assert all("--json" in p._option_string_actions for p in leaves.values())
    fam, fold, id_one = files["fam"], files["fold"], files["id_one"]
    argv = {
        ("validate",): [files["one"]],
        ("analyze",): [files["one"]],
        ("lengthset",): [files["one"], "0", "--bound", "8"],
        ("unions",): [files["one"], "3"],
        ("coproduct", "reduce"): [fam, "(a@0)*(1@0)*(a@0)"],
        ("coproduct", "mul"): [fam, "(u@1)", "(u@1)"],
        ("coproduct", "atom"): [fam, "(u@1)*(a@0)"],
        ("coproduct", "lengthset"): [fam, "(0@0)*(u@1)*(a@0)", "--bound", "8"],
        ("coproduct", "unionk"): [fam, "2"],
        ("coproduct", "system"): [fam, "2"],
        ("product", "contains"): [fam, "(1,u)"],
        ("product", "lengthset"): [fam, "(1,u)"],
        ("product", "system"): [fam, "--nonzero"],
        ("product", "unionk"): [fam, "0"],
        ("product", "materialize"): [fam],
        ("limits", "terminal"): [],
        ("limits", "initial"): [],
        ("limits", "equalizer"): [fold, fold],
        ("limits", "pullback"): [fold, id_one],
        ("limits", "coequalizer"): [fold, fold],
        ("limits", "pushout-present"): [id_one, id_one],
        ("limits", "pushout-eq"): [id_one, id_one, "(a@0)", "(a@1)", "--depth", "1"],
        ("verify",): ["--suite", "length-oracle"],
    }
    assert set(argv) == set(leaves) == set(FUZZ_LEAVES)
    for path, args in argv.items():
        assert run(capsys, *path, *args)[0] == 0, path
        code, out = run(capsys, *path, *args, "--json")
        assert code == 0, path
        json.loads(out)


def test_verify_command(files, capsys):
    code, out = run(capsys, "verify", "--suite", "length-oracle")
    assert code == 0
    assert out.strip() == f"suite length-oracle: {CASES_AT_SEED_0['length-oracle']} cases, ok"
    code, out = run(capsys, "verify", "--suite", "length-oracle", "--json", "--timings")
    [report] = json.loads(out)
    assert code == 0 and report["cases"] == CASES_AT_SEED_0["length-oracle"] and report["wall_time"] >= 0
    code, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 1


def test_verify_timings_read_to_the_millisecond(capsys):
    # the text rounds as the JSON wall_time does, so a suite under 15 ms
    # does not read as [0.01s]
    code, out = run(capsys, "verify", "--suite", "length-invariance", "--timings")
    assert code == 0 and re.fullmatch(r"suite length-invariance: \d+ cases, ok \[\d+\.\d{3}s\]", out.strip())


def test_verify_refuses_all_beside_a_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--suite", "nope"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--suite", "epset-arithmetic", "--seed", "3")
    _, second = run(capsys, "verify", "--suite", "epset-arithmetic", "--seed", "3")
    assert first == second


def test_budget_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ATOMON_BUDGET", "abc")
    assert main(["verify", "--all"]) == 1
    assert "ATOMON_BUDGET must be an integer" in capsys.readouterr().err


def test_budget_must_be_non_negative(capsys, monkeypatch):
    assert main(["verify", "--suite", "coproduct-lengths", "--budget", "-1"]) == 1
    err = capsys.readouterr().err
    assert "search budget must be non-negative" in err and "exceeded" not in err
    with pytest.raises(ValidationError):
        cmd_verify("coproduct-lengths", budget=-1)
    monkeypatch.setenv("ATOMON_BUDGET", "-5")
    assert main(["verify", "--suite", "coproduct-lengths"]) == 1
    err = capsys.readouterr().err
    assert "ATOMON_BUDGET must be non-negative" in err and "exceeded" not in err
    with pytest.raises(ParseError):
        cmd_verify("coproduct-lengths")


def test_budget_env_caps_oracle(files, capsys, monkeypatch):
    monkeypatch.setenv("ATOMON_BUDGET", "3")
    code = main(["coproduct", "lengthset", files["fam"], "(0@0)*(u@1)*(a@0)", "--bound", "8"])
    assert code == 1  # refused: search budget exhausted


def test_budget_stops_an_oracle_search_that_never_ends(files, capsys, monkeypatch):
    # (0@0) has lengths {2, 3, ...}: no level of the search is empty, so only
    # the budget ends it, long before the bound
    monkeypatch.setenv("ATOMON_BUDGET", "1000")
    assert main(["coproduct", "lengthset", files["fam"], "(0@0)", "--bound", str(10**6)]) == 1
    assert "search budget of 1000 expansions exceeded" in capsys.readouterr().err


def test_budget_stops_a_monoid_length_oracle_that_never_ends(files, capsys, monkeypatch, memory_cap):
    # the zero of {1, a, 0} has lengths {2, 3, ...}: every level of the
    # dynamic programme reaches it, so only the budget ends it
    monkeypatch.setenv("ATOMON_BUDGET", "1000")
    assert main(["lengthset", files["one"], "0", "--bound", str(10**9)]) == 1
    assert "search budget of 1000 products exceeded" in capsys.readouterr().err


def test_budget_stops_a_huge_free_product_union_k_at_once(files, capsys, monkeypatch):
    # its DP would make about k²/2 lookups; they are charged before any work
    monkeypatch.delenv("ATOMON_BUDGET", raising=False)
    assert main(["coproduct", "unionk", files["fam"], str(10**6)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: search budget of 250000 DP lookups exceeded"]


def test_a_finite_length_set_is_checked_at_a_huge_bound_at_once(files, tmp_path, capsys, memory_cap):
    # no window of 10**11 bits is built for a set with no periodic tail
    twins = tmp_path / "twins.json"
    twins.write_text(json.dumps({"members": ["one.json", "one.json"]}))
    bound = str(10**11)
    for argv, lengths in (["lengthset", files["zero"], "1"], "{0}"), (["coproduct", "lengthset", str(twins), "(a@0)"], "{1}"):
        code, out = run(capsys, *argv, "--bound", bound)
        assert code == 0 and out.splitlines() == [lengths, f"oracle on [0,{bound}]: agrees"]


def test_a_closed_stdout_ends_without_a_traceback():
    # the reader of stdout is gone before the child writes, as in `atomon ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(atomon.__file__).resolve().parent.parent)}
    try:
        argv = [sys.executable, "-m", "atomon.cli", "limits", "terminal"]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")


# The CLI input fuzzer: every leaf command, run in-process on malformed
# monoid, family and hom files and malformed literals, must end with exit 0
# and an answer, or with exit 1 and exactly one error line: never with a
# traceback. Each command lists the kinds of its arguments.
FUZZ_LEAVES = {
    ("validate",): ["monoid"],
    ("analyze",): ["monoid"],
    ("lengthset",): ["monoid", "element", "--bound"],
    ("unions",): ["monoid", "count"],
    ("coproduct", "reduce"): ["family", "word"],
    ("coproduct", "mul"): ["family", "word", "word"],
    ("coproduct", "atom"): ["family", "word"],
    ("coproduct", "lengthset"): ["family", "word", "--bound"],
    ("coproduct", "unionk"): ["family", "count"],
    ("coproduct", "system"): ["family", "count"],
    ("product", "contains"): ["family", "tuple"],
    ("product", "lengthset"): ["family", "tuple"],
    ("product", "system"): ["family", "--nonzero"],
    ("product", "unionk"): ["family", "count"],
    ("product", "materialize"): ["family", "--cap"],
    ("limits", "terminal"): [],
    ("limits", "initial"): [],
    ("limits", "equalizer"): ["hom", "hom"],
    ("limits", "pullback"): ["hom", "hom"],
    ("limits", "coequalizer"): ["hom", "hom"],
    ("limits", "pushout-present"): ["hom", "hom"],
    ("limits", "pushout-eq"): ["hom", "hom", "word", "word", "--depth"],
    ("verify",): ["--suite", "--seed", "--budget"],
}
FUZZ_FIXTURES = {"one": one(), "c2": c2(), "h2": h2(), "zero": zero(), "sl2": sl2()}
FUZZ_MONOIDS = {name: monoid_to_json(m) for name, m in FUZZ_FIXTURES.items()}
FUZZ_HOMS = {  # the maps of every hom between two fixtures, by their ends
    (s, t): [list(h.map) for h in enumerate_homs(FUZZ_FIXTURES[s], FUZZ_FIXTURES[t], atom_preserving_only=False)]
    for s, t in (("one", "h2"), ("h2", "one"), ("one", "one"), ("c2", "c2"), ("zero", "one"), ("c2", "sl2"))
}
HUGE = "9" * 5000  # past the digits int() reads from a string
FIELDS = ["names", "table", "identity", "members", "source", "target", "map"]
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text("1au0b@", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=5,
)
RAW_FILES = ['{"names": ["1"], "identity": ' + HUGE + ', "table": [[0]]}', "", "{", "[" * 5000, "\udc80"]
NAMES = ["1", "a", "b", "0", "u", "e", "(1,a)"]
LETTERS = [f"(a@{HUGE})", "(a@2)", "(a@-1)", "(zz@0)", "(a@0.0)", "(@0)", "a@0", "(a@0", "", "eps"]
LETTERS += [f"({x}@{i})" for x in NAMES[:5] for i in (0, 1)]


@st.composite
def fuzz_file(draw, kind: str, spoil: bool, ends=None):
    """The name of a file of ``kind`` and the writes that make it: a monoid
    named ``ends``, or a hom with the two ``ends``, when given. A file left
    whole names only whole files. A spoiled one has a field, an entry or a
    key spoiled, is a JSON value of the wrong shape, a raw text that is no
    JSON, or missing, or names one spoiled file."""
    name = f"{kind}{draw(st.integers(0, 10**6))}.json"
    how = draw(st.sampled_from(["raw", "junk", "missing", "value", "entry", "drop", "inner"])) if spoil else None
    if how == "missing":
        return name, []
    if how in ("junk", "raw"):
        return name, [(name, json.dumps(draw(JUNK)) if how == "junk" else draw(st.sampled_from(RAW_FILES)))]
    if kind == "monoid":
        doc, writes = json.loads(json.dumps(FUZZ_MONOIDS[ends or draw(st.sampled_from(sorted(FUZZ_MONOIDS)))])), []
        how = "value" if how == "inner" else how
    else:
        members = [None] * draw(st.integers(1, 3)) if kind == "family" else ends
        inner = draw(st.integers(0, len(members) - 1)) if how == "inner" else None
        files = [draw(fuzz_file("monoid", i == inner, end)) for i, end in enumerate(members)]
        writes = [w for _, ws in files for w in ws]
        names = [file for file, _ in files]
        doc = {"members": names} if kind == "family" else {"source": names[0], "target": names[1]}
        if kind == "hom":
            doc["map"] = draw(st.sampled_from(FUZZ_HOMS[ends]))
    field = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[field]
    elif how == "entry" and isinstance(doc[field], list):
        items = doc[field][draw(st.integers(0, len(doc[field]) - 1))] if field == "table" else doc[field]
        items[draw(st.integers(0, len(items) - 1))] = draw(JUNK)
    elif how in ("value", "entry"):
        doc[field] = draw(JUNK)
    return name, writes + [(name, json.dumps(doc))]


def fuzz_literal(kind: str):
    if kind == "element":
        return st.sampled_from(NAMES) | st.text("1au0b@(),", max_size=4)
    if kind == "word":
        return st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3).map("*".join)
    parts = st.lists(st.sampled_from(NAMES) | st.text("1au0,", max_size=2), max_size=3).map(",".join)
    return parts.map("({})".format) | parts


@st.composite
def fuzz_runs(draw):
    """A leaf command's argv and the files it reads."""
    path = draw(st.sampled_from(sorted(FUZZ_LEAVES)))
    argv, writes = list(path), []
    spoiled = draw(st.sampled_from([0, 1, None]))  # the one file argument spoiled, if any
    ends = draw(st.sampled_from(sorted(FUZZ_HOMS)))  # both homs of a run share their ends
    files = 0
    for kind in FUZZ_LEAVES[path]:
        if kind in ("monoid", "family", "hom"):
            name, ws = draw(fuzz_file(kind, files == spoiled, ends if kind == "hom" else None))
            argv.append(name)
            writes += ws
            files += 1
        elif kind == "count":
            argv.append(str(draw(st.integers(-2, 6))))
        elif kind == "--nonzero":
            argv += draw(st.sampled_from([[], [kind]]))
        elif kind == "--suite":
            argv += [kind, draw(st.sampled_from(["terminal-uniqueness", "nope", ""]))]
        elif kind.startswith("--"):
            argv += draw(st.sampled_from([[], [kind, str(draw(st.integers(-2, 6)))]]))
        else:
            argv.append(draw(fuzz_literal(kind)))
    return argv + draw(st.sampled_from([[], ["--json"]])), writes


def test_an_int_past_the_digit_limit_is_a_parse_error(files, tmp_path, capsys):
    # int() refuses a string of more than 4300 digits with a ValueError
    huge = tmp_path / "huge.json"
    huge.write_text('{"names": ["1"], "identity": ' + HUGE + ', "table": [[0]]}')
    assert main(["validate", str(huge)]) == 1
    assert "invalid JSON" in _one_error_line(capsys, huge)
    assert main(["coproduct", "reduce", files["fam"], f"(a@{HUGE})"]) == 1
    assert capsys.readouterr().err.startswith("error: bad letter")


@settings(max_examples=200, derandomize=True)
@given(fuzz_runs())
def test_malformed_input_ends_in_an_answer_or_one_error_line(run_spec):
    argv, writes = run_spec
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in writes:
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogateescape")
        argv = [str(Path(tmp, a)) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue(), argv
        if "--json" in argv:
            json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
