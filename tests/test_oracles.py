"""What each oracle trusts, and which modules may load the oracles.

An oracle is only as independent as the library code it calls. ``TRUSTS``
has one entry per public function of ``atomon.oracles``: a comment saying
what it checks, and the exact set of library names (``module.name``) it
uses, directly or through the private helpers of ``oracles`` it calls. The
test reads ``oracles.py`` with ``ast`` and compares. Names from ``errors``
do not count, nor do classes (``Letter``, ``FiniteMonoid``, ...): building
a value of a data type, or annotating with one, trusts no computation.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomon
from atomon.coproduct import Family, ReducedWord
from atomon.errors import SearchBudgetExceededError, ValidationError
from atomon.fixtures import c2, m31, one, zero
from atomon.lengths import ZERO_ONLY, union_k
from atomon.oracles import all_partitions, brute_force_lengths, fp_brute_force_lengths, json_members, laws_hold
from atomon.oracles import reduced_words_upto, system_oracle, tuple_mul, union_k_by_fold, union_k_oracle

SRC = Path(atomon.__file__).resolve().parent

TRUSTS = {
    # units: the pairs u, v with u·v = v·u = 1, read from the table
    "units_by_pairs": {"core._check_monoid"},
    # atoms: the non-units minus every product of two non-units
    "atoms_by_pairs": {"core._check_monoid"},
    # check_property's three cancellation laws, by scanning every triple
    "laws_hold": set(),
    # Light's associativity test in new_monoid, by the plain n^3 scan
    "ijk_scan": set(),
    # enumerate_homs, by trying every map with the identity pinned
    "exhaustive_homs": {"core._check_monoid", "core.atoms"},
    # length_set, by dynamic programming over (length, element); it does
    # not trust power_layers; the search budget is read by core's helper
    "brute_force_lengths": {
        "core._check_monoid",
        "core.atoms",
        "core._check_indices",
        "core._check_count",
        "core._search_budget",
    },
    # union_k's periodic table, by folding the union over the length sets
    # that contain k
    "union_k_by_fold": {"core._check_count", "lengths.length_system", "lengths.eps_union", "lengths.EMPTY"},
    # EPSet arithmetic, read off the JSON lists rather than the masks: the
    # head members, then each tail residue stepped by the period; the bound
    # is checked as a count
    "json_members": {"core._check_count", "serialize.eps_to_json"},
    # reduce: the letters of raw words
    "raw_alphabet": {"coproduct._check_family"},
    # reduce: the single congruence moves on a raw word
    "congruence_moves": {"coproduct._check_family"},
    # the reduced words of the free product up to a length, by extension,
    # each built by the checked ReducedWord constructor
    "reduced_words_upto": {"coproduct._check_family", "core._check_count"},
    # fp_length_set, by bounded search over decorated atoms; _join is
    # checked against reduce in coproduct-reduction
    "fp_brute_force_lengths": {
        "core.atoms",
        "core.units",
        "core._check_count",
        "core._search_budget",
        "coproduct._check_word",
        "coproduct._join",
        "coproduct._is_unit_letter",
        "coproduct.fp_is_unit",
    },
    # fp_union_k's DP, by every admissible index word and composition of k
    "union_k_oracle": {
        "coproduct._check_family",
        "core._check_count",
        "coproduct.gamma_admissible",
        "lengths.union_k",
        "lengths.eps_sum_many",
        "lengths.eps_union",
        "lengths.EMPTY",
    },
    # fp_length_system_bounded's DP, by every admissible index word and
    # choice of member length sets
    "system_oracle": {
        "coproduct._check_family",
        "core._check_count",
        "coproduct.gamma_admissible",
        "lengths.length_system",
        "lengths.eps_sum_many",
    },
    # the product's multiplication, componentwise from the member tables
    "tuple_mul": {"coproduct._check_family"},
    # ap_length_system's fold, by intersecting every choice of member sets
    "product_system_oracle": {
        "coproduct._check_family",
        "lengths.length_system",
        "lengths.eps_intersect",
        "lengths.EMPTY",
        "lengths.ZERO_ONLY",
    },
    # congruence_closure's minimality: every set partition of the elements;
    # n is checked as a count
    "all_partitions": {"core._check_count"},
    # congruence_closure's compatibility, by checking every pair in a block
    "is_congruence": {"core._check_monoid"},
}


def _library_names(tree) -> dict[str, str]:
    """Each name the module imports from a library module other than
    ``errors``, mapped to ``module.name``, classes left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module, "import library names one by one, so that each is counted"
            if node.module == "errors":
                continue
            module = importlib.import_module(f"atomon.{node.module}")
            for alias in node.names:
                if not isinstance(getattr(module, alias.name), type):
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(a.name.startswith("atomon") for a in node.names), "import the library relatively"
            assert not (getattr(node, "module", None) or "").startswith("atomon"), "import the library relatively"
    return names


def _reads(func) -> set[str]:
    """The names a function reads, outside its annotations."""
    annotations = [n.annotation for n in ast.walk(func) if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(func) if isinstance(n, ast.FunctionDef) and n.returns]
    skip = {id(n) for a in annotations for n in ast.walk(a)}
    return {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and id(n) not in skip}


def trusted_names(source: str) -> dict[str, set[str]]:
    """For each public function of the module source, the library names it
    uses directly or through the module's other functions."""
    tree = ast.parse(source)
    library = _library_names(tree)
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads = {name: _reads(f) for name, f in funcs.items()}
    out = {}
    for name in funcs:
        if name.startswith("_"):
            continue
        seen, todo = set(), [name]
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo += [g for g in reads[f] if g in funcs]
        out[name] = {library[n] for f in seen for n in reads[f] if n in library}
    return out


def test_each_oracle_trusts_exactly_its_listed_names():
    computed = trusted_names((SRC / "oracles.py").read_text())
    assert set(computed) == set(TRUSTS)
    for name, names in computed.items():
        assert names == TRUSTS[name], name


def _imports_oracles(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("oracles", "atomon.oracles") or (
                module in ("", "atomon") and any(a.name == "oracles" for a in node.names)
            ):
                return True
        elif isinstance(node, ast.Import) and any(a.name == "atomon.oracles" for a in node.names):
            return True
    return False


def test_only_cli_and_verify_import_the_oracles():
    importers = {p.stem for p in SRC.glob("*.py") if _imports_oracles(ast.parse(p.read_text()))}
    assert importers == {"cli", "verify"}


def test_importing_the_library_loads_no_oracle_suite_or_cli():
    probe = "import sys, atomon, atomon.serialize; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout.split())
    assert "atomon.serialize" in loaded
    assert loaded & {"atomon.oracles", "atomon.verify", "atomon.fixtures", "atomon.cli"} == set()


def test_factorization_search_checks_its_word():
    fam = Family([one(), c2()])
    for word in ("x", ((0, 1),), ReducedWord(Family(fam.members), ((0, 1),))):
        with pytest.raises(ValidationError):
            fp_brute_force_lengths(fam, word, 4)


def test_reduced_words_refuse_a_negative_length():
    with pytest.raises(ValidationError, match="max_len must be non-negative"):
        reduced_words_upto(Family([one()]), -1)


def test_reduced_words_stay_lazy():
    # a huge max_len costs nothing until its words are read, and they come
    # shortest first: the empty word, then the letters
    words = reduced_words_upto(Family([c2(), m31()]), 10**9)
    assert [len(next(words).letters) for _ in range(3)] == [0, 1, 1]


@pytest.mark.parametrize("oracle, what", [(union_k_oracle, "k"), (system_oracle, "max_blocks")])
@pytest.mark.parametrize("value", [0, -1])
def test_free_product_oracles_refuse_a_count_below_one(oracle, what, value):
    # a non-integer count is refused in test_core's COUNT_CALLS
    with pytest.raises(ValidationError, match=f"{what} must be at least 1, not {value}"):
        oracle(Family([one(), m31()]), value)


@pytest.mark.parametrize("s, t", [((0,), (0, 0)), ((0, 0), (0, 0, 0)), ((), ())], ids=["short", "long", "empty"])
def test_tuple_mul_refuses_a_tuple_of_the_wrong_length(s, t):
    with pytest.raises(ValidationError, match="tuple must have 2 components"):
        tuple_mul(Family([one(), c2()]), s, t)


def test_union_k_by_fold_refuses_a_negative_k_like_union_k():
    for union in (union_k, union_k_by_fold):
        with pytest.raises(ValidationError, match="k must be non-negative"):
            union(one(), -1)


def test_oracles_refuse_a_negative_count():
    # a non-integer count is refused in test_core's COUNT_CALLS
    with pytest.raises(ValidationError, match="n must be non-negative"):
        all_partitions(-1)
    with pytest.raises(ValidationError, match="bound must be non-negative"):
        json_members(ZERO_ONLY, -1)


def test_the_monoid_length_search_charges_every_level():
    # level k costs its products y·a, and at least one; the zero of {1, a, 0}
    # is reached on every level from 2 on, so only the budget ends it
    with pytest.raises(SearchBudgetExceededError, match="budget of 50 "):
        brute_force_lengths(one(), 2, 10**9, budget=50)
    assert brute_force_lengths(one(), 2, 24, budget=50) == set(range(2, 25))
    # {1} has no atoms: level 1 costs one and empties the search
    assert brute_force_lengths(zero(), 0, 10**9, budget=1) == {0}
    with pytest.raises(SearchBudgetExceededError):
        brute_force_lengths(zero(), 0, 1, budget=0)


def test_laws_hold_refuses_an_unknown_law():
    with pytest.raises(ValidationError, match="unknown law 'bogus'"):
        laws_hold("bogus", range(2), max, (0).__eq__)
