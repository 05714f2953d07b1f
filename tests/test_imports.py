"""No library module imports a name it never reads, the CLI loads the
verification layers only for the commands that run them, and neither the
CLI nor the verify layer loads ``dataclasses`` or ``inspect``.

No linter ships with the project, so this reads each module of ``atomon``
with ``ast``: every name bound by an ``import`` must be read somewhere in the
module, and every private name a module binds at its top level (a helper
function, class or constant) must be read somewhere in the package, as a
name or as an attribute. A deletion that leaves its imports or its helpers
behind fails here. ``from __future__`` imports bind nothing and are
skipped, and so is ``__init__``, whose imports are the package's public
names. The same reading finds every call of a checked constructor: only the
boundary modules make one.

The import boundary is read in a fresh interpreter, since the test process
has loaded every module already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomon
from atomon import core

PACKAGE = sorted(Path(atomon.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.stem != "__init__"]


def _imported(tree) -> dict[str, int]:
    """Each name an import binds, mapped to the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree) -> set[str]:
    """The names the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from .errors import ParseError, ValidationError\nimport os.path\n\nraise ParseError()\n")
    assert {name for name in _imported(tree) if name not in _read(tree)} == {"ValidationError", "os"}


def _private(tree) -> dict[str, int]:
    """Each private name bound at the top level by a def, a class or an
    assignment, mapped to its line; dunder names are not private."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        bound.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return bound


def _read_anywhere(trees) -> set[str]:
    """The names the modules read, plain or as the attribute of another name."""
    nodes = [node for tree in trees for node in ast.walk(tree)]
    return set().union(*map(_read, trees)) | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_private_helper_is_read():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    read = _read_anywhere(trees.values())
    dead = {f"{path.stem}.{name}": line for path, tree in trees.items() for name, line in _private(tree).items()}
    dead = {name: line for name, line in dead.items() if name.partition(".")[2] not in read}
    assert not dead, f"private names bound but never read in the package: {dead}"


def test_a_dead_helper_is_caught():
    source = "_LIMIT = 3\n_a, _b = 1, 2\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n"
    user = ast.parse("import m\nm._used()\nprint(_a)\n")
    trees = [ast.parse(source), user]
    assert {name for name in _private(trees[0]) if name not in _read_anywhere(trees)} == {"_b", "_dead", "_Gone"}


# Check once, at the boundary (see the core docstring): only the modules that
# read outside input or check the library from outside build through a
# checked constructor. The one other call is the public wrapper of MonoidHom.
CHECKED = {"new_hom", "MonoidHom", "Congruence", "PushoutPresentation"}
BOUNDARY = {"serialize", "verify", "oracles", "fixtures"}
WRAPPER = ("core", "new_hom", "MonoidHom")


def _checked_calls(node, scope: str = "<module>"):
    """(function, constructor, line) for each call of a name in CHECKED,
    plain or as an attribute, the function being the innermost def around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
            if callee in CHECKED:
                yield scope, callee, child.lineno
        yield from _checked_calls(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def test_only_the_boundary_calls_a_checked_constructor():
    calls = [
        f"{path.stem}.{scope} calls {callee} at line {line}"
        for path in PACKAGE
        if path.stem not in BOUNDARY
        for scope, callee, line in _checked_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, scope, callee) != WRAPPER
    ]
    assert not calls, f"a construction builds through a checked constructor: {calls}"


def test_a_checked_build_is_caught():
    source = "def new_hom(s, t, m):\n    return MonoidHom(s, t, m)\n\ndef quotient(m, c):\n    return m, core.new_hom(m, m, c)\n\nC = Congruence(m, ())\n"
    assert list(_checked_calls(ast.parse(source))) == [
        ("new_hom", "MonoidHom", 2),
        ("quotient", "new_hom", 5),
        ("<module>", "Congruence", 7),
    ]


def _setattr_bypasses(tree) -> list[int]:
    """The lines that name ``object.__setattr__``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"
    ]


def test_fields_are_written_only_through_the_slot_setters():
    # one slot-writing primitive (see the core docstring): no module steps
    # round the guard, and each value type's _setters are the __set__ of its
    # own slots' descriptors, in slot order, so a hand-rolled maker has
    # nothing else to write with
    bypasses = {path.stem: _setattr_bypasses(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE}
    assert not {name: lines for name, lines in bypasses.items() if lines}, bypasses
    for path in MODULES:
        importlib.import_module(f"atomon.{path.stem}")
    types = core._Value.__subclasses__()
    assert {"FiniteMonoid", "Family", "ReducedWord", "EPSet"} <= {cls.__name__ for cls in types}
    for cls in types:
        descriptors = [vars(cls)[name] for name in cls.__slots__]
        assert [(s.__name__, s.__self__) for s in cls._setters] == [("__set__", d) for d in descriptors], cls


def _new_objects(node, scope: str = "<module>"):
    """(function, line) for each ``object.__new__`` named, the function being
    the innermost def around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and ast.unparse(child) == "object.__new__":
            yield scope, child.lineno
        yield from _new_objects(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def test_rebuild_is_the_one_unchecked_maker():
    # every value built without its checks, an EPSet included, is made by
    # core._rebuild (see the core docstring): no module has a maker of its own
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    makers = [(name, scope) for name, tree in trees.items() for scope, _ in _new_objects(tree)]
    assert makers == [("core", "_rebuild")]


def test_a_setattr_bypass_is_caught():
    source = "def _word(f, x):\n    w = object.__new__(W)\n    object.__setattr__(w, 'f', f)\n    return w\n"
    assert _setattr_bypasses(ast.parse(source)) == [3]
    assert list(_new_objects(ast.parse(source))) == [("_word", 2)]


VERIFICATION_LAYERS = ("atomon.fixtures", "atomon.oracles", "atomon.verify")


def _loaded_after(code: str, modules: tuple[str, ...] = VERIFICATION_LAYERS) -> list[str]:
    """Those of modules (by default the verification layers) that a fresh
    interpreter holds after running code."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(Path(atomon.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_verification_layer():
    assert _loaded_after("import atomon.cli") == []


@pytest.mark.parametrize("module", ["atomon.cli", "atomon.verify"])
def test_no_value_type_loads_dataclasses_or_inspect(module):
    # the value types are plain __slots__ classes (see the core docstring):
    # dataclasses and inspect would add several ms to every start
    assert _loaded_after(f"import {module}", ("dataclasses", "inspect")) == []


def test_only_a_bounded_lengthset_loads_the_oracles(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"names": ["1", "g", "0"], "identity": 0, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}))
    argv, run = ["lengthset", str(path), "g"], "from atomon.cli import main\nassert main({!r}) == 0"
    assert _loaded_after(run.format(argv)) == []
    assert _loaded_after(run.format(argv + ["--bound", "3"])) == ["atomon.oracles"]
