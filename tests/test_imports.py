"""No library module imports a name it never reads, and the CLI loads the
verification layers only for the commands that run them.

No linter ships with the project, so this reads each module of ``atomon``
with ``ast``: every name bound by an ``import`` must be read somewhere in the
module. A deletion that leaves its imports behind fails here. ``from
__future__`` imports bind nothing and are skipped, and so is ``__init__``,
whose imports are the package's public names.

The import boundary is read in a fresh interpreter, since the test process
has loaded every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomon

MODULES = sorted(p for p in Path(atomon.__file__).resolve().parent.glob("*.py") if p.stem != "__init__")


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


VERIFICATION_LAYERS = ("atomon.fixtures", "atomon.oracles", "atomon.verify")


def _layers_loaded_after(code: str) -> list[str]:
    """The verification layers a fresh interpreter holds after running code."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {VERIFICATION_LAYERS!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(Path(atomon.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_verification_layer():
    assert _layers_loaded_after("import atomon.cli") == []


def test_only_a_bounded_lengthset_loads_the_oracles(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"names": ["1", "g", "0"], "identity": 0, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}))
    argv, run = ["lengthset", str(path), "g"], "from atomon.cli import main\nassert main({!r}) == 0"
    assert _layers_loaded_after(run.format(argv)) == []
    assert _layers_loaded_after(run.format(argv + ["--bound", "3"])) == ["atomon.oracles"]
