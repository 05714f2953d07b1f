"""No library module imports a name it never reads.

No linter ships with the project, so this reads each module of ``atomon``
with ``ast``: every name bound by an ``import`` must be read somewhere in the
module. A deletion that leaves its imports behind fails here. ``from
__future__`` imports bind nothing and are skipped, and so is ``__init__``,
whose imports are the package's public names.
"""

import ast
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
