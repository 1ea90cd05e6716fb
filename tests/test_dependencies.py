"""The package keeps zero runtime dependencies.

networkx, numpy and sympy may be installed next to it as test oracles, so an
accidental import of one would pass every other test; this one reads the
imports themselves.
"""

import ast
import sys
from pathlib import Path

import cmgraph

PACKAGE = Path(cmgraph.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _imported_roots(path: Path) -> list[str]:
    """The top-level module of each absolute import in the file; a relative
    import contributes nothing."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_every_import_is_relative_cmgraph_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for root in _imported_roots(path):
            assert root == "cmgraph" or root in sys.stdlib_module_names, (path.name, root)


def test_pyproject_lists_no_dependencies():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert "\ndependencies = []\n" in project
