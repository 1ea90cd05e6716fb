"""The package keeps zero runtime dependencies, and its import stays light.

networkx, numpy and sympy may be installed next to it as test oracles, so an
accidental import of one would pass every other test; this one reads the
imports themselves.  Every CLI call is a fresh interpreter, so the standard
modules the package loads are part of each call's start-up.
"""

import ast
import os
import subprocess
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


def _fresh_modules(code: str) -> set[str]:
    """The names in sys.modules after code runs in a fresh interpreter that
    imports cmgraph from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(proc.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # pytest itself imports both, so only a fresh interpreter shows what
    # the package adds to a bare start-up
    added = _fresh_modules("import cmgraph.cli") - _fresh_modules("pass")
    assert "cmgraph.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)
    # only the harness subcommand reads the enumeration module
    assert "cmgraph.harness" not in added
