"""Every search in the package keeps its own stack, except one whose depth is
bounded by the vertex limit of canonical forms.

A function that calls itself recurses once per level of its search, so on a
large input it ends in a RecursionError where the contract asks for an answer
or a documented error.  This test reads the calls themselves, so a new
recursive search has to be listed here with the bound that keeps it safe.
"""

import ast
from pathlib import Path

import cmgraph

PACKAGE = Path(cmgraph.__file__).resolve().parent

# each allowed self-calling function, with what bounds its depth
BOUNDED = {
    "graphs._canonical.rec": "one level per vertex placed, and "
    "_canonical raises ValueError for n > 9",
}


def _self_calls(path: Path) -> list[str]:
    """module.outer.inner for each function in the file whose body calls a
    function of its own name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == child.name
                    for sub in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_bounded_searches_call_themselves():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = [name for path in sources for name in _self_calls(path)]
    assert sorted(found) == sorted(BOUNDED)

