"""Every top-level function and class of the package has a use in it.

A definition counts as used when some other top-level statement of
``src/i2vmatch`` names it: a call, an attribute, an import, a decorator or
a default. Names that only tests, scripts or the benchmark reach are dead
code, with one listed exception.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "i2vmatch"

# the one-protocol entry point that perfbench's eval-gallery workload calls
CALLED_FROM_OUTSIDE = {"evaluation.run_protocol"}


def _names(node: ast.AST) -> set[str]:
    """Every identifier a statement names, whatever its role."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    uncalled = set()
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in _names(other) for _, other in statements if other is not stmt):
            uncalled.add(f"{module}.{stmt.name}")
    assert uncalled == CALLED_FROM_OUTSIDE
