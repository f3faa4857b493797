"""List the statements of ``src/i2vmatch`` that a pytest run never executes.

Runs pytest in this process under ``sys.settrace``, tracing only the code
of ``src/i2vmatch``, then prints each executable statement that never ran
as ``module:line  text``, one per line, after pytest's own output.
Docstrings, ``def``, ``class`` and import lines are not listed: they run
at import, not when the code under them does. Arguments go to pytest
unchanged:

    python scripts/uncovered.py -q
    python scripts/uncovered.py -q tests/test_losses.py

A function is traced line by line only while it holds a statement that has
not run. A ``raise``, with the simple statements before it in its block, is
seen by the exception it raises, so a function whose only statements left
are of that kind is not traced line by line, and one with none left is not
traced at all. Skipping those line events took ``tests/test_acceptance.py``
from 54 s to 45 s on a 2-core VM, where the whole suite still ran 107 s
traced against 68 s untraced, as Python 3.11 runs every frame on its slower
tracing path while any trace function is set. The exit code is pytest's.
Tracing follows the main thread and the threads started after it begins,
not subprocesses.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "i2vmatch"
DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
UNLISTED = (*DOCUMENTED[1:], ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Pass, ast.Assert, ast.Delete)


def statements(tree: ast.Module):
    """Each executable statement, with the lines that show it ran: a simple
    statement's own lines, a compound statement's header."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, UNLISTED) \
                and id(node) not in docstrings:
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            yield node, range(node.lineno, last + 1)


def line_map(source: str) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """Each line that shows a statement ran, mapped to the statement's first
    line; and the statements bound to a ``raise``, by first line: the simple
    statements that end their block with one, each mapped to the first lines
    of itself and of those before it, which have run when it raises."""
    tree = ast.parse(source)
    owner = {}
    for node, shown in statements(tree):
        owner.update(dict.fromkeys(shown, node.lineno))
    listed = set(owner.values())
    bound = {}
    for node in ast.walk(tree):
        for _, block in ast.iter_fields(node):
            if not (isinstance(block, list) and block and isinstance(block[-1], ast.Raise)):
                continue
            start = len(block) - 1
            while start and isinstance(block[start - 1], SIMPLE):
                start -= 1
            firsts = [s.lineno for s in block[start:] if s.lineno in listed]
            bound.update((line, tuple(firsts[:i + 1])) for i, line in enumerate(firsts))
    return owner, bound


def traced_run(args, maps: dict[str, tuple]):
    """pytest's exit code, and the (module, first line) of each statement
    of the package that ran; ``maps`` holds each module's :func:`line_map`."""
    ran: set[tuple[str, int]] = set()
    modules: dict[str, str] = {}  # file name -> its module in the package, or ""
    # id of a package code object -> [the object, kept so that the id stays its
    # own; its module; its statements not yet run; whether one is not bound to
    # a raise, and so needs line events]
    unseen: dict[int, list] = {}

    def trace(frame, event, arg):
        entry = unseen[id(frame.f_code)]
        _, module, left, _ = entry
        owner, bound = maps[module]
        first = owner.get(frame.f_lineno)
        if event in ("line", "exception") and first in left:
            for line in bound.get(first, (first,)) if event == "exception" else (first,):
                ran.add((module, line))
                left.discard(line)
            entry[3] = frame.f_trace_lines = not left <= bound.keys()
        return trace if left else None

    def on_call(frame, event, arg):
        code = frame.f_code
        module = modules.get(code.co_filename)
        if module is None:
            path = Path(code.co_filename).resolve()
            module = modules[code.co_filename] = \
                path.stem if path.parent == PACKAGE and path.stem in maps else ""
        if not module:
            return None
        entry = unseen.get(id(code))
        if entry is None:
            owner, bound = maps[module]
            left = {owner[line] for *_, line in code.co_lines() if line in owner}
            entry = unseen[id(code)] = [code, module, left, not left <= bound.keys()]
        if not entry[2]:
            return None
        frame.f_trace_lines = entry[3]
        return trace

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args) -> int:
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    maps = {module: line_map(source) for module, source in sources.items()}
    code, ran = traced_run(args, maps)
    for module, (owner, _) in maps.items():
        lines = sources[module].splitlines()
        for first in sorted(set(owner.values()) - {line for m, line in ran if m == module}):
            print(f"{module}:{first}  {lines[first - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
