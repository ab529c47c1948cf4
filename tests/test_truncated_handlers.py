"""Where Truncated may be raised and caught.

A validator, a translation loop or a helper of the derived calculus
learns that a table entry is missing from a ``.get`` that returns None,
and skips the instance or returns None. Truncated is raised only where
a translation cannot go on, at the five sites whose message the CLI
prints, and caught only by the CLI, which turns it into one line.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import bcsys

SRC = Path(bcsys.__file__).parent

EXPECTED = Counter(
    {
        ("cli", "_guarded"): 1,
    }
)

RAISED = Counter(
    {
        ("core", "FinCat.comp"): 1,
        ("core", "FinCat.id_of"): 1,
        ("xlate", "_subst_of"): 1,
        ("xlate", "_weak_of"): 1,
        ("xlate", "c_to_ce"): 1,
    }
)


def _names(node: ast.expr | None) -> set[str]:
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(n) for n in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _nodes(tree: ast.AST, kind: type, scope: tuple[str, ...] = ()):
    """(qualified function name, node) for every node of ``kind``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, kind):
            yield ".".join(scope), node
        yield from _nodes(node, kind, inner)


def _handlers(tree: ast.AST):
    """(qualified function name, handler) for every except clause."""
    return _nodes(tree, ast.ExceptHandler)


def truncated_handlers() -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, handler in _handlers(tree):
            if "Truncated" in _names(handler.type):
                found[(path.stem, func)] += 1
    return found


def truncated_raises() -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _nodes(tree, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "Truncated" in _names(exc):
                found[(path.stem, func)] += 1
    return found


def test_truncated_is_caught_only_where_a_caller_cannot_go_on():
    assert truncated_handlers() == EXPECTED


def test_truncated_is_raised_only_where_the_cli_prints_it():
    assert truncated_raises() == RAISED


def test_no_bare_or_broad_handler_hides_truncated():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, handler in _handlers(tree):
            assert handler.type is not None, (path.stem, func)
            assert not _names(handler.type) & {"Exception", "BaseException"}, (path.stem, func)
