"""Where Truncated may be caught.

A validator or translation loop learns that a table entry is missing
from a ``.get`` that returns None, and skips the instance. Truncated is
what a helper raises when its caller cannot go on; it is caught only
where such a helper is called: by the CLI, which turns it into one line,
and around term_extension, vertical_compose and the pairing helpers.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import bcsys

SRC = Path(bcsys.__file__).parent

EXPECTED = Counter(
    {
        ("cli", "cmd_translate"): 1,
        ("cli", "cmd_roundtrip"): 1,
        ("esys", "check_pairing"): 2,
        ("xlate", "e_roundtrip_iso.phi_term"): 1,
        ("xlate", "e_to_ce"): 1,
        ("xlate", "unit_ehom"): 1,
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


def _handlers(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(qualified function name, handler) for every except clause."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, ast.ExceptHandler):
            yield ".".join(scope), node
        yield from _handlers(node, inner)


def truncated_handlers() -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, handler in _handlers(tree):
            if "Truncated" in _names(handler.type):
                found[(path.stem, func)] += 1
    return found


def test_truncated_is_caught_only_where_a_caller_cannot_go_on():
    assert truncated_handlers() == EXPECTED


def test_no_bare_or_broad_handler_hides_truncated():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, handler in _handlers(tree):
            assert handler.type is not None, (path.stem, func)
            assert not _names(handler.type) & {"Exception", "BaseException"}, (path.stem, func)
