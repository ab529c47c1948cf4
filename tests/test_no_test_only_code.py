"""Every top-level function and class in bcsys has a caller in bcsys.

A definition counts as used when its name is read in the code of another
top-level statement of the package: a function or class body, or a
module-level statement such as serialize's dispatch tables or the CLI's
``__main__`` guard. Imports, including the re-exports in ``__init__``,
do not count, and neither do docstrings. So a function that only tests
call fails here: it belongs in tests/reference.py or tests/helpers.py,
or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import bcsys

SRC = Path(bcsys.__file__).parent

# Kept without a caller in bcsys, each for a reason of its own.
EXEMPT = {
    # the reference construction of f* = S_f . (W_A/B), on which
    # tests/reference.py builds the internal-hom category and e_to_ce
    ("esys", "precompose"),
    # the public entry point for one internal-hom category, which the
    # benchmark traces by name; e_to_ce calls _internal_hom directly
    ("esys", "internal_hom_cat"),
}


def _read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def uncalled(src: Path) -> set[tuple[str, str]]:
    """(module, name) of each top-level def or class in the modules under
    ``src`` that no other top-level statement there names."""
    defs: list[tuple[str, str, ast.AST]] = []
    statements: list[ast.AST] = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node))
    read = [(node, _read_names(node)) for node in statements]
    return {
        (module, name)
        for module, name, node in defs
        if not any(name in names for other, names in read if other is not node)
    }


def test_every_definition_has_a_caller_in_the_package():
    assert uncalled(SRC) == EXEMPT


def test_a_name_in_a_docstring_or_its_own_body_is_no_call(tmp_path):
    (tmp_path / "m.py").write_text(
        'def used():\n    """recursive"""\n    return 1\n\n\n'
        'def recursive(n):\n    return recursive(n - 1)\n\n\n'
        'TABLE = {"k": used}\n'
    )
    assert uncalled(tmp_path) == {("m", "recursive")}
