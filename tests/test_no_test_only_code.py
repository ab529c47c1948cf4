"""Every top-level function and class in bcsys has a caller in bcsys.

A definition counts as used when its name is read in the code of another
top-level statement of the package that is itself used: a function or
class body with a caller, or a module-level statement such as
serialize's dispatch tables or the CLI's ``__main__`` guard. Imports,
including the re-exports in ``__init__``, do not count, and neither do
docstrings, nor reads from a definition that has no caller.
So a function that only tests call, or that only such a function calls,
fails here: it belongs in tests/reference.py or tests/helpers.py, or
nowhere.

Two rules hold for the parameters of every function in bcsys, nested
functions and methods included: its body reads each of them, and a
parameter with a default is passed an argument by some call in bcsys. A
parameter no caller in the package sets is an option only tests cover.
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
    # f* restricts W_A to B through it, and the benchmark traces it by
    # name; the checker restricts through _Slices.restrict
    ("esys", "restrict_sf"),
}


# Parameters with a default that no call in bcsys passes, each kept for a
# reason of its own.
EXEMPT_DEFAULTS = {
    # tests and the console script call the CLI's entry point; without an
    # argument it reads sys.argv
    ("cli", "main", "argv"),
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
    ``src`` that no other used top-level statement there names: a def is
    used when a used statement names it, and a statement that is not a def
    is always used. Found by iterating to the fixpoint, each round dropping
    the reads of the defs found uncalled so far."""
    defs: dict[ast.AST, tuple[str, str]] = {}
    statements: list[ast.AST] = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node] = (path.stem, node.name)
    read = [(node, _read_names(node)) for node in statements]
    found: set[tuple[str, str]] = set()
    while True:
        live = [(node, names) for node, names in read if defs.get(node) not in found]
        now = {
            (module, name)
            for node, (module, name) in defs.items()
            if not any(name in names for other, names in live if other is not node)
        }
        if now == found:
            return found
        found = now


def test_every_definition_has_a_caller_in_the_package():
    assert uncalled(SRC) == EXEMPT


def test_a_name_in_a_docstring_or_its_own_body_is_no_call(tmp_path):
    (tmp_path / "m.py").write_text(
        'def used():\n    """recursive"""\n    return 1\n\n\n'
        'def recursive(n):\n    return recursive(n - 1)\n\n\n'
        'TABLE = {"k": used}\n'
    )
    assert uncalled(tmp_path) == {("m", "recursive")}


def test_a_name_read_only_by_uncalled_code_is_no_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return inner()\n\n\n"
        "def inner():\n    return leaf()\n\n\n"
        "def leaf():\n    return 2\n\n\n"
        'TABLE = {"k": used}\n'
    )
    assert uncalled(tmp_path) == {("m", "orphan"), ("m", "inner"), ("m", "leaf")}


def _functions(src: Path):
    """(module, def, class or None) for every function under ``src``, and
    every call there by the name it calls: a bare name or an attribute."""
    defs, calls = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, node, owner.get(id(node))))
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return defs, calls


def unread_parameters(src: Path) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter that the body of
    its function, nested definitions included, never reads."""
    out = set()
    for module, fn, _cls in _functions(src)[0]:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out |= {(module, fn.name, p.arg) for p in params if p.arg not in read}
    return out


def unpassed_defaults(src: Path) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter with a default
    that no call of the function's name passes, by keyword, by ``**``, or
    by position (a method's position counts past ``self``; ``__init__``
    is called by its class's name)."""
    defs, calls = _functions(src)
    out = set()
    for module, fn, cls in defs:
        a = fn.args
        pos = a.posonlyargs + a.args
        name, shift = fn.name, 0
        if cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
            shift = 1
            if name == "__init__":
                name = cls.name
        defaults = [(i - shift, p) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
        defaults += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for i, p in defaults:
            if not any(
                any(k.arg in (p.arg, None) for k in call.keywords)
                or (i is not None and (len(call.args) > i or any(isinstance(x, ast.Starred) for x in call.args)))
                for call in calls.get(name, ())
            ):
                out.add((module, fn.name, p.arg))
    return out


def test_every_parameter_is_read():
    assert unread_parameters(SRC) == set()


def test_every_default_is_overridden_by_a_caller_in_the_package():
    assert unpassed_defaults(SRC) == EXEMPT_DEFAULTS


def test_parameter_rules_on_a_small_module(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, unused, stored, mode=1, flag=False):\n    stored = 0\n    return a + mode + flag\n\n\n"
        "class C:\n    def __init__(self, x=0):\n        self.x = x\n\n"
        "    def g(self, k=0):\n        return self.x + k\n\n\n"
        "f(1, 2, 3, 4)\nC(x=1)\nC().g()\n"
    )
    assert unread_parameters(tmp_path) == {("m", "f", "unused"), ("m", "f", "stored")}
    assert unpassed_defaults(tmp_path) == {("m", "f", "flag"), ("m", "g", "k")}
