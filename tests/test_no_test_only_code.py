"""Every top-level function and class in bcsys, and every method, has a
caller in bcsys.

A definition counts as used when its name is read in the code of another
top-level statement of the package that is itself used: a function body
with a caller, the body of a used class outside its methods, a used
method, or a module-level statement such as serialize's dispatch tables
or the CLI's ``__main__`` guard. Imports, including the re-exports in
``__init__``, do not count, and neither do docstrings, nor reads from a
definition that has no caller. A method is named by an attribute: a
call ``x.m(...)``, or a read ``x.m`` where no class of the package keeps
a data attribute called ``m`` (``res.violations`` reads a field, not a
method of that name). A method's own body, and a class's own methods,
do not use it. A property is read as an attribute, so any read of its
name counts, as for a top-level name. Dunder methods are called by
Python and always count as used in a used class.
So a function or method that only tests call, or that only such code
calls, fails here: it belongs in tests/reference.py or tests/helpers.py,
or nowhere.

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
    # the public entry point for one internal-hom category, which the
    # benchmark traces by name; e_to_ce calls _internal_hom directly
    ("esys", "internal_hom_cat"),
    # bench/workloads.py reads a report's failed and missing laws
    ("report", "Report.failed_laws"),
    ("report", "Report.missing_laws"),
}


# Parameters with a default that no call in bcsys passes, each kept for a
# reason of its own.
EXEMPT_DEFAULTS = {
    # tests and the console script call the CLI's entry point; without an
    # argument it reads sys.argv
    ("cli", "main", "argv"),
}


def _read_names(nodes: list[ast.AST]) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _method_names(nodes: list[ast.AST], fields: set[str]) -> set[str]:
    """The attributes called in ``nodes``, and those read there that no
    class keeps as data."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                names.add(sub.func.attr)
            elif isinstance(sub, ast.Attribute) and sub.attr not in fields:
                names.add(sub.attr)
    return names


def _data_attributes(tree: ast.Module) -> set[str]:
    """Names a class of ``tree`` keeps as data: the targets assigned in a
    class body (dataclass fields among them) and the ``self.x`` assigned
    anywhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                out |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {
                t.attr
                for t in targets
                if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
            }
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled(src: Path) -> set[tuple[str, str]]:
    """(module, name) of each top-level def or class, and (module,
    "Class.method") of each method, in the modules under ``src`` that no
    other used statement there names (see the module docstring). Found by
    iterating to the fixpoint, each round dropping the reads of the defs
    found uncalled so far."""
    trees = [(path.stem, ast.parse(path.read_text(), filename=str(path))) for path in sorted(src.glob("*.py"))]
    fields = set().union(*(_data_attributes(tree) for _module, tree in trees))
    # units: (key or None, key of the owning class or None, the code read)
    units: list[tuple[tuple[str, str] | None, tuple[str, str] | None, list[ast.AST]]] = []
    properties: set[tuple[str, str]] = set()
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                units.append((None, None, [node]))
                continue
            key = (module, node.name)
            if not isinstance(node, ast.ClassDef):
                units.append((key, None, [node]))
                continue
            methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = [m for m in node.body if m not in methods]
            units.append((key, None, [*node.bases, *node.keywords, *node.decorator_list, *rest]))
            for m in methods:
                units.append((None if _is_dunder(m.name) else (module, f"{node.name}.{m.name}"), key, [m]))
                if any(getattr(d, "id", None) == "property" for d in m.decorator_list):
                    properties.add((module, f"{node.name}.{m.name}"))
    reads = [
        (key, owner, _read_names(code), _method_names(code, fields)) for key, owner, code in units
    ]
    found: set[tuple[str, str]] = set()
    while True:
        live = [r for r in reads if r[0] not in found and r[1] not in found]

        def used(key: tuple[str, str], by_method_name: bool) -> bool:
            name = key[1].rpartition(".")[2]
            return any(
                other != key and owner != key and name in (methods if by_method_name else names)
                for other, owner, names, methods in live
            )

        now = {
            key
            for key, owner, _names, _methods in reads
            if key is not None and not used(key, owner is not None and key not in properties)
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


def test_a_method_is_named_by_a_call_or_a_read_that_is_no_data(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Result:\n    def __init__(self):\n        self.violations = []\n\n\n"
        "class Box:\n    def __init__(self):\n        self.r = Result()\n\n"
        "    def __str__(self):\n        return str(self.used())\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return len(self.r.violations)\n\n"
        "    def violations(self):\n        return self.r.violations\n\n"
        "    def bound(self):\n        return 2\n\n"
        "    @property\n    def size(self):\n        return 3\n\n"
        "    def orphan(self):\n        return self.leaf()\n\n"
        "    def leaf(self):\n        return 4\n\n\n"
        'BOX = Box()\nTABLE = {"k": BOX.bound, "n": BOX.size}\n'
    )
    assert uncalled(tmp_path) == {("m", "Box.violations"), ("m", "Box.orphan"), ("m", "Box.leaf")}


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
