"""Hand-rolled finite categories used as independent oracles in tests,
the decoders of ids, and readers of reports.

These constructions deliberately avoid the package's own builders where a
test is meant to cross-check one: they encode the textbook definitions
directly (thin categories from a transitive relation, opposite-of-finite-
sets via plain function composition).

``parse_obj_id`` and ``parse_path_id`` invert ``core.obj_id`` and
``core.path_id``, ``split_ids`` and ``unpack_ids`` invert
``core.join_ids`` (and so ``triangle_id``, ``proj_path`` and
``ih_arrow``) and ``core.pack_ids``, and ``parse_fn_arrow`` and
``parse_fn_term`` the names of the finite-set examples. The translations keep what they
encode in an id, and the builders what they encode in a name, so only
tests decode one.

A built ``FinCat`` is never written into: ``with_compose`` makes a
damaged copy of one through ``dataclasses.replace``.

``violations`` and ``total_skipped`` read a ``Report`` as a whole: its
violations in law order, and the sum of its skips.

The round-trip witnesses compare the structures they are given, which
their callers in bcsys have already built. ``b_image``, ``unit_of`` and
``counit_of`` build those images for a test that starts from one
structure.
"""

from __future__ import annotations

import dataclasses
import itertools

from bcsys.bsys import BSystem
from bcsys.cesys import CEHom, CESystem
from bcsys.core import Arrow, FinCat
from bcsys.esys import EHom, ESystem
from bcsys.report import Report, Violation
from bcsys.xlate import b_to_e, ce_to_e, counit_cehom, e_to_b, e_to_ce, unit_ehom


def thin_cat(objects, related, terminal=None) -> FinCat:
    """Category with at most one arrow per ordered pair.

    ``related`` must be reflexive and transitive on ``objects``; the unique
    arrow x -> y is materialized for each related pair.
    """
    arrows = {}
    identity = {}
    for (x, y) in related:
        name = f"{x}->{y}"
        arrows[name] = Arrow(name, x, y)
        if x == y:
            identity[x] = name
    compose = {}
    for (x, y) in related:
        for (y2, z) in related:
            if y2 == y:
                compose[(f"{y}->{z}", f"{x}->{y}")] = f"{x}->{z}"
    return FinCat(
        objects=frozenset(objects),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=terminal,
    )


def nat_geq_cat(height: int) -> FinCat:
    """The poset (N, >=) truncated at ``height``, terminal 0."""
    objs = [str(n) for n in range(height + 1)]
    related = [(str(m), str(n)) for m in range(height + 1) for n in range(m + 1)]
    return thin_cat(objs, related, terminal="0")


def fn_arrow_id(m: int, n: int, values: tuple[int, ...]) -> str:
    body = ",".join(str(v) for v in values)
    return f"f{m}->{n}[{body}]"


def parse_fn_arrow(name: str) -> tuple[int, int, tuple[int, ...]]:
    """(m, n, values) of a finite-set arrow id, the inverse of fn_arrow_id."""
    head, _, body = name.partition("[")
    m, n = head[1:].split("->")
    vals = tuple(int(v) for v in body[:-1].split(",")) if body[:-1] else ()
    return int(m), int(n), vals


def parse_fn_term(t: str) -> tuple[int, ...]:
    """The values of a nat-e term, the inverse of ``esys.fn_term``."""
    body = t[1:-1]
    return tuple(int(v) for v in body.split(",")) if body else ()


def finsets_op_cat(height: int) -> FinCat:
    """F^op truncated: arrow m -> n is a function [n] -> [m], composed backwards."""
    arrows = {}
    identity = {}
    compose = {}
    fns: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for m in range(height + 1):
        for n in range(height + 1):
            fns[(m, n)] = [tuple(v) for v in itertools.product(range(m), repeat=n)]
            if n == 0:
                fns[(m, n)] = [()]
    for (m, n), vals in fns.items():
        for v in vals:
            name = fn_arrow_id(m, n, v)
            arrows[name] = Arrow(name, str(m), str(n))
        ident = tuple(range(m))
        if n == m:
            identity[str(m)] = fn_arrow_id(m, m, ident)
    for (m, n), vals in fns.items():
        for v in vals:  # v : [n] -> [m], arrow m -> n
            for (n2, p), wals in fns.items():
                if n2 != n:
                    continue
                for w in wals:  # w : [p] -> [n], arrow n -> p
                    comp = tuple(v[w[i]] for i in range(p))
                    compose[(fn_arrow_id(n, p, w), fn_arrow_id(m, n, v))] = fn_arrow_id(
                        m, p, comp
                    )
    return FinCat(
        objects=frozenset(str(k) for k in range(height + 1)),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal="0",
    )


def with_compose(c: FinCat, put=(), drop=(), **fields) -> FinCat:
    """A copy of c whose composition table lacks the keys of ``drop`` and
    has the entries of ``put``, with any other field given; c is left as
    it is."""
    compose = {k: v for k, v in c.compose.items() if k not in drop}
    compose.update(put)
    return dataclasses.replace(c, compose=compose, **fields)


def chain_tree(height: int):
    """Linear rooted tree 0 <- 1 <- ... <- height."""
    from bcsys.core import RootedTree

    levels = tuple(frozenset({f"n{k}"}) for k in range(height + 1))
    parent = tuple({f"n{k + 1}": f"n{k}"} for k in range(height))
    return RootedTree(height=height, levels=levels, parent=parent)


def count_paths(tree) -> int:
    """Non-empty edge paths in a rooted tree, counted directly."""
    total = 0
    for n in range(1, tree.height + 1):
        for _node in tree.levels[n]:
            total += n  # one path per cut-off length
    return total


def split_ids(s: str, sep: str) -> list[str]:
    """Split on unescaped separators and unescape the pieces: the inverse
    of ``core.join_ids`` for ``sep`` '|'."""
    parts = []
    cur = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            cur.append(s[i + 1])
            i += 2
            continue
        if c == sep:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    parts.append("".join(cur))
    return parts


def unpack_ids(s: str) -> tuple[str, ...]:
    """The parts of a packed id, the inverse of ``core.pack_ids``."""
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a packed id: {s!r}")
    body = s[1:-1]
    if body == "":
        return ()
    return tuple(split_ids(body, ","))


def unesc(part: str) -> str:
    out = []
    i = 0
    while i < len(part):
        if part[i] == "\\" and i + 1 < len(part):
            out.append(part[i + 1])
            i += 2
        else:
            out.append(part[i])
            i += 1
    return "".join(out)


def _last_unescaped(s: str, ch: str) -> int:
    for i in range(len(s) - 1, -1, -1):
        if s[i] != ch:
            continue
        j, nb = i - 1, 0
        while j >= 0 and s[j] == "\\":
            nb += 1
            j -= 1
        if nb % 2 == 0:
            return i
    return -1


def parse_obj_id(s: str) -> tuple[int, str]:
    i = _last_unescaped(s, "@")
    if i < 0:
        raise ValueError(f"not an object id: {s!r}")
    return int(s[i + 1 :]), unesc(s[:i])


def parse_path_id(s: str) -> tuple[int, str, int]:
    i = _last_unescaped(s, ">")
    if i < 0:
        raise ValueError(f"not a path id: {s!r}")
    n, node = parse_obj_id(s[:i])
    return n, node, int(s[i + 1 :])


def violations(rep: Report) -> list[Violation]:
    """Every violation of ``rep``, law by law in sorted order."""
    return [v for name in sorted(rep.laws) for v in rep.laws[name].violations]


def total_skipped(rep: Report) -> int:
    return sum(r.skipped for r in rep.laws.values())


def b_image(b: BSystem) -> BSystem:
    """e_to_b(b_to_e(b)), which b_roundtrip_iso compares b with."""
    return e_to_b(b_to_e(b))


def unit_of(e: ESystem) -> EHom:
    """The unit at e, into ce_to_e(e_to_ce(e))."""
    return unit_ehom(e, ce_to_e(e_to_ce(e)))


def counit_of(a: CESystem) -> CEHom:
    """The counit at a, from e_to_ce(ce_to_e(a))."""
    e = ce_to_e(a)
    return counit_cehom(a, e, e_to_ce(e))
