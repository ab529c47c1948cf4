"""Hand-rolled finite categories used as independent oracles in tests,
and the decoders of object and path ids.

These constructions deliberately avoid the package's own builders where a
test is meant to cross-check one: they encode the textbook definitions
directly (thin categories from a transitive relation, opposite-of-finite-
sets via plain function composition).

``parse_obj_id`` and ``parse_path_id`` invert ``core.obj_id`` and
``core.path_id``. The translations keep what they encode in an id, so
only tests decode one.
"""

from __future__ import annotations

import itertools

from bcsys.core import Arrow, FinCat


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
