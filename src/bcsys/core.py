"""Finite strict categories, stratification, rooted trees, and slices.

Everything downstream builds on the types here. Categories are finite
presentations: explicit object and arrow sets with a stored composition
table. Validators re-derive the laws instead of trusting construction,
so arbitrary (including broken) tables can be checked.

Object and arrow ids are opaque strings; equality is id equality.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .report import Report, Truncated


def esc(part: str) -> str:
    """Escape an id for embedding into a composite id."""
    return part.replace("\\", "\\\\").replace("|", "\\|").replace("@", "\\@").replace(">", "\\>")


def join_ids(*parts: str) -> str:
    return "|".join(esc(p) for p in parts)


def split_ids(s: str, sep: str) -> list[str]:
    """Split on unescaped separators and unescape the pieces."""
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


def pack_ids(parts: tuple[str, ...] | list[str]) -> str:
    """Canonical tuple encoding used for generated term and element ids."""
    return "(" + ",".join(p.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)") for p in parts) + ")"


def unpack_ids(s: str) -> tuple[str, ...]:
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a packed id: {s!r}")
    body = s[1:-1]
    if body == "":
        return ()
    return tuple(split_ids(body, ","))


@dataclass(frozen=True)
class Arrow:
    name: str
    dom: str
    cod: str


@dataclass
class FinCat:
    """A finite strict category with a stored composition table.

    ``compose[(g, f)]`` is the composite g after f, for f: X -> Y and
    g: Y -> Z. The table is expected to be total on composable pairs;
    validate_fincat reports where it is not.

    ``hom``, ``arrows_into`` and ``arrows_from`` read an index of sorted
    arrow names built once, from ``arrows`` only, when the category is
    made; ``arrows`` is not to be changed afterwards. Nothing derived
    from ``compose`` is cached, so a composition table corrupted in place
    is seen by every later lookup and check.
    """

    objects: frozenset[str]
    arrows: dict[str, Arrow]
    identity: dict[str, str]
    compose: dict[tuple[str, str], str]
    terminal: str | None = None
    # Truncated presentations (e.g. internal-hom categories of a height-
    # truncated system) may lack some composites or identities; validators
    # then skip instead of failing.
    partial: bool = False

    def __post_init__(self) -> None:
        self._hom: dict[tuple[str, str], list[str]] = {}
        self._into: dict[str, list[str]] = {}
        self._from: dict[str, list[str]] = {}
        for a in sorted(self.arrows):
            ar = self.arrows[a]
            self._hom.setdefault((ar.dom, ar.cod), []).append(a)
            self._into.setdefault(ar.cod, []).append(a)
            self._from.setdefault(ar.dom, []).append(a)

    def dom(self, a: str) -> str:
        return self.arrows[a].dom

    def cod(self, a: str) -> str:
        return self.arrows[a].cod

    def id_of(self, obj: str) -> str:
        try:
            return self.identity[obj]
        except KeyError:
            raise Truncated(f"identity({obj!r})") from None

    def is_id(self, a: str) -> bool:
        arr = self.arrows[a]
        return arr.dom == arr.cod and self.identity.get(arr.dom) == a

    def comp(self, g: str, f: str) -> str:
        """Composite g∘f (f applied first)."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise Truncated(f"compose({g!r},{f!r})") from None

    def hom(self, x: str, y: str) -> list[str]:
        return list(self._hom.get((x, y), ()))

    def arrows_into(self, y: str) -> list[str]:
        return list(self._into.get(y, ()))

    def arrows_from(self, x: str) -> list[str]:
        return list(self._from.get(x, ()))


@dataclass(frozen=True)
class FunctorData:
    """Explicit functor tables between two finite categories."""

    source: FinCat
    target: FinCat
    object_map: dict[str, str]
    arrow_map: dict[str, str]


@dataclass(frozen=True)
class RootedTree:
    """Level sets T_0..T_height with parent maps T_{n+1} -> T_n."""

    height: int
    levels: tuple[frozenset[str], ...]
    parent: tuple[dict[str, str], ...]


@dataclass(frozen=True)
class Stratification:
    level: dict[str, int]

    def of(self, obj: str) -> int:
        return self.level[obj]


@dataclass(frozen=True)
class StratFailure:
    """Which of the three stratification conditions broke, and where."""

    condition: str  # "i", "ii" or "iii"
    witness: tuple
    detail: str = ""


@dataclass(frozen=True)
class SliceCat:
    """The strict slice of ``base`` over ``apex``, materialized.

    Objects of ``cat`` are the arrows of ``base`` into ``apex`` (same
    ids). Arrows of ``cat`` are commuting triangles, with ids encoding
    the triple (underlying arrow, source object, target object).
    """

    base: FinCat
    apex: str
    cat: FinCat
    triangle: dict[str, tuple[str, str, str]]


# ---------------------------------------------------------------------------
# validation


def validate_units(c: FinCat) -> Report:
    """The category laws checked in linear time: identities, endpoints, unit law."""
    rep = Report()

    for obj in sorted(c.objects):
        rep.tick("identity")
        i = c.identity.get(obj)
        if i is None:
            if c.partial:
                rep.skip("identity")
            else:
                rep.fail("identity", (obj,), "no identity arrow")
            continue
        if i not in c.arrows:
            rep.fail("identity", (obj, i), "identity arrow not present")
            continue
        if c.dom(i) != obj or c.cod(i) != obj:
            rep.fail("identity", (obj, i), "identity endpoints wrong")

    for a, ar in sorted(c.arrows.items()):
        rep.tick("endpoints")
        if ar.dom not in c.objects or ar.cod not in c.objects:
            rep.fail("endpoints", (a,), "dangling dom/cod")
        if ar.name != a:
            rep.fail("endpoints", (a,), "arrow key and name disagree")

    # a missing identity reads as None, and no composite is keyed by None
    for f, ar in sorted(c.arrows.items()):
        rep.tick("unit")
        left = c.compose.get((c.identity.get(ar.cod), f))
        right = c.compose.get((f, c.identity.get(ar.dom)))
        if left is None or right is None:
            rep.skip("unit")
            continue
        if left != f:
            rep.fail("unit", (f,), f"id∘f = {left!r}")
        if right != f:
            rep.fail("unit", (f,), f"f∘id = {right!r}")

    return rep


def validate_fincat(c: FinCat) -> Report:
    """Exhaustively check the strict-category laws and the chosen terminal.

    Every composable pair (g, f) and triple (h, g, f) is checked, in
    sorted order, but only composable data is visited. ``_into[y]`` holds
    exactly the arrows with codomain y, in sorted order, so for a fixed g
    the sorted ``_into[dom g]`` is the sorted list of the f with
    dom g = cod f: the pairs a loop over all sorted (g, f) would keep.
    In the same way h, then g in ``_into[dom h]``, then f in
    ``_into[dom g]`` lists the composable triples in sorted order.

    Composite totality: the table's keys (g, f) that are not composable
    are collected in one pass over ``compose`` and merged into g's row in
    sorted f order, so every witness comes out in (g, f) order. Keys
    naming an arrow that does not exist come last, in sorted key order.

    Associativity: a triple is skipped when one of g∘f, (h∘g)∘f or
    h∘(g∘f) is missing. When h∘g is missing, every f of the row is
    skipped, so the row is counted as len(_into[dom g]) checked and as
    many skipped without visiting its f. Counts are added to the report
    once, after the loop; only the witnesses depend on the order.

    The other rows (h, g) are compared whole where they can be. rows[x]
    is the tuple of x∘f over f in _into[dom x], with None where a
    composite is missing, and ``full`` the arrows whose row has no None;
    left maps each a in _into[dom h] to h∘a where that is present. Where
    hg = h∘g is an arrow with dom hg = dom g, rows[hg] runs over the
    same fs = _into[dom g] as rows[g], so it holds every (h∘g)∘f, and
    rows[g] every g∘f. When fs has more than one f and g and hg are both
    in ``full``, gathering left at rows[g] gives every h∘(g∘f), or
    raises KeyError where some g∘f is not an arrow into dom h or
    h∘(g∘f) is missing. If the gathered tuple equals rows[hg], every
    triple of the row has both sides present and equal: it is compared,
    as one element of the tuple comparison, and neither skipped nor
    failed, so ``checked`` still counts every triple compared. Every
    other row, including a KeyError or an unequal tuple, runs the per-f
    loop of _assoc_row over the same g∘f and (h∘g)∘f, the latter read
    from the table where hg is no arrow or has another domain. It looks
    h∘(g∘f) up in left, and in the table where left has no entry, which
    finds a stray key (h, g∘f) too. So the witnesses, their order and
    the skips are those of a loop over every triple.
    """
    rep = validate_units(c)
    arrows, compose, into = c.arrows, c.compose, c._into
    names = sorted(arrows)

    stray: dict[str, list[str]] = {}
    unknown: list[tuple[str, str]] = []
    for g, f in compose:
        if g not in arrows or f not in arrows:
            unknown.append((g, f))
        elif arrows[g].dom != arrows[f].cod:
            stray.setdefault(g, []).append(f)

    for g in names:
        ar_g = arrows[g]
        row = into.get(ar_g.dom, [])
        if row:
            rep.tick("compose-total", len(row))
        noncomposable = stray.get(g, ())
        if noncomposable:
            row = sorted(row + noncomposable)
        for f in row:
            if f in noncomposable:
                rep.fail("compose-total", (g, f), "composite of non-composable pair")
                continue
            gf = compose.get((g, f))
            if gf is None:
                if c.partial:
                    rep.skip("compose-total")
                else:
                    rep.fail("compose-total", (g, f), "missing composite")
                continue
            ar_gf = arrows.get(gf)
            if ar_gf is None:
                rep.fail("compose-total", (g, f, gf), "composite not an arrow")
                continue
            if ar_gf.dom != arrows[f].dom or ar_gf.cod != ar_g.cod:
                rep.fail("compose-endpoints", (g, f, gf), "composite endpoints wrong")
    for g, f in sorted(unknown):
        rep.fail("compose-total", (g, f), "composite of unknown arrow")

    rows = {x: tuple(compose.get((x, f)) for f in into.get(ar.dom, ())) for x, ar in arrows.items()}
    full = {x for x, row in rows.items() if None not in row}
    checked = skipped = 0
    for h in names:
        into_h = into.get(arrows[h].dom, ())
        left = {a: ha for a in into_h if (ha := compose.get((h, a))) is not None}
        for g in into_h:
            dom_g = arrows[g].dom
            fs = into.get(dom_g, ())
            checked += len(fs)
            hg = left.get(g)
            if hg is None:
                skipped += len(fs)
                continue
            ar_hg = arrows.get(hg)
            if ar_hg is None or ar_hg.dom != dom_g:
                lhss = [compose.get((hg, f)) for f in fs]
            else:
                lhss = rows[hg]
                if len(fs) > 1 and g in full and hg in full:
                    try:
                        if itemgetter(*rows[g])(left) == lhss:
                            continue
                    except KeyError:
                        pass
            skipped += _assoc_row(compose, left, h, g, fs, rows[g], lhss, rep)
    if checked:
        rep.tick("assoc", checked)
    if skipped:
        rep.skip("assoc", skipped)

    if c.terminal is not None:
        if c.terminal not in c.objects:
            rep.fail("terminal", (c.terminal,), "terminal not an object")
        else:
            for obj in sorted(c.objects):
                rep.tick("terminal")
                arrs = c.hom(obj, c.terminal)
                if len(arrs) != 1:
                    rep.fail("terminal", (obj, tuple(arrs)), "hom to terminal not a singleton")
    return rep


def _assoc_row(
    compose: dict[tuple[str, str], str],
    left: dict[str, str],
    h: str,
    g: str,
    fs: list[str],
    gfs: tuple[str | None, ...],
    lhss: Sequence[str | None],
    rep: Report,
) -> int:
    """Compare (h∘g)∘f with h∘(g∘f) for each f of fs, in order; report
    the failures and return the number of triples skipped. gfs and lhss
    hold g∘f and (h∘g)∘f for each f, None where missing; left holds h∘a
    for the a into dom h, and compose is read for any other a."""
    skipped = 0
    for f, gf, lhs in zip(fs, gfs, lhss):
        rhs = None if gf is None else left.get(gf) or compose.get((h, gf))
        if lhs is None or rhs is None:
            skipped += 1
        elif lhs != rhs:
            rep.fail("assoc", (h, g, f), f"{lhs!r} != {rhs!r}")
    return skipped


def validate_tree(t: RootedTree) -> Report:
    rep = Report()
    rep.tick("root")
    if len(t.levels) != t.height + 1 or len(t.parent) != t.height:
        rep.fail("shape", (t.height,), "level/parent arity mismatch")
        return rep
    if len(t.levels[0]) != 1:
        rep.fail("root", (tuple(sorted(t.levels[0])),), "T_0 is not a singleton")
    for n in range(t.height):
        for node in sorted(t.levels[n + 1]):
            rep.tick("parent")
            p = t.parent[n].get(node)
            if p is None:
                rep.fail("parent", (n + 1, node), "no parent")
            elif p not in t.levels[n]:
                rep.fail("parent", (n + 1, node, p), "parent not at level below")
    return rep


# ---------------------------------------------------------------------------
# stratification


def stratify(c: FinCat) -> Stratification | StratFailure:
    """Compute the unique stratification of ``c``, or explain why none exists.

    Levels are grown outward from the chosen terminal: an object is
    assigned level n+1 once all its non-identity out-arrows land on
    assigned objects. The candidate assignment is then checked against
    the three conditions characterising stratifications; the failure
    value names the first violated condition with a minimal witness.
    """
    if c.terminal is None:
        raise ValueError("stratify requires a chosen terminal object")

    level: dict[str, int] = {c.terminal: 0}
    proper_out: dict[str, list[str]] = {
        x: [a for a in c.arrows_from(x) if not c.is_id(a)] for x in c.objects
    }
    pending = set(c.objects) - {c.terminal}
    while pending:
        ready = []
        for x in sorted(pending):
            targets = [c.cod(a) for a in proper_out[x]]
            if all(t in level for t in targets):
                ready.append((x, targets))
        if not ready:
            witness = min(pending)
            return StratFailure("ii", (witness,), "no factorization down to the terminal")
        for x, targets in ready:
            level[x] = 1 + max((level[t] for t in targets), default=0)
            pending.discard(x)

    if level[c.terminal] != 0:
        return StratFailure("i", (c.terminal,), "terminal not at level 0")

    by_level: dict[int, list[str]] = {}
    for x, n in level.items():
        by_level.setdefault(n, []).append(x)

    for x in sorted(c.objects):
        for k in range(level[x] + 1):
            down = [
                a
                for y in by_level.get(k, [])
                for a in c.hom(x, y)
            ]
            if len(down) != 1:
                return StratFailure(
                    "ii", (x, k, tuple(sorted(down))), "arrows to that level not a singleton"
                )

    for a in sorted(c.arrows):
        if level[c.dom(a)] < level[c.cod(a)]:
            return StratFailure("iii", (a,), "arrow raises level")

    return Stratification(level=dict(level))


def individual_arrow(c: FinCat, s: Stratification, x: str) -> str:
    """The unique individual arrow with domain ``x`` (level of x positive)."""
    k = s.of(x)
    if k == 0:
        raise ValueError(f"{x!r} is at level 0")
    cands = [a for a in c.arrows_from(x) if s.of(c.cod(a)) == k - 1]
    if len(cands) != 1:
        raise ValueError(f"no unique individual arrow out of {x!r}")
    return cands[0]


# ---------------------------------------------------------------------------
# rooted trees <-> free stratified categories


def obj_id(n: int, node: str) -> str:
    return f"{esc(node)}@{n}"


def path_id(n: int, node: str, k: int) -> str:
    return f"{esc(node)}@{n}>{k}"


def free_cat_of_tree(t: RootedTree) -> tuple[FinCat, Stratification]:
    """The category freely generated by the parent edges of ``t``.

    Objects are (level, node) pairs; the arrows out of a node are the
    edge paths (node, k) down to its k-th iterated parent, with k = 0
    the identity.
    """
    objects = set()
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    level: dict[str, int] = {}

    anc: dict[tuple[int, str], list[str]] = {}
    for n in range(t.height + 1):
        for node in t.levels[n]:
            o = obj_id(n, node)
            objects.add(o)
            level[o] = n
            identity[o] = path_id(n, node, 0)
            chain = [node]
            m, cur = n, node
            while m > 0:
                cur = t.parent[m - 1][cur]
                chain.append(cur)
                m -= 1
            anc[(n, node)] = chain
            for k in range(n + 1):
                arrows[path_id(n, node, k)] = Arrow(
                    path_id(n, node, k), o, obj_id(n - k, chain[k])
                )

    for n in range(t.height + 1):
        for node in t.levels[n]:
            chain = anc[(n, node)]
            for k in range(n + 1):
                f = path_id(n, node, k)
                mid = chain[k]
                for j in range(n - k + 1):
                    g = path_id(n - k, mid, j)
                    compose[(g, f)] = path_id(n, node, k + j)

    root = next(iter(t.levels[0]))
    cat = FinCat(
        objects=frozenset(objects),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=obj_id(0, root),
    )
    return cat, Stratification(level=level)


# ---------------------------------------------------------------------------
# slices


def triangle_id(h: str, f: str, g: str) -> str:
    return join_ids(h, f, g)


def slice_mors(c: FinCat, apex: str) -> list[tuple[str, str, str]]:
    """The morphisms of the slice over ``apex``: triples (h, f, g) with g∘h = f.

    f and g range over the arrows into ``apex`` and h over
    hom(dom f, dom g). A triangle whose composite g∘h is missing from a
    truncated composition table is skipped, not raised as Truncated.
    """
    objs = c.arrows_into(apex)
    return [
        (h, f, g)
        for f in objs
        for g in objs
        for h in c.hom(c.dom(f), c.dom(g))
        if c.compose.get((g, h)) == f
    ]


def slice_category(c: FinCat, apex: str, mors: list[tuple[str, str, str]]) -> SliceCat:
    """Materialize the strict slice of ``c`` over ``apex`` as a FinCat;
    ``mors`` is slice_mors(c, apex)."""
    if apex not in c.objects:
        raise ValueError(f"{apex!r} is not an object")
    objs = c.arrows_into(apex)
    triangle = {triangle_id(*m): m for m in mors}
    arrows = {tid: Arrow(tid, f, g) for tid, (_h, f, g) in triangle.items()}
    identity = {f: triangle_id(c.id_of(c.dom(f)), f, f) for f in objs}
    compose: dict[tuple[str, str], str] = {}
    for t1, (h1, f1, g1) in triangle.items():
        for t2, (h2, f2, g2) in triangle.items():
            if f2 == g1:
                compose[(t2, t1)] = triangle_id(c.comp(h2, h1), f1, g2)
    cat = FinCat(
        objects=frozenset(objs),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=c.id_of(apex),
    )
    return SliceCat(base=c, apex=apex, cat=cat, triangle=triangle)


# ---------------------------------------------------------------------------
# functors


def validate_functor(fd: FunctorData) -> Report:
    """Check functor laws exhaustively."""
    rep = Report()
    src, tgt = fd.source, fd.target

    for x in sorted(src.objects):
        rep.tick("object-map")
        y = fd.object_map.get(x)
        if y is None:
            rep.fail("object-map", (x,), "unmapped object")
        elif y not in tgt.objects:
            rep.fail("object-map", (x, y), "image not an object")

    for a in sorted(src.arrows):
        rep.tick("arrow-map")
        b = fd.arrow_map.get(a)
        if b is None:
            rep.fail("arrow-map", (a,), "unmapped arrow")
            continue
        if b not in tgt.arrows:
            rep.fail("arrow-map", (a, b), "image not an arrow")
            continue
        if tgt.dom(b) != fd.object_map.get(src.dom(a)) or tgt.cod(b) != fd.object_map.get(
            src.cod(a)
        ):
            rep.fail("arrow-map", (a, b), "endpoints not preserved")

    # a missing entry reads as None, and no table is keyed by None
    obj_map, arrow_map = fd.object_map, fd.arrow_map
    for x in sorted(src.objects):
        rep.tick("preserves-identity")
        lhs = arrow_map.get(src.identity.get(x))
        rhs = tgt.identity.get(obj_map.get(x))
        if lhs is None or rhs is None:
            rep.skip("preserves-identity")
        elif lhs != rhs:
            rep.fail("preserves-identity", (x,))

    for (g, f), gf in sorted(src.compose.items()):
        rep.tick("preserves-compose")
        img = tgt.compose.get((arrow_map.get(g), arrow_map.get(f)))
        fgf = arrow_map.get(gf)
        if img is None or fgf is None:
            rep.skip("preserves-compose")
        elif img != fgf:
            rep.fail("preserves-compose", (g, f), f"{img!r} != F({gf!r})")

    return rep


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    return FunctorData(
        source=f.source,
        target=g.target,
        object_map={x: g.object_map[y] for x, y in f.object_map.items()},
        arrow_map={a: g.arrow_map[b] for a, b in f.arrow_map.items()},
    )


def identity_functor(c: FinCat) -> FunctorData:
    return FunctorData(
        source=c,
        target=c,
        object_map={x: x for x in c.objects},
        arrow_map={a: a for a in c.arrows},
    )

