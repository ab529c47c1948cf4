"""Finite strict categories, stratification, rooted trees, and slices.

Everything downstream builds on the types here. Categories are finite
presentations: explicit object and arrow sets with a stored composition
table. Validators re-derive the laws instead of trusting construction,
so arbitrary (including broken) tables can be checked.

Object and arrow ids are opaque strings; equality is id equality.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from types import MappingProxyType

from .report import Report, Truncated


def esc(part: str) -> str:
    """Escape an id for embedding into a composite id."""
    return part.replace("\\", "\\\\").replace("|", "\\|").replace("@", "\\@").replace(">", "\\>")


def join_ids(*parts: str) -> str:
    return "|".join(esc(p) for p in parts)


def pack_ids(parts: tuple[str, ...] | list[str]) -> str:
    """Canonical tuple encoding used for generated term and element ids."""
    return "(" + ",".join(p.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)") for p in parts) + ")"


@dataclass(frozen=True)
class Arrow:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class FinCat:
    """A finite strict category with a stored composition table.

    ``compose[(g, f)]`` is the composite g after f, for f: X -> Y and
    g: Y -> Z. The table is expected to be total on composable pairs;
    validate_fincat reports where it is not.

    A category never changes once made: its fields cannot be set, and
    ``arrows``, ``identity`` and ``compose`` are read-only views of the
    tables it is made from, which its maker hands over. So what is
    derived from it is kept with it, outside ``repr`` and equality: the
    index of sorted arrow names that ``hom``, ``arrows_into`` and
    ``arrows_from`` read, built when the category is made, and the slice
    morphisms of each apex and the restriction plan of each arrow, made
    by slice_mors and _restriction_plan when first asked for. A damaged
    copy is a new category (dataclasses.replace), with an index, slices
    and plans of its own; copy and deepcopy return the category.
    """

    objects: frozenset[str]
    arrows: Mapping[str, Arrow]
    identity: Mapping[str, str]
    compose: Mapping[tuple[str, str], str]
    terminal: str | None = None
    # Truncated presentations (e.g. internal-hom categories of a height-
    # truncated system) may lack some composites or identities; validators
    # then skip instead of failing.
    partial: bool = False

    def __post_init__(self) -> None:
        # a frozen instance is set up through its __dict__
        d = vars(self)
        for name in ("arrows", "identity", "compose"):
            if type(d[name]) is not MappingProxyType:
                d[name] = MappingProxyType(d[name])
        hom: dict[tuple[str, str], list[str]] = {}
        into: dict[str, list[str]] = {}
        out: dict[str, list[str]] = {}
        for a in sorted(self.arrows):
            ar = self.arrows[a]
            hom.setdefault((ar.dom, ar.cod), []).append(a)
            into.setdefault(ar.cod, []).append(a)
            out.setdefault(ar.dom, []).append(a)
        # _slices: apex -> slice_mors(self, apex); _plans: P ->
        # _restriction_plan(self, P)
        d.update(_hom=hom, _into=into, _from=out, _slices={}, _plans={})

    def __copy__(self) -> FinCat:
        return self

    def __deepcopy__(self, memo: dict) -> FinCat:
        memo[id(self)] = self
        return self

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
    """Which of the three stratification conditions broke, and where:
    "ii" or "iii". Condition (i), the terminal alone at level 0, holds
    by construction, as stratify grows the levels from the terminal."""

    condition: str  # "ii" or "iii"
    witness: tuple
    detail: str

    def __str__(self) -> str:
        return f"condition ({self.condition}) of a stratification fails at {self.witness!r}: {self.detail}"


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

    skipped = 0
    for obj in sorted(c.objects):
        i = c.identity.get(obj)
        if i is None:
            if c.partial:
                skipped += 1
            else:
                rep.fail("identity", (obj,), "no identity arrow")
            continue
        if i not in c.arrows:
            rep.fail("identity", (obj, i), "identity arrow not present")
            continue
        if c.dom(i) != obj or c.cod(i) != obj:
            rep.fail("identity", (obj, i), "identity endpoints wrong")
    if c.objects:
        rep.tick("identity", len(c.objects))
        rep.skip("identity", skipped)

    for a, ar in sorted(c.arrows.items()):
        if ar.dom not in c.objects or ar.cod not in c.objects:
            rep.fail("endpoints", (a,), "dangling dom/cod")
        if ar.name != a:
            rep.fail("endpoints", (a,), "arrow key and name disagree")
    if c.arrows:
        rep.tick("endpoints", len(c.arrows))

    skipped = 0
    # a missing identity reads as None, and no composite is keyed by None
    for f, ar in sorted(c.arrows.items()):
        left = c.compose.get((c.identity.get(ar.cod), f))
        right = c.compose.get((f, c.identity.get(ar.dom)))
        if left is None or right is None:
            skipped += 1
            continue
        if left != f:
            rep.fail("unit", (f,), f"id∘f = {left!r}")
        if right != f:
            rep.fail("unit", (f,), f"f∘id = {right!r}")
    if c.arrows:
        rep.tick("unit", len(c.arrows))
        rep.skip("unit", skipped)

    return rep


def validate_fincat(c: FinCat) -> Report:
    """Exhaustively check the strict-category laws and the chosen terminal.

    The report is that of a loop over every sorted composable pair (g, f)
    and triple (h, g, f), with the same counts and the same witnesses in
    the same order, but only the entries of ``compose`` are visited
    (_composites gives table, rows and other).

    Composite totality ticks len(_into[dom g]) pairs for each g. Where g
    has no stray key (a non-composable pair of arrows) and every missing
    g∘f is a skip, only the f of rows[g] are checked and the others are
    counted as skipped. Any other row walks _into[dom g] merged with g's
    stray keys, to write its witnesses in f order. Keys naming an arrow
    that does not exist fail last, in sorted key order.

    Associativity ticks len(_from[cod g]) * len(_into[dom g]) triples for
    each g. A triple is skipped when g∘f, h∘g, (h∘g)∘f or h∘(g∘f) is
    missing, so only the rows (h, g) of rows[h], and in each the f of
    rows[g], are visited; the triples not compared count as skipped.
    (h∘g)∘f is read from table[h∘g], or from ``other`` when h∘g is no
    arrow with the domain of g; h∘(g∘f) from table[h], then ``other``,
    which holds a stray key (h, g∘f). Where the rows of g and h∘g are
    complete and have several f, the row is compared as one tuple
    gathered from table[h]; a KeyError or an unequal tuple sends it to
    the per-f loop of _assoc_row, which writes the witnesses.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, §1.2) applies when every law above held with nothing skipped:
    every object has an identity, the unit law holds at every arrow, and
    every composable pair has a composite in its hom-set. Let T be the
    arrows a with (h∘a)∘f = h∘(a∘f) for all composable h and f. T holds
    the identities, both sides being h∘f by the unit law. For a, b in T,
    (h∘(a∘b))∘f = ((h∘a)∘b)∘f = (h∘a)∘(b∘f) = h∘(a∘(b∘f)) = h∘((a∘b)∘f)
    by a, b, a, b in T in turn, so T is closed under composition. Hence T
    is every arrow once it holds the generators _generators picks: only
    their rows (h, g) are compared, and the other triples are proved and
    counted as checked. If a generator row fails, every row is compared.
    """
    rep = validate_units(c)
    arrows, into = c.arrows, c._into
    names = sorted(arrows)
    table, rows, other = _composites(c)
    full = {g for g, (fs, _) in rows.items() if len(fs) == len(into[arrows[g].dom])}

    stray: dict[str, list[str]] = {}
    for g, f in other:
        if g in arrows and f in arrows:
            stray.setdefault(g, []).append(f)
    pairs = sum(len(into.get(ar.dom, ())) for ar in arrows.values())
    if pairs:
        rep.tick("compose-total", pairs)
    skipped = 0
    for g in names:
        ar_g = arrows[g]
        fs = into.get(ar_g.dom, [])
        walk = rows[g][0] if g in rows else ()
        missing = len(fs) - len(walk)
        noncomposable = stray.get(g, ())
        if noncomposable or (missing and not c.partial):
            walk = sorted([*fs, *noncomposable])
        else:
            skipped += missing
        row = table.get(g, {})
        for f in walk:
            if f in noncomposable:
                rep.fail("compose-total", (g, f), "composite of non-composable pair")
                continue
            gf = row.get(f)
            if gf is None:
                if c.partial:
                    skipped += 1
                else:
                    rep.fail("compose-total", (g, f), "missing composite")
                continue
            ar_gf = arrows.get(gf)
            if ar_gf is None:
                rep.fail("compose-total", (g, f, gf), "composite not an arrow")
                continue
            if ar_gf.dom != arrows[f].dom or ar_gf.cod != ar_g.cod:
                rep.fail("compose-endpoints", (g, f, gf), "composite endpoints wrong")
    if skipped:
        rep.skip("compose-total", skipped)
    for g, f in sorted(k for k in other if k[0] not in arrows or k[1] not in arrows):
        rep.fail("compose-total", (g, f), "composite of unknown arrow")

    def assoc(hgs: list[tuple[str, str, str]], out: Report) -> int:
        """Compare the rows (h, g, h∘g) into ``out``; the triples compared."""
        compared = 0
        for h, g, hg in hgs:
            left = table[h]
            fs, gfs = rows.get(g, ((), ()))
            ar_hg = arrows.get(hg)
            if ar_hg is None or ar_hg.dom != arrows[g].dom:
                lhss = [other.get((hg, f)) for f in fs]
            else:
                if len(fs) > 1 and g in full and hg in full:
                    try:
                        if itemgetter(*gfs)(left) == rows[hg][1]:
                            compared += len(fs)
                            continue
                    except KeyError:
                        pass
                lhss = list(map(table.get(hg, {}).get, fs))
            compared += len(fs) - _assoc_row(other, left, h, g, fs, gfs, lhss, out)
        return compared

    checked = sum(len(c._from.get(ar.cod, ())) * len(into.get(ar.dom, ())) for ar in arrows.values())
    if checked:
        rep.tick("assoc", checked)
    every = [(h, g, hg) for h in names if h in rows for g, hg in zip(*rows[h])]
    proved = all(res.ok and not res.skipped for res in rep.laws.values())
    if proved:
        gens = _generators(c, names, table)
        probe = Report()
        assoc([row for row in every if row[1] in gens], probe)
        proved = not probe.laws
    if not proved:
        skipped = checked - assoc(every, rep)
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


def _composites(c: FinCat) -> tuple[dict, dict, dict]:
    """One pass over ``compose``: table[g] = {f: g∘f} over the composable
    pairs whose composite is not None, rows[g] = (those f, sorted, and
    their composites), and ``other`` the keys that are not composable.
    compose.get((g, f)) is table[g].get(f) or other.get((g, f))."""
    arrows = c.arrows
    table: dict[str, dict[str, str]] = {}
    other: dict[tuple[str, str], str] = {}
    for key, gf in c.compose.items():
        ar_g, ar_f = arrows.get(key[0]), arrows.get(key[1])
        if ar_g is None or ar_f is None or ar_g.dom != ar_f.cod:
            other[key] = gf
        elif gf is not None:
            table.setdefault(key[0], {})[key[1]] = gf
    rows = {}
    for g, row in table.items():
        fs = c._into[arrows[g].dom]
        if len(row) < len(fs):
            fs = sorted(row)
        rows[g] = (fs, tuple(map(row.__getitem__, fs)))
    return table, rows, other


def _generators(c: FinCat, names: list[str], table: dict[str, dict[str, str]]) -> set[str]:
    """Generators of a category with every composite present and in its
    hom-set: each arrow, in sorted order, that is not yet made from the
    identities and the generators before it. ``made`` is closed under
    composing on the left with a generator, so it holds every composite
    g1∘(g2∘(...∘(gk∘x))) of generators gi and an identity x."""
    made = {c.identity[x] for x in c.objects}
    gens: dict[str, list[str]] = {}  # by domain
    for a in names:
        if a not in made:
            gens.setdefault(c.arrows[a].dom, []).append(a)
            todo = [table[a][x] for x in c._into[c.arrows[a].dom] if x in made]
            while todo:
                y = todo.pop()
                if y not in made:
                    made.add(y)
                    todo.extend(table[b][y] for b in gens.get(c.arrows[y].cod, ()))
    return {a for row in gens.values() for a in row}


def _assoc_row(
    other: dict[tuple[str, str], str],
    left: dict[str, str],
    h: str,
    g: str,
    fs: list[str],
    gfs: tuple[str, ...],
    lhss: Sequence[str | None],
    rep: Report,
) -> int:
    """Compare (h∘g)∘f with h∘(g∘f) for each f of fs, in order; report
    the failures and return the number of triples skipped. gfs holds
    g∘f and lhss (h∘g)∘f for each f, None where missing; left holds h∘a
    for the a into dom h, and ``other`` the keys that are not composable."""
    skipped = 0
    for f, gf, lhs in zip(fs, gfs, lhss):
        rhs = left.get(gf) or other.get((h, gf))
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
    assigned objects, so the terminal alone is at level 0, as condition
    (i) asks. The candidate assignment is then checked against the other
    two conditions characterising stratifications; the failure value
    names the first violated condition with a minimal witness.
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


def unique_arrow(c: FinCat, x: str, y: str) -> str | None:
    """The one arrow x -> y, or None where hom(x, y) is not a singleton.
    It reads the category's index, without the copy FinCat.hom makes."""
    arrs = c._hom.get((x, y), ())
    return arrs[0] if len(arrs) == 1 else None


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


def slice_mors(c: FinCat, apex: str) -> tuple[tuple[str, str, str], ...]:
    """The morphisms of the slice over ``apex``: triples (h, f, g) with g∘h = f.

    f and g range over the arrows into ``apex`` and h over
    hom(dom f, dom g). A triangle whose composite g∘h is missing from a
    truncated composition table is skipped, not raised as Truncated.
    Each apex is enumerated once per category and kept in ``c._slices``,
    so every caller gets the same tuple.
    """
    mors = c._slices.get(apex)
    if mors is None:
        objs = c.arrows_into(apex)
        mors = c._slices[apex] = tuple(
            (h, f, g)
            for f in objs
            for g in objs
            for h in c.hom(c.dom(f), c.dom(g))
            if c.compose.get((g, h)) == f
        )
    return mors


# Where F/P reads F, for one slice object P of one category: P, the pairs
# (q, (q, P∘q, P)) for the slice objects q over dom(P) with P∘q defined,
# and the pairs (m, (h, P∘q1, P∘q2)) for the slice morphisms m = (h, q1,
# q2) over dom(P) with both composites defined, in slice_mors order.
_Plan = tuple[str, list[tuple[str, tuple[str, str, str]]], list[tuple[tuple[str, str, str], tuple[str, str, str]]]]


def _restriction_plan(c: FinCat, P: str) -> _Plan:
    """The plan of F/P for every slice functor F on slices of ``c``, for
    P an arrow (see esys.restrict_sf). Each P is planned once per
    category and kept in ``c._plans``, as slice_mors keeps each apex."""
    plan = c._plans.get(P)
    if plan is None:
        compose = c.compose
        dom = c.dom(P)
        objs = []
        for q in c.arrows_into(dom):
            pq = compose.get((P, q))
            if pq is not None:
                objs.append((q, (q, pq, P)))
        mors = []
        for m in slice_mors(c, dom):
            pq1, pq2 = compose.get((P, m[1])), compose.get((P, m[2]))
            if pq1 is not None and pq2 is not None:
                mors.append((m, (m[0], pq1, pq2)))
        plan = c._plans[P] = (P, objs, mors)
    return plan


def slice_category(c: FinCat, apex: str) -> SliceCat:
    """Materialize the strict slice of ``c`` over ``apex`` as a FinCat."""
    if apex not in c.objects:
        raise ValueError(f"{apex!r} is not an object")
    objs = c.arrows_into(apex)
    triangle = {triangle_id(*m): m for m in slice_mors(c, apex)}
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


_DOM, _COD = attrgetter("dom"), attrgetter("cod")
_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def validate_functor(fd: FunctorData) -> Report:
    """Check functor laws exhaustively.

    Each law is first tested on whole maps, in C-level passes over the
    source's objects, arrows or composites, and walked entry by entry, in
    sorted order, only when that test fails. No table is keyed by None,
    so a missing entry reads as None on both paths. An entry fails or is
    skipped exactly where the whole test does not hold there:

    - object-map: x fails iff its image is None or no target object,
      that is, iff the target's objects do not contain it;
    - arrow-map: a fails iff its image is None or no target arrow, or the
      image's dom or cod is not the mapped dom or cod of a; the whole test
      asks that every image is a target arrow, then compares the gathered
      endpoints;
    - preserves-identity and preserves-compose: an entry is skipped iff a
      side is None and fails iff the sides differ, so the walk is needed
      iff the gathered sides differ or hold a None (equal lists hold it
      at the same places, so one is searched).

    Each law is ticked once with its number of instances, so it is
    registered only when it has one, and its skips are entered once.
    """
    rep = Report()
    src, tgt = fd.source, fd.target
    obj_map, arrow_map = fd.object_map, fd.arrow_map
    objects, arrows, compose = src.objects, src.arrows, src.compose
    tgt_objects, tgt_arrows = tgt.objects, tgt.arrows

    if objects:
        rep.tick("object-map", len(objects))
        if not all(map(tgt_objects.__contains__, map(obj_map.get, objects))):
            for x in sorted(objects):
                y = obj_map.get(x)
                if y is None:
                    rep.fail("object-map", (x,), "unmapped object")
                elif y not in tgt_objects:
                    rep.fail("object-map", (x, y), "image not an object")

    if arrows:
        rep.tick("arrow-map", len(arrows))
        images = list(map(arrow_map.get, arrows))
        whole = all(map(tgt_arrows.__contains__, images)) and all(
            list(map(end, map(tgt_arrows.__getitem__, images)))
            == list(map(obj_map.get, map(end, arrows.values())))
            for end in (_DOM, _COD)
        )
        if not whole:
            for a in sorted(arrows):
                b = arrow_map.get(a)
                if b is None:
                    rep.fail("arrow-map", (a,), "unmapped arrow")
                elif b not in tgt_arrows:
                    rep.fail("arrow-map", (a, b), "image not an arrow")
                elif tgt.dom(b) != obj_map.get(src.dom(a)) or tgt.cod(b) != obj_map.get(src.cod(a)):
                    rep.fail("arrow-map", (a, b), "endpoints not preserved")

    if objects:
        rep.tick("preserves-identity", len(objects))
        lhs = list(map(arrow_map.get, map(src.identity.get, objects)))
        if None in lhs or lhs != list(map(tgt.identity.get, map(obj_map.get, objects))):
            skipped = 0
            for x in sorted(objects):
                lhs = arrow_map.get(src.identity.get(x))
                rhs = tgt.identity.get(obj_map.get(x))
                if lhs is None or rhs is None:
                    skipped += 1
                elif lhs != rhs:
                    rep.fail("preserves-identity", (x,))
            rep.skip("preserves-identity", skipped)

    if compose:
        rep.tick("preserves-compose", len(compose))
        gs, fs = map(arrow_map.get, map(_FIRST, compose)), map(arrow_map.get, map(_SECOND, compose))
        imgs = list(map(tgt.compose.get, zip(gs, fs)))
        if None in imgs or imgs != list(map(arrow_map.get, compose.values())):
            skipped = 0
            for (g, f), gf in sorted(compose.items()):
                img = tgt.compose.get((arrow_map.get(g), arrow_map.get(f)))
                fgf = arrow_map.get(gf)
                if img is None or fgf is None:
                    skipped += 1
                elif img != fgf:
                    rep.fail("preserves-compose", (g, f), f"{img!r} != F({gf!r})")
            rep.skip("preserves-compose", skipped)

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

