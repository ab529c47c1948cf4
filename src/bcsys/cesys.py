"""CE-systems: two categories on shared objects, pullbacks of families.

A CE-system pairs a category of families with a category of contexts on
the same objects, an identity-on-objects functor between them, and a
functorial choice of pullbacks of families along context arrows. The
finite-set example lives here; rootedness and stratification are checked
behind flags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    Arrow,
    FinCat,
    FunctorData,
    Stratification,
    stratify,
    validate_fincat,
    validate_functor,
)
from .csys import check_pullback_composites, check_pullback_square
from .esys import nat_arrow, nat_poset_cat
from .report import Report


@dataclass
class CESystem:
    fam: FinCat
    base: FinCat
    ifun: dict[str, str]  # family arrow -> base arrow, identity on objects
    root: str
    pb: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    # pb[(f, A)] = (f*A, pi2) for f a base arrow into cod(A)


@dataclass
class CEHom:
    source: CESystem
    target: CESystem
    fam_map: FunctorData
    base_map: FunctorData


def validate_cesystem(a: CESystem, rooted: bool = False, stratified: bool = False) -> Report:
    """Shared objects, the functor I, pullback squares and their functoriality.

    With ``rooted``: the root must be terminal in the base too. With
    ``stratified``: the family category must stratify, and every chosen
    pullback must satisfy the level identity making each f* stratified.
    """
    rep = Report()
    rep.merge(validate_fincat(a.fam), prefix="fam:")
    rep.merge(validate_fincat(a.base), prefix="base:")
    fam, base = a.fam, a.base
    laws = ["objects-shared", "functor-I", "root", "pb-commute", "pb-universal",
            "pb-a", "pb-b", "pb-c", "pb-d", "coverage"]
    if rooted:
        laws.append("rooted")
    if stratified:
        laws.append("stratified")
    for law in laws:
        rep.law(law)

    rep.tick("objects-shared")
    if fam.objects != base.objects:
        rep.fail("objects-shared", (), "family and base objects differ")

    skipped = 0
    for c in sorted(fam.arrows):
        img = a.ifun.get(c)
        if img is None:
            if base.partial:
                skipped += 1
            else:
                rep.fail("functor-I", (c,), "unmapped family arrow")
            continue
        if img not in base.arrows:
            rep.fail("functor-I", (c, img), "image not a base arrow")
            continue
        if base.dom(img) != fam.dom(c) or base.cod(img) != fam.cod(c):
            rep.fail("functor-I", (c, img), "I is not identity on objects")
    # a missing entry reads as None, and no table is keyed by None
    for x in sorted(fam.objects):
        fid, bid = fam.identity.get(x), base.identity.get(x)
        if fid is None or bid is None:
            skipped += 1
        elif a.ifun.get(fid) != bid:
            rep.fail("functor-I", (x,), "identity not preserved")
    for (g, f), gf in sorted(fam.compose.items()):
        img = base.compose.get((a.ifun.get(g), a.ifun.get(f)))
        if img is None:
            skipped += 1
        elif img != a.ifun.get(gf):
            rep.fail("functor-I", (g, f), "composition not preserved")
    rep.tick("functor-I", len(fam.arrows) + len(fam.objects) + len(fam.compose))
    rep.skip("functor-I", skipped)

    rep.tick("root")
    if a.root not in fam.objects:
        rep.fail("root", (a.root,), "root not an object")
    else:
        for x in sorted(fam.objects):
            if len(fam.hom(x, a.root)) != 1:
                rep.fail("root", (x,), "root not terminal in families")
    if rooted:
        rep.tick("rooted", len(base.objects))
        for x in sorted(base.objects):
            if len(base.hom(x, a.root)) != 1:
                rep.fail("rooted", (x,), "root not terminal in the base")

    # coverage of the pullback choice
    pairs = [(f, A) for f in base.arrows for A in fam.arrows_into(base.cod(f))]
    rep.tick("coverage", len(pairs))
    rep.skip("coverage", sum(pair not in a.pb for pair in pairs))

    skipped = 0
    for (f, A), (fA, pi2) in sorted(a.pb.items()):
        delta, gamma = base.dom(f), base.cod(f)
        if fam.cod(A) != gamma:
            rep.fail("pb-commute", (f, A), "family does not sit over cod(f)")
            continue
        if fA not in fam.arrows or fam.cod(fA) != delta:
            rep.fail("pb-commute", (f, A, fA), "pulled family does not sit over dom(f)")
            continue
        if pi2 not in base.arrows or base.dom(pi2) != fam.dom(fA) or base.cod(pi2) != fam.dom(A):
            rep.fail("pb-commute", (f, A, pi2), "second projection endpoints wrong")
            continue
        ia, ifa = a.ifun.get(A), a.ifun.get(fA)
        if ia is None or ifa is None:
            skipped += 1
            continue
        check_pullback_square(base, pi2, ifa, ia, f, rep, "pb-universal", (f, A))
        lhs, rhs = base.compose.get((ia, pi2)), base.compose.get((f, ifa))
        if lhs is None or rhs is None:
            skipped += 1
        elif lhs != rhs:
            rep.fail("pb-commute", (f, A), "square does not commute")
    rep.tick("pb-commute", len(a.pb))
    rep.skip("pb-commute", skipped)

    # functoriality clauses
    skipped = 0
    for f, ar in sorted(base.arrows.items()):
        entry = a.pb.get((f, fam.identity.get(ar.cod)))
        ident = fam.identity.get(ar.dom)
        if entry is None or ident is None:
            skipped += 1
        elif entry != (ident, f):
            rep.fail("pb-a", (f,), f"pullback of identity family is {entry!r}")
    rep.tick("pb-a", len(base.arrows))
    rep.skip("pb-a", skipped)
    skipped = 0
    for A, ar in sorted(fam.arrows.items()):
        entry = a.pb.get((base.identity.get(ar.cod), A))
        ident = base.identity.get(ar.dom)
        if entry is None or ident is None:
            skipped += 1
        elif entry != (A, ident):
            rep.fail("pb-b", (A,), f"pullback along identity is {entry!r}")
    rep.tick("pb-b", len(fam.arrows))
    rep.skip("pb-b", skipped)
    check_pullback_composites(base, a.pb, rep, "pb-c")
    checked = skipped = 0
    for (f, A), (fA, pi2) in sorted(a.pb.items()):
        for P in fam.arrows_into(fam.dom(A)):
            checked += 1
            lhs = a.pb.get((f, fam.compose.get((A, P))))
            inner = a.pb.get((pi2, P))
            qP = None if inner is None else fam.compose.get((fA, inner[0]))
            if lhs is None or qP is None:
                skipped += 1
                continue
            expect = (qP, inner[1])
            if lhs != expect:
                rep.fail("pb-d", (f, A, P), f"{lhs!r} != {expect!r}")
    rep.tick("pb-d", checked)
    rep.skip("pb-d", skipped)

    if stratified:
        strat = stratify(fam) if fam.terminal is not None else None
        if not isinstance(strat, Stratification):
            rep.miss("stratified", "family category does not stratify")
        else:
            rep.tick("stratified", len(a.pb))
            for (f, A), (fA, pi2) in sorted(a.pb.items()):
                delta, gamma = base.dom(f), base.cod(f)
                lhs = strat.of(fam.dom(fA))
                rhs = strat.of(delta) + strat.of(fam.dom(A)) - strat.of(gamma)
                if lhs != rhs:
                    rep.fail("stratified", (f, A), f"L = {lhs}, expected {rhs}")
    return rep


def validate_ce_hom(h: CEHom) -> Report:
    """Commuting square over the two I functors, root and pullback preservation."""
    rep = Report()
    rep.merge(validate_functor(h.fam_map), prefix="fam:")
    rep.merge(validate_functor(h.base_map), prefix="base:")
    for law in ("square", "root", "pb"):
        rep.law(law)
    src, tgt = h.source, h.target

    rep.tick("square", len(src.fam.objects) + len(src.fam.arrows))
    for x in sorted(src.fam.objects):
        if h.fam_map.object_map.get(x) != h.base_map.object_map.get(x):
            rep.fail("square", (x,), "components disagree on objects")
    skipped = 0
    for c in sorted(src.fam.arrows):
        lhs = h.base_map.arrow_map.get(src.ifun.get(c))
        rhs = tgt.ifun.get(h.fam_map.arrow_map.get(c))
        if lhs is None or rhs is None:
            skipped += 1
        elif lhs != rhs:
            rep.fail("square", (c,), "square over I does not commute")
    rep.skip("square", skipped)

    rep.tick("root")
    if h.fam_map.object_map.get(src.root) != tgt.root:
        rep.fail("root", (src.root,), "root not preserved")

    rep.tick("pb", len(src.pb))
    skipped = 0
    for (f, A), (fA, pi2) in sorted(src.pb.items()):
        fi = h.base_map.arrow_map.get(f)
        Ai = h.fam_map.arrow_map.get(A)
        entry = None if fi is None or Ai is None else h.target.pb.get((fi, Ai))
        if entry is None:
            skipped += 1
            continue
        expect = (h.fam_map.arrow_map.get(fA), h.base_map.arrow_map.get(pi2))
        if entry != expect:
            rep.fail("pb", (f, A), f"{entry!r} != {expect!r}")
    rep.skip("pb", skipped)
    return rep


# ---------------------------------------------------------------------------
# the finite-set example


def fn_arrow(m: int, n: int, values: tuple[int, ...]) -> str:
    return f"f{m}->{n}[" + ",".join(str(v) for v in values) + "]"


def _finsets_op(height: int) -> tuple[FinCat, dict[tuple[int, int], dict[tuple[int, ...], str]]]:
    """F^op truncated, where an arrow m -> n is a function [n] -> [m],
    with its names: ``names[(m, n)][v]`` is the arrow m -> n of v.

    Each name is made once, and a composite is the name of v . w looked
    up in ``names``.
    """
    names = {
        (m, n): {v: fn_arrow(m, n, v) for v in itertools.product(range(m), repeat=n)}
        for m in range(height + 1)
        for n in range(height + 1)
    }
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    for (m, n), by_fn in names.items():
        for name in by_fn.values():
            arrows[name] = Arrow(name, str(m), str(n))
        if n == m:
            identity[str(m)] = by_fn[tuple(range(m))]
    for (m, n), by_fn in names.items():
        for v, g in by_fn.items():
            at = v.__getitem__
            for p in range(height + 1):
                into = names[(m, p)]
                for w, f in names[(n, p)].items():
                    compose[(f, g)] = into[tuple(map(at, w))]
    cat = FinCat(
        objects=frozenset(str(k) for k in range(height + 1)),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal="0",
    )
    return cat, names


def build_finset_cesystem(height: int) -> CESystem:
    """Families (N, >=), base F^op, pullback of n+k >= n along f by [f, 1_k]."""
    fam = nat_poset_cat(height)
    base, names = _finsets_op(height)
    ifun = {}
    for m in range(height + 1):
        for n in range(m + 1):
            ifun[nat_arrow(m, n)] = names[(m, n)][tuple(range(n))]
    pb: dict[tuple[str, str], tuple[str, str]] = {}
    for (m, n), by_fn in names.items():
        for f, name in by_fn.items():  # f : [n] -> [m], arrow m -> n
            for k in range(height - n + 1):
                if m + k > height:
                    continue
                A = nat_arrow(n + k, n)
                fA = nat_arrow(m + k, m)
                pb[(name, A)] = (fA, names[(m + k, n + k)][f + tuple(range(m, m + k))])
    return CESystem(fam=fam, base=base, ifun=ifun, root="0", pb=pb)
