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

    for c in sorted(fam.arrows):
        rep.tick("functor-I")
        img = a.ifun.get(c)
        if img is None:
            if base.partial:
                rep.skip("functor-I")
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
        rep.tick("functor-I")
        fid, bid = fam.identity.get(x), base.identity.get(x)
        if fid is None or bid is None:
            rep.skip("functor-I")
        elif a.ifun.get(fid) != bid:
            rep.fail("functor-I", (x,), "identity not preserved")
    for (g, f), gf in sorted(fam.compose.items()):
        rep.tick("functor-I")
        img = base.compose.get((a.ifun.get(g), a.ifun.get(f)))
        if img is None:
            rep.skip("functor-I")
        elif img != a.ifun.get(gf):
            rep.fail("functor-I", (g, f), "composition not preserved")

    rep.tick("root")
    if a.root not in fam.objects:
        rep.fail("root", (a.root,), "root not an object")
    else:
        for x in sorted(fam.objects):
            if len(fam.hom(x, a.root)) != 1:
                rep.fail("root", (x,), "root not terminal in families")
    if rooted:
        for x in sorted(base.objects):
            rep.tick("rooted")
            if len(base.hom(x, a.root)) != 1:
                rep.fail("rooted", (x,), "root not terminal in the base")

    # coverage of the pullback choice
    for f in sorted(base.arrows):
        gamma = base.cod(f)
        for A in fam.arrows_into(gamma):
            rep.tick("coverage")
            if (f, A) not in a.pb:
                rep.skip("coverage")

    for (f, A), (fA, pi2) in sorted(a.pb.items()):
        delta, gamma = base.dom(f), base.cod(f)
        rep.tick("pb-commute")
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
            rep.skip("pb-commute")
            continue
        check_pullback_square(base, pi2, ifa, ia, f, rep, "pb-universal", (f, A))
        lhs, rhs = base.compose.get((ia, pi2)), base.compose.get((f, ifa))
        if lhs is None or rhs is None:
            rep.skip("pb-commute")
        elif lhs != rhs:
            rep.fail("pb-commute", (f, A), "square does not commute")

    # functoriality clauses
    for f, ar in sorted(base.arrows.items()):
        rep.tick("pb-a")
        entry = a.pb.get((f, fam.identity.get(ar.cod)))
        ident = fam.identity.get(ar.dom)
        if entry is None or ident is None:
            rep.skip("pb-a")
        elif entry != (ident, f):
            rep.fail("pb-a", (f,), f"pullback of identity family is {entry!r}")
    for A, ar in sorted(fam.arrows.items()):
        rep.tick("pb-b")
        entry = a.pb.get((base.identity.get(ar.cod), A))
        ident = base.identity.get(ar.dom)
        if entry is None or ident is None:
            rep.skip("pb-b")
        elif entry != (A, ident):
            rep.fail("pb-b", (A,), f"pullback along identity is {entry!r}")
    check_pullback_composites(base, a.pb, rep, "pb-c")
    for (f, A), (fA, pi2) in sorted(a.pb.items()):
        for P in fam.arrows_into(fam.dom(A)):
            rep.tick("pb-d")
            lhs = a.pb.get((f, fam.compose.get((A, P))))
            inner = a.pb.get((pi2, P))
            qP = None if inner is None else fam.compose.get((fA, inner[0]))
            if lhs is None or qP is None:
                rep.skip("pb-d")
                continue
            expect = (qP, inner[1])
            if lhs != expect:
                rep.fail("pb-d", (f, A, P), f"{lhs!r} != {expect!r}")

    if stratified:
        strat = stratify(fam) if fam.terminal is not None else None
        if not isinstance(strat, Stratification):
            rep.miss("stratified", "family category does not stratify")
        else:
            for (f, A), (fA, pi2) in sorted(a.pb.items()):
                rep.tick("stratified")
                delta, gamma = base.dom(f), base.cod(f)
                lhs = strat.of(fam.dom(fA))
                rhs = strat.of(delta) + strat.of(fam.dom(A)) - strat.of(gamma)
                if lhs != rhs:
                    rep.fail("stratified", (f, A), f"L = {lhs}, expected {rhs}")
    return rep


def validate_ce_hom(h: CEHom, stratified: bool = False) -> Report:
    """Commuting square over the two I functors, root and pullback preservation.

    With ``stratified``, the family component must preserve levels and the
    pullback condition is checked through individual families only.
    """
    rep = Report()
    rep.merge(validate_functor(h.fam_map), prefix="fam:")
    rep.merge(validate_functor(h.base_map), prefix="base:")
    for law in ("square", "root", "pb"):
        rep.law(law)
    src, tgt = h.source, h.target

    for x in sorted(src.fam.objects):
        rep.tick("square")
        if h.fam_map.object_map.get(x) != h.base_map.object_map.get(x):
            rep.fail("square", (x,), "components disagree on objects")
    for c in sorted(src.fam.arrows):
        rep.tick("square")
        lhs = h.base_map.arrow_map.get(src.ifun.get(c))
        rhs = tgt.ifun.get(h.fam_map.arrow_map.get(c))
        if lhs is None or rhs is None:
            rep.skip("square")
        elif lhs != rhs:
            rep.fail("square", (c,), "square over I does not commute")

    rep.tick("root")
    if h.fam_map.object_map.get(src.root) != tgt.root:
        rep.fail("root", (src.root,), "root not preserved")

    strat = None
    if stratified:
        s = stratify(src.fam) if src.fam.terminal is not None else None
        t = stratify(tgt.fam) if tgt.fam.terminal is not None else None
        if isinstance(s, Stratification) and isinstance(t, Stratification):
            strat = (s, t)
            rep.law("stratified")
            # an unmapped object, or one whose image is no object, has no level
            for x in sorted(src.fam.objects):
                rep.tick("stratified")
                if t.level.get(h.fam_map.object_map.get(x)) != s.of(x):
                    rep.fail("stratified", (x,), "family component not stratified")
        else:
            rep.miss("stratified", "one side does not stratify")

    for (f, A), (fA, pi2) in sorted(src.pb.items()):
        if strat is not None:
            s, _ = strat
            # the individual-arrow criterion suffices for stratified homs
            if s.of(src.fam.dom(A)) != s.of(src.fam.cod(A)) + 1:
                continue
        rep.tick("pb")
        fi = h.base_map.arrow_map.get(f)
        Ai = h.fam_map.arrow_map.get(A)
        if fi is None or Ai is None:
            rep.skip("pb")
            continue
        entry = h.target.pb.get((fi, Ai))
        if entry is None:
            rep.skip("pb")
            continue
        expect = (h.fam_map.arrow_map.get(fA), h.base_map.arrow_map.get(pi2))
        if entry != expect:
            rep.fail("pb", (f, A), f"{entry!r} != {expect!r}")
    return rep


# ---------------------------------------------------------------------------
# the finite-set example


def fn_arrow(m: int, n: int, values: tuple[int, ...]) -> str:
    return f"f{m}->{n}[" + ",".join(str(v) for v in values) + "]"


def parse_fn_arrow(name: str) -> tuple[int, int, tuple[int, ...]]:
    head, _, body = name.partition("[")
    m, n = head[1:].split("->")
    vals = tuple(int(v) for v in body[:-1].split(",")) if body[:-1] else ()
    return int(m), int(n), vals


def finsets_op_cat(height: int) -> FinCat:
    """F^op truncated: an arrow m -> n is a function [n] -> [m]."""
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    fns: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for m in range(height + 1):
        for n in range(height + 1):
            fns[(m, n)] = [tuple(v) for v in itertools.product(range(m), repeat=n)]
    for (m, n), vals in fns.items():
        for v in vals:
            name = fn_arrow(m, n, v)
            arrows[name] = Arrow(name, str(m), str(n))
        if n == m:
            identity[str(m)] = fn_arrow(m, m, tuple(range(m)))
    for (m, n), vals in fns.items():
        for v in vals:
            for (n2, p), wals in fns.items():
                if n2 != n:
                    continue
                for w in wals:
                    comp = tuple(v[w[i]] for i in range(p))
                    compose[(fn_arrow(n, p, w), fn_arrow(m, n, v))] = fn_arrow(m, p, comp)
    return FinCat(
        objects=frozenset(str(k) for k in range(height + 1)),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal="0",
    )


def build_finset_cesystem(height: int) -> CESystem:
    """Families (N, >=), base F^op, pullback of n+k >= n along f by [f, 1_k]."""
    fam = nat_poset_cat(height)
    base = finsets_op_cat(height)
    ifun = {}
    for m in range(height + 1):
        for n in range(m + 1):
            ifun[nat_arrow(m, n)] = fn_arrow(m, n, tuple(range(n)))
    pb: dict[tuple[str, str], tuple[str, str]] = {}
    for name in base.arrows:
        m, n, f = parse_fn_arrow(name)  # f : [n] -> [m], arrow m -> n
        for k in range(height - n + 1):
            if m + k > height:
                continue
            A = nat_arrow(n + k, n)
            fA = nat_arrow(m + k, m)
            pi2 = fn_arrow(m + k, n + k, f + tuple(m + i for i in range(k)))
            pb[(name, A)] = (fA, pi2)
    return CESystem(fam=fam, base=base, ifun=ifun, root="0", pb=pb)
