"""Brute-force references for the indexed law checks and the translations.

The first two are the straightforward loops that ``core.validate_fincat``
and ``csys.check_pullback_square`` replace: every pair and triple of
arrow names is tested for composability, and every candidate cone
searches all of hom(Z, P) for mediators, with a missing composite raised
as Truncated and caught as a skip.

The next three build the internal-hom category, the E-to-CE translation
and the vertical composite the way ``esys.internal_hom_cat``,
``xlate.e_to_ce`` and ``esys.vertical_compose`` used to: one whole
precomposite f* = compose_sf(S_f, restrict_sf(W_A, B)) per internal
morphism f, and one whole restriction W_{A.P}/B per vertical composite.
``e_to_ce_reference`` calls the other two references.
``_substitute_x_reference`` is the x half of ``esys.term_extension`` as
it was before it read S_x/P pointwise: it restricts the whole functor
S_x to the slice over dom(P) to read two of its entries.

``restrict_sf_reference`` is ``esys.restrict_sf`` as it was before
restrictions went through one plan per slice object: it enumerates the
slice over dom(P) and reads the composites afresh on every call.

``validate_sfunctor_reference`` and ``ehom_part_reference`` are
``esys.validate_sfunctor`` and ``esys._ehom_part`` as they were before
they counted checks and skips in locals and looked comparisons up by the
numbers of their sides: every instance is ticked and skipped on the
report as it is met, every composition pair of a slice functor is found
by a scan of all its morphisms, and every comparison builds both sides
with ``compose_sf`` and restricts with ``restrict_sf_reference``.

``unit_ehom_reference`` builds the unit the way ``xlate.unit_ehom`` used
to: one whole restriction W_{!Γ}/!Γ per arrow A into Γ, to read the
position of A.

The next three are ``xlate.b_to_e``, ``c_to_ce`` and ``ce_to_c`` as they
were before ``b_to_e`` packed each term tuple once and the pullback
loops walked ``arrows_into``: every term tuple and its image is packed
where it is used, and every arrow of the base is tested for its
codomain. ``b_to_e_reference`` raises ``KeyError`` on a missing
substitution, where ``b_to_e`` raises ``Truncated``. Both
``c_to_ce_reference`` and ``c_to_ce`` raise ``Truncated`` naming the
first missing father, where the earlier ``c_to_ce`` raised ``KeyError``.
``sfunctor_of_bhom_reference`` is the slice-functor lift they use, making
every path id where it is used.

``ih_term`` is the decoder of internal-hom ids that ``xlate`` used
before it read an arrow's term from the names of its hom set:
``counit_cehom_reference`` and ``cehom_of_ehom_reference`` are the
counit and E2CE on homomorphisms as they were then, and decode every
base arrow id with it.

Tests compare the fast code against them, result for result.
"""

from __future__ import annotations

from dataclasses import replace

from bcsys.bsys import BFrameHom, BSystem, bhom_identity, compose_bhom, restrict_bhom, slice_bframe
from bcsys.cesys import CEHom, CESystem
from bcsys.core import (
    Arrow,
    FinCat,
    FunctorData,
    Stratification,
    free_cat_of_tree,
    individual_arrow,
    obj_id,
    pack_ids,
    path_id,
    slice_category,
    slice_mors,
    split_ids,
    stratify,
    triangle_id,
    validate_units,
)
from bcsys.csys import CSystem
from bcsys.esys import (
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    compose_sf,
    hom_terms_of,
    ih_arrow,
    precompose,
    restrict_sf,
    sf_equal,
    slice_objects,
    term_action_at,
    term_extension,
)
from bcsys.report import Report, Truncated
from bcsys.xlate import _tree_of_frame, ce_to_e, e_to_ce, proj_path

from helpers import parse_path_id


def validate_fincat_reference(c: FinCat) -> Report:
    """validate_fincat by a loop over all sorted (g, f) and (h, g, f)."""
    rep = validate_units(c)
    names = sorted(c.arrows)
    for g in names:
        for f in names:
            if c.dom(g) != c.cod(f):
                if (g, f) in c.compose:
                    rep.fail("compose-total", (g, f), "composite of non-composable pair")
                continue
            rep.tick("compose-total")
            gf = c.compose.get((g, f))
            if gf is None:
                if c.partial:
                    rep.skip("compose-total")
                else:
                    rep.fail("compose-total", (g, f), "missing composite")
                continue
            if gf not in c.arrows:
                rep.fail("compose-total", (g, f, gf), "composite not an arrow")
                continue
            if c.dom(gf) != c.dom(f) or c.cod(gf) != c.cod(g):
                rep.fail("compose-endpoints", (g, f, gf), "composite endpoints wrong")

    for h in names:
        for g in names:
            if c.dom(h) != c.cod(g):
                continue
            for f in names:
                if c.dom(g) != c.cod(f):
                    continue
                rep.tick("assoc")
                try:
                    lhs = c.comp(c.comp(h, g), f)
                    rhs = c.comp(h, c.comp(g, f))
                except Truncated:
                    rep.skip("assoc")
                    continue
                if lhs != rhs:
                    rep.fail("assoc", (h, g, f), f"{lhs!r} != {rhs!r}")

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


def check_pullback_square_reference(
    cat: FinCat,
    top: str,
    left: str,
    right: str,
    bottom: str,
    rep: Report,
    law: str,
    witness: tuple,
) -> None:
    """check_pullback_square by a search over every w for every (u, v).

    top: P -> X, left: P -> Y, right: X -> Z, bottom: Y -> Z.
    """
    try:
        if cat.comp(right, top) != cat.comp(bottom, left):
            rep.fail(law, witness, "square does not commute")
            return
    except Truncated:
        rep.skip(law)
        return
    P = cat.dom(top)
    X, Y = cat.cod(top), cat.cod(left)
    for Z0 in sorted(cat.objects):
        for u in cat.hom(Z0, X):
            for v in cat.hom(Z0, Y):
                try:
                    if cat.comp(right, u) != cat.comp(bottom, v):
                        continue
                except Truncated:
                    rep.skip(law)
                    continue
                rep.tick(law)
                mediators = []
                try:
                    for w in cat.hom(Z0, P):
                        if cat.comp(top, w) == u and cat.comp(left, w) == v:
                            mediators.append(w)
                except Truncated:
                    rep.skip(law)
                    continue
                if len(mediators) != 1:
                    rep.fail(
                        law,
                        witness + (Z0, u, v),
                        f"{len(mediators)} mediating arrows",
                    )


def restrict_sf_reference(e: ESystem, F: SliceFunctorT, P: str) -> SliceFunctorT:
    """F/P: the functor induced between slices over dom(P) and dom(F(P))."""
    cat = e.cat
    if P not in F.obj_map:
        raise Truncated(f"restrict: {P!r} not in obj_map")
    out = SliceFunctorT(
        source_apex=cat.dom(P), target_apex=cat.dom(F.obj_map[P])
    )
    for q in slice_objects(cat, cat.dom(P)):
        pq = cat.compose.get((P, q))
        if pq is None:
            continue
        img = F.mor_map.get((q, pq, P))
        if img is not None:
            out.obj_map[q] = img
    for (h, q1, q2) in slice_mors(cat, cat.dom(P)):
        pq1 = cat.compose.get((P, q1))
        pq2 = cat.compose.get((P, q2))
        if pq1 is None or pq2 is None:
            continue
        img = F.mor_map.get((h, pq1, pq2))
        if img is None:
            continue
        out.mor_map[(h, q1, q2)] = img
        out.term_map[(h, q1, q2)] = dict(F.term_map.get((h, pq1, pq2), {}))
    return out


def validate_sfunctor_reference(e: ESystem, F: SliceFunctorT, rep: Report, law: str) -> None:
    """Functor-with-term-structure laws for one slice functor."""
    cat = e.cat
    src_objs = set(slice_objects(cat, F.source_apex))
    tgt_objs = set(slice_objects(cat, F.target_apex))
    for x, y in sorted(F.obj_map.items()):
        rep.tick(law)
        if x not in src_objs or y not in tgt_objs:
            rep.fail(law, (x, y), "object map endpoints wrong")
    for (h, a, b), h1 in sorted(F.mor_map.items()):
        rep.tick(law)
        fa, fb = F.obj_map.get(a), F.obj_map.get(b)
        if fa is None or fb is None:
            rep.skip(law)
            continue
        if cat.compose.get((fb, h1)) != fa:
            rep.fail(law, (h, a, b), "image does not commute over the apex")
    for a in sorted(F.obj_map):
        rep.tick(law)
        try:
            ida = cat.id_of(cat.dom(a))
            img = F.mor_map.get((ida, a, a))
            if img is None:
                rep.skip(law)
            elif img != cat.id_of(cat.dom(F.obj_map[a])):
                rep.fail(law, (a,), "identity not preserved")
        except Truncated:
            rep.skip(law)
    mors = sorted(F.mor_map)
    for (h1, a, b) in mors:
        for (h2, b2, c) in mors:
            if b2 != b:
                continue
            rep.tick(law)
            try:
                hh = cat.comp(h2, h1)
            except Truncated:
                rep.skip(law)
                continue
            lhs = F.mor_map.get((hh, a, c))
            try:
                rhs = cat.comp(F.mor_map[(h2, b, c)], F.mor_map[(h1, a, b)])
            except Truncated:
                rep.skip(law)
                continue
            if lhs is None:
                rep.skip(law)
            elif lhs != rhs:
                rep.fail(law, (h2, h1, a), "composition not preserved")
    for m, tm in sorted(F.term_map.items()):
        img = F.mor_map.get(m)
        for t, u in sorted(tm.items()):
            rep.tick(law)
            if t not in e.T(m[0]):
                rep.fail(law, (m, t), "term map key not a term")
            elif img is None or u not in e.T(img):
                rep.fail(law, (m, t, u), "term image outside target term set")


def ehom_part_reference(e: ESystem, H: SliceFunctorT, part: str, rep: Report, law: str) -> None:
    """One pre-E-homomorphism condition for H: part "sub", "weak" or "proj"."""
    cat = e.cat
    for P in slice_objects(cat, H.source_apex):
        if P not in H.obj_map:
            rep.skip(law)
            continue
        HP = restrict_sf_reference(e, H, P)
        for Q in slice_objects(cat, cat.dom(P)):
            PQ = cat.compose.get((P, Q))
            key = (Q, PQ, P)
            Qimg = H.mor_map.get(key) if PQ is not None else None
            if Qimg is None:
                rep.skip(law)
                continue
            try:
                HPQ = restrict_sf_reference(e, H, PQ)
            except Truncated:
                rep.skip(law)
                continue
            if part == "sub":
                for y in sorted(e.T(Q)):
                    rep.tick(law)
                    Sy = e.subst.get((Q, y))
                    yimg = H.term_map.get(key, {}).get(y)
                    Syi = e.subst.get((Qimg, yimg)) if yimg is not None else None
                    if Sy is None or Syi is None:
                        rep.skip(law)
                        continue
                    diff = sf_equal(compose_sf(e, HP, Sy), compose_sf(e, Syi, HPQ))
                    rep.record(law, diff, (P, Q, y))
            elif part == "weak":
                rep.tick(law)
                WQ, Wi = e.weak.get(Q), e.weak.get(Qimg)
                if WQ is None or Wi is None:
                    rep.skip(law)
                    continue
                rep.record(law, sf_equal(compose_sf(e, Wi, HP), compose_sf(e, HPQ, WQ)), (P, Q))
            else:
                rep.tick(law)
                oneQ, onei, WQ = e.proj.get(Q), e.proj.get(Qimg), e.weak.get(Q)
                u = WQ.obj_map.get(Q) if WQ is not None else None
                act = term_action_at(e, HPQ, u) if u is not None else None
                if oneQ is None or onei is None or act is None or oneQ not in act:
                    rep.skip(law)
                elif act[oneQ] != onei:
                    rep.fail(law, (P, Q), f"H(1) = {act[oneQ]!r}, expected {onei!r}")


def ih_term(e: ESystem, name: str, A: str, B: str) -> str | None:
    """The inverse of ih_arrow: decode the term t from the arrow id ``name``.

    None unless ``name`` decodes to endpoints (A, B) and a term in
    T(W_A(B)).
    """
    parts = split_ids(name, "|")
    if len(parts) != 4 or parts[:3] != ["ih", A, B]:
        return None
    ts = hom_terms_of(e, A, B)
    return parts[3] if ts is not None and parts[3] in ts else None


def internal_hom_cat_reference(e: ESystem, gamma: str) -> FinCat:
    """The strict category of internal morphisms over ``gamma``.

    Objects are the arrows into gamma; hom(A, B) = T(W_A(B)); composition
    is precomposition. On truncated systems some hom sets or composites
    fall outside the height; the result is marked partial.
    """
    cat = e.cat
    objs = slice_objects(cat, gamma)
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    partial = False

    for A in objs:
        for B in objs:
            ts = hom_terms_of(e, A, B)
            if ts is None:
                partial = True
                continue
            for t in ts:
                name = ih_arrow(A, B, t)
                arrows[name] = Arrow(name, A, B)
    for A in objs:
        one = e.proj.get(A)
        name = ih_arrow(A, A, one) if one is not None else None
        if name is None or name not in arrows:
            partial = True
            continue
        identity[A] = name
    for A in objs:
        for B in objs:
            ts1 = hom_terms_of(e, A, B)
            if ts1 is None:
                continue
            for f in ts1:
                try:
                    fstar = precompose(e, A, B, f)
                except Truncated:
                    partial = True
                    continue
                for C in objs:
                    ts2 = hom_terms_of(e, B, C)
                    if ts2 is None:
                        continue
                    wb = e.weak[B]
                    posBC = wb.obj_map.get(C)
                    for g in ts2:
                        act = term_action_at(e, fstar, posBC) if posBC else None
                        if act is None or g not in act:
                            partial = True
                            continue
                        gf = act[g]
                        if ih_arrow(A, C, gf) not in arrows:
                            partial = True
                            continue
                        compose[(ih_arrow(B, C, g), ih_arrow(A, B, f))] = ih_arrow(A, C, gf)
    return FinCat(
        objects=frozenset(objs),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=cat.id_of(gamma) if gamma in cat.identity else None,
        partial=partial,
    )


def vertical_compose_reference(e: ESystem, A: str, B: str, f: str, P: str, Q: str, F: str) -> str:
    """f.F : A.P -> B.Q, the pairing <W_P(f), F> over an internal morphism f.

    f is in hom(A, B) = T(W_A(B)); F is in hom_f(P, Q) = T(W_P(f*(Q))).
    """
    cat = e.cat
    wa, wp = e.weak.get(A), e.weak.get(P)
    if wa is None or wp is None:
        raise Truncated("weakening data")
    WAB = wa.obj_map.get(B)
    if WAB is None:
        raise Truncated("W_A(B)")
    act = term_action_at(e, wp, WAB)
    if act is None or f not in act:
        raise Truncated("W_P(f)")
    x = act[f]  # in T(W_P(W_A(B))) = T(W_{A.P}(B))
    Abar = wp.obj_map.get(WAB)
    if Abar is None:
        raise Truncated("W_P(W_A(B))")
    # P-bar = (W_{A.P}/B)(Q): the slice position whose substitution by x is f*(Q)
    AP = cat.comp(A, P)
    wap = e.weak.get(AP)
    if wap is None:
        raise Truncated("W_{A.P}")
    wapB = restrict_sf(e, wap, B)
    Pbar = wapB.obj_map.get(Q)
    if Pbar is None:
        raise Truncated("(W_{A.P}/B)(Q)")
    return term_extension(e, Abar, Pbar, x, F)


def _substitute_x_reference(e: ESystem, A: str, P: str, x: str) -> tuple[str, str | None, str | None]:
    """S_x(1_{A.P}), the slice position it sits on, and S_x(P)."""
    cat = e.cat
    AP = cat.comp(A, P)
    one = e.proj.get(AP)
    if one is None:
        raise Truncated(f"identity term of {AP!r}")
    wap = e.weak.get(AP)
    if wap is None or AP not in wap.obj_map:
        raise Truncated(f"W_{{{AP!r}}}({AP!r})")
    pos = wap.obj_map[AP]
    sx = e.subst.get((A, x))
    if sx is None:
        raise Truncated(f"S_{{{x!r}}}")
    sxp = restrict_sf(e, sx, P)
    act1 = term_action_at(e, sxp, pos)
    if act1 is None or one not in act1:
        raise Truncated("S_x/P action on the identity term")
    return act1[one], sxp.obj_map.get(pos), sx.obj_map.get(P)


def e_to_ce_reference(e: ESystem) -> CESystem:
    """Families are the slice at the terminal; contexts the internal morphisms."""
    root = e.cat.terminal
    if root is None:
        raise ValueError("e_to_ce needs a chosen terminal object")
    sl = slice_category(e.cat, root, slice_mors(e.cat, root))
    fam = sl.cat
    base = internal_hom_cat_reference(e, root)
    ifun: dict[str, str] = {}
    for t, (h, f, g) in sl.triangle.items():
        # first projection: weaken the identity term of g by h
        wg = e.weak.get(g)
        wh = e.weak.get(h)
        one = e.proj.get(g)
        if wg is None or wh is None or one is None:
            continue
        u = wg.obj_map.get(g)
        if u is None:
            continue
        act = term_action_at(e, wh, u)
        if act is None or one not in act:
            continue
        name = ih_arrow(f, g, act[one])
        if name in base.arrows:
            ifun[t] = name
    a = CESystem(fam=fam, base=base, ifun=ifun, root=fam.terminal)
    over: dict[str, list[tuple[str, str]]] = {}  # families R over B, as (R, B.R)
    for R, BR, B in sl.triangle.values():
        over.setdefault(B, []).append((R, BR))
    for name, arr in base.arrows.items():
        A, B = arr.dom, arr.cod
        x = ih_term(e, name, A, B)
        if x is None:
            continue
        try:
            star = precompose(e, A, B, x)
        except Truncated:
            continue
        for R, BR in over.get(B, []):
            # R is a family over B; pull it back along the internal x
            xR = star.obj_map.get(R)
            if xR is None:
                continue
            AxR = e.cat.compose.get((A, xR))
            if AxR is None or AxR not in fam.objects:
                continue
            onexR = e.proj.get(xR)
            if onexR is None:
                continue
            try:
                pi2 = vertical_compose_reference(e, A, B, x, xR, R, onexR)
            except Truncated:
                continue
            pi2name = ih_arrow(AxR, BR, pi2)
            if pi2name not in base.arrows:
                continue
            pulled = triangle_id(xR, AxR, A)
            if pulled not in fam.arrows:
                continue
            a.pb[(name, triangle_id(R, BR, B))] = (pulled, pi2name)
    return a


def unit_ehom_reference(e: ESystem) -> EHom:
    """eta: e -> ce_to_e(e_to_ce(e)), the slice-at-terminal comparison."""
    a = e_to_ce(e)
    ehat = ce_to_e(a)
    root = e.cat.terminal
    cat = e.cat
    bang = {}
    for x in cat.objects:
        hs = cat.hom(x, root)
        bang[x] = hs[0] if len(hs) == 1 else None
    object_map = {x: bang[x] for x in cat.objects if bang[x] is not None}
    arrow_map = {}
    for h in cat.arrows:
        f, g = bang.get(cat.dom(h)), bang.get(cat.cod(h))
        if f is None or g is None:
            continue
        t = triangle_id(h, f, g)
        if t in ehat.cat.arrows:
            arrow_map[h] = t
    term_map: dict[str, dict[str, str]] = {}
    for A in cat.arrows:
        tm = {}
        gamma = cat.cod(A)
        bg = bang.get(gamma)
        if bg is None:
            term_map[A] = tm
            continue
        one = e.proj.get(bg)
        wb = e.weak.get(bg)
        if one is None or wb is None:
            term_map[A] = tm
            continue
        abar = wb.obj_map.get(bg)
        try:
            pbar = restrict_sf(e, wb, bg).obj_map.get(A)
        except Truncated:
            pbar = None
        if abar is None or pbar is None:
            term_map[A] = tm
            continue
        for t in e.T(A):
            try:
                val = term_extension(e, abar, pbar, one, t)
            except Truncated:
                continue
            name = ih_arrow(bang[gamma], bang[cat.dom(A)], val)
            if arrow_map.get(A) is not None and name in ehat.T(arrow_map[A]):
                tm[t] = name
        term_map[A] = tm
    return EHom(
        source=e,
        target=ehat,
        functor=FunctorData(cat, ehat.cat, object_map, arrow_map),
        term_map=term_map,
    )


def sfunctor_of_bhom_reference(
    hom: BFrameHom,
    n_src: int,
    x_src: str,
    n_tgt: int,
    x_tgt: str,
) -> SliceFunctorT:
    """xlate._sfunctor_of_bhom as it was before b_to_e made each path id
    once per call: every id is made where it is used."""
    sf = SliceFunctorT(
        source_apex=obj_id(n_src, x_src), target_apex=obj_id(n_tgt, x_tgt)
    )
    src = hom.source
    for m in range(src.height + 1):
        level_map = hom.H.get(m)
        if level_map is None:
            continue
        for y, y1 in level_map.items():
            sf.obj_map[path_id(n_src + m, y, m)] = path_id(n_tgt + m, y1, m)
    for m in range(src.height + 1):
        for y in src.B[m]:
            if y not in hom.H.get(m, {}):
                continue
            y1 = hom.H[m][y]
            for d in range(m + 1):
                # slice morphism from (y, m) to its d-th truncation
                z = src.ft_iter(m, y, d) if d else y
                if z not in hom.H.get(m - d, {}):
                    continue
                h = path_id(n_src + m, y, d)
                f1 = path_id(n_src + m, y, m)
                g1 = path_id(n_src + m - d, z, m - d)
                sf.mor_map[(h, f1, g1)] = path_id(n_tgt + m, y1, d)
    return sf


def b_to_e_reference(bsys: BSystem) -> ESystem:
    """The stratified E-system on the free category of a B-system's frame."""
    frame = bsys.frame
    cat, strat = free_cat_of_tree(_tree_of_frame(frame))

    # inductive term tuples and their substitution homomorphisms
    t1: dict[tuple[int, str], list[str]] = {}
    for k in range(1, frame.height + 1):
        for X in frame.B[k]:
            t1[(k, X)] = sorted(x for x in frame.Bt[k] if frame.bd[k][x] == X)

    tsets: dict[tuple[int, str, int], list[tuple[str, ...]]] = {}
    shoms: dict[tuple[int, str, tuple[str, ...]], BFrameHom] = {}
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            tsets[(n, X, 0)] = [()]
            shoms[(n, X, ())] = bhom_identity(slice_bframe(frame, n, X))
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                out: list[tuple[str, ...]] = []
                if k == 1:
                    for x in t1[(n, X)]:
                        out.append((x,))
                        shoms[(n, X, (x,))] = bsys.subst[(n, x)]
                else:
                    ftX = frame.ft[n][X]
                    for t in tsets.get((n - 1, ftX, k - 1), []):
                        st = shoms[(n - 1, ftX, t)]
                        if X not in st.H.get(1, {}):
                            continue
                        y = st.H[1][X]
                        lv = n - k + 1
                        for x in t1.get((lv, y), []):
                            tup = t + (x,)
                            out.append(tup)
                            shoms[(n, X, tup)] = compose_bhom(
                                bsys.subst[(lv, x)], restrict_bhom(st, 1, X)
                            )
                tsets[(n, X, k)] = out

    terms: dict[str, frozenset[str]] = {}
    for (n, X, k), tups in tsets.items():
        terms[path_id(n, X, k)] = frozenset(pack_ids(t) for t in tups)
    e = ESystem(tc=TermCat(cat=cat, terms=terms), levels=dict(strat.level))

    def fill_terms(sf: SliceFunctorT, hom: BFrameHom, n_src: int) -> None:
        # terms of an arrow (y, d) are flat tuples of elements one level
        # above its codomain; the functor acts componentwise
        for key in list(sf.mor_map):
            h, _f, _g = key
            m, y, d = parse_path_id(h)
            if d == 0:
                sf.term_map[key] = {pack_ids(()): pack_ids(())}
                continue
            slice_lvl = (m - d + 1) - n_src
            tmap = hom.Ht.get(slice_lvl, {})
            table = {}
            for tup in tsets.get((m, y, d), []):
                if all(c in tmap for c in tup):
                    table[pack_ids(tup)] = pack_ids(tuple(tmap[c] for c in tup))
            sf.term_map[key] = table

    # substitution functors for every arrow and term tuple
    for (n, X, k), tups in tsets.items():
        if k == 0:
            continue
        ftk = frame.ft_iter(n, X, k)
        for t in tups:
            hom = shoms[(n, X, t)]
            sf = sfunctor_of_bhom_reference(hom, n, X, n - k, ftk)
            fill_terms(sf, hom, n)
            e.subst[(path_id(n, X, k), pack_ids(t))] = sf
    # identity arrows: substitution by the empty tuple is the identity
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            hom = shoms[(n, X, ())]
            sf = sfunctor_of_bhom_reference(hom, n, X, n, X)
            fill_terms(sf, hom, n)
            e.subst[(path_id(n, X, 0), pack_ids(()))] = sf

    # weakening: composites of the one-step weakening homs
    whoms: dict[tuple[int, str, int], BFrameHom] = {}
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            whoms[(n, X, 0)] = bhom_identity(slice_bframe(frame, n, X))
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                prev = whoms.get((n - 1, frame.ft[n][X], k - 1))
                wx = bsys.weak.get((n, X))
                if prev is None or wx is None:
                    continue
                whoms[(n, X, k)] = compose_bhom(wx, prev)
    for (n, X, k), hom in whoms.items():
        sf = sfunctor_of_bhom_reference(hom, n - k, frame.ft_iter(n, X, k), n, X)
        fill_terms(sf, hom, n - k)
        e.weak[path_id(n, X, k)] = sf

    # identity terms, built inductively from the generic elements
    ones: dict[tuple[int, str, int], tuple[str, ...]] = {}
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            ones[(n, X, 0)] = ()
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                d = bsys.gen.get((n, X))
                if d is None:
                    continue
                if k == 1:
                    ones[(n, X, 1)] = (d,)
                    continue
                prev = ones.get((n - 1, frame.ft[n][X], k - 1))
                wx = bsys.weak.get((n, X))
                if prev is None or wx is None:
                    continue
                # components of the previous identity term all live one
                # level above ft(X), where W_X acts at slice level 1
                tmap = wx.Ht.get(1, {})
                if not all(c in tmap for c in prev):
                    continue
                ones[(n, X, k)] = tuple(tmap[c] for c in prev) + (d,)
    for (n, X, k), tup in ones.items():
        # record the identity term only when its container W_A(A) is
        # itself representable at this height
        A = path_id(n, X, k)
        wa = e.weak.get(A)
        if wa is not None and wa.obj_map.get(A) is not None:
            e.proj[A] = pack_ids(tup)
    return e


def c_to_ce_reference(c: CSystem) -> CESystem:
    """Families freely generated by the canonical projections."""
    cat = c.cat
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    ifun: dict[str, str] = {}
    ftk: dict[tuple[str, int], str] = {}
    for gamma in cat.objects:
        cur = gamma
        ftk[(gamma, 0)] = gamma
        for k in range(1, c.length.get(gamma, 0) + 1):
            if cur not in c.ft:
                raise Truncated(f"ft({cur!r})")
            cur = c.ft[cur]
            ftk[(gamma, k)] = cur
    for gamma in cat.objects:
        identity[gamma] = proj_path(gamma, 0)
        for k in range(c.length.get(gamma, 0) + 1):
            name = proj_path(gamma, k)
            arrows[name] = Arrow(name, gamma, ftk[(gamma, k)])
        # I sends a projection path to its composite in the base; the
        # length-one case needs no identity, so partial bases still map it
        try:
            ifun[proj_path(gamma, 0)] = cat.id_of(gamma)
        except Truncated:
            pass
        cur = gamma
        img = None
        for k in range(1, c.length.get(gamma, 0) + 1):
            p = c.proj.get(cur)
            if p is None:
                img = None
            elif k == 1:
                img = p
            elif img is not None:
                try:
                    img = cat.comp(p, img)
                except Truncated:
                    img = None
            if img is not None:
                ifun[proj_path(gamma, k)] = img
            cur = c.ft[cur]
    for gamma in cat.objects:
        for k in range(c.length.get(gamma, 0) + 1):
            mid = ftk[(gamma, k)]
            for j in range(c.length.get(mid, 0) + 1):
                compose[(proj_path(mid, j), proj_path(gamma, k))] = proj_path(
                    gamma, k + j
                )
    fam = FinCat(
        objects=cat.objects,
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=c.one,
        partial=cat.partial,
    )
    a = CESystem(fam=fam, base=cat, ifun=ifun, root=c.one)
    # pullbacks, by induction on path length
    for f in cat.arrows:
        gamma = cat.cod(f)
        a.pb[(f, proj_path(gamma, 0))] = (proj_path(cat.dom(f), 0), f)
    maxlen = max(c.length.values(), default=0)
    for n in range(1, maxlen + 1):
        for xi in cat.objects:
            if c.length.get(xi, 0) < n:
                continue
            p_prime = proj_path(c.ft[xi], n - 1)
            for f in cat.arrows:
                if cat.cod(f) != ftk[(xi, n)]:
                    continue
                inner = a.pb.get((f, p_prime))
                if inner is None:
                    continue
                fp_prime, pi_prime = inner
                entry = c.pb.get((pi_prime, xi))
                if entry is None:
                    continue
                ob, q = entry
                a.pb[(f, proj_path(xi, n))] = (proj_path(ob, n), q)
    return a


def _ifun(a: CESystem, x: str) -> str:
    """I(x), raising Truncated where ``ifun`` has no entry for x."""
    try:
        return a.ifun[x]
    except KeyError:
        raise Truncated(f"I({x!r})") from None


def ce_to_c_reference(a: CESystem) -> CSystem:
    """Read a C-system off a rooted stratified CE-system."""
    strat = stratify(a.fam)
    if not isinstance(strat, Stratification):
        raise ValueError(f"family category does not stratify: {strat}")
    for x in sorted(a.base.objects):
        if len(a.base.hom(x, a.root)) != 1:
            raise ValueError("CE-system is not rooted")
    cat = replace(a.base, terminal=a.root)
    length = dict(strat.level)
    ft = {a.root: a.root}
    proj: dict[str, str] = {}
    pb: dict[tuple[str, str], tuple[str, str]] = {}
    ind: dict[str, str] = {}
    for X in cat.objects:
        if length[X] > 0:
            x = individual_arrow(a.fam, strat, X)
            ind[X] = x
            ft[X] = a.fam.cod(x)
            try:
                proj[X] = _ifun(a, x)
            except Truncated:
                pass  # projection beyond the truncation; validators skip
    for X in cat.objects:
        if length[X] == 0:
            continue
        for f in cat.arrows:
            if cat.cod(f) != ft[X]:
                continue
            entry = a.pb.get((f, ind[X]))
            if entry is None:
                continue
            fx, pi2 = entry
            pb[(f, X)] = (a.fam.dom(fx), pi2)
    return CSystem(cat=cat, one=a.root, length=length, ft=ft, proj=proj, pb=pb)


def counit_cehom_reference(a: CESystem) -> CEHom:
    """epsilon: e_to_ce(ce_to_e(a)) -> a, evaluation of internal morphisms."""
    e = ce_to_e(a)
    ahat = e_to_ce(e)
    fam, base = a.fam, a.base
    obj_map = {}
    fam_ar = {}
    base_ar = {}
    for h, f, g in slice_mors(fam, a.root):
        fam_ar[triangle_id(h, f, g)] = h
    for f in ahat.fam.objects:
        obj_map[f] = fam.dom(f)
    for name, arr in ahat.base.arrows.items():
        fhat, ghat = arr.dom, arr.cod
        # the underlying section x, recovered from the hom-set encoding
        x = ih_term(e, name, fhat, ghat)
        if x is None:
            continue
        entry = a.pb.get((a.ifun.get(fhat), ghat))  # no entry is keyed by None
        if entry is None:
            continue
        pi2x = base.compose.get((entry[1], x))
        if pi2x is not None:
            base_ar[name] = pi2x
    return CEHom(
        source=ahat,
        target=a,
        fam_map=FunctorData(ahat.fam, fam, dict(obj_map), fam_ar),
        base_map=FunctorData(ahat.base, base, dict(obj_map), base_ar),
    )


def cehom_of_ehom_reference(h: EHom, src_ce: CESystem, tgt_ce: CESystem) -> CEHom:
    """E2CE on homomorphisms: slices on families, term maps on contexts."""
    e = h.source
    obj_map = {}
    fam_ar = {}
    base_ar = {}
    for f in src_ce.fam.objects:
        img = h.functor.arrow_map.get(f)
        if img is not None:
            obj_map[f] = img
    for t in src_ce.fam.arrows:
        parts = split_ids(t, "|")
        hh, f, g = parts[0], parts[1], parts[2]
        ih_, fi, gi = (
            h.functor.arrow_map.get(hh),
            h.functor.arrow_map.get(f),
            h.functor.arrow_map.get(g),
        )
        if None in (ih_, fi, gi):
            continue
        name = triangle_id(ih_, fi, gi)
        if name in tgt_ce.fam.arrows:
            fam_ar[t] = name
    for name, arr in src_ce.base.arrows.items():
        A, B = arr.dom, arr.cod
        x = ih_term(e, name, A, B)
        if x is None:
            continue
        pos = e.weak[A].obj_map[B]
        Ai, Bi = h.functor.arrow_map.get(A), h.functor.arrow_map.get(B)
        posi = h.functor.arrow_map.get(pos)
        xi = h.term_map.get(pos, {}).get(x)
        if None in (Ai, Bi, posi, xi):
            continue
        name2 = ih_arrow(Ai, Bi, xi)
        if name2 in tgt_ce.base.arrows:
            base_ar[name] = name2
    return CEHom(
        source=src_ce,
        target=tgt_ce,
        fam_map=FunctorData(src_ce.fam, tgt_ce.fam, dict(obj_map), fam_ar),
        base_map=FunctorData(src_ce.base, tgt_ce.base, dict(obj_map), base_ar),
    )
