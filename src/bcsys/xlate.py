"""Translations between B-, E-, C- and CE-systems, and round-trip witnesses.

Each translator builds its target structure from explicit tables and is
meant to be re-validated by the target's own checker. Round trips come
with isomorphism witnesses: a pair of structure homomorphisms plus the
evidence that both composites are identities on the common represented
fragment (truncated presentations lose the levels whose supporting data
would exceed the height; those entries are skipped and counted, never
fabricated).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import chain

from .bsys import (
    BFrame,
    BFrameHom,
    BSystem,
    bhom_eq,
    bhom_identity,
    compose_bhom,
    restrict_bhom,
    slice_bframe,
    validate_bsystem,
    validate_bsystem_hom,
)
from .cesys import CEHom, CESystem, validate_ce_hom, validate_cesystem
from .core import (
    Arrow,
    FinCat,
    FunctorData,
    RootedTree,
    Stratification,
    compose_functors,
    free_cat_of_tree,
    identity_functor,
    individual_arrow,
    join_ids,
    obj_id,
    pack_ids,
    path_id,
    slice_category,
    slice_mors,
    stratify,
    triangle_id,
    unique_arrow,
)
from .csys import CSystem, validate_csystem
from .esys import (
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    _ih_terms,
    _internal_hom,
    _restricted_at,
    compose_ehom,
    ehom_equal,
    identity_ehom,
    ih_arrow,
    restrict_sf,
    term_action_at,
    term_extension,
    validate_ehom,
    validate_esystem,
    vertical_compose,
)
from .report import Report, Truncated, diff_tables


@dataclass
class IsoWitness:
    """Forward and backward homs plus composite-equals-identity evidence."""

    forward: object
    backward: object
    report: Report

    @property
    def verified(self) -> bool:
        return self.report.ok


# ---------------------------------------------------------------------------
# B-systems -> stratified E-systems


def _tree_of_frame(frame: BFrame) -> RootedTree:
    return RootedTree(
        height=frame.height,
        levels=tuple(frame.B),
        parent=tuple(frame.ft[k] for k in range(1, frame.height + 1)),
    )


class _Ids(dict):
    """Ids a translation makes, each once per call: ``self[key]`` is
    ``make(*key)``, made at the first read of ``key``, and ``where`` maps
    each id made back to its key, so no id made here is parsed. A
    translation makes one table per call and drops it when it returns."""

    def __init__(self, make: Callable[..., str]) -> None:
        super().__init__()
        self.make = make
        self.where: dict[str, tuple] = {}

    def __missing__(self, key: tuple) -> str:
        made = self[key] = self.make(*key)
        self.where[made] = key
        return made


def _slice_shape(src: BFrame, n_src: int, paths: _Ids) -> list[list[tuple[str, list[tuple]]]]:
    """The slice morphisms out of each element of a source slice frame.

    Level m lists, for each y in ``src.B[m]``, the triples (d, z, key) of
    the slice morphism from (y, m) to its d-th truncation z, with
    ``key`` its (h, f1, g1), in the order ``_sfunctor_of_bhom`` enters them.
    """
    shape = []
    for m in range(src.height + 1):
        rows = []
        for y in src.B[m]:
            f1 = paths[n_src + m, y, m]
            mors = []
            for d in range(m + 1):
                z = src.ft_iter(m, y, d) if d else y
                mors.append((d, z, (paths[n_src + m, y, d], f1, paths[n_src + m - d, z, m - d])))
            rows.append((y, mors))
        shape.append(rows)
    return shape


def _sfunctor_of_bhom(
    hom: BFrameHom,
    n_src: int,
    x_src: str,
    n_tgt: int,
    x_tgt: str,
    paths: _Ids,
    shapes: dict[tuple[int, int], list],
) -> SliceFunctorT:
    """Lift a homomorphism of slice frames to a slice functor on the free category.

    Terms of an arrow (Y, d) are flat tuples whose entries all live one
    level above the codomain; the term action is componentwise. ``paths``
    is b_to_e's table of path_id(n, y, d), and ``shapes`` its table of
    ``_slice_shape`` keyed by (id of the source frame, n_src).
    """
    sf = SliceFunctorT(
        source_apex=obj_id(n_src, x_src), target_apex=obj_id(n_tgt, x_tgt)
    )
    src = hom.source
    for m in range(src.height + 1):
        level_map = hom.H.get(m)
        if level_map is None:
            continue
        for y, y1 in level_map.items():
            sf.obj_map[paths[n_src + m, y, m]] = paths[n_tgt + m, y1, m]
    shape = shapes.get((id(src), n_src))
    if shape is None:
        shape = shapes[id(src), n_src] = _slice_shape(src, n_src, paths)
    for m, rows in enumerate(shape):
        level_map = hom.H.get(m, {})
        for y, mors in rows:
            if y not in level_map:
                continue
            y1 = level_map[y]
            for d, z, key in mors:
                if z in hom.H.get(m - d, {}):
                    sf.mor_map[key] = paths[n_tgt + m, y1, d]
    return sf


def _subst_of(bsys: BSystem, level: int, x: str) -> BFrameHom:
    try:
        return bsys.subst[(level, x)]
    except KeyError:
        raise Truncated(f"subst({level},{x!r})") from None


def _weak_of(bsys: BSystem, level: int, X: str) -> BFrameHom:
    try:
        return bsys.weak[(level, X)]
    except KeyError:
        raise Truncated(f"weak({level},{X!r})") from None


def b_to_e(bsys: BSystem) -> ESystem:
    """The stratified E-system on the free category of a B-system's frame.

    Every term tuple is packed once, and every term table is filled from
    those packed ids: a tuple enters the table of a slice morphism when
    the level map sends each of its components, which is exactly when
    ``map`` over them raises no ``KeyError``, and its image is the packed
    tuple of the images, looked up in ``packs`` when it is itself a term
    tuple. So the tables are those of packing each tuple where it is
    used. A substitution or a weakening the B-system lacks raises
    ``Truncated`` naming it; a missing generic element only leaves out
    the identity terms built on it.

    Each distinct term table is built once per call. Each distinct level
    map of ``Ht`` is numbered once, by value, and a table is kept under
    (arrow id, number of the level map it reads). That is complete: the
    table of an arrow reads only the arrow's packed rows and that level
    map, and neither changes during the call. The first functor to use a
    table keeps it and every later one gets a copy, so no two functors
    share a dict. Likewise the slice morphisms out of each source frame
    are listed once per call (``_slice_shape``): they read only that
    frame, which is not changed, and each functor fills its own maps.
    """
    frame = bsys.frame
    cat, strat = free_cat_of_tree(_tree_of_frame(frame))

    # inductive term tuples and their substitution homomorphisms
    t1: dict[tuple[int, str], list[str]] = {}
    for k in range(1, frame.height + 1):
        for X in frame.B[k]:
            t1[(k, X)] = sorted(x for x in frame.Bt[k] if frame.bd[k][x] == X)

    # a context's identity hom substitutes the empty tuple and weakens by none
    tsets: dict[tuple[int, str, int], list[tuple[str, ...]]] = {}
    shoms: dict[tuple[int, str, tuple[str, ...]], BFrameHom] = {}
    whoms: dict[tuple[int, str, int], BFrameHom] = {}
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            tsets[(n, X, 0)] = [()]
            shoms[(n, X, ())] = whoms[(n, X, 0)] = bhom_identity(slice_bframe(frame, n, X))
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                out: list[tuple[str, ...]] = []
                if k == 1:
                    for x in t1[(n, X)]:
                        out.append((x,))
                        shoms[(n, X, (x,))] = _subst_of(bsys, n, x)
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
                                _subst_of(bsys, lv, x), restrict_bhom(st, 1, X)
                            )
                tsets[(n, X, k)] = out

    packed = {key: [(t, pack_ids(t)) for t in tups] for key, tups in tsets.items()}
    paths = _Ids(path_id)
    terms: dict[str, frozenset[str]] = {}
    for (n, X, k), rows in packed.items():
        terms[paths[n, X, k]] = frozenset(p for _t, p in rows)
    e = ESystem(tc=TermCat(cat=cat, terms=terms), levels=dict(strat.level))
    packs = {t: p for rows in packed.values() for t, p in rows}
    empty = pack_ids(())
    where = paths.where

    # every hom used below, and so its source frame, lives until the call
    # returns, so an id names one frame throughout
    shapes: dict[tuple[int, int], list] = {}
    numbers: dict[tuple[str, ...], int] = {}
    tables: dict[tuple[str, int], dict[str, str]] = {}

    def fill_terms(sf: SliceFunctorT, hom: BFrameHom, n_src: int) -> None:
        # terms of an arrow (y, d) are flat tuples of elements one level
        # above its codomain; the functor acts componentwise
        at: dict[int, int] = {}
        for key in list(sf.mor_map):
            m, y, d = where[key[0]]
            if d == 0:
                sf.term_map[key] = {empty: empty}
                continue
            level = (m - d + 1) - n_src
            level_map = hom.Ht.get(level, {})
            num = at.get(level)
            if num is None:
                # a level map's value: its entries sorted, in one flat tuple
                items = tuple(chain.from_iterable(sorted(level_map.items())))
                num = at[level] = numbers.setdefault(items, len(numbers))
            table = tables.get((key[0], num))
            if table is not None:
                sf.term_map[key] = table.copy()
                continue
            image = level_map.__getitem__
            table = tables[key[0], num] = {}
            for t, p in packed.get((m, y, d), ()):
                try:
                    img = tuple(map(image, t))
                except KeyError:
                    continue
                table[p] = packs.get(img) or pack_ids(img)
            sf.term_map[key] = table

    # substitution functors for every arrow and term tuple
    for (n, X, k), rows in packed.items():
        if k == 0:
            continue
        ftk = frame.ft_iter(n, X, k)
        for t, p in rows:
            hom = shoms[(n, X, t)]
            sf = _sfunctor_of_bhom(hom, n, X, n - k, ftk, paths, shapes)
            fill_terms(sf, hom, n)
            e.subst[(paths[n, X, k], p)] = sf
    # identity arrows: substitution by the empty tuple is the identity
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            hom = shoms[(n, X, ())]
            sf = _sfunctor_of_bhom(hom, n, X, n, X, paths, shapes)
            fill_terms(sf, hom, n)
            e.subst[(paths[n, X, 0], empty)] = sf

    # weakening: composites of the one-step weakening homs
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                prev = whoms.get((n - 1, frame.ft[n][X], k - 1))
                if prev is not None:
                    whoms[(n, X, k)] = compose_bhom(_weak_of(bsys, n, X), prev)
    for (n, X, k), hom in whoms.items():
        sf = _sfunctor_of_bhom(hom, n - k, frame.ft_iter(n, X, k), n, X, paths, shapes)
        fill_terms(sf, hom, n - k)
        e.weak[paths[n, X, k]] = sf

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
                if prev is None:
                    continue
                # components of the previous identity term all live one
                # level above ft(X), where W_X acts at slice level 1
                tmap = bsys.weak[(n, X)].Ht.get(1, {})
                if not all(c in tmap for c in prev):
                    continue
                ones[(n, X, k)] = tuple(tmap[c] for c in prev) + (d,)
    for (n, X, k), tup in ones.items():
        # record the identity term only when its container W_A(A) is
        # itself representable at this height
        A = paths[n, X, k]
        wa = e.weak.get(A)
        if wa is not None and wa.obj_map.get(A) is not None:
            e.proj[A] = pack_ids(tup)
    return e


# ---------------------------------------------------------------------------
# stratified E-systems -> B-systems


def _bhom_of_sfunctor(e: ESystem, sf: SliceFunctorT, src: BFrame, tgt: BFrame,
                      parts: dict[str, tuple[str, str]], ind: dict[str, str]) -> BFrameHom:
    """Project a slice functor down to a homomorphism of the level frames.

    ``parts`` is the (X, t) of each frame element and ``ind`` the
    individual arrow of each object of positive level, as e_to_b made
    them."""
    cat = e.cat
    z, z1 = sf.source_apex, sf.target_apex
    H: dict[int, dict[str, str]] = {0: {z: z1}}
    Ht: dict[int, dict[str, str]] = {}
    for m in range(1, src.height + 1):
        hm: dict[str, str] = {}
        tm: dict[str, str] = {}
        for Y in src.B[m]:
            u = unique_arrow(cat, Y, z)
            if u is None or u not in sf.obj_map:
                continue
            hm[Y] = cat.dom(sf.obj_map[u])
        for el in src.Bt[m]:
            Y, t = parts[el]
            u = unique_arrow(cat, Y, z)
            if u is None:
                continue
            ybar = ind[Y]
            uft = unique_arrow(cat, cat.cod(ybar), z)
            if uft is None:
                continue
            key = (ybar, u, uft)
            act = sf.term_map.get(key)
            if act is None or t not in act:
                continue
            Y1 = cat.dom(sf.obj_map[u]) if u in sf.obj_map else None
            if Y1 is None:
                continue
            tm[el] = pack_ids((Y1, act[t]))
        H[m] = hm
        Ht[m] = tm
    return BFrameHom(source=src, target=tgt, H=H, Ht=Ht)


def e_to_b(e: ESystem) -> BSystem:
    """The B-system of a stratified E-system: levels, terms of individuals."""
    if e.levels is None:
        raise ValueError("e_to_b requires a stratified E-system")
    cat = e.cat
    lv = e.levels
    height = max(lv.values(), default=0)
    B = [frozenset(x for x, n in lv.items() if n == m) for m in range(height + 1)]
    strat = Stratification(level=dict(lv))
    ind: dict[str, str] = {}
    for m in range(1, height + 1):
        for X in B[m]:
            ind[X] = individual_arrow(cat, strat, X)
    Bt: list[frozenset[str]] = [frozenset()]
    bd: list[dict[str, str]] = [{}]
    ft: list[dict[str, str]] = [{}]
    parts: dict[str, tuple[str, str]] = {}
    for m in range(1, height + 1):
        elems = {}
        for X in B[m]:
            for t in e.T(ind[X]):
                el = pack_ids((X, t))
                elems[el] = X
                parts[el] = (X, t)
        Bt.append(frozenset(elems))
        bd.append(elems)
        ft.append({X: cat.cod(ind[X]) for X in B[m]})
    frame = BFrame(height=height, B=tuple(B), Bt=tuple(Bt), ft=tuple(ft), bd=tuple(bd))
    sys = BSystem(frame=frame)
    for m in range(1, height + 1):
        for el in frame.Bt[m]:
            X, t = parts[el]
            sf = e.subst.get((ind[X], t))
            if sf is None:
                continue
            src = slice_bframe(frame, m, X)
            tgt = slice_bframe(frame, m - 1, cat.cod(ind[X]))
            sys.subst[(m, el)] = _bhom_of_sfunctor(e, sf, src, tgt, parts, ind)
        for X in frame.B[m]:
            wf = e.weak.get(ind[X])
            if wf is None:
                continue
            src = slice_bframe(frame, m - 1, cat.cod(ind[X]))
            tgt = slice_bframe(frame, m, X)
            sys.weak[(m, X)] = _bhom_of_sfunctor(e, wf, src, tgt, parts, ind)
            one = e.proj.get(ind[X])
            wxx = wf.obj_map.get(ind[X])
            if one is not None and wxx is not None and m + 1 <= height:
                sys.gen[(m, X)] = pack_ids((cat.dom(wxx), one))
    return sys


# ---------------------------------------------------------------------------
# round trips on the B side


def _check_inverse(rep: Report, fwd: BFrameHom, bwd: BFrameHom) -> None:
    """Check bwd∘fwd = id on fwd's source as ``iso:bwd.fwd`` and fwd∘bwd =
    id on its target as ``iso:fwd.bwd``, ticking the entries each
    comparison checked."""
    for name, g, f, base in (("iso:bwd.fwd", bwd, fwd, fwd.source), ("iso:fwd.bwd", fwd, bwd, fwd.target)):
        diff = bhom_eq(compose_bhom(g, f), bhom_identity(base))
        rep.tick(name, diff[2])
        rep.record(name, diff)


def b_roundtrip_iso(bsys: BSystem, b2: BSystem) -> IsoWitness:
    """bsys vs b2 = e_to_b(b_to_e(bsys)): the relabeling isomorphism, verified."""
    frame, frame2 = bsys.frame, b2.frame
    H: dict[int, dict[str, str]] = {}
    Ht: dict[int, dict[str, str]] = {}
    Hb: dict[int, dict[str, str]] = {}
    Htb: dict[int, dict[str, str]] = {}
    for n in range(frame.height + 1):
        H[n] = {X: obj_id(n, X) for X in frame.B[n]}
        Hb[n] = {v: k for k, v in H[n].items()}
        if n >= 1:
            Ht[n] = {
                x: pack_ids((obj_id(n, frame.bd[n][x]), pack_ids((x,))))
                for x in frame.Bt[n]
            }
            Htb[n] = {v: k for k, v in Ht[n].items()}
    fwd = BFrameHom(source=frame, target=frame2, H=H, Ht=Ht)
    bwd = BFrameHom(source=frame2, target=frame, H=Hb, Ht=Htb)
    rep = Report()
    rep.merge(validate_bsystem_hom(fwd, bsys, b2), prefix="fwd:")
    rep.merge(validate_bsystem_hom(bwd, b2, bsys), prefix="bwd:")
    _check_inverse(rep, fwd, bwd)
    return IsoWitness(forward=fwd, backward=bwd, report=rep)


def e2b_of_ehom(k: EHom, src_b: BSystem, tgt_b: BSystem) -> BFrameHom:
    """Transport a stratified E-homomorphism to the extracted B-systems,
    for src_b = e_to_b(k.source): the element (X, t) of src_b's frame,
    for t in T(ind X), is named pack_ids((X, t)), as e_to_b names it."""
    e = k.source
    lv = e.levels
    strat = Stratification(level=dict(lv))
    H: dict[int, dict[str, str]] = {}
    Ht: dict[int, dict[str, str]] = {}
    for x, y in k.functor.object_map.items():
        H.setdefault(lv[x], {})[x] = y
    frame = src_b.frame
    for m in range(1, frame.height + 1):
        Ht[m] = {}
        for X in frame.B[m]:
            ximg = k.functor.object_map.get(X)
            if ximg is None:
                continue
            xbar = individual_arrow(e.cat, strat, X)
            tmap = k.term_map.get(xbar, {})
            for t in e.T(xbar):
                timg = tmap.get(t)
                if timg is not None:
                    Ht[m][pack_ids((X, t))] = pack_ids((ximg, timg))
    return BFrameHom(source=frame, target=tgt_b.frame, H=H, Ht=Ht)


# ---------------------------------------------------------------------------
# C-systems <-> CE-systems


def proj_path(gamma: str, k: int) -> str:
    return join_ids("p", gamma, str(k))


def c_to_ce(c: CSystem) -> CESystem:
    """Families freely generated by the canonical projections.

    The pullback of a length-n projection p_ξ^n along f needs cod f =
    ft^n(ξ), so the loop walks ``arrows_into`` that object instead of
    testing every arrow. It reads only entries of length n - 1 and writes
    each key (f, p_ξ^n) once, so the order of the walk changes only the
    insertion order of ``pb``, which every reader sorts or compares as a
    dict. A father missing from a chain ξ, ft(ξ), ... raises Truncated
    naming it. An entry pb[(π', ξ)] = (ob, q) with ob shorter than n
    names no path p_ob^n, and is left out, as e_to_ce leaves out a pulled
    family that is not an arrow.

    Each path id is made once per call, in ``paths``.
    """
    cat = c.cat
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    ifun: dict[str, str] = {}
    ftk: dict[tuple[str, int], str] = {}
    paths = _Ids(proj_path)
    for gamma in cat.objects:
        cur = gamma
        ftk[(gamma, 0)] = gamma
        for k in range(1, c.length.get(gamma, 0) + 1):
            if cur not in c.ft:
                raise Truncated(f"ft({cur!r})")
            cur = c.ft[cur]
            ftk[(gamma, k)] = cur
    for gamma in cat.objects:
        for k in range(c.length.get(gamma, 0) + 1):
            name = paths[gamma, k]
            arrows[name] = Arrow(name, gamma, ftk[(gamma, k)])
        identity[gamma] = paths[gamma, 0]
        # I sends a projection path to its composite in the base; the
        # length-one case needs no identity, so partial bases still map it
        ident = cat.identity.get(gamma)
        if ident is not None:
            ifun[identity[gamma]] = ident
        img = None
        for k in range(1, c.length.get(gamma, 0) + 1):
            p = c.proj.get(ftk[(gamma, k - 1)])
            if p is None:
                img = None
            elif k == 1:
                img = p
            elif img is not None:
                img = cat.compose.get((p, img))
            if img is not None:
                ifun[paths[gamma, k]] = img
    for gamma in cat.objects:
        for k in range(c.length.get(gamma, 0) + 1):
            mid = ftk[(gamma, k)]
            p_k = paths[gamma, k]
            for j in range(c.length.get(mid, 0) + 1):
                compose[(paths[mid, j], p_k)] = paths[gamma, k + j]
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
        a.pb[(f, paths[gamma, 0])] = (paths[cat.dom(f), 0], f)
    maxlen = max(c.length.values(), default=0)
    for n in range(1, maxlen + 1):
        for xi in cat.objects:
            if c.length.get(xi, 0) < n:
                continue
            p_prime = paths[ftk[(xi, 1)], n - 1]
            for f in cat.arrows_into(ftk[(xi, n)]):
                inner = a.pb.get((f, p_prime))
                if inner is None:
                    continue
                fp_prime, pi_prime = inner
                entry = c.pb.get((pi_prime, xi))
                if entry is None:
                    continue
                ob, q = entry
                pulled = paths[ob, n]
                if pulled not in arrows:  # ob is shorter than n: no such path
                    continue
                a.pb[(f, paths[xi, n])] = (pulled, q)
    return a


def ce_to_c(a: CESystem) -> CSystem:
    """Read a C-system off a rooted stratified CE-system.

    The pullback of X along f needs cod f = ft(X), so the loop walks
    ``arrows_into(ft(X))`` instead of testing every arrow; each key
    (f, X) is written once, so only the insertion order of ``pb``
    changes, which every reader sorts or compares as a dict.
    """
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
            p = a.ifun.get(x)
            if p is not None:  # else beyond the truncation; validators skip
                proj[X] = p
    for X in cat.objects:
        if length[X] == 0:
            continue
        for f in cat.arrows_into(ft[X]):
            entry = a.pb.get((f, ind[X]))
            if entry is None:
                continue
            fx, pi2 = entry
            pb[(f, X)] = (a.fam.dom(fx), pi2)
    return CSystem(cat=cat, one=a.root, length=length, ft=ft, proj=proj, pb=pb)


def casce_iso(a: CESystem) -> IsoWitness:
    """comp/fact between c_to_ce(ce_to_c(a)) and a (identity on the base)."""
    return _casce_iso(a, c_to_ce(ce_to_c(a)))


def _casce_iso(a: CESystem, ahat: CESystem) -> IsoWitness:
    """comp/fact between ahat = c_to_ce(ce_to_c(a)) and a."""
    strat = stratify(a.fam)
    assert isinstance(strat, Stratification)
    # comp: paths of individuals -> their composites in fam(a); the path
    # p|Γ|k of ahat runs from Γ down k levels, by ce_to_c's lengths, which
    # are strat's levels
    ind = {x: individual_arrow(a.fam, strat, x) for x in a.fam.objects if strat.of(x) > 0}
    comp_obj = {x: x for x in a.fam.objects}
    comp_ar: dict[str, str] = {}
    fact_ar: dict[str, str] = {}
    for name in ahat.fam.arrows:
        gamma = ahat.fam.dom(name)
        cur = a.fam.id_of(gamma)
        x = gamma
        for _ in range(strat.of(gamma) - strat.of(ahat.fam.cod(name))):
            step = ind[x]
            cur = a.fam.comp(step, cur)
            x = a.fam.cod(step)
        comp_ar[name] = cur
    for name in a.fam.arrows:
        drop = strat.of(a.fam.dom(name)) - strat.of(a.fam.cod(name))
        fact_ar[name] = proj_path(a.fam.dom(name), drop)
    comp_hom = CEHom(
        source=ahat,
        target=a,
        fam_map=FunctorData(ahat.fam, a.fam, comp_obj, comp_ar),
        base_map=identity_functor(a.base),
    )
    fact_hom = CEHom(
        source=a,
        target=ahat,
        fam_map=FunctorData(a.fam, ahat.fam, dict(comp_obj), fact_ar),
        base_map=identity_functor(a.base),
    )
    rep = Report()
    rep.merge(validate_ce_hom(comp_hom), prefix="comp:")
    rep.merge(validate_ce_hom(fact_hom), prefix="fact:")
    for name, (g, f) in (("fact.comp", (fact_ar, comp_ar)), ("comp.fact", (comp_ar, fact_ar))):
        for arr, img in f.items():
            rep.tick(f"iso:{name}")
            back = g.get(img)
            if back is None:
                rep.skip(f"iso:{name}")
            elif back != arr:
                rep.fail(f"iso:{name}", (arr, img, back))
    return IsoWitness(forward=fact_hom, backward=comp_hom, report=rep)


# ---------------------------------------------------------------------------
# CE-systems -> E-systems


def _section_terms(a: CESystem, A: str) -> list[str]:
    """Sections of I(A): base arrows x with I(A) . x = id."""
    base, fam = a.base, a.fam
    gamma = fam.cod(A)
    out = []
    ia, ident = a.ifun.get(A), base.identity.get(gamma)
    if ia is None or ident is None:
        return []
    for x in base.hom(gamma, fam.dom(A)):
        if base.compose.get((ia, x)) == ident:
            out.append(x)
    return out


def _pulled_section(a: CESystem, F: str, pi2: str, s: str | None, ident: str | None) -> str | None:
    """The unique w in hom(cod F, dom F) of the base with π2∘w = s and
    I(F)∘w = ident, for F a family pulled back with second projection
    π2; None where s, ident or I(F) is missing, or no w or several
    satisfy both."""
    base, iF = a.base, a.ifun.get(F)
    if s is None or ident is None or iF is None:
        return None
    found = [
        w
        for w in base.hom(a.fam.cod(F), a.fam.dom(F))
        if base.compose.get((pi2, w)) == s and base.compose.get((iF, w)) == ident
    ]
    return found[0] if len(found) == 1 else None


def _pullback_sfunctor(a: CESystem, f: str) -> SliceFunctorT:
    """The functor f* on family slices, with its action on sections."""
    base, fam = a.base, a.fam
    gamma, delta = base.cod(f), base.dom(f)
    sf = SliceFunctorT(source_apex=gamma, target_apex=delta)
    for A in fam.arrows_into(gamma):
        entry = a.pb.get((f, A))
        if entry is not None:
            sf.obj_map[A] = entry[0]
    for (P, B1, B) in slice_mors(fam, gamma):
        # P underlies the slice morphism B1 -> B, i.e. B . P = B1
        entry = a.pb.get((f, B))
        if entry is None:
            continue
        fB, g = entry
        inner = a.pb.get((g, P))
        if inner is None:
            continue
        gP, pi2g = inner
        if sf.obj_map.get(B1) is None or sf.obj_map.get(B) is None:
            continue
        sf.mor_map[(P, B1, B)] = gP
        # sections transport through the universal property
        table = {}
        # read only where I(gP) is defined, so that gP is a family arrow
        ident = base.identity.get(fam.cod(gP)) if gP in a.ifun else None
        for x in _section_terms(a, P):
            w = _pulled_section(a, gP, pi2g, base.compose.get((x, g)), ident)
            if w is not None:
                table[x] = w
        sf.term_map[(P, B1, B)] = table
    return sf


def ce_to_e(a: CESystem) -> ESystem:
    """Terms are sections; substitution and weakening are pullback
    functors, each with tables of its own."""
    fam = replace(a.fam, terminal=a.root, partial=a.fam.partial or a.base.partial)
    terms = {A: frozenset(_section_terms(a, A)) for A in fam.arrows}
    strat = stratify(fam)
    levels = dict(strat.level) if isinstance(strat, Stratification) else None
    e = ESystem(tc=TermCat(cat=fam, terms=terms), levels=levels)
    for A in fam.arrows:
        ia = a.ifun.get(A)
        if ia is None:
            continue
        e.weak[A] = _pullback_sfunctor(a, ia)
        for x in terms[A]:
            e.subst[(A, x)] = _pullback_sfunctor(a, x)
        # identity term: the diagonal section of the pulled-back family
        entry = a.pb.get((ia, A))
        ident = a.base.identity.get(fam.dom(A))
        one = None if entry is None else _pulled_section(a, entry[0], entry[1], ident, ident)
        if one is not None:
            e.proj[A] = one
    return e


def ce2e_of_cehom(h: CEHom, src_e: ESystem, tgt_e: ESystem) -> EHom:
    term_map: dict[str, dict[str, str]] = {}
    for A in src_e.cat.arrows:
        tm = {}
        for x in src_e.T(A):
            img = h.base_map.arrow_map.get(x)
            if img is not None:
                tm[x] = img
        term_map[A] = tm
    return EHom(
        source=src_e,
        target=tgt_e,
        functor=FunctorData(
            src_e.cat, tgt_e.cat, dict(h.fam_map.object_map), dict(h.fam_map.arrow_map)
        ),
        term_map=term_map,
    )


# ---------------------------------------------------------------------------
# E-systems -> CE-systems


def e_to_ce(e: ESystem) -> CESystem:
    """Families are the slice at the terminal; contexts the internal morphisms.

    The pullback of a family R over B along an internal morphism x in
    hom(A, B) is f*(R) for f* = S_x ∘ (W_A/B), read as
    S_x.obj_map[(W_A/B).obj_map[R]]: compose_sf sets exactly that entry
    of f*'s object map. f* is missing only where S_x is missing
    (W_A/B exists, since W_A(B) does when x names a base arrow), and
    those arrows get no pullbacks here either.

    The base arrows are read as (A, B, x, name) from the names that
    esys._internal_hom returns, so no arrow id is decoded, and an
    internal-hom id is looked up there instead of made again. W_A/B is
    restricted once per (A, B) here, as in the internal-hom category,
    through the category's plan for B (esys.restrict_sf).
    """
    root = e.cat.terminal
    if root is None:
        raise ValueError("e_to_ce needs a chosen terminal object")
    sl = slice_category(e.cat, root)
    fam = sl.cat
    base, names = _internal_hom(e, root)
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
        name = names.get((f, g), {}).get(act[one])
        if name is not None:
            ifun[t] = name
    a = CESystem(fam=fam, base=base, ifun=ifun, root=fam.terminal)
    over: dict[str, list[tuple[str, str, str]]] = {}  # families R over B, as (R, B.R, triangle)
    for t, (R, BR, B) in sl.triangle.items():
        over.setdefault(B, []).append((R, BR, t))
    # f*(R) = S_x((W_A/B)(R)), read from the two tables; W_A/B is
    # restricted once per (A, B), at its first x with S_x
    for (A, B), row in names.items():
        pos = e.weak[A].obj_map[B]
        wab = None
        for x, name in row.items():
            sx = e.subst.get((pos, x))
            if sx is None:
                continue
            if wab is None:
                wab = restrict_sf(e, e.weak[A], B)
            for R, BR, tri in over.get(B, []):
                # R is a family over B; pull it back along the internal x
                xR = sx.obj_map.get(wab.obj_map.get(R))
                if xR is None:
                    continue
                AxR = e.cat.compose.get((A, xR))
                if AxR is None or AxR not in fam.objects:
                    continue
                onexR = e.proj.get(xR)
                if onexR is None:
                    continue
                # no name is keyed by None, the missing vertical composite
                pi2name = names.get((AxR, BR), {}).get(vertical_compose(e, A, B, x, xR, R, onexR))
                if pi2name is None:
                    continue
                pulled = triangle_id(xR, AxR, A)
                if pulled not in fam.arrows:
                    continue
                a.pb[(name, tri)] = (pulled, pi2name)
    return a


# ---------------------------------------------------------------------------
# the adjunction between E-systems and rooted CE-systems


def unit_ehom(e: ESystem, ehat: ESystem) -> EHom:
    """eta: e -> ehat = ce_to_e(e_to_ce(e)), the slice-at-terminal comparison.

    For A into Γ, the position (W_{!Γ}/!Γ)(A) is read by
    esys._restricted_at, without restricting the whole functor.
    """
    root = e.cat.terminal
    cat = e.cat
    bang = {x: unique_arrow(cat, x, root) for x in cat.objects}
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
        pbar = _restricted_at(cat, wb, bg, A)
        if abar is None or pbar is None:
            term_map[A] = tm
            continue
        for t in e.T(A):
            val = term_extension(e, abar, pbar, one, t)
            if val is None:
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


def counit_cehom(a: CESystem, e: ESystem, ahat: CESystem) -> CEHom:
    """epsilon: ahat -> a, evaluation of internal morphisms, for
    e = ce_to_e(a) and ahat = e_to_ce(e)."""
    fam, base = a.fam, a.base
    obj_map = {}
    fam_ar = {}
    base_ar = {}
    for h, f, g in slice_mors(fam, a.root):
        fam_ar[triangle_id(h, f, g)] = h
    for f in ahat.fam.objects:
        obj_map[f] = fam.dom(f)
    terms = _ih_terms(e, ahat.base.arrows)
    for name, arr in ahat.base.arrows.items():
        fhat, ghat = arr.dom, arr.cod
        # the underlying section x, read from the names of its hom set
        x = terms.get(name)
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


def invert_ehom(h: EHom) -> tuple[EHom | None, Report]:
    """Invert a homomorphism whose tables are bijections on the represented part."""
    rep = Report()
    rep.law("invertible")
    om, am = {}, {}
    for x, y in h.functor.object_map.items():
        om[y] = x
    if len(om) != len(h.functor.object_map):
        rep.fail("invertible", (), "object map not injective")
        return None, rep
    for x, y in h.functor.arrow_map.items():
        if y in am:
            rep.fail("invertible", (y,), "arrow map not injective")
            return None, rep
        am[y] = x
    for y in h.target.cat.objects:
        rep.tick("invertible")
        if y not in om:
            rep.fail("invertible", (y,), "object not in the image")
    for y in h.target.cat.arrows:
        rep.tick("invertible")
        if y not in am:
            rep.fail("invertible", (y,), "arrow not in the image")
    term_map: dict[str, dict[str, str]] = {}
    for a, tm in h.term_map.items():
        img = h.functor.arrow_map.get(a)
        if img is None:
            continue
        inv = {}
        for t, u in tm.items():
            if u in inv:
                rep.fail("invertible", (a, u), "term map not injective")
            inv[u] = t
        term_map[img] = inv
        for u in h.target.T(img):
            rep.tick("invertible")
            if u not in inv:
                rep.skip("invertible")
    if not rep.ok:
        return None, rep
    return (
        EHom(
            source=h.target,
            target=h.source,
            functor=FunctorData(h.target.cat, h.source.cat, om, am),
            term_map=term_map,
        ),
        rep,
    )


def compose_cehom(g: CEHom, f: CEHom) -> CEHom:
    return CEHom(
        source=f.source,
        target=g.target,
        fam_map=compose_functors(g.fam_map, f.fam_map),
        base_map=compose_functors(g.base_map, f.base_map),
    )


def cehom_of_ehom(h: EHom, src_ce: CESystem, tgt_ce: CESystem) -> CEHom:
    """E2CE on homomorphisms: slices on families, term maps on contexts,
    for src_ce = e_to_ce(h.source), whose families' arrows are the
    triangles triangle_id(h, f, g) of slice_mors at the terminal."""
    e = h.source
    obj_map = {}
    fam_ar = {}
    base_ar = {}
    for f in src_ce.fam.objects:
        img = h.functor.arrow_map.get(f)
        if img is not None:
            obj_map[f] = img
    for hh, f, g in slice_mors(e.cat, e.cat.terminal):
        ih_, fi, gi = (
            h.functor.arrow_map.get(hh),
            h.functor.arrow_map.get(f),
            h.functor.arrow_map.get(g),
        )
        if None in (ih_, fi, gi):
            continue
        name = triangle_id(ih_, fi, gi)
        if name in tgt_ce.fam.arrows:
            fam_ar[triangle_id(hh, f, g)] = name
    terms = _ih_terms(e, src_ce.base.arrows)
    for name, arr in src_ce.base.arrows.items():
        A, B = arr.dom, arr.cod
        x = terms.get(name)
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


def cehom_equal(f: CEHom, g: CEHom) -> tuple[list[tuple], int, int]:
    return diff_tables([
        (f.fam_map.object_map, g.fam_map.object_map, ("fam-obj",)),
        (f.fam_map.arrow_map, g.fam_map.arrow_map, ("fam-ar",)),
        (f.base_map.arrow_map, g.base_map.arrow_map, ("base-ar",)),
    ])


def identity_cehom(a: CESystem) -> CEHom:
    return CEHom(
        source=a,
        target=a,
        fam_map=identity_functor(a.fam),
        base_map=identity_functor(a.base),
    )


def adjunction_witnesses(a: CESystem):
    """Unit at e = ce_to_e(a) and counit at a, with invertibility evidence
    and triangle identities.

    Each structure is built once: e, ae = e_to_ce(e) (the source of the
    counit), ehat = ce_to_e(ae) (the target of the unit) and
    e_to_ce(ehat) (the source of the counit at ae).
    """
    e = ce_to_e(a)
    ae = e_to_ce(e)
    ehat = ce_to_e(ae)
    rep = Report()
    eta = unit_ehom(e, ehat)
    rep.merge(validate_ehom(eta), prefix="eta:")
    eta_inv, inv_rep = invert_ehom(eta)
    rep.merge(inv_rep, prefix="eta-inv:")
    if eta_inv is not None:
        rep.merge(validate_ehom(eta_inv), prefix="eta-inv-hom:")

    eps = counit_cehom(a, e, ae)
    rep.merge(validate_ce_hom(eps), prefix="eps:")
    # invertibility of the counit: image against the base hom-sets
    rep.law("eps-invertible")
    fam, base = a.fam, a.base
    by_pair: dict[tuple[str, str], list[str]] = {}
    for name, arr in ae.base.arrows.items():
        img = eps.base_map.arrow_map.get(name)
        if img is None:
            continue
        by_pair.setdefault((fam.dom(arr.dom), fam.dom(arr.cod)), []).append(img)
    for (d, g), imgs in sorted(by_pair.items()):
        rep.tick("eps-invertible")
        if len(set(imgs)) != len(imgs):
            rep.fail("eps-invertible", (d, g), "not injective")
        target = base.hom(d, g)
        missing = sorted(set(target) - set(imgs))
        if missing:
            rep.fail("eps-invertible", (d, g), f"not surjective, missing {missing}")

    # triangle 1: CE2E(eps_A) . eta_{CE2E(A)} = Id on ce_to_e(a), which is e
    tri1 = compose_ehom(ce2e_of_cehom(eps, ehat, e), eta)
    diff = ehom_equal(tri1, identity_ehom(e))
    rep.tick("triangle-1", diff[2])
    rep.record("triangle-1", diff)

    # triangle 2: eps_{E2CE(E)} . E2CE(eta_E) = Id on e_to_ce(e)
    aehat = e_to_ce(ehat)
    eps_ae = counit_cehom(ae, ehat, aehat)
    e2ce_eta = cehom_of_ehom(eta, ae, aehat)
    tri2 = compose_cehom(eps_ae, e2ce_eta)
    diff = cehom_equal(tri2, identity_cehom(ae))
    rep.tick("triangle-2", diff[2])
    rep.record("triangle-2", diff)

    return eta, eps, rep


# ---------------------------------------------------------------------------
# the composite equivalence between B-systems and C-systems


def compose_equivalence(direction: str, value) -> tuple[tuple, dict[str, Report]]:
    """b2c = ce_to_c . e_to_ce . b_to_e;  c2b = e_to_b . ce_to_e . c_to_ce.

    Returns the three structures the stages built, in order, and the
    validation report of each stage.
    """
    stages: dict[str, Report] = {}
    if direction == "b2c":
        e = b_to_e(value)
        stages["b_to_e"] = validate_esystem(e)
        a = e_to_ce(e)
        stages["e_to_ce"] = validate_cesystem(a, rooted=True, stratified=True)
        c = ce_to_c(a)
        stages["ce_to_c"] = validate_csystem(c)
        return (e, a, c), stages
    if direction == "c2b":
        a = c_to_ce(value)
        stages["c_to_ce"] = validate_cesystem(a, rooted=True, stratified=True)
        e = ce_to_e(a)
        stages["ce_to_e"] = validate_esystem(e)
        b = e_to_b(e)
        stages["e_to_b"] = validate_bsystem(b)
        return (a, e, b), stages
    raise ValueError(f"unknown direction {direction!r}")


def grand_roundtrip_iso(bsys: BSystem) -> tuple[IsoWitness, dict[str, Report]]:
    """b2c then c2b on a B-system, with the composite isomorphism verified.

    The witness is assembled from the three partial-round-trip isos:
    comp/fact on the CE side, the unit on the E side, and the relabeling
    on the B side. The unit and the relabeling compare the structures
    built by the stages and here: comp/fact compares a with the back
    stage's c_to_ce of the forward stage's ce_to_c(a).
    """
    (e, a, c), fwd_stages = compose_equivalence("b2c", bsys)
    (a2, ehat, b2), back_stages = compose_equivalence("c2b", c)
    stages = dict(fwd_stages)
    stages.update({f"back:{k}": v for k, v in back_stages.items()})

    rep = Report()
    # kappa: ce_to_e(c_to_ce(ce_to_c(a))) -> ce_to_e(a) via the comp iso
    iso_ce = _casce_iso(a, a2)
    rep.merge(iso_ce.report, prefix="casce:")
    # eta inverse: ce_to_e(a) = ce_to_e(e_to_ce(e)) -> e
    ea = ce_to_e(a)
    eta = unit_ehom(e, ea)
    eta_inv, inv_rep = invert_ehom(eta)
    rep.merge(inv_rep, prefix="eta:")
    if eta_inv is None:
        return IsoWitness(None, None, rep), stages
    kappa = ce2e_of_cehom(iso_ce.backward, ehat, ea)
    chain = compose_ehom(eta_inv, kappa)  # ehat -> e
    b1 = e_to_b(e)
    hom_b = e2b_of_ehom(chain, b2, b1)
    # identify b1 = e_to_b(b_to_e(bsys)) with bsys through the relabeling iso
    ib = b_roundtrip_iso(bsys, b1)
    rep.merge(ib.report, prefix="relabel:")
    back_total = compose_bhom(ib.backward, hom_b)  # b2 -> bsys
    rep.merge(validate_bsystem_hom(back_total, b2, bsys), prefix="hom:")
    # forward: invert tables
    H = {n: {v: k for k, v in m.items()} for n, m in back_total.H.items()}
    Ht = {n: {v: k for k, v in m.items()} for n, m in back_total.Ht.items()}
    fwd_total = BFrameHom(source=bsys.frame, target=b2.frame, H=H, Ht=Ht)
    rep.merge(validate_bsystem_hom(fwd_total, bsys, b2), prefix="hom-fwd:")
    _check_inverse(rep, fwd_total, back_total)
    return IsoWitness(forward=fwd_total, backward=back_total, report=rep), stages
