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
from dataclasses import dataclass, field, replace

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
    split_ids,
    stratify,
    triangle_id,
    unpack_ids,
)
from .csys import CSystem, validate_csystem
from .esys import (
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    _ih_terms,
    _internal_hom,
    _Slices,
    compose_ehom,
    ehom_equal,
    identity_ehom,
    ih_arrow,
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


def _sfunctor_of_bhom(
    hom: BFrameHom,
    n_src: int,
    x_src: str,
    n_tgt: int,
    x_tgt: str,
    paths: _Ids,
) -> SliceFunctorT:
    """Lift a homomorphism of slice frames to a slice functor on the free category.

    Terms of an arrow (Y, d) are flat tuples whose entries all live one
    level above the codomain; the term action is componentwise. ``paths``
    is b_to_e's table of path_id(n, y, d).
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
    for m in range(src.height + 1):
        level_map = hom.H.get(m, {})
        for y in src.B[m]:
            if y not in level_map:
                continue
            y1 = level_map[y]
            f1 = paths[n_src + m, y, m]
            for d in range(m + 1):
                # slice morphism from (y, m) to its d-th truncation
                z = src.ft_iter(m, y, d) if d else y
                if z not in hom.H.get(m - d, {}):
                    continue
                h = paths[n_src + m, y, d]
                g1 = paths[n_src + m - d, z, m - d]
                sf.mor_map[(h, f1, g1)] = paths[n_tgt + m, y1, d]
    return sf


def _subst_of(bsys: BSystem, level: int, x: str) -> BFrameHom:
    try:
        return bsys.subst[(level, x)]
    except KeyError:
        raise Truncated(f"subst({level},{x!r})") from None


def b_to_e(bsys: BSystem) -> ESystem:
    """The stratified E-system on the free category of a B-system's frame.

    Every term tuple is packed once, and every term table is filled from
    those packed ids: a tuple enters the table of a slice morphism when
    the level map sends each of its components, which is exactly when
    ``map`` over them raises no ``KeyError``, and its image is the packed
    tuple of the images, looked up in ``packs`` when it is itself a term
    tuple. So the tables are those of packing each tuple where it is
    used. A substitution the B-system lacks raises ``Truncated`` naming
    it.
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

    def fill_terms(sf: SliceFunctorT, hom: BFrameHom, n_src: int) -> None:
        # terms of an arrow (y, d) are flat tuples of elements one level
        # above its codomain; the functor acts componentwise
        for key in list(sf.mor_map):
            m, y, d = where[key[0]]
            if d == 0:
                sf.term_map[key] = {empty: empty}
                continue
            image = hom.Ht.get((m - d + 1) - n_src, {}).__getitem__
            table = {}
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
            sf = _sfunctor_of_bhom(hom, n, X, n - k, ftk, paths)
            fill_terms(sf, hom, n)
            e.subst[(paths[n, X, k], p)] = sf
    # identity arrows: substitution by the empty tuple is the identity
    for n in range(frame.height + 1):
        for X in frame.B[n]:
            hom = shoms[(n, X, ())]
            sf = _sfunctor_of_bhom(hom, n, X, n, X, paths)
            fill_terms(sf, hom, n)
            e.subst[(paths[n, X, 0], empty)] = sf

    # weakening: composites of the one-step weakening homs
    for k in range(1, frame.height + 1):
        for n in range(k, frame.height + 1):
            for X in frame.B[n]:
                prev = whoms.get((n - 1, frame.ft[n][X], k - 1))
                wx = bsys.weak.get((n, X))
                if prev is None or wx is None:
                    continue
                whoms[(n, X, k)] = compose_bhom(wx, prev)
    for (n, X, k), hom in whoms.items():
        sf = _sfunctor_of_bhom(hom, n - k, frame.ft_iter(n, X, k), n, X, paths)
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
        A = paths[n, X, k]
        wa = e.weak.get(A)
        if wa is not None and wa.obj_map.get(A) is not None:
            e.proj[A] = pack_ids(tup)
    return e


# ---------------------------------------------------------------------------
# stratified E-systems -> B-systems


def _unique_arrow(cat: FinCat, x: str, y: str) -> str | None:
    arrs = cat.hom(x, y)
    return arrs[0] if len(arrs) == 1 else None


class _ElementReads:
    """What _bhom_of_sfunctor reads besides the slice functor, once per
    e_to_b call: the (X, t) of each frame element, recorded where e_to_b
    packs it; for each object Y, ybar, the first arrow out of Y that
    goes one level down; and _unique_arrow of each pair of objects."""

    def __init__(self, cat: FinCat, lv: dict[str, int]) -> None:
        self.cat = cat
        self.lv = lv
        self.parts: dict[str, tuple[str, str]] = {}
        self._down: dict[str, str | None] = {}
        self._unique: dict[tuple[str, str], str | None] = {}

    def down(self, Y: str) -> str | None:
        if Y not in self._down:
            cat, lv = self.cat, self.lv
            below = lv.get(Y, 0) - 1
            self._down[Y] = next((a for a in cat.arrows_from(Y) if lv.get(cat.cod(a)) == below), None)
        return self._down[Y]

    def unique(self, x: str, y: str) -> str | None:
        if (x, y) not in self._unique:
            self._unique[(x, y)] = _unique_arrow(self.cat, x, y)
        return self._unique[(x, y)]


def _bhom_of_sfunctor(e: ESystem, sf: SliceFunctorT, src: BFrame, tgt: BFrame,
                      reads: _ElementReads) -> BFrameHom:
    """Project a slice functor down to a homomorphism of the level frames."""
    cat = e.cat
    z, z1 = sf.source_apex, sf.target_apex
    H: dict[int, dict[str, str]] = {0: {z: z1}}
    Ht: dict[int, dict[str, str]] = {}
    for m in range(1, src.height + 1):
        hm: dict[str, str] = {}
        tm: dict[str, str] = {}
        for Y in src.B[m]:
            u = reads.unique(Y, z)
            if u is None or u not in sf.obj_map:
                continue
            hm[Y] = cat.dom(sf.obj_map[u])
        for el in src.Bt[m]:
            Y, t = reads.parts[el]
            u = reads.unique(Y, z)
            ybar = reads.down(Y)
            if u is None or ybar is None:
                continue
            uft = reads.unique(cat.cod(ybar), z)
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
    reads = _ElementReads(cat, lv)
    for m in range(1, height + 1):
        elems = {}
        for X in B[m]:
            for t in e.T(ind[X]):
                el = pack_ids((X, t))
                elems[el] = X
                reads.parts[el] = (X, t)
        Bt.append(frozenset(elems))
        bd.append(elems)
        ft.append({X: cat.cod(ind[X]) for X in B[m]})
    frame = BFrame(height=height, B=tuple(B), Bt=tuple(Bt), ft=tuple(ft), bd=tuple(bd))
    sys = BSystem(frame=frame)
    for m in range(1, height + 1):
        for el in frame.Bt[m]:
            X, t = reads.parts[el]
            sf = e.subst.get((ind[X], t))
            if sf is None:
                continue
            src = slice_bframe(frame, m, X)
            tgt = slice_bframe(frame, m - 1, cat.cod(ind[X]))
            sys.subst[(m, el)] = _bhom_of_sfunctor(e, sf, src, tgt, reads)
        for X in frame.B[m]:
            wf = e.weak.get(ind[X])
            if wf is None:
                continue
            src = slice_bframe(frame, m - 1, cat.cod(ind[X]))
            tgt = slice_bframe(frame, m, X)
            sys.weak[(m, X)] = _bhom_of_sfunctor(e, wf, src, tgt, reads)
            one = e.proj.get(ind[X])
            wxx = wf.obj_map.get(ind[X])
            if one is not None and wxx is not None and m + 1 <= height:
                sys.gen[(m, X)] = pack_ids((cat.dom(wxx), one))
    return sys


# ---------------------------------------------------------------------------
# round trips on the B side


def _check_inverse(rep: Report, fwd, bwd, src, tgt, compose, identity, equal) -> None:
    """Check bwd∘fwd = id on src as ``iso:bwd.fwd`` and fwd∘bwd = id on
    tgt as ``iso:fwd.bwd``, ticking the entries each comparison checked."""
    for name, g, f, base in (("iso:bwd.fwd", bwd, fwd, src), ("iso:fwd.bwd", fwd, bwd, tgt)):
        diff = equal(compose(g, f), identity(base))
        rep.tick(name, diff[2])
        rep.record(name, diff)


def b_roundtrip_iso(bsys: BSystem) -> IsoWitness:
    """bsys vs e_to_b(b_to_e(bsys)): the relabeling isomorphism, verified."""
    e = b_to_e(bsys)
    b2 = e_to_b(e)
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
    _check_inverse(rep, fwd, bwd, frame, frame2, compose_bhom, bhom_identity, bhom_eq)
    return IsoWitness(forward=fwd, backward=bwd, report=rep)


def e2b_of_ehom(k: EHom, src_b: BSystem, tgt_b: BSystem) -> BFrameHom:
    """Transport a stratified E-homomorphism to the extracted B-systems."""
    lv = k.source.levels
    strat = Stratification(level=dict(lv))
    H: dict[int, dict[str, str]] = {}
    Ht: dict[int, dict[str, str]] = {}
    for x, y in k.functor.object_map.items():
        H.setdefault(lv[x], {})[x] = y
    for m in range(1, src_b.frame.height + 1):
        Ht[m] = {}
        for el in src_b.frame.Bt[m]:
            X, t = unpack_ids(el)
            xbar = individual_arrow(k.source.cat, strat, X)
            timg = k.term_map.get(xbar, {}).get(t)
            ximg = k.functor.object_map.get(X)
            if timg is None or ximg is None:
                continue
            Ht[m][el] = pack_ids((ximg, timg))
    return BFrameHom(source=src_b.frame, target=tgt_b.frame, H=H, Ht=Ht)


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
    c = ce_to_c(a)
    ahat = c_to_ce(c)
    strat = stratify(a.fam)
    assert isinstance(strat, Stratification)
    # comp: paths of individuals -> their composites in fam(a)
    comp_obj = {x: x for x in a.fam.objects}
    comp_ar: dict[str, str] = {}
    fact_ar: dict[str, str] = {}
    for name in ahat.fam.arrows:
        gamma = ahat.fam.dom(name)
        k = int(split_ids(name, "|")[-1])
        cur = a.fam.id_of(gamma)
        x = gamma
        for _ in range(k):
            step = individual_arrow(a.fam, strat, x)
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
        igP = a.ifun.get(gP)
        for x in _section_terms(a, P):
            xg = base.compose.get((x, g))
            if xg is None or igP is None:
                continue
            ident = base.identity.get(fam.cod(gP))
            if ident is None:
                continue
            mediators = [
                w
                for w in base.hom(fam.cod(gP), fam.dom(gP))
                if base.compose.get((pi2g, w)) == xg
                and base.compose.get((igP, w)) == ident
            ]
            if len(mediators) == 1:
                table[x] = mediators[0]
        sf.term_map[(P, B1, B)] = table
    return sf


def ce_to_e(a: CESystem) -> ESystem:
    """Terms are sections; substitution and weakening are pullback functors."""
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
        if entry is None:
            continue
        waa, pi2 = entry
        ident, iwaa = a.base.identity.get(fam.dom(A)), a.ifun.get(waa)
        if ident is None or iwaa is None:
            continue
        mediators = [
            w
            for w in a.base.hom(fam.cod(waa), fam.dom(waa))
            if a.base.compose.get((pi2, w)) == ident
            and a.base.compose.get((iwaa, w)) == ident
        ]
        if len(mediators) == 1:
            e.proj[A] = mediators[0]
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
    of f*'s object map. precompose raises Truncated only where S_x is
    missing (restricting W_A at B cannot raise, since W_A(B) exists when
    x names a base arrow), and those arrows get no pullbacks here either.

    The base arrows are read as (A, B, x, name) from the names that
    esys._internal_hom returns, so no arrow id is decoded, and an
    internal-hom id is looked up there instead of made again. One
    _Slices serves the call: the slice morphisms of each apex are
    enumerated once, the restriction plan of each slice object is made
    once, and W_A/B is restricted once per (A, B) here, as in the
    internal-hom category.
    """
    root = e.cat.terminal
    if root is None:
        raise ValueError("e_to_ce needs a chosen terminal object")
    slices = _Slices(e)
    sl = slice_category(e.cat, root, slices.mors(root))
    fam = sl.cat
    base, names = _internal_hom(e, root, slices)
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
                wab = slices.restrict(e.weak[A], B)
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
                try:
                    pi2 = vertical_compose(e, A, B, x, xR, R, onexR)
                except Truncated:
                    continue
                pi2name = names.get((AxR, BR), {}).get(pi2)
                if pi2name is None:
                    continue
                pulled = triangle_id(xR, AxR, A)
                if pulled not in fam.arrows:
                    continue
                a.pb[(name, tri)] = (pulled, pi2name)
    return a


# ---------------------------------------------------------------------------
# the adjunction between E-systems and rooted CE-systems


def unit_ehom(e: ESystem) -> EHom:
    """eta: e -> ce_to_e(e_to_ce(e)), the slice-at-terminal comparison.

    For A into Γ, the position (W_{!Γ}/!Γ)(A) is read as
    W_{!Γ}.mor_map[(A, !Γ∘A, !Γ)], without restricting the whole functor.
    Completeness: restrict_sf(e, W, !Γ) raises Truncated exactly when !Γ
    is not in W.obj_map, and then W_{!Γ}(!Γ) is missing too, so A gets no
    term images either way. Otherwise it sets obj_map[Q] for the arrows
    Q into dom(!Γ) = Γ, A among them, to W.mor_map[(Q, !Γ∘Q, !Γ)] where
    !Γ∘Q and that entry are defined: the entry read here.
    """
    a = e_to_ce(e)
    ehat = ce_to_e(a)
    root = e.cat.terminal
    cat = e.cat
    bang = {x: _unique_arrow(cat, x, root) for x in cat.objects}
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
        bgA = cat.compose.get((bg, A))
        pbar = wb.mor_map.get((A, bgA, bg)) if bgA is not None else None
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


def counit_cehom(a: CESystem) -> CEHom:
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


def adjunction_witnesses(e: ESystem, a: CESystem):
    """Unit and counit with invertibility evidence and triangle identities."""
    rep = Report()
    eta = unit_ehom(e)
    rep.merge(validate_ehom(eta), prefix="eta:")
    eta_inv, inv_rep = invert_ehom(eta)
    rep.merge(inv_rep, prefix="eta-inv:")
    if eta_inv is not None:
        rep.merge(validate_ehom(eta_inv), prefix="eta-inv-hom:")

    eps = counit_cehom(a)
    rep.merge(validate_ce_hom(eps), prefix="eps:")
    # invertibility of the counit: image against the base hom-sets
    rep.law("eps-invertible")
    ahat = eps.source
    fam, base = a.fam, a.base
    by_pair: dict[tuple[str, str], list[str]] = {}
    for name, arr in ahat.base.arrows.items():
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

    # triangle 1: CE2E(eps_A) . eta_{CE2E(A)} = Id on ce_to_e(a)
    ea = ce_to_e(a)
    eta_ea = unit_ehom(ea)
    ce2e_eps = ce2e_of_cehom(eps, eta_ea.target, ea)
    tri1 = compose_ehom(ce2e_eps, eta_ea)
    diff = ehom_equal(tri1, identity_ehom(ea))
    rep.tick("triangle-1", diff[2])
    rep.record("triangle-1", diff)

    # triangle 2: eps_{E2CE(E)} . E2CE(eta_E) = Id on e_to_ce(e)
    ae = e_to_ce(e)
    eps_ae = counit_cehom(ae)
    e2ce_eta = cehom_of_ehom(eta, ae, eps_ae.source)
    tri2 = compose_cehom(eps_ae, e2ce_eta)
    diff = cehom_equal(tri2, identity_cehom(ae))
    rep.tick("triangle-2", diff[2])
    rep.record("triangle-2", diff)

    return eta, eps, rep


# ---------------------------------------------------------------------------
# the composite equivalence between B-systems and C-systems


@dataclass
class ComposeResult:
    output: object
    stages: dict[str, Report] = field(default_factory=dict)
    intermediates: dict[str, object] = field(default_factory=dict)


def compose_equivalence(direction: str, value) -> ComposeResult:
    """b2c = ce_to_c . e_to_ce . b_to_e;  c2b = e_to_b . ce_to_e . c_to_ce."""
    stages: dict[str, Report] = {}
    inter: dict[str, object] = {}
    if direction == "b2c":
        e = b_to_e(value)
        stages["b_to_e"] = validate_esystem(e)
        inter["esystem"] = e
        a = e_to_ce(e)
        stages["e_to_ce"] = validate_cesystem(a, rooted=True, stratified=True)
        inter["cesystem"] = a
        c = ce_to_c(a)
        stages["ce_to_c"] = validate_csystem(c)
        return ComposeResult(output=c, stages=stages, intermediates=inter)
    if direction == "c2b":
        a = c_to_ce(value)
        stages["c_to_ce"] = validate_cesystem(a, rooted=True, stratified=True)
        inter["cesystem"] = a
        e = ce_to_e(a)
        stages["ce_to_e"] = validate_esystem(e)
        inter["esystem"] = e
        b = e_to_b(e)
        stages["e_to_b"] = validate_bsystem(b)
        return ComposeResult(output=b, stages=stages, intermediates=inter)
    raise ValueError(f"unknown direction {direction!r}")


def grand_roundtrip_iso(bsys: BSystem) -> tuple[IsoWitness, dict[str, Report]]:
    """b2c then c2b on a B-system, with the composite isomorphism verified.

    The witness is assembled from the three partial-round-trip isos:
    comp/fact on the CE side, the unit on the E side, and the relabeling
    on the B side.
    """
    fwdres = compose_equivalence("b2c", bsys)
    c = fwdres.output
    backres = compose_equivalence("c2b", c)
    b2 = backres.output
    stages = dict(fwdres.stages)
    stages.update({f"back:{k}": v for k, v in backres.stages.items()})

    e = fwdres.intermediates["esystem"]
    a = fwdres.intermediates["cesystem"]
    ehat = backres.intermediates["esystem"]

    rep = Report()
    # kappa: ce_to_e(c_to_ce(ce_to_c(a))) -> ce_to_e(a) via the comp iso
    iso_ce = casce_iso(a)
    rep.merge(iso_ce.report, prefix="casce:")
    # eta inverse: ce_to_e(e_to_ce(e)) -> e
    eta = unit_ehom(e)
    eta_inv, inv_rep = invert_ehom(eta)
    rep.merge(inv_rep, prefix="eta:")
    if eta_inv is None:
        return IsoWitness(None, None, rep), stages
    # eta.target is ce_to_e(a), built by the same construction
    kappa = ce2e_of_cehom(iso_ce.backward, ehat, eta.target)
    chain = compose_ehom(eta_inv, kappa)  # ehat -> e
    b1 = e_to_b(e)
    hom_b = e2b_of_ehom(chain, b2, b1)
    # identify e_to_b(e) with bsys through the relabeling iso
    ib = b_roundtrip_iso(bsys)
    rep.merge(ib.report, prefix="relabel:")
    back_total = compose_bhom(ib.backward, hom_b)  # b2 -> bsys
    rep.merge(validate_bsystem_hom(back_total, b2, bsys), prefix="hom:")
    # forward: invert tables
    H = {n: {v: k for k, v in m.items()} for n, m in back_total.H.items()}
    Ht = {n: {v: k for k, v in m.items()} for n, m in back_total.Ht.items()}
    fwd_total = BFrameHom(source=bsys.frame, target=b2.frame, H=H, Ht=Ht)
    rep.merge(validate_bsystem_hom(fwd_total, bsys, b2), prefix="hom-fwd:")
    _check_inverse(rep, fwd_total, back_total, bsys.frame, b2.frame, compose_bhom, bhom_identity, bhom_eq)
    return IsoWitness(forward=fwd_total, backward=back_total, report=rep), stages
