"""B-frames and B-systems: substitution, weakening, generic elements.

A B-frame is a pair of level-indexed families (contexts B_n, terms
B~_{n+1}) with father and boundary maps. Everything here is truncated at
a finite height; equations between homomorphisms are checked on the
maximal common domain, and instances whose data falls above the height
are skipped and counted rather than failed.

Structure maps on slices reuse the ambient tables: a slice of a slice is
elementwise a slice of the ambient frame, so the same homomorphism
objects serve at every depth.

A frame's tables are not changed after the frame is made, so its slices
are made once, by ``slice_bframe``, and kept with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import Report, diff_tables


@dataclass(frozen=True)
class BFrame:
    """Level sets B_0..B_N and B~_1..B~_N with father and boundary maps.

    ``ft[k]`` maps B_k to B_{k-1} and ``bd[k]`` maps B~_k to B_k, both
    keyed by the level of their domain (index 0 unused). The tables are
    not changed after the frame is made, so ``_slices`` keeps the slice
    frames made of it, keyed by (n, X), outside equality and ``repr``.
    """

    height: int
    B: tuple[frozenset[str], ...]
    Bt: tuple[frozenset[str], ...]
    ft: tuple[dict[str, str], ...]
    bd: tuple[dict[str, str], ...]
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ft_iter(self, k: int, x: str, m: int) -> str:
        for i in range(m):
            x = self.ft[k - i][x]
        return x


@dataclass
class BFrameHom:
    """Level-indexed maps between two B-frames, possibly partial.

    ``H[n]`` maps B_n of the source into B_n of the target, ``Ht[k]``
    likewise for the term sets. Maps are meaningful for levels up to the
    minimum of the two heights; absent entries are treated as truncated.
    """

    source: BFrame
    target: BFrame
    H: dict[int, dict[str, str]]
    Ht: dict[int, dict[str, str]]

    @property
    def common_height(self) -> int:
        return min(self.source.height, self.target.height)


@dataclass
class BSystem:
    """A B-frame carrying substitution, weakening and generic elements.

    ``subst[(k, x)]`` is S_x : B/bd(x) -> B/ft(bd(x)) for x in B~_k;
    ``weak[(n, X)]`` is W_X : B/ft(X) -> B/X for X in B_n, n >= 1;
    ``gen[(n, X)]`` is the generic element of B~_{n+1} for X in B_n.
    Tables may be partial (truncation or a syntactic size bound).
    """

    frame: BFrame
    subst: dict[tuple[int, str], BFrameHom] = field(default_factory=dict)
    weak: dict[tuple[int, str], BFrameHom] = field(default_factory=dict)
    gen: dict[tuple[int, str], str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# frames


def validate_bframe(b: BFrame) -> Report:
    rep = Report()
    rep.tick("root")
    if len(b.B) != b.height + 1 or len(b.Bt) != b.height + 1:
        rep.fail("shape", (b.height,), "level family arity mismatch")
        return rep
    if len(b.B[0]) != 1:
        rep.fail("root", (tuple(sorted(b.B[0])),), "B_0 is not a singleton")
    for k in range(1, b.height + 1):
        for x in sorted(b.B[k]):
            rep.tick("ft")
            v = b.ft[k].get(x)
            if v is None:
                rep.fail("ft", (k, x), "ft undefined")
            elif v not in b.B[k - 1]:
                rep.fail("ft", (k, x, v), "ft lands outside B_{k-1}")
        for x in sorted(b.Bt[k]):
            rep.tick("bd")
            v = b.bd[k].get(x)
            if v is None:
                rep.fail("bd", (k, x), "bd undefined")
            elif v not in b.B[k]:
                rep.fail("bd", (k, x, v), "bd lands outside B_k")
    return rep


def slice_bframe(b: BFrame, n: int, X: str) -> BFrame:
    """The slice frame B/X for X in B_n, made once and kept in ``b._slices``:
    level m holds the elements over X."""
    s = b._slices.get((n, X))
    if s is None:
        s = b._slices[(n, X)] = _build_slice(b, n, X)
    return s


def _build_slice(b: BFrame, n: int, X: str) -> BFrame:
    if n > b.height or X not in b.B[n]:
        raise ValueError(f"{X!r} is not an element of B_{n}")
    h = b.height - n
    B = [frozenset({X})]
    Bt: list[frozenset[str]] = [frozenset()]
    ft: list[dict[str, str]] = [{}]
    bd: list[dict[str, str]] = [{}]
    for m in range(1, h + 1):
        lvl = n + m
        bm = frozenset(y for y in b.B[lvl] if b.ft_iter(lvl, y, m) == X)
        btm = frozenset(
            y for y in b.Bt[lvl] if b.ft_iter(lvl, b.bd[lvl][y], m) == X
        )
        B.append(bm)
        Bt.append(btm)
        ft.append({y: b.ft[lvl][y] for y in bm})
        bd.append({y: b.bd[lvl][y] for y in btm})
    return BFrame(height=h, B=tuple(B), Bt=tuple(Bt), ft=tuple(ft), bd=tuple(bd))


# ---------------------------------------------------------------------------
# homomorphisms


def validate_bframe_hom(h: BFrameHom) -> Report:
    """Naturality of the ft/bd squares on every level where both sides exist.

    An image outside the target frame has no side there: its square is
    skipped, and ``total`` fails it with its witness.

    Each level is walked in sorted order, and each law's checks, skips
    and witnesses are entered once, the laws in the order the walk first
    meets them.
    """
    s, t, H, Ht = h.source, h.target, h.H, h.Ht
    laws: dict[str, list] = {}  # law -> [checked, skipped, (witness, detail)s]

    def natural(law: str, n: int, keys, img: dict, t_map: dict, s_map: dict, lower: dict) -> None:
        """The squares t_map(img k) = lower(s_map k) for k in keys, at level n."""
        if keys:
            tally = laws.setdefault(law, [0, 0, []])
            tally[0] += len(keys)
            for k in sorted(keys):
                a, b = t_map.get(img.get(k)), lower.get(s_map[k])
                if a is None or b is None:
                    tally[1] += 1
                elif a != b:
                    tally[2].append(((n, k), ""))

    def total(n: int, keys, img: dict, level: frozenset[str], detail: str) -> None:
        if keys:
            tally = laws.setdefault("total", [0, 0, []])
            tally[0] += len(keys)
            for k in sorted(keys):
                y = img.get(k)
                if y is None:
                    tally[1] += 1
                elif y not in level:
                    tally[2].append(((n, k, y), detail))

    top = h.common_height
    for n in range(1, top + 1):
        natural("ft-natural", n, s.B[n], H.get(n, {}), t.ft[n], s.ft[n], H.get(n - 1, {}))
        natural("bd-natural", n, s.Bt[n], Ht.get(n, {}), t.bd[n], s.bd[n], H.get(n, {}))
    for n in range(0, top + 1):
        total(n, s.B[n], H.get(n, {}), t.B[n], "image outside target level")
        if n >= 1:
            total(n, s.Bt[n], Ht.get(n, {}), t.Bt[n], "term image outside target level")
    rep = Report()
    for law, tally in laws.items():
        rep.enter(law, *tally)
    return rep


def bhom_identity(b: BFrame) -> BFrameHom:
    return BFrameHom(
        source=b,
        target=b,
        H={n: {x: x for x in b.B[n]} for n in range(b.height + 1)},
        Ht={k: {x: x for x in b.Bt[k]} for k in range(1, b.height + 1)},
    )


def compose_bhom(g: BFrameHom, f: BFrameHom) -> BFrameHom:
    H: dict[int, dict[str, str]] = {}
    Ht: dict[int, dict[str, str]] = {}
    for n, fm in f.H.items():
        gm = g.H.get(n, {})
        H[n] = {x: gm[y] for x, y in fm.items() if y in gm}
    for k, fm in f.Ht.items():
        gm = g.Ht.get(k, {})
        Ht[k] = {x: gm[y] for x, y in fm.items() if y in gm}
    return BFrameHom(source=f.source, target=g.target, H=H, Ht=Ht)


def restrict_bhom(h: BFrameHom, n: int, X: str) -> BFrameHom:
    """The hom h/X : B/X -> A/h(X), for X at level n of h's source."""
    img = h.H[n][X]
    src = slice_bframe(h.source, n, X)
    tgt = slice_bframe(h.target, n, img)
    top = min(src.height, h.common_height - n)
    H = {m: _entries_at(h.H.get(n + m, {}), src.B[m]) for m in range(top + 1)}
    Ht = {m: _entries_at(h.Ht.get(n + m, {}), src.Bt[m]) for m in range(1, top + 1)}
    return BFrameHom(source=src, target=tgt, H=H, Ht=Ht)


def _entries_at(table: dict[str, str], keys: frozenset[str]) -> dict[str, str]:
    """The entries of one level's table at ``keys``, in ``keys`` order."""
    return {y: table[y] for y in keys if y in table}


def _maps_into(h: BFrameHom, n: int, X: str) -> bool:
    """Does h send X, at level n, into h.target, so that restrict_bhom(h, n, X) exists?"""
    return n < len(h.target.B) and h.H.get(n, {}).get(X) in h.target.B[n]


def bhom_eq(f: BFrameHom, g: BFrameHom) -> tuple[list[tuple], int, int]:
    """Elementwise comparison on the common defined domain.

    Returns (mismatch witnesses, skipped entries, compared entries).
    """
    pairs = [(f.H.get(n, {}), g.H.get(n, {}), ("B", n)) for n in sorted(set(f.H) | set(g.H))]
    pairs += [(f.Ht.get(k, {}), g.Ht.get(k, {}), ("Bt", k)) for k in sorted(set(f.Ht) | set(g.Ht))]
    return diff_tables(pairs)


# ---------------------------------------------------------------------------
# systems


def check_preservation(
    h: BFrameHom, src: BSystem, tgt: BSystem, at: tuple[int, int], rep: Report, law: str | None = None
) -> None:
    """Does ``h`` preserve substitution, weakening and generic elements?

    ``h`` maps the slice of ``src`` over an element of level n to the
    slice of ``tgt`` over one of level m, ``at = (n, m)``; a system is its
    own slice at level 0. A slice carries the ambient structure on the
    elements over its base, so each element of ``h.source`` at slice level
    k >= 1 is read in src at level k + n, and its image in tgt at level
    k + m, only where the image lies in ``h.target``. A square is also
    skipped where a base it restricts ``h`` to (bd(x) and ft(bd(x)), or
    ft(X)) has an image outside ``h.target``: that slice of the target
    does not exist, and ``total`` fails the entry. The three are
    checked in that order, each under ``law``, or without it under
    "preserve-sub", "preserve-weak" and "preserve-gen"; witnesses name
    slice levels. The commuting squares are compared elementwise on
    maximal common domains; instances whose data is missing on either
    side count as skipped.

    Each restriction h/Y is made once per call and read by every square
    over Y: it depends only on h and (k, Y), and no table changes while
    the call runs. Nothing is kept after it, as tests damage B tables in
    place. Each of the three is entered on ``rep`` once, after its walk,
    with the counts and witnesses the walk tallied.
    """
    n, m = at
    s, t = h.source, h.target
    restricted: dict[tuple[int, str], BFrameHom] = {}

    def restrict(k: int, Y: str) -> BFrameHom:
        r = restricted.get((k, Y))
        if r is None:
            r = restricted[k, Y] = restrict_bhom(h, k, Y)
        return r

    def image(table: dict, levels: tuple, k: int, y: str | None):
        """tgt's entry in ``table`` for y at slice level k, if y lies there in h.target."""
        return table.get((k + m, y)) if k < len(levels) and y in levels[k] else None

    name = law or "preserve-sub"
    checked = skipped = 0
    failures: list[tuple[tuple, str]] = []
    for k in range(1, s.height + 1):
        for x in sorted(s.Bt[k]):
            sx = src.subst.get((k + n, x))
            if sx is None:
                continue
            checked += 1
            bdx = s.bd[k][x]
            ftbdx = s.ft[k][bdx]
            ty = image(tgt.subst, t.Bt, k, h.Ht.get(k, {}).get(x))
            if ty is None or not _maps_into(h, k, bdx) or not _maps_into(h, k - 1, ftbdx):
                skipped += 1
                continue
            diff, missing, _ = bhom_eq(compose_bhom(restrict(k - 1, ftbdx), sx), compose_bhom(ty, restrict(k, bdx)))
            skipped += missing
            failures += [((k, x) + w, "") for w in diff]
    rep.enter(name, checked, skipped, failures)
    name = law or "preserve-weak"
    checked = skipped = 0
    failures = []
    for k in range(1, s.height + 1):
        for X in sorted(s.B[k]):
            wx = src.weak.get((k + n, X))
            if wx is None:
                continue
            checked += 1
            ftx = s.ft[k][X]
            ty = image(tgt.weak, t.B, k, h.H.get(k, {}).get(X))
            if ty is None or not _maps_into(h, k - 1, ftx):
                skipped += 1
                continue
            diff, missing, _ = bhom_eq(compose_bhom(restrict(k, X), wx), compose_bhom(ty, restrict(k - 1, ftx)))
            skipped += missing
            failures += [((k, X) + w, "") for w in diff]
    rep.enter(name, checked, skipped, failures)
    name = law or "preserve-gen"
    checked = skipped = 0
    failures = []
    for k in range(1, s.height + 1):
        for X in sorted(s.B[k]):
            d = src.gen.get((k + n, X))
            if d is None:
                continue
            checked += 1
            dx = image(tgt.gen, t.B, k, h.H.get(k, {}).get(X))
            dimg = h.Ht.get(k + 1, {}).get(d)
            if dx is None or dimg is None:
                skipped += 1
            elif dx != dimg:
                failures.append(((k, X), f"H(delta) = {dimg!r}, delta(H) = {dx!r}"))
    rep.enter(name, checked, skipped, failures)


def validate_bsystem(sys: BSystem) -> Report:
    """The five B-system axioms, each reported separately with witnesses."""
    rep = Report()
    rep.merge(validate_bframe(sys.frame), prefix="frame:")
    b = sys.frame
    for axiom in ("axiom-1", "axiom-2", "axiom-3", "axiom-4", "axiom-5"):
        rep.law(axiom)

    for k in range(1, b.height + 1):
        for x in sorted(b.Bt[k]):
            rep.tick("coverage-sub")
            if (k, x) not in sys.subst:
                rep.skip("coverage-sub")
        for X in sorted(b.B[k]):
            rep.tick("coverage-weak")
            if (k, X) not in sys.weak:
                rep.skip("coverage-weak")
            rep.tick("coverage-gen")
            if (k, X) not in sys.gen and k + 1 <= b.height:
                rep.skip("coverage-gen")

    for (k, x), sx in sorted(sys.subst.items()):
        rep.merge(validate_bframe_hom(sx), prefix="subst-hom:")
    for (n, X), wx in sorted(sys.weak.items()):
        rep.merge(validate_bframe_hom(wx), prefix="weak-hom:")

    # boundary of generic elements: bd(delta(X)) = W_X(X)
    for (n, X), d in sorted(sys.gen.items()):
        rep.tick("gen-boundary")
        if n + 1 > b.height or d not in b.Bt[n + 1]:
            rep.fail("gen-boundary", (n, X, d), "delta lands outside B~_{n+1}")
            continue
        wx = sys.weak.get((n, X))
        if wx is None or X not in wx.H.get(1, {}):
            rep.skip("gen-boundary")
            continue
        if b.bd[n + 1][d] != wx.H[1][X]:
            rep.fail("gen-boundary", (n, X), "bd(delta(X)) != W_X(X)")

    # axiom 1: every S_x : B/bd(x) -> B/ft(bd(x)) is a pre-B-homomorphism
    for (k, x), sx in sorted(sys.subst.items()):
        check_preservation(sx, sys, sys, (k, k - 1), rep, law="axiom-1")

    # axiom 2: every W_X : B/ft(X) -> B/X is a pre-B-homomorphism
    for (n, X), wx in sorted(sys.weak.items()):
        check_preservation(wx, sys, sys, (n - 1, n), rep, law="axiom-2")

    # axiom 3: S_x . W_bd(x) = id
    for (k, x), sx in sorted(sys.subst.items()):
        rep.tick("axiom-3")
        bdx = b.bd[k][x]
        wx = sys.weak.get((k, bdx))
        if wx is None:
            rep.skip("axiom-3")
            continue
        composite = compose_bhom(sx, wx)
        rep.record("axiom-3", bhom_eq(composite, bhom_identity(composite.source)), (k, x))

    # axiom 4: S_x(delta(bd x)) = x
    for (k, x), sx in sorted(sys.subst.items()):
        rep.tick("axiom-4")
        bdx = b.bd[k][x]
        d = sys.gen.get((k, bdx))
        if d is None:
            rep.skip("axiom-4")
            continue
        img = sx.Ht.get(1, {}).get(d)
        if img is None:
            rep.skip("axiom-4")
            continue
        if img != x:
            rep.fail("axiom-4", (k, x), f"S_x(delta) = {img!r}")

    # axiom 5: S_delta(X) . (W_X / X) = id on B/X
    for (n, X), d in sorted(sys.gen.items()):
        rep.tick("axiom-5")
        wx = sys.weak.get((n, X))
        sd = sys.subst.get((n + 1, d))
        if wx is None or sd is None or not _maps_into(wx, 1, X):
            rep.skip("axiom-5")
            continue
        composite = compose_bhom(sd, restrict_bhom(wx, 1, X))
        rep.record("axiom-5", bhom_eq(composite, bhom_identity(composite.source)), (n, X))

    return rep


def validate_bsystem_hom(h: BFrameHom, src: BSystem, tgt: BSystem) -> Report:
    """A homomorphism of B-systems: frame naturality plus all preservations."""
    rep = Report()
    rep.merge(validate_bframe_hom(h))
    check_preservation(h, src, tgt, (0, 0), rep)
    return rep


# ---------------------------------------------------------------------------
# the finite-set example


def finset_subst_map(n: int, x: int, j: int) -> dict[str, str]:
    """[id_n, x] + id_j as a table on string-encoded elements of [n+1+j]."""
    out = {}
    for i in range(n + 1 + j):
        if i < n:
            out[str(i)] = str(i)
        elif i == n:
            out[str(i)] = str(x)
        else:
            out[str(i)] = str(i - 1)
    return out


def finset_weak_map(n: int, j: int) -> dict[str, str]:
    """i_n + id_j as a table on string-encoded elements of [n+j]."""
    out = {}
    for i in range(n + j):
        out[str(i)] = str(i) if i < n else str(i + 1)
    return out


def build_finset_bframe(height: int) -> BFrame:
    B = tuple(frozenset({str(n)}) for n in range(height + 1))
    Bt = (frozenset(),) + tuple(
        frozenset(str(i) for i in range(k - 1)) for k in range(1, height + 1)
    )
    ft = ({},) + tuple({str(k): str(k - 1)} for k in range(1, height + 1))
    bd = ({},) + tuple(
        {str(i): str(k) for i in range(k - 1)} for k in range(1, height + 1)
    )
    return BFrame(height=height, B=B, Bt=Bt, ft=ft, bd=bd)


def build_finset_bsystem(height: int) -> BSystem:
    """The B-system on B_n = {n}, B~_{n+1} = [n] from finite sets."""
    frame = build_finset_bframe(height)
    sys = BSystem(frame=frame)
    for k in range(1, height + 1):
        n = k - 1  # x lives in B~_{n+1}
        src = slice_bframe(frame, k, str(k))
        tgt = slice_bframe(frame, k - 1, str(k - 1))
        for x in range(n):
            H = {m: {str(k + m): str(k - 1 + m)} for m in range(src.height + 1)}
            Ht = {
                m: finset_subst_map(n, x, m - 1)
                for m in range(1, src.height + 1)
            }
            sys.subst[(k, str(x))] = BFrameHom(source=src, target=tgt, H=H, Ht=Ht)
        wsrc = slice_bframe(frame, k - 1, str(k - 1))
        wtgt = slice_bframe(frame, k, str(k))
        H = {m: {str(k - 1 + m): str(k + m)} for m in range(wtgt.height + 1)}
        Ht = {m: finset_weak_map(n, m - 1) for m in range(1, wtgt.height + 1)}
        sys.weak[(k, str(k))] = BFrameHom(source=wsrc, target=wtgt, H=H, Ht=Ht)
        if k + 1 <= height:
            sys.gen[(k, str(k))] = str(k - 1)
    return sys
