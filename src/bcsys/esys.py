"""E-systems: term structure, substitution, weakening, projections.

An E-system is a strict category with a chosen terminal object, a set of
terms for each arrow, and three families of slice functors: substitution
S_x for each term x, weakening W_A for each arrow A, and identity terms
1_A. The five axioms and the derived pairing calculus live here.

Slice functors are explicit tables. A slice morphism over an apex is the
triple (underlying arrow, source object, target object); term maps are
indexed by those triples. On height-truncated systems some table entries
legitimately do not exist; every check in this module compares on the
maximal common defined domain and counts the rest as skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter, ne

from .core import (
    Arrow,
    FinCat,
    FunctorData,
    compose_functors,
    identity_functor,
    join_ids,
    slice_mors,
    validate_fincat,
    validate_functor,
)
from .report import Report, diff_tables

SliceMor = tuple[str, str, str]  # (underlying arrow, source object, target object)


@dataclass
class TermCat:
    cat: FinCat
    terms: dict[str, frozenset[str]] = field(default_factory=dict)

    def T(self, a: str) -> frozenset[str]:
        return self.terms.get(a, frozenset())


@dataclass
class SliceFunctorT:
    """A functor with term structure between two slices of the same category."""

    source_apex: str
    target_apex: str
    obj_map: dict[str, str] = field(default_factory=dict)
    mor_map: dict[SliceMor, str] = field(default_factory=dict)
    term_map: dict[SliceMor, dict[str, str]] = field(default_factory=dict)


@dataclass
class ESystem:
    tc: TermCat
    subst: dict[tuple[str, str], SliceFunctorT] = field(default_factory=dict)
    weak: dict[str, SliceFunctorT] = field(default_factory=dict)
    proj: dict[str, str] = field(default_factory=dict)
    levels: dict[str, int] | None = None

    @property
    def cat(self) -> FinCat:
        return self.tc.cat

    def T(self, a: str) -> frozenset[str]:
        return self.tc.T(a)


@dataclass
class EHom:
    """A functor with term structure between two E-systems."""

    source: ESystem
    target: ESystem
    functor: FunctorData
    term_map: dict[str, dict[str, str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# slice plumbing


def identity_sf(e: ESystem, apex: str, mors: list[SliceMor]) -> SliceFunctorT:
    """The identity on the slice over apex; ``mors`` is slice_mors(e.cat, apex)."""
    sf = SliceFunctorT(source_apex=apex, target_apex=apex)
    for f in e.cat.arrows_into(apex):
        sf.obj_map[f] = f
    for m in mors:
        sf.mor_map[m] = m[0]
        sf.term_map[m] = {t: t for t in e.T(m[0])}
    return sf


def compose_sf(g: SliceFunctorT, f: SliceFunctorT) -> SliceFunctorT:
    """g after f; entries undefined anywhere along the way are omitted."""
    out = SliceFunctorT(source_apex=f.source_apex, target_apex=g.target_apex)
    for x, y in f.obj_map.items():
        if y in g.obj_map:
            out.obj_map[x] = g.obj_map[y]
    for (h, a, b), h1 in f.mor_map.items():
        fa, fb = f.obj_map.get(a), f.obj_map.get(b)
        if fa is None or fb is None:
            continue
        key1 = (h1, fa, fb)
        h2 = g.mor_map.get(key1)
        if h2 is None:
            continue
        out.mor_map[(h, a, b)] = h2
        t1 = f.term_map.get((h, a, b), {})
        t2 = g.term_map.get(key1, {})
        out.term_map[(h, a, b)] = {
            t: t2[u] for t, u in t1.items() if u in t2
        }
    return out


def restrict_sf(e: ESystem, F: SliceFunctorT, P: str) -> SliceFunctorT | None:
    """F/P: the functor induced between slices over dom(P) and dom(F(P)).

    Uses the canonical identification of a slice of a slice with the slice
    at the domain; every entry is read off F's tables at morphisms over P.
    None where P is not in F.obj_map or F(P) is no arrow. The term
    tables of F/P are F's own tables, not copies: read them, never write.
    """
    return _Slices(e).restrict(F, P)


def _restricted_at(cat: FinCat, F: SliceFunctorT, P: str, Q: str) -> str | None:
    """(F/P)(Q), read as F.mor_map[(Q, P∘Q, P)] without restricting F.

    Completeness: restrict_sf(e, F, P) is None exactly when P is not in
    F.obj_map or F(P) is no arrow. Otherwise it sets obj_map[Q] only for
    Q among the arrows into dom(P), where it copies F.mor_map[(Q, P∘Q,
    P)] if P∘Q and that entry are defined. Those are the cases checked
    here, so the same entries are found, and None is returned exactly
    where the restriction or its entry at Q is missing.
    """
    if F.obj_map.get(P) not in cat.arrows:
        return None
    q = cat.arrows.get(Q)
    PQ = cat.compose.get((P, Q)) if q is not None and q.cod == cat.dom(P) else None
    return None if PQ is None else F.mor_map.get((Q, PQ, P))


# Where F/P reads F, for one slice object P of one category: P, the pairs
# (q, (q, P∘q, P)) for the slice objects q over dom(P) with P∘q defined,
# and the pairs (m, (h, P∘q1, P∘q2)) for the slice morphisms m = (h, q1,
# q2) over dom(P) with both composites defined, in slice_mors order.
_Plan = tuple[str, list[tuple[str, SliceMor]], list[tuple[SliceMor, SliceMor]]]


def _restriction_plan(slices: _Slices, P: str) -> _Plan:
    """The plan of F/P for every F of ``slices``' category. A P that is
    no arrow gets an empty plan."""
    cat = slices.e.cat
    if P not in cat.arrows:
        return P, [], []
    compose = cat.compose
    dom = cat.dom(P)
    objs = []
    for q in cat.arrows_into(dom):
        pq = compose.get((P, q))
        if pq is not None:
            objs.append((q, (q, pq, P)))
    mors = []
    for m in slices.mors(dom):
        pq1, pq2 = compose.get((P, m[1])), compose.get((P, m[2]))
        if pq1 is not None and pq2 is not None:
            mors.append((m, (m[0], pq1, pq2)))
    return P, objs, mors


def _restrict(cat: FinCat, plan: _Plan, F: SliceFunctorT) -> SliceFunctorT:
    """F/P through its plan, for P in F.obj_map: the entries of F at the
    plan's keys that F defines. Each term table is F's table at the key,
    shared, not copied: nothing in bcsys writes into a restriction."""
    P, objs, mors = plan
    out = SliceFunctorT(
        source_apex=cat.dom(P), target_apex=cat.dom(F.obj_map[P])
    )
    mor_map, term_map = F.mor_map, F.term_map
    for q, key in objs:
        img = mor_map.get(key)
        if img is not None:
            out.obj_map[q] = img
    for m, key in mors:
        img = mor_map.get(key)
        if img is None:
            continue
        out.mor_map[m] = img
        tm = term_map.get(key)
        out.term_map[m] = {} if tm is None else tm
    return out


def term_action_at(e: ESystem, F: SliceFunctorT, u: str) -> dict[str, str] | None:
    """F's action on the terms of a slice object u (an arrow into the apex):
    its term table at the slice morphism (u, u, 1_apex) from u to the
    slice terminal. None where the apex has no identity (no morphism is
    keyed by None) or F has no table there."""
    return F.term_map.get((u, u, e.cat.identity.get(F.source_apex)))


def sf_equal(f: SliceFunctorT, g: SliceFunctorT) -> tuple[list[tuple], int, int]:
    """Compare two slice functors on the common defined domain.

    A term table present on one side only counts as one skipped entry.
    """
    shared = sorted(f.term_map.keys() & g.term_map.keys())
    bad, skipped, checked = diff_tables(
        [(f.obj_map, g.obj_map, ("obj",)), (f.mor_map, g.mor_map, ("mor",))]
        + [(f.term_map[m], g.term_map[m], ("term", m)) for m in shared]
    )
    return bad, skipped + len(f.term_map.keys() ^ g.term_map.keys()), checked


def composites_equal(
    g1: SliceFunctorT,
    f1: SliceFunctorT | None,
    g2: SliceFunctorT,
    f2: SliceFunctorT | None,
    slices: _Slices,
    key: tuple[int | None, int | None, int | None, int | None] | None = None,
) -> tuple[list[tuple], int, int]:
    """sf_equal(g1∘f1, g2∘f2), without building the composites when they agree.

    A None f1 or f2 makes that side g1 or g2 alone: a single functor,
    such as W_{A.P} or an identity from identity_sf. The result is the
    same (bad, skipped, checked) triple as sf_equal of the two sides
    built with compose_sf. ``slices`` holds the flat forms, their
    numbers and the results of one validation. ``key`` is the numbers of
    the four sides in ``slices`` where the caller has them. A result may
    be handed to several callers, so its witness list is read, never
    mutated.

    Each side is taken in flat form (see _flatten): one tuple from the
    cells of its source slice to the cells of its target slice, where a
    cell is a slice object, a slice morphism, a slot (m, t) for t in
    T(m[0]), or the absent cell. g∘f is the gather G[F[i]], taken only
    when f's target cells are g's source cells; the absent cell maps to
    the absent cell. Completeness: a flat form is faithful, since each
    target cell stands for one value, so equal tuples over the same
    source and target cells mean identical dict entries. The gather
    follows compose_sf's filters: an object x gets a cell exactly when
    f.obj_map[x] and g.obj_map at it are defined; a morphism m exactly
    when f.mor_map[m] and g.mor_map at (h1, fa, fb) are, where fa and fb
    are defined because every representable functor maps the endpoints
    of its morphisms; and a slot (m, t) exactly when, further, t is in
    f.term_map[m] and its image u in g.term_map[(h1, fa, fb)], which
    both exist because a representable functor has a term table exactly
    at its morphisms. compose_sf sets term_map[m] exactly when it sets
    mor_map[m], so two equal tuples have the same term-table keys and
    sf_equal finds no witness, no skip, and one checked entry per cell
    that is not absent.

    Where the tuples differ, _one_sided counts sf_equal's triple from
    the differing positions. A cell present on both sides is a key both
    dicts have: sf_equal checks it, and where its two values differ it
    is a witness. A cell present on one side only is a key one dict
    lacks, and sf_equal skips:
    - for an object, its obj_map entry: 1;
    - for a morphism m, its mor_map entry and its term table: 2. Each
      side has a term table exactly at its morphisms, so the table is
      one-sided with m, and sf_equal compares no entry of a table that
      one side lacks: m's slots weigh 0;
    - for a slot (m, t), its entry in m's term table: 1, but only where
      m is present on both sides, for the same reason.
    So where no position has two present cells that differ, the skips
    are these weights summed, ``checked`` is the number of cells present
    on both sides, and there is no witness: sf_equal's triple exactly.
    At the first position with two present cells that differ, the count
    gives up: both sides are built with compose_sf and sf_equal makes
    the witnesses, so they come in its sorted order. The same happens
    where a side is not representable or the sides have different cells.

    The count reads the slots of a morphism present on one side only as
    one run (see _Cells.span), not one by one. In a flat form a present
    slot implies a present morphism: _flatten sets (m, t) only for an m
    it sets, and in a gather G[F[i]] a present slot (m, t) has F present
    at (m, t), so at m, with F's slot a slot of F's image m' of m; G is
    present at that slot, so at m', and the gather is present at m. So
    the side that lacks m lacks each of its slots, and no slot of the
    run is present on both sides: it weighs 0 and is no witness. What it
    adds is one cell missing on the right for each slot present on the
    left, where m is the left's: one count over the run. The remaining
    slots lie under morphisms both sides have or neither has, and the
    latter are absent on both sides. They are compared one stretch
    between two one-sided morphisms at a time, and only a stretch that
    differs is walked, with the rule above.

    The result is memoised on the value numbers of the four sides (see
    _Slices.number; an absent f counts as -1). Completeness: equal
    numbers mean the very same form, cells included, and numbers are
    never reused within a call. By the argument above the dicts of
    compose_sf(g, f) are a function of the forms of g and f (every
    entry is read off the gather, and each cell stands for one value),
    and those of g alone a function of g's form. So sf_equal of the two
    sides, witnesses, skips and checks alike, depends on the four
    numbers only, and a key met again gets the same triple; the
    fallback runs once per distinct key. Sides that are not
    representable have no number and are never memoised.

    A key whose four numbers are kept (see _Slices.kept_numbers: the
    numbers of the call's own functors, and -1) is memoised for the
    whole call; any other key only while its restrictions are, until H
    changes. A kept number is never reused and its form is held until
    the call returns, so by the argument above a result under a kept key
    stays that key's result for the rest of the call, whichever H is
    restricted. A witness-free result is one (skipped, checked) pair,
    held once per call (_Slices.clean) and shared by every key that has
    it.
    """
    if key is None:
        number = slices.number
        key = (
            number(g1),
            -1 if f1 is None else number(f1),
            number(g2),
            -1 if f2 is None else number(f2),
        )
    memo = slices.lasting if slices.kept_numbers.issuperset(key) else slices.diffs
    hit = memo.get(key)
    if hit is None:
        lhs = None if None in key else slices.composite(key[0], key[1])
        rhs = None if lhs is None else slices.composite(key[2], key[3])
        if rhs is not None and lhs[0] is rhs[0] and lhs[1] is rhs[1]:
            hit = _one_sided(lhs, rhs)
        if hit is None:
            left = g1 if f1 is None else compose_sf(g1, f1)
            right = g2 if f2 is None else compose_sf(g2, f2)
            hit = sf_equal(left, right)
        if None not in key:
            if not hit[0]:
                hit = slices.clean.setdefault(hit[1:], hit)
            memo[key] = hit
    return hit


def _one_sided(lhs: _Flat, rhs: _Flat) -> tuple[list[tuple], int, int] | None:
    """sf_equal's triple for two forms over the same cells, or None where
    a cell present on both sides differs (see composites_equal)."""
    src, tgt, L = lhs
    R = rhs[2]
    absent = tgt.absent
    present = len(L) - L.count(absent)
    if L == R:
        return [], 0, present
    nobj, span = len(src.obj), src.span
    skipped = right_absent = 0
    # the slot runs of the morphisms present on one side only, in cell order
    runs = []
    for i in itertools.compress(range(src.k), map(ne, L, R)):
        left_only = R[i] == absent
        if not left_only and L[i] != absent:
            return None
        right_absent += left_only
        if i < nobj:
            skipped += 1
            continue
        skipped += 2
        start, stop = span[i]
        runs.append((start, stop))
        if left_only:
            # the right has none of its slots: each present one on the left
            # is a cell the right lacks, and weighs nothing in the skips
            run = L[start:stop]
            right_absent += len(run) - run.count(absent)
    # the other slots are under a morphism both sides have or neither has
    start = src.k
    runs.append((len(L), len(L)))
    for stop, after in runs:
        l, r = L[start:stop], R[start:stop]
        start = after
        if l == r:
            continue
        for i in itertools.compress(range(len(l)), map(ne, l, r)):
            if r[i] == absent:
                right_absent += 1
            elif l[i] != absent:
                return None
            skipped += 1
    return [], skipped, present - right_absent


def validate_sfunctor(e: ESystem, F: SliceFunctorT, rep: Report, law: str) -> None:
    """Functor-with-term-structure laws for one slice functor.

    Checks and skips are counted here and entered once, at the end.

    The object map and each term table are first tested whole, by set
    containment: the object map's keys in the source slice's objects
    and its values in the target's, a table's keys in T(m[0]) and its
    values in T(F(m)). Completeness: an entry fails exactly when its key
    or its value lies outside the set it is tested against, so a map
    passes the containment tests exactly when no entry fails, and each
    entry ticks once either way. Only a map that fails them is walked
    entry by entry, in sorted order, so the witnesses are those of the
    walk over every entry, in its order.
    """
    cat = e.cat
    T = e.T
    compose = cat.compose.get
    obj_map = F.obj_map
    obj_get, mor_get = obj_map.get, F.mor_map.get
    ticks = len(obj_map)
    skips = 0
    src_objs = set(cat.arrows_into(F.source_apex))
    tgt_objs = set(cat.arrows_into(F.target_apex))
    if not (src_objs.issuperset(obj_map) and tgt_objs.issuperset(obj_map.values())):
        for x, y in sorted(obj_map.items()):
            if x not in src_objs or y not in tgt_objs:
                rep.fail(law, (x, y), "object map endpoints wrong")
    for (h, a, b), h1 in sorted(F.mor_map.items()):
        ticks += 1
        fa, fb = obj_get(a), obj_get(b)
        if fa is None or fb is None:
            skips += 1
            continue
        if compose((fb, h1)) != fa:
            rep.fail(law, (h, a, b), "image does not commute over the apex")
    # identities and composition
    identity = cat.identity.get
    for a in sorted(F.obj_map):
        ticks += 1
        # an entry that is no arrow fails the endpoint check above; no
        # morphism is keyed by a missing identity, and the image's
        # identity is read only once the identity's image exists
        fa = F.obj_map[a]
        if a not in cat.arrows or fa not in cat.arrows:
            skips += 1
            continue
        img = mor_get((identity(cat.dom(a)), a, a))
        want = None if img is None else identity(cat.dom(fa))
        if want is None:
            skips += 1
        elif img != want:
            rep.fail(law, (a,), "identity not preserved")
    mors = sorted(F.mor_map)
    by_source: dict[str, list[SliceMor]] = {}
    for m in mors:
        by_source.setdefault(m[1], []).append(m)
    for m1 in mors:
        h1, a, b = m1
        i1 = mor_get(m1)
        for m2 in by_source.get(b, ()):
            h2, _b, c = m2
            ticks += 1
            hh = compose((h2, h1))
            if hh is None:
                skips += 1
                continue
            lhs = mor_get((hh, a, c))
            rhs = compose((mor_get(m2), i1))
            if rhs is None or lhs is None:
                skips += 1
            elif lhs != rhs:
                rep.fail(law, (h2, h1, a), "composition not preserved")
    # term maps land in the right sets
    walk = []
    for m, tm in F.term_map.items():
        ticks += len(tm)
        img = mor_get(m)
        if img is None or not (T(m[0]).issuperset(tm) and T(img).issuperset(tm.values())):
            walk.append(m)
    for m in sorted(walk):
        img = mor_get(m)
        keys = T(m[0])
        images = T(img) if img is not None else None
        for t, u in sorted(F.term_map[m].items()):
            if t not in keys:
                rep.fail(law, (m, t), "term map key not a term")
            elif images is None or u not in images:
                rep.fail(law, (m, t, u), "term image outside target term set")
    rep.enter(law, ticks, skips, [])


# ---------------------------------------------------------------------------
# the slice-level homomorphism conditions


class _Cells:
    """The cells of the slice over one apex, numbered once: its objects
    (arrows_into), its morphisms (slice_mors), the slots (m, t) for t in
    T(m[0]), and last the absent cell. The first ``k`` cells are the
    objects and morphisms; the slots of each morphism are one run of
    cells, ``span[i]`` = (start, stop) for the morphism cell i, and the
    runs follow each other in the order of the morphisms."""

    __slots__ = ("obj", "mor", "slot", "absent", "k", "span")

    def __init__(self, e: ESystem, apex: str, mors: list[SliceMor]) -> None:
        objs = e.cat.arrows_into(apex)
        self.obj = {x: i for i, x in enumerate(objs)}
        self.mor = {m: i for i, m in enumerate(mors, len(objs))}
        self.slot: dict[SliceMor, dict[str, int]] = {}
        self.span: dict[int, tuple[int, int]] = {}
        start = self.k = len(objs) + len(mors)
        for m, i in self.mor.items():
            self.slot[m] = {t: j for j, t in enumerate(sorted(e.T(m[0])), start)}
            self.span[i] = (start, start + len(self.slot[m]))
            start += len(self.slot[m])
        self.absent = start


# A slice functor in flat form: its source cells, its target cells, and
# the target cell of each source cell.
_Flat = tuple[_Cells, _Cells, tuple[int, ...]]


def _flatten(F: SliceFunctorT, src: _Cells, tgt: _Cells) -> tuple[int, ...] | None:
    """F as one tuple from src's cells to tgt's; cells F leaves undefined
    go to the absent cell. None unless F is representable: every key and
    value is a cell, term_map has exactly mor_map's keys, and each
    morphism's endpoints are in obj_map."""
    obj, terms = F.obj_map, F.term_map
    if terms.keys() != F.mor_map.keys():
        return None
    out = [tgt.absent] * (src.absent + 1)
    try:
        for x, y in obj.items():
            out[src.obj[x]] = tgt.obj[y]
        for m, h1 in F.mor_map.items():
            i = src.mor[m]
            img = (h1, obj[m[1]], obj[m[2]])
            out[i] = tgt.mor[img]
            slots, images = src.slot[m], tgt.slot[img]
            for t, u in terms[m].items():
                out[slots[t]] = images[u]
    except KeyError:
        return None
    return tuple(out)


class _Slices:
    """Slice functors of one call, their flat forms and numbers.

    Holds slice_mors per apex, identity_sf per apex, the restriction
    plan of each slice object P, restrict_sf(H, P) per P for the functor
    H restricted most recently, the cells of each slice, and a value
    number for each distinct flat form of a functor compared (see
    composites_equal), with the results of the comparisons made. The
    slice morphisms, the plans, the identities and the cells read the
    category only.
    validate_esystem, internal_hom_cat and xlate.e_to_ce each make one
    and drop it when they return, so nothing outlives the call and a
    table changed between two calls is read afresh.

    Restrictions are kept for one functor H at a time: validate_esystem
    checks all three conditions of a functor in one walk, and only axiom
    5's one restriction per arrow is computed a second time. When H
    changes, what was made for the old H is dropped: its restrictions,
    their numbers, the forms first numbered through them, and the
    memoised results in ``diffs``. A form first numbered through a
    restriction and then met again as a functor that lives for the call
    (a substitution,
    a weakening, an identity) keeps its number past H. A number is drawn
    from a counter, so it is never given to a second form within the
    call. So what is held at any time is the call's own functors and the
    results of comparing them, plus the restrictions of one H and the
    results of the comparisons made with them since H was first
    restricted.

    A comparison of four sides whose numbers are kept
    (``kept_numbers``) is memoised in ``lasting``, which a change of H
    leaves alone: its numbers are never reused and their forms are held
    until the call returns, and a result depends on the four forms only
    (see composites_equal). A comparison with a scoped side goes to
    ``diffs`` and is dropped with that side's H.

    ``walks`` holds, for each number, the result of the one walk
    _ehom_parts made over the (P, Q) of a functor with that flat form:
    the substitution and weakening families share it (see _ehom_parts).
    """

    def __init__(self, e: ESystem) -> None:
        self.e = e
        self._mors: dict[str, list[SliceMor]] = {}
        self._plans: dict[str, _Plan] = {}
        self._ids: dict[str, SliceFunctorT] = {}
        self._restricted: SliceFunctorT | None = None
        self._restrictions: dict[str, SliceFunctorT | None] = {}
        self._cells: dict[str, _Cells] = {}
        # id(F) -> (F, its number); F is kept, so its id is not reused
        self._numbered: dict[int, tuple[SliceFunctorT, int | None]] = {}
        self._next = itertools.count()
        self._forms: dict[int, _Flat] = {}
        # form -> number: for the functors of the call, and for the forms
        # first met through a restriction of the current H
        self._kept: dict[_Flat, int] = {}
        self._scoped: dict[_Flat, int] = {}
        # the numbers of _kept, and -1 for an absent side
        self.kept_numbers: set[int] = {-1}
        # (g1, f1, g2, f2) numbers -> composites_equal's triple: for the
        # call where all four are in kept_numbers, else for the current H
        self.lasting: dict[tuple[int, int, int, int], tuple[list[tuple], int, int]] = {}
        self.diffs: dict[tuple[int, int, int, int], tuple[list[tuple], int, int]] = {}
        # (skipped, checked) -> the one witness-free triple held for it
        self.clean: dict[tuple[int, int], tuple[list[tuple], int, int]] = {}
        self._families: dict[int, dict] = {}
        # number -> _ehom_walk's result for a functor with that form
        self.walks: dict[int, _Walk] = {}

    def mors(self, apex: str) -> list[SliceMor]:
        """slice_mors(e.cat, apex), once per call."""
        if apex not in self._mors:
            self._mors[apex] = slice_mors(self.e.cat, apex)
        return self._mors[apex]

    def identity(self, apex: str) -> SliceFunctorT:
        if apex not in self._ids:
            self._ids[apex] = identity_sf(self.e, apex, self.mors(apex))
        return self._ids[apex]

    def restrict(self, H: SliceFunctorT, P: str) -> SliceFunctorT | None:
        """H/P, or None where P is not in H.obj_map or H(P) is no arrow,
        so that H/P has no target slice."""
        if H is not self._restricted:
            self._drop_restrictions()
            self._restricted = H
        memo = self._restrictions
        if P not in memo:
            if H.obj_map.get(P) not in self.e.cat.arrows:
                memo[P] = None
            else:
                if P not in self._plans:
                    self._plans[P] = _restriction_plan(self, P)
                memo[P] = _restrict(self.e.cat, self._plans[P], H)
        return memo[P]

    def _drop_restrictions(self) -> None:
        for R in self._restrictions.values():
            self._numbered.pop(id(R), None)
        for n in self._scoped.values():
            del self._forms[n]
        self._restrictions, self._scoped = {}, {}
        self.diffs = {}

    def _cells_of(self, apex: str) -> _Cells:
        if apex not in self._cells:
            self._cells[apex] = _Cells(self.e, apex, self.mors(apex))
        return self._cells[apex]

    def number(self, F: SliceFunctorT) -> int | None:
        """The number of F's flat form, or None where F is not representable."""
        hit = self._numbered.get(id(F))
        if hit is None:
            src, tgt = self._cells_of(F.source_apex), self._cells_of(F.target_apex)
            cells = _flatten(F, src, tgt)
            n = None
            if cells is not None:
                restricted = any(R is F for R in self._restrictions.values())
                n = self._number_form((src, tgt, cells), restricted)
            hit = self._numbered[id(F)] = (F, n)
        return hit[1]

    def _number_form(self, form: _Flat, restricted: bool) -> int:
        n = self._kept.get(form)
        if n is not None:
            return n
        n = self._scoped.pop(form, None)
        if n is None:
            n = next(self._next)
            self._forms[n] = form
        if restricted:
            self._scoped[form] = n
        else:
            self._kept[form] = n
            self.kept_numbers.add(n)
        return n

    def numbered(self, family: dict) -> dict:
        """key -> (F, number(F)) for every F of ``family`` (e.subst or
        e.weak, which live for the call), once per call."""
        out = self._families.get(id(family))
        if out is None:
            out = self._families[id(family)] = {key: (F, self.number(F)) for key, F in family.items()}
        return out

    def composite(self, g: int, f: int) -> _Flat | None:
        """The flat form of g∘f (of g alone when f is -1), or None."""
        G = self._forms[g]
        if f < 0:
            return G
        F = self._forms[f]
        if F[1] is not G[0]:
            return None
        idx = F[2]
        # itemgetter gives a bare value, not a tuple, for a single index
        return F[0], G[1], itemgetter(*idx)(G[2]) if len(idx) > 1 else (G[2][idx[0]],)


# One walk of _ehom_walk: (ticks, skips, witnesses) for each of the
# three conditions, and the skips the three share.
_Walk = tuple[tuple[tuple[int, int, list[tuple[tuple, str]]], ...], int]


def _ehom_parts(slices: _Slices, H: SliceFunctorT, rep: Report, laws: tuple[str, str, str]) -> None:
    """The pre-E-homomorphism conditions for a slice functor H, entered
    under laws[0], laws[1] and laws[2]: H commutes with substitution on
    slices of its source, H commutes with weakening, and H preserves
    identity terms.

    Each condition's checks, skips and witnesses are entered once, at
    the end, in the order of ``laws``, so a law that two conditions
    share (e-axiom-1 for S_x) gets all the witnesses of the earlier one
    before those of the later one, as when each condition had a walk of
    its own.

    The walk (_ehom_walk) runs once per flat-form number of the call
    (_Slices.number), kept in ``slices.walks``; a later functor with the
    same number enters the kept result under its own ``laws``, so one
    walk serves a substitution and a weakening of the same form. A
    functor with no number is walked every time. Completeness: equal
    numbers mean the same flat form, cells included, so the same source
    and target apexes and identical obj_map, mor_map and term_map (see
    composites_equal). The walk reads nothing of H but these: the slice
    objects P and Q come from H's source apex, the restrictions H/P and
    H/(P∘Q), the images H(Q) and the term images come from its maps,
    and the rest from the system's own tables. Every witness is prefixed
    with slice data (P, Q) or (P, Q, y) over that source apex, never
    with the functor's own key (A, x) or A. So the counts, the witnesses
    and their order are those of a walk of the later functor.
    """
    n = slices.number(H)
    walk = slices.walks.get(n)
    if walk is None:
        walk = _ehom_walk(slices, H)
        if n is not None:
            slices.walks[n] = walk
    parts, shared = walk
    for law, (ticks, skips, bad) in zip(laws, parts):
        rep.enter(law, ticks, skips + shared, bad)


def _ehom_walk(slices: _Slices, H: SliceFunctorT) -> _Walk:
    """_ehom_parts's three conditions for H, in one walk over its (P, Q).

    Completeness: each condition is checked at a slice object Q over
    dom(P), for P a slice object over H's source apex, once the
    restriction H/P, the image H(Q) and the restriction H/(P∘Q) exist.
    Where one is missing, the three conditions share the skip: that P,
    or that (P, Q), counts one skip under each law, as a walk per
    condition counts it. Past that, each condition reads only its own
    tables and counts its own checks, skips and witnesses, each
    condition's witnesses in walk order. Comparisons are looked up by
    the numbers of their sides first.
    """
    e = slices.e
    cat = e.cat
    compose, proj = cat.compose, e.proj
    H_mor, H_terms = H.mor_map, H.term_map
    subst = slices.numbered(e.subst)
    weak = slices.numbered(e.weak)
    shared = sub_ticks = sub_skips = weak_ticks = weak_skips = proj_ticks = proj_skips = 0
    sub_bad: list[tuple[tuple, str]] = []
    weak_bad: list[tuple[tuple, str]] = []
    proj_bad: list[tuple[tuple, str]] = []
    for P in cat.arrows_into(H.source_apex):
        HP = slices.restrict(H, P)
        if HP is None:
            shared += 1
            continue
        nHP = slices.number(HP)
        for Q in cat.arrows_into(cat.dom(P)):
            PQ = compose.get((P, Q))
            key = (Q, PQ, P)
            Qimg = None if PQ is None else H_mor.get(key)
            HPQ = None if Qimg is None else slices.restrict(H, PQ)
            if HPQ is None:
                shared += 1
                continue
            nHPQ = slices.number(HPQ)
            # substitution
            images = H_terms.get(key, {})
            for y in sorted(e.T(Q)):
                sub_ticks += 1
                Sy = subst.get((Q, y))
                Syi = subst.get((Qimg, images.get(y)))
                if Sy is None or Syi is None:
                    sub_skips += 1
                    continue
                k = (nHP, Sy[1], Syi[1], nHPQ)
                found, skipped, _ = composites_equal(HP, Sy[0], Syi[0], HPQ, slices, key=k)
                sub_skips += skipped
                for w in found:
                    sub_bad.append(((P, Q, y) + w, ""))
            # weakening
            weak_ticks += 1
            WQ = weak.get(Q)
            Wi = weak.get(Qimg)
            if WQ is None or Wi is None:
                weak_skips += 1
            else:
                k = (Wi[1], nHP, nHPQ, WQ[1])
                found, skipped, _ = composites_equal(Wi[0], HP, HPQ, WQ[0], slices, key=k)
                weak_skips += skipped
                for w in found:
                    weak_bad.append(((P, Q) + w, ""))
            # identity terms
            proj_ticks += 1
            oneQ = proj.get(Q)
            onei = proj.get(Qimg)
            u = None if WQ is None else WQ[0].obj_map.get(Q)
            act = None if u is None else term_action_at(e, HPQ, u)
            if oneQ is None or onei is None or act is None or oneQ not in act:
                proj_skips += 1
            elif act[oneQ] != onei:
                proj_bad.append(((P, Q), f"H(1) = {act[oneQ]!r}, expected {onei!r}"))
    parts = (sub_ticks, sub_skips, sub_bad), (weak_ticks, weak_skips, weak_bad), (proj_ticks, proj_skips, proj_bad)
    return parts, shared


# ---------------------------------------------------------------------------
# validation of E-systems

E_LAWS = (
    "terminal",
    "coverage",
    "subst-functor",
    "subst-system",
    "weak-functor",
    "weak-system",
    "proj-system",
    "e-axiom-1",
    "e-axiom-2",
    "e-axiom-3",
    "e-axiom-4",
    "e-axiom-5",
)


def check_identity_terms(e: ESystem, rep: Report) -> None:
    """proj-system, in part: 1_A lies in T(W_A(A)), skipped where W_A(A) is missing."""
    for A in sorted(e.cat.arrows):
        wa = e.weak.get(A)
        if A not in e.proj or wa is None:
            continue
        rep.tick("proj-system")
        pos = wa.obj_map.get(A)
        if pos is None:
            rep.skip("proj-system")
        elif e.proj[A] not in e.T(pos):
            rep.fail("proj-system", (A,), "identity term outside T(W_A(A))")


def validate_esystem(e: ESystem) -> Report:
    """Check every law of an E-system, reporting each one separately.

    Failures carry witnesses; instances that fall outside the truncation
    are skipped and counted. A missing terminal object is reported as
    absent structure, distinct from any failed equation.

    Each per-functor walk runs once per flat-form number of the call
    (_Slices.number) and is replayed for the later functors with that
    number: validate_sfunctor per (number, law), into a scratch report
    merged into the result; _ehom_parts per number (see there).
    Completeness: equal numbers mean the same apexes and identical
    obj_map, mor_map and term_map, which is all that these walks read of
    a functor, and validate_sfunctor's witnesses name entries of those
    maps only. A functor with no number is walked as it comes. Nothing
    is kept past the call.
    """
    rep = Report()
    rep.merge(validate_fincat(e.cat), prefix="cat:")
    cat = e.cat
    slices = _Slices(e)
    subst, weak = slices.numbered(e.subst), slices.numbered(e.weak)
    for law in E_LAWS:
        rep.law(law)
    # (number, law) -> validate_sfunctor's report on a functor of that form
    sfunctor_parts: dict[tuple[int, str], Report] = {}

    def sfunctor_laws(F: SliceFunctorT, n: int | None, law: str) -> None:
        part = sfunctor_parts.get((n, law))
        if part is None:
            part = Report()
            validate_sfunctor(e, F, part, law)
            if n is not None:
                sfunctor_parts[(n, law)] = part
        rep.merge(part)

    for a in sorted(e.tc.terms):
        rep.tick("terms")
        if a not in cat.arrows:
            rep.fail("terms", (a,), "term set on a non-arrow")

    if cat.terminal is None:
        rep.miss("terminal", "no chosen terminal object")
    else:
        rep.tick("terminal")

    arrows = sorted(cat.arrows)

    # structure coverage and per-functor validity
    for A in arrows:
        for x in sorted(e.T(A)):
            rep.tick("coverage")
            hit = subst.get((A, x))
            if hit is None:
                if cat.partial:
                    rep.skip("coverage")
                else:
                    rep.fail("coverage", (A, x), "missing substitution functor")
                continue
            sx, n = hit
            sfunctor_laws(sx, n, "subst-functor")
            rep.tick("subst-functor")
            ids, idt = cat.identity.get(cat.dom(A)), cat.identity.get(cat.cod(A))
            if ids is None or idt is None:
                rep.skip("subst-functor")
                continue
            if sx.obj_map.get(ids) != idt:
                rep.fail("subst-functor", (A, x), "S_x(id) != id")
        rep.tick("coverage")
        hit = weak.get(A)
        if hit is None:
            if cat.partial:
                rep.skip("coverage")
            else:
                rep.fail("coverage", (A,), "missing weakening functor")
            continue
        wa, n = hit
        sfunctor_laws(wa, n, "weak-functor")
        rep.tick("weak-functor")
        ids, idt = cat.identity.get(cat.cod(A)), cat.identity.get(cat.dom(A))
        if ids is None or idt is None:
            rep.skip("weak-functor")
        elif wa.obj_map.get(ids) != idt:
            rep.fail("weak-functor", (A,), "W_A does not preserve the slice terminal")
        # identity terms live where W_A(A) exists
        rep.tick("coverage")
        if A not in e.proj:
            if wa.obj_map.get(A) is not None and not cat.partial:
                rep.fail("coverage", (A,), "missing identity term")
            else:
                rep.skip("coverage")
    check_identity_terms(e, rep)

    # weakening is functorial in the arrow
    for X in sorted(cat.objects):
        rep.tick("weak-functor")
        wid = e.weak.get(cat.identity.get(X))  # no weakening is keyed by None
        if wid is None:
            rep.skip("weak-functor")
            continue
        diff = composites_equal(wid, None, slices.identity(X), None, slices)
        rep.record("weak-functor", diff, (X,), "W_id != id")
    for A in arrows:
        for P in cat.arrows_into(cat.dom(A)):
            rep.tick("weak-functor")
            AP = cat.compose.get((A, P))
            wa, wp = e.weak.get(A), e.weak.get(P)
            wap = e.weak.get(AP) if AP is not None else None
            if wa is None or wp is None or wap is None:
                rep.skip("weak-functor")
                continue
            diff = composites_equal(wap, None, wp, wa, slices)
            rep.record("weak-functor", diff, (A, P), "W_{A.P} != W_P . W_A")

    # slice-level homomorphism laws
    for (A, x), sx in sorted(e.subst.items()):
        _ehom_parts(slices, sx, rep, ("subst-system", "e-axiom-1", "e-axiom-1"))
    for A, wa in sorted(e.weak.items()):
        _ehom_parts(slices, wa, rep, ("e-axiom-2", "weak-system", "proj-system"))

    # axiom 3: S_x . W_A = id
    for (A, x), sx in sorted(e.subst.items()):
        rep.tick("e-axiom-3")
        wa = e.weak.get(A)
        if wa is None:
            rep.skip("e-axiom-3")
            continue
        diff = composites_equal(sx, wa, slices.identity(cat.cod(A)), None, slices)
        rep.record("e-axiom-3", diff, (A, x))

    # axiom 4: S_x(1_A) = x
    for (A, x), sx in sorted(e.subst.items()):
        rep.tick("e-axiom-4")
        wa = e.weak.get(A)
        one = e.proj.get(A)
        u = wa.obj_map.get(A) if wa is not None else None
        if one is None or u is None:
            rep.skip("e-axiom-4")
            continue
        act = term_action_at(e, sx, u)
        if act is None or one not in act:
            rep.skip("e-axiom-4")
            continue
        if act[one] != x:
            rep.fail("e-axiom-4", (A, x), f"S_x(1_A) = {act[one]!r}")

    # axiom 5: S_{1_A} . (W_A / A) = id on the slice over dom(A)
    for A in arrows:
        rep.tick("e-axiom-5")
        wa = e.weak.get(A)
        one = e.proj.get(A)
        if wa is None or one is None:
            rep.skip("e-axiom-5")
            continue
        u = wa.obj_map.get(A)
        s1 = e.subst.get((u, one)) if u is not None else None
        if s1 is None:
            rep.skip("e-axiom-5")
            continue
        waa = slices.restrict(wa, A)
        if waa is None:
            rep.skip("e-axiom-5")
            continue
        diff = composites_equal(s1, waa, slices.identity(cat.dom(A)), None, slices)
        rep.record("e-axiom-5", diff, (A,))

    if e.levels is not None:
        _check_stratified(e, rep)
    return rep


def _check_stratified(e: ESystem, rep: Report) -> None:
    cat = e.cat
    lv = e.levels
    for x in sorted(cat.objects):
        rep.tick("stratified")
        if x not in lv:
            rep.fail("stratified", (x,), "object has no level")
    if cat.terminal is not None and lv.get(cat.terminal) != 0:
        rep.fail("stratified", (cat.terminal,), "terminal not at level 0")
    for a in sorted(cat.arrows):
        rep.tick("stratified")
        d, c = lv.get(cat.dom(a)), lv.get(cat.cod(a))
        if d is None or c is None:
            rep.skip("stratified")
            continue
        if d < c:
            rep.fail("stratified", (a,), "arrow raises level")
        if d == c and not cat.is_id(a):
            rep.fail("stratified", (a,), "level-preserving non-identity arrow")

    def level(q: str) -> int | None:
        # an object with no level fails above, an entry that is no arrow
        # fails the functor's endpoint check: such instances are skipped
        a = cat.arrows.get(q)
        return None if a is None else lv.get(a.dom)

    def functor_level_ok(F: SliceFunctorT, tag: tuple) -> None:
        off_s = lv.get(F.source_apex)
        off_t = lv.get(F.target_apex)
        skips = 0
        bad = []
        for q, q1 in sorted(F.obj_map.items()):
            d, d1 = level(q), level(q1)
            if d is None or d1 is None or off_s is None or off_t is None:
                skips += 1
            elif d - off_s != d1 - off_t:
                bad.append((tag + (q,), "slice functor not stratified"))
        rep.enter("stratified", len(F.obj_map), skips, bad)
    for (A, x), sx in sorted(e.subst.items()):
        functor_level_ok(sx, ("S", A, x))
    for A, wa in sorted(e.weak.items()):
        functor_level_ok(wa, ("W", A))


# ---------------------------------------------------------------------------
# E-homomorphisms between whole systems


def slice_of_ehom(h: EHom, gamma: str) -> SliceFunctorT:
    """The restriction H/Gamma of a global homomorphism to a slice."""
    cat = h.source.cat
    out = SliceFunctorT(source_apex=gamma, target_apex=h.functor.object_map[gamma])
    for a in cat.arrows_into(gamma):
        img = h.functor.arrow_map.get(a)
        if img is not None:
            out.obj_map[a] = img
    for m in slice_mors(cat, gamma):
        img = h.functor.arrow_map.get(m[0])
        if img is None:
            continue
        out.mor_map[m] = img
        out.term_map[m] = dict(h.term_map.get(m[0], {}))
    return out


def validate_ehom(h: EHom) -> Report:
    """Functor + term structure + substitution/weakening/projection preservation."""
    rep = Report()
    rep.merge(validate_functor(h.functor), prefix="functor:")
    src, tgt = h.source, h.target
    cat, cat2 = src.cat, tgt.cat

    rep.law("terminal")
    if cat.terminal is not None and cat2.terminal is not None:
        rep.tick("terminal")
        if h.functor.object_map.get(cat.terminal) != cat2.terminal:
            rep.fail("terminal", (cat.terminal,), "terminal not preserved")

    for a in sorted(cat.arrows):
        img = h.functor.arrow_map.get(a)
        tm = h.term_map.get(a, {})
        for t in sorted(src.T(a)):
            rep.tick("term-map")
            if t not in tm:
                rep.skip("term-map")
            elif img is None or tm[t] not in tgt.T(img):
                rep.fail("term-map", (a, t), "term image outside target term set")

    for law in ("preserve-sub", "preserve-weak", "preserve-proj"):
        rep.law(law)

    # H/gamma for every gamma with an image; an instance that reads a
    # missing slice or table is skipped
    hom_slices = {gamma: slice_of_ehom(h, gamma) for gamma in h.functor.object_map}
    for gamma in sorted(cat.objects):
        hg = hom_slices.get(gamma)
        for A in cat.arrows_into(gamma):
            Aimg = h.functor.arrow_map.get(A)
            ha = hom_slices.get(cat.dom(A))
            for x in sorted(src.T(A)):
                rep.tick("preserve-sub")
                sx = src.subst.get((A, x))
                sxi = tgt.subst.get((Aimg, h.term_map.get(A, {}).get(x)))
                if hg is None or ha is None or sx is None or sxi is None:
                    rep.skip("preserve-sub")
                    continue
                diff = sf_equal(compose_sf(hg, sx), compose_sf(sxi, ha))
                rep.record("preserve-sub", diff, (gamma, A, x))
            rep.tick("preserve-weak")
            wa = src.weak.get(A)
            wi = tgt.weak.get(Aimg)
            if hg is None or ha is None or wa is None or wi is None:
                rep.skip("preserve-weak")
            else:
                diff = sf_equal(compose_sf(ha, wa), compose_sf(wi, hg))
                rep.record("preserve-weak", diff, (gamma, A))
            rep.tick("preserve-proj")
            one = src.proj.get(A)
            onei = tgt.proj.get(Aimg)
            pos = wa.obj_map.get(A) if wa is not None else None
            if one is None or onei is None or pos is None:
                rep.skip("preserve-proj")
                continue
            img = h.term_map.get(pos, {}).get(one)
            if img is None:
                rep.skip("preserve-proj")
            elif img != onei:
                rep.fail("preserve-proj", (gamma, A), f"H(1_A) = {img!r}")
    return rep


def identity_ehom(e: ESystem) -> EHom:
    return EHom(
        source=e,
        target=e,
        functor=identity_functor(e.cat),
        term_map={a: {t: t for t in e.T(a)} for a in e.cat.arrows},
    )


def compose_ehom(g: EHom, f: EHom) -> EHom:
    term_map: dict[str, dict[str, str]] = {}
    for a, tm in f.term_map.items():
        img = f.functor.arrow_map.get(a)
        gm = g.term_map.get(img, {}) if img is not None else {}
        term_map[a] = {t: gm[u] for t, u in tm.items() if u in gm}
    return EHom(
        source=f.source,
        target=g.target,
        functor=compose_functors(g.functor, f.functor),
        term_map=term_map,
    )


def ehom_equal(f: EHom, g: EHom) -> tuple[list[tuple], int, int]:
    fo, go = f.functor, g.functor
    return diff_tables(
        [(fo.object_map, go.object_map, ("obj",)), (fo.arrow_map, go.arrow_map, ("arrow",))]
        + [
            (f.term_map.get(a, {}), g.term_map.get(a, {}), ("term", a))
            for a in sorted(set(f.term_map) | set(g.term_map))
        ]
    )


# ---------------------------------------------------------------------------
# the derived calculus: pairing, projections, internal morphisms


def term_extension(e: ESystem, A: str, P: str, x: str, u: str) -> str | None:
    """The pairing <x, u> in T(A.P) for x in T(A), u in T(S_x(P)).

    Computed as S_u(S_x(1_{A.P})); None when the identity term of A.P or
    an intermediate position is beyond the truncation.
    """
    sx_one = _substitute_x(e, A, P, x)
    return None if sx_one is None else _substitute_u(e, sx_one, u)


def _substitute_x(e: ESystem, A: str, P: str, x: str) -> tuple[str, str | None, str] | None:
    """The half of term_extension that does not depend on u.

    Returns S_x(1_{A.P}), the slice position (S_x/P)(pos) it sits on, and
    S_x(P); None where S_x(1_{A.P}) is missing.

    S_x/P is read at the two entries used, without restricting the whole
    functor; 1 is the identity of dom(P). Completeness: restrict_sf(e,
    S_x, P) is None exactly when P is not in S_x.obj_map. Its action on
    pos = W_{A.P}(A.P) is its term table at the slice morphism
    (pos, pos, 1). That table exists only where (pos, pos, 1) is in
    slice_mors(dom P) (1 an endomorphism of dom(P), pos an arrow into it,
    1∘pos = pos), P∘pos and P∘1 are defined and S_x.mor_map has
    (pos, P∘pos, P∘1); it is then S_x.term_map at that key (empty where
    that has no table). Those are the cases checked here, so the same
    terms are found and the same ones are missing; (S_x/P)(pos) is read
    by _restricted_at.
    """
    cat = e.cat
    compose = cat.compose
    AP = compose.get((A, P))
    one = e.proj.get(AP)
    wap = e.weak.get(AP)
    pos = None if wap is None else wap.obj_map.get(AP)
    sx = e.subst.get((A, x))
    if one is None or pos is None or sx is None or P not in sx.obj_map:
        return None
    dP = cat.dom(P)
    ident = cat.identity.get(dP)
    over = ident in cat.hom(dP, dP) and pos in cat.arrows_into(dP) and compose.get((ident, pos)) == pos
    key = (pos, compose.get((P, pos)), compose.get((P, ident)))
    act1 = sx.term_map.get(key) if over and key in sx.mor_map else None
    if act1 is None or one not in act1:
        return None
    return act1[one], _restricted_at(cat, sx, P, pos), sx.obj_map[P]


def _substitute_u(e: ESystem, sx_one: tuple[str, str | None, str], u: str) -> str | None:
    """S_u applied to the term _substitute_x returned, or None."""
    t1, pos1, sxP = sx_one
    su = e.subst.get((sxP, u))
    act2 = None if su is None or pos1 is None else term_action_at(e, su, pos1)
    return None if act2 is None else act2.get(t1)


def projections(e: ESystem, A: str, P: str) -> tuple[str, str] | None:
    """(pr1, pr2) for the composite A.P: pr1 = W_P(1_A), pr2 = 1_P; None
    where either is missing."""
    one_p, wa, wp = e.proj.get(P), e.weak.get(A), e.weak.get(P)
    u = None if wa is None else wa.obj_map.get(A)
    act = None if one_p is None or wp is None or u is None else term_action_at(e, wp, u)
    pr1 = None if act is None else act.get(e.proj.get(A))
    return None if pr1 is None else (pr1, one_p)


def subst_term(e: ESystem, w: str, AP: str, pos: str, t: str) -> str | None:
    """t[w]: apply the substitution functor of w (a term of AP) to a term
    t sitting on the slice object ``pos`` over dom(AP); None where that
    is missing."""
    sw = e.subst.get((AP, w))
    act = None if sw is None else term_action_at(e, sw, pos)
    return None if act is None else act.get(t)


def ih_arrow(A: str, B: str, t: str) -> str:
    """The id of the internal morphism t in hom(A, B) = T(W_A(B))."""
    return join_ids("ih", A, B, t)


# No code in bcsys calls internal_hom_cat; xlate.e_to_ce calls _internal_hom
# with its own _Slices. It stays as the public entry point for one
# internal-hom category, which the benchmark traces by name.
def internal_hom_cat(e: ESystem, gamma: str) -> FinCat:
    """The strict category of internal morphisms over ``gamma``.

    Objects are the arrows into gamma; hom(A, B) = T(W_A(B)); composition
    is precomposition. On truncated systems some hom sets or composites
    fall outside the height; the result is marked partial.
    """
    return _internal_hom(e, gamma, _Slices(e))[0]


def _hom_names(e: ESystem, A: str, B: str) -> dict[str, str] | None:
    """t -> ih_arrow(A, B, t) for t in T(W_A(B)); None where hom(A, B) is
    not represented."""
    ts = hom_terms_of(e, A, B)
    return None if ts is None else {t: ih_arrow(A, B, t) for t in ts}


def _ih_terms(e: ESystem, arrows: dict[str, Arrow]) -> dict[str, str]:
    """The inverse of ih_arrow on ``arrows``: name -> t for each arrow
    whose id is ih_arrow(dom, cod, t) with t in T(W_dom(cod)). It makes
    the names of each hom set once, with _hom_names, and decodes no id."""
    inverses: dict[tuple[str, str], dict[str, str]] = {}
    out: dict[str, str] = {}
    for name, arr in arrows.items():
        inverse = inverses.get((arr.dom, arr.cod))
        if inverse is None:
            row = _hom_names(e, arr.dom, arr.cod) or {}
            inverse = inverses[(arr.dom, arr.cod)] = {n: t for t, n in row.items()}
        t = inverse.get(name)
        if t is not None:
            out[name] = t
    return out


def _internal_hom(
    e: ESystem, gamma: str, slices: _Slices
) -> tuple[FinCat, dict[tuple[str, str], dict[str, str]]]:
    """internal_hom_cat(e, gamma) and its names: names[A, B] is
    _hom_names(e, A, B) for each represented hom set, in the order of the
    arrows. So a caller reads an arrow's term from the names and decodes
    no id. ``slices`` is the caller's: the restrictions read its slice
    morphisms and plans.

    The composite g∘f of f in hom(A, B) and g in hom(B, C) is f*(g), the
    action of f* = S_f ∘ (W_A/B) on the terms of
    u = W_B(C). It is read from the tables of S_f and W_A/B without
    building f*. Completeness: term_action_at(compose_sf(S_f, W_A/B), u)
    is f*'s term table at k = (u, u, 1_{dom B}), and None when that
    identity is missing. compose_sf sets that table exactly when
    W_A/B.mor_map[k] = h1, fa = W_A/B.obj_map[u], fb =
    W_A/B.obj_map[1_{dom B}] and S_f.mor_map[(h1, fa, fb)] are all
    defined, and then it maps t to t2[t1[t]] over the t with t1[t] in t2,
    where t1 = W_A/B.term_map.get(k, {}) and t2 = S_f.term_map.get((h1,
    fa, fb), {}). Those are the lookups made here. Only the last two
    depend on f, so the rest is read once per (A, B, C). W_A/B depends
    only on (A, B), so it is restricted once, at the first f whose S_f
    exists, since f* needs S_f before W_A/B is read; an f without S_f is
    partial, as f* is missing there. The restriction
    is never None here: it is only where B is not in W_A.obj_map, and
    then hom(A, B) is not represented. Each composite is looked up
    in the names of its hom set, so it is kept exactly when its arrow
    exists.
    """
    cat = e.cat
    objs = cat.arrows_into(gamma)
    arrows: dict[str, Arrow] = {}
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    partial = False
    names: dict[tuple[str, str], dict[str, str]] = {}

    for A in objs:
        for B in objs:
            row = _hom_names(e, A, B)
            if row is None:
                partial = True
                continue
            names[(A, B)] = row
            for name in row.values():
                arrows[name] = Arrow(name, A, B)
    for A in objs:
        name = names.get((A, A), {}).get(e.proj.get(A))
        if name is None:
            partial = True
            continue
        identity[A] = name
    for (A, B), hom_ab in names.items():
        Bp = e.weak[A].obj_map[B]
        reads = None
        for f, f_name in hom_ab.items():
            sf = e.subst.get((Bp, f))
            if sf is None:
                partial = True
                continue
            if reads is None:
                reads = _precompose_reads(e, A, B, objs, names, slices)
            for hom_bc, hom_ac, key1, t1 in reads:
                h2 = sf.mor_map.get(key1) if key1 is not None else None
                if h2 is None:
                    if hom_bc:
                        partial = True
                    continue
                t2 = sf.term_map.get(key1, {})
                for g, g_name in hom_bc.items():
                    gf_name = hom_ac.get(t2.get(t1.get(g)))
                    if gf_name is None:
                        partial = True
                        continue
                    compose[(g_name, f_name)] = gf_name
    return FinCat(
        objects=frozenset(objs),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=cat.identity.get(gamma),
        partial=partial,
    ), names


def _precompose_reads(
    e: ESystem,
    A: str,
    B: str,
    objs: list[str],
    names: dict[tuple[str, str], dict[str, str]],
    slices: _Slices,
) -> list[tuple[dict[str, str], dict[str, str], SliceMor | None, dict[str, str]]]:
    """What internal_hom_cat reads of W_A/B, for each C with hom(B, C)
    represented: the names of hom(B, C) and of hom(A, C) (empty if not
    represented), the key (h1, fa, fb) at which S_f is read, and W_A/B's
    term table t1 at k = (u, u, 1_{dom B}) for u = W_B(C). The key is None
    where f*'s term table at u is undefined whatever f is.
    """
    cat = e.cat
    wab = slices.restrict(e.weak[A], B)
    wb = e.weak.get(B)
    one = cat.identity.get(cat.dom(B))
    fb = wab.obj_map.get(one) if one is not None else None
    reads = []
    for C in objs:
        hom_bc = names.get((B, C))
        if hom_bc is None:
            continue
        u = wb.obj_map[C]
        key1 = None
        t1 = {}
        if u and fb is not None:
            k = (u, u, one)
            h1, fa = wab.mor_map.get(k), wab.obj_map.get(u)
            if h1 is not None and fa is not None:
                key1 = (h1, fa, fb)
                t1 = wab.term_map.get(k, {})
        reads.append((hom_bc, names.get((A, C), {}), key1, t1))
    return reads


def hom_terms_of(e: ESystem, A: str, B: str) -> frozenset[str] | None:
    """T(W_A(B)), the internal morphisms A -> B over cod(A), if represented."""
    wa = e.weak.get(A)
    if wa is None:
        return None
    pos = wa.obj_map.get(B)
    if pos is None:
        return None
    return e.T(pos)


def vertical_compose(e: ESystem, A: str, B: str, f: str, P: str, Q: str, F: str) -> str | None:
    """f.F : A.P -> B.Q, the pairing <W_P(f), F> over an internal morphism f.

    f is in hom(A, B) = T(W_A(B)); F is in hom_f(P, Q) = T(W_P(f*(Q))).
    None where an entry it reads is beyond the truncation. P-bar =
    (W_{A.P}/B)(Q) is read by _restricted_at.
    """
    wa, wp = e.weak.get(A), e.weak.get(P)
    WAB = None if wa is None or wp is None else wa.obj_map.get(B)
    act = None if WAB is None else term_action_at(e, wp, WAB)
    if act is None or f not in act:
        return None
    x = act[f]  # in T(W_P(W_A(B))) = T(W_{A.P}(B))
    Abar = wp.obj_map.get(WAB)
    if Abar is None:
        return None
    # P-bar: the slice position whose substitution by x is f*(Q)
    wap = e.weak.get(e.cat.compose.get((A, P)))
    Pbar = None if wap is None else _restricted_at(e.cat, wap, B, Q)
    return None if Pbar is None else term_extension(e, Abar, Pbar, x, F)


def _pairing_map(
    e: ESystem, A: str, P: str, rows: list[tuple[str, list[str]]]
) -> dict[tuple[str, str], str] | None:
    """(x, u) -> <x, u> for x and each u of ``rows``, or None at the first
    pairing that is missing. The x half of term_extension is computed
    once per x."""
    image = {}
    for x, us in rows:
        if us:
            sx_one = _substitute_x(e, A, P, x)
            if sx_one is None:
                return None
            for u in us:
                w = _substitute_u(e, sx_one, u)
                if w is None:
                    return None
                image[(x, u)] = w
    return image


def check_pairing(e: ESystem) -> Report:
    """Instance-wise verification of the pairing bijection.

    For every composable pair (A, P): counts |sum_x T(x[P])| against
    |T(A.P)| (always checkable), and where the identity term of A.P is
    represented, computes the pairing map, verifies bijectivity, and
    inverts it through the two projections.
    """
    rep = Report()
    cat = e.cat
    rep.law("pairing-count")
    rep.law("pairing-bijective")
    rep.law("pairing-inverse")
    rep.law("terminal-terms")
    for gamma in sorted(cat.objects):
        for A in cat.arrows_into(gamma):
            for P in cat.arrows_into(cat.dom(A)):
                AP = cat.compose.get((A, P))
                if AP is None:
                    rep.skip("pairing-count")
                    continue
                rep.tick("pairing-count")
                total = 0
                defined = True
                rows: list[tuple[str, list[str]]] = []
                for x in sorted(e.T(A)):
                    sx = e.subst.get((A, x))
                    xP = sx.obj_map.get(P) if sx is not None else None
                    if xP is None:
                        defined = False
                        break
                    rows.append((x, sorted(e.T(xP))))
                    total += len(e.T(xP))
                if not defined:
                    rep.skip("pairing-count")
                    continue
                if total != len(e.T(AP)):
                    rep.fail(
                        "pairing-count",
                        (A, P),
                        f"sum = {total}, |T(A.P)| = {len(e.T(AP))}",
                    )
                    continue
                # the actual map, where the identity term exists
                rep.tick("pairing-bijective")
                image = _pairing_map(e, A, P, rows)
                if image is None:
                    rep.skip("pairing-bijective")
                    continue
                if sorted(image.values()) != sorted(e.T(AP)):
                    rep.fail("pairing-bijective", (A, P), f"image = {sorted(set(image.values()))}")
                    continue
                # the inverse, up to the first term that is missing
                rep.tick("pairing-inverse")
                prs = projections(e, A, P)
                if prs is None:
                    rep.skip("pairing-inverse")
                    continue
                pr1, pr2 = prs
                wp = e.weak[P]
                posWA = wp.obj_map.get(e.weak[A].obj_map[A])  # W_{A.P}(A), where pr1 sits
                posP = wp.obj_map.get(P)  # W_P(P), where pr2 sits
                for (x, u), w in image.items():
                    back1 = subst_term(e, w, AP, posWA, pr1)
                    back2 = None if back1 is None else subst_term(e, w, AP, posP, pr2)
                    if back2 is None:
                        rep.skip("pairing-inverse")
                        break
                    if back1 != x or back2 != u:
                        rep.fail("pairing-inverse", (A, P, x, u), f"got {(back1, back2)!r}")
    for gamma in sorted(cat.objects):
        rep.tick("terminal-terms")
        ida = cat.identity.get(gamma)
        if ida is None:
            rep.skip("terminal-terms")
            continue
        if len(e.T(ida)) != 1:
            rep.fail("terminal-terms", (gamma,), f"|T(id)| = {len(e.T(ida))}")
    return rep


# ---------------------------------------------------------------------------
# builders: the (N, >=) system and the group-shaped negative example


def nat_arrow(m: int, n: int) -> str:
    return f"{m}>={n}"


def fn_term(values: tuple[int, ...]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def nat_poset_cat(height: int) -> FinCat:
    arrows = {}
    identity = {}
    compose = {}
    for m in range(height + 1):
        for n in range(m + 1):
            a = nat_arrow(m, n)
            arrows[a] = Arrow(a, str(m), str(n))
        identity[str(m)] = nat_arrow(m, m)
    for m in range(height + 1):
        for n in range(m + 1):
            for p in range(n + 1):
                compose[(nat_arrow(n, p), nat_arrow(m, n))] = nat_arrow(m, p)
    return FinCat(
        objects=frozenset(str(k) for k in range(height + 1)),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal="0",
    )


def build_nat_esystem(height: int) -> ESystem:
    """The E-system on (N, >=) with T(n+k >= n) the functions [k] -> [n].

    Substitution by f postcomposes with [id, f] + id, weakening with the
    initial-segment inclusion, and identity terms are the final-segment
    inclusions. Stratified by the identity on levels.

    Each name and term is made once per call: ``ar[m][n]`` names the
    arrow m >= n, ``fmt`` formats each function once and ``parsed`` is
    its inverse, so every table shares one string per term. A functor
    postcomposes through an index list: [0..n) + f + [n..) for S_f and
    [0..n) + [n+k..) for W_A.

    Each term table is built once per (h, post[:b]) for h = a >= b: a
    term of h is a function [a - b] -> [b], so the table reads only that
    prefix of the index list, and the category is not changed during the
    call. The first functor to use a table keeps it and every later one
    gets a copy, so no two functors share a dict.
    """
    cat = nat_poset_cat(height)
    ar = [[nat_arrow(m, n) for n in range(m + 1)] for m in range(height + 1)]
    ends = {ar[m][n]: (m, n) for m in range(height + 1) for n in range(m + 1)}
    fmt: dict[tuple[int, ...], str] = {}
    terms: dict[str, frozenset[str]] = {}
    for m in range(height + 1):
        for n in range(m + 1):
            fs = []
            for v in itertools.product(range(n), repeat=m - n):
                t = fmt.get(v)
                if t is None:
                    t = fmt[v] = fn_term(v)
                fs.append(t)
            terms[ar[m][n]] = frozenset(fs)
    parsed = {t: v for v, t in fmt.items()}
    e = ESystem(tc=TermCat(cat=cat, terms=terms), levels={str(n): n for n in range(height + 1)})
    mors = [slice_mors(cat, str(m)) for m in range(height + 1)]

    tables: dict[tuple, dict[str, str]] = {}

    def term_table(post: list[int], h: str) -> dict[str, str]:
        key = (h, *post[: ends[h][1]])
        table = tables.get(key)
        if table is not None:
            return table.copy()
        at = post.__getitem__
        table = tables[key] = {t: fmt[tuple(map(at, parsed[t]))] for t in terms[h]}
        return table

    for m in range(height + 1):
        for n in range(m + 1):
            k = m - n
            A = ar[m][n]
            # weakening W_A : slice over n -> slice over m, objects +k
            post = list(range(n)) + list(range(n + k, height))
            wa = SliceFunctorT(source_apex=str(n), target_apex=str(m))
            for a in range(n, height + 1 - k):
                wa.obj_map[ar[a][n]] = ar[a + k][m]
            for key in mors[n]:
                a, b = ends[key[0]]
                if a + k > height:
                    continue
                wa.mor_map[key] = ar[a + k][b + k]
                wa.term_map[key] = term_table(post, key[0])
            e.weak[A] = wa
            # substitution S_f : slice over m -> slice over n, objects -k
            obj_map = {ar[a][m]: ar[a - k][n] for a in range(m, height + 1)}
            mor_map = {}
            for key in mors[m]:
                a, b = ends[key[0]]
                mor_map[key] = ar[a - k][b - k]
            for t in terms[A]:
                post = list(range(n)) + list(parsed[t]) + list(range(n, height - k))
                sf = SliceFunctorT(
                    source_apex=str(m),
                    target_apex=str(n),
                    obj_map=dict(obj_map),
                    mor_map=dict(mor_map),
                )
                for key in mors[m]:
                    sf.term_map[key] = term_table(post, key[0])
                e.subst[(A, t)] = sf
            if m + k <= height:
                e.proj[A] = fmt[tuple(range(n, m))]
    return e


def build_group_structure(
    elements: list[str], mult: dict[tuple[str, str], str], unit: str
) -> ESystem:
    """The group-shaped partial E-system: one object, arrows the elements.

    T(g) is the automorphism set; substitution acts by the automorphism,
    weakening by conjugation, identity terms are the identity automorphism.
    No terminal object is claimed; with a nontrivial group the three
    identity-term axioms fail while the system laws hold.
    """
    for a in elements:
        for b in elements:
            for c in elements:
                if mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]:
                    raise ValueError("multiplication table is not associative")
    obj = "*"
    arrows = {g: Arrow(g, obj, obj) for g in elements}
    compose = {(g, h): mult[(g, h)] for g in elements for h in elements}
    cat = FinCat(
        objects=frozenset({obj}),
        arrows=arrows,
        identity={obj: unit},
        compose=compose,
        terminal=None,
    )
    # automorphisms by brute force
    auts: list[dict[str, str]] = []
    for perm in itertools.permutations(elements):
        phi = dict(zip(elements, perm))
        if phi[unit] != unit:
            continue
        if all(phi[mult[(a, b)]] == mult[(phi[a], phi[b])] for a in elements for b in elements):
            auts.append(phi)

    def aut_id(phi: dict[str, str]) -> str:
        return "aut(" + ",".join(f"{g}>{phi[g]}" for g in sorted(phi)) + ")"

    by_id = {aut_id(phi): phi for phi in auts}
    terms = {g: frozenset(by_id) for g in elements}
    e = ESystem(tc=TermCat(cat=cat, terms=terms))

    def aut_compose(p1: dict[str, str], p2: dict[str, str]) -> dict[str, str]:
        return {g: p1[p2[g]] for g in p1}

    def aut_inv(p: dict[str, str]) -> dict[str, str]:
        return {v: k for k, v in p.items()}

    def conj_table(p: dict[str, str]) -> dict[str, str]:
        # conjugation by p, on every term
        inv = aut_inv(p)
        return {aid: aut_id(aut_compose(aut_compose(p, y), inv)) for aid, y in by_id.items()}

    mors = slice_mors(cat, obj)

    def mk_sf(p: dict[str, str], table: dict[str, str]) -> SliceFunctorT:
        # acts on elements by p and on terms by ``table``, conjugation by
        # p; every slice morphism gets its own copy of the table
        sf = SliceFunctorT(source_apex=obj, target_apex=obj, obj_map={g: p[g] for g in elements})
        for m in mors:
            sf.mor_map[m] = p[m[0]]
            sf.term_map[m] = dict(table)
        return sf

    # S_x is the same functor for every g, so its table is made once
    subst_tables = {aid: conj_table(x) for aid, x in by_id.items()}
    unit_term = aut_id({h: h for h in elements})
    for g in elements:
        # weakening conjugates by the inverse so that W_{A.P} = W_P . W_A
        # under the composite-after convention of the composition table
        gi = _ginv(g, elements, mult, unit)
        phi_g = {h: mult[(mult[(gi, h)], g)] for h in elements}
        e.weak[g] = mk_sf(phi_g, conj_table(phi_g))
        e.proj[g] = unit_term
        for aid, x in by_id.items():
            e.subst[(g, aid)] = mk_sf(x, subst_tables[aid])
    return e


def _ginv(g: str, elements: list[str], mult: dict[tuple[str, str], str], unit: str) -> str:
    for h in elements:
        if mult[(g, h)] == unit:
            return h
    raise ValueError(f"no inverse for {g!r}")


def s3_table() -> tuple[list[str], dict[tuple[str, str], str], str]:
    """The symmetric group on three letters as a multiplication table."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "p" + "".join(str(i) for i in p) for p in perms}
    elements = [name[p] for p in perms]
    mult = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))
            mult[(name[p], name[q])] = name[pq]
    return elements, mult, name[(0, 1, 2)]
