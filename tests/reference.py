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
``esys.validate_sfunctor`` and one condition of ``esys._ehom_parts`` as
they were before they counted checks and skips in locals, looked
comparisons up by the numbers of their sides and checked the three
conditions in one walk: every instance is ticked and skipped on the
report as it is met, every composition pair of a slice functor is found
by a scan of all its morphisms, and every comparison builds both sides
with ``compose_sf`` and restricts with ``restrict_sf_reference``. They
skip an object-map entry that is no arrow where ``esys`` does: the
identity check skips it (the endpoint check fails it), and a
restriction at P whose image F(P) is no arrow raises Truncated, which
counts as a skip, as ``restrict_sf`` returns None there.

``validate_esystem_reference`` is ``esys.validate_esystem`` as it was
before each per-functor walk ran once per flat-form number: every
substitution and weakening gets its own ``validate_sfunctor``,
``_ehom_walk`` and stratification walk, entered on the report as it is
met.

``one_sided_reference`` is ``esys._one_sided`` as it was before it
skipped the term slots of a morphism present on one side only: it walks
every differing position of the two flat forms, slots included, and
weighs each by the morphism it belongs to (``cell_owners``).

``unit_ehom_reference`` builds the unit the way ``xlate.unit_ehom`` used
to: one whole restriction W_{!Γ}/!Γ per arrow A into Γ, to read the
position of A.

``ce_to_e_reference`` (with ``pullback_sfunctor_reference``) is
``xlate.ce_to_e`` as it was before it enumerated each family slice once
per call: every pullback functor enumerates the slice over its apex
afresh.

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
base arrow id with it. ``cehom_of_ehom_reference`` also splits every
triangle id of its source's families, which ``cehom_of_ehom`` now reads
as triples from ``slice_mors``.

``check_pairing_reference`` is ``esys.check_pairing`` as it was while
the pairing calculus raised Truncated: a handler around the pairing map
skips the instance at the first missing pairing, and one around the
inverse skips it at the first missing projection or substitution.

``precompose`` is the reference construction of f* = S_f ∘ (W_A/B),
built whole with ``compose_sf`` and ``restrict_sf``; nothing in bcsys
builds f*, so it lives here, and the tests of the derived calculus use
it too. It and the derived calculus of ``esys`` (``restrict_sf``,
``term_extension`` and the pairing helpers) return None where an entry
is missing. These references call it through ``_raising`` shims that
raise Truncated there instead, so each body keeps the control flow it
had.

``e_to_b_reference`` (with ``bhom_of_sfunctor_reference``),
``e2b_of_ehom_reference`` and ``casce_comp_reference`` are
``xlate.e_to_b``, ``xlate.e2b_of_ehom`` and the comp part of
``xlate._casce_iso`` as they were while they parsed ids or searched
again for what the structures hold: ``e_to_b`` found each object's
arrow one level down by a scan of the arrows out of it, where it had
kept that arrow already; ``e2b_of_ehom`` unpacked every frame element
and found the individual arrow once per element; and comp read k from
the text of ``p|Γ|k`` and found the individual arrow once per step.

``adjunction_witnesses_reference`` is ``xlate.adjunction_witnesses`` as
it was when it took an E-system and a CE-system apart and every witness
translated its own input: the unit and each counit build their images
afresh, and so do both triangles, 5 ``ce_to_e`` and 5 ``e_to_ce`` in
all. Called with ``(ce_to_e(a), a)``, as the command line does, it gives
the report of ``adjunction_witnesses(a)``.

The last four are the example builders as they were before each made
every name, term and expression once per call.
``build_nat_esystem_reference`` parses and formats a term wherever a
table uses it, ``build_group_structure_reference`` computes the term
table of every slice morphism afresh, ``build_finset_cesystem_reference``
takes its base from ``helpers.finsets_op_cat`` (the same loops as the
old ``cesys.finsets_op_cat``, one name formatted per composite) and
parses every base arrow name, and ``build_syntactic_bframe_reference``
acts on and keys every expression where an entry of a lift uses it.

``load_structure_reference`` is ``serialize.load_structure`` as it was
before orjson read documents: ``json.loads``, then the loaders, with the
version compared by ``!=``.

``validate_bsystem_reference`` and ``validate_bsystem_hom_reference`` are
``bsys.validate_bsystem`` and ``bsys.validate_bsystem_hom`` as they were
while ``check_preservation_reference`` took the systems of both slices:
axioms 1 and 2 build each slice's system twice per row with
``slice_system_reference``, re-keying the ambient entries over its base.
They check frame homs with ``validate_bframe_hom_reference``.

``validate_functor_reference`` is ``core.validate_functor`` as it was
before it tested each law on whole maps, and
``validate_bframe_hom_reference`` is ``bsys.validate_bframe_hom`` as it
was before it tallied each law in locals: every entry is looked up, and
ticked and skipped on the report, as it is met in sorted order.
``check_preservation_per_square_reference`` is ``bsys.check_preservation``
as it was before it made each restriction once per call: every square
restricts the hom afresh. ``validate_bsystem_hom_per_square_reference``
puts the last two together as ``bsys.validate_bsystem_hom`` does.

Tests compare the fast code against them, result for result.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import replace

from bcsys.bsys import (
    BFrame,
    BFrameHom,
    BSystem,
    bhom_eq,
    bhom_identity,
    compose_bhom,
    restrict_bhom,
    slice_bframe,
    _maps_into,
    validate_bframe,
)
from bcsys.cesys import CEHom, CESystem, fn_arrow, validate_ce_hom
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
    stratify,
    triangle_id,
    validate_fincat,
)
from bcsys.csys import CSystem
from bcsys.esys import (
    E_LAWS,
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    _ehom_walk,
    _ginv,
    _Slices,
    _substitute_u,
    _substitute_x,
    compose_ehom,
    compose_sf,
    ehom_equal,
    fn_term,
    hom_terms_of,
    identity_ehom,
    check_identity_terms,
    composites_equal,
    ih_arrow,
    nat_arrow,
    nat_poset_cat,
    projections,
    restrict_sf,
    sf_equal,
    subst_term,
    term_action_at,
    term_extension,
    validate_ehom,
    validate_sfunctor,
)
from bcsys.report import Report, Truncated
from bcsys.serialize import _LOADERS, VERSION, LoadError
from bcsys.syntax import BindingSignature, RawExpr, _tele_id, enumerate_raw, shift, subst
from bcsys.xlate import (
    _pulled_section,
    _section_terms,
    _tree_of_frame,
    _unique_arrow,
    ce2e_of_cehom,
    ce_to_e,
    cehom_equal,
    cehom_of_ehom,
    compose_cehom,
    e_to_ce,
    identity_cehom,
    invert_ehom,
    proj_path,
)

from helpers import (
    counit_of,
    finsets_op_cat,
    parse_fn_arrow,
    parse_fn_term,
    parse_path_id,
    split_ids,
    unit_of,
    unpack_ids,
)


def precompose(e: ESystem, A: str, B: str, f: str) -> SliceFunctorT | None:
    """f* = S_f . (W_A/B) for an internal morphism f in T(W_A(B)); None
    where W_A(B) or S_f is missing."""
    wa = e.weak.get(A)
    sf = None if wa is None else e.subst.get((wa.obj_map.get(B), f))
    return None if sf is None else compose_sf(sf, restrict_sf(e, wa, B))


def _raising(fn):
    """fn, raising Truncated naming fn where it returns None. The derived
    calculus of esys returns None for a missing entry; the references
    were written when it raised, and call it through these."""

    def call(*args):
        out = fn(*args)
        if out is None:
            raise Truncated(fn.__name__)
        return out

    return call


precompose_raising = _raising(precompose)
restrict_sf_raising = _raising(restrict_sf)
term_extension_raising = _raising(term_extension)
_substitute_x_raising = _raising(_substitute_x)
_substitute_u_raising = _raising(_substitute_u)
projections_raising = _raising(projections)
subst_term_raising = _raising(subst_term)


def validate_units_reference(c: FinCat) -> Report:
    """validate_units with one tick and one skip per instance."""
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


def validate_fincat_reference(c: FinCat) -> Report:
    """validate_fincat by a loop over all sorted (g, f) and (h, g, f)."""
    rep = validate_units_reference(c)
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


def check_pullback_composites_reference(
    cat: FinCat, pb: dict[tuple[str, str], tuple[str, str]], rep: Report, law: str
) -> None:
    """check_pullback_composites by a loop over every g into dom(f) of
    every entry, one tick and one skip per instance."""
    compose = cat.compose
    for (f, X), (Y, q) in sorted(pb.items()):
        for g in cat.arrows_into(cat.dom(f)):
            rep.tick(law)
            lhs = pb.get((compose.get((f, g)), X))
            inner = pb.get((g, Y))
            expect = None if inner is None else (inner[0], compose.get((q, inner[1])))
            if lhs is None or expect is None or expect[1] is None:
                rep.skip(law)
            elif lhs != expect:
                rep.fail(law, (f, g, X), f"{lhs!r} != {expect!r}")


def restrict_sf_reference(e: ESystem, F: SliceFunctorT, P: str) -> SliceFunctorT:
    """F/P: the functor induced between slices over dom(P) and dom(F(P))."""
    cat = e.cat
    if P not in F.obj_map:
        raise Truncated(f"restrict: {P!r} not in obj_map")
    if F.obj_map[P] not in cat.arrows:
        raise Truncated(f"restrict: F({P!r}) is no arrow")
    out = SliceFunctorT(
        source_apex=cat.dom(P), target_apex=cat.dom(F.obj_map[P])
    )
    for q in cat.arrows_into(cat.dom(P)):
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
    src_objs = set(cat.arrows_into(F.source_apex))
    tgt_objs = set(cat.arrows_into(F.target_apex))
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
        if a not in cat.arrows or F.obj_map[a] not in cat.arrows:
            rep.skip(law)  # the endpoint check above fails it
            continue
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
    for P in cat.arrows_into(H.source_apex):
        try:
            HP = restrict_sf_reference(e, H, P)
        except Truncated:
            rep.skip(law)
            continue
        for Q in cat.arrows_into(cat.dom(P)):
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
                    diff = sf_equal(compose_sf(HP, Sy), compose_sf(Syi, HPQ))
                    rep.record(law, diff, (P, Q, y))
            elif part == "weak":
                rep.tick(law)
                WQ, Wi = e.weak.get(Q), e.weak.get(Qimg)
                if WQ is None or Wi is None:
                    rep.skip(law)
                    continue
                rep.record(law, sf_equal(compose_sf(Wi, HP), compose_sf(HPQ, WQ)), (P, Q))
            else:
                rep.tick(law)
                oneQ, onei, WQ = e.proj.get(Q), e.proj.get(Qimg), e.weak.get(Q)
                u = WQ.obj_map.get(Q) if WQ is not None else None
                act = term_action_at(e, HPQ, u) if u is not None else None
                if oneQ is None or onei is None or act is None or oneQ not in act:
                    rep.skip(law)
                elif act[oneQ] != onei:
                    rep.fail(law, (P, Q), f"H(1) = {act[oneQ]!r}, expected {onei!r}")


def validate_esystem_reference(e: ESystem) -> Report:
    """Check every law of an E-system, reporting each one separately."""
    rep = Report()
    rep.merge(validate_fincat(e.cat), prefix="cat:")
    cat = e.cat
    slices = _Slices(e)
    for law in E_LAWS:
        rep.law(law)

    for a in sorted(e.tc.terms):
        rep.tick("terms")
        if a not in cat.arrows:
            rep.fail("terms", (a,), "term set on a non-arrow")

    if cat.terminal is None:
        rep.miss("terminal", "no chosen terminal object")
    else:
        rep.tick("terminal")

    arrows = sorted(cat.arrows)

    for A in arrows:
        for x in sorted(e.T(A)):
            rep.tick("coverage")
            sx = e.subst.get((A, x))
            if sx is None:
                if cat.partial:
                    rep.skip("coverage")
                else:
                    rep.fail("coverage", (A, x), "missing substitution functor")
                continue
            validate_sfunctor(e, sx, rep, "subst-functor")
            rep.tick("subst-functor")
            ids, idt = cat.identity.get(cat.dom(A)), cat.identity.get(cat.cod(A))
            if ids is None or idt is None:
                rep.skip("subst-functor")
                continue
            if sx.obj_map.get(ids) != idt:
                rep.fail("subst-functor", (A, x), "S_x(id) != id")
        rep.tick("coverage")
        wa = e.weak.get(A)
        if wa is None:
            if cat.partial:
                rep.skip("coverage")
            else:
                rep.fail("coverage", (A,), "missing weakening functor")
            continue
        validate_sfunctor(e, wa, rep, "weak-functor")
        rep.tick("weak-functor")
        ids, idt = cat.identity.get(cat.cod(A)), cat.identity.get(cat.dom(A))
        if ids is None or idt is None:
            rep.skip("weak-functor")
        elif wa.obj_map.get(ids) != idt:
            rep.fail("weak-functor", (A,), "W_A does not preserve the slice terminal")
        rep.tick("coverage")
        if A not in e.proj:
            if wa.obj_map.get(A) is not None and not cat.partial:
                rep.fail("coverage", (A,), "missing identity term")
            else:
                rep.skip("coverage")
    check_identity_terms(e, rep)

    for X in sorted(cat.objects):
        rep.tick("weak-functor")
        wid = e.weak.get(cat.identity.get(X))
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

    def ehom_parts(H: SliceFunctorT, laws: tuple[str, str, str]) -> None:
        parts, shared = _ehom_walk(slices, H)
        for law, (ticks, skips, bad) in zip(laws, parts):
            if ticks or skips or shared:
                rep.tick(law, ticks)
                rep.skip(law, skips + shared)
            for w, detail in bad:
                rep.fail(law, w, detail)

    for (A, x), sx in sorted(e.subst.items()):
        ehom_parts(sx, ("subst-system", "e-axiom-1", "e-axiom-1"))
    for A, wa in sorted(e.weak.items()):
        ehom_parts(wa, ("e-axiom-2", "weak-system", "proj-system"))

    for (A, x), sx in sorted(e.subst.items()):
        rep.tick("e-axiom-3")
        wa = e.weak.get(A)
        if wa is None:
            rep.skip("e-axiom-3")
            continue
        diff = composites_equal(sx, wa, slices.identity(cat.cod(A)), None, slices)
        rep.record("e-axiom-3", diff, (A, x))

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
        _check_stratified_reference(e, rep)
    return rep


def _check_stratified_reference(e: ESystem, rep: Report) -> None:
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
        a = cat.arrows.get(q)
        return None if a is None else lv.get(a.dom)

    def functor_level_ok(F: SliceFunctorT, tag: tuple) -> None:
        off_s = lv.get(F.source_apex)
        off_t = lv.get(F.target_apex)
        for q, q1 in sorted(F.obj_map.items()):
            rep.tick("stratified")
            d, d1 = level(q), level(q1)
            if d is None or d1 is None or off_s is None or off_t is None:
                rep.skip("stratified")
            elif d - off_s != d1 - off_t:
                rep.fail("stratified", tag + (q,), "slice functor not stratified")
    for (A, x), sx in sorted(e.subst.items()):
        functor_level_ok(sx, ("S", A, x))
    for A, wa in sorted(e.weak.items()):
        functor_level_ok(wa, ("W", A))


def cell_owners(cells) -> list[int]:
    """The morphism cell each cell of an ``esys._Cells`` belongs to: a
    slot's morphism, a morphism itself, and -1 for an object or the
    absent cell."""
    owner = [-1] * (cells.absent + 1)
    for m, i in cells.mor.items():
        owner[i] = i
        for j in cells.slot[m].values():
            owner[j] = i
    return owner


def one_sided_reference(lhs, rhs) -> tuple[list[tuple], int, int] | None:
    """sf_equal's triple for two flat forms over the same cells, or None
    where a cell present on both sides differs: every differing
    position, term slots included, weighed by the morphism it belongs to."""
    src, tgt, L = lhs
    R = rhs[2]
    absent = tgt.absent
    present = len(L) - L.count(absent)
    if L == R:
        return [], 0, present
    owner = cell_owners(src)
    skipped = right_absent = 0
    for i in itertools.compress(range(len(L)), map(operator.ne, L, R)):
        if R[i] == absent:
            right_absent += 1
        elif L[i] != absent:
            return None
        m = owner[i]
        if m < 0:
            skipped += 1
        elif m == i:
            skipped += 2
        elif L[m] != absent and R[m] != absent:
            skipped += 1
    return [], skipped, present - right_absent

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
    objs = cat.arrows_into(gamma)
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
                    fstar = precompose_raising(e, A, B, f)
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
    wapB = restrict_sf_raising(e, wap, B)
    Pbar = wapB.obj_map.get(Q)
    if Pbar is None:
        raise Truncated("(W_{A.P}/B)(Q)")
    return term_extension_raising(e, Abar, Pbar, x, F)


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
    sxp = restrict_sf_raising(e, sx, P)
    act1 = term_action_at(e, sxp, pos)
    if act1 is None or one not in act1:
        raise Truncated("S_x/P action on the identity term")
    return act1[one], sxp.obj_map.get(pos), sx.obj_map.get(P)


def check_pairing_reference(e: ESystem) -> Report:
    """esys.check_pairing with a handler around each missing pairing.

    Instance-wise verification of the pairing bijection.

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
                # the actual map, where the identity term exists; the
                # x half of term_extension is computed once per x
                rep.tick("pairing-bijective")
                try:
                    image = {}
                    for x, us in rows:
                        if us:
                            sx_one = _substitute_x_raising(e, A, P, x)
                            for u in us:
                                image[(x, u)] = _substitute_u_raising(e, sx_one, u)
                except Truncated:
                    rep.skip("pairing-bijective")
                    continue
                if sorted(image.values()) != sorted(e.T(AP)):
                    rep.fail("pairing-bijective", (A, P), f"image = {sorted(set(image.values()))}")
                    continue
                rep.tick("pairing-inverse")
                try:
                    pr1, pr2 = projections_raising(e, A, P)
                    wa = e.weak[A]
                    wp = e.weak[P]
                    posWA = wp.obj_map.get(wa.obj_map[A])  # W_{A.P}(A), where pr1 sits
                    posP = wp.obj_map.get(P)  # W_P(P), where pr2 sits
                    for (x, u), w in image.items():
                        back1 = subst_term_raising(e, w, AP, posWA, pr1)
                        back2 = subst_term_raising(e, w, AP, posP, pr2)
                        if back1 != x or back2 != u:
                            rep.fail("pairing-inverse", (A, P, x, u), f"got {(back1, back2)!r}")
                except Truncated:
                    rep.skip("pairing-inverse")
    for gamma in sorted(cat.objects):
        rep.tick("terminal-terms")
        ida = cat.identity.get(gamma)
        if ida is None:
            rep.skip("terminal-terms")
            continue
        if len(e.T(ida)) != 1:
            rep.fail("terminal-terms", (gamma,), f"|T(id)| = {len(e.T(ida))}")
    return rep


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
            star = precompose_raising(e, A, B, x)
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
            pbar = restrict_sf_raising(e, wb, bg).obj_map.get(A)
        except Truncated:
            pbar = None
        if abar is None or pbar is None:
            term_map[A] = tm
            continue
        for t in e.T(A):
            try:
                val = term_extension_raising(e, abar, pbar, one, t)
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


def pullback_sfunctor_reference(a: CESystem, f: str) -> SliceFunctorT:
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


def ce_to_e_reference(a: CESystem) -> ESystem:
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
        e.weak[A] = pullback_sfunctor_reference(a, ia)
        for x in terms[A]:
            e.subst[(A, x)] = pullback_sfunctor_reference(a, x)
        # identity term: the diagonal section of the pulled-back family
        entry = a.pb.get((ia, A))
        ident = a.base.identity.get(fam.dom(A))
        one = None if entry is None else _pulled_section(a, entry[0], entry[1], ident, ident)
        if one is not None:
            e.proj[A] = one
    return e


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


class _ElementReadsReference:
    """What bhom_of_sfunctor_reference reads besides the slice functor,
    once per e_to_b_reference call: the (X, t) of each frame element; for
    each object Y, ybar, the first arrow out of Y that goes one level
    down; and _unique_arrow of each pair of objects."""

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


def bhom_of_sfunctor_reference(e: ESystem, sf: SliceFunctorT, src: BFrame, tgt: BFrame,
                               reads: _ElementReadsReference) -> BFrameHom:
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


def e_to_b_reference(e: ESystem) -> BSystem:
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
    reads = _ElementReadsReference(cat, lv)
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
            sys.subst[(m, el)] = bhom_of_sfunctor_reference(e, sf, src, tgt, reads)
        for X in frame.B[m]:
            wf = e.weak.get(ind[X])
            if wf is None:
                continue
            src = slice_bframe(frame, m - 1, cat.cod(ind[X]))
            tgt = slice_bframe(frame, m, X)
            sys.weak[(m, X)] = bhom_of_sfunctor_reference(e, wf, src, tgt, reads)
            one = e.proj.get(ind[X])
            wxx = wf.obj_map.get(ind[X])
            if one is not None and wxx is not None and m + 1 <= height:
                sys.gen[(m, X)] = pack_ids((cat.dom(wxx), one))
    return sys


def e2b_of_ehom_reference(k: EHom, src_b: BSystem, tgt_b: BSystem) -> BFrameHom:
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


def casce_comp_reference(a: CESystem, ahat: CESystem) -> dict[str, str]:
    """The arrow map of comp: ahat -> a in _casce_iso(a, ahat), for ahat =
    c_to_ce(ce_to_c(a)): each path of individuals to its composite in
    fam(a)."""
    strat = stratify(a.fam)
    assert isinstance(strat, Stratification)
    comp_ar: dict[str, str] = {}
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
    return comp_ar


def adjunction_witnesses_reference(e: ESystem, a: CESystem):
    """Unit and counit with invertibility evidence and triangle identities."""
    rep = Report()
    eta = unit_of(e)
    rep.merge(validate_ehom(eta), prefix="eta:")
    eta_inv, inv_rep = invert_ehom(eta)
    rep.merge(inv_rep, prefix="eta-inv:")
    if eta_inv is not None:
        rep.merge(validate_ehom(eta_inv), prefix="eta-inv-hom:")

    eps = counit_of(a)
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
    eta_ea = unit_of(ea)
    ce2e_eps = ce2e_of_cehom(eps, eta_ea.target, ea)
    tri1 = compose_ehom(ce2e_eps, eta_ea)
    diff = ehom_equal(tri1, identity_ehom(ea))
    rep.tick("triangle-1", diff[2])
    rep.record("triangle-1", diff)

    # triangle 2: eps_{E2CE(E)} . E2CE(eta_E) = Id on e_to_ce(e)
    ae = e_to_ce(e)
    eps_ae = counit_of(ae)
    e2ce_eta = cehom_of_ehom(eta, ae, eps_ae.source)
    tri2 = compose_cehom(eps_ae, e2ce_eta)
    diff = cehom_equal(tri2, identity_cehom(ae))
    rep.tick("triangle-2", diff[2])
    rep.record("triangle-2", diff)

    return eta, eps, rep


def build_nat_esystem_reference(height: int) -> ESystem:
    """``esys.build_nat_esystem`` as it was: every term is parsed and
    formatted where a table uses it."""
    cat = nat_poset_cat(height)
    terms: dict[str, frozenset[str]] = {}
    for m in range(height + 1):
        for n in range(m + 1):
            k = m - n
            fs = [fn_term(v) for v in itertools.product(range(n), repeat=k)]
            if k == 0:
                fs = [fn_term(())]
            terms[nat_arrow(m, n)] = frozenset(fs)
    e = ESystem(tc=TermCat(cat=cat, terms=terms), levels={str(n): n for n in range(height + 1)})

    def subst_post(n: int, k: int, f: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
        # ([id_n, f] + id_j) . h  for h : [l] -> [n+k+j]
        out = []
        for i in h:
            if i < n:
                out.append(i)
            elif i < n + k:
                out.append(f[i - n])
            else:
                out.append(i - k)
        return tuple(out)

    def weak_post(n: int, k: int, h: tuple[int, ...]) -> tuple[int, ...]:
        # (i_n^{n+k} + id_j) . h  for h : [l] -> [n+j]
        return tuple(i if i < n else i + k for i in h)

    for m in range(height + 1):
        for n in range(m + 1):
            k = m - n
            A = nat_arrow(m, n)
            # weakening W_A : slice over n -> slice over m, objects +k
            wa = SliceFunctorT(source_apex=str(n), target_apex=str(m))
            for a in range(n, height + 1):
                if a + k <= height:
                    wa.obj_map[nat_arrow(a, n)] = nat_arrow(a + k, m)
            for (h, f1, g1) in slice_mors(cat, str(n)):
                a, b = int(cat.dom(h)), int(cat.cod(h))
                if b + k > height or a + k > height:
                    continue
                key = (h, f1, g1)
                wa.mor_map[key] = nat_arrow(a + k, b + k)
                wa.term_map[key] = {
                    t: fn_term(weak_post(n, k, parse_fn_term(t))) for t in terms[h]
                }
            e.weak[A] = wa
            # substitution S_f : slice over m -> slice over n, objects -k
            for t in terms[A]:
                f = parse_fn_term(t)
                sf = SliceFunctorT(source_apex=str(m), target_apex=str(n))
                for a in range(m, height + 1):
                    sf.obj_map[nat_arrow(a, m)] = nat_arrow(a - k, n)
                for (h, f1, g1) in slice_mors(cat, str(m)):
                    a, b = int(cat.dom(h)), int(cat.cod(h))
                    key = (h, f1, g1)
                    sf.mor_map[key] = nat_arrow(a - k, b - k)
                    sf.term_map[key] = {
                        u: fn_term(subst_post(n, k, f, parse_fn_term(u)))
                        for u in terms[h]
                    }
                e.subst[(A, t)] = sf
            if m + k <= height:
                e.proj[A] = fn_term(tuple(n + l for l in range(k)))
    return e


def build_group_structure_reference(
    elements: list[str], mult: dict[tuple[str, str], str], unit: str
) -> ESystem:
    """``esys.build_group_structure`` as it was: every slice morphism's
    term table is computed afresh."""
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

    def conj_by(p: dict[str, str], y: dict[str, str]) -> str:
        return aut_id(aut_compose(aut_compose(p, y), aut_inv(p)))

    mors = slice_mors(cat, obj)

    def mk_sf(on_el, on_term) -> SliceFunctorT:
        sf = SliceFunctorT(source_apex=obj, target_apex=obj)
        for g in elements:
            sf.obj_map[g] = on_el(g)
        for m in mors:
            sf.mor_map[m] = on_el(m[0])
            sf.term_map[m] = {aid: on_term(by_id[aid]) for aid in by_id}
        return sf

    for g in elements:
        # weakening conjugates by the inverse so that W_{A.P} = W_P . W_A
        # under the composite-after convention of the composition table
        gi = _ginv(g, elements, mult, unit)
        phi_g = {h: mult[(mult[(gi, h)], g)] for h in elements}
        e.weak[g] = mk_sf(lambda h, p=phi_g: p[h], lambda y, p=phi_g: conj_by(p, y))
        e.proj[g] = aut_id({h: h for h in elements})
        for aid, x in by_id.items():
            e.subst[(g, aid)] = mk_sf(lambda h, p=x: p[h], lambda y, p=x: conj_by(p, y))
    return e


def build_finset_cesystem_reference(height: int) -> CESystem:
    """``cesys.build_finset_cesystem`` as it was: F^op formats a name for
    every composite, and every base arrow name is parsed."""
    fam = nat_poset_cat(height)
    base = finsets_op_cat(height)  # the parent body of cesys.finsets_op_cat
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


def build_syntactic_bframe_reference(sig: BindingSignature, height: int, bound: int) -> BSystem:
    """``syntax.build_syntactic_bframe`` as it was: every lift acts on
    and keys each expression where an entry uses it."""
    lm: list[list[RawExpr]] = []
    rr: list[list[RawExpr]] = []
    for i in range(height + 1):
        tys, tms = enumerate_raw(sig, i, bound)
        lm.append(tys)
        rr.append(tms)
    lm_keys = [frozenset(t.key() for t in tys) for tys in lm]
    rr_keys = [frozenset(t.key() for t in tms) for tms in rr]

    teles: list[list[tuple[RawExpr, ...]]] = [[()]]
    for n in range(1, height + 1):
        teles.append(
            [t + (a,) for t in teles[n - 1] for a in lm[n - 1]]
        )

    B = tuple(frozenset(_tele_id(t) for t in teles[n]) for n in range(height + 1))
    tele_by_id: dict[str, tuple[RawExpr, ...]] = {}
    for n in range(height + 1):
        for t in teles[n]:
            tele_by_id[_tele_id(t)] = t

    def judg_id(tele: tuple[RawExpr, ...], term: RawExpr, ty: RawExpr) -> str:
        return pack_ids((_tele_id(tele), term.key(), ty.key()))

    Bt: list[frozenset[str]] = [frozenset()]
    judg_by_id: dict[str, tuple[tuple[RawExpr, ...], RawExpr, RawExpr]] = {}
    for n in range(1, height + 1):
        elems = []
        for tele in teles[n - 1]:
            for term in rr[n - 1]:
                for ty in lm[n - 1]:
                    j = judg_id(tele, term, ty)
                    judg_by_id[j] = (tele, term, ty)
                    elems.append(j)
        Bt.append(frozenset(elems))

    ft: list[dict[str, str]] = [{}]
    bd: list[dict[str, str]] = [{}]
    for n in range(1, height + 1):
        ft.append({_tele_id(t): _tele_id(t[:-1]) for t in teles[n]})
        bd.append(
            {
                j: _tele_id(tele + (ty,))
                for j, (tele, term, ty) in judg_by_id.items()
                if len(tele) == n - 1
            }
        )
    frame = BFrame(height=height, B=B, Bt=tuple(Bt), ft=tuple(ft), bd=tuple(bd))
    sys = BSystem(frame=frame)

    def lift(src_at: tuple[int, str], tgt_at: tuple[int, str], act) -> BFrameHom:
        """The hom B/src -> B/tgt that cuts the source apex's telescope off
        each element and puts the target apex's telescope in its place.

        ``act(e, i)`` changes an expression that sits under the first i
        types of the cut tail. Each result must be enumerated at level
        len(prefix) + i; an entry with a piece that is not is left out.
        """
        src, tgt = slice_bframe(frame, *src_at), slice_bframe(frame, *tgt_at)
        cut, prefix = src_at[0], tele_by_id[tgt_at[1]]
        p = len(prefix)

        def lift_tail(tail):
            new_tail = tuple(act(c, i) for i, c in enumerate(tail))
            if all(nt.key() in lm_keys[p + i] for i, nt in enumerate(new_tail)):
                return prefix + new_tail
            return None

        top = min(src.height, tgt.height)
        H: dict[int, dict[str, str]] = {}
        Ht: dict[int, dict[str, str]] = {}
        for lvl in range(top + 1):
            hm = {}
            for Y in src.B[lvl]:
                new_tele = lift_tail(tele_by_id[Y][cut:])
                if new_tele is not None:
                    hm[Y] = _tele_id(new_tele)
            H[lvl] = hm
        for lvl in range(1, top + 1):
            tm = {}
            for el in src.Bt[lvl]:
                tele2, term2, ty2 = judg_by_id[el]
                d = len(tele2) - cut
                new_tele = lift_tail(tele2[cut:])
                new_term, new_ty = act(term2, d), act(ty2, d)
                if (
                    new_tele is not None
                    and new_term.key() in rr_keys[p + d]
                    and new_ty.key() in lm_keys[p + d]
                ):
                    tm[el] = judg_id(new_tele, new_term, new_ty)
            Ht[lvl] = tm
        return BFrameHom(source=src, target=tgt, H=H, Ht=Ht)

    # substitution structure: replace the last variable of the context
    for n in range(1, height + 1):
        for j in frame.Bt[n]:
            tele, term, _ty = judg_by_id[j]
            sys.subst[(n, j)] = lift(
                (n, frame.bd[n][j]), (n - 1, _tele_id(tele)), lambda c, i: subst(c, i, term)
            )

    # weakening structure: insert the new type, shifting later indices
    for n in range(1, height + 1):
        for Xid in frame.B[n]:
            sys.weak[(n, Xid)] = lift((n - 1, frame.ft[n][Xid]), (n, Xid), lambda c, i: shift(c, 1, i))

    # generic elements: the last variable, weakened
    for n in range(1, height):
        for Xid in frame.B[n]:
            full = tele_by_id[Xid]
            a = full[-1]
            shifted = shift(a, 1, 0)
            if shifted.key() not in lm_keys[n]:
                continue
            sys.gen[(n, Xid)] = judg_id(full, RawExpr("tm", "#0"), shifted)

    return sys


def load_structure_reference(text: str, expect_kind: str | None = None):
    """``serialize.load_structure`` as it was: json parses every document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise LoadError("document has no kind tag")
    kind = doc["kind"]
    if doc.get("version") != VERSION:
        raise LoadError(f"unsupported version {doc.get('version')!r}")
    if expect_kind is not None and kind != expect_kind:
        raise LoadError(f"expected kind {expect_kind!r}, found {kind!r}")
    loader = _LOADERS.get(kind)
    if loader is None:
        raise LoadError(f"unknown kind {kind!r}")
    try:
        return kind, loader(doc["payload"])
    except LoadError:
        raise
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise LoadError(f"malformed {kind} payload: {type(exc).__name__}: {exc}") from None


def slice_system_reference(sys: BSystem, n: int, X: str) -> BSystem:
    """The induced structure on B/X; tables are re-keyed ambient entries."""
    frame = slice_bframe(sys.frame, n, X)
    subst = {}
    for m in range(1, frame.height + 1):
        for x in frame.Bt[m]:
            amb = sys.subst.get((n + m, x))
            if amb is not None:
                subst[(m, x)] = amb
    weak = {}
    for m in range(1, frame.height + 1):
        for Y in frame.B[m]:
            amb = sys.weak.get((n + m, Y))
            if amb is not None:
                weak[(m, Y)] = amb
    gen = {}
    for m in range(1, frame.height + 1):
        for Y in frame.B[m]:
            amb = sys.gen.get((n + m, Y))
            if amb is not None:
                gen[(m, Y)] = amb
    return BSystem(frame=frame, subst=subst, weak=weak, gen=gen)


def check_preservation_reference(
    h: BFrameHom, src: BSystem, tgt: BSystem, rep: Report, law: str | None = None
) -> None:
    """Does ``h : src -> tgt`` preserve substitution, weakening and generic
    elements? Each under ``law``, or under "preserve-sub", "preserve-weak"
    and "preserve-gen"."""
    name = law or "preserve-sub"
    for (k, x), sx in sorted(src.subst.items()):
        rep.tick(name)
        ximg = h.Ht.get(k, {}).get(x)
        bdx = src.frame.bd[k][x]
        ftbdx = src.frame.ft[k][bdx]
        if ximg is None or (k, ximg) not in tgt.subst:
            rep.skip(name)
            continue
        if bdx not in h.H.get(k, {}) or ftbdx not in h.H.get(k - 1, {}):
            rep.skip(name)
            continue
        lhs = compose_bhom(restrict_bhom(h, k - 1, ftbdx), sx)
        rhs = compose_bhom(tgt.subst[(k, ximg)], restrict_bhom(h, k, bdx))
        rep.record(name, bhom_eq(lhs, rhs), (k, x))
    name = law or "preserve-weak"
    for (n, X), wx in sorted(src.weak.items()):
        rep.tick(name)
        ximg = h.H.get(n, {}).get(X)
        ftx = src.frame.ft[n][X]
        if ximg is None or (n, ximg) not in tgt.weak:
            rep.skip(name)
            continue
        if ftx not in h.H.get(n - 1, {}):
            rep.skip(name)
            continue
        lhs = compose_bhom(restrict_bhom(h, n, X), wx)
        rhs = compose_bhom(tgt.weak[(n, ximg)], restrict_bhom(h, n - 1, ftx))
        rep.record(name, bhom_eq(lhs, rhs), (n, X))
    name = law or "preserve-gen"
    for (n, X), d in sorted(src.gen.items()):
        rep.tick(name)
        ximg = h.H.get(n, {}).get(X)
        dimg = h.Ht.get(n + 1, {}).get(d)
        if ximg is None or dimg is None or (n, ximg) not in tgt.gen:
            rep.skip(name)
            continue
        if tgt.gen[(n, ximg)] != dimg:
            rep.fail(name, (n, X), f"H(delta) = {dimg!r}, delta(H) = {tgt.gen[(n, ximg)]!r}")


def validate_bsystem_reference(sys: BSystem) -> Report:
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
        rep.merge(validate_bframe_hom_reference(sx), prefix="subst-hom:")
    for (n, X), wx in sorted(sys.weak.items()):
        rep.merge(validate_bframe_hom_reference(wx), prefix="weak-hom:")

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

    # axiom 1: every S_x is a pre-B-homomorphism
    for (k, x), sx in sorted(sys.subst.items()):
        bdx = b.bd[k][x]
        ftbdx = b.ft[k][bdx]
        src = slice_system_reference(sys, k, bdx)
        tgt = slice_system_reference(sys, k - 1, ftbdx)
        check_preservation_reference(sx, src, tgt, rep, law="axiom-1")

    # axiom 2: every W_X is a pre-B-homomorphism
    for (n, X), wx in sorted(sys.weak.items()):
        src = slice_system_reference(sys, n - 1, b.ft[n][X])
        tgt = slice_system_reference(sys, n, X)
        check_preservation_reference(wx, src, tgt, rep, law="axiom-2")

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
        if wx is None or sd is None or X not in wx.H.get(1, {}):
            rep.skip("axiom-5")
            continue
        composite = compose_bhom(sd, restrict_bhom(wx, 1, X))
        rep.record("axiom-5", bhom_eq(composite, bhom_identity(composite.source)), (n, X))

    return rep


def validate_bsystem_hom_reference(h: BFrameHom, src: BSystem, tgt: BSystem) -> Report:
    """A homomorphism of B-systems: frame naturality plus all preservations."""
    rep = Report()
    rep.merge(validate_bframe_hom_reference(h))
    check_preservation_reference(h, src, tgt, rep)
    return rep


def validate_functor_reference(fd: FunctorData) -> Report:
    """Check functor laws exhaustively, entry by entry."""
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


def validate_bframe_hom_reference(h: BFrameHom) -> Report:
    """Naturality of the ft/bd squares on every level where both sides exist.

    An image outside the target frame has no side there: its square is
    skipped, and ``total`` fails it with its witness.
    """
    rep = Report()
    top = h.common_height
    for n in range(1, top + 1):
        for X in sorted(h.source.B[n]):
            rep.tick("ft-natural")
            hx = h.H.get(n, {}).get(X)
            hft = h.H.get(n - 1, {}).get(h.source.ft[n][X])
            tft = None if hx is None else h.target.ft[n].get(hx)
            if tft is None or hft is None:
                rep.skip("ft-natural")
                continue
            if tft != hft:
                rep.fail("ft-natural", (n, X))
        for x in sorted(h.source.Bt[n]):
            rep.tick("bd-natural")
            hx = h.Ht.get(n, {}).get(x)
            hb = h.H.get(n, {}).get(h.source.bd[n][x])
            tbd = None if hx is None else h.target.bd[n].get(hx)
            if tbd is None or hb is None:
                rep.skip("bd-natural")
                continue
            if tbd != hb:
                rep.fail("bd-natural", (n, x))
    for n in range(0, top + 1):
        for X in sorted(h.source.B[n]):
            rep.tick("total")
            y = h.H.get(n, {}).get(X)
            if y is None:
                rep.skip("total")
            elif y not in h.target.B[n]:
                rep.fail("total", (n, X, y), "image outside target level")
        if n >= 1:
            for x in sorted(h.source.Bt[n]):
                rep.tick("total")
                y = h.Ht.get(n, {}).get(x)
                if y is None:
                    rep.skip("total")
                elif y not in h.target.Bt[n]:
                    rep.fail("total", (n, x, y), "term image outside target level")
    return rep


def check_preservation_per_square_reference(
    h: BFrameHom, src: BSystem, tgt: BSystem, at: tuple[int, int], rep: Report, law: str | None = None
) -> None:
    """``bsys.check_preservation`` as it was before it made each restriction
    once per call: every square restricts ``h`` afresh, and every instance
    is ticked and skipped on ``rep`` as it is met."""
    n, m = at
    s, t = h.source, h.target

    def image(table: dict, levels: tuple, k: int, y: str | None):
        """tgt's entry in ``table`` for y at slice level k, if y lies there in h.target."""
        return table.get((k + m, y)) if k < len(levels) and y in levels[k] else None

    name = law or "preserve-sub"
    for k in range(1, s.height + 1):
        for x in sorted(s.Bt[k]):
            sx = src.subst.get((k + n, x))
            if sx is None:
                continue
            rep.tick(name)
            bdx = s.bd[k][x]
            ftbdx = s.ft[k][bdx]
            ty = image(tgt.subst, t.Bt, k, h.Ht.get(k, {}).get(x))
            if ty is None or not _maps_into(h, k, bdx) or not _maps_into(h, k - 1, ftbdx):
                rep.skip(name)
                continue
            lhs = compose_bhom(restrict_bhom(h, k - 1, ftbdx), sx)
            rhs = compose_bhom(ty, restrict_bhom(h, k, bdx))
            rep.record(name, bhom_eq(lhs, rhs), (k, x))
    name = law or "preserve-weak"
    for k in range(1, s.height + 1):
        for X in sorted(s.B[k]):
            wx = src.weak.get((k + n, X))
            if wx is None:
                continue
            rep.tick(name)
            ftx = s.ft[k][X]
            ty = image(tgt.weak, t.B, k, h.H.get(k, {}).get(X))
            if ty is None or not _maps_into(h, k - 1, ftx):
                rep.skip(name)
                continue
            lhs = compose_bhom(restrict_bhom(h, k, X), wx)
            rhs = compose_bhom(ty, restrict_bhom(h, k - 1, ftx))
            rep.record(name, bhom_eq(lhs, rhs), (k, X))
    name = law or "preserve-gen"
    for k in range(1, s.height + 1):
        for X in sorted(s.B[k]):
            d = src.gen.get((k + n, X))
            if d is None:
                continue
            rep.tick(name)
            dx = image(tgt.gen, t.B, k, h.H.get(k, {}).get(X))
            dimg = h.Ht.get(k + 1, {}).get(d)
            if dx is None or dimg is None:
                rep.skip(name)
                continue
            if dx != dimg:
                rep.fail(name, (k, X), f"H(delta) = {dimg!r}, delta(H) = {dx!r}")


def validate_bsystem_hom_per_square_reference(h: BFrameHom, src: BSystem, tgt: BSystem) -> Report:
    """``bsys.validate_bsystem_hom`` over the two bodies above."""
    rep = Report()
    rep.merge(validate_bframe_hom_reference(h))
    check_preservation_per_square_reference(h, src, tgt, (0, 0), rep)
    return rep
