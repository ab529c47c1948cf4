import collections
import dataclasses
import functools
import itertools
import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcsys import esys
from bcsys.bsys import build_finset_bsystem
from bcsys.cesys import build_finset_cesystem
from bcsys.core import (
    Arrow,
    FinCat,
    FunctorData,
    join_ids,
    slice_mors,
    validate_fincat,
)
from bcsys.esys import (
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    build_group_structure,
    build_nat_esystem,
    check_pairing,
    compose_sf,
    composites_equal,
    fn_term,
    hom_terms_of,
    identity_sf,
    ih_arrow,
    internal_hom_cat,
    nat_arrow,
    projections,
    restrict_sf,
    s3_table,
    sf_equal,
    subst_term,
    term_extension,
    validate_ehom,
    validate_esystem,
    vertical_compose,
)
from bcsys.report import Report, Truncated
from bcsys.xlate import b_to_e, ce_to_e

from ehom_pins import PINS
from helpers import parse_path_id, split_ids, unpack_ids, violations, with_compose
from reference import (
    _substitute_x_reference,
    cell_owners,
    check_pairing_reference,
    ehom_part_reference,
    ih_term,
    one_sided_reference,
    precompose,
    restrict_sf_reference,
    validate_esystem_reference,
    validate_sfunctor_reference,
)


def test_term_set_sizes():
    e = build_nat_esystem(3)
    assert len(e.T(nat_arrow(3, 2))) == 2  # functions [1] -> [2]
    assert len(e.T(nat_arrow(3, 1))) == 1  # functions [2] -> [1]
    assert len(e.T(nat_arrow(1, 0))) == 0  # functions [1] -> [0]
    assert len(e.T(nat_arrow(2, 2))) == 1  # the empty function


def test_nat_esystem_validates():
    for h in (2, 3):
        rep = validate_esystem(build_nat_esystem(h))
        assert rep.ok, rep.format()
        assert not rep.failed_laws()


def test_object_without_level_fails_stratified():
    e = build_nat_esystem(3)
    del e.levels["2"]
    rep = validate_esystem(e)
    assert rep.failed_laws() == ["stratified"]
    assert [(v.witness, v.detail) for v in violations(rep)] == [(("2",), "object has no level")]
    # the 4 arrows and the 19 slice functor entries at that object are
    # skipped, not compared
    res = rep.laws["stratified"]
    assert (res.checked, res.skipped) == (49, 23)


@pytest.mark.parametrize("where", ["image", "key"])
def test_substitution_object_entry_that_is_no_arrow_fails_its_endpoints(where):
    e = build_nat_esystem(3)
    F = e.subst[sorted(e.subst)[0]]
    x = sorted(F.obj_map)[0]
    entry = (x, "zz") if where == "image" else ("zz", F.obj_map[x])
    F.obj_map[entry[0]] = entry[1]
    rep = validate_esystem(e)
    assert "subst-functor" in rep.failed_laws()
    assert (entry, "object map endpoints wrong") in [
        (v.witness, v.detail) for v in rep.laws["subst-functor"].violations
    ]
    assert "stratified" not in rep.failed_laws()


def test_nat_axioms_check_nonvacuously():
    rep = validate_esystem(build_nat_esystem(3))
    for law in ("subst-system", "weak-system", "proj-system", "e-axiom-3", "e-axiom-4"):
        assert rep.laws[law].checked > 0, law


def test_identity_term_is_final_segment_inclusion():
    e = build_nat_esystem(5)
    # 1_{(1,2)} : [2] -> [3] maps 0 to 1 and 1 to 2
    assert e.proj[nat_arrow(3, 1)] == "[1,2]"


def test_subst_of_identity_term_recovers_the_term():
    e = build_nat_esystem(5)
    for m in range(6):
        for n in range(m + 1):
            A = nat_arrow(m, n)
            if A not in e.proj:
                continue
            u = e.weak[A].obj_map[A]
            for x in e.T(A):
                sx = e.subst[(A, x)]
                act = sx.term_map[(u, u, e.cat.id_of(str(m)))]
                assert act[e.proj[A]] == x


def test_sf_weak_composite_is_identity_elementwise():
    e = build_nat_esystem(4)
    A = nat_arrow(3, 1)  # k = 2
    for x in e.T(A):
        comp = compose_sf(e.subst[(A, x)], e.weak[A])
        bad, _, checked = sf_equal(comp, identity_sf(e, "1"))
        assert not bad and checked > 0


def test_group_s3_failure_profile():
    elements, mult, unit = s3_table()
    e = build_group_structure(elements, mult, unit)
    rep = validate_esystem(e)
    assert rep.failed_laws() == ["e-axiom-3", "e-axiom-4", "e-axiom-5"]
    assert rep.missing_laws() == ["terminal"]
    for law in ("subst-system", "weak-system", "proj-system", "e-axiom-1", "e-axiom-2"):
        assert not rep.laws[law].violations, law
        assert rep.laws[law].checked > 0, law


def test_trivial_group_everything_checkable_passes():
    e = build_group_structure(["e"], {("e", "e"): "e"}, "e")
    rep = validate_esystem(e)
    assert not rep.failed_laws()
    assert rep.missing_laws() == ["terminal"]


def test_group_rejects_non_associative_table():
    # a "multiplication" with a x = x except a a = b, b b = a is not associative
    bad = {
        ("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e",
    }
    bad2 = dict(bad)
    bad2[("a", "a")] = "a"  # breaks unit/assoc interplay
    with pytest.raises(ValueError):
        build_group_structure(["e", "a"], bad2, "e")


def test_pairing_counts_at_height_4():
    # the pairing values need the identity term of 4>=2, hence height 6
    e = build_nat_esystem(6)
    A, P = nat_arrow(3, 2), nat_arrow(4, 3)
    # sum over x in T(A) of |T(x[P])| equals |T(A.P)| = 4
    pairs = []
    for x in e.T(A):
        xP = e.subst[(A, x)].obj_map[P]
        for u in e.T(xP):
            pairs.append((x, u))
    assert len(pairs) == 4 == len(e.T(nat_arrow(4, 2)))
    ext = {term_extension(e, A, P, x, u) for (x, u) in pairs}
    assert ext == set(e.T(nat_arrow(4, 2)))


def test_pairing_with_identity_is_identity():
    e = build_nat_esystem(4)
    A = nat_arrow(3, 2)
    P = e.cat.id_of("3")
    for x in e.T(A):
        assert term_extension(e, A, P, x, "[]") == x


def test_pairing_report_nat3():
    rep = check_pairing(build_nat_esystem(3))
    assert rep.ok, rep.format()
    assert not rep.laws["pairing-count"].violations
    assert rep.laws["pairing-count"].checked > 0
    assert not rep.laws["terminal-terms"].violations


@pytest.mark.parametrize(
    "build",
    [lambda: build_nat_esystem(6), lambda: b_to_e(build_finset_bsystem(5))],
    ids=["nat-e h6", "b_to_e finset-b h5"],
)
def test_check_pairing_restricts_nothing(monkeypatch, build):
    e = build()
    want = check_pairing(e).format()
    seen = []
    real = esys.restrict_sf

    def counted(e, F, P):
        seen.append((id(F), P))
        return real(e, F, P)

    monkeypatch.setattr(esys, "restrict_sf", counted)
    assert check_pairing(e).format() == want
    assert not seen


def test_pair_of_projections_is_identity_term():
    e = build_nat_esystem(6)
    A, P = nat_arrow(1, 0), nat_arrow(2, 1)
    pr1, pr2 = projections(e, A, P)
    wap = e.weak[nat_arrow(2, 0)]
    abar = wap.obj_map[A]
    pbar = restrict_sf(e, wap, A).obj_map[P]
    assert term_extension(e, abar, pbar, pr1, pr2) == e.proj[nat_arrow(2, 0)]


def test_pairproj_substitution_laws():
    e = build_nat_esystem(6)
    A, P = nat_arrow(3, 2), nat_arrow(4, 3)
    AP = e.cat.comp(A, P)
    pr1, pr2 = projections(e, A, P)
    wa, wp = e.weak[A], e.weak[P]
    pos1 = wp.obj_map[wa.obj_map[A]]
    pos2 = wp.obj_map[P]
    for x in e.T(A):
        xP = e.subst[(A, x)].obj_map[P]
        for u in e.T(xP):
            w = term_extension(e, A, P, x, u)
            assert subst_term(e, w, AP, pos1, pr1) == x
            assert subst_term(e, w, AP, pos2, pr2) == u


def test_subst_by_tmext_factorization():
    # S_<x,u> = S_u . (S_x/P)
    e = build_nat_esystem(6)
    A, P = nat_arrow(3, 2), nat_arrow(4, 3)
    AP = e.cat.comp(A, P)
    for x in e.T(A):
        sx = e.subst[(A, x)]
        xP = sx.obj_map[P]
        for u in e.T(xP):
            w = term_extension(e, A, P, x, u)
            lhs = e.subst[(AP, w)]
            rhs = compose_sf(e.subst[(xP, u)], restrict_sf(e, sx, P))
            bad, _, checked = sf_equal(lhs, rhs)
            assert not bad and checked > 0


def test_tmext_associativity_where_representable():
    e = build_nat_esystem(6)
    cat = e.cat
    checked = 0
    for A in cat.arrows_into("0"):
        for P in cat.arrows_into(cat.dom(A)):
            AP = cat.comp(A, P)
            for Q in cat.arrows_into(cat.dom(P)):
                PQ = cat.comp(P, Q)
                for x in e.T(A):
                    sx = e.subst[(A, x)]
                    xP = sx.obj_map.get(P)
                    if xP is None:
                        continue
                    for u in e.T(xP):
                        xu = term_extension(e, A, P, x, u)
                        if xu is None:
                            continue
                        sxu = e.subst[(AP, xu)]
                        for v_pos in [sxu.obj_map.get(Q)]:
                            if v_pos is None:
                                continue
                            for v in e.T(v_pos):
                                lhs = term_extension(e, AP, Q, xu, v)
                                su = e.subst[(xP, u)]
                                uv = None if lhs is None else term_extension(e, xP, sx_q(e, sx, P, Q), u, v)
                                rhs = None if uv is None else term_extension(e, A, PQ, x, uv)
                                if rhs is None:
                                    continue
                                assert lhs == rhs
                                checked += 1
    assert checked > 0


def sx_q(e, sx, P, Q):
    """(S_x/P)(Q): the position of u-substituted Q."""
    return restrict_sf(e, sx, P).obj_map[Q]


def test_precompose_identity_is_identity():
    e = build_nat_esystem(4)
    A = nat_arrow(1, 0)
    one = e.proj[A]
    star = precompose(e, A, A, one)
    bad, _, checked = sf_equal(star, identity_sf(e, "1"))
    assert not bad and checked > 0


def test_precompose_by_first_projection_is_weakening():
    e = build_nat_esystem(6)
    A, P = nat_arrow(1, 0), nat_arrow(2, 1)
    AP = e.cat.comp(A, P)
    pr1, _ = projections(e, A, P)
    star = precompose(e, AP, A, pr1)
    bad, _, checked = sf_equal(star, e.weak[P])
    assert not bad and checked > 0


def test_precompose_functorial_in_composition():
    # f* . g* = (g . f)* over every internal morphism pair at height 4
    e = build_nat_esystem(4)
    cat = e.cat
    checked = 0
    for gamma in sorted(cat.objects):
        objs = cat.arrows_into(gamma)
        for A in objs:
            for B in objs:
                homAB = hom_terms_of(e, A, B)
                if homAB is None:
                    continue
                for C in objs:
                    homBC = hom_terms_of(e, B, C)
                    if homBC is None:
                        continue
                    for f in homAB:
                        fstar = precompose(e, A, B, f)
                        posBC = e.weak[B].obj_map[C]
                        for g in homBC:
                            act = fstar.term_map.get(
                                (posBC, posBC, cat.id_of(cat.dom(B)))
                            )
                            if act is None or g not in act:
                                continue
                            gf = act[g]
                            lhs = compose_sf(fstar, precompose(e, B, C, g))
                            rhs = precompose(e, A, C, gf)
                            bad, _, ck = sf_equal(lhs, rhs)
                            assert not bad
                            checked += ck
    assert checked > 0


def test_internal_hom_category_at_root():
    e = build_nat_esystem(3)
    ih = internal_hom_cat(e, "0")
    assert ih.partial  # truncation: some hom sets are beyond height 3
    rep = validate_fincat(ih)
    assert rep.ok, rep.format()
    # hom(!_m, !_n) = functions [n] -> [m] where represented
    m, n = 2, 1
    count = sum(
        1 for a in ih.arrows.values()
        if a.dom == nat_arrow(m, 0) and a.cod == nat_arrow(n, 0)
    )
    assert count == m ** n


def test_internal_hom_to_slice_terminal_is_singleton():
    e = build_nat_esystem(3)
    for gamma in ("0", "1", "2"):
        ida = e.cat.id_of(gamma)
        for A in e.cat.arrows_into(gamma):
            homs = hom_terms_of(e, A, ida)
            if homs is not None:
                assert len(homs) == 1


@given(*[st.text(alphabet="ab|\\@>", max_size=6)] * 3)
def test_ih_arrow_decodes_with_split_ids(A, B, t):
    assert split_ids(ih_arrow(A, B, t), "|") == ["ih", A, B, t]


def test_ih_term_recovers_every_internal_hom_arrow():
    e = build_nat_esystem(3)
    ih = internal_hom_cat(e, "0")
    assert ih.arrows
    for name, arr in ih.arrows.items():
        t = ih_term(e, name, arr.dom, arr.cod)
        assert t in hom_terms_of(e, arr.dom, arr.cod)
        assert ih_arrow(arr.dom, arr.cod, t) == name


def test_ih_term_rejects_wrong_endpoints_and_foreign_terms():
    e = build_nat_esystem(3)
    A, B = nat_arrow(2, 0), nat_arrow(1, 0)
    homs = hom_terms_of(e, A, B)
    t = sorted(homs)[0]
    assert ih_term(e, ih_arrow(A, B, t), A, B) == t
    assert ih_term(e, ih_arrow(A, B, t), B, A) is None
    assert ih_term(e, ih_arrow(A, B, t), A, nat_arrow(2, 0)) is None
    assert ih_term(e, join_ids("other", A, B, t), A, B) is None
    every_term = set().union(*e.tc.terms.values())
    foreign = sorted(every_term - homs)[0]
    assert ih_term(e, ih_arrow(A, B, foreign), A, B) is None


def test_sf_equal_counts_one_sided_term_table_as_one_skip():
    m, n = ("h", "f", "g"), ("h2", "f", "g")
    f = SliceFunctorT("a", "b", term_map={m: {"s": "x", "t": "y"}, n: {"s": "x"}})
    g = SliceFunctorT("a", "b", term_map={n: {"s": "z"}})
    assert sf_equal(f, g) == ([("term", n, "s", "x", "z")], 1, 1)


def test_one_object_internal_hom():
    e = build_nat_esystem(0)
    ih = internal_hom_cat(e, "0")
    assert len(ih.objects) == 1
    assert validate_fincat(ih).ok


def test_vertical_compose_of_identities():
    e = build_nat_esystem(6)
    A, P = nat_arrow(1, 0), nat_arrow(2, 1)
    AP = e.cat.comp(A, P)
    f = e.proj[A]  # 1_A viewed in hom(A, A)
    F = e.proj[P]
    got = vertical_compose(e, A, A, f, P, P, F)
    assert got == e.proj[AP]


def test_prjsquare_uniqueness():
    # f.F is the unique h with h[pr1-square] and h[pr2] = F, brute-forced
    e = build_nat_esystem(6)
    cat = e.cat
    checked = 0
    gamma = "0"
    for A in cat.arrows_into(gamma):
        for B in cat.arrows_into(gamma):
            homAB = hom_terms_of(e, A, B)
            if homAB is None:
                continue
            for P in cat.arrows_into(cat.dom(A)):
                AP = cat.comp(A, P)
                for Q in cat.arrows_into(cat.dom(B)):
                    BQ = cat.comp(B, Q)
                    for f in homAB:
                        fstar = precompose(e, A, B, f)
                        if fstar is None:
                            continue
                        fQ = fstar.obj_map.get(e.weak[B].obj_map.get(Q))
                        if fQ is None:
                            continue
                        homf = e.T(e.weak[P].obj_map.get(fQ, "missing"))
                        for F in homf:
                            vf = vertical_compose(e, A, B, f, P, Q, F)
                            if vf is None:
                                continue
                            homAPBQ = hom_terms_of(e, AP, BQ)
                            if homAPBQ is None:
                                continue
                            assert vf in homAPBQ
                            prs_B, prs_A = projections(e, B, Q), projections(e, A, P)
                            if prs_B is None or prs_A is None:
                                continue
                            (pr1B, pr2B), (pr1A, _) = prs_B, prs_A
                            matches = []
                            for h in homAPBQ:
                                hstar = precompose(e, AP, BQ, h)
                                try:
                                    posp = e.weak[BQ].obj_map[
                                        e.weak[B].obj_map[BQ]
                                    ]
                                except KeyError:
                                    posp = None
                                if hstar is None or posp is None:
                                    matches = None
                                    break
                                # compare via the characterising equations
                                c1 = _comp_int(e, AP, BQ, B, h, pr1B)
                                c2w = _comp_int(e, AP, A, B, pr1A, f)
                                c3 = _comp_int_over(e, AP, BQ, h, pr2B, Q, B)
                                if c1 is None or c2w is None or c3 is None:
                                    matches = None
                                    break
                                if c1 == c2w and c3 == F:
                                    matches.append(h)
                            if matches is not None:
                                assert matches == [vf] or vf in matches and len(matches) == 1
                                checked += 1
    assert checked > 0


def _comp_int(e, A, B, C, f, g):
    """g . f for f in hom(A,B), g in hom(B,C) over a shared base."""
    fstar = precompose(e, A, B, f)
    if fstar is None:
        return None
    pos = e.weak[B].obj_map[C]
    act = fstar.term_map.get((pos, pos, e.cat.id_of(e.cat.dom(B))))
    if act is None:
        return None
    return act.get(g)


def _comp_int_over(e, AP, BQ, h, pr2, Q, B):
    """h[pr2]: substitute h into the second projection's position."""
    hstar = precompose(e, AP, BQ, h)
    if hstar is None:
        return None
    pos = e.weak[B].obj_map.get(Q)
    if pos is None:
        return None
    pos2 = e.weak[Q].obj_map.get(Q)
    if pos2 is None:
        return None
    act = hstar.term_map.get((pos2, pos2, e.cat.id_of(e.cat.dom(Q))))
    if act is None:
        return None
    return act.get(pr2)


def test_calculus_identities_at_height_4():
    import os as _os
    import sys as _sys

    _sys.path.insert(0, _os.path.dirname(__file__))
    from test_acceptance import _calculus_identities

    counts = _calculus_identities(build_nat_esystem(4))
    for law, (checked, failed) in counts.items():
        assert failed == 0, law
    assert counts["interchange"][0] > 50
    assert counts["prjsquare-unique"][0] > 30


def test_ehom_preserves_pairing_and_projections():
    # an E-homomorphism commutes with term extension and both projections
    from bcsys.bsys import build_finset_bsystem
    from bcsys.core import FunctorData
    from bcsys.esys import EHom, validate_ehom
    from bcsys.xlate import b_to_e

    e = b_to_e(build_finset_bsystem(4))
    en = build_nat_esystem(4)
    object_map = {f"{n}@{n}": str(n) for n in range(5)}
    arrow_map = {}
    term_map = {}
    for a in e.cat.arrows:
        n, _x, k = parse_path_id(a)
        arrow_map[a] = nat_arrow(n, n - k)
        term_map[a] = {t: fn_term(tuple(int(c) for c in unpack_ids(t))) for t in e.T(a)}
    h = EHom(
        source=e,
        target=en,
        functor=FunctorData(e.cat, en.cat, object_map, arrow_map),
        term_map=term_map,
    )
    assert not validate_ehom(h).failed_laws()
    cat = e.cat
    checked = 0
    for gamma in sorted(cat.objects):
        for A in cat.arrows_into(gamma):
            for P in cat.arrows_into(cat.dom(A)):
                AP = cat.compose.get((A, P))
                if AP is None:
                    continue
                prs, prs_i = projections(e, A, P), projections(en, arrow_map[A], arrow_map[P])
                if prs is None or prs_i is None:
                    continue
                (pr1, pr2), (pr1i, pr2i) = prs, prs_i
                wa, wp = e.weak[A], e.weak[P]
                pos1 = wp.obj_map[wa.obj_map[A]]
                pos2 = wp.obj_map[P]
                assert term_map[pos1][pr1] == pr1i
                assert term_map[pos2][pr2] == pr2i
                for x in e.T(A):
                    xP = e.subst[(A, x)].obj_map[P]
                    for u in e.T(xP):
                        w = term_extension(e, A, P, x, u)
                        wi = None if w is None else term_extension(
                            en, arrow_map[A], arrow_map[P],
                            term_map[A][x], term_map[xP][u],
                        )
                        if wi is None:
                            continue
                        assert term_map[AP][w] == wi
                        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# composites_equal against the reference sf_equal(compose_sf(...), compose_sf(...))

_OBJS = ("x", "y")
_ARROWS = ("h", "k")
_TERMS = ("s", "t")
_MORS = [(h, a, b) for h in _ARROWS for a in _OBJS for b in _OBJS]
# the functors over x and y are not representable in it; the "flat" shape
# draws sub-functors of its identities, with slices of up to 22 cells
_E = build_nat_esystem(3)


def _reference(g1, f1, g2, f2):
    lhs = g1 if f1 is None else compose_sf(g1, f1)
    rhs = g2 if f2 is None else compose_sf(g2, f2)
    return sf_equal(lhs, rhs)


def _partial(keys, values):
    """A map on some of ``keys``: each key is kept with probability 3/4."""
    kept = st.sampled_from((True, True, True, False))
    return st.fixed_dictionaries({k: st.tuples(kept, values) for k in keys}).map(
        lambda d: {k: v for k, (keep, v) in d.items() if keep}
    )


@st.composite
def _slice_functors(draw):
    """Partial tables over tiny pools, so that lookups through a composite
    often hit: missing objects, images that disagree, and term tables at
    keys with no morphism image (one-sided term tables)."""
    return SliceFunctorT(
        "x",
        "y",
        obj_map=draw(_partial(_OBJS, st.sampled_from(_OBJS))),
        mor_map=draw(_partial(_MORS, st.sampled_from(_ARROWS))),
        term_map=draw(_partial(_MORS, _partial(_TERMS, st.sampled_from(_TERMS)))),
    )


@st.composite
def _perturbed(draw, sf):
    """A copy of ``sf`` with some entries dropped and maybe one value changed."""

    def thin(d):
        return {k: v for k, v in d.items() if draw(st.booleans())}

    out = SliceFunctorT(
        sf.source_apex,
        sf.target_apex,
        obj_map=thin(sf.obj_map),
        mor_map=thin(sf.mor_map),
        term_map={k: thin(tm) for k, tm in thin(sf.term_map).items()},
    )
    if out.term_map and draw(st.booleans()):
        k = draw(st.sampled_from(sorted(out.term_map)))
        out.term_map[k][draw(st.sampled_from(_TERMS))] = draw(st.sampled_from(_TERMS))
    return out


@st.composite
def _thinned(draw, F):
    """A copy of the representable F with some objects (and the morphisms
    at them), some morphisms (and their term tables) and some term
    entries dropped, and maybe one term image changed to another term of
    its set: still representable, over the same cells."""
    kept = st.sampled_from((True,) * 7 + (False,))
    obj = {x: y for x, y in F.obj_map.items() if draw(kept)}
    mor = {m: h for m, h in F.mor_map.items() if m[1] in obj and m[2] in obj and draw(kept)}
    terms = {m: {t: u for t, u in F.term_map[m].items() if draw(kept)} for m in mor}
    changeable = [(m, t) for m in sorted(terms) for t in sorted(terms[m]) if len(_E.T(mor[m])) > 1]
    if changeable and draw(st.booleans()):
        m, t = changeable[draw(st.integers(0, len(changeable) - 1))]
        terms[m][t] = sorted(_E.T(mor[m]) - {terms[m][t]})[0]
    return SliceFunctorT(F.source_apex, F.target_apex, obj_map=obj, mor_map=mor, term_map=terms)


@st.composite
def _composite_pairs(draw, shapes=("random", "near", "single", "identity", "flat")):
    g1, f1 = draw(_slice_functors()), draw(_slice_functors())
    shape = draw(st.sampled_from(shapes))
    if shape == "flat":
        # sub-functors of one identity of _E: every side is representable
        # and its composites are gathered, so the flat comparison runs
        apex = draw(st.sampled_from(sorted(_E.cat.objects)))
        ident = identity_sf(_E, apex)
        side = st.one_of(st.just(ident), _thinned(ident))
        g1, f1, g2 = draw(side), draw(st.one_of(st.none(), side)), draw(side)
        f2 = draw(st.one_of(st.none(), side))
    elif shape == "random":
        g2 = draw(_slice_functors())
        f2 = draw(st.one_of(st.none(), _slice_functors()))
    elif shape == "near":
        g2, f2 = draw(_perturbed(g1)), draw(_perturbed(f1))
    elif shape == "single":
        g2, f2 = draw(_perturbed(compose_sf(g1, f1))), None
    else:
        ident = {o: o for o in _OBJS}
        g2 = SliceFunctorT(
            "x",
            "x",
            obj_map=ident,
            mor_map={m: m[0] for m in _MORS},
            term_map={m: {t: t for t in _TERMS} for m in _MORS},
        )
        g1, f1, f2 = draw(_perturbed(g2)), draw(_perturbed(g2)), None
    if draw(st.booleans()):
        return g2, f2, g1, f1
    return g1, f1, g2, f2


@settings(max_examples=150, deadline=None)
@given(_composite_pairs())
def test_composites_equal_matches_built_composites(sides):
    assert composites_equal(*sides, esys._Slices(_E)) == _reference(*sides)


def test_composites_equal_counts_one_sided_morphism_twice():
    f = SliceFunctorT("x", "x", obj_map={"x": "x"}, mor_map={("h", "x", "x"): "h"})
    g = SliceFunctorT("x", "x", obj_map={"x": "x"}, mor_map={("h", "x", "x"): "h"})
    empty = SliceFunctorT("x", "x", obj_map={"x": "x"})
    # one skip for the morphism map, one for the term table it lacks
    assert composites_equal(g, f, empty, None, esys._Slices(_E)) == ([], 2, 1)
    assert composites_equal(g, f, empty, None, esys._Slices(_E)) == _reference(g, f, empty, None)


def _b2e_to_nat_hom(h: int) -> EHom:
    """The isomorphism b_to_e(finset-b) -> nat-e at height h."""
    e = b_to_e(build_finset_bsystem(h))
    en = build_nat_esystem(h)
    object_map = {f"{n}@{n}": str(n) for n in range(h + 1)}
    arrow_map = {}
    term_map = {}
    for a in e.cat.arrows:
        n, _x, k = parse_path_id(a)
        arrow_map[a] = nat_arrow(n, n - k)
        term_map[a] = {t: fn_term(tuple(int(c) for c in unpack_ids(t))) for t in e.T(a)}
    return EHom(
        source=e,
        target=en,
        functor=FunctorData(e.cat, en.cat, object_map, arrow_map),
        term_map=term_map,
    )


@pytest.fixture
def memo(monkeypatch):
    """Check every composites_equal call against building both sides with
    compose_sf. Counts the calls, the calls answered from the memo (those
    that made no gather and no fallback), those answered from a result
    kept across functors (made while another functor H, or none, was
    restricted), the calls with a witness, and each shape (f1 is None,
    f2 is None) met."""
    seen = collections.Counter()
    real = esys.composites_equal
    real_gather, real_sf_equal = esys._Slices.composite, esys.sf_equal
    # each _Slices met -> key of its call-lived memo -> the H restricted
    # when that key's result was made
    made_under: dict = {}

    def gather(self, g, f):
        seen["work"] += 1
        return real_gather(self, g, f)

    def fallback(f, g):
        seen["work"] += 1
        return real_sf_equal(f, g)

    def checked(g1, f1, g2, f2, slices, key=None):
        work = seen["work"]
        got = real(g1, f1, g2, f2, slices, key)
        seen["calls"] += 1
        hit = seen["work"] == work
        seen["hits"] += hit
        if key is None:
            key = tuple(-1 if F is None else slices.number(F) for F in (g1, f1, g2, f2))
        if key in slices.lasting:
            made = made_under.setdefault(slices, {})
            if not hit:
                made[key] = slices._restricted
            else:
                seen["kept across functors"] += made[key] is not slices._restricted
        seen["failing"] += bool(got[0])
        seen[(f1 is None, f2 is None)] += 1
        assert got == _reference(g1, f1, g2, f2)
        return got

    monkeypatch.setattr(esys._Slices, "composite", gather)
    monkeypatch.setattr(esys, "sf_equal", fallback)
    monkeypatch.setattr(esys, "composites_equal", checked)
    return seen


_SITES = {
    "nat-e-h4": lambda: validate_esystem(build_nat_esystem(4)),
    "group-s3": lambda: validate_esystem(build_group_structure(*s3_table())),
    "b2e-finset-b-h4": lambda: validate_esystem(b_to_e(build_finset_bsystem(4))),
    **{f"nat-e-h{h}": lambda h=h: validate_esystem(build_nat_esystem(h)) for h in (2, 3, 5)},
    **{
        f"b2e-finset-b-h{h}": lambda h=h: validate_esystem(b_to_e(build_finset_bsystem(h)))
        for h in (2, 3, 5)
    },
}


@pytest.mark.parametrize("validate", list(_SITES.values()), ids=list(_SITES))
def test_composites_equal_matches_reference_at_every_site(validate, memo):
    rep = validate()
    shapes = {k for k in memo if isinstance(k, tuple)}
    assert (False, False) in shapes
    if "weak-functor" in rep.laws:  # validate_esystem: W_{A.P}, W_id and axioms 3, 5
        assert shapes == {(False, False), (True, False), (False, True), (True, True)}
        assert 0 < memo["hits"] < memo["calls"]
    assert (memo["failing"] > 0) == ("e-axiom-3" in rep.failed_laws())


def test_results_of_call_lived_sides_are_kept_across_functors(memo):
    """nat-e h4: some comparisons of four call-lived sides are answered
    under a later H from the result made under an earlier one, and each
    answer is still the reference's."""
    assert validate_esystem(build_nat_esystem(4)).ok
    assert memo["kept across functors"] > 0


def _corrupt_term(e, family="subst"):
    """Change one term image of a substitution (or, with family "weak", a
    weakening) functor to another term of the same target set, in place,
    so only composite-based laws can see it."""
    for key, F in sorted(getattr(e, family).items()):
        for k in sorted(F.term_map):
            img, tm = F.mor_map.get(k), F.term_map[k]
            if img is not None and tm and len(e.T(img)) > 1:
                t = sorted(tm)[0]
                tm[t] = sorted(e.T(img) - {tm[t]})[0]
                return
    raise AssertionError("no term image to corrupt")


def test_a_weakening_term_changed_in_place_between_calls_is_read_afresh():
    """A restriction shares its functor's term tables, and comparisons of
    call-lived functors are kept for the whole call: a term entry of a
    weakening changed in place after one validation is read by the next,
    which agrees with a fresh system changed alike. (The next test does
    the same with a substitution.)"""
    e = build_nat_esystem(4)
    assert validate_esystem(e).ok
    _corrupt_term(e, "weak")
    again = validate_esystem(e)
    fresh = build_nat_esystem(4)
    _corrupt_term(fresh, "weak")
    expected = validate_esystem(fresh)
    assert not again.ok
    assert again.format() == expected.format()
    assert [v.witness for v in violations(again)] == [v.witness for v in violations(expected)]


def test_validation_memo_does_not_outlive_the_call():
    e = build_nat_esystem(4)
    assert validate_esystem(e).ok
    _corrupt_term(e)
    again = validate_esystem(e)
    fresh = build_nat_esystem(4)
    _corrupt_term(fresh)
    expected = validate_esystem(fresh)
    assert not again.ok
    assert "subst-system" in again.failed_laws()
    assert again.format() == expected.format()
    assert [v.witness for v in violations(again)] == [v.witness for v in violations(expected)]


# ---------------------------------------------------------------------------
# the flat comparison of composites_equal on functors of real systems


@functools.cache
def _real_sites():
    """For each of group-s3, and nat-e and b_to_e(finset-b) at heights
    2-4: the system and the sides (g1, f1, g2, f2) of every
    composites_equal call made while validating it."""
    systems = [build_group_structure(*s3_table())]
    for h in (2, 3, 4):
        systems += [build_nat_esystem(h), b_to_e(build_finset_bsystem(h))]
    real = esys.composites_equal
    out = []
    for e in systems:
        sites = []

        def record(g1, f1, g2, f2, slices, key=None, sites=sites):
            sites.append((g1, f1, g2, f2))
            return real(g1, f1, g2, f2, slices, key)

        esys.composites_equal = record
        try:
            validate_esystem(e)
        finally:
            esys.composites_equal = real
        out.append((e, sites))
    return out


def _copy_sf(F):
    return SliceFunctorT(
        F.source_apex,
        F.target_apex,
        obj_map=dict(F.obj_map),
        mor_map=dict(F.mor_map),
        term_map={k: dict(tm) for k, tm in F.term_map.items()},
    )


def _damage(draw, e, F):
    """A copy of F with one entry dropped or changed, a term key outside
    T, or a different apex; an unchanged copy where the drawn damage has
    no entry to act on."""
    F = _copy_sf(F)
    cat = e.cat
    kind = draw(
        st.sampled_from(
            ["drop-obj", "drop-mor", "drop-term", "drop-table", "obj-value", "mor-value",
             "term-value", "term-key", "source-apex", "target-apex"]
        )
    )
    tables = sorted(k for k, tm in F.term_map.items() if tm)
    if kind == "drop-obj" and F.obj_map:
        del F.obj_map[draw(st.sampled_from(sorted(F.obj_map)))]
    elif kind == "drop-mor" and F.mor_map:
        del F.mor_map[draw(st.sampled_from(sorted(F.mor_map)))]
    elif kind == "drop-table" and F.term_map:
        del F.term_map[draw(st.sampled_from(sorted(F.term_map)))]
    elif kind == "drop-term" and tables:
        tm = F.term_map[draw(st.sampled_from(tables))]
        del tm[draw(st.sampled_from(sorted(tm)))]
    elif kind == "obj-value" and F.obj_map:
        x = draw(st.sampled_from(sorted(F.obj_map)))
        F.obj_map[x] = draw(st.sampled_from([*sorted(cat.arrows_into(F.target_apex)), "zz"]))
    elif kind == "mor-value" and F.mor_map:
        m = draw(st.sampled_from(sorted(F.mor_map)))
        F.mor_map[m] = draw(st.sampled_from(sorted(cat.arrows)))
    elif kind == "term-value" and tables:
        k = draw(st.sampled_from(tables))
        t = draw(st.sampled_from(sorted(F.term_map[k])))
        F.term_map[k][t] = draw(st.sampled_from(sorted(set().union(*e.tc.terms.values()))))
    elif kind == "term-key" and F.term_map:
        k = draw(st.sampled_from(sorted(F.term_map)))
        F.term_map[k]["not-a-term"] = draw(st.sampled_from(sorted(e.T(F.mor_map.get(k, k[0])) or {"x"})))
    elif kind in ("source-apex", "target-apex"):
        apex = draw(st.sampled_from(sorted(cat.objects)))
        if kind == "source-apex":
            F.source_apex = apex
        else:
            F.target_apex = apex
    return F


@st.composite
def _damaged_sites(draw):
    # indices, not sampled_from: labelling a long list of tables is slow
    e, sites = _real_sites()[draw(st.integers(0, len(_real_sites()) - 1))]
    sides = list(sites[draw(st.integers(0, len(sites) - 1))])
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, F in enumerate(sides) if F is not None]))
        sides[i] = _damage(draw, e, sides[i])
    return e, sides


def test_composites_equal_matches_reference_on_damaged_real_functors(monkeypatch):
    """The flat comparison agrees with building both composites, on the
    functors of real systems with at most one entry damaged, and both its
    equal-tuple path and its fallback are taken."""
    paths = collections.Counter()
    real_sf_equal = esys.sf_equal

    def counted(f, g):
        paths["fallback"] += 1
        return real_sf_equal(f, g)

    monkeypatch.setattr(esys, "sf_equal", counted)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_damaged_sites())
    def run(site):
        e, sides = site
        before = paths["fallback"]
        assert composites_equal(*sides, esys._Slices(e)) == _reference(*sides)
        if paths["fallback"] == before:
            paths["tuple"] += 1

    run()
    assert paths["tuple"] > 0 and paths["fallback"] > 0


def _two_slices(with_u: bool):
    """An E-system with no terms on two objects a, b: the slices over a
    and b have 3 cells each, or, with an arrow u: a -> b, 3 and 6."""
    arrows = {"1a": Arrow("1a", "a", "a"), "1b": Arrow("1b", "b", "b")}
    compose = {("1a", "1a"): "1a", ("1b", "1b"): "1b"}
    if with_u:
        arrows["u"] = Arrow("u", "a", "b")
        compose.update({("u", "1a"): "u", ("1b", "u"): "u"})
    cat = FinCat(frozenset({"a", "b"}), arrows, {"a": "1a", "b": "1b"}, compose)
    return ESystem(tc=TermCat(cat=cat))


def test_composites_equal_reads_tuples_over_their_own_cells():
    # equal tuples over different source cells are different functors
    e = _two_slices(with_u=False)
    over_a = SliceFunctorT("a", "a", obj_map={"1a": "1a"})
    over_b = SliceFunctorT("b", "a", obj_map={"1b": "1a"})
    assert composites_equal(over_a, None, over_b, None, esys._Slices(e)) == ([], 2, 0)
    # g∘f is not gathered where f lands in another slice than g starts in
    e = _two_slices(with_u=True)
    f = SliceFunctorT("a", "a", obj_map={"1a": "1a"})
    g = SliceFunctorT("b", "b", obj_map={"1b": "1b"})
    other = SliceFunctorT("a", "b", obj_map={"1a": "1b"})
    assert composites_equal(g, f, other, None, esys._Slices(e)) == ([], 1, 0)
    assert composites_equal(g, f, other, None, esys._Slices(e)) == _reference(g, f, other, None)
    # over an apex that is no object, a form has the absent cell only
    nowhere = SliceFunctorT("c", "c")
    assert composites_equal(nowhere, nowhere, nowhere, nowhere, esys._Slices(e)) == ([], 0, 0)


def test_composites_equal_counts_term_tables_without_morphisms():
    """A term table is representable only at a morphism: an empty table
    dropped, or one added where there is no morphism, is a skip."""
    e = build_nat_esystem(2)
    W = e.weak[nat_arrow(0, 0)]
    empty = next(k for k, tm in sorted(W.term_map.items()) if not tm)
    dropped = _copy_sf(W)
    del dropped.term_map[empty]
    assert composites_equal(W, None, dropped, None, esys._Slices(e)) == _reference(W, None, dropped, None)
    assert composites_equal(W, None, dropped, None, esys._Slices(e))[1] == 1
    extra = _copy_sf(W)
    del extra.mor_map[empty]
    assert composites_equal(extra, None, dropped, None, esys._Slices(e)) == _reference(extra, None, dropped, None)
    assert composites_equal(extra, None, dropped, None, esys._Slices(e))[1] == 2


def _count_case(monkeypatch, e, lhs, rhs):
    """composites_equal of two single functors, checked against the
    reference, with the number of sf_equal calls it made."""
    calls = []
    real = esys.sf_equal
    monkeypatch.setattr(esys, "sf_equal", lambda f, g: calls.append(1) or real(f, g))
    got = composites_equal(lhs, None, rhs, None, esys._Slices(e))
    assert got == _reference(lhs, None, rhs, None)
    return got, len(calls)


def _weak_with_two_terms():
    """nat-e h3, and a weakening with a morphism m whose term table has at
    least two entries, each with another term of its target set."""
    e = build_nat_esystem(3)
    W = e.weak[nat_arrow(0, 0)]
    m = next(
        k for k, tm in sorted(W.term_map.items())
        if len(tm) >= 2 and len(e.T(W.mor_map[k])) > 1
    )
    return e, W, m


def test_count_rule_object_on_one_side(monkeypatch):
    e, W, _m = _weak_with_two_terms()
    x = sorted(W.obj_map)[-1]
    # drop x's morphisms on both sides, so only the object differs
    both = _copy_sf(W)
    for k in [k for k in both.mor_map if x in k[1:]]:
        del both.mor_map[k], both.term_map[k]
    one = _copy_sf(both)
    del one.obj_map[x]
    got, fallbacks = _count_case(monkeypatch, e, both, one)
    assert got[:2] == ([], 1) and fallbacks == 0


def test_count_rule_morphism_on_one_side(monkeypatch):
    e, W, m = _weak_with_two_terms()
    one = _copy_sf(W)
    del one.mor_map[m], one.term_map[m]
    got, fallbacks = _count_case(monkeypatch, e, W, one)
    # its mor_map entry and its term table, not its len(W.term_map[m]) slots
    assert got[:2] == ([], 2) and fallbacks == 0


def test_count_rule_slot_under_shared_morphism(monkeypatch):
    e, W, m = _weak_with_two_terms()
    one = _copy_sf(W)
    del one.term_map[m][sorted(one.term_map[m])[0]]
    got, fallbacks = _count_case(monkeypatch, e, one, W)
    assert got[:2] == ([], 1) and fallbacks == 0


def test_count_rule_present_cells_that_differ_take_the_witness_path(monkeypatch):
    e, W, m = _weak_with_two_terms()
    changed = _copy_sf(W)
    tm = changed.term_map[m]
    for t in sorted(tm)[:2]:
        tm[t] = sorted(e.T(W.mor_map[m]) - {tm[t]})[0]
    got, fallbacks = _count_case(monkeypatch, e, W, changed)
    assert fallbacks == 1
    assert got[0] == sorted(got[0]) and len(got[0]) == 2


def _one_sided_paths(lhs, rhs) -> set[str]:
    """The slot paths of _one_sided that two forms over the same cells
    take: a differing slot under a morphism present on the left only
    ("left-only run", counted by one count over its run) or on the right
    only ("right-only run", skipped), and one under a morphism both sides
    have ("shared run", walked; "shared run, both present" where its two
    cells are present and differ)."""
    src, tgt, L = lhs
    R = rhs[2]
    absent = tgt.absent
    owner = cell_owners(src)
    out = set()
    for i in itertools.compress(range(len(L)), map(operator.ne, L, R)):
        m = owner[i]
        if m < 0 or m == i:
            continue
        if R[m] == absent:
            out.add("left-only run")
        elif L[m] == absent:
            out.add("right-only run")
        else:
            out.add("shared run")
            if L[i] != absent and R[i] != absent:
                out.add("shared run, both present")
    return out


def _checked_one_sided(monkeypatch) -> collections.Counter:
    """Check every _one_sided call against one_sided_reference, and count
    the calls and the slot paths their forms take."""
    seen = collections.Counter()
    real = esys._one_sided

    def checked(lhs, rhs):
        got = real(lhs, rhs)
        assert got == one_sided_reference(lhs, rhs)
        seen["calls"] += 1
        seen.update(_one_sided_paths(lhs, rhs))
        return got

    monkeypatch.setattr(esys, "_one_sided", checked)
    return seen


# each system, and the slot paths its validation takes: on the lawful
# ones a slot differs only under a morphism present on one side
_ONE_SIDED_SITES = {
    "group-s3": (lambda: build_group_structure(*s3_table()), {"shared run", "shared run, both present"}),
    **{
        f"nat-e-h{h}": (lambda h=h: build_nat_esystem(h), {"left-only run", "right-only run"})
        for h in (5, 6)
    },
    **{
        f"b2e-finset-b-h{h}": (
            lambda h=h: b_to_e(build_finset_bsystem(h)),
            {"left-only run", "right-only run"},
        )
        for h in (5, 6)
    },
}


@pytest.mark.parametrize("make, paths", list(_ONE_SIDED_SITES.values()), ids=list(_ONE_SIDED_SITES))
def test_one_sided_matches_reference_in_validations(monkeypatch, make, paths):
    seen = _checked_one_sided(monkeypatch)
    validate_esystem(make())
    assert seen.pop("calls") > 0
    assert set(seen) == paths


def test_one_sided_matches_reference_on_composite_pairs(monkeypatch):
    """Sub-functors of identities reach every slot path, a differing slot
    under a morphism both sides have included."""
    seen = _checked_one_sided(monkeypatch)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_composite_pairs(shapes=("flat",)))
    def run(sides):
        assert composites_equal(*sides, esys._Slices(_E)) == _reference(*sides)

    run()
    assert all(seen[path] > 0 for path in (
        "left-only run", "right-only run", "shared run", "shared run, both present"
    ))


_NO_FALLBACK = {
    **{f"nat-e-h{h}": lambda h=h: build_nat_esystem(h) for h in (3, 4, 5, 6)},
    **{f"b2e-finset-b-h{h}": lambda h=h: b_to_e(build_finset_bsystem(h)) for h in (3, 4, 5, 6)},
}


def _fallbacks(monkeypatch, e):
    """The compose_sf calls and the sf_equal results of validate_esystem(e)."""
    built, results = [], []
    real_compose, real_equal = esys.compose_sf, esys.sf_equal
    monkeypatch.setattr(esys, "compose_sf", lambda *a: built.append(1) or real_compose(*a))
    monkeypatch.setattr(esys, "sf_equal", lambda f, g: results.append(real_equal(f, g)) or results[-1])
    validate_esystem(e)
    return len(built), results


@pytest.mark.parametrize("make", list(_NO_FALLBACK.values()), ids=list(_NO_FALLBACK))
def test_validation_builds_no_composite_without_a_witness(monkeypatch, make):
    assert _fallbacks(monkeypatch, make()) == (0, [])


def test_group_s3_builds_composites_only_for_witnesses(monkeypatch):
    built, results = _fallbacks(monkeypatch, build_group_structure(*s3_table()))
    assert results and all(bad for bad, _s, _c in results)
    assert built <= 2 * len(results)


def _corrupt_weak_term(e):
    """Change one term image of a weakening W_A, A not an identity, to
    another term of the same target set."""
    for A, F in sorted(e.weak.items()):
        if e.cat.is_id(A):
            continue
        for k in sorted(F.term_map):
            img, tm = F.mor_map.get(k), F.term_map[k]
            if img is not None and tm and len(e.T(img)) > 1:
                t = sorted(tm)[0]
                tm[t] = sorted(e.T(img) - {tm[t]})[0]
                return
    raise AssertionError("no term image to corrupt")


def test_flat_forms_do_not_outlive_the_call():
    e = build_nat_esystem(4)
    first = validate_esystem(e)
    _corrupt_weak_term(e)
    again = validate_esystem(e)
    fresh = build_nat_esystem(4)
    _corrupt_weak_term(fresh)
    expected = validate_esystem(fresh)
    assert again.format() != first.format()
    assert again.format() == expected.format()
    assert [v.witness for v in violations(again)] == [v.witness for v in violations(expected)]


# ---------------------------------------------------------------------------
# value numbers and the comparison memo of _Slices


def test_composites_equal_memo_matches_reference_on_damaged_systems(memo):
    """nat-e and b_to_e(finset-b) at heights 2-4, damaged once."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(_damaged_systems(first=1))
    def run(e):
        validate_esystem(e)

    run()
    assert 0 < memo["hits"] < memo["calls"]


# the laws of _ehom_parts for a substitution S_x and a weakening W_A
_S_LAWS = ("subst-system", "e-axiom-1", "e-axiom-1")
_W_LAWS = ("e-axiom-2", "weak-system", "proj-system")


@pytest.fixture
def tallies(monkeypatch):
    """Run every validate_sfunctor and _ehom_parts call of a validation on
    a fresh report beside its reference, and require the same laws, in the
    same order, with the same checks, skips and witnesses. The reference of
    an _ehom_parts call is ehom_part_reference for the three (condition,
    law) pairs in turn, on one report. Counts the calls, those on a
    functor with an object image that is no arrow, and each detail of
    validate_sfunctor's witnesses."""
    seen = collections.Counter()
    real_sfunctor, real_parts = esys.validate_sfunctor, esys._ehom_parts

    def same(run, reference):
        got, want = Report(), Report()
        run(got)
        reference(want)
        assert list(got.laws.items()) == list(want.laws.items())
        return got

    def sfunctor(e, F, rep, law):
        got = same(lambda r: real_sfunctor(e, F, r, law), lambda r: validate_sfunctor_reference(e, F, r, law))
        seen["sfunctor"] += 1
        seen.update(v.detail for res in got.laws.values() for v in res.violations)
        seen["sfunctor image no arrow"] += any(y not in e.cat.arrows for y in F.obj_map.values())
        real_sfunctor(e, F, rep, law)

    def parts(slices, H, rep, laws):
        def reference(r):
            for kind, law in zip(("sub", "weak", "proj"), laws):
                ehom_part_reference(slices.e, H, kind, r, law)

        same(lambda r: real_parts(slices, H, r, laws), reference)
        seen[laws] += 1
        seen["parts image no arrow"] += any(y not in slices.e.cat.arrows for y in H.obj_map.values())
        real_parts(slices, H, rep, laws)

    monkeypatch.setattr(esys, "validate_sfunctor", sfunctor)
    monkeypatch.setattr(esys, "_ehom_parts", parts)
    return seen


@pytest.mark.parametrize("site", range(7))
def test_tallied_laws_match_reference_in_validations(tallies, site):
    """group-s3, and nat-e and b_to_e(finset-b) at heights 2-4."""
    validate_esystem(_real_sites()[site][0])
    assert tallies["sfunctor"] and tallies[_S_LAWS] and tallies[_W_LAWS]


def test_tallied_laws_match_reference_on_damaged_systems(tallies):
    """nat-e and b_to_e(finset-b) at heights 2-4, damaged once."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(_damaged_systems(first=1))
    def run(e):
        validate_esystem(e)

    run()
    assert tallies["sfunctor"] and tallies[_S_LAWS]
    # _damage's obj-value draws an image that is no arrow
    assert tallies["sfunctor image no arrow"] and tallies["parts image no arrow"]
    # maps that fail their containment tests are walked entry by entry
    for detail in ("object map endpoints wrong", "term map key not a term", "term image outside target term set"):
        assert tallies[detail], detail


# ---------------------------------------------------------------------------
# one walk per flat-form number in validate_esystem

_REFERENCE_SITES = {
    "group-s3": lambda: build_group_structure(*s3_table()),
    **{f"nat-e-h{h}": lambda h=h: build_nat_esystem(h) for h in range(7)},
    **{f"b2e-finset-b-h{h}": lambda h=h: b_to_e(build_finset_bsystem(h)) for h in range(7)},
    **{f"ce2e-finset-ce-h{h}": lambda h=h: ce_to_e(build_finset_cesystem(h)) for h in (1, 2, 3)},
}


def _same_as_reference(e):
    got, want = validate_esystem(e), validate_esystem_reference(e)
    assert list(got.laws.items()) == list(want.laws.items())
    return got


@pytest.mark.parametrize("make", list(_REFERENCE_SITES.values()), ids=list(_REFERENCE_SITES))
def test_validate_esystem_matches_reference(make):
    """Every law, its counts and its full violation list, in order."""
    _same_as_reference(make())


def test_validate_esystem_matches_reference_on_damaged_systems():
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_damaged_systems())
    def run(e):
        _same_as_reference(e)

    run()


@pytest.fixture
def walks(monkeypatch):
    """The number of each functor _ehom_walk walks, with its result, and
    each (number, law) validate_sfunctor runs on, in call order."""
    seen = {"ehom": [], "sfunctor": []}
    real_walk, real_sfunctor = esys._ehom_walk, esys.validate_sfunctor
    numbering: dict[int, esys._Slices] = {}  # id(e) -> one _Slices for the test

    def walk(slices, H):
        out = real_walk(slices, H)
        seen["ehom"].append((slices.number(H), out))
        return out

    def sfunctor(e, F, rep, law):
        if id(e) not in numbering:
            numbering[id(e)] = esys._Slices(e)
        seen["sfunctor"].append((numbering[id(e)].number(F), law))
        real_sfunctor(e, F, rep, law)

    monkeypatch.setattr(esys, "_ehom_walk", walk)
    monkeypatch.setattr(esys, "validate_sfunctor", sfunctor)
    return seen


def _forms(e):
    """The number of each substitution and weakening of e, in one _Slices."""
    slices = esys._Slices(e)
    return {("S",) + key: slices.number(F) for key, F in e.subst.items()} | {
        ("W", key): slices.number(F) for key, F in e.weak.items()
    }


@pytest.mark.parametrize("make, expected", [
    (lambda: build_group_structure(*s3_table()), 6),
    (lambda: build_nat_esystem(4), 22),
], ids=["group-s3", "nat-e-h4"])
def test_each_distinct_form_is_walked_once(walks, make, expected):
    """group-s3's 36 substitutions and 6 weakenings have 6 forms; nat-e
    h4's 32 functors have 22. A memo keyed by the functor object, or none,
    walks every functor."""
    e = make()
    forms = _forms(e)
    validate_esystem(e)
    walked = [n for n, _out in walks["ehom"]]
    assert len(walked) == len(set(walked)) == len(set(forms.values())) == expected < len(forms)
    # one validate_sfunctor per (form, family's law); a number is local to
    # its _Slices, so the counts, not the values, compare
    keys = {(n, key[0]) for key, n in forms.items()}
    assert len(walks["sfunctor"]) == len(set(walks["sfunctor"])) == len(keys)


def test_a_damaged_functor_gets_its_own_walk_and_its_form_replays_witnesses(walks):
    """One substitution of group-s3, in a form six other functors share,
    with one term image changed to another term: it gets a form and a
    walk of its own, and the six others still share one walk. The
    substitution-system witnesses its damage causes are walked once per
    form and entered for every functor of that form."""
    e = build_group_structure(*s3_table())
    key = sorted(e.subst)[7]
    before = _forms(e)
    group = [k for k, n in before.items() if n == before[("S",) + key] and k != ("S",) + key]
    assert len(group) == 6
    F = _copy_sf(e.subst[key])
    m = sorted(F.term_map)[0]
    t = sorted(F.term_map[m])[0]
    F.term_map[m][t] = sorted(e.T(F.mor_map[m]) - {F.term_map[m][t]})[0]
    damaged = dataclasses.replace(e, subst={**e.subst, key: F})
    forms = _forms(damaged)
    assert list(forms.values()).count(forms[("S",) + key]) == 1
    assert len({forms[k] for k in group}) == 1
    assert list(forms.values()).count(forms[group[0]]) == 6
    rep = _same_as_reference(damaged)
    assert len(walks["ehom"]) == len(set(forms.values())) == 7
    walked_witnesses = sum(len(parts[0][2]) for _n, (parts, _shared) in walks["ehom"])
    assert 0 < walked_witnesses < len(rep.laws["subst-system"].violations)


def test_equal_tuples_over_different_cells_get_different_numbers():
    e = _two_slices(with_u=False)
    over_a = SliceFunctorT("a", "a", obj_map={"1a": "1a"})
    over_b = SliceFunctorT("b", "a", obj_map={"1b": "1a"})
    slices = esys._Slices(e)
    na, nb = slices.number(over_a), slices.number(over_b)
    assert slices._forms[na][2] == slices._forms[nb][2]
    assert na != nb
    # the same tables in another functor object get the same number
    assert slices.number(_copy_sf(over_a)) == na


def test_memo_is_dropped_with_the_restrictions_of_its_functor(monkeypatch):
    """Across validate_esystem(nat-e h4), whenever the restricted functor
    changes: no result, form or number made through the old functor's
    restrictions is held any longer, every number still held has its
    form, and a result is held only while its four numbers are. The
    results kept for the call stay, and each has four kept numbers."""
    drops = 0
    real_drop = esys._Slices._drop_restrictions

    def holding(slices):
        return {n for _F, n in slices._numbered.values() if n is not None}

    def drop(slices):
        nonlocal drops
        old = [R for R in slices._restrictions.values() if R is not None]
        lasting = dict(slices.lasting)
        assert all(n in slices._forms for key in [*slices.diffs, *lasting] for n in key if n >= 0)
        real_drop(slices)
        drops += 1
        assert not slices.diffs and not slices._scoped
        assert set(slices._forms) == set(slices._kept.values())
        assert holding(slices) <= set(slices._forms)
        assert not any(F is R for F, _n in slices._numbered.values() for R in old)
        # the call-lived memo is left alone, and holds only kept numbers
        assert slices.lasting == lasting
        assert slices.kept_numbers == set(slices._kept.values()) | {-1}
        assert all(slices.kept_numbers.issuperset(key) for key in slices.lasting)

    monkeypatch.setattr(esys._Slices, "_drop_restrictions", drop)
    assert validate_esystem(build_nat_esystem(4)).ok
    assert drops > 10


def test_a_restriction_at_a_reused_id_is_numbered_afresh():
    """Restrictions of one functor after another, each dropped with its
    functor: one made at the address of a dropped one gets the number of
    its own form, never the number of the old one."""
    e = build_nat_esystem(4)
    slices = esys._Slices(e)
    numbers: dict[int, int] = {}  # id of a dropped restriction -> its number
    reused = 0
    for A in sorted(e.weak):
        made = {}
        for P in sorted(e.cat.arrows):
            R = slices.restrict(e.weak[A], P)
            if R is None:
                continue
            n = slices.number(R)
            src, tgt, cells = slices._forms[n]
            assert cells == esys._flatten(R, src, tgt)
            assert composites_equal(R, None, R, None, slices) == _reference(R, None, R, None)
            if id(R) in numbers:
                reused += 1
                assert n != numbers[id(R)]
            made[id(R)] = n
            del R
        numbers.update(made)
    assert reused > 0


def test_a_form_first_met_through_a_restriction_keeps_its_number_for_the_call():
    """The identity on the slice over 0 restricted at 1_0 is that identity
    again: numbered first as a restriction, its number outlives the
    restriction once the identity itself has been numbered."""
    e = build_nat_esystem(3)
    slices = esys._Slices(e)
    ident = slices.identity("0")
    n = slices.number(slices.restrict(ident, nat_arrow(0, 0)))
    assert slices.number(ident) == n
    assert slices.restrict(e.weak[nat_arrow(1, 0)], nat_arrow(1, 0)) is not None  # drops the first
    assert slices.number(ident) == n and n in slices._forms
    assert composites_equal(ident, None, ident, None, slices) == _reference(ident, None, ident, None)


def test_ehom_memo_does_not_outlive_the_call():
    """validate_ehom reads a target substitution changed between two calls afresh."""
    hom = _b2e_to_nat_hom(3)
    first = validate_ehom(hom)
    _corrupt_term(hom.target)
    again = validate_ehom(hom)
    fresh = _b2e_to_nat_hom(3)
    _corrupt_term(fresh.target)
    expected = validate_ehom(fresh)
    assert first.ok and not again.ok
    assert again.format() == expected.format()
    assert [v.witness for v in violations(again)] == [v.witness for v in violations(expected)]


def _damaged_ehom(h: int, damage: str | None) -> EHom:
    """_b2e_to_nat_hom(h) with one kind of damage: a target substitution
    term retargeted (subst-term), two term images of the homomorphism
    swapped (hom-term), a source or target weakening dropped
    (source-weak, target-weak), or the object 1@1 left unmapped."""
    hom = _b2e_to_nat_hom(h)
    if damage == "subst-term":
        _corrupt_term(hom.target)
    elif damage == "hom-term":
        tm = hom.term_map["3@3>1"]
        tm["(0)"], tm["(1)"] = tm["(1)"], tm["(0)"]
    elif damage == "source-weak":
        del hom.source.weak["2@2>0"]
    elif damage == "target-weak":
        del hom.target.weak["2>=1"]
    elif damage == "unmapped":
        del hom.functor.object_map["1@1"]
    return hom


@pytest.mark.parametrize("h, damage", list(PINS), ids=[f"h{h}-{d or 'sound'}" for h, d in PINS])
def test_validate_ehom_matches_its_pinned_report(h, damage):
    rep = validate_ehom(_damaged_ehom(h, damage))
    lines, witnesses = PINS[(h, damage)]
    assert rep.format().splitlines() == lines
    assert [v.witness for v in violations(rep)] == witnesses


@pytest.mark.parametrize("h", [3, 4, 5])
def test_damage_skips_preservation_instances_without_dropping_them(h):
    """Each preserve-* law has the same instances whatever the damage; a
    damaged instance is skipped, never left uncounted."""
    laws = ("preserve-sub", "preserve-weak", "preserve-proj")
    sound = validate_ehom(_damaged_ehom(h, None))
    for damage in ("subst-term", "hom-term", "source-weak", "target-weak", "unmapped"):
        rep = validate_ehom(_damaged_ehom(h, damage))
        assert [rep.laws[law].checked for law in laws] == [
            sound.laws[law].checked for law in laws
        ], damage


# ---------------------------------------------------------------------------
# restrictions through one plan per slice object


def _sf_tables(F) -> tuple:
    return (F.source_apex, F.target_apex, F.obj_map, F.mor_map, F.term_map)


def _reference_restriction(cat, F, P):
    try:
        return _sf_tables(restrict_sf_reference(ESystem(tc=TermCat(cat=cat)), F, P))
    except Truncated as exc:
        return Truncated, exc.what


@pytest.fixture
def restrictions(monkeypatch):
    """Compare every restriction made through esys.restrict_sf, called
    directly or within a validation, with restrict_sf_reference: the
    same tables, or None where the reference raises Truncated. Returns
    the count of each outcome."""
    seen = collections.Counter()
    real, real_restrict = esys._restrict, esys.restrict_sf

    def checked(cat, plan, F):
        R = real(cat, plan, F)
        assert _sf_tables(R) == _reference_restriction(cat, F, plan[0])
        seen["restricted"] += 1
        return R

    def checked_missing(e, F, P):
        R = real_restrict(e, F, P)
        if R is None:
            assert _reference_restriction(e.cat, F, P)[0] is Truncated
            seen["None"] += 1
        return R

    monkeypatch.setattr(esys, "_restrict", checked)
    monkeypatch.setattr(esys, "restrict_sf", checked_missing)
    return seen


@pytest.mark.parametrize("site", range(7))
def test_restrictions_match_reference_in_validations(restrictions, site):
    """group-s3, and nat-e and b_to_e(finset-b) at heights 2-4: every
    restriction validate_esystem makes; and validate_ehom of the
    isomorphism b_to_e(finset-b) -> nat-e at the same height, which
    restricts nothing today, so any restriction it comes to make is
    compared too."""
    e, _sites = _real_sites()[site]
    validate_esystem(e)
    assert restrictions["restricted"] > 0
    if site:
        validate_ehom(_b2e_to_nat_hom((site + 3) // 2))


def test_standalone_restrictions_match_reference(restrictions):
    """restrict_sf itself, at every slice object of every functor of
    nat-e h3, and at names that are no arrow."""
    e = build_nat_esystem(3)
    for F in [*e.subst.values(), *e.weak.values()]:
        for P in [*e.cat.arrows, "zz"]:
            esys.restrict_sf(e, F, P)
    assert restrictions["restricted"] > 0 and restrictions["None"] > 0


def _damaged_system(draw, e):
    """A copy of e with one functor damaged (see _damage), or one composite
    of its category dropped or retargeted to another arrow or a non-arrow."""
    subst, weak = dict(e.subst), dict(e.weak)
    cat = e.cat
    if draw(st.booleans()):
        family = subst if draw(st.booleans()) or not weak else weak
        key = draw(st.sampled_from(sorted(family)))
        family[key] = _damage(draw, e, family[key])
    else:
        compose = dict(cat.compose)
        key = draw(st.sampled_from(sorted(compose)))
        value = draw(st.sampled_from([None, "zz", *sorted(cat.arrows)]))
        if value is None:
            del compose[key]
        else:
            compose[key] = value
        cat = dataclasses.replace(cat, compose=compose)
    return ESystem(
        tc=TermCat(cat=cat, terms=e.tc.terms), subst=subst, weak=weak, proj=e.proj, levels=e.levels
    )


@st.composite
def _damaged_systems(draw, first=0):
    """A damaged copy of one of _real_sites()[first:]."""
    e, _sites = _real_sites()[draw(st.integers(first, len(_real_sites()) - 1))]
    return _damaged_system(draw, e)


def test_restrictions_match_reference_on_damaged_systems(restrictions):
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_damaged_systems())
    def run(e):
        validate_esystem(e)

    run()
    assert restrictions["restricted"] > 0


def test_built_tables_are_read_only_and_a_damaged_copy_validates_afresh():
    """Writing into a built table raises TypeError and setting a field
    raises FrozenInstanceError. A damaged copy of a category that has
    been validated, and so holds its slices, validates like a damaged
    copy of a freshly built one."""
    e = build_nat_esystem(4)
    first = validate_esystem(e)
    cat = e.cat
    key = (nat_arrow(1, 0), nat_arrow(2, 1))
    for table in (cat.arrows, cat.identity, cat.compose):
        with pytest.raises(TypeError):
            table[key] = nat_arrow(2, 0)
        with pytest.raises(TypeError):
            del table[next(iter(table))]
    for f in dataclasses.fields(cat):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cat, f.name, getattr(cat, f.name))
    assert validate_esystem(e).format() == first.format()

    def damaged(e):
        return dataclasses.replace(e, tc=dataclasses.replace(e.tc, cat=with_compose(e.cat, drop=[key])))

    again = validate_esystem(damaged(e))
    assert again.format() != first.format()
    assert again.format() == validate_esystem(damaged(build_nat_esystem(4))).format()


def test_restrict_sf_at_a_slice_object_that_is_no_arrow_is_none():
    """A key of F.obj_map that is no arrow has no slice over it, also
    where it maps to an arrow; _restricted_at agrees."""
    e = build_nat_esystem(3)
    W = e.weak[nat_arrow(1, 0)]
    F = dataclasses.replace(W, obj_map={**W.obj_map, "ghost": W.obj_map[nat_arrow(1, 0)]})
    assert restrict_sf(e, F, "ghost") is None
    assert esys._restricted_at(e.cat, F, "ghost", nat_arrow(0, 0)) is None
    assert restrict_sf(e, F, nat_arrow(1, 0)) == restrict_sf(e, W, nat_arrow(1, 0))


# ---------------------------------------------------------------------------
# the x half of term_extension, read pointwise


def _reference_substitution(e, A, P, x):
    """_substitute_x_reference(e, A, P, x), or None where it raises
    Truncated: the live _substitute_x returns None there."""
    try:
        return _substitute_x_reference(e, A, P, x)
    except Truncated:
        return None


def _substitutions_match(e, substitutions=None) -> collections.Counter:
    """_substitute_x against _substitute_x_reference at every arrow P and
    every (A, x) of ``substitutions``, by default every arrow A and x in
    T(A): the same triple, or None where the reference raises Truncated.
    This includes every (A, P, x) check_pairing visits."""
    if substitutions is None:
        substitutions = [(A, x) for A in sorted(e.cat.arrows) for x in sorted(e.T(A))]
    seen = collections.Counter()
    for A, x in substitutions:
        for P in sorted(e.cat.arrows):
            got = esys._substitute_x(e, A, P, x)
            assert got == _reference_substitution(e, A, P, x), (A, P, x)
            seen["missing" if got is None else "found"] += 1
    return seen


@pytest.mark.parametrize(
    "build",
    [lambda: build_group_structure(*s3_table())]
    + [lambda h=h: build_nat_esystem(h) for h in (3, 4, 5, 6)]
    + [lambda h=h: b_to_e(build_finset_bsystem(h)) for h in (3, 4, 5, 6)],
    ids=["group-s3", *(f"nat-e h{h}" for h in (3, 4, 5, 6)), *(f"b_to_e finset-b h{h}" for h in (3, 4, 5, 6))],
)
def test_substitute_x_matches_reference(build):
    assert _substitutions_match(build())["found"] > 0


def _dropped_entries(F):
    """A copy of F for each obj_map, mor_map or term_map entry, and each
    term of a term table, with that one entry dropped."""
    for table in ("obj_map", "mor_map", "term_map"):
        for key in sorted(getattr(F, table)):
            G = _copy_sf(F)
            del getattr(G, table)[key]
            yield G
    for key, tm in sorted(F.term_map.items()):
        for t in sorted(tm):
            G = _copy_sf(F)
            del G.term_map[key][t]
            yield G


@pytest.mark.parametrize(
    "build",
    [lambda h=h: build_nat_esystem(h) for h in (3, 4)]
    + [lambda h=h: b_to_e(build_finset_bsystem(h)) for h in (3, 4)],
    ids=[*(f"nat-e h{h}" for h in (3, 4)), *(f"b_to_e finset-b h{h}" for h in (3, 4))],
)
def test_substitute_x_matches_reference_with_one_entry_dropped(build):
    """Each substitution functor with one entry dropped, and the category
    with one identity or composite dropped."""
    e = build()
    seen = collections.Counter()
    for (A, x), F in sorted(e.subst.items()):
        for G in _dropped_entries(F):
            seen += _substitutions_match(dataclasses.replace(e, subst={**e.subst, (A, x): G}), [(A, x)])
    cat = e.cat
    for table in ("identity", "compose"):
        for key in sorted(getattr(cat, table)):
            entries = dict(getattr(cat, table))
            del entries[key]
            tc = TermCat(cat=dataclasses.replace(cat, **{table: entries}), terms=e.tc.terms)
            seen += _substitutions_match(dataclasses.replace(e, tc=tc))
    assert seen["found"] > 0 and seen["missing"] > 0


def test_substitute_x_matches_reference_on_forged_composites():
    """Composites forged between arrows that do not compose, so that every
    key _substitute_x reads is present although (pos, pos, 1) is no slice
    morphism over dom(P): 1 retargeted to an arrow that is no endomorphism
    of dom(P), or pos to an arrow that is not into dom(P)."""
    e = build_nat_esystem(3)
    cat = e.cat
    A, P, x = next(
        (A, P, x)
        for A in sorted(cat.arrows)
        for P in sorted(cat.arrows)
        for x in sorted(e.T(A))
        if not cat.is_id(P) and _reference_substitution(e, A, P, x) is not None
    )
    AP, dP = cat.comp(A, P), cat.dom(P)
    pos, ident, sx = e.weak[AP].obj_map[AP], cat.identity[dP], e.subst[(A, x)]
    Ppos, P1 = cat.compose[(P, pos)], cat.compose[(P, ident)]
    forged = []
    for bad in sorted(cat.arrows):
        if cat.dom(bad) != dP or cat.cod(bad) != dP:
            c = dataclasses.replace(
                cat, identity={**cat.identity, dP: bad}, compose={**cat.compose, (bad, pos): pos, (P, bad): P1}
            )
            forged.append(dataclasses.replace(e, tc=TermCat(cat=c, terms=e.tc.terms)))
        if cat.cod(bad) != dP:
            c = dataclasses.replace(cat, compose={**cat.compose, (ident, bad): bad, (P, bad): Ppos})
            wap, sxf = _copy_sf(e.weak[AP]), _copy_sf(sx)
            wap.obj_map[AP] = bad
            sxf.mor_map[(bad, Ppos, P1)] = sx.mor_map[(pos, Ppos, P1)]
            sxf.term_map[(bad, Ppos, P1)] = sx.term_map[(pos, Ppos, P1)]
            forged.append(
                dataclasses.replace(
                    e, tc=TermCat(cat=c, terms=e.tc.terms), weak={**e.weak, AP: wap}, subst={**e.subst, (A, x): sxf}
                )
            )
    assert forged
    for f in forged:
        assert esys._substitute_x(f, A, P, x) is None
        assert _reference_substitution(f, A, P, x) is None


# ---------------------------------------------------------------------------
# check_pairing against its body with Truncated handlers

_PAIRING_BASES = {
    "group-s3": lambda: build_group_structure(*s3_table()),
    **{f"nat-e h{h}": lambda h=h: build_nat_esystem(h) for h in (2, 3, 4, 5)},
    **{f"b_to_e finset-b h{h}": lambda h=h: b_to_e(build_finset_bsystem(h)) for h in (2, 3, 4, 5)},
}


@functools.cache
def _pairing_base(name):
    return _PAIRING_BASES[name]()


@pytest.mark.parametrize("name", sorted(_PAIRING_BASES))
def test_check_pairing_matches_reference(name):
    e = _pairing_base(name)
    assert check_pairing(e).format() == check_pairing_reference(e).format()


@st.composite
def _pairing_damaged(draw):
    """The name of a system of _PAIRING_BASES up to height 4, and a copy
    of it with a substitution or weakening functor dropped, an identity
    term dropped, or one functor damaged by _damage."""
    name = draw(st.sampled_from(sorted(n for n in _PAIRING_BASES if not n.endswith("h5"))))
    e = _pairing_base(name)
    subst, weak, proj = dict(e.subst), dict(e.weak), dict(e.proj)
    kind = draw(st.sampled_from(["subst", "weak", "proj", "functor"]))
    if kind == "functor":
        family = subst if draw(st.booleans()) else weak
        key = draw(st.sampled_from(sorted(family)))
        family[key] = _damage(draw, e, family[key])
    else:
        table = {"subst": subst, "weak": weak, "proj": proj}[kind]
        del table[draw(st.sampled_from(sorted(table)))]
    return name, dataclasses.replace(e, subst=subst, weak=weak, proj=proj)


def test_check_pairing_matches_reference_on_damaged_systems():
    changed = []

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(_pairing_damaged())
    def run(case):
        name, e = case
        got = check_pairing(e).format()
        assert got == check_pairing_reference(e).format()
        changed.append(got != check_pairing(_pairing_base(name)).format())

    run()
    assert any(changed)


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


@pytest.mark.parametrize("name", ["nat-e h4", "b_to_e finset-b h4"])
def test_check_pairing_matches_reference_with_each_weakening_object_dropped(name):
    """Every object-map entry of every weakening functor dropped, and
    every identity term. Dropping W_P(W_A(A)) leaves the projections
    defined but no position for pr1, so the inverse stops at the first
    of the pairings."""
    e = _pairing_base(name)
    cases = [
        dataclasses.replace(e, weak={**e.weak, P: dataclasses.replace(F, obj_map=_without(F.obj_map, X))})
        for P, F in sorted(e.weak.items())
        for X in sorted(F.obj_map)
    ]
    cases += [dataclasses.replace(e, proj=_without(e.proj, A)) for A in sorted(e.proj)]
    want = check_pairing(e).format()
    changed = 0
    for f in cases:
        got = check_pairing(f).format()
        assert got == check_pairing_reference(f).format()
        changed += got != want
    assert changed
