import pytest

from bcsys.bsys import (
    BFrameHom,
    BSystem,
    bhom_eq,
    build_finset_bsystem,
    compose_bhom,
    validate_bsystem,
    validate_bsystem_hom,
)
from bcsys.cesys import build_finset_cesystem, validate_ce_hom, validate_cesystem
from bcsys.core import (
    FunctorData,
    obj_id,
    pack_ids,
    path_id,
)
from bcsys.csys import validate_csystem
from bcsys.esys import (
    EHom,
    ESystem,
    build_nat_esystem,
    check_pairing,
    fn_term,
    nat_arrow,
    validate_ehom,
    validate_esystem,
)
from bcsys.xlate import (
    adjunction_witnesses,
    b_roundtrip_iso,
    b_to_e,
    c_to_ce,
    casce_iso,
    ce_to_c,
    ce_to_e,
    compose_equivalence,
    e_to_b,
    e_to_ce,
    grand_roundtrip_iso,
    invert_ehom,
)

from helpers import b_image, counit_of, parse_obj_id, parse_path_id, unit_of, unpack_ids
from reference import adjunction_witnesses_reference
from test_csys_cesys import non_rooted_cesystem


def test_b_to_e_term_counts():
    e = b_to_e(build_finset_bsystem(4))
    for n in range(5):
        for k in range(5 - n):
            a = path_id(n + k, str(n + k), k)
            expected = 1 if k == 0 else n ** k
            assert len(e.T(a)) == expected, a


def test_b_to_e_validates():
    for h in (2, 3, 4):
        rep = validate_esystem(b_to_e(build_finset_bsystem(h)))
        assert not rep.failed_laws(), rep.format()
        assert not rep.missing_laws()


def test_b_to_e_identity_term_base_is_delta():
    b = build_finset_bsystem(3)
    e = b_to_e(b)
    # 1_{(X,1)} = delta(X) for X = 2 in B_2
    one = e.proj[path_id(2, "2", 1)]
    assert unpack_ids(one) == (b.gen[(2, "2")],)


def test_b_to_e_height_zero_is_terminal_esystem():
    e = b_to_e(build_finset_bsystem(0))
    assert len(e.cat.objects) == 1
    assert len(e.cat.arrows) == 1
    rep = validate_esystem(e)
    assert rep.ok, rep.format()


def test_e_to_b_of_nat():
    e = build_nat_esystem(3)
    b = e_to_b(e)
    rep = validate_bsystem(b)
    assert rep.ok, rep.format()
    assert [len(s) for s in b.frame.B] == [1, 1, 1, 1]
    assert [len(s) for s in b.frame.Bt] == [0, 0, 1, 2]  # |B~_{n+1}| = n


def test_e_to_b_delta_matches_finset_generic_element():
    b = e_to_b(build_nat_esystem(3))
    X, one = unpack_ids(b.gen[(2, "2")])
    assert X == "3"
    assert one == fn_term((1,))  # the final-segment value, i.e. delta_1 = 1


def test_e_to_b_terminal_esystem():
    b = e_to_b(build_nat_esystem(0))
    assert b.frame.height == 0
    assert validate_bsystem(b).ok


def test_b_roundtrip_iso_heights():
    for h in (2, 3, 4):
        b = build_finset_bsystem(h)
        iso = b_roundtrip_iso(b, b_image(b))
        assert iso.verified, iso.report.format()


def test_b_roundtrip_height_zero_identity():
    b = build_finset_bsystem(0)
    iso = b_roundtrip_iso(b, b_image(b))
    assert iso.verified
    assert iso.forward.H[0] == {"0": "0@0"}


def b2e_of_bhom(h: BFrameHom, src_e: ESystem, tgt_e: ESystem) -> EHom:
    """Transport a homomorphism of B-systems to the translated E-systems."""
    object_map = {}
    arrow_map = {}
    term_map: dict[str, dict[str, str]] = {}
    for n, hm in h.H.items():
        for X, Y in hm.items():
            object_map[obj_id(n, X)] = obj_id(n, Y)
            for k in range(n + 1):
                if X in h.source.B[n]:
                    arrow_map[path_id(n, X, k)] = path_id(n, Y, k)
    for a in src_e.cat.arrows:
        n, X, k = parse_path_id(a)
        tm = {}
        for t in src_e.T(a):
            tup = unpack_ids(t)
            lvl = n - k + 1
            comp_map = h.Ht.get(lvl, {})
            if all(c in comp_map for c in tup):
                tm[t] = pack_ids(tuple(comp_map[c] for c in tup))
        term_map[a] = tm
    return EHom(
        source=src_e,
        target=tgt_e,
        functor=FunctorData(src_e.cat, tgt_e.cat, object_map, arrow_map),
        term_map=term_map,
    )


def b_hom_from_e_hom(k: EHom, src_b: BSystem, tgt_b: BSystem) -> BFrameHom:
    """Reconstruct the B-system homomorphism inducing a stratified E-hom.

    The object part reads levels off the object ids; the term part is the
    action on singleton term tuples.
    """
    H: dict[int, dict[str, str]] = {}
    Ht: dict[int, dict[str, str]] = {}
    for o, o1 in k.functor.object_map.items():
        n, X = parse_obj_id(o)
        n1, X1 = parse_obj_id(o1)
        H.setdefault(n, {})[X] = X1
    for a, tm in k.term_map.items():
        n, X, kk = parse_path_id(a)
        if kk != 1:
            continue
        for t, t1 in tm.items():
            (x,) = unpack_ids(t)
            (x1,) = unpack_ids(t1)
            Ht.setdefault(n, {})[x] = x1
    return BFrameHom(source=src_b.frame, target=tgt_b.frame, H=H, Ht=Ht)


def test_b2e_functoriality_on_homs():
    b = build_finset_bsystem(3)
    b2 = b_image(b)
    iso = b_roundtrip_iso(b, b2)
    e1 = b_to_e(b)
    e2 = b_to_e(b2)
    k = b2e_of_bhom(iso.forward, e1, e2)
    rep = validate_ehom(k)
    assert not rep.failed_laws(), rep.format()


def test_b_hom_reconstruction_from_stratified_e_hom():
    # fullness: recover the B-homomorphism from its translated E-hom
    b = build_finset_bsystem(3)
    b2 = b_image(b)
    iso = b_roundtrip_iso(b, b2)
    e1, e2 = b_to_e(b), b_to_e(b2)
    k = b2e_of_bhom(iso.forward, e1, e2)
    back = b_hom_from_e_hom(k, b, b2)
    assert back.H == iso.forward.H
    assert all(back.Ht[n] == iso.forward.Ht[n] for n in back.Ht)
    rep = validate_bsystem_hom(back, b, b2)
    assert not rep.failed_laws()


def test_ce_to_c_of_finset():
    a = build_finset_cesystem(3)
    c = ce_to_c(a)
    rep = validate_csystem(c)
    assert rep.ok, rep.format()
    assert c.length == {"0": 0, "1": 1, "2": 2, "3": 3}


def test_ce_to_c_requires_flags():
    a = non_rooted_cesystem(2)
    with pytest.raises(ValueError):
        ce_to_c(a)


def test_c_to_ce_of_finset_csystem_validates():
    c = ce_to_c(build_finset_cesystem(3))
    a = c_to_ce(c)
    rep = validate_cesystem(a, rooted=True, stratified=True)
    assert rep.ok, rep.format()
    # individual families are exactly the canonical projections
    from bcsys.core import Stratification, stratify

    s = stratify(a.fam)
    assert isinstance(s, Stratification)
    for name in a.fam.arrows:
        if s.of(a.fam.dom(name)) == s.of(a.fam.cod(name)) + 1:
            assert a.ifun[name] == c.proj[a.fam.dom(name)]
    # L(Gamma) agrees with the length function
    assert {x: s.of(x) for x in a.fam.objects} == c.length


def test_csys_retraction_is_identity_on_the_nose():
    c = ce_to_c(build_finset_cesystem(3))
    c2 = ce_to_c(c_to_ce(c))
    assert c2.cat.arrows.keys() == c.cat.arrows.keys()
    assert c2.length == c.length
    assert c2.ft == c.ft
    assert c2.proj == c.proj
    assert c2.pb == c.pb


def test_casce_iso_on_finset():
    iso = casce_iso(build_finset_cesystem(3))
    assert iso.verified, iso.report.format()


def test_ce_to_e_of_finset_matches_nat():
    a = build_finset_cesystem(3)
    e = ce_to_e(a)
    rep = validate_esystem(e)
    assert not rep.failed_laws(), rep.format()
    en = build_nat_esystem(3)
    # section sets correspond to functions [k] -> [n]
    for m in range(4):
        for n in range(m + 1):
            assert len(e.T(nat_arrow(m, n))) == len(en.T(nat_arrow(m, n)))
    # explicit iso: a section fixes the first n values, the rest encode
    # the function [k] -> [n]
    from helpers import parse_fn_arrow

    obj = {str(n): str(n) for n in range(4)}
    arr = {a_: a_ for a_ in en.cat.arrows}
    term_map = {}
    for name in en.cat.arrows:
        m, n = int(en.cat.dom(name)), int(en.cat.cod(name))
        tm = {}
        for x in e.T(name):
            _m, _n, vals = parse_fn_arrow(x)
            tm[x] = fn_term(tuple(vals[n:]))
        term_map[name] = tm
    h = EHom(
        source=e,
        target=en,
        functor=FunctorData(e.cat, en.cat, obj, arr),
        term_map=term_map,
    )
    rep = validate_ehom(h)
    assert not rep.failed_laws(), rep.format()


def test_ce_to_e_terminal_terms_singleton():
    e = ce_to_e(build_finset_cesystem(3))
    for x in e.cat.objects:
        assert len(e.T(e.cat.id_of(x))) == 1


def test_ce_to_e_of_terminal_cesystem():
    e = ce_to_e(build_finset_cesystem(0))
    assert len(e.cat.objects) == 1
    assert validate_esystem(e).ok


def test_e_to_ce_of_nat():
    for h in (2, 3):
        a = e_to_ce(build_nat_esystem(h))
        rep = validate_cesystem(a, rooted=True, stratified=True)
        assert not rep.failed_laws(), rep.format()
        assert not rep.missing_laws()


def test_e_to_ce_base_hom_sizes():
    # hom(!_m, !_n) = T(W_{!_m}(!_n)), the functions [n] -> [m], where
    # the weakened position is inside the truncation
    e = build_nat_esystem(3)
    a = e_to_ce(e)
    for m in range(4):
        for n in range(4):
            if m + n > 3:
                continue
            got = len(a.base.hom(nat_arrow(m, 0), nat_arrow(n, 0)))
            assert got == m ** n, (m, n, got)


def test_e_to_ce_pullback_universality_checked():
    a = e_to_ce(build_nat_esystem(3))
    rep = validate_cesystem(a)
    assert rep.laws["pb-universal"].checked > 0
    assert not rep.laws["pb-universal"].violations


def test_e_to_ce_of_terminal_esystem():
    a = e_to_ce(build_nat_esystem(0))
    rep = validate_cesystem(a, rooted=True)
    assert rep.ok, rep.format()


def test_unit_invertible_on_built_esystems():
    for e in (build_nat_esystem(2), build_nat_esystem(3), b_to_e(build_finset_bsystem(3))):
        eta = unit_of(e)
        rep = validate_ehom(eta)
        assert not rep.failed_laws(), rep.format()
        inv, invrep = invert_ehom(eta)
        assert inv is not None, invrep.format()
        rep2 = validate_ehom(inv)
        assert not rep2.failed_laws(), rep2.format()


def test_counit_invertible_on_rooted():
    eta, eps, rep = adjunction_witnesses(build_finset_cesystem(2))
    assert not rep.failed_laws(), rep.format()


def test_counit_not_invertible_when_not_rooted():
    a = non_rooted_cesystem(2)
    eps = counit_of(a)
    hom_rep = validate_ce_hom(eps)
    assert not hom_rep.failed_laws(), hom_rep.format()
    # surjectivity onto the base homs fails at the root
    _eta, _eps, rep = adjunction_witnesses(a)
    assert "eps-invertible" in rep.failed_laws()


def test_triangle_identities_checked_nonvacuously():
    # the reference checks the unit and triangle 2 at nat-e itself, an
    # E-system that adjunction_witnesses(a) reaches only as ce_to_e(a)
    reps = [adjunction_witnesses(a)[2] for a in (build_finset_cesystem(3), e_to_ce(build_nat_esystem(3)))]
    reps.append(adjunction_witnesses_reference(build_nat_esystem(3), build_finset_cesystem(3))[2])
    for rep in reps:
        assert not rep.failed_laws(), rep.format()
        assert rep.laws["triangle-1"].checked > 0
        assert rep.laws["triangle-2"].checked > 0


def test_compose_equivalence_stages_validate():
    b = build_finset_bsystem(3)
    (_e, _a, c), stages = compose_equivalence("b2c", b)
    for name, rep in stages.items():
        assert not rep.failed_laws(), f"{name}: {rep.format()}"
    _built, back = compose_equivalence("c2b", c)
    for name, rep in back.items():
        assert not rep.failed_laws(), f"{name}: {rep.format()}"


def test_compose_equivalence_rejects_unknown_direction():
    with pytest.raises(ValueError):
        compose_equivalence("sideways", None)


def test_grand_roundtrip_heights_2_3():
    for h in (2, 3):
        iso, stages = grand_roundtrip_iso(build_finset_bsystem(h))
        assert iso.verified, iso.report.format()
        for name, rep in stages.items():
            assert not rep.failed_laws(), f"{name}: {rep.format()}"
        # the context part of the frames is compared in full
        assert iso.report.laws["iso:fwd.bwd"].checked >= h + 1


def test_pairing_on_translated_bsystem():
    e = b_to_e(build_finset_bsystem(3))
    rep = check_pairing(e)
    assert rep.ok, rep.format()
    assert rep.laws["pairing-count"].checked > 0
