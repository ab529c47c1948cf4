import pytest

from bcsys.cesys import (
    CEHom,
    CESystem,
    build_finset_cesystem,
    finsets_op_cat,
    fn_arrow,
    parse_fn_arrow,
    validate_ce_hom,
    validate_cesystem,
)
from bcsys.core import Arrow, FinCat, FunctorData, identity_functor, validate_fincat
from bcsys.csys import CSystem, validate_csystem
from bcsys.esys import nat_arrow
from bcsys.xlate import ce_to_c


def finset_csystem(height: int) -> CSystem:
    """The C-system on F^op built directly from the function formulas."""
    cat = finsets_op_cat(height)
    length = {str(n): n for n in range(height + 1)}
    ft = {"0": "0"}
    proj = {}
    pb = {}
    for n in range(1, height + 1):
        ft[str(n)] = str(n - 1)
        proj[str(n)] = fn_arrow(n, n - 1, tuple(range(n - 1)))
    for name in cat.arrows:
        m, n, f = parse_fn_arrow(name)
        for gamma in range(1, height + 1):
            if gamma - 1 != n or m + 1 > height:
                continue
            pb[(name, str(gamma))] = (
                str(m + 1),
                fn_arrow(m + 1, gamma, f + (m,)),
            )
    return CSystem(cat=cat, one="0", length=length, ft=ft, proj=proj, pb=pb)


def test_finset_csystem_validates():
    c = finset_csystem(3)
    rep = validate_csystem(c)
    assert rep.ok, rep.format()
    assert rep.laws["v"].checked > 0
    assert rep.laws["vii"].checked > 0


def test_one_object_csystem_vacuous():
    cat = FinCat(
        objects=frozenset({"1"}),
        arrows={"id": Arrow("id", "1", "1")},
        identity={"1": "id"},
        compose={("id", "id"): "id"},
        terminal="1",
    )
    c = CSystem(cat=cat, one="1", length={"1": 0}, ft={"1": "1"})
    assert validate_csystem(c).ok


def test_wrong_q_arrow_fails_condition_v():
    c = finset_csystem(2)
    key = (fn_arrow(1, 1, (0,)), "2")
    ob, _q = c.pb[key]
    c.pb[key] = (ob, fn_arrow(2, 2, (1, 0)))  # swap, breaks the square
    rep = validate_csystem(c)
    assert rep.laws["v"].violations
    assert any(v.witness[:2] == key for v in rep.laws["v"].violations)


def test_finset_cesystem_validates_with_flags():
    for h in (2, 3):
        a = build_finset_cesystem(h)
        rep = validate_cesystem(a, rooted=True, stratified=True)
        assert rep.ok, rep.format()
        for law in ("pb-universal", "pb-b", "pb-c", "pb-d", "stratified"):
            assert rep.laws[law].checked > 0, law


def test_finset_pullback_of_family_along_function():
    a = build_finset_cesystem(3)
    f = fn_arrow(1, 2, (0, 0))  # base arrow 1 -> 2, the function [2] -> [1]
    A = nat_arrow(3, 2)
    fA, pi2 = a.pb[(f, A)]
    assert fA == nat_arrow(2, 1)
    assert pi2 == fn_arrow(2, 3, (0, 0, 1))  # [f, 1_1]


def test_broken_pi2_detected():
    a = build_finset_cesystem(2)
    f = fn_arrow(1, 1, (0,))
    A = nat_arrow(2, 1)
    fA, pi2 = a.pb[(f, A)]
    m, n, vals = parse_fn_arrow(pi2)
    a.pb[(f, A)] = (fA, fn_arrow(m, n, (vals[1], vals[0])))
    rep = validate_cesystem(a)
    assert rep.laws["pb-commute"].violations or rep.laws["pb-universal"].violations


def _retarget_projection(pb, cat, key):
    """Point the projection of the chosen pullback pb[key] at the first
    other arrow with the same endpoints."""
    ob, q = pb[key]
    pb[key] = (ob, next(a for a in sorted(cat.hom(cat.dom(q), cat.cod(q))) if a != q))


def test_retargeted_pullback_fails_the_composite_laws():
    """pb-c and C-system law vii: the pullback along a composite is the
    composite of the pullbacks."""
    a = build_finset_cesystem(3)
    _retarget_projection(a.pb, a.base, ("f0->0[]", "2>=0"))
    rep = validate_cesystem(a)
    assert [(v.witness, v.detail) for v in rep.laws["pb-c"].violations] == [
        (("f0->0[]", "f1->0[]", "2>=0"), "('3>=1', 'f3->2[1,2]') != ('3>=1', 'f3->2[1,1]')"),
    ]
    c = ce_to_c(build_finset_cesystem(3))
    _retarget_projection(c.pb, c.cat, ("f1->0[]", "1"))
    rep = validate_csystem(c)
    assert [(v.witness, v.detail) for v in rep.laws["vii"].violations] == [
        (("f1->0[]", "f2->1[0]", "1"), "('3', 'f3->1[2]') != ('3', 'f3->1[0]')"),
        (("f1->0[]", "f2->1[1]", "1"), "('3', 'f3->1[2]') != ('3', 'f3->1[1]')"),
        (("f2->0[]", "f1->2[0,0]", "1"), "('2', 'f2->1[0]') != ('2', 'f2->1[1]')"),
    ]


def test_root_terminal_in_base():
    a = build_finset_cesystem(3)
    for n in range(4):
        assert len(a.base.hom(str(n), "0")) == 1


def test_identity_ce_hom():
    a = build_finset_cesystem(2)
    h = CEHom(
        source=a,
        target=a,
        fam_map=identity_functor(a.fam),
        base_map=identity_functor(a.base),
    )
    rep = validate_ce_hom(h)
    assert rep.ok, rep.format()
    rep2 = validate_ce_hom(h, stratified=True)
    assert rep2.ok


def test_stratified_ce_hom_fails_an_image_that_is_no_object():
    """An object sent to a name that is no object of the target has no
    level: the stratified law fails it, as it fails an unmapped object."""
    a = build_finset_cesystem(2)
    fam_map = identity_functor(a.fam)
    fam_map.object_map["1"] = "bogus"
    h = CEHom(source=a, target=a, fam_map=fam_map, base_map=identity_functor(a.base))
    rep = validate_ce_hom(h, stratified=True)
    assert [v.witness for v in rep.laws["stratified"].violations] == [("1",)]
    assert rep.laws["stratified"].checked == len(a.fam.objects)
    assert ("1", "bogus") in [v.witness for v in rep.laws["fam:object-map"].violations]


def test_root_moving_hom_fails():
    a = build_finset_cesystem(1)
    om = {"0": "1", "1": "1"}  # nonsense on purpose
    fam_am = {c: a.fam.id_of("1") for c in a.fam.arrows}
    base_am = {c: a.base.id_of("1") for c in a.base.arrows}
    h = CEHom(
        source=a,
        target=a,
        fam_map=FunctorData(a.fam, a.fam, om, fam_am),
        base_map=FunctorData(a.base, a.base, om, base_am),
    )
    rep = validate_ce_hom(h)
    assert rep.laws["root"].violations


def non_rooted_cesystem(height: int) -> CESystem:
    """Finite-set CE-system with an extra base endomap of the root."""
    a = build_finset_cesystem(height)
    base = a.base
    arrows = dict(base.arrows)
    u = "twist0"
    arrows[u] = Arrow(u, "0", "0")
    compose = dict(base.compose)
    id0 = base.id_of("0")
    compose[(u, u)] = id0
    compose[(u, id0)] = u
    compose[(id0, u)] = u
    for name in base.arrows:
        m, n, _ = parse_fn_arrow(name)
        if n == 0 and name != id0:
            compose[(u, name)] = name
    new_base = FinCat(
        objects=base.objects,
        arrows=arrows,
        identity=dict(base.identity),
        compose=compose,
        terminal=None,
    )
    pb = dict(a.pb)
    # pullback of k >= 0 along the twist: the identity-shaped square works,
    # except clause (a) forces the identity family to pull back to u itself
    for k in range(height + 1):
        A = nat_arrow(k, 0)
        pb[(u, A)] = (A, new_base.id_of(str(k))) if k > 0 else (A, u)
    return CESystem(fam=a.fam, base=new_base, ifun=dict(a.ifun), root="0", pb=pb)


def test_non_rooted_instance():
    a = non_rooted_cesystem(2)
    rep = validate_cesystem(a, rooted=True)
    assert rep.laws["rooted"].violations
    plain = validate_cesystem(a)
    assert plain.ok, plain.format()
