import dataclasses

import pytest

from bcsys.cesys import (
    CEHom,
    CESystem,
    build_finset_cesystem,
    fn_arrow,
    validate_ce_hom,
    validate_cesystem,
)
from bcsys.core import Arrow, FinCat, FunctorData, identity_functor, validate_fincat
from bcsys.csys import CSystem, validate_csystem
from bcsys.esys import nat_arrow
from bcsys.xlate import ce_to_c

from helpers import finsets_op_cat, parse_fn_arrow


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


# ---------------------------------------------------------------------------
# one damaged entry per FAIL branch, with the law and witnesses it gives


def _csystem_damage(damage):
    """validate_csystem of finset-c h3 after ``damage(c)``."""
    def run():
        c = finset_csystem(3)
        damage(c)
        return validate_csystem(c)
    return run


def _cesystem_damage(damage, **flags):
    """validate_cesystem of finset-ce h2 after ``damage(a)``."""
    def run():
        a = build_finset_cesystem(2)
        damage(a)
        return validate_cesystem(a, **flags)
    return run


def _put(table: str, key, value):
    return lambda s: getattr(s, table).__setitem__(key, value)


def _pulled_family(fA: str):
    """Replace the pulled family of pb[(f1->0[], 1>=0)], keeping its projection."""
    def damage(a):
        key = ("f1->0[]", "1>=0")
        a.pb[key] = (fA, a.pb[key][1])
    return damage


def _extra_arrow_into_the_unit(c):
    c.cat = dataclasses.replace(c.cat, arrows={**c.cat.arrows, "extra": Arrow("extra", "1", "0")})


def _extra_base_object(a):
    a.base = dataclasses.replace(a.base, objects=a.base.objects | {"x"})


def _ce_hom_square_damage():
    """validate_ce_hom of the identity on finset-ce h2 with one base arrow retargeted."""
    a = build_finset_cesystem(2)
    base_map = identity_functor(a.base)
    base_map.arrow_map["f2->1[0]"] = "f2->1[1]"
    return validate_ce_hom(CEHom(source=a, target=a, fam_map=identity_functor(a.fam), base_map=base_map))


FAIL_ROWS = {
    "i-two-units": (
        _csystem_damage(_put("length", "1", 0)),
        "i",
        [((("0", "1"),), "length 0 objects are not exactly the unit")],
    ),
    "i-no-length": (_csystem_damage(lambda c: c.length.pop("3")), "i", [(("3",), "object has no length")]),
    "ii": (_csystem_damage(_put("ft", "2", "0")), "ii", [(("2", "0"), "father length wrong")]),
    "iii": (_csystem_damage(_put("ft", "0", "1")), "iii", [(("0",), "ft(1) != 1")]),
    "iv": (
        _csystem_damage(_extra_arrow_into_the_unit),
        "iv",
        [(("1", ("extra", "f1->0[]")), "unit is not terminal")],
    ),
    "v-projection": (
        _csystem_damage(_put("proj", "2", "f1->0[]")),
        "v",
        [(("2", "f1->0[]"), "projection endpoints wrong")],
    ),
    "v-dangling": (
        _csystem_damage(_put("pb", ("f1->0[]", "1"), ("9", "f2->1[1]"))),
        "v",
        [(("f1->0[]", "1"), "pullback entry dangling")],
    ),
    "v-father": (
        _csystem_damage(_put("pb", ("f1->0[]", "1"), ("1", "f2->1[1]"))),
        "v",
        [(("f1->0[]", "1", "1"), "ft(f*G) != dom(f)")],
    ),
    "v-length": (
        _csystem_damage(_put("pb", ("f0->0[]", "1"), ("0", "f1->1[0]"))),
        "v",
        [(("f0->0[]", "1", "0"), "f*G has length 0")],
    ),
    "v-q": (
        _csystem_damage(_put("pb", ("f1->0[]", "1"), ("2", "f2->2[0,1]"))),
        "v",
        [(("f1->0[]", "1", "f2->2[0,1]"), "q endpoints wrong")],
    ),
    "objects-shared": (
        _cesystem_damage(_extra_base_object),
        "objects-shared",
        [((), "family and base objects differ")],
    ),
    "functor-I-not-an-arrow": (
        _cesystem_damage(_put("ifun", "2>=1", "nope")),
        "functor-I",
        [(("2>=1", "nope"), "image not a base arrow")],
    ),
    "functor-I-endpoints": (
        _cesystem_damage(_put("ifun", "2>=1", "f1->0[]")),
        "functor-I",
        [(("2>=1", "f1->0[]"), "I is not identity on objects")],
    ),
    "root": (_cesystem_damage(lambda a: setattr(a, "root", "9")), "root", [(("9",), "root not an object")]),
    "pb-commute-family": (
        _cesystem_damage(_put("pb", ("f1->0[]", "1>=1"), ("2>=1", "f2->1[1]"))),
        "pb-commute",
        [(("f1->0[]", "1>=1"), "family does not sit over cod(f)")],
    ),
    "pb-commute-pulled-family": (
        _cesystem_damage(_pulled_family("2>=0")),
        "pb-commute",
        [(("f1->0[]", "1>=0", "2>=0"), "pulled family does not sit over dom(f)")],
    ),
    "pb-commute-projection": (
        _cesystem_damage(_put("pb", ("f1->0[]", "1>=0"), ("2>=1", "f0->0[]"))),
        "pb-commute",
        [(("f1->0[]", "1>=0", "f0->0[]"), "second projection endpoints wrong")],
    ),
    "pb-a": (
        _cesystem_damage(_put("pb", ("f1->1[0]", "1>=1"), ("1>=1", "f1->0[]"))),
        "pb-a",
        [(("f1->1[0]",), "pullback of identity family is ('1>=1', 'f1->0[]')")],
    ),
    "stratified": (
        _cesystem_damage(_pulled_family("1>=1"), stratified=True),
        "stratified",
        [(("f1->0[]", "1>=0"), "L = 1, expected 2")],
    ),
    "ce-hom-square": (_ce_hom_square_damage, "square", [(("2>=1",), "square over I does not commute")]),
}


@pytest.mark.parametrize("row", FAIL_ROWS)
def test_one_damaged_entry_fails_its_law_with_its_witness(row):
    run, law, want = FAIL_ROWS[row]
    assert [(v.witness, v.detail) for v in run().laws[law].violations] == want
