import dataclasses

import pytest

from bcsys.bsys import (
    BFrame,
    BFrameHom,
    bhom_eq,
    bhom_identity,
    build_finset_bframe,
    build_finset_bsystem,
    check_preservation,
    compose_bhom,
    restrict_bhom,
    slice_bframe,
    validate_bframe,
    validate_bframe_hom,
    validate_bsystem,
    validate_bsystem_hom,
)
from bcsys.report import Report
from bcsys.syntax import build_syntactic_bframe, parse_signature


def test_finset_bframe_valid():
    assert validate_bframe(build_finset_bframe(3)).ok


def test_bframe_with_fat_root_fails():
    b = build_finset_bframe(1)
    bad = BFrame(
        height=1,
        B=(frozenset({"0", "extra"}),) + b.B[1:],
        Bt=b.Bt,
        ft=b.ft,
        bd=b.bd,
    )
    rep = validate_bframe(bad)
    assert rep.laws["root"].violations



def _level(levels: tuple, k: int, table: dict) -> tuple:
    """``levels`` with level k replaced by ``table``."""
    return levels[:k] + (table,) + levels[k + 1:]


def _frame_damage(**fields):
    """validate_bframe of finset-b h3 with ``fields`` computed from it."""
    def run():
        b = build_finset_bframe(3)
        return validate_bframe(dataclasses.replace(b, **{f: make(b) for f, make in fields.items()}))
    return run


def _gen_damage(key, delta):
    """validate_bsystem of finset-b h3 with one generic element replaced."""
    def run():
        sys = build_finset_bsystem(3)
        sys.gen[key] = delta
        return validate_bsystem(sys)
    return run


FAIL_ROWS = {
    "shape": (_frame_damage(B=lambda b: b.B[:-1]), "shape", [((3,), "level family arity mismatch")]),
    "ft-undefined": (_frame_damage(ft=lambda b: _level(b.ft, 2, {})), "ft", [((2, "2"), "ft undefined")]),
    "ft-outside": (
        _frame_damage(ft=lambda b: _level(b.ft, 2, {"2": "9"})),
        "ft",
        [((2, "2", "9"), "ft lands outside B_{k-1}")],
    ),
    "bd-undefined": (_frame_damage(bd=lambda b: _level(b.bd, 3, {"1": "3"})), "bd", [((3, "0"), "bd undefined")]),
    "bd-outside": (
        _frame_damage(bd=lambda b: _level(b.bd, 3, {"0": "9", "1": "3"})),
        "bd",
        [((3, "0", "9"), "bd lands outside B_k")],
    ),
    "gen-not-a-term": (
        _gen_damage((1, "1"), "7"),
        "gen-boundary",
        [((1, "1", "7"), "delta lands outside B~_{n+1}")],
    ),
    "gen-above-the-height": (
        _gen_damage((3, "3"), "0"),
        "gen-boundary",
        [((3, "3", "0"), "delta lands outside B~_{n+1}")],
    ),
}


@pytest.mark.parametrize("row", FAIL_ROWS)
def test_one_damaged_entry_fails_its_law_with_its_witness(row):
    run, law, want = FAIL_ROWS[row]
    rep = run()
    assert rep.failed_laws() == [law]
    assert [(v.witness, v.detail) for v in rep.laws[law].violations] == want


def test_slice_over_root_is_whole_frame():
    b = build_finset_bframe(3)
    s = slice_bframe(b, 0, "0")
    assert s.height == 3
    assert s.B == b.B and s.Bt == b.Bt


def test_finset_slice_over_one():
    b = build_finset_bframe(3)
    s = slice_bframe(b, 1, "1")
    # (B/1)_m = {1+m},  (B~/1)_{m+1} = [1+m]
    assert [sorted(lv) for lv in s.B] == [["1"], ["2"], ["3"]]
    assert sorted(s.Bt[1]) == ["0"]
    assert sorted(s.Bt[2]) == ["0", "1"]


def test_slice_at_top_is_singleton():
    b = build_finset_bframe(3)
    s = slice_bframe(b, 3, "3")
    assert s.height == 0 and s.B[0] == frozenset({"3"})


def test_slice_of_slice_is_slice_at_inner_element():
    b = build_finset_bframe(4)
    once = slice_bframe(slice_bframe(b, 1, "1"), 1, "2")
    direct = slice_bframe(b, 2, "2")
    assert once.B == direct.B and once.Bt == direct.Bt


def test_slice_frame_is_made_once_and_kept():
    b = build_finset_bframe(3)
    s = slice_bframe(b, 1, "1")
    assert slice_bframe(b, 1, "1") is s
    assert slice_bframe(s, 1, "2") is slice_bframe(s, 1, "2")
    assert b == build_finset_bframe(3) and "_slices" not in repr(b)


def test_identity_hom_validates():
    b = build_finset_bframe(3)
    assert validate_bframe_hom(bhom_identity(b)).ok


def test_finset_subst_family_is_a_hom():
    # S_x for x = 1 in B~_3: a homomorphism B/3 -> B/2, all levels
    sys = build_finset_bsystem(6)
    rep = validate_bframe_hom(sys.subst[(3, "1")])
    assert rep.ok
    assert rep.laws["bd-natural"].checked > 0


def test_hom_with_misplaced_term_image_fails():
    # two contexts at level 1, one term over each; swapping the term images
    # sends Ht(x) over the wrong bd image
    frame = BFrame(
        height=1,
        B=(frozenset({"r"}), frozenset({"A", "B"})),
        Bt=(frozenset(), frozenset({"a", "b"})),
        ft=({}, {"A": "r", "B": "r"}),
        bd=({}, {"a": "A", "b": "B"}),
    )
    assert validate_bframe(frame).ok
    swapped = BFrameHom(
        source=frame,
        target=frame,
        H={0: {"r": "r"}, 1: {"A": "A", "B": "B"}},
        Ht={1: {"a": "b", "b": "a"}},
    )
    rep = validate_bframe_hom(swapped)
    assert rep.laws["bd-natural"].violations


@pytest.mark.parametrize("table, square", [("H", "ft-natural"), ("Ht", "bd-natural")])
def test_image_outside_the_target_frame_fails_total(table, square):
    # a weakening hom W_X : B/ft(X) -> B/X sends one entry at slice level 1
    # to an element of the ambient level n + 1 outside its target slice:
    # its naturality square is skipped and total fails it with its witness
    sys = build_syntactic_bframe(parse_signature("type U; type El(tm)"), 3, 2)
    levels = "B" if table == "H" else "Bt"
    for (n, _X), wx in sorted(sys.weak.items()):
        outside = getattr(sys.frame, levels)[n + 1] - getattr(wx.target, levels)[1]
        if getattr(wx, table).get(1) and outside:
            break
    x, y = min(getattr(wx, table)[1]), min(outside)
    clean = validate_bframe_hom(wx)
    getattr(wx, table)[1][x] = y
    rep = validate_bframe_hom(wx)
    assert rep.laws[square].checked == clean.laws[square].checked
    assert rep.laws[square].skipped == clean.laws[square].skipped + 1
    assert (1, x, y) in [v.witness for v in rep.laws["total"].violations]
    whole = validate_bsystem(sys)
    assert [v.witness for v in whole.laws["weak-hom:total"].violations] == [(1, x, y)]


def test_spec_subst_table_values():
    # S_{x=1, j=0} : [3] -> [2] sends 0,1,2 to 0,1,1
    sys = build_finset_bsystem(4)
    table = sys.subst[(3, "1")].Ht[1]
    assert table == {"0": "0", "1": "1", "2": "1"}


def test_spec_weak_table_values():
    # W_{n=1, j=1} : [2] -> [3] sends 0,1 to 0,2
    sys = build_finset_bsystem(4)
    table = sys.weak[(2, "2")].Ht[2]
    assert table == {"0": "0", "1": "2"}


def test_spec_generic_element():
    sys = build_finset_bsystem(4)
    assert sys.gen[(2, "2")] == "1"  # delta_1 = 1 in B~_3 = [2]


def test_weakening_hom_preserves_substitution():
    sys = build_finset_bsystem(4)
    rep = Report()
    check_preservation(sys.weak[(2, "2")], sys, sys, (1, 2), rep)
    res = rep.laws["preserve-sub"]
    assert res.ok and res.checked > 0


def test_identity_hom_preserves_everything():
    sys = build_finset_bsystem(3)
    rep = Report()
    check_preservation(bhom_identity(sys.frame), sys, sys, (0, 0), rep)
    assert list(rep.laws) == ["preserve-sub", "preserve-weak", "preserve-gen"]
    assert rep.ok


def test_zeroed_generic_elements_break_gen_preservation():
    sys = build_finset_bsystem(4)
    mutated = build_finset_bsystem(4)
    for (n, X) in list(mutated.gen):
        if n >= 2:  # delta_n for n >= 1 lives at key level n+1 >= 2
            mutated.gen[(n, X)] = "0"
    rep = Report()
    check_preservation(bhom_identity(sys.frame), sys, mutated, (0, 0), rep)
    assert rep.laws["preserve-gen"].violations


def test_finset_bsystem_validates_heights_2_to_4():
    for height in (2, 3, 4):
        rep = validate_bsystem(build_finset_bsystem(height))
        assert rep.ok, rep.format()
        for axiom in ("axiom-1", "axiom-2", "axiom-3", "axiom-4", "axiom-5"):
            assert not rep.laws[axiom].violations


def test_zeroed_delta_fails_axiom_4_with_witness():
    sys = build_finset_bsystem(4)
    for (n, X) in list(sys.gen):
        if n >= 2:
            sys.gen[(n, X)] = "0"
    rep = validate_bsystem(sys)
    bad = rep.laws["axiom-4"].violations
    assert bad
    assert any(v.witness == (3, "1") for v in bad)  # x = 1 in B~_3


def test_height_zero_system_passes_vacuously():
    rep = validate_bsystem(build_finset_bsystem(0))
    assert rep.ok


def test_axiom3_elementwise():
    # S_{x,j} . W_{n,j} = id_[n+j] exhaustively within height
    sys = build_finset_bsystem(5)
    for (k, x), sx in sys.subst.items():
        wx = sys.weak[(k, str(k))]
        composite = compose_bhom(sx, wx)
        bad, _, checked = bhom_eq(composite, bhom_identity(composite.source))
        assert not bad and checked > 0


def test_restrict_hom_levels():
    sys = build_finset_bsystem(4)
    wx = sys.weak[(2, "2")]  # B/1 -> B/2
    r = restrict_bhom(wx, 1, "2")  # over X = 2: B/2 -> B/3
    assert r.H[0] == {"2": "3"}
    assert r.H[1] == {"3": "4"}
