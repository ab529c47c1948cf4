import dataclasses

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bcsys.cesys import build_finset_cesystem
from bcsys.core import (
    Arrow,
    FinCat,
    FunctorData,
    RootedTree,
    Stratification,
    StratFailure,
    free_cat_of_tree,
    identity_functor,
    individual_arrow,
    slice_category,
    slice_mors,
    stratify,
    validate_fincat,
    validate_functor,
    validate_tree,
)

from helpers import chain_tree, count_paths, finsets_op_cat, nat_geq_cat, thin_cat


def test_free_chain_category_is_valid():
    cat, _ = free_cat_of_tree(chain_tree(2))
    assert validate_fincat(cat).ok


def test_broken_composite_is_reported_with_pair():
    cat, _ = free_cat_of_tree(chain_tree(2))
    f = "n2@2>1"
    g = "n1@1>1"
    cat.compose[(g, f)] = "n2@2>1"  # wrong codomain
    rep = validate_fincat(cat)
    assert not rep.ok
    assert any(v.witness[:2] == (g, f) for v in rep.laws["compose-endpoints"].violations)


def test_composite_of_unknown_arrow_is_reported():
    cat = nat_geq_cat(2)
    cat.compose[("ghost", "1->0")] = "1->0"
    cat.compose[("1->0", "phantom")] = "1->0"
    cat.compose[("2->1", "2->1")] = "2->1"  # known arrows, not composable
    rep = validate_fincat(cat)
    assert not rep.ok
    assert [(v.witness, v.detail) for v in rep.laws["compose-total"].violations] == [
        (("2->1", "2->1"), "composite of non-composable pair"),
        (("1->0", "phantom"), "composite of unknown arrow"),
        (("ghost", "1->0"), "composite of unknown arrow"),
    ]



ENDPOINT_ROWS = {
    "dangling": (Arrow("x", "9", "0"), [(("x",), "dangling dom/cod")]),
    "misnamed": (Arrow("y", "1", "0"), [(("x",), "arrow key and name disagree")]),
}


@pytest.mark.parametrize("row", ENDPOINT_ROWS)
def test_one_damaged_arrow_fails_endpoints_with_its_witness(row):
    arrow, want = ENDPOINT_ROWS[row]
    cat = nat_geq_cat(1)
    cat = dataclasses.replace(cat, arrows={**cat.arrows, "x": arrow})
    rep = validate_fincat(cat)
    assert [(v.witness, v.detail) for v in rep.laws["endpoints"].violations] == want


def test_finsets_op_truncation_satisfies_category_laws():
    # composition by plain function composition; associativity checked
    # exhaustively over all triples by the validator
    cat = finsets_op_cat(3)
    rep = validate_fincat(cat)
    assert rep.ok
    assert rep.laws["assoc"].checked > 0


def test_stratify_chain():
    cat, _ = free_cat_of_tree(chain_tree(2))
    s = stratify(cat)
    assert isinstance(s, Stratification)
    assert s.level == {"n0@0": 0, "n1@1": 1, "n2@2": 2}


def test_stratify_chaotic_two_objects_fails():
    # both objects terminal; choose one. No stratification exists.
    cat = thin_cat(["1", "x"], [("1", "1"), ("x", "x"), ("1", "x"), ("x", "1")], terminal="1")
    assert validate_fincat(cat).ok
    res = stratify(cat)
    assert isinstance(res, StratFailure)
    assert res.condition in ("ii", "iii")


def test_stratify_nat_geq():
    cat = nat_geq_cat(4)
    s = stratify(cat)
    assert isinstance(s, Stratification)
    assert all(s.of(str(n)) == n for n in range(5))


def test_stratify_requires_terminal():
    cat = nat_geq_cat(2)
    cat.terminal = None
    with pytest.raises(ValueError):
        stratify(cat)


def test_free_cat_singleton_tree():
    cat, s = free_cat_of_tree(chain_tree(0))
    assert len(cat.objects) == 1
    assert cat.terminal in cat.objects
    assert s.level == {"n0@0": 0}


def test_free_cat_linear_height3_counts():
    tree = chain_tree(3)
    cat, _ = free_cat_of_tree(tree)
    assert len(cat.objects) == 4
    non_id = [a for a in cat.arrows if not cat.is_id(a)]
    # oracle: count edge paths in the tree directly
    assert len(non_id) == count_paths(tree) == 6


def test_free_cat_branching():
    tree = RootedTree(
        height=1,
        levels=(frozenset({"r"}), frozenset({"a", "b"})),
        parent=({"a": "r", "b": "r"},),
    )
    assert validate_tree(tree).ok
    cat, _ = free_cat_of_tree(tree)
    root = "r@0"
    assert len(cat.arrows_into(root)) == 3  # id_r plus one arrow per child
    assert cat.hom("a@1", "b@1") == []


def test_slice_over_terminal_isomorphic_to_base():
    cat = nat_geq_cat(2)
    sl = slice_category(cat, "0", slice_mors(cat, "0"))
    assert validate_fincat(sl.cat).ok
    # one slice object per object of the base (poset: unique arrow into 0)
    assert len(sl.cat.objects) == len(cat.objects)
    assert len([a for a in sl.cat.arrows]) == len(cat.arrows)


def test_slice_of_chain_over_middle():
    cat, _ = free_cat_of_tree(chain_tree(2))
    sl = slice_category(cat, "n1@1", slice_mors(cat, "n1@1"))
    non_terminal = [o for o in sl.cat.objects if o != sl.cat.terminal]
    assert len(non_terminal) == 1


def test_slice_skips_triangle_with_missing_composite():
    related = {(x, x) for x in "XYT"} | {("X", "Y"), ("X", "T"), ("Y", "T")}
    cat = thin_cat("XYT", related, terminal="T")
    del cat.compose[("Y->T", "X->Y")]
    sl = slice_category(cat, "T", slice_mors(cat, "T"))
    # the triangle over X->Y from X->T to Y->T needs the missing composite
    assert sorted(h for h, _f, _g in sl.triangle.values()) == [
        "T->T", "X->T", "X->X", "Y->T", "Y->Y"
    ]
    assert list(sl.triangle.values()) == slice_mors(cat, "T")


def test_slice_nat_over_2():
    cat = nat_geq_cat(3)
    sl = slice_category(cat, "2", slice_mors(cat, "2"))
    assert sorted(sl.cat.objects) == ["2->2", "3->2"]
    # the induced stratification: the level of f is L(dom f) - L(apex)
    s = stratify(cat)
    assert {f: s.of(cat.dom(f)) - s.of("2") for f in sl.cat.objects} == {"2->2": 0, "3->2": 1}


def test_identity_functor_validates():
    cat = nat_geq_cat(2)
    rep = validate_functor(identity_functor(cat))
    assert rep.ok


@st.composite
def rooted_trees(draw):
    height = draw(st.integers(min_value=0, max_value=4))
    levels = [[f"v0_0"]]
    total = 1
    for n in range(1, height + 1):
        width = draw(st.integers(min_value=1, max_value=max(1, min(4, 19 - total))))
        if total + width > 20:
            width = 1
        levels.append([f"v{n}_{i}" for i in range(width)])
        total += width
    parent = []
    for n in range(height):
        pm = {}
        for node in levels[n + 1]:
            pm[node] = draw(st.sampled_from(levels[n]))
        parent.append(pm)
    return RootedTree(
        height=height,
        levels=tuple(frozenset(l) for l in levels),
        parent=tuple(parent),
    )


@settings(max_examples=40, deadline=None)
@given(rooted_trees())
def test_free_tree_categories_stratify_to_node_depth(tree):
    cat, built = free_cat_of_tree(tree)
    s = stratify(cat)
    assert isinstance(s, Stratification)
    assert s.level == built.level  # uniqueness: recomputed equals constructed
    for n in range(tree.height + 1):
        for node in tree.levels[n]:
            assert s.of(f"{node}@{n}") == n


@settings(max_examples=25, deadline=None)
@given(rooted_trees())
def test_individual_arrows_are_edges(tree):
    cat, s = free_cat_of_tree(tree)
    for n in range(1, tree.height + 1):
        for node in tree.levels[n]:
            a = individual_arrow(cat, s, f"{node}@{n}")
            assert a.endswith(">1")


def test_slice_over_terminal_canonical_iso():
    # the canonical comparison with the slice over the terminal object:
    # both composites are identities
    from bcsys.core import (
        compose_functors,
        identity_functor,
        triangle_id,
    )

    cat = nat_geq_cat(2)
    sl = slice_category(cat, "0", slice_mors(cat, "0"))
    into = {x: cat.hom(x, "0")[0] for x in cat.objects}
    arrow_map = {}
    for a, ar in cat.arrows.items():
        arrow_map[a] = triangle_id(a, into[ar.dom], into[ar.cod])
    fwd = FunctorData(cat, sl.cat, dict(into), arrow_map)
    bwd = FunctorData(
        sl.cat,
        cat,
        {f: cat.dom(f) for f in sl.cat.objects},
        {t: trio[0] for t, trio in sl.triangle.items()},
    )
    assert validate_functor(fwd).ok
    assert validate_functor(bwd).ok
    for comp, ident in (
        (compose_functors(bwd, fwd), identity_functor(cat)),
        (compose_functors(fwd, bwd), identity_functor(sl.cat)),
    ):
        assert comp.object_map == ident.object_map and comp.arrow_map == ident.arrow_map


# ---------------------------------------------------------------------------
# the arrow index against the sorted linear scans it replaced


def _scan_hom(cat, x, y):
    return sorted(a for a, ar in cat.arrows.items() if ar.dom == x and ar.cod == y)


def _scan_into(cat, y):
    return sorted(a for a, ar in cat.arrows.items() if ar.cod == y)


def _scan_from(cat, x):
    return sorted(a for a, ar in cat.arrows.items() if ar.dom == x)


def _assert_index_matches_scans(cat):
    objs = sorted(cat.objects | {ar.dom for ar in cat.arrows.values()} | {"not-an-object"})
    for x in objs:
        assert cat.arrows_into(x) == _scan_into(cat, x)
        assert cat.arrows_from(x) == _scan_from(cat, x)
        for y in objs:
            assert cat.hom(x, y) == _scan_hom(cat, x, y)


def _example_categories():
    from bcsys.bsys import build_finset_bsystem
    from bcsys.cesys import build_finset_cesystem
    from bcsys.esys import build_group_structure, build_nat_esystem, internal_hom_cat, nat_poset_cat, s3_table
    from bcsys.xlate import b_to_e

    related = {(x, x) for x in "XYT"} | {("X", "Y"), ("X", "T"), ("Y", "T")}
    ce = build_finset_cesystem(2)
    yield "thin", thin_cat("XYT", related, terminal="T")
    yield "nat-geq", nat_geq_cat(3)
    yield "finsets-op", finsets_op_cat(2)
    yield "free-chain", free_cat_of_tree(chain_tree(3))[0]
    yield "nat-poset", nat_poset_cat(4)
    yield "group-s3", build_group_structure(*s3_table()).cat
    yield "b2e-finset-b", b_to_e(build_finset_bsystem(3)).cat
    fo = finsets_op_cat(2)
    yield "slice", slice_category(fo, "1", slice_mors(fo, "1")).cat
    yield "internal-hom", internal_hom_cat(build_nat_esystem(3), "1")
    yield "ce-base", ce.base
    yield "ce-fam", ce.fam


@pytest.mark.parametrize("name_cat", list(_example_categories()), ids=lambda nc: nc[0])
def test_arrow_index_matches_scans_on_examples(name_cat):
    _assert_index_matches_scans(name_cat[1])


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.text(alphabet="abf|>", min_size=1, max_size=4),
        st.tuples(st.sampled_from("XYZ"), st.sampled_from("XYZ")),
        max_size=12,
    )
)
def test_arrow_index_matches_scans_on_generated_categories(ends):
    cat = FinCat(
        objects=frozenset("XY"),
        arrows={a: Arrow(a, d, c) for a, (d, c) in ends.items()},
        identity={},
        compose={},
    )
    _assert_index_matches_scans(cat)


def test_arrow_index_returns_fresh_lists():
    cat = nat_geq_cat(2)
    for got in (cat.hom("2", "0"), cat.arrows_into("0"), cat.arrows_from("2")):
        got.append("junk")
        got.reverse()
    cat.hom("9", "9").append("junk")
    _assert_index_matches_scans(cat)
    assert cat.hom("9", "9") == []
