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
    StratFailure,
    free_cat_of_tree,
    identity_functor,
    individual_arrow,
    slice_category,
    slice_mors,
    stratify,
    triangle_id,
    validate_fincat,
    validate_functor,
    validate_tree,
)

from helpers import chain_tree, count_paths, finsets_op_cat, nat_geq_cat, thin_cat, with_compose


def test_free_chain_category_is_valid():
    cat, _ = free_cat_of_tree(chain_tree(2))
    assert validate_fincat(cat).ok


def test_broken_composite_is_reported_with_pair():
    cat, _ = free_cat_of_tree(chain_tree(2))
    f = "n2@2>1"
    g = "n1@1>1"
    cat = with_compose(cat, put={(g, f): "n2@2>1"})  # wrong codomain
    rep = validate_fincat(cat)
    assert not rep.ok
    assert any(v.witness[:2] == (g, f) for v in rep.laws["compose-endpoints"].violations)


def test_composite_of_unknown_arrow_is_reported():
    cat = with_compose(
        nat_geq_cat(2),
        put={
            ("ghost", "1->0"): "1->0",
            ("1->0", "phantom"): "1->0",
            ("2->1", "2->1"): "2->1",  # known arrows, not composable
        },
    )
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


def _tree_damage(**fields):
    """validate_tree of chain_tree(2), n0 <- n1 <- n2, with ``fields``
    replaced."""
    return lambda: validate_tree(dataclasses.replace(chain_tree(2), **fields))


TREE_ROWS = {
    "shape": (_tree_damage(height=3), "shape", [((3,), "level/parent arity mismatch")]),
    "root": (
        _tree_damage(levels=(frozenset({"n0", "m0"}), frozenset({"n1"}), frozenset({"n2"}))),
        "root",
        [((("m0", "n0"),), "T_0 is not a singleton")],
    ),
    "no-parent": (_tree_damage(parent=({"n1": "n0"}, {})), "parent", [((2, "n2"), "no parent")]),
    "parent-not-below": (
        _tree_damage(parent=({"n1": "n0"}, {"n2": "n2"})),
        "parent",
        [((2, "n2", "n2"), "parent not at level below")],
    ),
}


@pytest.mark.parametrize("row", TREE_ROWS)
def test_one_damaged_tree_entry_fails_its_law_with_its_witness(row):
    run, law, want = TREE_ROWS[row]
    rep = run()
    assert rep.failed_laws() == [law]
    assert [(v.witness, v.detail) for v in rep.laws[law].violations] == want


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
    assert s == {"n0@0": 0, "n1@1": 1, "n2@2": 2}


def test_stratify_chaotic_two_objects_fails():
    # both objects terminal; choose one. No stratification exists.
    cat = thin_cat(["1", "x"], [("1", "1"), ("x", "x"), ("1", "x"), ("x", "1")], terminal="1")
    assert validate_fincat(cat).ok
    res = stratify(cat)
    assert isinstance(res, StratFailure)
    assert res.condition in ("ii", "iii")


def test_stratify_nat_geq():
    cat = nat_geq_cat(4)
    assert stratify(cat) == {str(n): n for n in range(5)}


def test_stratify_requires_terminal():
    cat = dataclasses.replace(nat_geq_cat(2), terminal=None)
    with pytest.raises(ValueError):
        stratify(cat)


def test_free_cat_singleton_tree():
    cat, s = free_cat_of_tree(chain_tree(0))
    assert len(cat.objects) == 1
    assert cat.terminal in cat.objects
    assert s == {"n0@0": 0}


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
    sl = slice_category(cat, "0")
    assert validate_fincat(sl).ok
    # one slice object per object of the base (poset: unique arrow into 0)
    assert len(sl.objects) == len(cat.objects)
    assert len([a for a in sl.arrows]) == len(cat.arrows)


def test_slice_of_chain_over_middle():
    cat, _ = free_cat_of_tree(chain_tree(2))
    sl = slice_category(cat, "n1@1")
    non_terminal = [o for o in sl.objects if o != sl.terminal]
    assert len(non_terminal) == 1


def test_slice_skips_triangle_with_missing_composite():
    related = {(x, x) for x in "XYT"} | {("X", "Y"), ("X", "T"), ("Y", "T")}
    cat = with_compose(thin_cat("XYT", related, terminal="T"), drop=[("Y->T", "X->Y")])
    sl = slice_category(cat, "T")
    # the triangle over X->Y from X->T to Y->T needs the missing composite
    assert sorted(h for h, _f, _g in slice_mors(cat, "T")) == [
        "T->T", "X->T", "X->X", "Y->T", "Y->Y"
    ]
    assert sorted(sl.arrows) == sorted(triangle_id(*m) for m in slice_mors(cat, "T"))


def test_slice_nat_over_2():
    cat = nat_geq_cat(3)
    sl = slice_category(cat, "2")
    assert sorted(sl.objects) == ["2->2", "3->2"]
    # the induced stratification: the level of f is L(dom f) - L(apex)
    s = stratify(cat)
    assert {f: s[cat.dom(f)] - s["2"] for f in sl.objects} == {"2->2": 0, "3->2": 1}


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
    assert s == built  # uniqueness: recomputed equals constructed
    for n in range(tree.height + 1):
        for node in tree.levels[n]:
            assert s[f"{node}@{n}"] == n


@settings(max_examples=25, deadline=None)
@given(rooted_trees())
def test_individual_arrows_are_edges(tree):
    cat, s = free_cat_of_tree(tree)
    for n in range(1, tree.height + 1):
        for node in tree.levels[n]:
            a = individual_arrow(cat, s, f"{node}@{n}")
            assert a.endswith(">1")


def test_individual_arrow_needs_a_positive_level_and_one_arrow_a_level_down():
    cat, levels = free_cat_of_tree(chain_tree(2))
    with pytest.raises(ValueError, match="^'n0@0' is at level 0$"):
        individual_arrow(cat, levels, "n0@0")
    # at level 3, n2@2 has no arrow to level 2
    with pytest.raises(ValueError, match="^no unique individual arrow out of 'n2@2'$"):
        individual_arrow(cat, {**levels, "n2@2": 3}, "n2@2")


def test_slice_category_over_no_object_raises():
    with pytest.raises(ValueError, match="^'zz' is not an object$"):
        slice_category(nat_geq_cat(2), "zz")


def test_slice_over_terminal_canonical_iso():
    # the canonical comparison with the slice over the terminal object:
    # both composites are identities
    from bcsys.core import compose_functors, identity_functor

    cat = nat_geq_cat(2)
    sl = slice_category(cat, "0")
    into = {x: cat.hom(x, "0")[0] for x in cat.objects}
    arrow_map = {}
    for a, ar in cat.arrows.items():
        arrow_map[a] = triangle_id(a, into[ar.dom], into[ar.cod])
    fwd = FunctorData(cat, sl, dict(into), arrow_map)
    bwd = FunctorData(
        sl,
        cat,
        {f: cat.dom(f) for f in sl.objects},
        {triangle_id(*m): m[0] for m in slice_mors(cat, "0")},
    )
    assert validate_functor(fwd).ok
    assert validate_functor(bwd).ok
    for comp, ident in (
        (compose_functors(bwd, fwd), identity_functor(cat)),
        (compose_functors(fwd, bwd), identity_functor(sl)),
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
    yield "slice", slice_category(fo, "1")
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
