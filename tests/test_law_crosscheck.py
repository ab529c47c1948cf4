"""The indexed category and pullback checks against brute-force loops.

``core.validate_fincat`` and ``csys.check_pullback_square`` visit only
composable data; ``reference.py`` keeps the loops over every pair, triple
and cone that they replace. Each check here asserts the same report: the
same law names in the same order, the same checked and skipped counts and
the same violations in the same order.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bcsys import bsys, cesys, core, csys, esys, xlate
from bcsys.core import Arrow, FinCat, free_cat_of_tree, validate_fincat
from bcsys.csys import check_pullback_square
from bcsys.report import Report

from helpers import chain_tree, finsets_op_cat, thin_cat
from reference import check_pullback_square_reference, validate_fincat_reference


def assert_same_report(got: Report, want: Report) -> None:
    assert list(got.laws) == list(want.laws)
    for name, res in want.laws.items():
        mine = got.laws[name]
        assert (mine.checked, mine.skipped, mine.missing) == (res.checked, res.skipped, res.missing), name
        assert mine.violations == res.violations, name
    assert got.format() == want.format()


# ---------------------------------------------------------------------------
# generated categories

OBJECTS = ("a", "b", "c")


@st.composite
def random_tables(draw) -> FinCat:
    """Arrows between up to three objects with an arbitrary partial table.

    Composites are drawn from the right hom-set, from any arrow, from a
    name that is no arrow, or left out; identities may be missing or
    wrong, and a few non-composable pairs get a stray entry.
    """
    objs = OBJECTS[: draw(st.integers(1, 3))]
    arrows = {}
    identity = {}
    for o in objs:
        if draw(st.booleans()):
            arrows[f"1{o}"] = Arrow(f"1{o}", o, o)
            identity[o] = f"1{o}"
    for i in range(draw(st.integers(0, 5))):
        name = f"m{i}"
        arrows[name] = Arrow(name, draw(st.sampled_from(objs)), draw(st.sampled_from(objs)))
    if arrows and draw(st.integers(0, 4)) == 0:
        identity[draw(st.sampled_from(objs))] = draw(st.sampled_from(sorted(arrows)))
    names = sorted(arrows)
    compose = {}
    for g in names:
        for f in names:
            if arrows[g].dom != arrows[f].cod:
                if draw(st.integers(0, 15)) == 0:
                    compose[(g, f)] = draw(st.sampled_from(names))
                continue
            if g == identity.get(arrows[g].dom) and draw(st.integers(0, 5)):
                compose[(g, f)] = f
                continue
            if f == identity.get(arrows[f].dom) and draw(st.integers(0, 5)):
                compose[(g, f)] = g
                continue
            hom = [a for a in names if arrows[a].dom == arrows[f].dom and arrows[a].cod == arrows[g].cod]
            mode = draw(st.integers(0, 9))
            if mode < 6 and hom:
                compose[(g, f)] = draw(st.sampled_from(hom))
            elif mode < 8:
                compose[(g, f)] = draw(st.sampled_from(names))
            elif mode == 8:
                compose[(g, f)] = "zz"
    return FinCat(
        objects=frozenset(objs),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=draw(st.sampled_from((None, "zz") + objs)),
        partial=draw(st.booleans()),
    )


def preorder(pairs) -> FinCat:
    related = {(o, o) for o in OBJECTS} | set(pairs)
    while True:
        more = {(x, z) for (x, y) in related for (y2, z) in related if y == y2} - related
        if not more:
            return thin_cat(OBJECTS, sorted(related), terminal="a")
        related |= more


@st.composite
def damaged_categories(draw) -> FinCat:
    """A lawful category with composites dropped or retargeted,
    identities removed and stray non-composable entries added."""
    base = draw(
        st.one_of(
            st.just(finsets_op_cat(2)),
            st.just(free_cat_of_tree(chain_tree(3))[0]),
            st.lists(st.tuples(st.sampled_from(OBJECTS), st.sampled_from(OBJECTS)), max_size=4).map(preorder),
        )
    )
    names = sorted(base.arrows)
    keys = sorted(base.compose)
    compose = dict(base.compose)
    for k in draw(st.lists(st.sampled_from(keys), max_size=4)):
        compose.pop(k, None)
    for k in draw(st.lists(st.sampled_from(keys), max_size=3)):
        compose[k] = draw(st.sampled_from(names))
    for g, f in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=3)):
        if base.dom(g) != base.cod(f):
            compose[(g, f)] = draw(st.sampled_from(names))
    identity = dict(base.identity)
    for o in draw(st.lists(st.sampled_from(sorted(base.objects)), max_size=2)):
        identity.pop(o, None)
    return dataclasses.replace(
        base, compose=compose, identity=identity, partial=draw(st.booleans())
    )


ONE_ARROW = FinCat(frozenset("ab"), {"m": Arrow("m", "a", "b")}, {}, {})


@settings(max_examples=300, deadline=None)
@given(random_tables())
@example(ONE_ARROW)
def test_validate_fincat_matches_reference_on_random_tables(cat):
    assert_same_report(validate_fincat(cat), validate_fincat_reference(cat))


@settings(max_examples=150, deadline=None)
@given(damaged_categories())
def test_validate_fincat_matches_reference_on_damaged_categories(cat):
    assert_same_report(validate_fincat(cat), validate_fincat_reference(cat))


@st.composite
def squares(draw):
    """A random table, plus a square top: P -> X, left: P -> Y,
    right: X -> Z, bottom: Y -> Z (or four arbitrary arrows)."""
    cat = draw(random_tables())
    objs = sorted(cat.objects)
    P, X, Y, Z = (draw(st.sampled_from(objs)) for _ in range(4))
    arrows = dict(cat.arrows)
    for name, dom, cod in (("t", P, X), ("l", P, Y), ("r", X, Z), ("b", Y, Z)):
        arrows[name] = Arrow(name, dom, cod)
    names = sorted(arrows)
    compose = dict(cat.compose)
    for g in names:
        for f in names:
            if (g, f) in compose or arrows[g].dom != arrows[f].cod or draw(st.integers(0, 5)) == 0:
                continue
            hom = [a for a in names if arrows[a].dom == arrows[f].dom and arrows[a].cod == arrows[g].cod]
            compose[(g, f)] = draw(st.sampled_from(hom or names))
    cat = dataclasses.replace(cat, arrows=arrows, compose=compose)
    if draw(st.integers(0, 4)):
        corners = ("t", "l", "r", "b")
    else:
        corners = tuple(draw(st.sampled_from(names)) for _ in range(4))
    return cat, corners


def run_square(check, cat, corners) -> Report:
    rep = Report()
    check(cat, *corners, rep, "pb", ("w",))
    return rep


# a commuting square with no cone at all: left does not start at dom(top)
NO_CONE = (
    FinCat(
        frozenset("abc"),
        {n: Arrow(n, d, c) for n, d, c in [("t", "a", "a"), ("l", "b", "b"), ("r", "a", "c"), ("b", "b", "c")]},
        {},
        {("r", "t"): "r", ("b", "l"): "r"},
    ),
    ("t", "l", "r", "b"),
)


@settings(max_examples=300, deadline=None)
@given(squares())
@example(NO_CONE)
def test_check_pullback_square_matches_reference_on_random_squares(square):
    cat, corners = square
    assert_same_report(
        run_square(check_pullback_square, cat, corners),
        run_square(check_pullback_square_reference, cat, corners),
    )


def test_random_squares_reach_every_outcome():
    """The generator above produces cones with zero, one and several
    mediators, and skips of both kinds."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(squares())
    def collect(square):
        rep = run_square(check_pullback_square_reference, *square)
        res = rep.laws.get("pb")
        if res is None:
            return
        seen.update(v.detail for v in res.violations)
        if res.checked > len(res.violations):
            seen.add("one mediator")
        if res.skipped:
            seen.add("skipped")

    collect()
    assert {"0 mediating arrows", "2 mediating arrows", "one mediator", "skipped"} <= seen


# ---------------------------------------------------------------------------
# every call made by the benchmark's C- and CE-system checks


@pytest.fixture
def crosschecked(monkeypatch):
    """Compare every validate_fincat and check_pullback_square call
    with the reference; returns the number of calls of each."""
    calls = {"validate_fincat": 0, "check_pullback_square": 0}
    fast_fincat, fast_square = core.validate_fincat, csys.check_pullback_square

    def fincat(c):
        rep = fast_fincat(c)
        assert_same_report(rep, validate_fincat_reference(c))
        calls["validate_fincat"] += 1
        return rep

    def square(cat, top, left, right, bottom, rep, law, witness):
        corners = (top, left, right, bottom)
        mine, ref = Report(), Report()
        fast_square(cat, *corners, mine, law, witness)
        check_pullback_square_reference(cat, *corners, ref, law, witness)
        assert_same_report(mine, ref)
        calls["check_pullback_square"] += 1
        fast_square(cat, *corners, rep, law, witness)

    for mod in (core, csys, cesys, esys, xlate):
        if hasattr(mod, "validate_fincat"):
            monkeypatch.setattr(mod, "validate_fincat", fincat)
        if hasattr(mod, "check_pullback_square"):
            monkeypatch.setattr(mod, "check_pullback_square", square)
    return calls


@pytest.mark.parametrize("height", [4, 5])
def test_grand_roundtrip_calls_match_reference(crosschecked, height):
    xlate.grand_roundtrip_iso(bsys.build_finset_bsystem(height))
    assert crosschecked["validate_fincat"] > 0


def retarget_unit(a):
    """compose[(id_Y, f)] set to another arrow of hom(X, Y)."""
    base = a.base
    f = next(f for f in sorted(base.arrows) if len(base.hom(base.dom(f), base.cod(f))) > 1)
    g = next(g for g in base.hom(base.dom(f), base.cod(f)) if g != f)
    compose = dict(base.compose)
    compose[(base.identity[base.cod(f)], f)] = g
    return dataclasses.replace(a, base=dataclasses.replace(base, compose=compose))


@pytest.mark.parametrize("corrupt", [False, True])
def test_finset_ce_calls_match_reference(crosschecked, corrupt):
    a = cesys.build_finset_cesystem(3)
    if corrupt:
        a = retarget_unit(a)
    rep = cesys.validate_cesystem(a, rooted=True, stratified=True)
    assert rep.ok is not corrupt
    assert crosschecked["validate_fincat"] > 0
    assert crosschecked["check_pullback_square"] > 0
