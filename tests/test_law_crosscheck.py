"""The indexed category and pullback checks against brute-force loops.

``core.validate_fincat``, ``csys.check_pullback_square`` and
``csys.check_pullback_composites`` visit only the composites a table has;
``reference.py`` keeps the loops over every pair, triple and cone that
they replace. ``bsys.validate_bsystem`` and ``validate_bsystem_hom`` read
each slice's structure from the ambient system, where the references
build a re-keyed system per slice. Each check here asserts the same report: the
same law names in the same order, the same checked and skipped counts and
the same violations in the same order.
"""

import collections
import copy
import dataclasses
import itertools
import operator
import unittest.mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bcsys import bsys, cesys, core, csys, esys, xlate
from bcsys.core import Arrow, FinCat, free_cat_of_tree, validate_fincat
from bcsys.csys import check_pullback_composites, check_pullback_square
from bcsys.report import Report
from bcsys.syntax import build_syntactic_bframe, parse_signature

from helpers import chain_tree, finsets_op_cat, thin_cat, with_compose
from reference import (
    check_pullback_composites_reference,
    check_pullback_square_reference,
    check_preservation_reference,
    slice_system_reference,
    validate_bsystem_hom_reference,
    validate_bsystem_reference,
    validate_fincat_reference,
)
from test_syntax import LAM_APP, SYNTACTIC_PINS


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


def brute_slice(c: FinCat, apex: str) -> tuple:
    """Every (h, f, g) with g∘h = f for f and g into ``apex``, in the
    order of f, g and h sorted, read off the tables alone."""
    names = sorted(c.arrows)
    into = [a for a in names if c.arrows[a].cod == apex]
    return tuple(
        (h, f, g)
        for f in into
        for g in into
        for h in names
        if (c.arrows[h].dom, c.arrows[h].cod) == (c.arrows[f].dom, c.arrows[g].dom)
        and c.compose.get((g, h)) == f
    )


def refuse(*args):
    raise AssertionError("enumerated again")


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.one_of(random_tables(), damaged_categories()))
def test_slice_mors_is_enumerated_once_per_category_and_apex(cat):
    """The kept slice_mors of every apex, and of a name that is no
    object, is the brute-force enumeration; a second call reads no
    hom-set, and a copy with a changed composition table enumerates
    afresh."""
    apexes = [*sorted(cat.objects), "zz"]
    kept = {apex: core.slice_mors(cat, apex) for apex in apexes}
    assert kept == {apex: brute_slice(cat, apex) for apex in apexes}
    with unittest.mock.patch.object(FinCat, "hom", refuse), unittest.mock.patch.object(FinCat, "arrows_into", refuse):
        assert {apex: core.slice_mors(cat, apex) for apex in apexes} == kept
    apex = next((apex for apex in apexes if kept[apex]), None)
    if apex is not None:
        h, _f, g = kept[apex][0]
        changed = with_compose(cat, drop=[(g, h)])
        assert core.slice_mors(changed, apex) == brute_slice(changed, apex) != kept[apex]
    assert core.slice_mors(cat, "zz") == ()


def test_deepcopy_of_an_esystem_shares_its_category():
    e = esys.build_nat_esystem(3)
    d = copy.deepcopy(e)
    assert d.cat is e.cat and copy.copy(e.cat) is e.cat
    assert d.terms is not e.terms and d.weak is not e.weak


# ---------------------------------------------------------------------------
# associativity a row at a time


@pytest.fixture
def assoc_rows(monkeypatch):
    """Count the (h, g) rows validate_fincat tries to compare whole, the
    tries that raise KeyError, the rows it compares one f at a time, the
    calls that pick generators, and the rows (h, g) of those generators."""
    counts = collections.Counter()
    real_row, real_generators = core._assoc_row, core._generators

    def generators(c, *args):
        gens = real_generators(c, *args)
        counts["generator path"] += 1
        counts["generator rows"] += rows_with_hg(c, gens)
        return gens

    def per_f(*args):
        counts["per-f"] += 1
        return real_row(*args)

    def gather(*keys):
        get = operator.itemgetter(*keys)

        def run(table):
            counts["tried"] += 1
            try:
                return get(table)
            except KeyError:
                counts["KeyError"] += 1
                raise

        return run

    monkeypatch.setattr(core, "_assoc_row", per_f)
    monkeypatch.setattr(core, "itemgetter", gather)
    monkeypatch.setattr(core, "_generators", generators)
    return counts


def rows_with_hg(c: FinCat, gs=None) -> int:
    """The rows (h, g), g into dom h (and in gs, when given), whose h∘g
    is in the table."""
    return sum(
        (h, g) in c.compose
        for h in c.arrows
        for g in (c.arrows if gs is None else gs)
        if c.dom(h) == c.cod(g)
    )


def rows_visited(c: FinCat, rep: Report, counts) -> int:
    """The rows validate_fincat compared, given the counts of assoc_rows
    made by that call: the generators' rows, and every row unless the
    generator path proved the table associative."""
    proved = counts["generator path"] and not rep.laws["assoc"].violations
    return counts["generator rows"] + (0 if proved else rows_with_hg(c))


def single_damages():
    """One damage each to lawful categories with rows of one and of many f."""
    fin = finsets_op_cat(2)
    chain = free_cat_of_tree(chain_tree(3))[0]
    out = {"lawful finsets": fin, "lawful chain": chain}
    # g∘f for a g: 1 -> 2 and f: 2 -> 1 with more than one arrow in hom(2, 2)
    g = next(a for a in sorted(fin.arrows) if (fin.dom(a), fin.cod(a)) == ("1", "2"))
    f = next(a for a in sorted(fin.arrows) if (fin.dom(a), fin.cod(a)) == ("2", "1"))
    gf = fin.compose[(g, f)]
    same_hom = next(a for a in fin.hom("2", "2") if a != gf)
    wrong_ends = next(a for a in sorted(fin.arrows) if fin.cod(a) != "2")
    h = next(a for a in sorted(fin.arrows) if fin.dom(a) == "2" and not fin.is_id(a))
    out["retargeted in its hom"] = with_compose(fin, put={(g, f): same_hom})
    out["retargeted to wrong endpoints"] = with_compose(fin, put={(g, f): wrong_ends})
    out["stray (h, g∘f) after a wrong codomain"] = with_compose(
        fin, put={(g, f): wrong_ends, (h, wrong_ends): fin.compose[(h, gf)]}
    )
    for partial in (False, True):
        out[f"removed, partial={partial}"] = with_compose(fin, drop=[(g, f)], partial=partial)
        out[f"removed from a chain, partial={partial}"] = with_compose(
            chain, drop=[sorted(chain.compose)[-1]], partial=partial
        )
    out["names a non-arrow"] = with_compose(fin, put={(g, f): "zz"})
    out["chain retargeted"] = with_compose(chain, put={sorted(chain.compose)[0]: sorted(chain.arrows)[0]})
    return out


@pytest.mark.parametrize("name, cat", sorted(single_damages().items()), ids=sorted(single_damages()))
def test_validate_fincat_matches_reference_on_single_damages(assoc_rows, name, cat):
    rep = validate_fincat(cat)
    assert_same_report(rep, validate_fincat_reference(cat))
    whole = rows_visited(cat, rep, assoc_rows) - assoc_rows["per-f"]
    assert whole > 0 and assoc_rows["tried"] >= whole
    if "chain" not in name:
        # every row has several f: only a damage sends one to the per-f loop
        assert (assoc_rows["per-f"] > 0) == (name != "lawful finsets")
    else:
        # a row whose g starts at the top of the chain has one f
        assert assoc_rows["per-f"] > 0
    if name.startswith("stray"):
        assert assoc_rows["KeyError"] > 0


def test_generated_tables_reach_both_assoc_paths(assoc_rows):
    """The hypothesis tables above compare rows whole, raise KeyError out
    of the gather, run the per-f loop, walk tables with gaps and prove
    lawful tables from their generators' rows."""
    whole = 0
    paths = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(random_tables(), damaged_categories()))
    def run(cat):
        nonlocal whole
        before = collections.Counter(assoc_rows)
        rep = validate_fincat(cat)
        assert_same_report(rep, validate_fincat_reference(cat))
        made = assoc_rows - before
        whole += rows_visited(cat, rep, made) - made["per-f"]
        paths.update(paths_taken(cat, rep, made))

    run()
    assert whole > 0 and assoc_rows["per-f"] > 0 and assoc_rows["KeyError"] > 0
    assert {"generators", "gaps", "gather", "per-f"} <= paths


def paths_taken(c: FinCat, rep: Report, made) -> set[str]:
    """The paths of one validate_fincat call, from the counts of
    assoc_rows it made: the generator path, its fallback to every row,
    the walk of a table with gaps, the whole-row gather and the per-f
    loop."""
    paths = set()
    if made["generator path"]:
        paths.add("fallback" if rep.laws["assoc"].violations else "generators")
    if c.partial and "compose-total" in rep.laws and rep.laws["compose-total"].skipped:
        paths.add("gaps")
    if made["tried"]:
        paths.add("gather")
    if made["per-f"]:
        paths.add("per-f")
    return paths


def single_retargets():
    """Every table made from finset-ce h2's base, nat-e h4's category or
    group-s3's by setting one composite to another arrow."""
    for cat in (
        cesys.build_finset_cesystem(2).base,
        esys.build_nat_esystem(4).cat,
        esys.build_group_structure(*esys.s3_table()).cat,
    ):
        names = sorted(cat.arrows)
        for key, gf in sorted(cat.compose.items()):
            for a in names:
                if a != gf:
                    yield with_compose(cat, put={key: a})


def test_validate_fincat_matches_reference_on_single_retargets(assoc_rows):
    """Each retarget gets the reference's report. Those that break only
    associativity pass every law before it, so the generator path runs
    and falls back to every row."""
    paths = collections.Counter()
    assoc_only = 0
    for cat in single_retargets():
        before = collections.Counter(assoc_rows)
        rep = validate_fincat(cat)
        assert_same_report(rep, validate_fincat_reference(cat))
        paths.update(paths_taken(cat, rep, assoc_rows - before))
        assoc_only += rep.failed_laws() == ["assoc"]
    assert assoc_only > 0
    assert paths["fallback"] == assoc_only


FINSET_CE_H4_BASE = """\
PASS assoc (checked 37147243)
PASS compose-total (checked 133799)
PASS endpoints (checked 499)
PASS identity (checked 5)
PASS terminal (checked 5)
PASS unit (checked 499)"""


def test_finset_ce_h4_base_report_is_unchanged():
    """The 499-arrow base of finset-ce h4: every one of its 37,147,243
    triples is compared, as the loop over single triples did."""
    assert validate_fincat(cesys.build_finset_cesystem(4).base).format() == FINSET_CE_H4_BASE


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
    """Compare every validate_fincat, check_pullback_square and
    check_pullback_composites call with the reference; returns the number
    of calls of each."""
    calls = {"validate_fincat": 0, "check_pullback_square": 0, "check_pullback_composites": 0}
    fast_fincat, fast_square = core.validate_fincat, csys.check_pullback_square
    fast_composites = csys.check_pullback_composites

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

    def composites(cat, pb, rep, law):
        mine, ref = Report(), Report()
        fast_composites(cat, pb, mine, law)
        check_pullback_composites_reference(cat, pb, ref, law)
        assert_same_report(mine, ref)
        calls["check_pullback_composites"] += 1
        fast_composites(cat, pb, rep, law)

    for mod in (core, csys, cesys, esys, xlate):
        if hasattr(mod, "validate_fincat"):
            monkeypatch.setattr(mod, "validate_fincat", fincat)
        if hasattr(mod, "check_pullback_square"):
            monkeypatch.setattr(mod, "check_pullback_square", square)
        if hasattr(mod, "check_pullback_composites"):
            monkeypatch.setattr(mod, "check_pullback_composites", composites)
    return calls


@pytest.mark.parametrize("height", [4, 5])
def test_grand_roundtrip_calls_match_reference(crosschecked, height):
    xlate.grand_roundtrip_iso(bsys.build_finset_bsystem(height))
    assert crosschecked["validate_fincat"] > 0
    assert crosschecked["check_pullback_composites"] > 0


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
    assert crosschecked["check_pullback_composites"] > 0


@st.composite
def pullback_tables(draw):
    """A random table and a pb of entries (f, X) -> (Y, q) with f an
    arrow. X and Y come from three labels, so entries meet each other;
    q is an arrow or a name that is no arrow, and the table's own gaps,
    stray keys and non-arrow composites give absent and unknown f∘g and
    q∘q'."""
    cat = draw(random_tables())
    names = sorted(cat.arrows)
    labels = ("X", "Y", "zz")
    pb = {}
    for _ in range(draw(st.integers(0, 12)) if names else 0):
        key = (draw(st.sampled_from(names)), draw(st.sampled_from(labels)))
        pb[key] = (draw(st.sampled_from(labels)), draw(st.sampled_from(names + ["zz"])))
    return cat, pb


def test_check_pullback_composites_matches_reference_on_random_tables():
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(pullback_tables())
    def run(table):
        cat, pb = table
        mine, ref = Report(), Report()
        check_pullback_composites(cat, pb, mine, "pb-c")
        check_pullback_composites_reference(cat, pb, ref, "pb-c")
        assert_same_report(mine, ref)
        res = mine.laws.get("pb-c")
        if res is not None:
            seen["failed"] += bool(res.violations)
            seen["skipped"] += bool(res.skipped)
            seen["passed"] += res.checked > res.skipped + len(res.violations)

    run()
    assert seen["failed"] and seen["skipped"] and seen["passed"]


class CountingDict(dict):
    """A dict that counts its reads by key."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def test_validators_read_the_table_per_composite_not_per_pair():
    """The finset-b h7 round-trip base holds 828 composites of 25,080
    composable pairs. validate_fincat and check_pullback_composites each
    read its table fewer than 4 * (composites + arrows) times."""
    a = xlate.e_to_ce(xlate.b_to_e(bsys.build_finset_bsystem(7)))
    table = CountingDict(a.base.compose)
    base = dataclasses.replace(a.base, compose=table)
    bound = 4 * (len(table) + len(base.arrows))
    validate_fincat(base)
    assert table.reads < bound
    table.reads = 0
    check_pullback_composites(base, a.pb, Report(), "pb-c")
    assert table.reads < bound


# ---------------------------------------------------------------------------
# B-system validation against the slice systems it no longer builds


def assert_bsystem_matches_reference(b: bsys.BSystem, d: bsys.BSystem) -> None:
    """validate_bsystem(d), and the identity of b's frame as a hom b -> d."""
    assert_same_report(bsys.validate_bsystem(d), validate_bsystem_reference(d))
    h = bsys.bhom_identity(b.frame)
    assert_same_report(bsys.validate_bsystem_hom(h, b, d), validate_bsystem_hom_reference(h, b, d))


@pytest.mark.parametrize("height", range(1, 8))
def test_validate_bsystem_matches_reference_on_finset_b(height):
    b = bsys.build_finset_bsystem(height)
    assert_bsystem_matches_reference(b, b)


@pytest.mark.parametrize("text, height", list(SYNTACTIC_PINS))
def test_validate_bsystem_matches_reference_on_syntactic_systems(text, height):
    b = build_syntactic_bframe(parse_signature(text), height, 2)
    assert_bsystem_matches_reference(b, b)


DAMAGE_BASES = {
    "finset-b-h3": lambda: bsys.build_finset_bsystem(3),
    "finset-b-h4": lambda: bsys.build_finset_bsystem(4),
    "finset-b-h5": lambda: bsys.build_finset_bsystem(5),
    "lam-app-h2-b1": lambda: build_syntactic_bframe(parse_signature(LAM_APP), 2, 1),
}


def bsystem_damages(b: bsys.BSystem) -> list[tuple]:
    """Every single damage of b: (table, key) drops a row; (table, key,
    "H" or "Ht", level, x, y) sends x to y, another element of the same
    level of the hom's target."""
    out = [(table, key) for table in ("subst", "weak", "gen") for key in sorted(getattr(b, table))]
    for table in ("subst", "weak"):
        for key, h in sorted(getattr(b, table).items()):
            for name, levels in (("H", h.target.B), ("Ht", h.target.Bt)):
                for lvl, m in sorted(getattr(h, name).items()):
                    for x, y in sorted(m.items()):
                        out += [(table, key, name, lvl, x, z) for z in sorted(levels[lvl] - {y})]
    return out


def damaged(b: bsys.BSystem, damage: tuple) -> bsys.BSystem:
    """A copy of b with one damage; b and its homs are left as they are."""
    tables = {table: dict(getattr(b, table)) for table in ("subst", "weak", "gen")}
    table, key, *entry = damage
    if not entry:
        del tables[table][key]
    else:
        name, lvl, x, y = entry
        h = tables[table][key]
        levels = {**getattr(h, name), lvl: {**getattr(h, name)[lvl], x: y}}
        tables[table][key] = dataclasses.replace(h, **{name: levels})
    return bsys.BSystem(frame=b.frame, **tables)


def test_validate_bsystem_matches_reference_on_single_damages():
    bases = {name: build() for name, build in DAMAGE_BASES.items()}
    damages = {name: bsystem_damages(b) for name, b in bases.items()}
    drawn = collections.Counter()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(bases)))
        damage = data.draw(st.sampled_from(damages[name]))
        drawn[len(damage) == 2, damage[0]] += 1
        assert_bsystem_matches_reference(bases[name], damaged(bases[name], damage))

    check()
    # rows of every table dropped, and entries of both kinds of hom retargeted
    assert set(drawn) == {(True, "subst"), (True, "weak"), (True, "gen"), (False, "subst"), (False, "weak")}


def test_check_preservation_skips_an_image_outside_the_target_slice():
    """A term of a weakening hom sent to an element of the ambient level
    that is not over the target's base: the slice system of the target has
    no entry there, so the instance is skipped, though the ambient system
    has one. validate_bframe_hom would fail on such a hom first, so the
    check is called directly."""
    b = build_syntactic_bframe(parse_signature("type U; type El(tm)"), 3, 2)
    cases = 0
    for (n, X), w in sorted(b.weak.items()):
        for lvl, m in sorted(w.Ht.items()):
            outside = sorted(b.frame.Bt[lvl + n] - w.target.Bt[lvl])
            for x, z in itertools.product(sorted(m), outside):
                h = dataclasses.replace(w, Ht={**w.Ht, lvl: {**m, x: z}})
                src, tgt = slice_system_reference(b, n - 1, b.frame.ft[n][X]), slice_system_reference(b, n, X)
                mine, ref = Report(), Report()
                bsys.check_preservation(h, b, b, (n - 1, n), mine, "axiom-2")
                check_preservation_reference(h, src, tgt, ref, "axiom-2")
                assert_same_report(mine, ref)
                cases += ref.laws["axiom-2"].skipped > 0
    assert cases
