"""The pointwise E-to-CE translation against the composite-building one.

``esys.internal_hom_cat``, ``xlate.e_to_ce``, ``esys.vertical_compose``
and ``xlate.unit_ehom`` read single entries of S_f, W_A/B, W_{A.P} and
W_{!Γ}/!Γ; ``reference.py`` keeps the versions that build f* = S_f ∘
(W_A/B), W_{A.P}/B and W_{!Γ}/!Γ whole. Each check here asserts the same
tables (or the same exception type, and for Truncated the same missing
entry; vertical_compose returns None where its reference raises
Truncated) on the built examples and on E-systems with entries dropped
or retargeted.

``xlate.b_to_e``, ``c_to_ce`` and ``ce_to_c`` are checked the same way
against their earlier bodies in ``reference.py``: on the built examples,
on B-systems with Ht entries dropped or retargeted or H entries
dropped, and on C- and
CE-systems with ft, proj, pb or ifun rows dropped. ``ce_to_e``, which
enumerates each family slice once per call, must give every table of
its earlier body in the same insertion order: on finset-ce, on
``e_to_ce`` of the examples and of the syntactic B-systems, and on
CE-systems with one pb or ifun row dropped. So are
``counit_cehom`` and ``cehom_of_ehom``, which read a base arrow's term
from the names of its hom set where their earlier bodies decoded the
arrow id, on damaged E-systems and CE-systems at heights 0 to 5.
``adjunction_witnesses(a)`` gives the report its earlier two-argument
body gives on ``(ce_to_e(a), a)``. ``e_to_b``, ``e2b_of_ehom`` and the
comp map of ``_casce_iso``, which read what the structures hold, give
the tables of their earlier bodies, which parsed ids, on the examples,
in grand round trips and on damaged E-systems.

The last tests pin how ids are made and read: no module of bcsys
defines or reads a decoder of joined or packed ids (an AST check), and,
counting calls, ``c_to_ce`` and ``b_to_e`` make each path id once,
``e_to_ce`` enumerates each slice and plans each restriction once,
``ce_to_e`` enumerates each family slice once, and
the round-trip witnesses make each translation they compare once.
"""

import ast
import collections
import contextlib
import copy
import inspect
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bcsys
from bcsys import core, esys, xlate
from bcsys.bsys import build_finset_bsystem
from bcsys.cesys import build_finset_cesystem
from bcsys.core import FinCat
from bcsys.esys import ESystem, build_nat_esystem, internal_hom_cat, vertical_compose
from bcsys.report import Truncated
from bcsys.serialize import save_structure
from bcsys.syntax import build_syntactic_bframe, parse_signature
from bcsys.xlate import b_to_e, c_to_ce, ce_to_c, ce_to_e, cehom_of_ehom, e_to_ce

import helpers
from helpers import counit_of, unit_of
from test_builders import assert_same
from test_csys_cesys import non_rooted_cesystem
from test_syntax import SYNTACTIC_PINS

from reference import (
    adjunction_witnesses_reference,
    b_to_e_reference,
    c_to_ce_reference,
    casce_comp_reference,
    ce_to_c_reference,
    ce_to_e_reference,
    cehom_of_ehom_reference,
    counit_cehom_reference,
    e2b_of_ehom_reference,
    e_to_b_reference,
    e_to_ce_reference,
    ih_term,
    internal_hom_cat_reference,
    unit_ehom_reference,
    vertical_compose_reference,
)


def fincat_tables(c: FinCat) -> tuple:
    return (c.objects, c.arrows, c.identity, c.compose, c.partial, c.terminal)


def cesystem_tables(a) -> tuple:
    return (fincat_tables(a.fam), fincat_tables(a.base), a.ifun, a.pb, a.root)


def outcome(fn, tables, *args):
    """tables(fn(*args)), None where fn returns None, or the type of the
    exception fn raised, with the entry it names if it is Truncated."""
    try:
        out = fn(*args)
    except Truncated as exc:
        return Truncated, exc.what
    except Exception as exc:
        return type(exc)
    return None if out is None else tables(out)


def reference_vertical(*args):
    """outcome of vertical_compose_reference, with None where it raises
    Truncated: vertical_compose returns None for the same missing entry."""
    got = outcome(vertical_compose_reference, str, *args)
    return None if isinstance(got, tuple) and got[0] is Truncated else got


@contextlib.contextmanager
def checking_vertical_compose():
    """Compare every vertical_compose call e_to_ce makes with the
    reference; yields the list of calls' arguments."""
    calls = []

    def checked(*args):
        calls.append(args)
        assert outcome(vertical_compose, str, *args) == reference_vertical(*args), args
        return vertical_compose(*args)

    xlate.vertical_compose = checked
    try:
        yield calls
    finally:
        xlate.vertical_compose = vertical_compose


def assert_translations_match(e) -> list:
    root = e.cat.terminal
    assert outcome(internal_hom_cat, fincat_tables, e, root) == outcome(
        internal_hom_cat_reference, fincat_tables, e, root
    )
    with checking_vertical_compose() as calls:
        got = outcome(e_to_ce, cesystem_tables, e)
    assert got == outcome(e_to_ce_reference, cesystem_tables, e)
    return calls


def built(kind: str, height: int):
    return build_nat_esystem(height) if kind == "nat-e" else b_to_e(build_finset_bsystem(height))


@pytest.mark.parametrize("height", range(7))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_translations_match_reference_on_examples(kind, height):
    calls = assert_translations_match(built(kind, height))
    assert height < 2 or calls


# ---------------------------------------------------------------------------
# damaged E-systems

BASES = {kind: built(kind, 3) for kind in ("nat-e", "finset-b")}

DAMAGE = (
    "weak",  # drop a weakening functor
    "subst",  # drop a substitution functor
    "proj",  # drop an identity term
    "obj",  # drop an object-map entry of one functor
    "mor",  # drop a morphism-map entry
    "term",  # drop a whole term table
    "term-entry",  # drop one term of a term table
    "obj-diagonal",  # drop W_A(A), where the identity term 1_A sits
    "obj-retarget",  # point an object-map entry at another arrow
    "compose-retarget",  # point a composite at another arrow
    "compose-stray",  # give any pair of arrows, composable or not, a composite
)


def damaged_system(choose, kind=None, base=None):
    """A deep copy of ``base``, or else of nat-e or b_to_e(finset-b) at
    height 3, with one to four entries dropped or retargeted; ``choose``
    picks one element of a sequence."""
    e = copy.deepcopy(base if base is not None else BASES[kind or choose(sorted(BASES))])
    arrows = sorted(e.cat.arrows)
    for _ in range(choose((1, 2, 3, 4))):
        damage = choose(DAMAGE)
        if damage in ("weak", "subst", "proj"):
            table = getattr(e, damage)
            if table:
                del table[choose(sorted(table))]
        elif damage == "obj-diagonal":
            A = choose(arrows)
            if A in e.weak:
                e.weak[A].obj_map.pop(A, None)
        elif damage == "compose-retarget":
            e.cat.compose[choose(sorted(e.cat.compose))] = choose(arrows)
        elif damage == "compose-stray":
            e.cat.compose[(choose(arrows), choose(arrows))] = choose(arrows)
        else:
            functors = [e.weak[k] for k in sorted(e.weak)] + [e.subst[k] for k in sorted(e.subst)]
            if not functors:
                continue
            F = choose(functors)
            table = F.term_map if damage.startswith("term") else F.obj_map if damage.startswith("obj") else F.mor_map
            if not table:
                continue
            k = choose(sorted(table))
            if damage == "term-entry":
                if table[k]:
                    del table[k][choose(sorted(table[k]))]
            elif damage == "obj-retarget":
                table[k] = choose(arrows)
            else:
                del table[k]
    return e


def vertical_calls(e) -> list[tuple]:
    """The arguments (A, B, f, P, Q, F) of every vertical_compose call
    e_to_ce makes on e."""
    with checking_vertical_compose() as calls:
        e_to_ce(e)
    return [args[1:] for args in calls]


CALLS = {kind: vertical_calls(e) for kind, e in BASES.items()}


def vertical_case(choose):
    """A damaged system and arguments (A, B, f, P, Q, F) of
    vertical_compose: those of a call e_to_ce makes on the undamaged
    system, each replaced by an arrow or a term one time in eight. Then
    one of W_P, W_{A.P}, or the entries W_A(B), W_P(W_A(B)) and
    W_{A.P}(B), all of which vertical_compose reads, is dropped."""
    kind = choose(sorted(BASES))
    e = damaged_system(choose, kind)
    cat = e.cat
    pools = (sorted(cat.arrows), sorted(set().union(*e.tc.terms.values())))
    args = [
        choose(pools[i in (2, 5)]) if choose(range(8)) == 0 else value
        for i, value in enumerate(choose(CALLS[kind]))
    ]
    drop_weak(e, *choose(weak_reads(e, *args)))
    return e, tuple(args)


def weak_reads(e, A, B, f, P, Q, F) -> list[tuple]:
    """W_P and W_{A.P} as (arrow, None), and the entries W_A(B),
    W_P(W_A(B)) and W_{A.P}(B) as (arrow, key): what vertical_compose
    reads of the weakenings."""
    AP = e.cat.compose.get((A, P))
    WAB = e.weak[A].obj_map.get(B) if A in e.weak else None
    return [(P, None), (AP, None), (A, B), (P, WAB), (AP, B)]


def drop_weak(e, W, key) -> None:
    """Drop W_W, or its object-map entry at key."""
    if W in e.weak:
        if key is None:
            del e.weak[W]
        else:
            e.weak[W].obj_map.pop(key, None)


def drawing(draw):
    return lambda seq: draw(st.sampled_from(seq))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_translations_match_reference_on_damaged_systems(data):
    assert_translations_match(damaged_system(drawing(data.draw)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vertical_compose_matches_reference_on_drawn_arguments(data):
    e, args = vertical_case(drawing(data.draw))
    assert outcome(vertical_compose, str, e, *args) == reference_vertical(e, *args)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_vertical_compose_matches_reference_with_each_read_dropped(kind):
    for args in CALLS[kind]:
        for read in weak_reads(BASES[kind], *args):
            e = copy.deepcopy(BASES[kind])
            drop_weak(e, *read)
            assert outcome(vertical_compose, str, e, *args) == reference_vertical(e, *args), (args, read)


def test_vertical_compose_reads_only_arrows_into_dom_b():
    """An entry of W_{A.P}'s morphism map at (Q, B∘Q, B) is no slice
    position when Q is not an arrow into dom(B), even where the tables
    hold one: vertical_compose returns None where the reference raises
    Truncated, as restricting does."""
    e = copy.deepcopy(BASES["nat-e"])
    A, B, f, P, Q, F = args = ("1>=0", "0>=0", "[]", "2>=1", "1>=0", "[1]")
    assert args in CALLS["nat-e"]
    wap = e.weak[e.cat.compose[(A, P)]]
    stray = "1>=1"  # an arrow into 1, not into dom(B) = 0
    e.cat.compose[(B, stray)] = "1>=0"
    wap.mor_map[(stray, "1>=0", B)] = wap.mor_map[(Q, e.cat.compose[(B, Q)], B)]
    moved = (A, B, f, P, stray, F)
    assert outcome(vertical_compose_reference, str, e, *moved)[0] is Truncated
    assert outcome(vertical_compose, str, e, *moved) is None
    assert reference_vertical(e, *moved) is None


@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_translations_match_reference_with_each_entry_dropped_at_height_0(kind):
    """At height 0 nothing is truncated, so the internal-hom category is
    partial only where a dropped entry makes it so."""
    base = built(kind, 0)
    assert not internal_hom_cat(base, base.cat.terminal).partial
    functors = [("weak", k) for k in sorted(base.weak)] + [("subst", k) for k in sorted(base.subst)]
    for family, name in functors:
        for table in ("obj_map", "mor_map", "term_map"):
            for key in sorted(getattr(getattr(base, family)[name], table)):
                e = copy.deepcopy(base)
                del getattr(getattr(e, family)[name], table)[key]
                assert_translations_match(e)


# A guard no damage reaches: it needs a composite A∘xR with wrong
# endpoints for which vertical_compose still succeeds, and then
# W_P(W_A(B)) and (W_{A.P}/B)(Q) are not composable in either system.
UNREACHED = {"if pulled not in fam.arrows:"}


def branch_lines(fn) -> set[int]:
    """Line numbers of fn's ``partial = True``, ``continue`` and
    ``raise Truncated`` statements, less those under UNREACHED guards."""
    lines, start = inspect.getsourcelines(fn)
    return {
        start + i
        for i, text in enumerate(lines)
        if (text.strip() in ("partial = True", "continue") or text.strip().startswith("raise Truncated"))
        and lines[i - 1].strip() not in UNREACHED
    }


def test_damage_reaches_every_branch():
    """damaged_system and vertical_case, choosing uniformly with a fixed
    seed, reach every branch that marks the internal-hom category
    partial, skips a composite or a pullback, or raises Truncated in
    vertical_compose_reference: each way vertical_compose, which the
    tests above hold to it, can miss. The reference runs on the
    arguments of every vertical_compose call e_to_ce makes, and on
    vertical_case's."""
    fns = (esys._internal_hom, esys._precompose_reads, xlate.e_to_ce, vertical_compose_reference)
    codes = {fn.__code__ for fn in fns}
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_name, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    rng = random.Random(0)
    for _ in range(200):
        e = damaged_system(rng.choice)
        v, args = vertical_case(rng.choice)
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            with checking_vertical_compose(), contextlib.suppress(Exception):
                e_to_ce(e)
            with contextlib.suppress(Exception):
                vertical_compose_reference(v, *args)
        finally:
            sys.settrace(previous)
    missed = {(fn.__name__, ln) for fn in fns for ln in branch_lines(fn)} - hit
    assert not missed


# ---------------------------------------------------------------------------
# the unit eta: e -> ce_to_e(e_to_ce(e))


def ehom_tables(h) -> tuple:
    return (h.functor.object_map, h.functor.arrow_map, h.term_map, fincat_tables(h.target.cat))


def assert_unit_matches(e) -> object:
    got = outcome(unit_of, ehom_tables, e)
    assert got == outcome(unit_ehom_reference, ehom_tables, e)
    return got


@pytest.mark.parametrize("height", range(2, 6))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_unit_ehom_matches_reference_on_examples(kind, height):
    _objects, _arrows, term_map, _cat = assert_unit_matches(built(kind, height))
    assert any(term_map.values())


def one_damage(damage, rng):
    """A chooser for damaged_system that applies exactly one ``damage``."""

    def choose(seq):
        if seq is DAMAGE:
            return damage
        if seq == (1, 2, 3, 4):
            return 1
        return rng.choice(seq)

    return choose


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", sorted(BASES))
def test_unit_ehom_matches_reference_with_one_damage(kind, damage):
    rng = random.Random(0)
    for _ in range(5):
        assert_unit_matches(damaged_system(one_damage(damage, rng), kind))


@pytest.mark.parametrize("kind", sorted(BASES))
def test_unit_ehom_matches_reference_with_each_position_read_dropped(kind):
    """For every arrow A into Γ, drop W_{!Γ}(!Γ), the composite !Γ∘A or
    the position W_{!Γ}.mor_map[(A, !Γ∘A, !Γ)] that unit_ehom reads."""
    base = BASES[kind]
    cat = base.cat
    changed = 0
    for A in sorted(cat.arrows):
        bang = cat.hom(cat.cod(A), cat.terminal)
        if len(bang) != 1 or bang[0] not in base.weak:
            continue
        bg = bang[0]
        key = (bg, A)
        drops = [
            lambda e: e.weak[bg].obj_map.pop(bg, None),
            lambda e: e.cat.compose.pop(key, None),
            lambda e: e.weak[bg].mor_map.pop((A, e.cat.compose.get(key), bg), None),
        ]
        for drop in drops:
            e = copy.deepcopy(base)
            drop(e)
            changed += assert_unit_matches(e) != outcome(unit_of, ehom_tables, base)
    assert changed


# ---------------------------------------------------------------------------
# nothing outlives a call


def change_weak_term(e) -> None:
    """Send the term [0] of W_{2>=1} at the triangle (2>=1, 2>=1, 1>=1) to [1]."""
    table = e.weak["2>=1"].term_map[("2>=1", "2>=1", "1>=1")]
    assert table["[0]"] == "[0]"
    table["[0]"] = "[1]"


def test_translation_memo_does_not_outlive_the_call():
    e = build_nat_esystem(4)
    before = save_structure(e_to_ce(e))
    change_weak_term(e)
    after = save_structure(e_to_ce(e))
    fresh = build_nat_esystem(4)
    change_weak_term(fresh)
    assert after == save_structure(e_to_ce(fresh))
    assert after != before


# ---------------------------------------------------------------------------
# b_to_e, c_to_ce and ce_to_c against their earlier bodies


def sfunctor_tables(sf) -> tuple:
    return (sf.source_apex, sf.target_apex, sf.obj_map, sf.mor_map, sf.term_map)


def esystem_tables(e) -> tuple:
    return (
        fincat_tables(e.cat),
        e.tc.terms,
        {k: sfunctor_tables(sf) for k, sf in e.subst.items()},
        {k: sfunctor_tables(sf) for k, sf in e.weak.items()},
        e.proj,
        e.levels,
    )


def csystem_tables(c) -> tuple:
    return (fincat_tables(c.cat), c.one, c.length, c.ft, c.proj, c.pb)


def assert_b_to_e_matches(b) -> tuple:
    got = outcome(b_to_e, esystem_tables, b)
    assert got == outcome(b_to_e_reference, esystem_tables, b)
    return got


def assert_c_translations_match(a) -> None:
    """ce_to_c on a, and c_to_ce on what it gives, against the references."""
    got = outcome(ce_to_c, csystem_tables, a)
    assert got == outcome(ce_to_c_reference, csystem_tables, a)
    if isinstance(got, tuple):
        assert_c_to_ce_matches(ce_to_c(a))


def assert_c_to_ce_matches(c) -> tuple:
    got = outcome(c_to_ce, cesystem_tables, c)
    assert got == outcome(c_to_ce_reference, cesystem_tables, c)
    return got


@pytest.mark.parametrize("height", range(8))
def test_b_to_e_matches_reference_on_finset_b(height):
    _cat, terms, *_functors = assert_b_to_e_matches(build_finset_bsystem(height))
    assert height < 2 or any(terms.values())


@pytest.mark.parametrize("height", range(8))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_c_translations_match_reference_through_e_to_ce(kind, height):
    assert_c_translations_match(e_to_ce(built(kind, height)))


@pytest.mark.parametrize("height", [2, 3])
def test_c_translations_match_reference_on_finset_ce(height):
    assert_c_translations_match(build_finset_cesystem(height))


def ht_entries(b) -> list[tuple]:
    """(table, key, level, element) of every Ht entry of every
    substitution and weakening homomorphism of b."""
    return [
        (table, key, level, x)
        for table in ("subst", "weak")
        for key, hom in sorted(getattr(b, table).items())
        for level, m in sorted(hom.Ht.items())
        for x in sorted(m)
    ]


# what a damaged Ht entry becomes: None drops it; a name no term tuple
# holds makes images that are no term tuple, packed afresh
STRAYS = (None, "stray", "a,(b)\\")


def damage_ht(b, table, key, level, x, value) -> None:
    """Drop the Ht entry x of a homomorphism of b, or send x to value."""
    m = getattr(b, table)[key].Ht[level]
    if value is None:
        del m[x]
    else:
        m[x] = value


@pytest.mark.parametrize("value", STRAYS)
@pytest.mark.parametrize("height", [3, 4, 5])
def test_b_to_e_matches_reference_with_each_ht_entry_damaged(height, value):
    """A dropped Ht entry leaves a term tuple with an unmapped component,
    which fill_terms skips; a retargeted one gives an image that is no
    term tuple."""
    base = build_finset_bsystem(height)
    whole = assert_b_to_e_matches(base)
    changed = 0
    for entry in ht_entries(base):
        b = copy.deepcopy(base)
        damage_ht(b, *entry, value)
        changed += assert_b_to_e_matches(b) != whole
    assert changed


@pytest.mark.parametrize("height", [3, 4, 5])
def test_b_to_e_matches_reference_with_each_h_entry_dropped(height):
    """A dropped H entry leaves out the objects and slice morphisms of
    the functor that read it; the slice morphisms out of a source frame
    are listed once per call, whatever H holds."""
    base = build_finset_bsystem(height)
    whole = assert_b_to_e_matches(base)
    changed = 0
    for table in ("subst", "weak"):
        for key, hom in sorted(getattr(base, table).items()):
            for level, m in sorted(hom.H.items()):
                for x in sorted(m):
                    b = copy.deepcopy(base)
                    del getattr(b, table)[key].H[level][x]
                    changed += assert_b_to_e_matches(b) != whole
    assert changed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_b_to_e_matches_reference_with_ht_entries_damaged(data):
    b = build_finset_bsystem(data.draw(st.sampled_from([3, 4, 5])))
    entries = ht_entries(b)
    values = STRAYS + tuple(x for *_, x in entries)
    for entry in data.draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4, unique=True)):
        damage_ht(b, *entry, data.draw(st.sampled_from(values)))
    assert_b_to_e_matches(b)


C_BASES = {kind: ce_to_c(e_to_ce(built(kind, 4))) for kind in ("nat-e", "finset-b")}
CE_BASES = {
    "nat-e": e_to_ce(built("nat-e", 4)),
    "finset-b": e_to_ce(built("finset-b", 4)),
    "finset-ce": build_finset_cesystem(3),
}


def c_rows(c) -> list[tuple]:
    """(table, key) of every ft, proj and pb row of a C-system."""
    return [(table, key) for table in ("ft", "proj", "pb") for key in sorted(getattr(c, table))]


def ce_rows(a) -> list[tuple]:
    """(table, key) of every pb and ifun row of a CE-system."""
    return [(table, key) for table in ("pb", "ifun") for key in sorted(getattr(a, table))]


def without(obj, rows):
    obj = copy.deepcopy(obj)
    for table, key in rows:
        del getattr(obj, table)[key]
    return obj


@pytest.mark.parametrize("kind", sorted(C_BASES))
def test_c_to_ce_matches_reference_with_each_row_dropped(kind):
    base = C_BASES[kind]
    whole = assert_c_to_ce_matches(base)
    changed = 0
    for row in c_rows(base):
        changed += assert_c_to_ce_matches(without(base, [row])) != whole
    assert changed


@pytest.mark.parametrize("kind", sorted(CE_BASES))
def test_ce_to_c_matches_reference_with_each_row_dropped(kind):
    base = CE_BASES[kind]
    whole = outcome(ce_to_c, csystem_tables, base)
    changed = 0
    for row in ce_rows(base):
        damaged = without(base, [row])
        assert_c_translations_match(damaged)
        changed += outcome(ce_to_c, csystem_tables, damaged) != whole
    assert changed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_c_translations_match_reference_with_rows_dropped(data):
    def dropped(rows):
        return data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4, unique=True))

    c = C_BASES[data.draw(st.sampled_from(sorted(C_BASES)))]
    assert_c_to_ce_matches(without(c, dropped(c_rows(c))))
    a = CE_BASES[data.draw(st.sampled_from(sorted(CE_BASES)))]
    assert_c_translations_match(without(a, dropped(ce_rows(a))))


# ---------------------------------------------------------------------------
# ce_to_e against its earlier body


def assert_ce_to_e_matches(a) -> object:
    """ce_to_e(a) holds the tables of its earlier body, each with the
    same entries in the same insertion order, or both raise alike."""
    got = outcome(ce_to_e, lambda e: e, a)
    want = outcome(ce_to_e_reference, lambda e: e, a)
    if isinstance(got, ESystem):
        assert_same(got, want)
    else:
        assert got == want
    return got


@pytest.mark.parametrize("height", range(1, 5))
def test_ce_to_e_matches_reference_on_finset_ce(height):
    e = assert_ce_to_e_matches(build_finset_cesystem(height))
    assert any(sf.term_map for sf in e.subst.values())


@pytest.mark.parametrize("height", range(2, 7))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_ce_to_e_matches_reference_through_e_to_ce(kind, height):
    assert isinstance(assert_ce_to_e_matches(e_to_ce(built(kind, height))), ESystem)


@pytest.mark.parametrize("text, height", list(SYNTACTIC_PINS))
def test_ce_to_e_matches_reference_on_syntactic_systems(text, height):
    b = build_syntactic_bframe(parse_signature(text), height, 2)
    assert isinstance(assert_ce_to_e_matches(e_to_ce(b_to_e(b))), ESystem)


@pytest.mark.parametrize("kind", sorted(CE_BASES))
def test_ce_to_e_matches_reference_with_each_row_dropped(kind):
    base = CE_BASES[kind]
    whole = assert_ce_to_e_matches(base)
    changed = 0
    for row in ce_rows(base):
        got = assert_ce_to_e_matches(without(base, [row]))
        changed += not isinstance(got, ESystem) or esystem_tables(got) != esystem_tables(whole)
    assert changed


# ---------------------------------------------------------------------------
# the counit and E2CE on homomorphisms against their earlier bodies


def cehom_tables(h) -> tuple:
    return (h.fam_map.object_map, h.fam_map.arrow_map, h.base_map.object_map, h.base_map.arrow_map)


def assert_counit_matches(a) -> object:
    got = outcome(counit_of, cehom_tables, a)
    assert got == outcome(counit_cehom_reference, cehom_tables, a)
    return got


def assert_cehom_of_ehom_matches(h, src_ce, tgt_ce) -> object:
    got = outcome(cehom_of_ehom, cehom_tables, h, src_ce, tgt_ce)
    assert got == outcome(cehom_of_ehom_reference, cehom_tables, h, src_ce, tgt_ce)
    return got


def or_none(fn, *args):
    """fn(*args), or None where it raises: a damaged input that no
    translation gets past gives the homomorphisms nothing to read."""
    try:
        return fn(*args)
    except Exception:
        return None


def ih_terms_reference(e, arrows) -> dict:
    """name -> t for each arrow that reference.ih_term decodes."""
    terms = {name: ih_term(e, name, arr.dom, arr.cod) for name, arr in arrows.items()}
    return {name: t for name, t in terms.items() if t is not None}


def assert_ih_terms_match(e, arrows) -> object:
    got = outcome(esys._ih_terms, dict, e, arrows)
    assert got == outcome(ih_terms_reference, dict, e, arrows)
    return got


def assert_adjunction_homs_match(e, other) -> list:
    """The counit at e_to_ce(e), and cehom_of_ehom of the unit at e from
    e_to_ce(e), against the references; and the terms that
    esys._ih_terms, which both read, finds for the base arrows of
    e_to_ce(e) and of e_to_ce(other), against reference.ih_term. With
    ``other`` a differently damaged system, some base arrows name hom
    sets that e does not represent. Returns the outcomes compared."""
    got = []
    ae = or_none(e_to_ce, e)
    if ae is not None:
        got.append(assert_counit_matches(ae))
    eta = or_none(unit_of, e)
    tgt = or_none(e_to_ce, eta.target) if eta is not None else None
    if ae is not None and tgt is not None:
        got.append(assert_cehom_of_ehom_matches(eta, ae, tgt))
    for src in (ae, or_none(e_to_ce, other)):
        if src is not None:
            got.append(assert_ih_terms_match(e, src.base.arrows))
    return got


@pytest.mark.parametrize("height", range(6))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_adjunction_homs_match_reference_on_examples(kind, height):
    e = built(kind, height)
    counit, unit_image, terms, same = assert_adjunction_homs_match(e, e)
    assert height < 1 or (counit[3] and unit_image[3] and terms)
    assert terms == same


@pytest.mark.parametrize("height", range(6))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_adjunction_homs_match_reference_with_one_damage(kind, height):
    base = built(kind, height)
    rng = random.Random(height)
    for damage in DAMAGE:
        e = damaged_system(one_damage(damage, rng), base=base)
        assert assert_adjunction_homs_match(e, base)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adjunction_homs_match_reference_on_damaged_systems(data):
    choose = drawing(data.draw)
    base = built(choose(["nat-e", "finset-b"]), choose(range(6)))
    assert_adjunction_homs_match(damaged_system(choose, base=base), damaged_system(choose, base=base))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_counit_matches_reference_with_ce_rows_dropped(data):
    choose = drawing(data.draw)
    a = e_to_ce(built(choose(["nat-e", "finset-b"]), choose(range(6))))
    rows = ce_rows(a)
    if rows:
        a = without(a, data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4, unique=True)))
    assert_counit_matches(a)


ADJUNCTION_INPUTS = [
    *(("finset-ce", h) for h in (1, 2, 3)),
    *(("non-rooted", h) for h in (2, 3)),
    *((kind, h) for kind in ("nat-e", "finset-b") for h in (2, 3, 4)),
]


def adjunction_input(kind: str, height: int):
    """finset-ce, the non-rooted CE-system, or e_to_ce of a built E-system."""
    if kind == "finset-ce":
        return build_finset_cesystem(height)
    if kind == "non-rooted":
        return non_rooted_cesystem(height)
    return e_to_ce(built(kind, height))


@pytest.mark.parametrize("kind, height", ADJUNCTION_INPUTS)
def test_adjunction_witnesses_match_reference(kind, height):
    a = adjunction_input(kind, height)
    eta, eps, rep = xlate.adjunction_witnesses(a)
    eta_ref, eps_ref, rep_ref = adjunction_witnesses_reference(ce_to_e(a), a)
    assert rep.format() == rep_ref.format()
    assert ehom_tables(eta) == ehom_tables(eta_ref)
    assert cehom_tables(eps) == cehom_tables(eps_ref)


# ---------------------------------------------------------------------------
# the witnesses that read what the structures hold, against their bodies
# that parsed ids


def bhom_tables(h) -> tuple:
    return (h.H, h.Ht)


def bsystem_tables(b) -> tuple:
    f = b.frame
    return (
        (f.height, f.B, f.Bt, f.ft, f.bd),
        {k: bhom_tables(h) for k, h in b.subst.items()},
        {k: bhom_tables(h) for k, h in b.weak.items()},
        b.gen,
    )


def comp_arrows(iso) -> dict:
    """The arrow map of comp: ahat -> a, the backward map of _casce_iso."""
    return iso.backward.fam_map.arrow_map


# name in xlate: (its tables, the reference, the reference's tables)
WITNESSES = {
    "e_to_b": (bsystem_tables, e_to_b_reference, bsystem_tables),
    "e2b_of_ehom": (bhom_tables, e2b_of_ehom_reference, bhom_tables),
    "_casce_iso": (comp_arrows, casce_comp_reference, dict),
}


def checking_witnesses(monkeypatch) -> collections.Counter:
    """Check every call of xlate.e_to_b, e2b_of_ehom and _casce_iso, from
    a test or from xlate, against its earlier body: the same tables, or
    the same exception. Counts the calls checked, and those that
    returned."""
    seen = collections.Counter()
    for name, (tables, reference, reference_tables) in WITNESSES.items():
        real = getattr(xlate, name)

        def checked(*args, real=real, name=name, tables=tables, reference=reference, ref=reference_tables):
            got = outcome(real, tables, *args)
            assert got == outcome(reference, ref, *args), name
            seen[name] += 1
            seen[name, "returned"] += isinstance(got, (tuple, dict))
            return real(*args)

        monkeypatch.setattr(xlate, name, checked)
    return seen


@pytest.fixture
def witnesses(monkeypatch):
    return checking_witnesses(monkeypatch)


def run_witnesses(e) -> None:
    """e_to_b of e, e2b_of_ehom of the unit at e, from e_to_b(e) to
    e_to_b of its target, and casce_iso of e_to_ce(e), each where the
    structures it reads can be built."""
    xlate.e_to_b(e)
    eta = or_none(unit_of, e)
    src = or_none(e_to_b_reference, e)
    tgt = or_none(e_to_b_reference, eta.target) if eta is not None else None
    if src is not None and tgt is not None:
        xlate.e2b_of_ehom(eta, src, tgt)
    a = or_none(e_to_ce, e)
    if a is not None:
        with contextlib.suppress(Exception):
            xlate.casce_iso(a)


@pytest.mark.parametrize("height", range(5))
def test_casce_comp_matches_reference_on_finset_ce(witnesses, height):
    assert xlate.casce_iso(build_finset_cesystem(height)).verified
    assert witnesses["_casce_iso", "returned"] == 1


@pytest.mark.parametrize("height", range(1, 6))
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_witnesses_match_reference_on_examples(witnesses, kind, height):
    run_witnesses(built(kind, height))
    assert all(witnesses[name, "returned"] == 1 for name in WITNESSES)


@pytest.mark.parametrize("height", range(1, 7))
def test_witnesses_match_reference_in_grand_round_trips(witnesses, height):
    """Two e_to_b, one e2b_of_ehom and one _casce_iso per round trip."""
    iso, _stages = xlate.grand_roundtrip_iso(build_finset_bsystem(height))
    assert iso.verified
    assert [witnesses[name, "returned"] for name in WITNESSES] == [2, 1, 1]


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", sorted(BASES))
def test_witnesses_match_reference_with_one_damage(witnesses, kind, damage):
    rng = random.Random(0)
    for _ in range(5):
        run_witnesses(damaged_system(one_damage(damage, rng), kind))
    assert witnesses["e_to_b"] == 5
    assert all(witnesses[name, "returned"] for name in WITNESSES)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_witnesses_match_reference_on_damaged_systems(data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = checking_witnesses(monkeypatch)
        run_witnesses(damaged_system(drawing(data.draw)))
        assert seen["e_to_b"] == 1


# ---------------------------------------------------------------------------
# each id made once, none decoded, each slice enumerated once


def counting(monkeypatch, modules, name, calls, keep=lambda *args: True):
    """Replace ``name`` under each of ``modules`` that binds it by a
    wrapper that appends its arguments to ``calls`` where keep(*args)."""
    real = getattr(modules[0], name)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return real(*args)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)


DECODERS = ("split_ids", "unpack_ids")


def test_no_module_defines_or_reads_a_decoder():
    """The decoders of joined and packed ids live in tests/helpers.py: no
    module of bcsys defines, imports or reads either, so no translation
    or witness parses an id that another function made."""
    found = []
    for path in sorted(Path(bcsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (
                getattr(node, "name", None)
                or getattr(node, "id", None)
                or getattr(node, "attr", None)
                or getattr(node, "asname", None)
            )
            if name in DECODERS:
                found.append((path.stem, name, node.lineno))
    assert not found
    assert all(hasattr(helpers, name) for name in DECODERS)


SPLITS = ("split", "rsplit", "partition", "rpartition")


@contextlib.contextmanager
def recording_ih_decodes():
    """Record, while the block runs, each call of a function named in
    DECODERS and each str split or partition that code of bcsys makes,
    where the string is an internal-hom id."""
    package = str(Path(bcsys.__file__).parent)
    decoded = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in DECODERS:
            first = frame.f_locals.get(frame.f_code.co_varnames[0]) if frame.f_code.co_argcount else None
            if isinstance(first, str) and first.startswith("ih|"):
                decoded.append((frame.f_code.co_name, first))
        elif event == "c_call" and getattr(arg, "__name__", None) in SPLITS:
            s = getattr(arg, "__self__", None)
            if isinstance(s, str) and s.startswith("ih|") and frame.f_code.co_filename.startswith(package):
                decoded.append((arg.__name__, s))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield decoded
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_translations_decode_no_internal_hom_id(kind):
    """The counit, the unit's CE-image and the adjunction witnesses at
    e_to_ce(e) neither call a decoder nor split an internal-hom id at
    run time; test_no_module_defines_or_reads_a_decoder pins the names
    statically."""
    e = built(kind, 4)
    with recording_ih_decodes() as decoded:
        ae = e_to_ce(e)
        eps = counit_of(ae)
        eta = unit_of(e)
        cehom_of_ehom(eta, ae, eps.source)
        xlate.adjunction_witnesses(ae)
    assert eps.base_map.arrow_map
    assert any(name.startswith("ih|") for name in ae.base.arrows)
    assert not decoded


def test_ih_decode_recorder_sees_a_split_of_an_ih_id():
    """recording_ih_decodes sees a decoder called on an internal-hom id
    and a split of one made in bcsys, so an empty record is no blind
    spot."""
    ih = esys.ih_arrow("A", "B", "t")
    with recording_ih_decodes() as decoded:
        helpers.split_ids(ih, "|")
        helpers.split_ids("x|y", "|")
    assert [name for name, _s in decoded] == ["split_ids"]
    code = compile("s.split('|')", str(Path(bcsys.__file__).parent / "probe.py"), "eval")
    with recording_ih_decodes() as decoded:
        eval(code, {"s": ih})
        eval(code, {"s": "x|y"})
    assert decoded == [("split", ih)]


@pytest.mark.parametrize("c", [*C_BASES.values(), ce_to_c(build_finset_cesystem(3))], ids=[*C_BASES, "finset-ce"])
def test_c_to_ce_makes_each_path_id_once(monkeypatch, c):
    made = []
    counting(monkeypatch, (xlate,), "proj_path", made)
    a = c_to_ce(c)
    assert len(made) == len(set(made)) >= len(a.fam.arrows)


@pytest.mark.parametrize("height", [3, 6])
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_e_to_ce_enumerates_each_slice_once(monkeypatch, kind, height):
    """slice_mors once per apex and one restriction plan per slice
    object, over the whole call, and no restrict_sf."""
    e = built(kind, height)
    slices, plans, restricted = [], [], []
    counting(monkeypatch, (core, esys, xlate), "slice_mors", slices)
    counting(monkeypatch, (esys,), "_restriction_plan", plans)
    counting(monkeypatch, (esys,), "restrict_sf", restricted)
    e_to_ce(e)
    apexes = [apex for _c, apex in slices]
    planned = [P for _slices, P in plans]
    assert len(apexes) == len(set(apexes))
    assert len(planned) == len(set(planned)) > 0
    assert not restricted


def test_ce_to_e_enumerates_each_family_slice_once(monkeypatch):
    """slice_mors once per apex of the pullback functors ce_to_e builds,
    over the whole call."""
    a = build_finset_cesystem(3)
    slices, pulled = [], []
    counting(monkeypatch, (xlate,), "slice_mors", slices)
    counting(monkeypatch, (xlate,), "_pullback_sfunctor", pulled)
    ce_to_e(a)
    apexes = [apex for _c, apex in slices]
    assert all(c is a.fam for c, _apex in slices)
    assert len(apexes) == len(set(apexes))
    assert set(apexes) == {a.base.cod(f) for _a, f, _mors in pulled}
    assert len(pulled) > len(apexes)


@pytest.mark.parametrize("height", [3, 5])
def test_b_to_e_and_e_to_b_make_each_id_once_and_decode_none(monkeypatch, height):
    """b_to_e makes each path id once and parses none, with e_to_b run
    on its output; test_no_module_defines_or_reads_a_decoder pins that
    e_to_b unpacks no frame element."""
    b = build_finset_bsystem(height)
    made = []
    counting(monkeypatch, (xlate,), "path_id", made)
    e = b_to_e(b)
    xlate.e_to_b(e)
    assert len(made) == len(set(made)) > 0
    assert not hasattr(xlate, "parse_path_id")


TRANSLATIONS = ("b_to_e", "e_to_ce", "ce_to_c", "c_to_ce", "ce_to_e", "e_to_b")


def translation_counts(monkeypatch) -> dict[str, list]:
    """Calls of each translation that xlate makes through its own bindings."""
    calls: dict[str, list] = {name: [] for name in TRANSLATIONS}
    for name in TRANSLATIONS:
        counting(monkeypatch, (xlate,), name, calls[name])
    return calls


def test_grand_roundtrip_makes_eight_translations(monkeypatch):
    """The six stages, the unit's target ce_to_e(a), and e_to_b of the
    stage's e for the relabeling: the witnesses translate no stage's
    input again, and comp/fact compares a with the back stage's a."""
    b = build_finset_bsystem(4)
    calls = translation_counts(monkeypatch)
    iso, _stages = xlate.grand_roundtrip_iso(b)
    assert iso.verified
    assert {name: len(c) for name, c in calls.items()} == {
        "b_to_e": 1, "e_to_ce": 1, "ce_to_c": 1, "c_to_ce": 1, "ce_to_e": 2, "e_to_b": 2,
    }


def test_adjunction_witnesses_make_four_translations(monkeypatch):
    """e = ce_to_e(a), e_to_ce(e), ce_to_e of that, and e_to_ce of that."""
    a = build_finset_cesystem(2)
    calls = translation_counts(monkeypatch)
    _eta, _eps, rep = xlate.adjunction_witnesses(a)
    assert rep.ok
    assert {name: len(c) for name, c in calls.items() if c} == {"ce_to_e": 2, "e_to_ce": 2}
