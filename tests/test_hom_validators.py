"""The functor and B-frame hom validators against their entry-by-entry walks.

``core.validate_functor`` tests each law on whole maps and walks entries
only where that test fails; ``bsys.validate_bframe_hom`` walks each level
and enters each law once; ``bsys.check_preservation`` makes each
restriction once per call.
``reference.py`` keeps the bodies they replace. Each check here asserts
the same report: the same law names in the same order, the same checked
and skipped counts and the same violations in the same order.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference
from bcsys import bsys, cesys, core, esys, xlate
from bcsys.core import identity_functor
from bcsys.report import Report
from bcsys.syntax import build_syntactic_bframe, parse_signature

from helpers import counit_of
from reference import (
    check_preservation_per_square_reference,
    validate_bframe_hom_reference,
    validate_bsystem_hom_per_square_reference,
    validate_bsystem_reference,
    validate_functor_reference,
)
from test_damage_pins import _ce_cases, _functor_cases
from test_law_crosscheck import assert_same_report, bsystem_damages, damaged
from test_syntax import LAM_APP, UEL


@pytest.fixture
def walks_crosschecked(monkeypatch):
    """Compare every validate_functor call of cesys, esys and xlate, and
    every validate_bsystem_hom call of xlate, with the references; returns
    the number of calls of each."""
    calls = collections.Counter()
    fast_functor, fast_bhom = core.validate_functor, bsys.validate_bsystem_hom

    def functor(fd):
        rep = fast_functor(fd)
        assert_same_report(rep, validate_functor_reference(fd))
        calls["validate_functor"] += 1
        return rep

    def bhom(h, src, tgt):
        rep = fast_bhom(h, src, tgt)
        assert_same_report(rep, validate_bsystem_hom_per_square_reference(h, src, tgt))
        calls["validate_bsystem_hom"] += 1
        return rep

    for mod in (cesys, esys, xlate):
        if hasattr(mod, "validate_functor"):
            monkeypatch.setattr(mod, "validate_functor", functor)
    monkeypatch.setattr(xlate, "validate_bsystem_hom", bhom)
    return calls


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_casce_comp_and_fact_functors_match_reference(walks_crosschecked, height):
    assert xlate.casce_iso(cesys.build_finset_cesystem(height)).report.ok
    # comp and fact, each a fam and a base functor
    assert walks_crosschecked["validate_functor"] == 4


@pytest.mark.parametrize(
    "build",
    [lambda h=h: bsys.build_finset_bsystem(h) for h in range(2, 7)]
    + [lambda: build_syntactic_bframe(parse_signature(UEL), 3, 2)],
    ids=[f"finset-b-h{h}" for h in range(2, 7)] + ["uel-h3-b2"],
)
def test_grand_roundtrip_bhoms_match_reference(walks_crosschecked, build):
    xlate.grand_roundtrip_iso(build())
    # fwd and bwd of the B round trip, and the two composite homs
    assert walks_crosschecked["validate_bsystem_hom"] == 4
    assert walks_crosschecked["validate_functor"] > 0


def test_damage_pin_functors_match_reference():
    cases = 0
    for _name, h in _functor_cases():
        for fd in (h.fam_map, h.base_map):
            assert_same_report(core.validate_functor(fd), validate_functor_reference(fd))
            cases += 1
    for _name, a in _ce_cases():
        fd = identity_functor(a.fam)
        assert_same_report(core.validate_functor(fd), validate_functor_reference(fd))
        cases += 1
    assert cases > 100


# ---------------------------------------------------------------------------
# single damages of functors


def functor_bases() -> dict[str, core.FunctorData]:
    a = cesys.build_finset_cesystem(2)
    counit = counit_of(a)
    return {
        "base-identity": identity_functor(a.base),
        "fam-identity": identity_functor(a.fam),
        "counit-fam": counit.fam_map,
        "counit-base": counit.base_map,
    }


def functor_damages(fd: core.FunctorData) -> list[tuple]:
    """Every single damage of fd: drop an entry of a map, send it to another
    element of the target or to a name that is none, or drop an identity
    or a composite of the target."""
    out = []
    for field, elements in (("object_map", fd.target.objects), ("arrow_map", fd.target.arrows)):
        for key, y in sorted(getattr(fd, field).items()):
            out.append(("drop", field, key))
            out += [("send", field, key, z) for z in sorted(set(elements) - {y})]
            out.append(("send", field, key, "zz"))
    out += [("drop-identity", x) for x in sorted(fd.target.identity)]
    out += [("drop-composite", key) for key in sorted(fd.target.compose)]
    return out


def damaged_functor(fd: core.FunctorData, damage: tuple) -> core.FunctorData:
    """A copy of fd with one damage; fd and its categories are left as they are."""
    kind, *rest = damage
    if kind in ("drop", "send"):
        field, key, *value = rest
        table = dict(getattr(fd, field))
        if value:
            table[key] = value[0]
        else:
            del table[key]
        return dataclasses.replace(fd, **{field: table})
    tgt = fd.target
    if kind == "drop-identity":
        identity = {x: a for x, a in tgt.identity.items() if x != rest[0]}
        return dataclasses.replace(fd, target=dataclasses.replace(tgt, identity=identity))
    compose = {key: a for key, a in tgt.compose.items() if key != rest[0]}
    return dataclasses.replace(fd, target=dataclasses.replace(tgt, compose=compose))


def outcomes(rep: Report) -> set[tuple[str, str]]:
    """(law, "fail") and (law, "skip") for each law that failed or skipped."""
    out = set()
    for name, res in rep.laws.items():
        if res.violations:
            out.add((name, "fail"))
        if res.skipped:
            out.add((name, "skip"))
    return out


def test_validate_functor_matches_reference_on_single_damages():
    bases = functor_bases()
    damages = {name: functor_damages(fd) for name, fd in bases.items()}
    seen = set()
    kinds = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(bases)))
        damage = data.draw(st.sampled_from(damages[name]))
        fd = damaged_functor(bases[name], damage)
        want = validate_functor_reference(fd)
        assert_same_report(core.validate_functor(fd), want)
        seen.update(outcomes(want))
        kinds.add(damage[0])

    check()
    assert kinds == {"drop", "send", "drop-identity", "drop-composite"}
    # every law's whole test failed on some draw, so each walk ran
    assert seen >= {
        ("object-map", "fail"),
        ("arrow-map", "fail"),
        ("preserves-identity", "fail"),
        ("preserves-identity", "skip"),
        ("preserves-compose", "fail"),
        ("preserves-compose", "skip"),
    }


# ---------------------------------------------------------------------------
# single damages of B-frame homs


def bhom_bases() -> list[tuple[bsys.BFrameHom, bsys.BSystem, tuple[int, int]]]:
    """(hom, its system, at) for every substitution and weakening, and the
    identity at level 0, of finset-b h4 and two syntactic systems."""
    out = []
    for b in (
        bsys.build_finset_bsystem(4),
        build_syntactic_bframe(parse_signature(UEL), 3, 2),
        build_syntactic_bframe(parse_signature(LAM_APP), 2, 1),
    ):
        out.append((bsys.bhom_identity(b.frame), b, (0, 0)))
        out += [(h, b, (k, k - 1)) for (k, _x), h in sorted(b.subst.items())]
        out += [(h, b, (n - 1, n)) for (n, _X), h in sorted(b.weak.items())]
    return out


def bhom_damages(h: bsys.BFrameHom, b: bsys.BSystem, at: tuple[int, int]) -> list[tuple]:
    """Every single damage of h: drop an entry of H or Ht, send it to
    another element of its target level, to an element of the ambient
    level outside the target, or to a name that is no element."""
    m = at[1]
    out = []
    for name, levels, ambient in (("H", h.target.B, b.frame.B), ("Ht", h.target.Bt, b.frame.Bt)):
        for lvl, table in sorted(getattr(h, name).items()):
            for x, y in sorted(table.items()):
                out.append((name, lvl, x, None))
                out += [(name, lvl, x, z) for z in sorted(levels[lvl] - {y})]
                out += [(name, lvl, x, z) for z in sorted(ambient[lvl + m] - levels[lvl])[:2]]
                out.append((name, lvl, x, "zz"))
    return out


def damaged_bhom(h: bsys.BFrameHom, damage: tuple) -> bsys.BFrameHom:
    """A copy of h with one entry dropped (to None) or sent to another value."""
    name, lvl, x, z = damage
    table = {k: v for k, v in getattr(h, name)[lvl].items() if k != x}
    if z is not None:
        table[x] = z
    return dataclasses.replace(h, **{name: {**getattr(h, name), lvl: table}})


def test_bframe_hom_checks_match_reference_on_single_damages():
    bases = bhom_bases()
    damages = [bhom_damages(*base) for base in bases]
    seen = set()

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def check(data):
        i = data.draw(st.sampled_from(range(len(bases))))
        h, b, at = bases[i]
        d = damaged_bhom(h, data.draw(st.sampled_from(damages[i])))
        want = validate_bframe_hom_reference(d)
        assert_same_report(bsys.validate_bframe_hom(d), want)
        mine, ref = Report(), Report()
        bsys.check_preservation(d, b, b, at, mine, "pre")
        check_preservation_per_square_reference(d, b, b, at, ref, "pre")
        assert_same_report(mine, ref)
        seen.update(outcomes(want) | outcomes(ref))

    check()
    # every law's whole test failed on some draw, so each walk ran
    assert seen >= {
        (law, outcome) for law in ("ft-natural", "bd-natural", "total", "pre") for outcome in ("fail", "skip")
    }


# ---------------------------------------------------------------------------
# restrictions: once per check_preservation call, kept by none


def test_check_preservation_restricts_each_base_once_per_call(monkeypatch):
    """Each check_preservation call restricts its hom at the (n, X) the
    per-square reference restricts at, each once, where the reference
    restricts some more than once."""
    made: list[tuple[int, str]] = []
    fast_restrict = bsys.restrict_bhom

    def restrict(h, n, X):
        made.append((n, X))
        return fast_restrict(h, n, X)

    monkeypatch.setattr(bsys, "restrict_bhom", restrict)
    monkeypatch.setattr(reference, "restrict_bhom", restrict)
    repeated = 0
    for h, b, at in bhom_bases():
        made.clear()
        bsys.check_preservation(h, b, b, at, Report(), "pre")
        mine = list(made)
        made.clear()
        check_preservation_per_square_reference(h, b, b, at, Report(), "pre")
        assert len(mine) == len(set(mine))
        assert set(mine) == set(made)
        repeated += len(made) - len(mine)
    assert repeated > 0


def test_validate_bsystem_sees_a_hom_damaged_in_place_between_calls():
    """A restriction made in one validate_bsystem call is not read by the
    next: an H entry of a weakening sent, in place, to another element of
    its target level changes the second report's axiom-2 witnesses as the
    reference says."""
    b = build_syntactic_bframe(parse_signature(UEL), 3, 2)
    first = bsys.validate_bsystem(b)
    assert_same_report(first, validate_bsystem_reference(b))
    _table, key, _name, lvl, x, y = next(
        d
        for d in bsystem_damages(b)
        if d[:1] == ("weak",) and d[2:3] == ("H",)
        and bsys.validate_bsystem(damaged(b, d)).laws["axiom-2"].violations != first.laws["axiom-2"].violations
    )
    b.weak[key].H[lvl][x] = y
    second = bsys.validate_bsystem(b)
    assert_same_report(second, validate_bsystem_reference(b))
    assert second.laws["axiom-2"].violations != first.laws["axiom-2"].violations
