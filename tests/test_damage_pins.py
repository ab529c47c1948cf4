"""Single-damage outcomes, pinned.

Each case drops one table entry from a small structure: an identity or a
composite of a category, an ``ifun``, ``pb`` or ``proj`` entry, or one
entry of a functor's object or arrow map. It then runs the validators
and translations that read that table. The outcome of each run is the
report text with every witness, the saved translation, or the exception
type and message. The hash of a case's outcomes must match
tests/damage_pins.py, so a change in how a missing entry is read cannot
move a skip, a witness, a count or an output document.

The pins were recorded while the validators still caught Truncated
around raising accessors. To record them again:

    PYTHONPATH=src python tests/test_damage_pins.py > tests/damage_pins.py
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

import pytest

from bcsys.bsys import build_finset_bsystem
from bcsys.cesys import (
    CEHom,
    build_finset_cesystem,
    validate_ce_hom,
    validate_cesystem,
)
from bcsys.core import identity_functor, validate_fincat, validate_functor, validate_units
from bcsys.csys import validate_csystem
from bcsys.esys import build_nat_esystem, check_pairing, internal_hom_cat, validate_esystem
from bcsys.serialize import dumps, fincat_payload, save_structure
from bcsys.xlate import b_to_e, c_to_ce, casce_iso, ce_to_c, ce_to_e, e_to_ce

from helpers import counit_of, violations


def _without(d: dict, key) -> dict:
    out = dict(d)
    del out[key]
    return out


def _cat_damages(cat, tag: str):
    """(name, damaged copy) for each identity and each composite."""
    for x in sorted(cat.identity):
        yield f"{tag}-identity:{x}", replace(cat, identity=_without(cat.identity, x))
    for key in sorted(cat.compose):
        yield f"{tag}-compose:{key}", replace(cat, compose=_without(cat.compose, key))


def _ce_cases():
    for tag, a in (
        ("finset-ce2", build_finset_cesystem(2)),
        ("nat-e3", e_to_ce(build_nat_esystem(3))),
    ):
        for name, fam in _cat_damages(a.fam, "fam"):
            yield f"{tag} {name}", replace(a, fam=fam)
        for name, base in _cat_damages(a.base, "base"):
            yield f"{tag} {name}", replace(a, base=base)
        for key in sorted(a.ifun):
            yield f"{tag} ifun:{key}", replace(a, ifun=_without(a.ifun, key))
        for key in sorted(a.pb):
            yield f"{tag} pb:{key}", replace(a, pb=_without(a.pb, key))


def _c_cases():
    for tag, c in (
        ("finset-ce2", ce_to_c(build_finset_cesystem(2))),
        ("nat-e3", ce_to_c(e_to_ce(build_nat_esystem(3)))),
    ):
        for name, cat in _cat_damages(c.cat, "cat"):
            yield f"{tag} {name}", replace(c, cat=cat)
        for key in sorted(c.proj):
            yield f"{tag} proj:{key}", replace(c, proj=_without(c.proj, key))
        for key in sorted(c.pb):
            yield f"{tag} pb:{key}", replace(c, pb=_without(c.pb, key))


def _e_cases():
    for tag, e in (
        ("nat-e3", build_nat_esystem(3)),
        ("finset-b3", b_to_e(build_finset_bsystem(3))),
    ):
        for name, cat in _cat_damages(e.cat, "cat"):
            yield f"{tag} {name}", replace(e, cat=cat)


def _functor_cases():
    a = build_finset_cesystem(2)
    for tag, h in (
        ("identity", CEHom(a, a, identity_functor(a.fam), identity_functor(a.base))),
        ("counit", counit_of(a)),
    ):
        for part in ("fam_map", "base_map"):
            F = getattr(h, part)
            for field in ("object_map", "arrow_map"):
                table = getattr(F, field)
                for key in sorted(table):
                    damaged = replace(F, **{field: _without(table, key)})
                    yield f"{tag} {part}.{field}:{key}", replace(h, **{part: damaged})


def _report(rep) -> str:
    return rep.format() + "\n" + "\n".join(str(v) for v in violations(rep))


def _ce_runs(a):
    yield "validate_cesystem", lambda: _report(validate_cesystem(a, rooted=True, stratified=True))
    yield "units", lambda: _report(validate_units(a.fam)) + _report(validate_units(a.base))
    yield "functor", lambda: _report(validate_functor(identity_functor(a.fam)))
    yield "casce_iso", lambda: _report(casce_iso(a).report)
    yield "counit", lambda: _report(validate_ce_hom(counit_of(a)))
    yield "ce_to_c", lambda: _save_and_check(ce_to_c(a))
    yield "ce_to_e", lambda: _save_and_check(ce_to_e(a))


def _c_runs(c):
    yield "validate_csystem", lambda: _report(validate_csystem(c))
    yield "c_to_ce", lambda: _save_and_check(c_to_ce(c))
    yield "c2ce2c", lambda: save_structure(ce_to_c(c_to_ce(c)))


def _e_runs(e):
    yield "validate_esystem", lambda: _report(validate_esystem(e))
    yield "check_pairing", lambda: _report(check_pairing(e))
    for gamma in sorted(e.cat.objects):
        yield f"internal_hom:{gamma}", lambda g=gamma: _fincat(internal_hom_cat(e, g))
    yield "e_to_ce", lambda: _save_and_check(e_to_ce(e))


def _functor_runs(h):
    yield "fam", lambda: _report(validate_functor(h.fam_map))
    yield "base", lambda: _report(validate_functor(h.base_map))
    yield "ce_hom", lambda: _report(validate_ce_hom(h))


def _fincat(cat) -> str:
    return dumps(fincat_payload(cat)) + _report(validate_fincat(cat))


def _save_and_check(obj) -> str:
    """The saved document, then the validator's report on it."""
    text = save_structure(obj)
    if hasattr(obj, "ifun"):
        return text + _report(validate_cesystem(obj, rooted=True, stratified=True))
    if hasattr(obj, "proj") and hasattr(obj, "pb"):
        return text + _report(validate_csystem(obj))
    return text


def _outcome(run) -> str:
    try:
        return run()
    except Exception as exc:  # the outcome of a run that raised
        return f"{type(exc).__name__}: {getattr(exc, 'what', exc)}"


GROUPS = {
    "ce": (_ce_cases, _ce_runs),
    "c": (_c_cases, _c_runs),
    "e": (_e_cases, _e_runs),
    "hom": (_functor_cases, _functor_runs),
}


def outcomes(group: str) -> dict[str, str]:
    """case name -> sha256 of the outcomes of every run, in run order."""
    cases, runs = GROUPS[group]
    out = {}
    for name, obj in cases():
        text = "\n\n".join(f"== {run_name}\n{_outcome(run)}" for run_name, run in runs(obj))
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_damage_outcomes_pinned(group):
    from damage_pins import PINS

    got = outcomes(group)
    want = PINS[group]
    assert sorted(got) == sorted(want)
    moved = sorted(name for name in got if got[name] != want[name])
    assert moved == []


if __name__ == "__main__":
    sys.stdout.write('"""sha256 of the outcomes of tests/test_damage_pins.py."""\n\nPINS = {\n')
    for group in sorted(GROUPS):
        sys.stdout.write(f"    {group!r}: {{\n")
        for name, digest in outcomes(group).items():
            sys.stdout.write(f"        {name!r}: {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
