"""No validator, translation or witness writes into a structure it is given.

The round-trip witnesses compare structures that their callers built
and pass on to later stages, so a write into one would change what a
later stage reads. Each call here runs on the built examples at heights
2 to 4 (finset-b, nat-e, finset-ce, and the C-system ce_to_c of
finset-ce), and the saved document of every structure it is given must
be byte-identical before and after the call. A homomorphism given to a
call stands for its source and target, which are checked the same way;
the witnesses that take homomorphisms are called with the unit and
counit that adjunction_witnesses and grand_roundtrip_iso hand them.
"""

import pytest

from bcsys.bsys import build_finset_bsystem, validate_bsystem
from bcsys.cesys import CEHom, build_finset_cesystem, validate_cesystem
from bcsys.csys import validate_csystem
from bcsys.esys import EHom, build_nat_esystem, validate_esystem
from bcsys.serialize import save_structure
from bcsys.xlate import (
    adjunction_witnesses,
    b_roundtrip_iso,
    b_to_e,
    c_to_ce,
    casce_iso,
    ce2e_of_cehom,
    ce_to_c,
    ce_to_e,
    cehom_of_ehom,
    counit_cehom,
    e2b_of_ehom,
    e_to_b,
    e_to_ce,
    grand_roundtrip_iso,
    invert_ehom,
    unit_ehom,
)

from helpers import b_image, unit_of


def calls(height: int):
    """(name, function, its arguments) for each call checked at ``height``."""
    b = build_finset_bsystem(height)
    e = build_nat_esystem(height)
    ae = e_to_ce(e)
    ehat = ce_to_e(ae)
    eta = unit_ehom(e, ehat)
    a = build_finset_cesystem(height)
    ea = ce_to_e(a)
    aea = e_to_ce(ea)
    eps = counit_cehom(a, ea, aea)
    c = ce_to_c(a)
    # the stratified unit at b_to_e(b), as grand_roundtrip_iso transports one
    eb = b_to_e(b)
    eta_b = unit_of(eb)
    return [
        ("b_to_e", b_to_e, (b,)),
        ("validate_bsystem", validate_bsystem, (b,)),
        ("b_roundtrip_iso", b_roundtrip_iso, (b, b_image(b))),
        ("grand_roundtrip_iso", grand_roundtrip_iso, (b,)),
        ("e_to_ce", e_to_ce, (e,)),
        ("e_to_b", e_to_b, (e,)),
        ("validate_esystem", validate_esystem, (e,)),
        ("unit_ehom", unit_ehom, (e, ehat)),
        ("invert_ehom", invert_ehom, (eta,)),
        ("cehom_of_ehom", cehom_of_ehom, (eta, ae, e_to_ce(ehat))),
        ("e2b_of_ehom", e2b_of_ehom, (eta_b, e_to_b(eb), e_to_b(eta_b.target))),
        ("ce_to_e", ce_to_e, (a,)),
        ("ce_to_c", ce_to_c, (a,)),
        ("validate_cesystem", lambda a: validate_cesystem(a, rooted=True, stratified=True), (a,)),
        ("casce_iso", casce_iso, (a,)),
        ("counit_cehom", counit_cehom, (a, ea, aea)),
        ("ce2e_of_cehom", ce2e_of_cehom, (eps, ce_to_e(aea), ea)),
        ("adjunction_witnesses", adjunction_witnesses, (a,)),
        ("c_to_ce", c_to_ce, (c,)),
        ("validate_csystem", validate_csystem, (c,)),
    ]


def watched(args) -> list:
    """The structures a call is given: each argument, or the source and
    target of a homomorphism."""
    out = []
    for x in args:
        out.extend((x.source, x.target) if isinstance(x, (EHom, CEHom)) else (x,))
    return out


@pytest.mark.parametrize("height", [2, 3, 4])
def test_calls_leave_their_inputs_unchanged(height):
    """Each structure is saved once before the calls, and each call's
    arguments are saved again after it."""
    checked = calls(height)
    saved = {id(x): save_structure(x) for _name, _fn, args in checked for x in watched(args)}
    changed = []
    for name, fn, args in checked:
        fn(*args)
        if any(save_structure(x) != saved[id(x)] for x in watched(args)):
            changed.append(name)
    assert not changed
