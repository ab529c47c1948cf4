import hashlib

import pytest

from bcsys import bsys
from bcsys.syntax import (
    BindingSignature,
    RawExpr,
    SignatureError,
    build_syntactic_bframe,
    enumerate_raw,
    parse_signature,
    shift,
    subst,
)
from bcsys.bsys import validate_bframe, validate_bsystem
from bcsys.serialize import load_structure, save_structure

from helpers import total_skipped, unpack_ids


UEL = "type U; type El(tm)"


def test_parse_two_type_formers():
    sig = parse_signature(UEL)
    assert [f.name for f in sig.type_formers] == ["U", "El"]
    assert sig.type_formers[1].args[0].sort == "tm"
    assert sig.type_formers[1].args[0].binders == 0
    assert sig.term_formers == ()


def test_parse_binding_into_type_argument_is_fine():
    sig = parse_signature("type Pi(ty, tm^1.ty)")
    assert sig.type_formers[0].args == (
        type(sig.type_formers[0].args[0])("ty", 0),
        type(sig.type_formers[0].args[0])("ty", 1),
    )


def test_parse_rejects_type_variable_binding():
    with pytest.raises(SignatureError):
        parse_signature("type Bad(ty^1.ty)")


def test_parse_error_carries_position():
    with pytest.raises(SignatureError) as exc:
        parse_signature("type Ok\nbogus decl")
    assert exc.value.line == 2


def test_empty_signature_is_valid():
    sig = parse_signature("  # nothing here\n")
    assert sig.type_formers == () and sig.term_formers == ()


def test_enumerate_closed_expressions():
    sig = parse_signature(UEL)
    lm0, r0 = enumerate_raw(sig, 0, 2)
    assert [e.key() for e in lm0] == ["U"]
    assert r0 == []


def test_enumerate_one_variable():
    sig = parse_signature(UEL)
    lm1, r1 = enumerate_raw(sig, 1, 2)
    assert sorted(e.key() for e in lm1) == ["El(#0)", "U"]
    assert [e.key() for e in r1] == ["#0"]


def test_enumerate_two_variables():
    sig = parse_signature(UEL)
    lm2, _ = enumerate_raw(sig, 2, 2)
    assert len(lm2) == 3  # U, El(#0), El(#1)


def test_enumeration_is_deterministic():
    sig = parse_signature(UEL)
    a = [e.key() for e in enumerate_raw(sig, 3, 2)[0]]
    b = [e.key() for e in enumerate_raw(sig, 3, 2)[0]]
    assert a == b


def test_shift_and_subst_de_bruijn():
    v0, v1 = RawExpr("tm", "#0"), RawExpr("tm", "#1")
    el0 = RawExpr("ty", "El", (v0,))
    assert shift(el0, 1, 0).key() == "El(#1)"
    assert shift(el0, 1, 1).key() == "El(#0)"
    assert subst(RawExpr("ty", "El", (v1,)), 0, v0).key() == "El(#0)"
    assert subst(el0, 0, v1).key() == "El(#1)"


BINDING_LAM, PLAIN_LAM = "type U; term lam(tm^1.tm)", "type U; term lam(tm)"


def _lam_after(order):
    """Enumerate the two lam signatures in ``order``, then shift and
    substitute each one's lam(#0) over one variable, and build each one's
    syntactic B-frame."""
    sigs = {text: parse_signature(text) for text in order}
    lams = {}
    for text in order:
        _tys, tms = enumerate_raw(sigs[text], 1, 2)
        lams[text] = next(t for t in tms if t.key() == "lam(#0)")
    moved = {
        text: (shift(lam, 1).key(), subst(lam, 0, RawExpr("tm", "#5")).key())
        for text, lam in lams.items()
    }
    reports = {
        text: validate_bsystem(build_syntactic_bframe(sigs[text], 2, 2)).format() for text in order
    }
    return moved, reports


def test_shift_and_subst_read_binders_from_their_own_signature():
    moved, reports = _lam_after([BINDING_LAM, PLAIN_LAM])
    # under the binder, #0 is the bound variable; without it, the free one
    assert moved == {BINDING_LAM: ("lam(#0)", "lam(#0)"), PLAIN_LAM: ("lam(#1)", "lam(#5)")}
    assert _lam_after([PLAIN_LAM, BINDING_LAM]) == (moved, reports)


def test_syntactic_bframe_level_sizes():
    # |B_n| is the product of |LM([i])| for i < n; |B~_{n+1}| multiplies in
    # |R([n])| and |LM([n])|. Independent closed forms for {U, El}:
    # |LM([i])| = 1 + i and |R([i])| = i.
    sig = parse_signature(UEL)
    sys = build_syntactic_bframe(sig, 3, 2)
    assert [len(s) for s in sys.frame.B] == [1, 1, 2, 6]
    assert [len(s) for s in sys.frame.Bt] == [0, 0, 2, 12]
    assert validate_bframe(sys.frame).ok


def test_syntactic_bframe_passes_bsystem_axioms_in_bound():
    sig = parse_signature(UEL)
    sys = build_syntactic_bframe(sig, 3, 2)
    rep = validate_bsystem(sys)
    assert not rep.failed_laws(), rep.format()
    assert total_skipped(rep) > 0  # the bound genuinely truncates


def test_syntactic_generic_element_shape():
    sig = parse_signature(UEL)
    sys = build_syntactic_bframe(sig, 3, 2)
    # delta on the context (U): the variable #0 of the weakened type U
    (x_u,) = [x for x in sys.frame.B[1]]
    d = sys.gen[(1, x_u)]
    tele, term, ty = unpack_ids(d)
    assert term == "#0"
    assert ty == "U"
    # bd(delta) = W_X(X)
    assert sys.frame.bd[2][d] == sys.weak[(1, x_u)].H[1][x_u]


def test_weakening_is_injective_on_enumerated_sets():
    sig = parse_signature(UEL)
    sys = build_syntactic_bframe(sig, 3, 2)
    for (n, X), hom in sys.weak.items():
        for lvl, table in hom.Ht.items():
            assert len(set(table.values())) == len(table)
        for lvl, table in hom.H.items():
            assert len(set(table.values())) == len(table)


def test_subst_after_weaken_is_identity():
    # the de Bruijn instance of axiom 3, checked through the validator
    sig = parse_signature(UEL)
    sys = build_syntactic_bframe(sig, 3, 2)
    rep = validate_bsystem(sys)
    assert not rep.laws["axiom-3"].violations
    assert rep.laws["axiom-3"].checked > 0


def test_bigger_signature_with_binders_validates():
    sig = parse_signature("type U; type El(tm); type Pi(ty, tm^1.ty); term lam(ty, tm^1.tm)")
    sys = build_syntactic_bframe(sig, 2, 2)
    rep = validate_bsystem(sys)
    assert not rep.failed_laws(), rep.format()


LAM_APP = "type U; type El(tm); term lam(tm^1.tm); term app(tm,tm)"

# sha256 of save_structure and of Report.format() for build_syntactic_bframe
# at bound 2, recorded before substitution and weakening shared one routine
SYNTACTIC_PINS = {
    (UEL, 3): (
        "2c05b0423aef751931a1e3525b95e881e352df5c0c6d32d4701b413b348b320b",
        "795ce723b4762a62d42d28ffbd22d172af3e8cd71d95c8771d3f750a032ef424",
    ),
    (UEL, 4): (
        "f5067f40a506bec58a9ba7cb15fef6ebca2ef8db81a39959590a4fa1ad668d6c",
        "37978eb0ec397aef380ad4d8b2c3e330f1a98412fb666d77f2bdebb4d614cf07",
    ),
    ("type U; type Pi(ty, tm^1.ty); term lam(tm^1.tm)", 3): (
        "d47b4c391e0d4ac3180446ef31f7e176efdf66a1e9dfc42db41503d6e79633c3",
        "858e3905226455e78b81acecb798eec3a9562324c5a2fdb9e95ffafab3dc64dc",
    ),
    (LAM_APP, 2): (
        "9e5ffa1d75c4c02fe246a1171f509da4c2547dee33f08112b2148f0486fe7c0f",
        "29d798cf37ab88e31792961c6bc5b5f0d67848150548dee43b7eb11e541e89a2",
    ),
}


@pytest.mark.parametrize("text, height", list(SYNTACTIC_PINS))
def test_syntactic_bsystem_matches_its_pins(text, height):
    sys = build_syntactic_bframe(parse_signature(text), height, 2)
    rep = validate_bsystem(sys)
    got = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (save_structure(sys), rep.format()))
    assert got == SYNTACTIC_PINS[(text, height)]


def count_slice_builds(monkeypatch) -> list[tuple]:
    """Record (frame, n, X) for every slice frame bsys builds from now on;
    the list holds each frame, so no two frames share an id."""
    builds = []
    build = bsys._build_slice

    def counted(frame, n, X):
        builds.append((frame, n, X))
        return build(frame, n, X)

    monkeypatch.setattr(bsys, "_build_slice", counted)
    return builds


def test_builder_slices_each_context_once(monkeypatch):
    builds = count_slice_builds(monkeypatch)
    sys = build_syntactic_bframe(parse_signature(LAM_APP), 2, 2)
    own = [(n, X) for frame, n, X in builds if frame is sys.frame]
    assert len(own) == len(set(own))
    assert len(own) <= sum(len(level) for level in sys.frame.B)


def test_validation_builds_each_slice_frame_once(monkeypatch):
    sys = build_syntactic_bframe(parse_signature(LAM_APP), 2, 2)
    rep = validate_bsystem(sys)
    _kind, fresh = load_structure(save_structure(sys))
    builds = count_slice_builds(monkeypatch)
    assert validate_bsystem(fresh).format() == rep.format()
    keys = [(id(frame), n, X) for frame, n, X in builds]
    assert builds and len(keys) == len(set(keys))
