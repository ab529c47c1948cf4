import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import types

import hypothesis.strategies as st
import orjson
import pytest
from hypothesis import given, settings

import bcsys
from bcsys import serialize
from bcsys.bsys import build_finset_bsystem, validate_bsystem
from bcsys.cesys import CESystem, build_finset_cesystem
from bcsys.cli import main
from bcsys.esys import build_group_structure, build_nat_esystem, s3_table, validate_esystem
from bcsys.serialize import LoadError, dumps, load_structure, save_structure
from bcsys.syntax import build_syntactic_bframe, parse_signature
from bcsys.xlate import adjunction_witnesses, b_to_e, c_to_ce, ce_to_c, ce_to_e, compose_equivalence, e_to_b, e_to_ce

from helpers import chain_tree, thin_cat
from reference import load_structure_reference
from test_csys_cesys import non_rooted_cesystem


@pytest.mark.parametrize(
    "obj",
    [
        build_finset_bsystem(3),
        build_finset_bsystem(3).frame,
        build_nat_esystem(2),
        build_finset_cesystem(2),
        ce_to_c(build_finset_cesystem(2)),
        build_group_structure(*s3_table()),
        parse_signature("type U; type El(tm)"),
    ],
    ids=["bsystem", "bframe", "esystem", "cesystem", "csystem", "group", "signature"],
)
def test_save_load_roundtrip_bit_exact(obj):
    text = save_structure(obj)
    _kind, back = load_structure(text)
    assert save_structure(back) == text


# ---------------------------------------------------------------------------
# a loaded document holds one string per object id and per arrow id


class StoredIds:
    """The id objects that key ``objects`` and ``arrows`` of a category;
    ``obj(x)`` and ``arrow(a)`` assert that x or a is one of them itself,
    not an equal string."""

    def __init__(self, cat):
        self.objs = {id(x) for x in cat.objects}
        self.arrows = {id(a) for a in cat.arrows}
        for a, ar in cat.arrows.items():
            assert ar.name is a
            self.obj(ar.dom)
            self.obj(ar.cod)
        for x, i in cat.identity.items():
            self.obj(x)
            self.arrow(i)
        for (g, f), gf in cat.compose.items():
            self.arrow(g, f, gf)
        if cat.terminal is not None:
            self.obj(cat.terminal)

    def obj(self, *xs):
        for x in xs:
            assert id(x) in self.objs, x

    def arrow(self, *xs):
        for x in xs:
            assert id(x) in self.arrows, x


def assert_esystem_ids_shared(e):
    ids = StoredIds(e.cat)
    ids.arrow(*e.terms, *e.weak, *e.proj, *(a for a, _t in e.subst))
    ids.obj(*e.levels)
    for sf in [*e.subst.values(), *e.weak.values()]:
        ids.obj(sf.source_apex, sf.target_apex)
        ids.arrow(*sf.obj_map, *sf.obj_map.values(), *sf.mor_map.values())
        for key in [*sf.mor_map, *sf.term_map]:
            ids.arrow(*key)


def assert_csystem_ids_shared(c):
    ids = StoredIds(c.cat)
    ids.obj(*c.length, *c.ft, *c.ft.values(), *c.proj)
    ids.arrow(*c.proj.values())
    for (f, g), (ob, q) in c.pb.items():
        ids.arrow(f, q)
        ids.obj(g, ob)


def assert_cesystem_ids_shared(a):
    fam, base = StoredIds(a.fam), StoredIds(a.base)
    fam.obj(a.root)
    fam.arrow(*a.ifun)
    base.arrow(*a.ifun.values())
    for (f, A), (fA, pi2) in a.pb.items():
        base.arrow(f, pi2)
        fam.arrow(A, fA)


@pytest.mark.parametrize(
    "build, check",
    [
        (lambda: build_nat_esystem(4), assert_esystem_ids_shared),
        (lambda: b_to_e(build_finset_bsystem(3)), assert_esystem_ids_shared),
        (lambda: build_finset_cesystem(3), assert_cesystem_ids_shared),
        (lambda: ce_to_c(build_finset_cesystem(3)), assert_csystem_ids_shared),
    ],
    ids=["nat-e-h4", "finset-b-h3-e", "finset-ce-h3", "finset-ce-h3-c"],
)
def test_a_loaded_document_holds_one_string_per_id(build, check):
    text = save_structure(build())
    _kind, obj = load_structure(text)
    check(obj)
    assert save_structure(obj) == text


# ---------------------------------------------------------------------------
# the writer: json.dumps(sort_keys=True, indent=2) + "\n", byte for byte


def json_form(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# quotes, escapes, control characters, non-ASCII, astral and lone surrogates
TRICKY = st.sampled_from(
    ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\u2028", "\U0001d11e", "\ud800"]
)
TEXT = st.text(st.one_of(TRICKY, st.characters()), max_size=6)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([0, -1, 2**63, -(2**63) - 1])
    | TEXT
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(TEXT, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(TEXT, TEXT, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_on_generated_trees(tree):
    assert dumps(tree) == json_form(tree)
    assert dumps({"k": [tree, {}, []]}) == json_form({"k": [tree, {}, []]})


def assert_json_form(text: str) -> None:
    """A written document is json's indented form of what it holds."""
    assert text == json_form(json.loads(text))


@pytest.mark.parametrize("name", ["finset-b", "finset-ce", "nat-e", "group-s3", "syntactic"])
def test_writer_matches_json_on_every_example(tmp_path, name):
    sig = tmp_path / "sig.txt"
    sig.write_text("type U; type El(tm)\n")
    out = tmp_path / "x.json"
    assert main(["example", name, "--sig", str(sig), "-o", str(out)]) == 0
    assert_json_form(out.read_text())


@pytest.mark.parametrize("height", [3, 4, 5])
@pytest.mark.parametrize("kind", ["nat-e", "finset-b"])
def test_writer_matches_json_on_every_translation(kind, height):
    if kind == "finset-b":
        b = build_finset_bsystem(height)
        assert_json_form(save_structure(b))
        e = b_to_e(b)
    else:
        e = build_nat_esystem(height)
    a = e_to_ce(e)
    c = ce_to_c(a)
    for obj in (e, a, c, c_to_ce(c), ce_to_e(a), e_to_b(e)):
        assert_json_form(save_structure(obj))


@pytest.mark.parametrize(
    "doc",
    [{"a": 1.0}, {"a": [1, (2, 3)]}, (), {1: "a"}, {"a": {2: []}}, {"a": "b", 3: "c"}],
    ids=["float", "tuple", "top-tuple", "int-key", "nested-int-key", "mixed-keys"],
)
def test_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        dumps(doc)


# ASCII text and ints within 64 bits, which orjson writes as json does
ASCII_TEXT = st.text(st.one_of(TRICKY.filter(str.isascii), st.characters(max_codepoint=0x7F)), max_size=6)
ASCII_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.sampled_from([-(2**63), 2**64 - 1])
    | ASCII_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ASCII_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(ASCII_TREES)
def test_writer_leaves_ascii_trees_to_orjson(tree):
    """json.dumps runs only for a tree holding DEL, which orjson writes raw."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return json.dumps(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "json", types.SimpleNamespace(dumps=recorded))
        text = dumps({"k": [tree, {}, []]})
    assert text == json_form({"k": [tree, {}, []]})
    assert bool(calls) == ("\x7f" in json.dumps(tree, ensure_ascii=False))


@pytest.mark.parametrize(
    "leaf", ["a\x7fb", "\ud800", 2**70, "\u00e9"], ids=["del", "lone-surrogate", "int-past-64-bits", "non-ascii"]
)
def test_writer_matches_json_where_orjson_does_not(leaf):
    doc = {"a": [leaf, "b"], "c": {"d": leaf}}
    assert dumps(doc) == json_form(doc)


def _imports_orjson(tmp_path, code: str, *argv: str) -> bool:
    """Whether ``code`` run on argv in a fresh interpreter imports orjson."""
    probe = f"import sys; {code}; print('orjson' in sys.modules)"
    src = os.path.dirname(os.path.dirname(bcsys.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1] == "True"


# the calls of the e-laws and b2c2b benchmarks, which neither read nor write a document
_IN_PROCESS_CALLS = (
    "from bcsys import bsys, cesys, cli, esys, serialize, xlate; "
    "e = esys.build_nat_esystem(3); esys.validate_esystem(e); esys.check_pairing(e); "
    "xlate.grand_roundtrip_iso(bsys.build_finset_bsystem(3)); "
    "a = cesys.build_finset_cesystem(2); cesys.validate_cesystem(a, rooted=True, stratified=True); "
    "xlate.casce_iso(a)"
)


def test_only_reading_or_writing_a_document_imports_orjson(tmp_path):
    """orjson costs about 1.0 MB of resident memory, which the in-process
    validations and round trips do not pay; the command line reads its
    documents with it."""
    assert not _imports_orjson(tmp_path, _IN_PROCESS_CALLS)
    path = tmp_path / "e.json"
    path.write_text(save_structure(build_nat_esystem(2)))
    assert _imports_orjson(tmp_path, "from bcsys.cli import main; main(sys.argv[1:])", "check", str(path))


def test_loaded_bsystem_still_validates():
    text = save_structure(build_finset_bsystem(3))
    _, back = load_structure(text)
    assert validate_bsystem(back).ok


def test_dangling_bd_reference_rejected():
    text = save_structure(build_finset_bsystem(2).frame)
    doc = json.loads(text)
    doc["payload"]["bd"][1]["0"] = "nonexistent"
    with pytest.raises(LoadError):
        load_structure(json.dumps(doc))


def test_unknown_kind_rejected():
    with pytest.raises(LoadError, match="unknown kind"):
        load_structure(json.dumps({"kind": "widget", "version": 1, "payload": {}}))


@pytest.mark.parametrize("kind", [[], {}, ["esystem"]], ids=["list", "object", "list-of-a-kind"])
def test_cli_rejects_a_kind_that_is_not_a_string(tmp_path, capsys, kind):
    """An unhashable kind once raised TypeError out of main."""
    doc = json.loads(save_structure(build_nat_esystem(1)))
    doc["kind"] = kind
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, printed = _run(capsys, "check", str(path))
    assert code == 2
    _one_line(printed, f"unknown kind {kind!r}")


def test_version_mismatch_rejected():
    with pytest.raises(LoadError, match="version"):
        load_structure(json.dumps({"kind": "bframe", "version": 99, "payload": {}}))


def test_parse_error_carries_location():
    with pytest.raises(LoadError, match="line"):
        load_structure("{ not json ")


# ---------------------------------------------------------------------------
# CLI


def test_cli_example_and_check_finset_b(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["example", "finset-b", "--height", "3", "-o", str(out)]) == 0
    code = main(["check", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    for axiom in ("axiom-1", "axiom-2", "axiom-3", "axiom-4", "axiom-5"):
        assert f"PASS {axiom}" in printed


def test_cli_group_check_fails_with_named_axioms(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["example", "group-s3", "-o", str(out)]) == 0
    code = main(["check", str(out), "--as", "esystem"])
    printed = capsys.readouterr().out
    assert code == 1
    assert "FAIL e-axiom-3" in printed
    assert "FAIL e-axiom-4" in printed
    assert "FAIL e-axiom-5" in printed
    assert "MISSING terminal" in printed


def test_cli_translate_b_to_e_checks_clean(tmp_path, capsys):
    b = tmp_path / "b.json"
    e = tmp_path / "e.json"
    assert main(["example", "finset-b", "--height", "2", "-o", str(b)]) == 0
    assert main(["translate", "--to", "e", str(b), "-o", str(e)]) == 0
    assert main(["check", str(e), "--as", "esystem"]) == 0
    capsys.readouterr()


def test_cli_check_wrong_kind_is_usage_error(tmp_path, capsys):
    b = tmp_path / "b.json"
    main(["example", "finset-b", "--height", "2", "-o", str(b)])
    code = main(["check", str(b), "--as", "esystem"])
    capsys.readouterr()
    assert code == 2


def test_cli_roundtrip_bsystem(tmp_path, capsys):
    b = tmp_path / "b.json"
    main(["example", "finset-b", "--height", "2", "-o", str(b)])
    code = main(["roundtrip", str(b)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "round-trip isomorphism" in printed


def test_cli_roundtrip_cesystem(tmp_path, capsys):
    a = tmp_path / "a.json"
    main(["example", "finset-ce", "--height", "2", "-o", str(a)])
    code = main(["roundtrip", str(a)])
    capsys.readouterr()
    assert code == 0


def test_cli_pair(tmp_path, capsys):
    e = tmp_path / "e.json"
    main(["example", "nat-e", "--height", "3", "-o", str(e)])
    code = main(["pair", str(e)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "pairing-count" in printed


def test_cli_height_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BCSYS_MAX_HEIGHT", "2")
    code = main(["example", "finset-b", "--height", "5", "-o", str(tmp_path / "x.json")])
    printed = capsys.readouterr()
    assert (code, printed.out, printed.err) == (2, "", "error: height 5 exceeds BCSYS_MAX_HEIGHT=2\n")


@pytest.mark.parametrize("name", ["finset-b", "nat-e", "finset-ce", "group-s3"])
def test_cli_example_rejects_a_negative_height(tmp_path, capsys, name):
    out = tmp_path / "x.json"
    code = main(["example", name, "--height", "-1", "-o", str(out)])
    printed = capsys.readouterr()
    assert code == 2 and not out.exists()
    assert printed.out == "" and printed.err == "error: height -1 is negative\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_cli_example_rejects_a_bound_below_one(tmp_path, capsys, bound):
    sig = tmp_path / "sig.txt"
    sig.write_text("type U; type El(tm)\n")
    out = tmp_path / "s.json"
    argv = ["example", "syntactic", "--sig", str(sig), "--height", "2", "--bound", bound]
    code = main(argv + ["-o", str(out)])
    printed = capsys.readouterr()
    assert code == 2 and not out.exists()
    assert printed.out == "" and printed.err == f"error: bound {bound} is below 1\n"


def test_cli_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_cli_syntactic_example(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    sig.write_text("type U; type El(tm)\n")
    out = tmp_path / "s.json"
    code = main(
        ["example", "syntactic", "--sig", str(sig), "--height", "2", "--bound", "2", "-o", str(out)]
    )
    assert code == 0
    assert main(["check", str(out)]) == 0
    capsys.readouterr()


def test_cli_translate_stdin_stdout(tmp_path, capsys, monkeypatch):
    import io

    b = tmp_path / "b.json"
    main(["example", "finset-b", "--height", "2", "-o", str(b)])
    monkeypatch.setattr("sys.stdin", io.StringIO(b.read_text()))
    code = main(["translate", "--to", "e", "-"])
    printed = capsys.readouterr().out
    assert code == 0
    assert '"kind": "esystem"' in printed


@pytest.mark.parametrize(
    "mutate",
    [
        *(lambda doc, k=key: doc["payload"].pop(k) for key in ("frame", "subst", "weak", "gen")),
        lambda doc: doc.update(payload=list(doc["payload"].values())),
    ],
    ids=["drop-frame", "drop-subst", "drop-weak", "drop-gen", "list-payload"],
)
def test_cli_malformed_payload_is_input_error(tmp_path, capsys, mutate):
    doc = json.loads(save_structure(build_finset_bsystem(2)))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _csystem_file(tmp_path, drop_identity: bool):
    doc = json.loads(save_structure(ce_to_c(build_finset_cesystem(2))))
    if drop_identity:
        identity = doc["payload"]["cat"]["identity"]
        del identity[sorted(identity)[0]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_roundtrip_csystem(tmp_path, capsys):
    assert main(["roundtrip", str(_csystem_file(tmp_path, drop_identity=False))]) == 0
    assert capsys.readouterr().out == "PASS retraction (checked 1)\n"


def test_cli_roundtrip_csystem_missing_identity_fails(tmp_path, capsys):
    assert main(["roundtrip", str(_csystem_file(tmp_path, drop_identity=True))]) == 1
    printed = capsys.readouterr().out
    assert "FAIL cat:identity" in printed
    assert "retraction" not in printed


def _drop_identity(cat: dict) -> None:
    del cat["identity"]["1"]


def _drop_composite(cat: dict) -> None:
    cat["compose"] = [row for row in cat["compose"] if row[:2] != ["1>=1", "1>=1"]]


@pytest.mark.parametrize("to", ["ce", "c"])
@pytest.mark.parametrize(
    "damage, partial, code, law",
    [
        (_drop_identity, False, 1, "FAIL cat:identity"),
        (_drop_composite, False, 1, "FAIL cat:compose-total"),
        (_drop_identity, True, 2, "identity('1')"),
        (_drop_composite, True, 2, "compose('1>=1','1>=1')"),
    ],
    ids=["no-identity", "no-composite", "no-identity-partial", "no-composite-partial"],
)
def test_cli_translate_broken_category(tmp_path, capsys, to, damage, partial, code, law):
    """A translation that needs a missing identity or composite reports the
    broken category (exit 1) or, where the category is marked partial and
    so passes, names the missing entry (exit 2); it writes no output."""
    doc = json.loads(save_structure(build_nat_esystem(3)))
    damage(doc["payload"]["cat"])
    doc["payload"]["cat"]["partial"] = partial
    path, out = tmp_path / "e.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert main(["translate", "--to", to, str(path), "-o", str(out)]) == code
    printed = capsys.readouterr()
    if code == 1:
        assert law in printed.out and printed.err == ""
    else:
        assert printed.out == "" and printed.err.count("\n") == 1
        assert printed.err.startswith("error: ") and law in printed.err
    assert not out.exists()


_NAT3 = json.dumps(save_structure(build_nat_esystem(3)))


def _nat3_without(tmp_path, entry):
    """nat-e h3, not partial, with one identity or composite removed."""
    doc = json.loads(json.loads(_NAT3))
    cat = doc["payload"]["cat"]
    if entry[0] == "identity":
        del cat["identity"][entry[1]]
    else:
        cat["compose"] = [row for row in cat["compose"] if row[:2] != list(entry[1:])]
    cat["partial"] = False
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    return path


def _nat3_removals():
    cat = json.loads(json.loads(_NAT3))["payload"]["cat"]
    return [("identity", x) for x in sorted(cat["identity"])] + [
        ("compose", *row[:2]) for row in cat["compose"]
    ]


def _translate_fails_on_category(tmp_path, capsys, to, entry):
    out = tmp_path / "out.json"
    assert main(["translate", "--to", to, str(_nat3_without(tmp_path, entry)), "-o", str(out)]) == 1
    printed = capsys.readouterr()
    law = "FAIL cat:identity" if entry[0] == "identity" else "FAIL cat:compose-total"
    assert law in printed.out and printed.err == ""
    assert not out.exists()


@pytest.mark.parametrize("entry", _nat3_removals(), ids=lambda entry: ",".join(entry))
def test_cli_translate_to_b_checks_the_category(tmp_path, capsys, entry):
    """e_to_b reads no gap in the category, so the category is checked
    first: every single removal reports the law it breaks and exits 1."""
    _translate_fails_on_category(tmp_path, capsys, "b", entry)


@pytest.mark.parametrize("to", ["ce", "c"])
@pytest.mark.parametrize("entry", _nat3_removals(), ids=lambda entry: ",".join(entry))
def test_cli_translate_to_ce_and_c_check_the_category(tmp_path, capsys, to, entry):
    """e_to_ce reads only the entries it needs, so the category is checked
    first for these targets too: every single removal exits 1."""
    _translate_fails_on_category(tmp_path, capsys, to, entry)


@pytest.mark.parametrize(
    "entry",
    [
        ("compose", "0>=0", "0>=0"),
        ("compose", "0>=0", "1>=0"),
        ("compose", "0>=0", "2>=0"),
        ("compose", "0>=0", "3>=0"),
        ("compose", "1>=0", "1>=1"),
        ("compose", "1>=0", "2>=1"),
        ("compose", "1>=0", "3>=1"),
        ("compose", "2>=0", "2>=2"),
        ("compose", "3>=0", "3>=3"),
    ],
    ids=lambda entry: ",".join(entry),
)
def test_cli_translate_to_c_rejection_checks_the_category(tmp_path, capsys, entry):
    """These removals make ce_to_c reject the family category (a
    ValueError); the broken input category is the defect reported."""
    _translate_fails_on_category(tmp_path, capsys, "c", entry)


def test_cli_translate_rejection_on_sound_category_is_input_error(tmp_path, capsys):
    path, out = tmp_path / "g.json", tmp_path / "out.json"
    path.write_text(save_structure(build_group_structure(*s3_table())))
    assert main(["translate", "--to", "ce", str(path), "-o", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: e_to_ce needs a chosen terminal object\n"
    assert not out.exists()


@pytest.mark.parametrize("height", [3, 4])
def test_cli_translate_between_b_and_c_runs_no_validation(tmp_path, monkeypatch, height):
    """B to C and C to B compose the three single-step translations, with
    the bytes compose_equivalence's output has, and validate nothing."""
    b = build_finset_bsystem(height)
    (_e, _a, c), _stages = compose_equivalence("b2c", b)
    (_a, _e, b2), _stages = compose_equivalence("c2b", c)
    expected = {"c": save_structure(c), "b": save_structure(b2)}
    b_doc, c_doc = tmp_path / "b.json", tmp_path / "c.json"
    b_doc.write_text(save_structure(b))
    c_doc.write_text(expected["c"])

    def no_validation(*args, **kwargs):
        raise AssertionError("translate ran a validator")

    for module in (bcsys.bsys, bcsys.cesys, bcsys.cli, bcsys.core, bcsys.csys, bcsys.esys, bcsys.xlate):
        for name in dir(module):
            if name.startswith("validate_"):
                monkeypatch.setattr(module, name, no_validation)
    for to, src in (("c", b_doc), ("b", c_doc)):
        out = tmp_path / f"out.{to}.json"
        assert main(["translate", "--to", to, str(src), "-o", str(out)]) == 0
        assert out.read_text() == expected[to]


def _translate_without_row(tmp_path, capsys, table, row, to):
    """Translate finset-b h3 without one row of ``table``: translate names
    the row on one line, exits 2 and writes nothing."""
    doc = json.loads(save_structure(build_finset_bsystem(3)))
    rows = doc["payload"][table]
    assert len(rows) == 3
    gone = rows.pop(row)
    path, out = tmp_path / "b.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert main(["translate", "--to", to, str(path), "-o", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == (
        f"error: the translation needs {table}({gone['level']},{gone['element']!r}), "
        "which the input does not define\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("to", ["e", "ce", "c"])
@pytest.mark.parametrize("row", range(3))
def test_cli_translate_missing_substitution_is_input_error(tmp_path, capsys, to, row):
    """b_to_e needs every substitution of the B-system."""
    _translate_without_row(tmp_path, capsys, "subst", row, to)


@pytest.mark.parametrize("to", ["e", "ce", "c"])
@pytest.mark.parametrize("row", range(3))
def test_cli_translate_missing_weakening_is_input_error(tmp_path, capsys, to, row):
    """b_to_e needs the weakening of every context."""
    _translate_without_row(tmp_path, capsys, "weak", row, to)


# ---------------------------------------------------------------------------
# files that cannot be read or written, and a malformed BCSYS_MAX_HEIGHT:
# exit 2 with one line on stderr


def _undecodable(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    return path


@pytest.mark.parametrize(
    "command", [["check"], ["translate", "--to", "e"], ["roundtrip"], ["pair"]], ids=" ".join
)
def test_cli_undecodable_file_is_input_error(tmp_path, capsys, command):
    path, out = _undecodable(tmp_path), tmp_path / "out.json"
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2 and not out.exists()
    _one_line(printed, f"{str(path)!r} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
              "in position 0: invalid start byte")


@pytest.mark.parametrize("sig", ["missing", "undecodable"])
def test_cli_unreadable_signature_is_input_error(tmp_path, capsys, sig):
    path = tmp_path / "missing.sig" if sig == "missing" else _undecodable(tmp_path)
    out = tmp_path / "s.json"
    code, printed = _run(capsys, "example", "syntactic", "--sig", str(path), "-o", str(out))
    assert code == 2 and not out.exists()
    if sig == "missing":
        _one_line(printed, f"[Errno 2] No such file or directory: {str(path)!r}")
    else:
        assert printed.out == "" and printed.err.startswith(f"error: {str(path)!r} is not UTF-8: ")
        assert printed.err.count("\n") == 1


@pytest.mark.parametrize("command", ["example", "translate"])
def test_cli_unwritable_output_is_input_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.json"
    if command == "example":
        argv = ["example", "nat-e", "--height", "2"]
    else:
        b = tmp_path / "b.json"
        b.write_text(save_structure(build_finset_bsystem(2)))
        argv = ["translate", "--to", "e", str(b)]
    code, printed = _run(capsys, *argv, "-o", str(out))
    assert code == 2 and not out.parent.exists()
    _one_line(printed, f"[Errno 2] No such file or directory: {str(out)!r}")


def test_cli_malformed_height_cap_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BCSYS_MAX_HEIGHT", "ten")
    out = tmp_path / "x.json"
    code, printed = _run(capsys, "example", "nat-e", "--height", "9", "-o", str(out))
    assert code == 2 and not out.exists()
    _one_line(printed, "BCSYS_MAX_HEIGHT='ten' is not an integer")


# ---------------------------------------------------------------------------
# round trips whose translations raise, and C-systems without a father


def _run(capsys, *argv):
    code = main(list(argv))
    printed = capsys.readouterr()
    assert "Traceback" not in printed.err
    return code, printed


def _one_line(printed, message):
    assert printed.out == ""
    assert printed.err == f"error: {message}\n"


def test_cli_roundtrip_group_s3_is_input_error(tmp_path, capsys):
    """group-s3 has no chosen terminal, which e_to_ce needs."""
    path = tmp_path / "g.json"
    path.write_text(save_structure(build_group_structure(*s3_table())))
    code, printed = _run(capsys, "roundtrip", str(path))
    assert code == 2
    _one_line(printed, "e_to_ce needs a chosen terminal object")


@pytest.mark.parametrize("command", [["translate", "--to", "ce"], ["roundtrip"]])
def test_cli_prechecks_an_esystem_once_when_its_translation_fails(tmp_path, capsys, monkeypatch, command):
    """The precheck that ran before the translation decides after it
    fails: group-s3 is checked once, with the same one line and exit 2."""
    path = tmp_path / "g.json"
    path.write_text(save_structure(build_group_structure(*s3_table())))
    prechecked = []
    real = bcsys.cli._precheck
    monkeypatch.setattr(bcsys.cli, "_precheck", lambda *args: prechecked.append(args) or real(*args))
    code, printed = _run(capsys, *command, str(path))
    assert code == 2
    _one_line(printed, "e_to_ce needs a chosen terminal object")
    assert len(prechecked) == 1



@pytest.mark.parametrize(
    "obj, out",
    [
        (chain_tree(2), "PASS parent (checked 2)\nPASS root (checked 1)\n"),
        (build_finset_bsystem(3).frame, "PASS bd (checked 3)\nPASS ft (checked 3)\nPASS root (checked 1)\n"),
        (parse_signature("type U; type El(tm)"), "PASS signature (checked 1)\n"),
    ],
    ids=["tree", "bframe", "signature"],
)
def test_cli_check_validates_a_tree_a_bframe_and_a_signature(tmp_path, capsys, obj, out):
    path = tmp_path / "doc.json"
    path.write_text(save_structure(obj))
    code, printed = _run(capsys, "check", str(path))
    assert (code, printed.out, printed.err) == (0, out, "")


def test_cli_translate_to_b_stratifies_an_esystem_without_levels(tmp_path, capsys):
    """nat-e h2 with ``"levels": null`` writes the B-system of the
    document that keeps its levels."""
    doc = json.loads(save_structure(build_nat_esystem(2)))
    written = []
    for levels in (doc["payload"]["levels"], None):
        doc["payload"]["levels"] = levels
        path, out = tmp_path / "e.json", tmp_path / f"b{len(written)}.json"
        path.write_text(json.dumps(doc))
        code, printed = _run(capsys, "translate", "--to", "b", str(path), "-o", str(out))
        assert (code, printed.out, printed.err) == (0, "", "")
        written.append(out.read_text())
    assert written[0] == written[1]


def test_cli_translate_to_b_of_an_esystem_without_terminal_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(save_structure(build_group_structure(*s3_table())))
    code, printed = _run(capsys, "translate", "--to", "b", str(path), "-o", str(tmp_path / "b.json"))
    assert code == 2
    _one_line(printed, "stratify requires a chosen terminal object")


def _meet_cesystem():
    """The CE-system whose families and base are the poset a <= b,
    a <= c under a top 1, with meets as the chosen pullbacks. The poset
    has a terminal object but does not stratify: a has two arrows to the
    level of b and c."""
    objs = ["1", "a", "b", "c"]
    le = {(x, x) for x in objs} | {("a", "b"), ("a", "c"), ("a", "1"), ("b", "1"), ("c", "1")}
    cat = thin_cat(objs, le, terminal="1")

    def meet(x, y):
        return x if (x, y) in le else y if (y, x) in le else "a"

    pb = {}
    for f, ar in cat.arrows.items():
        for A in cat.arrows_into(ar.cod):
            m = meet(ar.dom, cat.dom(A))
            pb[(f, A)] = (f"{m}->{ar.dom}", f"{m}->{cat.dom(A)}")
    return CESystem(fam=cat, base=cat, ifun={a: a for a in cat.arrows}, root="1", pb=pb)


def _meet_esystem():
    return ce_to_e(_meet_cesystem())


# how stratify's failure on the meet poset reads
_MEET_STRAT = (
    "condition (ii) of a stratification fails at ('a', 1, ('a->b', 'a->c')):"
    " arrows to that level not a singleton"
)


def test_cli_translate_to_b_of_a_lawful_esystem_that_does_not_stratify_is_input_error(tmp_path, capsys):
    e = _meet_esystem()
    assert e.levels is None and validate_esystem(e).ok
    path = tmp_path / "e.json"
    path.write_text(save_structure(e))
    code, printed = _run(capsys, "translate", "--to", "b", str(path), "-o", str(tmp_path / "b.json"))
    assert code == 2
    _one_line(printed, f"E-system is not stratified: {_MEET_STRAT}")


def test_cli_translate_to_c_of_a_cesystem_that_does_not_stratify_is_input_error(tmp_path, capsys):
    path = tmp_path / "ce.json"
    path.write_text(save_structure(_meet_cesystem()))
    code, printed = _run(capsys, "translate", "--to", "c", str(path), "-o", str(tmp_path / "c.json"))
    assert code == 2
    _one_line(printed, f"family category does not stratify: {_MEET_STRAT}")


@pytest.mark.parametrize("build", [_meet_cesystem, lambda: non_rooted_cesystem(2)], ids=["meet", "non-rooted"])
def test_cli_roundtrip_of_a_cesystem_without_comp_fact_prints_the_adjunction(tmp_path, capsys, build):
    """A CE-system that does not stratify (the meet poset) or is not
    rooted (an extra endomap of the root) has no comp/fact iso: its round
    trip prints the adjunction's witnesses and exits by their verdict.
    The non-rooted counit misses the extra endomap."""
    a = build()
    rep = adjunction_witnesses(a)[2]
    path = tmp_path / "ce.json"
    path.write_text(save_structure(a))
    code, printed = _run(capsys, "roundtrip", str(path))
    assert (code, printed.out, printed.err) == (0 if rep.ok else 1, rep.format() + "\n", "")
    assert rep.failed_laws() == ([] if build is _meet_cesystem else ["eps-invertible"])


def test_cli_example_syntactic_needs_a_well_formed_signature(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, printed = _run(capsys, "example", "syntactic", "-o", str(out))
    assert (code, printed.out, printed.err) == (2, "", "error: syntactic example needs --sig FILE\n")
    sig = tmp_path / "bad.sig"
    sig.write_text("type U; type (")
    code, printed = _run(capsys, "example", "syntactic", "--sig", str(sig), "-o", str(out))
    assert (code, printed.out) == (2, "")
    assert printed.err == "error: signature error: line 1, column 1: cannot parse declaration 'type ('\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "obj",
    [chain_tree(2), build_finset_bsystem(2).frame, parse_signature("type U; type El(tm)")],
    ids=["tree", "bframe", "signature"],
)
def test_cli_roundtrip_and_translate_of_a_kind_outside_the_chain_are_input_errors(tmp_path, capsys, obj):
    path = tmp_path / "x.json"
    path.write_text(save_structure(obj))
    kind = json.loads(path.read_text())["kind"]
    code, printed = _run(capsys, "roundtrip", str(path))
    assert code == 2
    _one_line(printed, f"no round trip for kind {kind!r}")
    out = tmp_path / "e.json"
    code, printed = _run(capsys, "translate", "--to", "e", str(path), "-o", str(out))
    assert code == 2 and not out.exists()
    _one_line(printed, f"cannot translate kind {kind!r} to 'e'")


def test_cli_roundtrip_bsystem_without_weakening_is_input_error(tmp_path, capsys):
    doc = json.loads(save_structure(build_finset_bsystem(2)))
    del doc["payload"]["weak"][0]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    code, printed = _run(capsys, "roundtrip", str(path))
    assert code == 2
    _one_line(printed, "the translation needs weak(1,'1'), which the input does not define")


def test_cli_roundtrip_cesystem_without_identity_reports_the_category(tmp_path, capsys):
    doc = json.loads(save_structure(build_finset_cesystem(2)))
    del doc["payload"]["fam"]["identity"]["2"]
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(doc))
    code, printed = _run(capsys, "roundtrip", str(path))
    assert code == 1
    assert "FAIL fam:identity: witness=('2',) no identity arrow" in printed.out
    assert printed.err == ""


def _csystem_with_unit_pullback(tmp_path, row):
    """finset-ce h2 as a C-system, with the object of one pb entry set to
    the unit: the entry names a projection path p|0|n that does not exist."""
    doc = json.loads(save_structure(ce_to_c(build_finset_cesystem(2))))
    pb = doc["payload"]["pb"]
    assert len(pb) == 3
    pb[row][2] = "0"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("row", range(3))
def test_cli_roundtrip_csystem_with_a_unit_pullback_fails_retraction(tmp_path, capsys, row):
    path = _csystem_with_unit_pullback(tmp_path, row)
    code, printed = _run(capsys, "roundtrip", str(path))
    assert code == 1 and printed.err == ""
    assert printed.out == "FAIL retraction: witness=() ce_to_c(c_to_ce(c)) differs from c\n"


@pytest.mark.parametrize("to", ["b", "e", "ce"])
@pytest.mark.parametrize("row", range(3))
def test_cli_translate_csystem_with_a_unit_pullback_checks(tmp_path, capsys, to, row):
    """c_to_ce leaves out a pullback entry whose projection path does not
    exist, so every translation exits 0 and writes a loadable document."""
    path, out = _csystem_with_unit_pullback(tmp_path, row), tmp_path / "out.json"
    assert _run(capsys, "translate", "--to", to, str(path), "-o", str(out))[0] == 0
    code, printed = _run(capsys, "check", str(out))
    assert (code, printed.err) == (0, "")


@pytest.fixture
def fatherless_csystem(tmp_path):
    """finset-ce h2 translated to a C-system, with ft['1'] removed."""
    doc = json.loads(save_structure(ce_to_c(build_finset_cesystem(2))))
    del doc["payload"]["ft"]["1"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_check_csystem_without_father_fails_law_ii(fatherless_csystem, capsys):
    code, printed = _run(capsys, "check", str(fatherless_csystem))
    assert code == 1
    assert "FAIL ii: witness=('1',) no father" in printed.out.splitlines()
    assert printed.err == ""


@pytest.mark.parametrize("command", [["translate", "--to", "ce"], ["roundtrip"]])
def test_cli_csystem_without_father_is_input_error(fatherless_csystem, capsys, command):
    code, printed = _run(capsys, *command, str(fatherless_csystem))
    assert code == 2
    _one_line(printed, "the translation needs ft('1'), which the input does not define")


# ---------------------------------------------------------------------------
# E-system documents that load must not crash check, translate or roundtrip


ESYSTEM_DAMAGES = {
    "int-term": lambda p: p["terms"][min(p["terms"])].append(5),
    "int-identity-term": lambda p: p["proj"].update({min(p["proj"]): 5}),
    "levels-of-no-object": lambda p: p.update(levels={"zz": 1}),
    "levels-missing-an-object": lambda p: p["levels"].pop(min(p["levels"])),
    "source-apex-not-an-object": lambda p: p["subst"][0]["functor"].update(source_apex="nowhere"),
    "target-apex-not-an-object": lambda p: p["weak"][0]["functor"].update(target_apex="nowhere"),
    "int-in-a-term-table": lambda p: p["subst"][0]["functor"]["term"][0][3].update({"[]": 5}),
    "null-term-key": lambda p: p["weak"][0]["functor"]["term"][0].__setitem__(0, None),
}


@pytest.mark.parametrize(
    "command",
    [["check"], ["translate", "--to", "c"], ["translate", "--to", "b"], ["roundtrip"]],
    ids=["check", "translate-c", "translate-b", "roundtrip"],
)
@pytest.mark.parametrize("damage", ESYSTEM_DAMAGES.values(), ids=ESYSTEM_DAMAGES.keys())
def test_cli_rejects_a_broken_esystem_at_load(tmp_path, capsys, damage, command):
    doc = json.loads(save_structure(build_nat_esystem(3)))
    damage(doc["payload"])
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2
    assert printed.out == ""
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["check"], ["translate", "--to", "c"], ["translate", "--to", "b"], ["roundtrip"]],
    ids=["check", "translate-c", "translate-b", "roundtrip"],
)
def test_cli_fails_an_identity_term_outside_its_terms(tmp_path, capsys, command):
    doc = json.loads(save_structure(build_nat_esystem(3)))
    doc["payload"]["proj"]["0>=0"] = "zz"
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 1
    line = next(l for l in printed.out.splitlines() if l.startswith("FAIL proj-system"))
    assert line.startswith("FAIL proj-system: witness=('0>=0',) identity term outside T(W_A(A))")
    assert printed.err == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["check"], ["translate", "--to", "ce"], ["roundtrip"]], ids=" ".join
)
@pytest.mark.parametrize("value", [None, 7])
@pytest.mark.parametrize("slot", ["h", "f", "g"])
def test_cli_rejects_a_term_row_not_keyed_by_strings(tmp_path, capsys, slot, value, command):
    """nat-e h1 with h, f or g of the first weakening term row not a string:
    one line and exit 2, where check once raised TypeError from sorting
    the keys and translate --to ce wrote the row out."""
    doc = json.loads(save_structure(build_nat_esystem(1)))
    row = doc["payload"]["weak"][0]["functor"]["term"][0]
    row["hfg".index(slot)] = value
    path, out = tmp_path / "e.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2 and not out.exists()
    _one_line(printed, f"slice functor term entry at {tuple(row[:3])!r} is not keyed by strings")


def test_a_term_row_keyed_by_a_string_that_is_no_id_loads_as_read():
    doc = json.loads(save_structure(build_nat_esystem(1)))
    rec = doc["payload"]["weak"][0]
    rec["functor"]["term"][0][0] = "zz"
    _kind, e = load_structure(json.dumps(doc))
    assert ("zz", *rec["functor"]["term"][0][1:3]) in e.weak[rec["arrow"]].term_map


# ---------------------------------------------------------------------------
# an int field takes an int, never a bool, and partial takes a bool


def _row_level(table: str, entry: str):
    def damage(p):
        p[table][0]["level"] = True
        return f"level of {entry} {p[table][0]['element']!r} is True, not an integer"
    return damage


def _object_field(field: str, what: str, value):
    def damage(p):
        x = min(p[field])
        p[field][x] = value
        return f"{what} of object {x!r} is {value!r}, not an integer"
    return damage


LOOSE_DOCS = {
    "b": save_structure(build_finset_bsystem(2)),
    "e": save_structure(build_nat_esystem(2)),
    "c": save_structure(ce_to_c(e_to_ce(build_nat_esystem(2)))),
}
LOOSE_FIELDS = {
    "substitution-level": ("b", _row_level("subst", "substitution entry")),
    "weakening-level": ("b", _row_level("weak", "weakening entry")),
    "generic-level": ("b", _row_level("gen", "generic element")),
    "frame-height": ("b", lambda p: p["frame"].update(height=2.0) or "frame height is 2.0, not an integer"),
    "level-float": ("e", _object_field("levels", "level", 1.7)),
    "level-string": ("e", _object_field("levels", "level", "1")),
    "level-bool": ("e", _object_field("levels", "level", True)),
    "length-string": ("c", _object_field("length", "length", "1")),
    "length-float": ("c", _object_field("length", "length", 1.5)),
    "partial-string": ("c", lambda p: p["cat"].update(partial="false") or "partial is 'false', not a boolean"),
    "partial-int": ("e", lambda p: p["cat"].update(partial=0) or "partial is 0, not a boolean"),
}


@pytest.mark.parametrize("command", ["check", "translate", "roundtrip"])
@pytest.mark.parametrize("field", LOOSE_FIELDS.values(), ids=LOOSE_FIELDS.keys())
def test_cli_rejects_a_field_of_the_wrong_json_type(tmp_path, capsys, field, command):
    """Where int() or bool() once coerced the value and the command exited 0."""
    kind, damage = field
    doc = json.loads(LOOSE_DOCS[kind])
    message = damage(doc["payload"])
    path, out = tmp_path / "x.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "translate":
        argv += ["--to", "e" if kind == "c" else "c", "-o", str(out)]
    code, printed = _run(capsys, *argv)
    assert code == 2 and not out.exists()
    _one_line(printed, message)


DANGLING_ENTRIES = {
    "term-set": ("e", lambda p: p["terms"].update(zz=[]), "term set on dangling arrow 'zz'"),
    "identity-term": ("e", lambda p: p["proj"].update(zz="[]"), "identity term at 'zz' dangling"),
    "length": ("c", lambda p: p["length"].update(zz=1), "length entry 'zz' dangling"),
}


@pytest.mark.parametrize("command", ["check", "translate", "roundtrip"])
@pytest.mark.parametrize("entry", DANGLING_ENTRIES.values(), ids=DANGLING_ENTRIES.keys())
def test_cli_rejects_an_entry_keyed_by_no_id(tmp_path, capsys, entry, command):
    kind, damage, message = entry
    doc = json.loads(LOOSE_DOCS[kind])
    damage(doc["payload"])
    path, out = tmp_path / "x.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "translate":
        argv += ["--to", "e" if kind == "c" else "c", "-o", str(out)]
    code, printed = _run(capsys, *argv)
    assert code == 2 and not out.exists()
    _one_line(printed, message)


def test_cli_rejects_a_tree_height_that_is_not_an_integer(tmp_path, capsys):
    doc = json.loads(save_structure(chain_tree(2)))
    doc["payload"]["height"] = True
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, printed = _run(capsys, "check", str(path))
    assert code == 2
    _one_line(printed, "tree height is True, not an integer")


def test_a_category_without_partial_loads_as_total():
    doc = json.loads(LOOSE_DOCS["e"])
    del doc["payload"]["cat"]["partial"]
    _kind, e = load_structure(json.dumps(doc))
    assert e.cat.partial is False


def _stdin_bytes(monkeypatch, data: bytes) -> None:
    """Standard input as a terminal or pipe gives it: bytes under a text
    layer, whose decoder turns bytes that are not UTF-8 into surrogates."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))


@pytest.mark.parametrize(
    "command", [["check"], ["translate", "--to", "ce"], ["roundtrip"], ["pair"]], ids=" ".join
)
def test_cli_undecodable_standard_input_is_input_error(tmp_path, capsys, monkeypatch, command):
    """nat-e h1 with 0xff after every 1>=0 exits 2 from standard input,
    as it does from a file."""
    data = save_structure(build_nat_esystem(1)).encode().replace(b"1>=0", b"1>=0\xff")
    _stdin_bytes(monkeypatch, data)
    out = tmp_path / "out.json"
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, "-", *output)
    assert code == 2 and not out.exists()
    _one_line(printed, "standard input is not UTF-8: 'utf-8' codec can't decode byte 0xff "
              f"in position {data.index(0xFF)}: invalid start byte")


def test_cli_reads_standard_input_bytes_as_a_file(tmp_path, capsys, monkeypatch):
    """UTF-8 bytes on standard input, a non-ASCII id included, translate
    to the same document as the same bytes in a file."""
    data = save_structure(build_nat_esystem(2)).replace("1>=0", "1>=0\u00e9").encode()
    path = tmp_path / "e.json"
    path.write_bytes(data)
    code, printed = _run(capsys, "translate", "--to", "ce", str(path))
    assert code == 0 and "1>=0\\u00e9" in printed.out
    _stdin_bytes(monkeypatch, data)
    code, piped = _run(capsys, "translate", "--to", "ce", "-")
    assert code == 0 and piped.out == printed.out


# ---------------------------------------------------------------------------
# B-system documents whose hom entries leave their slice frames do not load


def _respell_top_level(spelling: str):
    """Respell the top H level key of finset-b h3's first weakening hom."""

    def damage(p):
        H = p["weak"][0]["hom"]["H"]
        H[spelling] = H.pop(max(H, key=int))

    return damage


BHOM_DAMAGES = {
    "value-outside-the-target-level": lambda p: p["weak"][0]["hom"]["H"]["1"].update({"1": "3"}),
    "key-outside-the-source-level": lambda p: p["subst"][0]["hom"]["Ht"]["1"].update({"2": "0"}),
    "term-value-not-an-element": lambda p: p["subst"][0]["hom"]["Ht"]["1"].update({"0": "zz"}),
    "level-above-the-slice": lambda p: p["subst"][0]["hom"]["H"].update({"5": {"3": "2"}}),
    "level-key-with-a-sign-and-spaces": _respell_top_level(" +2 "),
    "level-key-with-a-leading-zero": _respell_top_level("02"),
}

NOT_AN_INTEGER = "weakening entry at (1, '1'): H level is {!r}, not an integer"

# what the one line says, where it does not say "dangling"
BHOM_DAMAGE_LINES = {
    "level-key-with-a-sign-and-spaces": NOT_AN_INTEGER.format(" +2 "),
    "level-key-with-a-leading-zero": NOT_AN_INTEGER.format("02"),
}


@pytest.mark.parametrize(
    "command",
    [["check"], ["translate", "--to", "e"], ["translate", "--to", "c"], ["roundtrip"]],
    ids=["check", "translate-e", "translate-c", "roundtrip"],
)
@pytest.mark.parametrize("damage", BHOM_DAMAGES)
def test_cli_rejects_a_dangling_bhom_entry_at_load(tmp_path, capsys, damage, command):
    doc = json.loads(save_structure(build_finset_bsystem(3)))
    BHOM_DAMAGES[damage](doc["payload"])
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2
    assert printed.out == ""
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
    assert BHOM_DAMAGE_LINES.get(damage, "dangling") in printed.err
    assert not out.exists()


@pytest.mark.parametrize("spelling", [" +2 ", "02", "1_0", "\uff12", "-0", "2.0", "two"])
def test_a_hom_level_key_is_the_decimal_spelling_of_its_level(spelling):
    """int() reads the first five as 2, 2, 10, 2 and 0 and rejects the
    rest; the loader rejects all seven with the same line."""
    doc = json.loads(save_structure(build_finset_bsystem(3)))
    _respell_top_level(spelling)(doc["payload"])
    with pytest.raises(LoadError) as exc:
        load_structure(json.dumps(doc))
    assert str(exc.value) == NOT_AN_INTEGER.format(spelling)


LAM_APP = "type U; type El(tm); term lam(tm^1.tm); term app(tm,tm)"


@pytest.mark.parametrize("command", [["check"], ["translate", "--to", "e"], ["roundtrip"]], ids=" ".join)
def test_cli_rejects_a_generic_element_at_level_0(tmp_path, capsys, command):
    """delta_X needs W_X, which exists from level 1 only: a gen row at
    level 0 dangles, where check and roundtrip once counted it."""
    doc = json.loads(save_structure(build_syntactic_bframe(parse_signature(LAM_APP), 2, 1)))
    frame = doc["payload"]["frame"]
    (root,) = frame["B"][0]
    doc["payload"]["gen"].append({"level": 0, "element": root, "value": frame["Bt"][0][0]})
    path, out = tmp_path / "b.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2 and not out.exists()
    _one_line(printed, f"generic element at (0, {root!r}) dangling")


# ---------------------------------------------------------------------------
# the writer shares the structure's own tables and must leave them as they are


def _tables(x):
    """Every table of x as plain values, each dict in its own key order."""
    if dataclasses.is_dataclass(x):
        return [(name, _tables(v)) for name, v in vars(x).items()]
    if isinstance(x, dict):
        return [(k, _tables(v)) for k, v in x.items()]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [_tables(v) for v in x]
    return x


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_nat_esystem(4),
        lambda: build_finset_cesystem(3),
        lambda: ce_to_c(build_finset_cesystem(3)),
        lambda: build_finset_bsystem(4),
    ],
    ids=["nat-e-h4", "finset-ce-h3", "finset-ce-h3-c", "finset-b-h4"],
)
def test_save_leaves_the_structure_unchanged(build):
    obj = build()
    before = copy.deepcopy(obj)
    first = save_structure(obj)
    assert save_structure(obj) == first
    assert _tables(obj) == _tables(before)


# ---------------------------------------------------------------------------
# one parser per process: in-process main calls share no options


def test_main_calls_do_not_share_options(tmp_path, capsys):
    x = tmp_path / "ce.json"
    x.write_text(save_structure(build_finset_cesystem(2)))
    outputs = []
    for flags in ([], ["--rooted", "--stratified"], []):
        main(["check", *flags, str(x)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    assert outputs[0] != outputs[1]

    out = tmp_path / "e.json"
    assert main(["translate", "--to", "e", str(x), "-o", str(out)]) == 0
    written = out.read_text()
    assert capsys.readouterr().out == ""
    assert main(["translate", "--to", "ce", str(x)]) == 0
    assert '"kind": "cesystem"' in capsys.readouterr().out
    assert out.read_text() == written


# ---------------------------------------------------------------------------
# bsystem_load makes one slice frame per context


def test_bsystem_load_slices_each_context_once(monkeypatch):
    from bcsys import bsys

    sig = parse_signature("type U; type El(tm); term lam(tm^1.tm); term app(tm,tm)")
    b = build_syntactic_bframe(sig, 2, 2)
    text = save_structure(b)
    builds = []
    build = bsys._build_slice

    def counted(frame, n, X):
        builds.append((frame, n, X))
        return build(frame, n, X)

    monkeypatch.setattr(bsys, "_build_slice", counted)
    _kind, back = load_structure(text)
    assert all(frame is back.frame for frame, _n, _X in builds)
    contexts = [(n, X) for _frame, n, X in builds]
    assert len(contexts) == len(set(contexts))
    assert len(contexts) <= sum(len(level) for level in back.frame.B)
    assert save_structure(back) == text


# ---------------------------------------------------------------------------
# the CLI contract on damaged B-system documents: every run exits 0, 1 or 2
# without a traceback, writes no output when it fails, and says why in one
# line when it exits 2


DAMAGE_BASES = {
    "finset-b-h3": build_finset_bsystem(3),
    "finset-b-h4": build_finset_bsystem(4),
    "uel-h3": build_syntactic_bframe(parse_signature("type U; type El(tm)"), 3, 2),
}
DAMAGE_DOCS = {name: save_structure(b) for name, b in DAMAGE_BASES.items()}


def bsystem_entries(p: dict) -> list[tuple]:
    """The path of every row and of every H, Ht, ft and bd entry of a payload.

    A row's path is (table, index); an entry's path ends in its key.
    """
    out = [(table, i) for table in ("subst", "weak", "gen") for i in range(len(p[table]))]
    for table in ("subst", "weak"):
        for i, rec in enumerate(p[table]):
            for name in ("H", "Ht"):
                for lvl, m in sorted(rec["hom"][name].items()):
                    out += [(table, i, "hom", name, lvl, key) for key in sorted(m)]
    for name in ("ft", "bd"):
        for lvl, m in enumerate(p["frame"][name]):
            out += [("frame", name, lvl, key) for key in sorted(m)]
    return out


def bsystem_elements(p: dict) -> list[str]:
    return sorted({x for level in p["frame"]["B"] + p["frame"]["Bt"] for x in level})


DAMAGE_ENTRIES = {name: bsystem_entries(json.loads(t)["payload"]) for name, t in DAMAGE_DOCS.items()}
DAMAGE_VALUES = {name: bsystem_elements(json.loads(t)["payload"]) + ["zz"] for name, t in DAMAGE_DOCS.items()}
DAMAGE_COMMANDS = (["check"], ["translate", "--to", "e"], ["translate", "--to", "c"], ["roundtrip"])


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in this process, with what it prints; an exception it
    raises, which would print a traceback, fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_cli_contract_on_damaged_bsystem_documents(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(DAMAGE_DOCS)))
    doc = json.loads(DAMAGE_DOCS[name])
    path = data.draw(st.sampled_from(DAMAGE_ENTRIES[name]))
    *outer, last = path
    table = doc["payload"]
    for step in outer:
        table = table[step]
    if len(path) == 2 or data.draw(st.booleans()):
        del table[last]
    else:
        table[last] = data.draw(st.sampled_from(DAMAGE_VALUES[name]))
    tmp = tmp_path_factory.mktemp("damaged")
    src, dst = tmp / "b.json", tmp / "out.json"
    src.write_text(json.dumps(doc))
    for command in DAMAGE_COMMANDS:
        output = ["-o", str(dst)] if command[0] == "translate" else []
        code, out, err = run_captured([*command, str(src), *output])
        assert code in (0, 1, 2), (command, path)
        assert "Traceback" not in err
        if code:
            assert not dst.exists(), (command, path)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (command, path, err)
        dst.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# ids, elements and former names are strings, version is the integer 1 and
# a binder count an integer


BIG = 2**64
STRING_DOCS = {
    "tree": save_structure(chain_tree(2)),
    "bframe": save_structure(build_finset_bsystem(2).frame),
    "e": LOOSE_DOCS["e"],
    "c": LOOSE_DOCS["c"],
    "signature": save_structure(parse_signature("type U; type El(tm); term lam(tm^1.tm)")),
}


def _replaced(doc, path, value):
    """doc with the value at path set to value."""
    if not path:
        return value
    *outer, last = path
    inner = doc
    for step in outer:
        inner = inner[step]
    inner[last] = value
    return doc


def _set(*path, value):
    """A damage that sets the value at path of a document."""
    return lambda doc: _replaced(doc, path, value)


STRING_FIELDS = {
    "object": ("e", _set("payload", "cat", "objects", 0, value=BIG), f"object {BIG} is not a string"),
    "arrow-id": ("c", _set("payload", "cat", "arrows", 0, "id", value=BIG), f"arrow id {BIG} is not a string"),
    "frame-B": ("bframe", _set("payload", "B", 1, 0, value=BIG), f"element {BIG} of B[1] is not a string"),
    "frame-Bt": ("bframe", _set("payload", "Bt", 1, 0, value=5), "element 5 of Bt[2] is not a string"),
    "tree-level": (
        "tree", _set("payload", "levels", 1, 0, value=BIG), f"element {BIG} of tree level 1 is not a string"
    ),
    "one": ("c", _set("payload", "one", value=BIG), f"one is {BIG}, not a string"),
    "former-name": ("signature", _set("payload", "types", 0, "name", value=5), "former name 5 is not a string"),
    "binder-count-bool": (
        "signature",
        _set("payload", "terms", 0, "args", 0, 1, value=True),
        "binder count of former 'lam' is True, not an integer",
    ),
    "binder-count-float": (
        "signature",
        _set("payload", "terms", 0, "args", 0, 1, value=1.9),
        "binder count of former 'lam' is 1.9, not an integer",
    ),
    "version-true": ("e", _set("version", value=True), "unsupported version True"),
    "version-float": ("e", _set("version", value=1.0), "unsupported version 1.0"),
    "version-big": ("c", _set("version", value=BIG), f"unsupported version {BIG}"),
}


@pytest.mark.parametrize("field", STRING_FIELDS.values(), ids=STRING_FIELDS.keys())
def test_cli_rejects_an_id_or_count_of_the_wrong_json_type(tmp_path, capsys, field):
    """Where the loaders once kept the value as read, or coerced it, and
    orjson and json would have read a big int apart."""
    kind, damage, message = field
    doc = json.loads(STRING_DOCS[kind])
    damage(doc)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code, printed = _run(capsys, "check", str(path))
    assert code == 2
    _one_line(printed, message)


# ---------------------------------------------------------------------------
# the reader keeps orjson's tree only where the load from it succeeds, and
# then builds what json's tree builds


@pytest.mark.parametrize("command", [["check"], ["translate", "--to", "e"], ["roundtrip"]], ids=" ".join)
def test_cli_rejects_a_document_nested_too_deeply(tmp_path, capsys, command):
    """json's parser raises RecursionError here, which once left main as a traceback."""
    path, out = tmp_path / "deep.json", tmp_path / "out.json"
    path.write_text("[" * 100000 + "]" * 100000)
    output = ["-o", str(out)] if command[0] == "translate" else []
    code, printed = _run(capsys, *command, str(path), *output)
    assert code == 2 and not out.exists()
    _one_line(printed, "parse error: the document is nested too deeply")


def _exact(x):
    """x as plain values that compare equal only where the types are the same
    at every place, dicts in their key order."""
    if dataclasses.is_dataclass(x):
        return type(x), tuple((name, _exact(v)) for name, v in vars(x).items())
    if type(x) is dict:
        return dict, tuple((_exact(k), _exact(v)) for k, v in x.items())
    if type(x) in (set, frozenset):
        return type(x), frozenset(map(_exact, x))
    if type(x) in (tuple, list):
        return type(x), tuple(map(_exact, x))
    return type(x), x


def _outcome(load, text):
    try:
        kind, obj = load(text)
    except LoadError as exc:
        return "error", str(exc)
    return kind, _exact(obj)


def _loaded_by_json(text):
    """The outcome of load_structure on text, and whether json.loads ran."""
    calls = []

    def recorded(s):
        calls.append(s)
        return json.loads(s)

    namespace = types.SimpleNamespace(loads=recorded, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "json", namespace)
        outcome = _outcome(load_structure, text)
    return outcome, bool(calls)


def _orjson_reads(text) -> bool:
    try:
        orjson.loads(text)
    except orjson.JSONDecodeError:
        return False
    return True


def assert_read_as_by_json(text):
    """load_structure gives load_structure_reference's structure, with exact
    types, or its error line. json parses only where the load fails, where
    orjson cannot parse, or where orjson's tree is not json's (a big int)."""
    outcome, by_json = _loaded_by_json(text)
    assert outcome == _outcome(load_structure_reference, text)
    if not by_json:
        assert outcome[0] != "error"
    elif outcome[0] != "error" and _orjson_reads(text):
        assert _exact(orjson.loads(text)) != _exact(json.loads(text))
    return outcome, by_json


def _reader_docs():
    objs = {"group-s3": build_group_structure(*s3_table())}
    for h in (1, 2, 3):
        b, ce, e = build_finset_bsystem(h), build_finset_cesystem(h), build_nat_esystem(h)
        objs |= {
            f"tree-h{h}": chain_tree(h),
            f"finset-b-h{h}": b,
            f"finset-b-h{h}-frame": b.frame,
            f"finset-b-h{h}-e": b_to_e(b),
            f"nat-e-h{h}": e,
            f"nat-e-h{h}-ce": e_to_ce(e),
            f"nat-e-h{h}-c": ce_to_c(e_to_ce(e)),
            f"finset-ce-h{h}": ce,
            f"finset-ce-h{h}-c": ce_to_c(ce),
            f"uel-h{h}": build_syntactic_bframe(parse_signature("type U; type El(tm)"), h, 2),
        }
    for i, sig in enumerate(["type U; type El(tm)", "type U; type El(tm); term lam(tm^1.tm); term app(tm,tm)"]):
        objs[f"signature-{i}"] = parse_signature(sig)
    return {name: save_structure(x) for name, x in objs.items()}


READER_DOCS = _reader_docs()
# a string the text writes as the number 1e400, which json reads as inf
E400 = "\x00e400\x00"
# a key the text writes as a copy of another key of its dict
DUP = "\x00dup\x00"
BIG_INTS = [2**63, -(2**63), 2**64, 2**64 - 1, -(2**63) - 1]
ODD_VALUES = [*BIG_INTS, float("nan"), float("inf"), float("-inf"), E400, "\ud800", "a\udc00"]
ID_SUFFIXES = ["\ud800", "\udfff", "\u00e9", "\U0001d11e", "\x7f"]


@st.composite
def reader_documents(draw):
    """An example document of every kind at h1-h3, or one damaged as the
    tests above damage documents."""
    how = draw(st.sampled_from(["example", "example", "example", "bsystem-entry", "esystem", "bhom", "field"]))
    if how == "example":
        return json.loads(READER_DOCS[draw(st.sampled_from(sorted(READER_DOCS)))])
    if how == "bsystem-entry":
        name = draw(st.sampled_from(sorted(DAMAGE_DOCS)))
        doc = json.loads(DAMAGE_DOCS[name])
        *outer, last = path = draw(st.sampled_from(DAMAGE_ENTRIES[name]))
        table = doc["payload"]
        for step in outer:
            table = table[step]
        if len(path) == 2 or draw(st.booleans()):
            del table[last]
        else:
            table[last] = draw(st.sampled_from(DAMAGE_VALUES[name]))
        return doc
    if how == "field":
        kind, damage = draw(st.sampled_from(list(LOOSE_FIELDS.values())))
        doc = json.loads(LOOSE_DOCS[kind])
        damage(doc["payload"])
        return doc
    if how == "esystem":
        damages, base = ESYSTEM_DAMAGES, build_nat_esystem(3)
    else:
        damages, base = BHOM_DAMAGES, DAMAGE_BASES["finset-b-h3"]
    doc = json.loads(save_structure(base))
    draw(st.sampled_from(sorted(damages.items())))[1](doc["payload"])
    return doc


def _places(x, path=()):
    """(path, value) for x and every value x holds."""
    yield path, x
    if type(x) is dict:
        for k, v in x.items():
            yield from _places(v, (*path, k))
    elif type(x) is list:
        for i, v in enumerate(x):
            yield from _places(v, (*path, i))


def _renamed(x, old, new):
    """x with every string old replaced by new, where it is a value and,
    when new is a string, where it is a key; a key old is dropped with its
    value when new is not a string."""
    if type(x) is dict:
        if type(new) is not str:
            return {k: _renamed(v, old, new) for k, v in x.items() if k != old}
        return {(new if k == old else k): _renamed(v, old, new) for k, v in x.items()}
    if type(x) is list:
        return [_renamed(v, old, new) for v in x]
    return new if x == old and type(x) is str else x


# the keys of documents that name a field, not an id or a level
FIELDS = {
    "B", "Bt", "H", "Ht", "args", "arrow", "arrows", "base", "bd", "cat", "cod", "compose", "dom", "element",
    "fam", "frame", "ft", "functor", "gen", "height", "hom", "id", "identity", "ifun", "kind", "length",
    "level", "levels", "mor", "name", "obj", "objects", "one", "parent", "partial", "payload", "pb", "proj",
    "root", "source_apex", "subst", "target_apex", "term", "terminal", "terms", "types", "value", "version",
    "weak",
}


def _scalars_by_field(doc):
    """The path of every scalar of doc, grouped by the field that holds it:
    its path with every list index and every id or level key as "*", and
    its type, which tells the places of a row apart."""
    by_field = {}
    for path, v in _places(doc):
        if type(v) not in (dict, list):
            field = tuple(step if step in FIELDS else "*" for step in path), type(v).__name__
            by_field.setdefault(field, []).append(path)
    return by_field


@st.composite
def reader_texts(draw):
    """A document of ``reader_documents`` with edits the two parsers read
    apart, or that test their agreement, written as text."""
    doc, key = draw(reader_documents()), None
    for edit in draw(st.lists(st.sampled_from(["value", "rename", "duplicate"]), max_size=2, unique=True)):
        places = list(_places(doc))
        if edit == "value":
            by_field = _scalars_by_field(doc)
            path = draw(st.sampled_from(by_field[draw(st.sampled_from(sorted(by_field)))]))
            doc = _replaced(doc, path, draw(st.sampled_from(ODD_VALUES)))
        elif edit == "rename":
            old = draw(st.sampled_from(sorted({v for _, v in places if type(v) is str} | {"kind"})))
            new = draw(st.sampled_from([old + suffix for suffix in ID_SUFFIXES] + BIG_INTS))
            doc = _renamed(doc, old, new)
        else:
            path, d = draw(st.sampled_from([(path, v) for path, v in places if type(v) is dict and v]))
            key = draw(st.sampled_from(sorted(d)))
            value = draw(st.sampled_from([d[key], None, "zz", *BIG_INTS]))
            extra = {DUP: value}
            doc = _replaced(doc, path, {**extra, **d} if draw(st.booleans()) else {**d, **extra})
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    text = text.replace(json.dumps(E400), "1e400")
    if key is not None:
        text = text.replace(json.dumps(DUP), json.dumps(key))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    # a BOM, which both parsers reject, on about one text in eight
    return draw(st.sampled_from(["", "", "", "", "", "", "", "\ufeff"])) + text


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(reader_texts())
def test_reader_matches_json_on_examples_and_damaged_documents(text):
    assert_read_as_by_json(text)


@pytest.mark.parametrize("name", sorted(name for name in READER_DOCS if "-h2" not in name and "-h3" not in name))
def test_reader_matches_json_with_a_big_int_in_every_field_and_for_every_id(name):
    """Each of BIG_INTS at the first place of every field of a document,
    and in place of every string of it wherever it is a value."""
    doc = json.loads(READER_DOCS[name])
    strings = sorted({v for _path, v in _places(doc) if type(v) is str})
    for value in BIG_INTS:
        for first, *_rest in _scalars_by_field(doc).values():
            assert_read_as_by_json(json.dumps(_replaced(json.loads(READER_DOCS[name]), first, value)))
        for old in strings:
            assert_read_as_by_json(json.dumps(_renamed(doc, old, value)))


def _edited(name, *path, value):
    """READER_DOCS[name] with the value at path set, as text."""
    doc = _replaced(json.loads(READER_DOCS[name]), path, value)
    return json.dumps(doc).replace(json.dumps(E400), "1e400")


# text, whether json parses it, and the error line (None where it loads)
READER_CASES = {
    "as-written": (READER_DOCS["nat-e-h2"], False, None),
    "crlf": (READER_DOCS["finset-b-h2"].replace("\n", "\r\n"), False, None),
    "duplicate-key": (READER_DOCS["nat-e-h2"].replace('{\n  "kind"', '{\n  "version": 2,\n  "kind"'), False, None),
    "renamed-lone-surrogate": (
        json.dumps(_renamed(json.loads(READER_DOCS["nat-e-h2"]), "1>=0", "1>=0\ud800")), True, None
    ),
    "big-int-one": (_edited("finset-ce-h2-c", "payload", "one", value=BIG), True, f"one is {BIG}, not a string"),
    "nan-level": (_edited("nat-e-h2", "payload", "levels", "0", value=float("nan")), True,
                  "level of object '0' is nan, not an integer"),
    "1e400-length": (_edited("finset-ce-h2-c", "payload", "length", "0", value=E400), True,
                     "length of object '0' is inf, not an integer"),
    "bom": ("\ufeff" + READER_DOCS["nat-e-h2"], True,
            "parse error at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
}


@pytest.mark.parametrize("case", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_falls_back_to_json_where_orjson_reads_apart(case):
    text, by_json, message = case
    outcome, ran = assert_read_as_by_json(text)
    assert ran == by_json
    assert (outcome == ("error", message)) if message else (outcome[0] != "error")


def test_a_deep_value_no_loader_reads_loads_from_orjson():
    """The one document that loads here and not by json alone: json raises
    RecursionError on the unread value, orjson reads it."""
    doc = json.loads(READER_DOCS["nat-e-h2"])
    text = json.dumps({**doc, "note": [[[]]]}).replace("[[[]]]", "[" * 5000 + "]" * 5000)
    with pytest.raises(RecursionError):
        load_structure_reference(text)
    outcome, by_json = _loaded_by_json(text)
    assert not by_json
    assert outcome == _outcome(load_structure_reference, READER_DOCS["nat-e-h2"])
