"""``cli.main`` runs each command with the cyclic garbage collector paused.

That is sound only if no command leaves cyclic garbage, so that reference
counting frees everything a command made. The first group runs every
subcommand on every example kind, and the error paths, with the collector
off, and asserts that a collection afterwards finds nothing. The second
checks that ``main`` leaves the collector as it found it: on or off, with
its thresholds, whatever the command returns or raises, and that no other
module imports ``gc``.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
from pathlib import Path

import pytest

import bcsys
from bcsys import cli
from bcsys.bsys import build_finset_bsystem
from bcsys.cli import build_parser, main
from bcsys.esys import build_group_structure, s3_table
from bcsys.report import Report
from bcsys.serialize import save_structure

KINDS = {"finset-b": "b", "nat-e": "e", "finset-ce": "ce", "group-s3": "e", "syntactic": "b"}


@pytest.fixture
def collector():
    """Runs the test with the collector off; restores the collector's
    state and thresholds afterwards."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    build_parser()  # built once per process; argparse leaves cycles behind then
    gc.disable()
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        if enabled:
            gc.enable()


def run(argv: list[str]) -> int:
    """main(argv) with its standard streams captured; the collector finds
    no garbage afterwards."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert gc.collect() == 0, argv
    return code


@pytest.mark.parametrize("name", sorted(KINDS))
def test_no_command_leaves_cyclic_garbage(tmp_path, collector, name):
    doc = str(tmp_path / f"{name}.json")
    argv = ["example", name, "--height", "2", "-o", doc]
    if name == "syntactic":
        sig = tmp_path / "sig.txt"
        sig.write_text("type U; type El(tm)\n")
        argv += ["--sig", str(sig)]
    assert run(argv) == 0
    assert run(["check", doc]) == (1 if name == "group-s3" else 0)
    docs = {KINDS[name]: doc}
    for to in ("b", "e", "ce", "c"):
        out = str(tmp_path / f"{name}.{to}.json")
        if run(["translate", "--to", to, doc, "-o", out]) == 0:
            docs.setdefault(to, out)
    if name != "group-s3":
        assert sorted(docs) == ["b", "c", "ce", "e"]
    for path in docs.values():
        for to in ("b", "e", "ce", "c"):
            run(["translate", "--to", to, path])
        run(["roundtrip", path])
    if "e" in docs:
        run(["pair", docs["e"]])


def test_no_error_path_leaves_cyclic_garbage(tmp_path, collector):
    group = tmp_path / "g.json"
    assert run(["example", "group-s3", "-o", str(group)]) == 0
    assert run(["check", str(group), "--as", "esystem"]) == 1
    assert run(["roundtrip", str(group)]) == 2
    malformed = tmp_path / "m.json"
    malformed.write_text('{"kind": "csystem", "version": 1, "payload": {}}')
    assert run(["check", str(malformed)]) == 2
    # finset-b h3 without one substitution: the translation falls off it
    doc = json.loads(save_structure(build_finset_bsystem(3)))
    doc["payload"]["subst"].pop()
    broken = tmp_path / "b.json"
    broken.write_text(json.dumps(doc))
    assert run(["translate", "--to", "c", str(broken)]) == 2
    undecodable = tmp_path / "u.json"
    undecodable.write_bytes(b"\xff\xfe{")
    assert run(["check", str(undecodable)]) == 2
    assert run(["translate", "--to", "e", str(group), "-o", str(tmp_path / "no" / "x.json")]) == 2


@pytest.fixture(params=[True, False], ids=["on", "off"])
def state(request):
    """The collector on or off, with thresholds of its own, at entry to
    main; the test's own state is restored afterwards."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(555, 7, 3)
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param, (555, 7, 3)
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()


def _group_doc(tmp_path) -> str:
    path = tmp_path / "g.json"
    path.write_text(save_structure(build_group_structure(*s3_table())))
    return str(path)


@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, state, code):
    argv = {
        0: ["example", "nat-e", "--height", "2", "-o", str(tmp_path / "e.json")],
        1: ["check", _group_doc(tmp_path)],
        2: ["check", str(tmp_path / "missing.json")],
    }[code]
    assert main(argv) == code
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_threshold()) == state


def test_main_leaves_the_collector_as_it_found_it_when_a_command_raises(tmp_path, monkeypatch, state):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_validate", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["check", _group_doc(tmp_path)])
    assert (gc.isenabled(), gc.get_threshold()) == state


def test_the_collector_is_off_while_a_command_runs(tmp_path, capsys, monkeypatch, state):
    seen = []

    def record(*args):
        seen.append(gc.isenabled())
        return Report()

    monkeypatch.setattr(cli, "_validate", record)
    assert main(["check", _group_doc(tmp_path)]) == 0
    capsys.readouterr()
    assert seen == [False]


def test_only_the_cli_touches_the_collector():
    """Library functions leave the interpreter's collector alone."""
    src = Path(bcsys.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                importers.add(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                importers.add(path.stem)
    assert importers == {"cli"}
