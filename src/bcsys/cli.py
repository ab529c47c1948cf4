"""Command line front end: build examples, check axioms, translate, round-trip.

Exit codes: 0 all checked laws pass, 1 at least one law fails or a
round-trip witness does not verify, 2 malformed input or usage error.
Structure files are the JSON documents of the serialize module; `-`
reads standard input or writes standard output.

``main`` pauses the cyclic garbage collector while a command runs and
turns it back on afterwards if it was on: bcsys builds no reference
cycles, so reference counting frees everything and the collector's
passes over the heap find nothing. No other module touches ``gc``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .bsys import build_finset_bsystem, validate_bframe, validate_bsystem
from .cesys import build_finset_cesystem, validate_cesystem
from .core import Stratification, stratify, validate_fincat, validate_tree, validate_units
from .csys import validate_csystem
from .esys import (
    ESystem,
    build_group_structure,
    build_nat_esystem,
    check_identity_terms,
    check_pairing,
    s3_table,
    validate_esystem,
)
from .report import Report, Truncated
from .serialize import LoadError, load_structure, save_structure
from .syntax import SignatureError, build_syntactic_bframe, parse_signature
from .xlate import (
    adjunction_witnesses,
    b_to_e,
    c_to_ce,
    casce_iso,
    ce_to_c,
    ce_to_e,
    e_to_b,
    e_to_ce,
    grand_roundtrip_iso,
    invert_ehom,
    unit_ehom,
    validate_ehom,
)

MAX_HEIGHT_ENV = "BCSYS_MAX_HEIGHT"


class CommandError(Exception):
    """A file that cannot be read or written, or a malformed setting.

    ``main`` prints it, as it prints a LoadError, on one line of stderr
    and exits 2.
    """


def max_height() -> int:
    raw = os.environ.get(MAX_HEIGHT_ENV, "8")
    try:
        return int(raw)
    except ValueError:
        raise CommandError(f"{MAX_HEIGHT_ENV}={raw!r} is not an integer") from None


def _read(path: str) -> str:
    try:
        if path == "-":
            # the bytes, decoded strictly as a file is: sys.stdin's own
            # decoder may turn bytes that are not UTF-8 into surrogates
            stream = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CommandError(str(exc)) from None
    except UnicodeDecodeError as exc:
        where = "standard input" if path == "-" else repr(path)
        raise CommandError(f"{where} is not UTF-8: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(str(exc)) from None


def _print_report(rep: Report) -> int:
    print(rep.format())
    return 0 if rep.ok else 1


def cmd_example(args) -> int:
    height, cap = args.height, max_height()
    if height > cap:
        print(f"height {height} exceeds {MAX_HEIGHT_ENV}={cap}", file=sys.stderr)
        return 2
    if height < 0:
        print(f"height {height} is negative", file=sys.stderr)
        return 2
    if args.bound < 1:
        print(f"bound {args.bound} is below 1", file=sys.stderr)
        return 2
    if args.name == "finset-b":
        obj = build_finset_bsystem(height)
    elif args.name == "finset-ce":
        obj = build_finset_cesystem(height)
    elif args.name == "nat-e":
        obj = build_nat_esystem(height)
    elif args.name == "group-s3":
        obj = build_group_structure(*s3_table())
    elif args.name == "syntactic":
        if not args.sig:
            print("syntactic example needs --sig FILE", file=sys.stderr)
            return 2
        try:
            sig = parse_signature(_read(args.sig))
        except SignatureError as exc:
            print(f"signature error: {exc}", file=sys.stderr)
            return 2
        obj = build_syntactic_bframe(sig, height, args.bound)
    else:
        print(f"unknown example {args.name!r}", file=sys.stderr)
        return 2
    _write(args.output, save_structure(obj))
    return 0


def _validate(kind: str, obj, rooted: bool, stratified: bool) -> Report:
    if kind == "bsystem":
        return validate_bsystem(obj)
    if kind == "bframe":
        return validate_bframe(obj)
    if kind == "esystem":
        return validate_esystem(obj)
    if kind == "csystem":
        return validate_csystem(obj)
    if kind == "cesystem":
        return validate_cesystem(obj, rooted=rooted, stratified=stratified)
    if kind == "tree":
        return validate_tree(obj)
    if kind == "signature":
        rep = Report()
        rep.tick("signature")
        return rep
    raise LoadError(f"no validator for kind {kind!r}")


def cmd_check(args) -> int:
    kind, obj = load_structure(_read(args.file), expect_kind=args.as_kind)
    rep = _validate(kind, obj, args.rooted, args.stratified)
    return _print_report(rep)


def _ensure_levels(e: ESystem) -> ESystem:
    if e.levels is None:
        s = stratify(e.cat)
        if not isinstance(s, Stratification):
            raise LoadError(f"E-system is not stratified: {s}")
        e.levels = dict(s.level)
    return e


def _guarded(args, action) -> int:
    """Load ``args.file``, precheck an E-system and return ``action(kind, obj)``,
    the exit code; where the action raises Truncated or a ValueError other
    than LoadError, ``_translation_fell_off`` gives it."""
    kind, obj = load_structure(_read(args.file))
    pre = _precheck(kind, obj) if kind == "esystem" else None
    if pre is not None and not pre.ok:
        return _print_report(pre)
    try:
        return action(kind, obj)
    except LoadError:
        raise  # a ValueError that main reports as malformed input
    except (Truncated, ValueError) as exc:
        return _translation_fell_off(pre if pre is not None else _precheck(kind, obj), exc)


def cmd_translate(args) -> int:
    def translate(kind: str, obj) -> int:
        _write(args.output, save_structure(_translate(kind, obj, args.to)))
        return 0

    return _guarded(args, translate)


def _precheck(kind: str, obj) -> Report:
    """The laws no translation reads for itself: those of every category of
    the input (e_to_b copies the tables without looking for gaps, e_to_ce
    reads only the entries it needs) and, for an E-system, proj-system's
    rule that each identity term lies in T(W_A(A))."""
    pre = Report()
    if kind in ("esystem", "csystem"):
        pre.merge(validate_fincat(obj.cat), prefix="cat:")
    elif kind == "cesystem":
        pre.merge(validate_fincat(obj.fam), prefix="fam:")
        pre.merge(validate_fincat(obj.base), prefix="base:")
    if kind == "esystem":
        check_identity_terms(obj, pre)
    return pre


def _translation_fell_off(pre: Report, exc: Truncated | ValueError) -> int:
    """A translation needed a table entry the input lacks, or rejected it.

    If the input breaks a law of ``_precheck`` (``pre`` is its report),
    that is the defect: print the report and exit 1. Otherwise name the
    missing entry, or give the translation's reason, and exit 2.
    """
    if not pre.ok:
        return _print_report(pre)
    if isinstance(exc, Truncated):
        print(f"error: the translation needs {exc.what}, which the input does not define", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 2


# the kinds in chain order (``--to X`` names kind X + "system"), and the
# single steps between neighbours, which look each translation up when they
# run so that a wrapper put on this module's binding sees the call
_CHAIN = ("bsystem", "esystem", "cesystem", "csystem")
_STEPS = {
    ("bsystem", "esystem"): lambda b: b_to_e(b),
    ("esystem", "bsystem"): lambda e: e_to_b(_ensure_levels(e)),
    ("esystem", "cesystem"): lambda e: e_to_ce(e),
    ("cesystem", "esystem"): lambda a: ce_to_e(a),
    ("cesystem", "csystem"): lambda a: ce_to_c(a),
    ("csystem", "cesystem"): lambda c: c_to_ce(c),
}


def _translate(kind: str, obj, to: str):
    """Walk the chain from ``kind`` to ``to``, one single step at a time."""
    if kind not in _CHAIN:
        raise LoadError(f"cannot translate kind {kind!r} to {to!r}")
    i, j = _CHAIN.index(kind), _CHAIN.index(to + "system")
    step = 1 if j > i else -1
    for k in range(i, j, step):
        obj = _STEPS[(_CHAIN[k], _CHAIN[k + step])](obj)
    return obj


def cmd_roundtrip(args) -> int:
    return _guarded(args, _roundtrip)


def _roundtrip(kind: str, obj) -> int:
    """Run and print the round trip of one structure; every translation
    runs before anything is printed."""
    if kind == "bsystem":
        iso, stages = grand_roundtrip_iso(obj)
        for name, rep in stages.items():
            print(f"== stage {name}")
            print(rep.format())
        print("== round-trip isomorphism")
        print(iso.report.format())
        ok = iso.verified and all(r.ok for r in stages.values())
        return 0 if ok else 1
    if kind == "esystem":
        eta = unit_ehom(obj, ce_to_e(e_to_ce(obj)))
        rep = validate_ehom(eta)
        inv, invrep = invert_ehom(eta)
        print(rep.format())
        print(invrep.format())
        return 0 if rep.ok and inv is not None else 1
    if kind == "cesystem":
        strat = stratify(obj.fam) if obj.fam.terminal is not None else None
        rooted = all(len(obj.base.hom(x, obj.root)) == 1 for x in obj.base.objects)
        if rooted and isinstance(strat, Stratification):
            iso = casce_iso(obj)
            print(iso.report.format())
            return 0 if iso.verified else 1
        _eta, _eps, rep = adjunction_witnesses(obj)
        print(rep.format())
        return 0 if rep.ok else 1
    if kind == "csystem":
        # the tables are copied both ways, so a broken category would pass
        pre = Report()
        pre.merge(validate_units(obj.cat), prefix="cat:")
        if not pre.ok:
            return _print_report(pre)
        a = c_to_ce(obj)
        c2 = ce_to_c(a)
        rep = Report()
        rep.tick("retraction")
        same = (
            c2.cat.arrows.keys() == obj.cat.arrows.keys()
            and c2.length == obj.length
            and c2.ft == obj.ft
            and c2.proj == obj.proj
            and c2.pb == obj.pb
        )
        if not same:
            rep.fail("retraction", (), "ce_to_c(c_to_ce(c)) differs from c")
        print(rep.format())
        return 0 if rep.ok else 1
    print(f"error: no round trip for kind {kind!r}", file=sys.stderr)
    return 2


def cmd_pair(args) -> int:
    kind, obj = load_structure(_read(args.file), expect_kind="esystem")
    return _print_report(check_pairing(obj))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process.

    ``parse_args`` reads it and writes only the namespace it returns, and
    no default is mutable, so one ``main`` call leaves nothing for the next.
    """
    ap = argparse.ArgumentParser(
        prog="bcsys",
        description="check, translate and round-trip finitely presented "
        "B-, C-, E- and CE-systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="emit a built-in example structure")
    ex.add_argument("name", choices=["finset-b", "finset-ce", "nat-e", "group-s3", "syntactic"])
    ex.add_argument("--height", type=int, default=3)
    ex.add_argument("--bound", type=int, default=2, help="former-count bound (syntactic)")
    ex.add_argument("--sig", help="signature file (syntactic)")
    ex.add_argument("-o", "--output", default=None)
    ex.set_defaults(func=cmd_example)

    ck = sub.add_parser("check", help="run the axiom checkers on a structure file")
    ck.add_argument("file")
    ck.add_argument("--as", dest="as_kind", default=None, help="require this kind tag")
    ck.add_argument("--rooted", action="store_true")
    ck.add_argument("--stratified", action="store_true")
    ck.set_defaults(func=cmd_check)

    tr = sub.add_parser("translate", help="translate a structure to another kind")
    tr.add_argument("--to", required=True, choices=["b", "c", "e", "ce"])
    tr.add_argument("file")
    tr.add_argument("-o", "--output", default=None)
    tr.set_defaults(func=cmd_translate)

    rt = sub.add_parser("roundtrip", help="verify the round-trip isomorphism")
    rt.add_argument("file")
    rt.set_defaults(func=cmd_roundtrip)

    pr = sub.add_parser("pair", help="verify the pairing bijection on an E-system")
    pr.add_argument("file")
    pr.set_defaults(func=cmd_pair)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (LoadError, CommandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
