"""Restricted two-sorted binding signatures and the syntactic B-frame.

A signature declares type and term formers whose arguments may bind term
variables only. Raw expressions over n free variables are enumerated up
to a given former count, de Bruijn style with innermost index 0. The
level-n contexts of the syntactic B-frame are telescopes of types, each
over its predecessors; judgement elements pair a telescope with a term
and a type over it.

Substitution can grow an expression past the enumeration bound; such
entries are left out of the structure tables and the validators count
them as skipped.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .bsys import BFrame, BFrameHom, BSystem, slice_bframe, validate_bsystem
from .core import pack_ids, unpack_ids
from .report import Report


class SignatureError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FormerArg:
    sort: str  # "ty" or "tm"
    binders: int  # bound term variables


@dataclass(frozen=True)
class Former:
    name: str
    args: tuple[FormerArg, ...]


@dataclass(frozen=True)
class BindingSignature:
    type_formers: tuple[Former, ...]
    term_formers: tuple[Former, ...]


@dataclass(frozen=True)
class RawExpr:
    sort: str  # "ty" or "tm"
    head: str  # former name, or "#i" for a term variable
    children: tuple["RawExpr", ...] = ()
    # term variables each child binds, from the former's signature; empty
    # where no child binds any
    binders: tuple[int, ...] = ()

    def key(self) -> str:
        if not self.children:
            return self.head
        return self.head + "(" + ",".join(c.key() for c in self.children) + ")"

    def size(self) -> int:
        own = 0 if self.head.startswith("#") else 1
        return own + sum(c.size() for c in self.children)


_ARG_RE = re.compile(r"^(?:(tm)\^(\d+)\.(ty|tm)|(ty|tm))$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_signature(text: str) -> BindingSignature:
    """Parse `type Name(arg,...)` / `term Name(arg,...)` declarations.

    Arguments are `ty`, `tm`, or `tm^k.ty` / `tm^k.tm` for k bound term
    variables. Binding type variables has no spelling and any attempt
    (e.g. `ty^1.ty`) is rejected as a restriction violation.
    """
    types: list[Former] = []
    terms: list[Former] = []
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            stripped = stmt.strip()
            if not stripped:
                continue
            col = raw_line.index(stripped[0]) + 1
            m = re.match(r"^(type|term)\s+([^\s(]+)\s*(\((.*)\))?\s*$", stripped)
            if m is None:
                raise SignatureError(lineno, col, f"cannot parse declaration {stripped!r}")
            kind, name, _, argtext = m.groups()
            if not _NAME_RE.match(name):
                raise SignatureError(lineno, col, f"bad former name {name!r}")
            if name in seen:
                raise SignatureError(lineno, col, f"duplicate former {name!r}")
            seen.add(name)
            args: list[FormerArg] = []
            if argtext is not None and argtext.strip():
                for part in argtext.split(","):
                    p = part.strip()
                    am = _ARG_RE.match(p)
                    if am is None:
                        if p.startswith("ty^"):
                            raise SignatureError(
                                lineno, col, f"argument {p!r} binds type variables"
                            )
                        raise SignatureError(lineno, col, f"bad argument {p!r}")
                    if am.group(1):
                        args.append(FormerArg(sort=am.group(3), binders=int(am.group(2))))
                    else:
                        args.append(FormerArg(sort=am.group(4), binders=0))
            former = Former(name=name, args=tuple(args))
            (types if kind == "type" else terms).append(former)
    return BindingSignature(type_formers=tuple(types), term_formers=tuple(terms))


# ---------------------------------------------------------------------------
# raw expressions


def shift(expr: RawExpr, by: int, cutoff: int = 0) -> RawExpr:
    if expr.head.startswith("#"):
        i = int(expr.head[1:])
        return RawExpr("tm", f"#{i + by}" if i >= cutoff else expr.head)
    return RawExpr(
        expr.sort,
        expr.head,
        tuple(shift(c, by, cutoff + _binders_of(expr, j)) for j, c in enumerate(expr.children)),
        expr.binders,
    )


def subst(expr: RawExpr, j: int, repl: RawExpr) -> RawExpr:
    if expr.head.startswith("#"):
        i = int(expr.head[1:])
        if i == j:
            return shift(repl, j)
        if i > j:
            return RawExpr("tm", f"#{i - 1}")
        return expr
    return RawExpr(
        expr.sort,
        expr.head,
        tuple(
            subst(c, j + _binders_of(expr, idx), repl)
            for idx, c in enumerate(expr.children)
        ),
        expr.binders,
    )


def _binders_of(expr: RawExpr, child_index: int) -> int:
    return expr.binders[child_index] if expr.binders else 0


def enumerate_raw(
    sig: BindingSignature, n: int, bound: int
) -> tuple[list[RawExpr], list[RawExpr]]:
    """All type and term expressions over n variables with <= bound formers.

    Deterministic: results are ordered by (former count, canonical key).
    """
    if bound < 1:
        raise ValueError("size bound must be at least 1")
    memo: dict[tuple[str, int, int], list[RawExpr]] = {}

    def gen(sort: str, vars_: int, budget: int) -> list[RawExpr]:
        key = (sort, vars_, budget)
        if key in memo:
            return memo[key]
        out: list[RawExpr] = []
        if sort == "tm":
            out.extend(RawExpr("tm", f"#{i}") for i in range(vars_))
        formers = sig.type_formers if sort == "ty" else sig.term_formers
        if budget >= 1:
            for f in formers:
                binders = tuple(a.binders for a in f.args)
                for combo in _child_combos(f.args, vars_, budget - 1, gen):
                    out.append(RawExpr(sort, f.name, combo, binders))
        out.sort(key=lambda e: (e.size(), e.key()))
        memo[key] = out
        return out

    def _child_combos(args, vars_, budget, gen):
        if not args:
            yield ()
            return
        first, rest = args[0], args[1:]
        for child in gen(first.sort, vars_ + first.binders, budget):
            used = child.size()
            if used > budget:
                continue
            for tail in _child_combos(rest, vars_, budget - used, gen):
                yield (child,) + tail

    return gen("ty", n, bound), gen("tm", n, bound)


# ---------------------------------------------------------------------------
# the syntactic B-frame


def _tele_id(types: tuple[RawExpr, ...]) -> str:
    return pack_ids(tuple(t.key() for t in types))


def build_syntactic_bframe(
    sig: BindingSignature, height: int, bound: int
) -> tuple[BSystem, Report]:
    """Contexts are telescopes; judgement elements add a term and a type.

    Returns the pre-B-system together with its validation report; the
    substitution, weakening and generic-element tables carry only the
    entries whose results stay within the enumeration bound.
    """
    lm: list[list[RawExpr]] = []
    rr: list[list[RawExpr]] = []
    for i in range(height + 1):
        tys, tms = enumerate_raw(sig, i, bound)
        lm.append(tys)
        rr.append(tms)
    lm_keys = [frozenset(t.key() for t in tys) for tys in lm]
    by_key: dict[tuple[int, str], RawExpr] = {}
    for i, tys in enumerate(lm):
        for t in tys:
            by_key[(i, t.key())] = t
    for i, tms in enumerate(rr):
        for t in tms:
            by_key[(i, t.key())] = t

    teles: list[list[tuple[RawExpr, ...]]] = [[()]]
    for n in range(1, height + 1):
        teles.append(
            [t + (a,) for t in teles[n - 1] for a in lm[n - 1]]
        )

    B = tuple(frozenset(_tele_id(t) for t in teles[n]) for n in range(height + 1))
    tele_by_id: dict[str, tuple[RawExpr, ...]] = {}
    for n in range(height + 1):
        for t in teles[n]:
            tele_by_id[_tele_id(t)] = t

    def judg_id(tele: tuple[RawExpr, ...], term: RawExpr, ty: RawExpr) -> str:
        return pack_ids((_tele_id(tele), term.key(), ty.key()))

    Bt: list[frozenset[str]] = [frozenset()]
    judg_by_id: dict[str, tuple[tuple[RawExpr, ...], RawExpr, RawExpr]] = {}
    for n in range(1, height + 1):
        elems = []
        for tele in teles[n - 1]:
            for term in rr[n - 1]:
                for ty in lm[n - 1]:
                    j = judg_id(tele, term, ty)
                    judg_by_id[j] = (tele, term, ty)
                    elems.append(j)
        Bt.append(frozenset(elems))

    ft: list[dict[str, str]] = [{}]
    bd: list[dict[str, str]] = [{}]
    for n in range(1, height + 1):
        ft.append({_tele_id(t): _tele_id(t[:-1]) for t in teles[n]})
        bd.append(
            {
                j: _tele_id(tele + (ty,))
                for j, (tele, term, ty) in judg_by_id.items()
                if len(tele) == n - 1
            }
        )
    frame = BFrame(height=height, B=B, Bt=tuple(Bt), ft=tuple(ft), bd=tuple(bd))
    sys = BSystem(frame=frame)

    # substitution structure: replace the last variable of the context
    for n in range(1, height + 1):
        for j in frame.Bt[n]:
            tele, term, ty = judg_by_id[j]
            m = len(tele)  # the term lives over m variables
            src = slice_bframe(frame, n, frame.bd[n][j])
            tgt = slice_bframe(frame, n - 1, _tele_id(tele))
            H: dict[int, dict[str, str]] = {}
            Ht: dict[int, dict[str, str]] = {}
            for lvl in range(src.height + 1):
                hm = {}
                for Y in src.B[lvl]:
                    full = tele_by_id[Y]
                    tail = full[m + 1 :]
                    new_tail = tuple(
                        subst(c, i, term) for i, c in enumerate(tail)
                    )
                    if all(
                        nt.key() in lm_keys[m + i] for i, nt in enumerate(new_tail)
                    ):
                        hm[Y] = _tele_id(tele + new_tail)
                H[lvl] = hm
            for lvl in range(1, src.height + 1):
                tm = {}
                for el in src.Bt[lvl]:
                    tele2, term2, ty2 = judg_by_id[el]
                    tail = tele2[m + 1 :]
                    d = len(tail)
                    new_tail = tuple(
                        subst(c, i, term) for i, c in enumerate(tail)
                    )
                    new_term = subst(term2, d, term)
                    new_ty = subst(ty2, d, term)
                    pieces_ok = (
                        all(nt.key() in lm_keys[m + i] for i, nt in enumerate(new_tail))
                        and new_term.key() in {e.key() for e in rr[m + d]}
                        and new_ty.key() in lm_keys[m + d]
                    )
                    if pieces_ok:
                        tm[el] = judg_id(tele + new_tail, new_term, new_ty)
                Ht[lvl] = tm
            sys.subst[(n, j)] = BFrameHom(source=src, target=tgt, H=H, Ht=Ht)

    # weakening structure: insert the new type, shifting later indices
    for n in range(1, height + 1):
        for Xid in frame.B[n]:
            full = tele_by_id[Xid]
            parent_len = n - 1
            parent = full[:-1]
            inserted = full[-1]
            src = slice_bframe(frame, n - 1, _tele_id(parent))
            tgt = slice_bframe(frame, n, Xid)
            H: dict[int, dict[str, str]] = {}
            Ht: dict[int, dict[str, str]] = {}
            for lvl in range(min(src.height, tgt.height) + 1):
                hm = {}
                for Y in src.B[lvl]:
                    tail = tele_by_id[Y][n - 1 :]
                    new_tail = tuple(shift(c, 1, i) for i, c in enumerate(tail))
                    if all(
                        nt.key() in lm_keys[n + i] for i, nt in enumerate(new_tail)
                    ):
                        hm[Y] = _tele_id(full + new_tail)
                H[lvl] = hm
            for lvl in range(1, min(src.height, tgt.height) + 1):
                tm = {}
                for el in src.Bt[lvl]:
                    tele2, term2, ty2 = judg_by_id[el]
                    tail = tele2[n - 1 :]
                    d = len(tail)
                    new_tail = tuple(shift(c, 1, i) for i, c in enumerate(tail))
                    new_term = shift(term2, 1, d)
                    new_ty = shift(ty2, 1, d)
                    ok = (
                        all(nt.key() in lm_keys[n + i] for i, nt in enumerate(new_tail))
                        and new_term.key() in {e.key() for e in rr[n + d]}
                        and new_ty.key() in lm_keys[n + d]
                    )
                    if ok:
                        tm[el] = judg_id(full + new_tail, new_term, new_ty)
                Ht[lvl] = tm
            sys.weak[(n, Xid)] = BFrameHom(source=src, target=tgt, H=H, Ht=Ht)

    # generic elements: the last variable, weakened
    for n in range(1, height):
        for Xid in frame.B[n]:
            full = tele_by_id[Xid]
            a = full[-1]
            shifted = shift(a, 1, 0)
            if shifted.key() not in lm_keys[n]:
                continue
            sys.gen[(n, Xid)] = judg_id(full, RawExpr("tm", "#0"), shifted)

    return sys, validate_bsystem(sys)
