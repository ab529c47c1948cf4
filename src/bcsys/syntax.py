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

import re
from dataclasses import dataclass

from .bsys import BFrame, BFrameHom, BSystem, slice_bframe
from .core import pack_ids


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
    return _raw_exprs(sig, memo, "ty", n, bound), _raw_exprs(sig, memo, "tm", n, bound)


# module-level, not nested: two nested functions that call each other
# would form a reference cycle that only the cyclic collector frees
def _raw_exprs(
    sig: BindingSignature, memo: dict, sort: str, vars_: int, budget: int
) -> list[RawExpr]:
    """The expressions of ``sort`` over vars_ variables with <= budget formers."""
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
            for combo in _child_combos(sig, memo, f.args, vars_, budget - 1):
                out.append(RawExpr(sort, f.name, combo, binders))
    out.sort(key=lambda e: (e.size(), e.key()))
    memo[key] = out
    return out


def _child_combos(sig: BindingSignature, memo: dict, args, vars_: int, budget: int):
    if not args:
        yield ()
        return
    first, rest = args[0], args[1:]
    for child in _raw_exprs(sig, memo, first.sort, vars_ + first.binders, budget):
        used = child.size()
        if used > budget:
            continue
        for tail in _child_combos(sig, memo, rest, vars_, budget - used):
            yield (child,) + tail


# ---------------------------------------------------------------------------
# the syntactic B-frame


def _tele_id(types: tuple[RawExpr, ...]) -> str:
    return pack_ids(tuple(t.key() for t in types))


def build_syntactic_bframe(sig: BindingSignature, height: int, bound: int) -> BSystem:
    """Contexts are telescopes; judgement elements add a term and a type.

    Returns the pre-B-system, unvalidated: a caller that wants its report
    runs validate_bsystem. The substitution, weakening and
    generic-element tables carry only the entries whose results stay
    within the enumeration bound.
    """
    lm: list[list[RawExpr]] = []
    rr: list[list[RawExpr]] = []
    for i in range(height + 1):
        tys, tms = enumerate_raw(sig, i, bound)
        lm.append(tys)
        rr.append(tms)
    lm_keys = [frozenset(t.key() for t in tys) for tys in lm]
    rr_keys = [frozenset(t.key() for t in tms) for tms in rr]

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

    def lift(src_at: tuple[int, str], tgt_at: tuple[int, str], act) -> BFrameHom:
        """The hom B/src -> B/tgt that cuts the source apex's telescope off
        each element and puts the target apex's telescope in its place.

        ``act(e, i)`` changes an expression that sits under the first i
        types of the cut tail. Each result must be enumerated at level
        len(prefix) + i; an entry with a piece that is not is left out.
        The call acts on each (expression, i) and lifts each telescope
        once: the frame's expressions and telescopes are single objects,
        so ``acted`` and ``lifted`` are keyed by their ids.
        """
        src, tgt = slice_bframe(frame, *src_at), slice_bframe(frame, *tgt_at)
        cut, prefix = src_at[0], tele_by_id[tgt_at[1]]
        p = len(prefix)
        prefix_keys = tuple(t.key() for t in prefix)
        acted: dict[tuple[int, int], str] = {}
        lifted: dict[int, str | None] = {}

        def act_key(c: RawExpr, i: int) -> str:
            k = (id(c), i)
            if k not in acted:
                acted[k] = act(c, i).key()
            return acted[k]

        def lift_tele(tele: tuple[RawExpr, ...]) -> str | None:
            if id(tele) not in lifted:
                keys = tuple(act_key(c, i) for i, c in enumerate(tele[cut:]))
                ok = all(k in lm_keys[p + i] for i, k in enumerate(keys))
                lifted[id(tele)] = pack_ids(prefix_keys + keys) if ok else None
            return lifted[id(tele)]

        top = min(src.height, tgt.height)
        H: dict[int, dict[str, str]] = {}
        Ht: dict[int, dict[str, str]] = {}
        for lvl in range(top + 1):
            hm = {}
            for Y in src.B[lvl]:
                new_tele = lift_tele(tele_by_id[Y])
                if new_tele is not None:
                    hm[Y] = new_tele
            H[lvl] = hm
        for lvl in range(1, top + 1):
            tm = {}
            for el in src.Bt[lvl]:
                tele2, term2, ty2 = judg_by_id[el]
                new_tele = lift_tele(tele2)
                if new_tele is None:
                    continue
                d = len(tele2) - cut
                new_term, new_ty = act_key(term2, d), act_key(ty2, d)
                if new_term in rr_keys[p + d] and new_ty in lm_keys[p + d]:
                    tm[el] = pack_ids((new_tele, new_term, new_ty))
            Ht[lvl] = tm
        return BFrameHom(source=src, target=tgt, H=H, Ht=Ht)

    # substitution structure: replace the last variable of the context
    for n in range(1, height + 1):
        for j in frame.Bt[n]:
            tele, term, _ty = judg_by_id[j]
            sys.subst[(n, j)] = lift(
                (n, frame.bd[n][j]), (n - 1, _tele_id(tele)), lambda c, i: subst(c, i, term)
            )

    # weakening structure: insert the new type, shifting later indices
    for n in range(1, height + 1):
        for Xid in frame.B[n]:
            sys.weak[(n, Xid)] = lift((n - 1, frame.ft[n][Xid]), (n, Xid), lambda c, i: shift(c, 1, i))

    # generic elements: the last variable, weakened
    for n in range(1, height):
        for Xid in frame.B[n]:
            full = tele_by_id[Xid]
            a = full[-1]
            shifted = shift(a, 1, 0)
            if shifted.key() not in lm_keys[n]:
                continue
            sys.gen[(n, Xid)] = judg_id(full, RawExpr("tm", "#0"), shifted)

    return sys
