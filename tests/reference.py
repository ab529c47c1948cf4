"""Brute-force references for the indexed law checks.

These are the straightforward loops that ``core.validate_fincat`` and
``csys.check_pullback_square`` replace: every pair and triple of arrow
names is tested for composability, and every candidate cone searches all
of hom(Z, P) for mediators, with a missing composite raised as Truncated
and caught as a skip. Tests compare the fast checks against them, report
for report.
"""

from __future__ import annotations

from bcsys.core import FinCat, validate_units
from bcsys.report import Report, Truncated


def validate_fincat_reference(c: FinCat) -> Report:
    """validate_fincat by a loop over all sorted (g, f) and (h, g, f)."""
    rep = validate_units(c)
    names = sorted(c.arrows)
    for g in names:
        for f in names:
            if c.dom(g) != c.cod(f):
                if (g, f) in c.compose:
                    rep.fail("compose-total", (g, f), "composite of non-composable pair")
                continue
            rep.tick("compose-total")
            gf = c.compose.get((g, f))
            if gf is None:
                if c.partial:
                    rep.skip("compose-total")
                else:
                    rep.fail("compose-total", (g, f), "missing composite")
                continue
            if gf not in c.arrows:
                rep.fail("compose-total", (g, f, gf), "composite not an arrow")
                continue
            if c.dom(gf) != c.dom(f) or c.cod(gf) != c.cod(g):
                rep.fail("compose-endpoints", (g, f, gf), "composite endpoints wrong")

    for h in names:
        for g in names:
            if c.dom(h) != c.cod(g):
                continue
            for f in names:
                if c.dom(g) != c.cod(f):
                    continue
                rep.tick("assoc")
                try:
                    lhs = c.comp(c.comp(h, g), f)
                    rhs = c.comp(h, c.comp(g, f))
                except Truncated:
                    rep.skip("assoc")
                    continue
                if lhs != rhs:
                    rep.fail("assoc", (h, g, f), f"{lhs!r} != {rhs!r}")

    if c.terminal is not None:
        if c.terminal not in c.objects:
            rep.fail("terminal", (c.terminal,), "terminal not an object")
        else:
            for obj in sorted(c.objects):
                rep.tick("terminal")
                arrs = c.hom(obj, c.terminal)
                if len(arrs) != 1:
                    rep.fail("terminal", (obj, tuple(arrs)), "hom to terminal not a singleton")
    return rep


def check_pullback_square_reference(
    cat: FinCat,
    top: str,
    left: str,
    right: str,
    bottom: str,
    rep: Report,
    law: str,
    witness: tuple,
) -> None:
    """check_pullback_square by a search over every w for every (u, v).

    top: P -> X, left: P -> Y, right: X -> Z, bottom: Y -> Z.
    """
    try:
        if cat.comp(right, top) != cat.comp(bottom, left):
            rep.fail(law, witness, "square does not commute")
            return
    except Truncated:
        rep.skip(law)
        return
    P = cat.dom(top)
    X, Y = cat.cod(top), cat.cod(left)
    for Z0 in sorted(cat.objects):
        for u in cat.hom(Z0, X):
            for v in cat.hom(Z0, Y):
                try:
                    if cat.comp(right, u) != cat.comp(bottom, v):
                        continue
                except Truncated:
                    rep.skip(law)
                    continue
                rep.tick(law)
                mediators = []
                try:
                    for w in cat.hom(Z0, P):
                        if cat.comp(top, w) == u and cat.comp(left, w) == v:
                            mediators.append(w)
                except Truncated:
                    rep.skip(law)
                    continue
                if len(mediators) != 1:
                    rep.fail(
                        law,
                        witness + (Z0, u, v),
                        f"{len(mediators)} mediating arrows",
                    )
