"""C-systems: length, father, canonical projections, chosen pullbacks.

The pullback table is explicit data keyed by (arrow id, object id);
universality is re-verified by enumerating all competing cones in the
finite category. Entries whose result would fall outside the object set
of a truncated presentation may be absent and are skipped with a count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FinCat, _composites, validate_fincat
from .report import Report


@dataclass
class CSystem:
    cat: FinCat
    one: str
    length: dict[str, int]
    ft: dict[str, str]
    proj: dict[str, str] = field(default_factory=dict)
    pb: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)


def check_pullback_square(
    cat: FinCat,
    top: str,
    left: str,
    right: str,
    bottom: str,
    rep: Report,
    law: str,
    witness: tuple,
) -> None:
    """Commutation and universality of one candidate square.

    top: P -> X, left: P -> Y, right: X -> Z, bottom: Y -> Z.

    Every cone (u, v) from every object Z0 is checked: u in hom(Z0, X)
    and v in hom(Z0, Y) with right∘u = bottom∘v, in the order (Z0, u, v)
    sorted, and it must have exactly one mediator w in hom(Z0, P) with
    top∘w = u and left∘w = v. A pair whose right∘u or bottom∘v is
    missing is skipped. A cone is counted as checked, then skipped, when
    some w has no top∘w, or when some w has top∘w = u and no left∘w.
    These are exactly the cones for which a search over w that tests
    top∘w = u first, and left∘w = v only if that holds, meets a missing
    composite; such a search stops there, so which cones it skips does
    not depend on the order of w.

    The three hom-sets are read once per Z0. Grouping the v by bottom∘v
    pairs each u with exactly the v of its cones, in sorted order. One
    pass over hom(Z0, P) counts the w with both composites present by
    (top∘w, left∘w). Outside the two skip cases every w has top∘w, and
    every w with top∘w = u has left∘w, so the count under (u, v) is the
    number of mediators of the cone (u, v); an absent key counts zero.
    """
    compose = cat.compose
    rt, bl = compose.get((right, top)), compose.get((bottom, left))
    if rt is None or bl is None:
        rep.skip(law)
        return
    if rt != bl:
        rep.fail(law, witness, "square does not commute")
        return
    P = cat.dom(top)
    X, Y = cat.cod(top), cat.cod(left)
    checked = skipped = 0
    for Z0 in sorted(cat.objects):
        us = cat.hom(Z0, X)
        vs = cat.hom(Z0, Y)
        if not us or not vs:
            continue
        cones: dict[str, list[str]] = {}  # v grouped by bottom∘v
        no_bottom = 0
        for v in vs:
            bv = compose.get((bottom, v))
            if bv is None:
                no_bottom += 1
            else:
                cones.setdefault(bv, []).append(v)
        mediators: dict[tuple[str, str], int] = {}
        unsure: set[str] = set()  # top∘w for the w that lack left∘w
        every_top = True
        for w in cat.hom(Z0, P) if cones else ():
            tw = compose.get((top, w))
            if tw is None:
                every_top = False
                break
            lw = compose.get((left, w))
            if lw is None:
                unsure.add(tw)
            else:
                mediators[tw, lw] = mediators.get((tw, lw), 0) + 1
        for u in us:
            ru = compose.get((right, u))
            if ru is None:
                skipped += len(vs)
                continue
            skipped += no_bottom
            cone_vs = cones.get(ru)
            if not cone_vs:
                continue
            checked += len(cone_vs)
            if not every_top or u in unsure:
                skipped += len(cone_vs)
                continue
            for v in cone_vs:
                n = mediators.get((u, v), 0)
                if n != 1:
                    rep.fail(law, witness + (Z0, u, v), f"{n} mediating arrows")
    if checked:
        rep.tick(law, checked)
    if skipped:
        rep.skip(law, skipped)


def validate_csystem(c: CSystem) -> Report:
    """The seven C-system axioms, pullback universality included."""
    rep = Report()
    rep.merge(validate_fincat(c.cat), prefix="cat:")
    cat = c.cat
    for law in ("i", "ii", "iii", "iv", "v", "vi", "vii", "coverage"):
        rep.law(law)
    nonzero = [x for x in sorted(cat.objects) if c.length.get(x, 0) != 0]
    positive = [x for x in nonzero if c.length[x] > 0]

    rep.tick("i")
    zero = {x for x, n in c.length.items() if n == 0}
    if zero != {c.one}:
        rep.fail("i", (tuple(sorted(zero)),), "length 0 objects are not exactly the unit")
    for x in sorted(cat.objects):
        if x not in c.length:
            rep.fail("i", (x,), "object has no length")

    rep.tick("ii", len(positive))
    for x in positive:
        fx = c.ft.get(x)
        if fx is None:
            rep.fail("ii", (x,), "no father")
        elif c.length.get(fx) != c.length[x] - 1:
            rep.fail("ii", (x, fx), "father length wrong")

    rep.tick("iii")
    if c.ft.get(c.one) != c.one:
        rep.fail("iii", (c.one,), "ft(1) != 1")

    rep.tick("iv", len(cat.objects))
    for x in sorted(cat.objects):
        arrs = cat.hom(x, c.one)
        if len(arrs) != 1:
            rep.fail("iv", (x, tuple(arrs)), "unit is not terminal")

    checked, skipped = len(positive), 0
    for x in positive:
        p = c.proj.get(x)
        if p is None:
            if cat.partial:
                skipped += 1
            else:
                rep.fail("v", (x,), "no canonical projection")
            continue
        fx = c.ft.get(x)
        if fx is None:  # law ii reports the missing father
            skipped += 1
            continue
        if cat.dom(p) != x or cat.cod(p) != fx:
            rep.fail("v", (x, p), "projection endpoints wrong")

    # chosen pullbacks: coverage plus the pullback property
    covered = uncovered = 0
    for gamma in nonzero:
        base = c.ft.get(gamma)
        if base is None:  # the arrows f into ft(gamma) are not defined
            covered += 1
            uncovered += 1
            continue
        for f in cat.arrows_into(base):
            covered += 1
            entry = c.pb.get((f, gamma))
            if entry is None:
                uncovered += 1
                continue
            ob, q = entry
            checked += 1
            if ob not in cat.objects or q not in cat.arrows:
                rep.fail("v", (f, gamma), "pullback entry dangling")
                continue
            if c.ft.get(ob) != cat.dom(f):
                rep.fail("v", (f, gamma, ob), "ft(f*G) != dom(f)")
                continue
            if c.length.get(ob, 0) <= 0:
                rep.fail("v", (f, gamma, ob), "f*G has length 0")
                continue
            p_ob = c.proj.get(ob)
            p_g = c.proj.get(gamma)
            if p_ob is None or p_g is None:
                skipped += 1
                continue
            if cat.dom(q) != ob or cat.cod(q) != gamma:
                rep.fail("v", (f, gamma, q), "q endpoints wrong")
                continue
            check_pullback_square(cat, q, p_ob, p_g, f, rep, "v", (f, gamma))
    rep.tick("v", checked)
    rep.skip("v", skipped)
    rep.tick("coverage", covered)
    rep.skip("coverage", uncovered)

    skipped = 0
    for gamma in nonzero:
        # a missing father or identity reads as None, and no entry is keyed by None
        entry = c.pb.get((cat.identity.get(c.ft.get(gamma)), gamma))
        ident = cat.identity.get(gamma)
        if entry is None or ident is None:
            skipped += 1
        elif entry != (gamma, ident):
            rep.fail("vi", (gamma,), f"id pullback is {entry!r}")
    rep.tick("vi", len(nonzero))
    rep.skip("vi", skipped)

    check_pullback_composites(cat, c.pb, rep, "vii")
    return rep


def check_pullback_composites(
    cat: FinCat, pb: dict[tuple[str, str], tuple[str, str]], rep: Report, law: str
) -> None:
    """The pullback along a composite is the composite of the pullbacks.

    For every entry pb[(f, X)] = (Y, q) and every g into dom(f), with
    pb[(g, Y)] = (Y', q'), require pb[(f∘g, X)] = (Y', q∘q'). An instance
    is checked, and skipped when f∘g, q∘q' or either entry is missing. So
    each entry ticks len(_into[dom f]), and only the g with f∘g present,
    those of _composites' rows[f], are visited in sorted order; the others
    count as skipped.
    """
    table, rows, other = _composites(cat)
    checked = skipped = 0
    for (f, X), (Y, q) in sorted(pb.items()):
        n = len(cat._into.get(cat.dom(f), ()))
        gs, fgs = rows.get(f, ((), ()))
        checked += n
        skipped += n - len(gs)
        for g, fg in zip(gs, fgs):
            lhs = pb.get((fg, X))
            inner = pb.get((g, Y))
            qq = None if inner is None else table.get(q, {}).get(inner[1]) or other.get((q, inner[1]))
            if lhs is None or qq is None:
                skipped += 1
            elif lhs != (inner[0], qq):
                rep.fail(law, (f, g, X), f"{lhs!r} != {(inner[0], qq)!r}")
    if checked:
        rep.tick(law, checked)
    if skipped:
        rep.skip(law, skipped)
