"""Acceptance suite: one test per criterion, printing a PASS line each.

Every equation is checked exhaustively over the represented fragment of
the truncated structures; skipped instances are those whose supporting
data falls above the height, and each criterion requires zero failures.
"""

import random
import time

import pytest

from bcsys.bsys import build_finset_bsystem, validate_bsystem
from bcsys.cesys import build_finset_cesystem, validate_cesystem
from bcsys.core import (
    Arrow,
    FinCat,
    FunctorData,
    RootedTree,
    Stratification,
    StratFailure,
    path_id,
    stratify,
    unpack_ids,
)
from bcsys.esys import (
    EHom,
    build_group_structure,
    build_nat_esystem,
    check_pairing,
    compose_sf,
    fn_term,
    hom_terms_of,
    identity_sf,
    nat_arrow,
    precompose,
    projections,
    restrict_sf,
    s3_table,
    sf_equal,
    subst_term,
    term_action_at,
    term_extension,
    validate_ehom,
    validate_esystem,
    vertical_compose,
)
from bcsys.report import Truncated
from bcsys.syntax import build_syntactic_bframe, enumerate_raw, parse_signature
from bcsys.xlate import (
    adjunction_witnesses,
    b_roundtrip_iso,
    b_to_e,
    c_to_ce,
    casce_iso,
    ce_to_c,
    ce_to_e,
    counit_cehom,
    e_to_ce,
    grand_roundtrip_iso,
    invert_ehom,
    unit_ehom,
)

from helpers import parse_path_id
from test_csys_cesys import non_rooted_cesystem


def ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_acceptance_1_positive_validation():
    t0 = time.monotonic()
    for h in (2, 3, 4):
        rep = validate_bsystem(build_finset_bsystem(h))
        assert not rep.failed_laws(), rep.format()
        assert not rep.missing_laws()
    for h in (2, 3):
        rep = validate_esystem(build_nat_esystem(h))
        assert not rep.failed_laws(), rep.format()
        assert not rep.missing_laws()
    for h in (2, 3):
        rep = validate_cesystem(build_finset_cesystem(h), rooted=True, stratified=True)
        assert not rep.failed_laws(), rep.format()
        assert not rep.missing_laws()
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    ok(1, f"finset B (2-4), N E (2-3), finset CE (2-3) all axioms pass in {elapsed:.1f}s")


def test_acceptance_2_negative_validation():
    e = build_group_structure(*s3_table())
    rep = validate_esystem(e)
    assert rep.failed_laws() == ["e-axiom-3", "e-axiom-4", "e-axiom-5"]
    assert rep.missing_laws() == ["terminal"]
    for law in ("subst-functor", "subst-system", "weak-functor", "weak-system",
                "proj-system", "e-axiom-1", "e-axiom-2"):
        assert not rep.laws[law].violations, law
        assert rep.laws[law].checked > 0, law
    ok(2, "S3 fails exactly {e-axiom-3, e-axiom-4, e-axiom-5, terminal}")


def test_acceptance_3_translation_fidelity():
    b = build_finset_bsystem(4)
    e = b_to_e(b)
    en = build_nat_esystem(4)
    # independent counting
    for n in range(5):
        for k in range(1, 5 - n):
            a = path_id(n + k, str(n + k), k)
            assert len(e.T(a)) == n ** k, (n, k)
            assert len(en.T(nat_arrow(n + k, n))) == n ** k
    # constructed isomorphism: objects by level, term tuples as graphs
    object_map = {f"{n}@{n}": str(n) for n in range(5)}
    arrow_map = {}
    term_map = {}
    for a in e.cat.arrows:
        n, _x, k = parse_path_id(a)
        arrow_map[a] = nat_arrow(n, n - k)
        term_map[a] = {
            t: fn_term(tuple(int(c) for c in unpack_ids(t))) for t in e.T(a)
        }
    h = EHom(
        source=e,
        target=en,
        functor=FunctorData(e.cat, en.cat, object_map, arrow_map),
        term_map=term_map,
    )
    rep = validate_ehom(h)
    assert not rep.failed_laws(), rep.format()
    inv, invrep = invert_ehom(h)
    assert inv is not None, invrep.format()
    rep2 = validate_ehom(inv)
    assert not rep2.failed_laws(), rep2.format()
    ok(3, "b_to_e(finset B, 4) isomorphic to the N E-system at height 4; |T| = n^k")


def test_acceptance_4a_b_roundtrip():
    t0 = time.monotonic()
    for h in (2, 3, 4):
        iso = b_roundtrip_iso(build_finset_bsystem(h))
        assert iso.verified, iso.report.format()
    assert time.monotonic() - t0 < 10
    ok(4, "(a) e_to_b . b_to_e isomorphic to the identity on finset B-systems")


def test_acceptance_4b_csystem_retraction():
    t0 = time.monotonic()
    for h in (2, 3):
        c = ce_to_c(build_finset_cesystem(h))
        c2 = ce_to_c(c_to_ce(c))
        assert c2.cat.arrows.keys() == c.cat.arrows.keys()
        assert (c2.length, c2.ft, c2.proj, c2.pb) == (c.length, c.ft, c.proj, c.pb)
    assert time.monotonic() - t0 < 10
    ok(4, "(b) ce_to_c . c_to_ce is the identity on the underlying category")


def test_acceptance_4c_casce_iso():
    t0 = time.monotonic()
    for h in (2, 3):
        iso = casce_iso(build_finset_cesystem(h))
        assert iso.verified, iso.report.format()
    assert time.monotonic() - t0 < 10
    ok(4, "(c) c_to_ce . ce_to_c isomorphic to the identity via comp/fact")


def test_acceptance_4d_unit_counit_invertibility():
    t0 = time.monotonic()
    built = [
        build_nat_esystem(2),
        build_nat_esystem(3),
        b_to_e(build_finset_bsystem(3)),
        ce_to_e(build_finset_cesystem(2)),
    ]
    for e in built:
        eta = unit_ehom(e)
        rep = validate_ehom(eta)
        assert not rep.failed_laws(), rep.format()
        inv, invrep = invert_ehom(eta)
        assert inv is not None, invrep.format()
    # counit invertible on the rooted instance
    a = build_finset_cesystem(2)
    _eta, _eps, rep = adjunction_witnesses(build_nat_esystem(2), a)
    assert not rep.failed_laws(), rep.format()
    # and not invertible once base terminality is broken
    bad = non_rooted_cesystem(2)
    _eta, _eps, rep2 = adjunction_witnesses(build_nat_esystem(2), bad)
    assert "eps-invertible" in rep2.failed_laws()
    assert time.monotonic() - t0 < 10
    ok(4, "(d) unit invertible on built E-systems; counit invertible iff rooted")


def test_acceptance_4e_triangle_identities():
    t0 = time.monotonic()
    for h in (2, 3):
        _eta, _eps, rep = adjunction_witnesses(
            build_nat_esystem(h), build_finset_cesystem(h)
        )
        assert not rep.laws["triangle-1"].violations, rep.format()
        assert not rep.laws["triangle-2"].violations, rep.format()
        assert rep.laws["triangle-1"].checked > 0
        assert rep.laws["triangle-2"].checked > 0
    assert time.monotonic() - t0 < 10
    ok(4, "(e) triangle identities hold exhaustively at heights 2-3")


def test_acceptance_5_pairing():
    for e, name in (
        (build_nat_esystem(3), "nat-3"),
        (b_to_e(build_finset_bsystem(3)), "b2e-finset-3"),
    ):
        rep = check_pairing(e)
        assert rep.ok, f"{name}: {rep.format()}"
        cat = e.cat
        composable = sum(
            1
            for g in cat.objects
            for A in cat.arrows_into(g)
            for P in cat.arrows_into(cat.dom(A))
        )
        assert rep.laws["pairing-count"].checked == composable
        assert rep.laws["terminal-terms"].checked == len(cat.objects)
        assert not rep.laws["pairing-bijective"].violations
        assert not rep.laws["pairing-inverse"].violations
    ok(5, "pairing bijective with inverse via projections; |T(id)| = 1 everywhere")


def _calculus_identities(e):
    """Exhaustive checks of the derived term calculus; returns law -> counts."""
    cat = e.cat
    counts = {}

    def bump(law, failed=False):
        c = counts.setdefault(law, [0, 0])
        c[0] += 1
        if failed:
            c[1] += 1

    for gamma in sorted(cat.objects):
        for A in cat.arrows_into(gamma):
            for P in cat.arrows_into(cat.dom(A)):
                AP = cat.compose.get((A, P))
                if AP is None:
                    continue
                pairs = []
                for x in sorted(e.T(A)):
                    sx = e.subst.get((A, x))
                    xP = sx.obj_map.get(P) if sx else None
                    if xP is None:
                        continue
                    pairs.extend((x, u) for u in sorted(e.T(xP)))
                # pairproj and subst-by-tmext
                for (x, u) in pairs:
                    try:
                        w = term_extension(e, A, P, x, u)
                        pr1, pr2 = projections(e, A, P)
                        wa, wp = e.weak[A], e.weak[P]
                        pos1 = wp.obj_map[wa.obj_map[A]]
                        pos2 = wp.obj_map[P]
                        b1 = subst_term(e, w, AP, pos1, pr1)
                        b2 = subst_term(e, w, AP, pos2, pr2)
                        bump("pairproj", b1 != x or b2 != u)
                    except Truncated:
                        pass
                    try:
                        w = term_extension(e, A, P, x, u)
                        sx = e.subst[(A, x)]
                        xP = sx.obj_map[P]
                        lhs = e.subst[(AP, w)]
                        rhs = compose_sf(e, e.subst[(xP, u)], restrict_sf(e, sx, P))
                        bad, _, _ = sf_equal(lhs, rhs)
                        bump("subst-by-tmext", bool(bad))
                    except Truncated:
                        pass
                # <pr1, pr2> = identity term
                try:
                    pr1, pr2 = projections(e, A, P)
                    wap = e.weak[AP]
                    abar = wap.obj_map[A]
                    pbar = restrict_sf(e, wap, A).obj_map[P]
                    got = term_extension(e, abar, pbar, pr1, pr2)
                    bump("pairproj", got != e.proj.get(AP))
                except (Truncated, KeyError):
                    pass
                # precomposition with pr1 is weakening by P
                try:
                    pr1, _ = projections(e, A, P)
                    star = precompose(e, AP, A, pr1)
                    bad, _, checked = sf_equal(star, e.weak[P])
                    if checked:
                        bump("precomp-by-proj", bool(bad))
                except Truncated:
                    pass
                # associativity of term extension
                for Q in cat.arrows_into(cat.dom(P)):
                    PQ = cat.compose.get((P, Q))
                    if PQ is None:
                        continue
                    for (x, u) in pairs:
                        try:
                            xu = term_extension(e, A, P, x, u)
                            sxu = e.subst[(AP, xu)]
                            vpos = sxu.obj_map.get(Q)
                            if vpos is None:
                                continue
                            for v in sorted(e.T(vpos)):
                                lhs = term_extension(e, AP, Q, xu, v)
                                sx = e.subst[(A, x)]
                                xP = sx.obj_map[P]
                                xQ = restrict_sf(e, sx, P).obj_map[Q]
                                uv = term_extension(e, xP, xQ, u, v)
                                rhs = term_extension(e, A, PQ, x, uv)
                                bump("tmext-assoc", lhs != rhs)
                        except Truncated:
                            pass

    # interchange and uniqueness of the projection square filler
    def comp_int(A, B, C, f, g):
        star = precompose(e, A, B, f)
        pos = e.weak[B].obj_map.get(C)
        if pos is None:
            raise Truncated("hom position")
        act = term_action_at(e, star, pos)
        if act is None or g not in act:
            raise Truncated("composition")
        return act[g]

    gamma_objs = sorted(cat.objects)
    for gamma in gamma_objs:
        objs = cat.arrows_into(gamma)
        for A in objs:
            for B in objs:
                homAB = hom_terms_of(e, A, B)
                if homAB is None:
                    continue
                for C in objs:
                    homBC = hom_terms_of(e, B, C)
                    if homBC is None:
                        continue
                    for P in cat.arrows_into(cat.dom(A)):
                        for Q in cat.arrows_into(cat.dom(B)):
                            for R in cat.arrows_into(cat.dom(C)):
                                for f in sorted(homAB):
                                    for g in sorted(homBC):
                                        try:
                                            _interchange_case(
                                                e, bump, gamma, A, B, C, P, Q, R, f, g, comp_int
                                            )
                                        except Truncated:
                                            pass
    return counts


def _interchange_case(e, bump, gamma, A, B, C, P, Q, R, f, g, comp_int):
    cat = e.cat
    fstar = precompose(e, A, B, f)
    gstar = precompose(e, B, C, g)
    wq = e.weak.get(Q)
    wp = e.weak.get(P)
    if wq is None or wp is None:
        raise Truncated("weakening")
    fQ = fstar.obj_map.get(e.weak[B].obj_map.get(Q, ""))
    if fQ is None:
        raise Truncated("f*Q")
    homfPQ = e.T(wp.obj_map.get(fQ, ""))
    gR = gstar.obj_map.get(e.weak[C].obj_map.get(R, ""))
    if gR is None:
        raise Truncated("g*R")
    homgQR = e.T(wq.obj_map.get(gR, ""))
    gf = comp_int(A, B, C, f, g)
    AP = cat.comp(A, P)
    BQ = cat.comp(B, Q)
    CR = cat.comp(C, R)
    for F in sorted(homfPQ):
        for G in sorted(homgQR):
            vf = vertical_compose(e, A, B, f, P, Q, F)
            vg = vertical_compose(e, B, C, g, Q, R, G)
            lhs = comp_int(AP, BQ, CR, vf, vg)
            # F-bullet(G): transport G through F* and the slice of f*
            Fstar = precompose(e, P, fQ, F)
            fQslice = restrict_sf(e, fstar, Q)
            Fbul = compose_sf(e, Fstar, fQslice)
            posG = wq.obj_map.get(gR)
            act = term_action_at(e, Fbul, posG)
            if act is None or G not in act:
                raise Truncated("F-bullet")
            FG = act[G]
            rhs = vertical_compose(e, A, C, gf, P, R, FG)
            bump("interchange", lhs != rhs)
            # uniqueness of the filler with the two projection equations
            homs = hom_terms_of(e, AP, BQ)
            pr1A, _ = projections(e, A, P)
            pr1B, pr2B = projections(e, B, Q)
            want_edge = comp_int(AP, A, B, pr1A, f)
            matches = []
            for h in sorted(homs):
                c1 = comp_int(AP, BQ, B, h, pr1B)
                posp2 = e.weak[Q].obj_map.get(Q)
                hstar = precompose(e, AP, BQ, h)
                act2 = term_action_at(e, hstar, e.weak[BQ].obj_map.get(e.weak[B].obj_map[Q], ""))
                hpr2 = _h_pr2(e, h, AP, BQ, B, Q, pr2B)
                if c1 == want_edge and hpr2 == F:
                    matches.append(h)
            bump("prjsquare-unique", matches != [vf])


def _h_pr2(e, h, AP, BQ, B, Q, pr2B):
    hstar = precompose(e, AP, BQ, h)
    pos2 = e.weak[Q].obj_map.get(Q)
    if pos2 is None:
        raise Truncated("pr2 position")
    act = term_action_at(e, hstar, pos2)
    if act is None or pr2B not in act:
        raise Truncated("h[pr2]")
    return act[pr2B]


def test_acceptance_6_calculus_identities():
    for h in (2, 3):
        counts = _calculus_identities(build_nat_esystem(h))
        for law in ("pairproj", "subst-by-tmext", "tmext-assoc",
                    "precomp-by-proj", "interchange", "prjsquare-unique"):
            checked, failed = counts.get(law, [0, 0])
            assert failed == 0, (h, law)
            assert checked > 0, (h, law)
    ok(6, "pairing/projection/interchange/uniqueness identities hold at heights 2-3")


# ---------------------------------------------------------------------------
# criterion 7: randomized stratification


def _random_tree(rng, max_nodes=20):
    height = rng.randint(0, 4)
    levels = [["r"]]
    total = 1
    for n in range(1, height + 1):
        width = rng.randint(1, max(1, min(5, max_nodes - total)))
        if total + width > max_nodes:
            break
        levels.append([f"v{n}_{i}" for i in range(width)])
        total += width
    parent = []
    for n in range(len(levels) - 1):
        parent.append({node: rng.choice(levels[n]) for node in levels[n + 1]})
    return RootedTree(
        height=len(levels) - 1,
        levels=tuple(frozenset(l) for l in levels),
        parent=tuple(parent),
    )


def _path_category(levels, edges):
    """Free category on a level-graded multigraph (edges go one level down)."""
    objects = {node for lv in levels for node in lv}
    arrows = {}
    identity = {}
    compose = {}
    for node in objects:
        identity[node] = f"id:{node}"
        arrows[f"id:{node}"] = Arrow(f"id:{node}", node, node)
    paths = {node: [((), node)] for node in objects}  # per start: (edge tuple, end)
    frontier = [((e,), edges[e][1], edges[e][0]) for e in edges]
    while frontier:
        seq, end, start = frontier.pop()
        name = "+".join(seq)
        if name not in arrows:
            arrows[name] = Arrow(name, start, end)
            paths[start].append((seq, end))
            for e2, (s2, t2) in edges.items():
                if s2 == end:
                    frontier.append((seq + (e2,), t2, start))
    for start, plist in paths.items():
        for seq1, mid in plist:
            for seq2, end in paths[mid]:
                n1 = "+".join(seq1) if seq1 else f"id:{start}"
                n2 = "+".join(seq2) if seq2 else f"id:{mid}"
                total = seq1 + seq2
                nt = "+".join(total) if total else f"id:{start}"
                compose[(n2, n1)] = nt
    root = next(iter(levels[0]))
    return FinCat(
        objects=frozenset(objects),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=root,
    )


def _tree_edges(tree):
    levels = [sorted(l) for l in tree.levels]
    edges = {}
    for n, pm in enumerate(tree.parent):
        for child, par in pm.items():
            edges[f"e:{child}"] = (child, par)
    return levels, edges


def _glue_twin(related, objects, target):
    related = set(related)
    twin = "twin"
    for (x, y) in list(related):
        if x == target:
            related.add((twin, y))
        if y == target:
            related.add((x, twin))
    related |= {(twin, twin), (twin, target), (target, twin)}
    return sorted(objects) + [twin], sorted(related)


def test_acceptance_7_randomized_stratification():
    from helpers import thin_cat

    rng = random.Random(20260809)
    from bcsys.core import free_cat_of_tree

    cases = 0
    for i in range(200):
        kind = rng.choice(["valid", "valid", "extra-parent", "glue-root", "glue-mid"])
        tree = _random_tree(rng)
        if kind == "valid":
            cat, built = free_cat_of_tree(tree)
            res = stratify(cat)
            assert isinstance(res, Stratification), (i, res)
            assert res.level == built.level
        elif kind == "extra-parent":
            if tree.height < 2 or len(tree.levels[1]) < 2:
                cat, _ = free_cat_of_tree(tree)
                assert isinstance(stratify(cat), Stratification)
                cases += 1
                continue
            levels, edges = _tree_edges(tree)
            child = sorted(tree.levels[2])[0]
            parents = sorted(tree.levels[1])
            other = parents[1] if tree.parent[1][child] == parents[0] else parents[0]
            edges["e:extra"] = (child, other)
            cat = _path_category(levels, edges)
            res = stratify(cat)
            assert isinstance(res, StratFailure), i
            assert res.condition == "ii", (i, res)
        else:
            # a thin chain with an isomorphic twin glued on
            n = max(tree.height, 1)
            objs = [str(k) for k in range(n + 1)]
            related = [(str(a), str(b)) for a in range(n + 1) for b in range(a + 1)]
            target = "0" if kind == "glue-root" else str(min(1, n))
            objs2, rel2 = _glue_twin(related, objs, target)
            cat = thin_cat(objs2, rel2, terminal="0")
            res = stratify(cat)
            assert isinstance(res, StratFailure), i
            if kind == "glue-root":
                assert res.condition == "iii", (i, res)
            else:
                assert res.condition in ("ii", "iii"), (i, res)
        cases += 1
    assert cases == 200
    ok(7, "200 randomized stratification cases, 0 misclassifications")


def test_acceptance_8_syntactic_bframe():
    sig = parse_signature("type U; type El(tm)")
    # independent enumeration first: |LM([i])| = 1 + i, |R([i])| = i
    lm_sizes = []
    r_sizes = []
    for i in range(4):
        tys, tms = enumerate_raw(sig, i, 2)
        lm_sizes.append(len(tys))
        r_sizes.append(len(tms))
    assert lm_sizes == [1, 2, 3, 4]
    assert r_sizes == [0, 1, 2, 3]
    expected_B = [1]
    for n in range(1, 4):
        expected_B.append(expected_B[-1] * lm_sizes[n - 1])
    expected_Bt = [0] + [
        expected_B[n] * r_sizes[n] * lm_sizes[n] for n in range(0, 3)
    ]
    assert expected_B == [1, 1, 2, 6]
    assert expected_Bt == [0, 0, 2, 12]
    sys = build_syntactic_bframe(sig, 3, 2)
    rep = validate_bsystem(sys)
    assert [len(s) for s in sys.frame.B] == expected_B
    assert [len(s) for s in sys.frame.Bt] == expected_Bt
    assert not rep.failed_laws(), rep.format()
    ok(8, "syntactic B-frame sizes (1,2,6) and (2,12) match the enumeration")


def test_acceptance_9_grand_composite():
    t0 = time.monotonic()
    iso, stages = grand_roundtrip_iso(build_finset_bsystem(3))
    for name, rep in stages.items():
        assert not rep.failed_laws(), f"{name}: {rep.format()}"
    assert iso.verified, iso.report.format()
    # the context levels are compared in full
    assert iso.report.laws["iso:fwd.bwd"].checked >= 4
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    ok(9, f"b2c then c2b on finset height 3 verified in {elapsed:.1f}s")
