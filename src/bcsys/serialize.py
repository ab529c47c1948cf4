"""JSON documents for every structure kind, with canonical key order.

A document is {"kind": ..., "version": 1, "payload": ...} where the
payload mirrors the in-memory tables field for field. Loading checks
referential integrity of ids (dangling references are errors) but does
not run the domain-law validators; the CLI's check command does that.

A loaded category keeps one string per object id and per arrow id:
every table of the structure holds the very id objects that ``objects``
and ``arrows`` hold. The loaders check each reference by looking it up
in a dict that maps each id to itself, which returns the stored id or
raises KeyError for a dangling one. Each entry's ids are looked up in
the order the message names them, key before value (Python evaluates
the right side of ``d[k] = v`` first), so a document with several
faults reports the same one as membership tests in that order would.
Term strings stay as parsed. Nothing is coerced: every id, element,
term and former name must be a JSON string, a level, height, length or
binder count a JSON integer, ``partial`` a JSON boolean and ``version``
the integer 1. Documents are read by orjson where it gives json's
structure (see ``load_structure``) and written by orjson where its bytes
are json's (see ``dumps``).
"""

from __future__ import annotations

import json
from itertools import chain, compress
from typing import Any

from .bsys import BFrame, BFrameHom, BSystem, slice_bframe
from .cesys import CESystem
from .core import Arrow, FinCat, RootedTree
from .csys import CSystem
from .esys import ESystem, SliceFunctorT, TermCat
from .syntax import BindingSignature, Former, FormerArg

VERSION = 1


class LoadError(ValueError):
    pass


def _int(v: Any, what: str, *args: Any) -> int:
    """v, which must be an int (a bool is not one); ``what.format(*args)`` names it."""
    if type(v) is not int:
        raise LoadError(f"{what.format(*args)} is {v!r}, not an integer")
    return v


def _strs(xs: Any, what: str, *args: Any) -> None:
    """Raise LoadError unless each x of xs is a str; ``what.format(x, *args)`` names the first that is not."""
    if not {str}.issuperset(map(type, xs)):
        bad = next(x for x in xs if type(x) is not str)
        raise LoadError(f"{what.format(bad, *args)} is not a string")


def dumps(doc: dict) -> str:
    r"""``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, byte for byte.

    orjson writes this form in C, with json's bytes wherever they are
    ASCII without DEL (0x7f). ``json.dumps`` itself writes the rest:
    non-ASCII text and DEL, which orjson writes raw and json escapes, and
    what orjson raises on (a lone surrogate, an int outside
    [-2**63, 2**64 - 1], nesting past its depth limit). Only exact dicts
    with ``str`` keys, lists, ``str``, ``int``, ``bool`` and ``None`` are
    written; any other type, a tuple or a float among them, raises
    ``TypeError``. That is checked after writing, so that a document
    holding itself makes the writer raise before the check walks it.
    """
    # imported on first use, so the validators called in-process never pay its 1 MB of memory
    import orjson

    try:
        out = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        out = None
    same = out is not None and out.isascii() and b"\x7f" not in out
    text = out.decode("ascii") if same else json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _check_types(doc)
    return text


# the only types a document may hold, each mapped to whether it nests
_NESTS = {str: False, int: False, bool: False, type(None): False, list: True, dict: True}


def _check_types(doc: Any) -> None:
    """Raise ``TypeError`` unless doc holds only the types ``dumps`` writes.

    One nesting level at a time, by C-level ``map``: Python loops run per
    level and per container, never per leaf.
    """
    values = [doc]
    while values:
        try:
            boxes = list(compress(values, map(_NESTS.__getitem__, map(type, values))))
        except KeyError as exc:
            raise TypeError(f"cannot write {exc.args[0].__name__} to a document") from None
        lists = [b for b in boxes if type(b) is list]
        dicts = [b for b in boxes if type(b) is dict]
        if not {str}.issuperset(map(type, chain.from_iterable(dicts))):
            raise TypeError("cannot write a key that is not a str to a document")
        values = list(chain(chain.from_iterable(lists), chain.from_iterable(map(dict.values, dicts))))


# ---------------------------------------------------------------------------
# FinCat


def fincat_payload(c: FinCat) -> dict:
    return {
        "objects": sorted(c.objects),
        "arrows": [
            {"id": a.name, "dom": a.dom, "cod": a.cod}
            for _, a in sorted(c.arrows.items())
        ],
        "identity": c.identity,
        "compose": [[g, f, gf] for (g, f), gf in sorted(c.compose.items())],
        "terminal": c.terminal,
        "partial": c.partial,
    }


def fincat_load(p: dict) -> FinCat:
    _strs(p["objects"], "object {!r}")
    objs = {x: x for x in p["objects"]}
    arrows, ids = {}, {}
    for rec in p["arrows"]:
        dom, cod = rec["dom"], rec["cod"]
        try:
            dom, cod = objs[dom], objs[cod]
        except KeyError:
            raise LoadError(f"arrow {rec['id']!r} has dangling endpoints") from None
        a = rec["id"]
        arrows[a] = Arrow(a, dom, cod)
        ids[a] = a
    _strs(ids, "arrow id {!r}")
    identity = {}
    for obj, i in p["identity"].items():
        try:
            x = objs[obj]
            identity[x] = ids[i]
        except KeyError:
            raise LoadError(f"identity entry {obj!r}: {i!r} dangling") from None
    compose = {}
    for g, f, gf in p["compose"]:
        try:
            key = (ids[g], ids[f])
            compose[key] = ids[gf]
        except KeyError:
            raise LoadError(f"compose entry ({g!r}, {f!r}) dangling") from None
    terminal = p.get("terminal")
    if terminal is not None:
        try:
            terminal = objs[terminal]
        except KeyError:
            raise LoadError(f"terminal {terminal!r} not an object") from None
    partial = p.get("partial", False)
    if type(partial) is not bool:
        raise LoadError(f"partial is {partial!r}, not a boolean")
    return FinCat(
        objects=frozenset(objs),
        arrows=arrows,
        identity=identity,
        compose=compose,
        terminal=terminal,
        partial=partial,
    )


def _id_maps(cat: FinCat) -> tuple[dict[str, str], dict[str, str]]:
    """Each object id and each arrow id of cat, mapped to itself."""
    return dict(zip(cat.objects, cat.objects)), dict(zip(cat.arrows, cat.arrows))


# ---------------------------------------------------------------------------
# trees and frames


def tree_payload(t: RootedTree) -> dict:
    return {
        "height": t.height,
        "levels": [sorted(l) for l in t.levels],
        "parent": list(t.parent),
    }


def tree_load(p: dict) -> RootedTree:
    for n, l in enumerate(p["levels"]):
        _strs(l, "element {!r} of tree level {}", n)
    levels = tuple(frozenset(l) for l in p["levels"])
    parent = tuple(dict(m) for m in p["parent"])
    for n, pm in enumerate(parent):
        for node, par in pm.items():
            if node not in levels[n + 1] or par not in levels[n]:
                raise LoadError(f"parent entry {node!r} -> {par!r} dangling")
    return RootedTree(height=_int(p["height"], "tree height"), levels=levels, parent=parent)


def bframe_payload(b: BFrame) -> dict:
    return {
        "height": b.height,
        "B": [sorted(s) for s in b.B],
        "Bt": [sorted(s) for s in b.Bt[1:]],
        "ft": list(b.ft[1:]),
        "bd": list(b.bd[1:]),
    }


def bframe_load(p: dict) -> BFrame:
    height = _int(p["height"], "frame height")
    for name, base in (("B", 0), ("Bt", 1)):
        for k, s in enumerate(p[name], base):
            _strs(s, "element {!r} of {}[{}]", name, k)
    B = tuple(frozenset(s) for s in p["B"])
    Bt = (frozenset(),) + tuple(frozenset(s) for s in p["Bt"])
    ft = ({},) + tuple(dict(m) for m in p["ft"])
    bd = ({},) + tuple(dict(m) for m in p["bd"])
    if len(B) != height + 1 or len(Bt) != height + 1:
        raise LoadError("level family arity mismatch")
    for k in range(1, height + 1):
        for x, v in ft[k].items():
            if x not in B[k] or v not in B[k - 1]:
                raise LoadError(f"ft entry {x!r} dangling at level {k}")
        for x, v in bd[k].items():
            if x not in Bt[k] or v not in B[k]:
                raise LoadError(f"bd entry {x!r} dangling at level {k}")
    return BFrame(height=height, B=B, Bt=Bt, ft=ft, bd=bd)


def _bhom_payload(h: BFrameHom) -> dict:
    return {
        "H": {str(n): m for n, m in h.H.items()},
        "Ht": {str(n): m for n, m in h.Ht.items()},
    }


def _bhom_load(p: dict, src: BFrame, tgt: BFrame, at: str) -> BFrameHom:
    return BFrameHom(
        source=src,
        target=tgt,
        H=_level_maps(p["H"], src.B, tgt.B, f"{at}: H"),
        Ht=_level_maps(p["Ht"], src.Bt, tgt.Bt, f"{at}: Ht"),
    )


def _level_maps(p: dict, srcs: tuple, tgts: tuple, at: str) -> dict[int, dict[str, str]]:
    """The level maps of p, each entry at level m checked to go from srcs[m] into tgts[m]."""
    out = {}
    for n, m in p.items():
        try:
            lvl = int(n)
        except ValueError:
            lvl = None
        if str(lvl) != n:
            raise LoadError(f"{at} level is {n!r}, not an integer")
        m = dict(m)
        src = srcs[lvl] if 0 <= lvl < len(srcs) else frozenset()
        tgt = tgts[lvl] if 0 <= lvl < len(tgts) else frozenset()
        if not (src.issuperset(m) and tgt.issuperset(m.values())):
            x = min(x for x, y in m.items() if x not in src or y not in tgt)
            raise LoadError(f"{at}[{lvl}] entry {x!r} -> {m[x]!r} dangling")
        out[lvl] = m
    return out


def bsystem_payload(b: BSystem) -> dict:
    return {
        "frame": bframe_payload(b.frame),
        "subst": [
            {"level": k, "element": x, "hom": _bhom_payload(h)}
            for (k, x), h in sorted(b.subst.items())
        ],
        "weak": [
            {"level": k, "element": x, "hom": _bhom_payload(h)}
            for (k, x), h in sorted(b.weak.items())
        ],
        "gen": [
            {"level": k, "element": x, "value": v}
            for (k, x), v in sorted(b.gen.items())
        ],
    }


def bsystem_load(p: dict) -> BSystem:
    frame = bframe_load(p["frame"])
    sys = BSystem(frame=frame)
    for rec in p["subst"]:
        k, x = rec["level"], rec["element"]
        _int(k, "level of substitution entry {!r}", x)
        at = f"substitution entry at ({k}, {x!r})"
        if not (1 <= k <= frame.height) or x not in frame.Bt[k]:
            raise LoadError(f"{at} dangling")
        bdx = frame.bd[k][x]
        src, tgt = slice_bframe(frame, k, bdx), slice_bframe(frame, k - 1, frame.ft[k][bdx])
        sys.subst[(k, x)] = _bhom_load(rec["hom"], src, tgt, at)
    for rec in p["weak"]:
        k, x = rec["level"], rec["element"]
        _int(k, "level of weakening entry {!r}", x)
        at = f"weakening entry at ({k}, {x!r})"
        if not (1 <= k <= frame.height) or x not in frame.B[k]:
            raise LoadError(f"{at} dangling")
        src, tgt = slice_bframe(frame, k - 1, frame.ft[k][x]), slice_bframe(frame, k, x)
        sys.weak[(k, x)] = _bhom_load(rec["hom"], src, tgt, at)
    for rec in p["gen"]:
        k, x, v = rec["level"], rec["element"], rec["value"]
        _int(k, "level of generic element {!r}", x)
        if not (1 <= k < frame.height) or x not in frame.B[k] or v not in frame.Bt[k + 1]:
            raise LoadError(f"generic element at ({k}, {x!r}) dangling")
        sys.gen[(k, x)] = v
    return sys


# ---------------------------------------------------------------------------
# E-systems


def _sfunctor_payload(sf: SliceFunctorT) -> dict:
    return {
        "source_apex": sf.source_apex,
        "target_apex": sf.target_apex,
        "obj": sf.obj_map,
        "mor": [[h, f, g, img] for (h, f, g), img in sorted(sf.mor_map.items())],
        "term": [[h, f, g, tm] for (h, f, g), tm in sorted(sf.term_map.items())],
    }


def _sfunctor_load(p: dict, objs: dict[str, str], ids: dict[str, str]) -> SliceFunctorT:
    """The slice functor of p; ``objs`` and ``ids`` are ``_id_maps`` of its category."""
    apex = {}
    for end in ("source_apex", "target_apex"):
        x = p[end]
        try:
            apex[end] = objs[x]
        except KeyError:
            raise LoadError(f"slice functor {end} {x!r} not an object") from None
    sf = SliceFunctorT(**apex)
    obj_map, mor_map = sf.obj_map, sf.mor_map
    for x, y in p["obj"].items():
        try:
            a = ids[x]
            obj_map[a] = ids[y]
        except KeyError:
            raise LoadError(f"slice functor object entry {x!r} dangling") from None
    for h, f, g, img in p["mor"]:
        try:
            key = (ids[h], ids[f], ids[g])
            mor_map[key] = ids[img]
        except KeyError as exc:
            raise LoadError(f"slice functor morphism entry {exc.args[0]!r} dangling") from None
    get = ids.get
    for h, f, g, tm in p["term"]:
        try:
            key = (ids[h], ids[f], ids[g])
        except KeyError:
            # a part that is no id is kept as read, and must be a string
            key = (get(h, h), get(f, f), get(g, g))
            if not {str}.issuperset(map(type, key)):
                raise LoadError(f"slice functor term entry at {key!r} is not keyed by strings") from None
        tm = sf.term_map[key] = dict(tm)
        # keys come from JSON object keys, which are always strings
        if not {str}.issuperset(map(type, tm.values())):
            bad = next(t for t in tm.values() if type(t) is not str)
            raise LoadError(f"slice functor term {bad!r} at {(h, f, g)!r} is not a string")
    return sf


def esystem_payload(e: ESystem) -> dict:
    return {
        "cat": fincat_payload(e.cat),
        "terms": {a: sorted(ts) for a, ts in sorted(e.tc.terms.items())},
        "subst": [
            {"arrow": a, "term": t, "functor": _sfunctor_payload(sf)}
            for (a, t), sf in sorted(e.subst.items())
        ],
        "weak": [
            {"arrow": a, "functor": _sfunctor_payload(sf)}
            for a, sf in sorted(e.weak.items())
        ],
        "proj": e.proj,
        "levels": e.levels,
    }


def esystem_load(p: dict) -> ESystem:
    cat = fincat_load(p["cat"])
    objs, ids = _id_maps(cat)
    terms = {}
    for a, ts in p["terms"].items():
        try:
            a = ids[a]
        except KeyError:
            raise LoadError(f"term set on dangling arrow {a!r}") from None
        _strs(ts, "term {!r} on arrow {!r}", a)
        terms[a] = frozenset(ts)
    e = ESystem(tc=TermCat(cat=cat, terms=terms))
    for rec in p["subst"]:
        a, t = rec["arrow"], rec["term"]
        arrow = ids.get(a)
        if arrow is None or t not in terms.get(arrow, frozenset()):
            raise LoadError(f"substitution functor at ({a!r}, {t!r}) dangling")
        e.subst[(arrow, t)] = _sfunctor_load(rec["functor"], objs, ids)
    for rec in p["weak"]:
        a = rec["arrow"]
        try:
            a = ids[a]
        except KeyError:
            raise LoadError(f"weakening functor at {a!r} dangling") from None
        e.weak[a] = _sfunctor_load(rec["functor"], objs, ids)
    for a, t in p["proj"].items():
        try:
            a = ids[a]
        except KeyError:
            raise LoadError(f"identity term at {a!r} dangling") from None
        if type(t) is not str:
            raise LoadError(f"identity term {t!r} at {a!r} is not a string")
        e.proj[a] = t
    if p.get("levels") is not None:
        e.levels = {objs.get(x, x): _int(v, "level of object {!r}", x) for x, v in p["levels"].items()}
        if e.levels.keys() != cat.objects:
            raise LoadError("levels do not name exactly the objects of the category")
    return e


# ---------------------------------------------------------------------------
# C- and CE-systems


def csystem_payload(c: CSystem) -> dict:
    return {
        "cat": fincat_payload(c.cat),
        "one": c.one,
        "length": c.length,
        "ft": c.ft,
        "proj": c.proj,
        "pb": [[f, g, ob, q] for (f, g), (ob, q) in sorted(c.pb.items())],
    }


def csystem_load(p: dict) -> CSystem:
    cat = fincat_load(p["cat"])
    objs, ids = _id_maps(cat)
    length = {}
    for x, v in p["length"].items():
        try:
            length[objs[x]] = _int(v, "length of object {!r}", x)
        except KeyError:
            raise LoadError(f"length entry {x!r} dangling") from None
    ft = {}
    for x, v in p["ft"].items():
        try:
            x = objs[x]
            ft[x] = objs[v]
        except KeyError:
            raise LoadError(f"ft entry {x!r} dangling") from None
    proj = {}
    for x, v in p["proj"].items():
        try:
            x = objs[x]
            proj[x] = ids[v]
        except KeyError:
            raise LoadError(f"projection entry {x!r} dangling") from None
    pb = {}
    for f, g, ob, q in p["pb"]:
        try:
            key = (ids[f], objs[g])
            pb[key] = (objs[ob], ids[q])
        except KeyError:
            raise LoadError(f"pullback entry ({f!r}, {g!r}) dangling") from None
    one = p["one"]
    if type(one) is not str:
        raise LoadError(f"one is {one!r}, not a string")
    return CSystem(
        cat=cat,
        one=one,
        length=length,
        ft=ft,
        proj=proj,
        pb=pb,
    )


def cesystem_payload(a: CESystem) -> dict:
    return {
        "fam": fincat_payload(a.fam),
        "base": fincat_payload(a.base),
        "ifun": a.ifun,
        "root": a.root,
        "pb": [[f, A, fA, pi2] for (f, A), (fA, pi2) in sorted(a.pb.items())],
    }


def cesystem_load(p: dict) -> CESystem:
    fam = fincat_load(p["fam"])
    base = fincat_load(p["base"])
    fam_objs, fam_ids = _id_maps(fam)
    base_ids = _id_maps(base)[1]
    ifun = {}
    for c, v in p["ifun"].items():
        try:
            a = fam_ids[c]
            ifun[a] = base_ids[v]
        except KeyError:
            raise LoadError(f"ifun entry {c!r} dangling") from None
    root = p["root"]
    try:
        root = fam_objs[root]
    except KeyError:
        raise LoadError(f"root {root!r} not an object") from None
    pb = {}
    for f, A, fA, pi2 in p["pb"]:
        try:
            key = (base_ids[f], fam_ids[A])
            pb[key] = (fam_ids[fA], base_ids[pi2])
        except KeyError:
            raise LoadError(f"pullback entry ({f!r}, {A!r}) dangling") from None
    return CESystem(fam=fam, base=base, ifun=ifun, root=root, pb=pb)


# ---------------------------------------------------------------------------
# signatures


def signature_payload(sig: BindingSignature) -> dict:
    def formers(fs):
        return [
            {"name": f.name, "args": [[a.sort, a.binders] for a in f.args]}
            for f in fs
        ]

    return {"types": formers(sig.type_formers), "terms": formers(sig.term_formers)}


def signature_load(p: dict) -> BindingSignature:
    def formers(recs):
        out = []
        for rec in recs:
            name = rec["name"]
            if type(name) is not str:
                raise LoadError(f"former name {name!r} is not a string")
            args = tuple(
                FormerArg(sort=s, binders=_int(k, "binder count of former {!r}", name)) for s, k in rec["args"]
            )
            for a in args:
                if a.sort not in ("ty", "tm"):
                    raise LoadError(f"bad sort {a.sort!r}")
            out.append(Former(name=name, args=args))
        return tuple(out)

    return BindingSignature(type_formers=formers(p["types"]), term_formers=formers(p["terms"]))


# ---------------------------------------------------------------------------
# documents

_SAVERS = {
    RootedTree: ("tree", tree_payload),
    BFrame: ("bframe", bframe_payload),
    BSystem: ("bsystem", bsystem_payload),
    ESystem: ("esystem", esystem_payload),
    CSystem: ("csystem", csystem_payload),
    CESystem: ("cesystem", cesystem_payload),
    BindingSignature: ("signature", signature_payload),
}

_LOADERS = {
    "tree": tree_load,
    "bframe": bframe_load,
    "bsystem": bsystem_load,
    "esystem": esystem_load,
    "csystem": csystem_load,
    "cesystem": cesystem_load,
    "signature": signature_load,
}


def save_structure(obj: Any) -> str:
    for typ, (kind, payload) in _SAVERS.items():
        if isinstance(obj, typ):
            return dumps({"kind": kind, "version": VERSION, "payload": payload(obj)})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_structure(text: str, expect_kind: str | None = None):
    """The kind and the structure of the document ``text``; LoadError if it does not load.

    orjson parses the text, and its tree is kept only when the whole load
    succeeds. If orjson raises JSONDecodeError, or the load raises
    LoadError, the text is parsed again by ``json.loads`` and loaded from
    that tree, so every failure reports json's line and column or the
    loaders' message on json's tree, as it did before orjson read.
    json's RecursionError, at nesting past the interpreter's limit, is
    reported on one line too.

    A load that succeeds from orjson's tree builds what json's tree would.
    orjson (3.8.3) accepts only RFC 8259 JSON, which json accepts too,
    nesting past json's limit aside; it rejects what json alone accepts
    (NaN, Infinity, 1e400, lone surrogates). On text both accept, the
    trees are equal, with exact types and key order (a duplicate key
    keeps its first place and its last value), except that orjson reads
    an int outside [-2**63, 2**64 - 1] as a float. No such float reaches
    a structure: each scalar the load reads is checked to be exactly a
    ``str`` (ids, elements, terms, names) or an ``int`` or ``bool``
    (levels, heights, lengths, binder counts, ``version``, ``partial``),
    or is looked up among strings so checked, or is compared with a
    string (a sort, the kind). A float is neither type and equals no
    string, so it fails the load wherever it is read, and the text is
    loaded again by json; where nothing reads it, it is in no structure.
    The one input that loads here and not by json alone is a document
    json cannot parse for its nesting, nested deep only where nothing
    reads it.
    """
    # imported on first use, so the validators called in-process never pay its 1 MB of memory
    import orjson

    try:
        return _load(orjson.loads(text), expect_kind)
    except (orjson.JSONDecodeError, LoadError):
        pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise LoadError("parse error: the document is nested too deeply") from None
    return _load(doc, expect_kind)


def _load(doc: Any, expect_kind: str | None):
    """The kind and the structure of a parsed document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise LoadError("document has no kind tag")
    kind = doc["kind"]
    version = doc.get("version")
    if version != VERSION or type(version) is not int:
        raise LoadError(f"unsupported version {version!r}")
    if expect_kind is not None and kind != expect_kind:
        raise LoadError(f"expected kind {expect_kind!r}, found {kind!r}")
    loader = _LOADERS.get(kind) if type(kind) is str else None
    if loader is None:
        raise LoadError(f"unknown kind {kind!r}")
    try:
        return kind, loader(doc["payload"])
    except LoadError:
        raise
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise LoadError(f"malformed {kind} payload: {type(exc).__name__}: {exc}") from None
