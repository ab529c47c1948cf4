"""The example builders against the bodies they replaced.

Each builder makes every name, term and expression once per call. Its
output must be the old one exactly: the same tables, with the same keys
in the same insertion order and the same values, so every document and
report it feeds is byte-identical. ``assert_same`` compares two
structures that way, field by field and table by table.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from collections import Counter

import pytest

from bcsys import cesys, esys
from bcsys.bsys import build_finset_bsystem
from bcsys.cesys import _finsets_op, build_finset_cesystem
from bcsys.esys import build_group_structure, build_nat_esystem, s3_table
from bcsys.syntax import build_syntactic_bframe, parse_signature
from bcsys.xlate import b_to_e, ce_to_e

from helpers import finsets_op_cat
from reference import (
    build_finset_cesystem_reference,
    build_group_structure_reference,
    build_nat_esystem_reference,
    build_syntactic_bframe_reference,
)
from test_syntax import LAM_APP, SYNTACTIC_PINS

_ATOMS = (str, int, type(None))


def assert_same(a, b, where: str = "", seen: set | None = None) -> None:
    """a and b have equal atoms, and every dict and set of theirs lists
    the same entries in the same order; fields outside equality (caches)
    are not compared, and a pair of objects is compared once."""
    seen = set() if seen is None else seen
    if isinstance(a, _ATOMS) or (isinstance(a, tuple) and all(isinstance(x, _ATOMS) for x in a)):
        assert a == b, where
        return
    assert type(a) is type(b), where
    if (id(a), id(b)) in seen:
        return
    seen.add((id(a), id(b)))
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}", seen)
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        values = list(a.values())
        if all(isinstance(v, _ATOMS) for v in values):
            assert values == list(b.values()), where
            return
        for k, v in a.items():
            assert_same(v, b[k], f"{where}[{k!r}]", seen)
    elif isinstance(a, (frozenset, set)):
        assert list(a) == list(b), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]", seen)
    else:
        assert a == b, where


def cyclic_table(n: int) -> tuple[list[str], dict[tuple[str, str], str], str]:
    elements = [f"c{i}" for i in range(n)]
    mult = {(f"c{i}", f"c{j}"): f"c{(i + j) % n}" for i in range(n) for j in range(n)}
    return elements, mult, "c0"


@pytest.mark.parametrize("height", range(9))
def test_nat_esystem_matches_reference(height):
    assert_same(build_nat_esystem(height), build_nat_esystem_reference(height))


@pytest.mark.parametrize("table", [s3_table, lambda: cyclic_table(4)], ids=["s3", "c4"])
def test_group_structure_matches_reference(table):
    assert_same(build_group_structure(*table()), build_group_structure_reference(*table()))


@pytest.mark.parametrize("height", range(5))
def test_finset_cesystem_matches_reference(height):
    assert_same(_finsets_op(height)[0], finsets_op_cat(height))
    assert_same(build_finset_cesystem(height), build_finset_cesystem_reference(height))


SIGNATURES = [(text, height) for text, height in SYNTACTIC_PINS]
SIGNATURES += [
    ("type U; type El(tm); type Pi(ty, tm^1.ty); term lam(ty, tm^1.tm)", 2),
    (LAM_APP, 3),
]


@pytest.mark.parametrize("text, height", SIGNATURES)
def test_syntactic_bframe_matches_reference(text, height):
    sig = parse_signature(text)
    assert_same(build_syntactic_bframe(sig, height, 2), build_syntactic_bframe_reference(sig, height, 2))


def counting(monkeypatch, module, name: str) -> Counter:
    """Count the arguments of every call of ``module.name`` from now on."""
    calls: Counter = Counter()
    fn = getattr(module, name)

    def counted(*args):
        calls[args] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_finset_cesystem_formats_each_name_once(monkeypatch):
    calls = counting(monkeypatch, cesys, "fn_arrow")
    a = build_finset_cesystem(3)
    assert sum(calls.values()) == len(a.base.arrows) == len(calls)


def test_nat_esystem_formats_each_term_once(monkeypatch):
    calls = counting(monkeypatch, esys, "fn_term")
    e = build_nat_esystem(6)
    distinct = set().union(*e.terms.values())
    assert sum(calls.values()) == len(distinct) == len(calls)
    # and every table holds the one string of each term
    made = {id(t) for t in distinct}
    for sf in itertools.chain(e.subst.values(), e.weak.values()):
        for table in sf.term_map.values():
            assert all(id(u) in made for u in table.values())
    assert all(id(t) in made for t in e.proj.values())


def test_group_structure_tables_are_not_shared():
    e = build_group_structure(*s3_table())
    fresh = build_group_structure(*s3_table())
    key = next(iter(e.subst))
    mor = next(iter(e.subst[key].term_map))
    aid = next(iter(e.subst[key].term_map[mor]))
    e.subst[key].term_map[mor][aid] = "damaged"
    changed = [
        (name, k, m)
        for name in ("subst", "weak")
        for k, sf in getattr(e, name).items()
        for m, terms in sf.term_map.items()
        if terms != getattr(fresh, name)[k].term_map[m]
    ]
    assert changed == [("subst", key, mor)]


def term_tables(e) -> list[tuple[str, object, tuple, dict]]:
    """(table, key, morphism, term table) of every functor of e."""
    return [
        (name, k, m, terms)
        for name in ("subst", "weak")
        for k, sf in getattr(e, name).items()
        for m, terms in sf.term_map.items()
    ]


PRODUCERS = {
    "b_to_e": lambda: b_to_e(build_finset_bsystem(5)),
    "nat-e": lambda: build_nat_esystem(5),
    "ce_to_e": lambda: ce_to_e(build_finset_cesystem(3)),
}


@pytest.mark.parametrize("deep", [False, True], ids=["built", "deepcopy"])
@pytest.mark.parametrize("kind", sorted(PRODUCERS))
def test_term_tables_are_not_shared(kind, deep):
    """Each functor holds its own term tables, also where a producer
    built one table for several functors: writing into the first holder
    of a table or into a later one changes no other functor, and so on a
    deep copy, which keeps any sharing there is."""
    fresh = term_tables(PRODUCERS[kind]())
    tables = term_tables(PRODUCERS[kind]())
    assert len({id(terms) for *_, terms in tables}) == len(tables)
    holders: dict[tuple, list[int]] = {}
    for i, (*_, terms) in enumerate(tables):
        if terms:
            holders.setdefault(tuple(terms.items()), []).append(i)
    shared = [held for held in holders.values() if len(held) > 1]
    assert shared or kind == "ce_to_e"
    for i in shared[0] if shared else next(iter(holders.values())):
        e = PRODUCERS[kind]()
        if deep:
            e = copy.deepcopy(e)
        tables = term_tables(e)
        terms = tables[i][3]
        terms[next(iter(terms))] = "damaged"
        changed = [j for j, (*_, terms) in enumerate(tables) if terms != fresh[j][3]]
        assert changed == [i]
