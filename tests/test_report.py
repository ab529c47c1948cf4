import hypothesis.strategies as st
from hypothesis import given

from bcsys.report import Report, diff_maps, diff_tables

small_maps = st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 2), max_size=6)


def test_diff_maps_counts_shared_keys_and_skips_one_sided_keys():
    f = {"b": 1, "a": 2, "c": 3, "only-f": 0}
    g = {"c": 9, "a": 2, "b": 5, "only-g": 0}
    bad = [("earlier",)]
    assert diff_maps(f, g, ("tag", 7), bad) == (2, 3)
    # witnesses are appended in sorted key order as tag + (key, f, g)
    assert bad == [("earlier",), ("tag", 7, "b", 1, 5), ("tag", 7, "c", 3, 9)]


def test_diff_maps_counts_no_key_outside_both_maps():
    bad: list[tuple] = []
    assert diff_maps({}, {}, ("t",), bad) == (0, 0)
    assert diff_maps({"x": 1}, {}, ("t",), bad) == (1, 0)
    assert bad == []


def test_diff_tables_sums_counts_in_order():
    bad, skipped, checked = diff_tables(
        [({"k": 1}, {"k": 2}, ("first",)), ({"k": 1, "j": 0}, {"k": 3}, ("second",))]
    )
    assert (skipped, checked) == (1, 2)
    assert bad == [("first", "k", 1, 2), ("second", "k", 1, 3)]


@given(small_maps, small_maps)
def test_diff_maps_matches_a_loop_over_the_sorted_key_union(f, g):
    bad, skipped, checked = [], 0, 0
    for k in sorted(set(f) | set(g)):
        if k in f and k in g:
            checked += 1
            if f[k] != g[k]:
                bad.append(("t", k, f[k], g[k]))
        else:
            skipped += 1
    out: list[tuple] = []
    assert diff_maps(f, g, ("t",), out) == (skipped, checked)
    assert out == bad


witness_lists = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)), max_size=4)
diffs = st.tuples(witness_lists, st.integers(0, 5), st.integers(0, 5))


def _skip_and_fail(rep, name, diff, prefix=(), detail=""):
    """What every table comparison did before Report.record."""
    bad, skipped, _ = diff
    rep.skip(name, skipped)
    for w in bad:
        rep.fail(name, prefix + w, detail)


def _state(rep: Report) -> list:
    return [
        (name, r.checked, r.skipped, r.missing, [(v.law, v.witness, v.detail) for v in r.violations])
        for name, r in rep.laws.items()
    ]


record_calls = st.lists(
    st.tuples(st.sampled_from(["law", "other"]), diffs, st.tuples(st.integers(0, 2)), st.text(max_size=3))
)


@given(record_calls, st.integers(0, 3))
def test_record_equals_skip_then_fail_in_order(calls, ticks):
    old, new = Report(), Report()
    for rep in (old, new):
        rep.tick("law", ticks)
    for name, diff, prefix, detail in calls:
        _skip_and_fail(old, name, diff, prefix, detail)
        new.record(name, diff, prefix, detail)
    assert _state(new) == _state(old)
    assert new.format() == old.format()


@given(st.integers(0, 5))
def test_record_registers_the_law_on_an_empty_diff_and_never_ticks(checked):
    rep = Report()
    rep.record("law", ([], 0, checked))
    assert rep.format() == "PASS law (checked 0)"


def test_record_defaults_to_no_prefix_and_no_detail():
    rep = Report()
    rep.record("law", ([("a", 1), ("b", 2)], 3, 7))
    res = rep.laws["law"]
    assert (res.checked, res.skipped) == (0, 3)
    assert [(v.witness, v.detail) for v in res.violations] == [(("a", 1), ""), (("b", 2), "")]
