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


def test_enter_does_not_register_a_law_with_no_instance():
    rep = Report()
    rep.enter("law", 0, 0, [])
    assert rep.laws == {}


def test_enter_registers_skips_with_nothing_checked():
    rep = Report()
    rep.enter("law", 0, 2, [])
    assert _state(rep) == [("law", 0, 2, None, [])]
    assert rep.format() == "PASS law (checked 0, skipped 2)"


def test_enter_fails_each_witness_in_the_order_given():
    rep = Report()
    rep.enter("law", 3, 1, [(("b", 1), "late"), (("a", 0), "")])
    assert _state(rep) == [("law", 3, 1, None, [("law", ("b", 1), "late"), ("law", ("a", 0), "")])]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), witness_lists), max_size=4))
def test_enter_equals_tick_and_skip_where_either_is_nonzero_then_fail(tallies):
    old, new = Report(), Report()
    for checked, skipped, bad in tallies:
        failures = [(w, "d") for w in bad]
        if checked or skipped:
            old.tick("law", checked)
            old.skip("law", skipped)
        for w, detail in failures:
            old.fail("law", w, detail)
        new.enter("law", checked, skipped, failures)
    assert _state(new) == _state(old)


def test_merge_carries_a_missing_reason_into_a_law_that_has_none():
    mine, other = Report(), Report()
    mine.tick("cat:terminal", 2)
    other.miss("terminal", "no chosen terminal object")
    mine.merge(other, prefix="cat:")
    res = mine.laws["cat:terminal"]
    assert (res.checked, res.missing) == (2, "no chosen terminal object")
    assert mine.format() == "MISSING cat:terminal: no chosen terminal object"


def test_merge_keeps_the_missing_reason_a_law_already_has():
    mine, other = Report(), Report()
    mine.miss("law", "first")
    other.miss("law", "second")
    mine.merge(other)
    assert mine.laws["law"].missing == "first"
