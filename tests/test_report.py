import hypothesis.strategies as st
from hypothesis import given

from bcsys.report import diff_maps, diff_tables

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
