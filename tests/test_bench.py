"""tools/bench.py's summary rule, on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def spread(center, width, n=10):
    """n values evenly spread over center +/- width, the even-indexed ones first."""
    values = [center - width + 2.0 * width * i / (n - 1) for i in range(n)]
    return values[::2] + values[1::2]


def test_ten_of_ten_pairs_far_apart_resolve_better():
    base, change = spread(20.0, 0.5), spread(17.0, 0.5)
    s = bench.summarize(base, change, "lower")
    assert (s["pairs_won"], s["pairs_lost"]) == (10, 0)
    assert s["resolved"] and s["verdict"] == "better"
    assert s["base_median"] == pytest.approx(20.0) and s["ratio"] == pytest.approx(0.85)
    assert s["base_quartiles"][0] < 20.0 < s["base_quartiles"][1]


def test_nine_of_ten_resolve_and_eight_do_not():
    base = spread(20.0, 0.5)
    nine = [b - 3.0 for b in base[:9]] + [base[9] + 0.1]
    eight = [b - 3.0 for b in base[:8]] + [b + 0.1 for b in base[8:]]
    s9, s8 = bench.summarize(base, nine, "lower"), bench.summarize(base, eight, "lower")
    assert (s9["pairs_won"], s9["resolved"], s9["verdict"]) == (9, True, "better")
    assert (s8["pairs_won"], s8["resolved"], s8["verdict"]) == (8, False, None)


def test_pairs_won_with_medians_inside_the_spread_do_not_resolve():
    # every pair won by 0.2, but each side's quartiles are about 2.5 apart
    base = spread(20.0, 5.0)
    s = bench.summarize(base, [b - 0.2 for b in base], "lower")
    assert s["pairs_won"] == 10 and not s["resolved"] and s["verdict"] is None


def test_worse_and_higher_is_better():
    base, slow = spread(100.0, 1.0), spread(80.0, 1.0)
    assert bench.summarize(base, slow, "higher")["verdict"] == "worse"
    assert bench.summarize(slow, base, "higher")["verdict"] == "better"
    s = bench.summarize(spread(20.0, 0.5), spread(25.0, 0.5), "lower")
    assert (s["pairs_won"], s["pairs_lost"], s["verdict"]) == (0, 10, "worse")


def test_ties_count_for_neither_side():
    base = spread(20.0, 0.5)
    change = [b - 3.0 for b in base[:9]] + [base[9]]
    s = bench.summarize(base, change, "lower")
    assert (s["pairs_won"], s["pairs_lost"], s["resolved"]) == (9, 0, True)


def test_fewer_than_ten_pairs_never_resolve():
    s = bench.summarize([20.0] * 9, [10.0] * 9, "lower")
    assert s["pairs_won"] == 9 and not s["resolved"]
    one = bench.summarize([20.0], [10.0], "lower")
    assert one["base_quartiles"] == [20.0, 20.0] and not one["resolved"]
    with pytest.raises(ValueError):
        bench.summarize([1.0, 2.0], [1.0], "lower")


def test_a_tree_without_the_digest_script_has_no_digests(tmp_path):
    assert bench.tree_digests(tmp_path) is None
