"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_summary_counts_wins_and_compares_with_the_parent_spread():
    parent = [54.6, 54.5, 54.7, 54.6, 54.4]
    change = [39.5, 39.4, 54.7, 39.6, 39.5]  # pair 3 is a tie: no win
    walls = [(0.80, 0.82), (0.81, 0.79), (0.79, 0.80), (0.85, 0.80), (0.80, 0.80)]
    pairs = [({"peak_rss_mb": p, "wall_s": pw, "share_done": 0.5},
              {"peak_rss_mb": c, "wall_s": cw, "share_done": 0.6 if i else 0.5})
             for i, (p, c, (pw, cw)) in enumerate(zip(parent, change, walls))]
    out = bench_pairs.summarize(pairs, {"peak_rss_mb": "lower", "wall_s": "lower", "share_done": "higher"})

    rss = out["peak_rss_mb"]
    assert rss["parent"] == pytest.approx((54.5, 54.6, 54.6))
    assert rss["change"] == pytest.approx((39.5, 39.5, 39.6))
    assert (rss["wins"], rss["pairs"], rss["share"]) == (4, 5, 0.8)
    assert rss["beyond_spread"]  # 15.1 MB against a spread of 0.1 MB

    wall = out["wall_s"]
    assert wall["wins"] == 2  # pairs 2 and 4; pair 5 ties
    assert wall["parent"] == pytest.approx((0.80, 0.80, 0.81))
    assert wall["change"] == pytest.approx((0.80, 0.80, 0.80))
    assert not wall["beyond_spread"]  # equal medians

    higher = out["share_done"]  # higher is better: pairs 2-5 win
    assert higher["wins"] == 4 and higher["beyond_spread"]
