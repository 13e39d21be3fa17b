"""``tools/bench_pairs.py``'s summary of paired benchmark runs: a claimed
gain on a metric is met only when the new tree wins at least 9 of 10 pairs
and its median is better by more than the old tree's quartile distance."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower"}]
OLD = [100.0 + k for k in range(10)]  # median 104.5, quartiles 102.25 and 106.75


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.summarize


def _pairs(old, new):
    return [{"old": {"metrics": {"ops_per_s": a, "op_p50_ms": a}},
             "new": {"metrics": {"ops_per_s": b, "op_p50_ms": b}}} for a, b in zip(old, new)]


def test_records_the_old_spread(summarize):
    m = summarize(_pairs(OLD, OLD), METRICS)["ops_per_s"]
    assert (m["old_median"], m["old_quartiles"]) == (104.5, [102.25, 106.75])
    assert m["old_spread"] == pytest.approx(4.5 / 104.5)
    assert (m["new_won"], m["claim"]) == (0, "unresolved")


@pytest.mark.parametrize("shift, losses, claim", [
    (10.0, 0, "met"),
    (10.0, 1, "met"),  # 9 of 10 pairs
    (10.0, 2, "unresolved"),  # 8 of 10 pairs
    (4.0, 0, "unresolved"),  # every pair won, but inside the old quartiles
])
def test_claim_needs_nine_wins_and_a_gap_beyond_the_quartiles(summarize, shift, losses,
                                                              claim):
    new = [a - 1.0 if k < losses else a + shift for k, a in enumerate(OLD)]
    up = summarize(_pairs(OLD, new), METRICS)
    assert (up["ops_per_s"]["new_won"], up["ops_per_s"]["claim"]) == (10 - losses, claim)
    # the same values on a metric where lower is better lose every such pair
    assert (up["op_p50_ms"]["new_won"], up["op_p50_ms"]["claim"]) == (losses, "unresolved")
    down = summarize(_pairs(OLD, [2.0 * a - b for a, b in zip(OLD, new)]), METRICS)
    assert (down["op_p50_ms"]["new_won"], down["op_p50_ms"]["claim"]) == (10 - losses, claim)
