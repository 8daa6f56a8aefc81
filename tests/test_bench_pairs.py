"""``tools/bench_pairs.py`` summarises pairs of benchmark result lines.

Canned result lines only: nothing here runs the benchmark.
"""

import json

from script_module import load_script

bench_pairs = load_script("bench_pairs", "tools/bench_pairs.py")

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "rate", "unit": "op/s", "better": "higher", "bound": 0.1},
]


def _line(wall, rate, failed=0):
    """One result line as ``perfbench/run.py`` prints it last."""
    return json.loads(
        json.dumps(
            {
                "correct": True,
                "attempted": 5,
                "failed": failed,
                "metrics": {
                    "wall_s": {"value": wall, "unit": "s"},
                    "rate": {"value": rate, "unit": "op/s"},
                },
            }
        )
    )


def test_summary_counts_wins_in_each_direction_and_ties_for_neither():
    pairs = [
        (_line(1.0, 10.0), _line(0.9, 11.0)),  # this better in both
        (_line(1.0, 10.0), _line(1.0, 10.0)),  # a tie in both
        (_line(1.2, 12.0), _line(1.3, 11.0, failed=1)),  # the revision better in both
        (_line(1.1, 9.0), _line(1.0, 9.5)),  # this better in both
        (_line(0.8, 8.0), _line(0.7, 9.0)),  # this better in both
    ]
    lines = bench_pairs.summarize(pairs, METRICS, "abc123")
    assert lines == [
        "  wall_s        abc123: 1 [1, 1.1]  this: 1 [0.9, 1]  this better in 3/5 s",
        "  rate          abc123: 10 [9, 10]  this: 10 [9.5, 11]  this better in 3/5 op/s",
        "  failed ops    abc123: 0/25  this: 1/25",
    ]


def test_summary_of_one_pair_prints_its_values():
    lines = bench_pairs.summarize([(_line(2.0, 5.0), _line(2.0, 5.0))], METRICS[:1], "r")
    assert lines == [
        "  wall_s        r: 2  this: 2  this better in 0/1 s",
        "  failed ops    r: 0/5  this: 0/5",
    ]


def test_default_run_seconds_and_metrics_come_from_the_benchmark():
    assert bench_pairs.BENCHMARK["run_seconds"] > 0
    names = [metric["name"] for metric in bench_pairs.BENCHMARK["end_to_end"]]
    assert "wall_s" in names and "peak_rss_mib" in names


def _pairs(befores, afters):
    return [(_line(b, 1.0), _line(a, 1.0)) for b, a in zip(befores, afters)]


def test_gain_rule_holds_with_nine_wins_and_a_gap_beyond_the_spread():
    befores = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]
    afters = [0.80] * 9 + [1.05]  # the last pair lost
    lines = bench_pairs.judge(_pairs(befores, afters), METRICS[:1])
    assert lines == [
        "  wall_s        gain rule holds (9/10 better, median gap 0.2 against IQR 0.015)  "
        "within bound 0.24 (this worse by -20.00%)"
    ]


def test_gain_rule_fails_on_eight_wins_or_a_gap_inside_the_spread():
    befores = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    eight = bench_pairs.judge(_pairs(befores, [0.5] * 8 + [2.0, 2.0]), METRICS[:1])
    assert eight[0].startswith("  wall_s        gain rule fails (8/10 better, median gap 0.5 ")
    # Ten wins, but the medians differ by 0.1 and the quartiles by 0.15.
    narrow = bench_pairs.judge(_pairs(befores, [b - 0.1 for b in befores]), METRICS[:1])
    assert narrow[0].startswith("  wall_s        gain rule fails (10/10 better, median gap 0.1 ")
    assert "against IQR 0.15)" in narrow[0]


def test_bound_is_a_fraction_of_the_revision_median_in_the_worse_direction():
    # wall_s: lower is better, bound 0.24; rate: higher is better, bound 0.1.
    within = [(_line(1.0, 10.0), _line(1.2, 9.5))] * 3
    beyond = [(_line(1.0, 10.0), _line(1.25, 8.5))] * 3
    assert [line.split("  ")[-1] for line in bench_pairs.judge(within, METRICS)] == [
        "within bound 0.24 (this worse by +20.00%)",
        "within bound 0.1 (this worse by +5.00%)",
    ]
    assert [line.split("  ")[-1] for line in bench_pairs.judge(beyond, METRICS)] == [
        "BEYOND bound 0.24 (this worse by +25.00%)",
        "BEYOND bound 0.1 (this worse by +15.00%)",
    ]


def test_one_pair_has_no_spread():
    lines = bench_pairs.judge([(_line(2.0, 5.0), _line(1.0, 6.0))], METRICS)
    assert lines[0].startswith("  wall_s        gain rule holds (1/1 better, median gap 1 against IQR 0)")
    assert lines[1].startswith("  rate          gain rule holds (1/1 better, median gap 1 against IQR 0)")
