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
