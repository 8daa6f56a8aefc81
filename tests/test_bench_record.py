"""``tools/bench_record.py`` summarises a results file as the benchmark does.

The end-to-end medians it records must be the ones ``perfbench/run.py``
reported for the same run, and its quartiles must come from the same scaled
samples.
"""

import pytest

from script_module import load_script

bench_record = load_script("bench_record", "tools/bench_record.py")
machine = bench_record.machine


def _detail(walls, cals, probes, bares, reported_wall, reported_setup):
    return {
        "round_walls_s": walls,
        "round_calibration_s": cals,
        "probe_s": probes,
        "bare_spawn_s": bares,
        "result": {
            "metrics": {
                "wall_s": {"value": reported_wall, "unit": "s"},
                "cpu_s": {"value": 1.25, "unit": "s"},
                "peak_rss_mib": {"value": 50.5, "unit": "MiB"},
                "setup_s": {"value": reported_setup, "unit": "s"},
            }
        },
    }


def test_end_to_end_scales_timed_rounds_and_probes():
    ref, spawn = machine.CALIBRATION_REF_S, machine.SPAWN_REF_S
    # Warm-up round first; the four timed rounds scale to 1, 2, 3 and 4 s.
    walls = [[9.0, 9.0], [0.25, 0.25], [0.5, 0.5], [0.75, 0.75], [1.0, 1.0]]
    cals = [[1.0, 1.0]] + [[ref / 2.0, ref / 2.0]] * 4
    probes, bares = [0.4, 0.2, 0.6], [spawn, spawn, spawn]
    got = bench_record.end_to_end(_detail(walls, cals, probes, bares, 2.5, 0.4))
    assert got["wall_s"] == {
        "median": pytest.approx(2.5), "q1": pytest.approx(1.75), "q3": pytest.approx(3.25),
        "samples": 4, "unit": "s",
    }
    assert got["setup_s"]["median"] == pytest.approx(0.4)
    assert got["setup_s"]["samples"] == 3
    assert got["cpu_s"] == {"median": 1.25, "unit": "s"}
    assert got["peak_rss_mib"] == {"value": 50.5, "unit": "MiB"}


def test_end_to_end_refuses_samples_that_miss_the_reported_median():
    walls = [[1.0], [1.0], [2.0], [3.0]]
    cals = [[machine.CALIBRATION_REF_S]] * 4
    detail = _detail(walls, cals, [0.2, 0.2], [machine.SPAWN_REF_S] * 2, 2.5, 0.2)
    with pytest.raises(RuntimeError, match="wall_s"):
        bench_record.end_to_end(detail)
