"""Sweeps: what the points share with the base scenario, and what they write.

A point whose source and grid equal the sweep's base scenario takes the
base's source fields, baseline and element transfers instead of computing its
own.  Every point must still write the bytes of the same point run alone.
"""

import filecmp
import json
import sys

import numpy as np
import pytest

from spdcsim import AliasRisk, DispersiveElement, FrequencyGrid, ScenarioError, dispersive_transfer
from spdcsim import runner
from spdcsim.scenario import parse_scenario, set_parameter


def sweep_doc(config, source, e0, e1, parameter, values, n_points=256):
    return {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": n_points, "delta_omega": 0.05},
        "source": source,
        "elements": [{"phase_coeffs": e0}, {"phase_coeffs": e1}],
        "sweep": {"parameter": parameter, "values": values},
    }


ANALYTIC = {"mode": "analytic", "envelope_bandwidth": 1.0}
PHYSICAL = {"mode": "physical", "gain": 0.6, "mismatch_coeffs": [0.5]}

SWEEPS = {
    # Element 0 equals the base's at every point; element 1 at the 2.0 point.
    "inter_element": sweep_doc(
        "inter_time", ANALYTIC, [0.0, 2.0], [0.0, 2.0],
        "elements.1.phase_coeffs.1", [-2.0, 0.0, 2.0, 1.0 / 3.0],
    ),
    "intra_element": sweep_doc(
        "intra_time", PHYSICAL, [0.0, 1.0, 0.4], [0.0, 1.0, 0.4],
        "elements.1.phase_coeffs.2", [0.4, -0.3, 0.9],
    ),
    # Both elements are shared; the 0.6 point also shares the source.
    "gain": sweep_doc(
        "inter_time", PHYSICAL, [0.0, 1.5], [0.0, -0.5], "source.gain", [0.2, 0.6, 1.1]
    ),
    # Nothing is shared: every point has its own grid.
    "grid": sweep_doc(
        "inter_time", ANALYTIC, [0.0, 0.5], [0.0, -0.2], "grid.n_points", [256, 512.0, 1024],
        n_points=128,
    ),
}


def single_point(scenario, value):
    doc = set_parameter(scenario.resolved(), scenario.sweep.parameter, value)
    doc["sweep"] = None
    return parse_scenario(doc)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_point_writes_the_bytes_of_its_single_run(name, tmp_path):
    scenario = parse_scenario(SWEEPS[name])
    report = runner.run_scenario(scenario, tmp_path / "sweep")
    points = report["results"]["points"]
    for i, value in enumerate(scenario.sweep.values):
        alone = runner.run_scenario(single_point(scenario, value), tmp_path / f"alone_{i}")
        assert (tmp_path / "sweep" / f"point_{i:04d}_trace.csv").read_bytes() == (
            tmp_path / f"alone_{i}" / "trace.csv"
        ).read_bytes()
        assert points[i] == {"value": value, **alone["results"]}


def test_integer_sweep_values_stay_integers(tmp_path):
    scenario = parse_scenario(SWEEPS["grid"])
    assert scenario.sweep.values == (256, 512, 1024)
    assert all(type(v) is int for v in scenario.sweep.values)
    runner.run_scenario(scenario, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert [p["value"] for p in report["results"]["points"]] == [256, 512, 1024]
    assert report["scenario"]["sweep"]["values"] == [256, 512, 1024]
    assert [line.split(",")[0] for line in (tmp_path / "sweep.csv").read_text().split()[1:]] == [
        "256", "512", "1024"
    ]
    assert parse_scenario(report) == scenario


@pytest.mark.parametrize("bad", [512.5, 1e-3])
def test_integer_sweep_leaf_refuses_fractional_values(bad):
    doc = SWEEPS["grid"]
    doc = {**doc, "sweep": {"parameter": "grid.n_points", "values": [256, bad]}}
    with pytest.raises(ScenarioError, match=r"scenario.sweep.values\[1\]: 'grid.n_points'"):
        parse_scenario(doc)


def count_calls(monkeypatch):
    calls = {"evaluate_source": 0, "baseline": 0}
    for name in calls:
        original = getattr(runner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_element_sweep_evaluates_source_and_baseline_once(workers, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch)
    runner.run_scenario(parse_scenario(SWEEPS["intra_element"]), tmp_path, workers=workers)
    assert calls == {"evaluate_source": 1, "baseline": 1}


@pytest.mark.parametrize("workers", [1, 2])
def test_gain_sweep_evaluates_source_and_baseline_per_point(workers, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch)
    scenario = parse_scenario(SWEEPS["gain"])
    runner.run_scenario(scenario, tmp_path, workers=workers)
    points = len(scenario.sweep.values)
    assert calls == {"evaluate_source": points, "baseline": points}


def test_shared_pieces_are_computed_once_under_thread_contention(monkeypatch, tmp_path):
    # More workers than cores and a short switch interval: two points racing
    # for the shared source or baseline would each compute it.
    doc = {**SWEEPS["inter_element"]}
    values = [0.1 * k for k in range(24)]
    doc["sweep"] = {"parameter": "elements.1.phase_coeffs.1", "values": values}
    calls = count_calls(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.run_scenario(parse_scenario(doc), tmp_path / "many", workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert calls == {"evaluate_source": 1, "baseline": 1}
    runner.run_scenario(parse_scenario(doc), tmp_path / "one", workers=1)
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert filecmp.cmpfiles(tmp_path / "one", tmp_path / "many", names, shallow=False)[0] == names


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_worker_count_does_not_change_the_output(name, tmp_path):
    scenario = parse_scenario(SWEEPS[name])
    report = runner.run_scenario(scenario, tmp_path / "one", workers=1)
    runner.run_scenario(scenario, tmp_path / "two", workers=2)
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "one", tmp_path / "two", report["files"], shallow=False
    )
    assert (mismatch, errors) == ([], [])
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == sorted(report["files"])


def test_points_without_trace_files_keep_only_their_analyses(monkeypatch, tmp_path):
    doc = {**SWEEPS["inter_element"], "outputs": {"write_trace": False}}
    kept = []
    write_point_files = runner._write_point_files

    def recording(outcome, *args):
        kept.append(outcome.result)
        return write_point_files(outcome, *args)

    monkeypatch.setattr(runner, "_write_point_files", recording)
    report = runner.run_scenario(parse_scenario(doc), tmp_path)
    assert kept == [None] * 4
    assert report["files"] == ["sweep.csv", "report.json"]


def test_dispersive_transfer_is_memoised_read_only():
    element = DispersiveElement((0.0, 2.0, -0.7))
    grid = FrequencyGrid(128, 0.1)
    first = dispersive_transfer(element, grid)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert dispersive_transfer(element, grid) is first
    assert dispersive_transfer(element, FrequencyGrid(128, 0.1)) is first
    assert np.array_equal(first, np.exp(1j * element.phase(grid.omegas)))
    # An equal element built separately computes the same samples afresh.
    other = dispersive_transfer(DispersiveElement((0.0, 2.0, -0.7)), grid)
    assert other is not first and np.array_equal(other, first)
    # Another grid replaces the memo with that grid's samples.
    coarse = FrequencyGrid(64, 0.2)
    assert np.array_equal(
        dispersive_transfer(element, coarse), np.exp(1j * element.phase(coarse.omegas))
    )
    identity = dispersive_transfer(DispersiveElement.identity(), grid)
    assert not identity.flags.writeable and np.array_equal(identity, np.ones(128))


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failing_on_its_last_point_writes_no_point_file(workers, tmp_path):
    # 40% of the 125.7 ps delay window is 50 ps; a combined GDD of 2 + 30 ps^2
    # spreads the trace over 32 * 6.4 = 205 ps at the band edge.
    doc = sweep_doc(
        "inter_time", ANALYTIC, [0.0, 2.0], [0.0, 0.0],
        "elements.1.phase_coeffs.1", [-1.0, 0.0, 1.0, 30.0],
    )
    with pytest.raises(AliasRisk):
        runner.run_scenario(parse_scenario(doc), tmp_path / "out", workers=workers)
    assert list((tmp_path / "out").iterdir()) == []
