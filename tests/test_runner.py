"""Sweeps: what the points share with the base scenario, and what they write.

A point whose source and grid equal the sweep's base scenario takes the
base's source fields, baseline and element transfers instead of computing its
own.  Every point must still write the bytes of the same point run alone.
"""

import filecmp
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_kernels as ref
from documents import ANALYTIC, NARROW, PHYSICAL, elements, modulators, spectral, temporal
from spdcsim import (
    AliasRisk,
    DispersiveElement,
    FrequencyGrid,
    NonFiniteResult,
    ScenarioError,
    baseline,
    build_comb,
    dispersive_transfer,
    evaluate_source,
    g2_inter_freq_narrowband,
)
from spdcsim import analysis, outputs, runner
from spdcsim import scenario as scenario_module
from spdcsim import source as source_module
from spdcsim.scenario import estimate_peak_bytes, parse_scenario, set_parameter
from spdcsim.source import PhaseMismatch, SourceFields


def sweep_doc(config, source, e0, e1, parameter, values, n_points=256):
    return temporal(
        configuration=config,
        grid={"n_points": n_points, "delta_omega": 0.05},
        source=source,
        elements=elements(e0, e1),
        sweep={"parameter": parameter, "values": values},
    )


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
    # A point that does not share the base's source computes its own source
    # and baseline, whether its source or its grid differs.
    calls = count_calls(monkeypatch)
    for name in ("gain", "grid"):
        calls.update(evaluate_source=0, baseline=0)
        scenario = parse_scenario(SWEEPS[name])
        runner.run_scenario(scenario, tmp_path / name, workers=workers)
        points = len(scenario.sweep.values)
        assert calls == {"evaluate_source": points, "baseline": points}, name


def record_half_phases(monkeypatch):
    """Every exp(i DL/2) array that ``evaluate_uv`` reads, in call order; each
    distinct array is one computation of the factor."""
    read = []
    half_phase = source_module._half_phase

    def recording(mismatch, grid, dl):
        read.append(half_phase(mismatch, grid, dl))
        return read[-1]

    monkeypatch.setattr(source_module, "_half_phase", recording)
    return read


def computed(read: list) -> int:
    return len({id(array) for array in read})


@pytest.mark.parametrize("workers", [1, 2])
def test_gain_sweep_computes_the_gain_free_terms_once(workers, monkeypatch, tmp_path):
    # No value equals the base's gain, so every point evaluates its own
    # source on the base's grid object and reads the factor memoised there.
    # Two workers racing on the first call may each compute it.
    doc = {**SWEEPS["gain"], "sweep": {"parameter": "source.gain", "values": [0.2, 1.1, 1.4, 0.9]}}
    read = record_half_phases(monkeypatch)
    runner.run_scenario(parse_scenario(doc), tmp_path, workers=workers)
    assert len(read) == 4
    assert 1 <= computed(read) <= workers


@pytest.mark.parametrize("workers", [1, 2])
def test_gain_sweep_point_at_the_base_gain_shares_the_base_source(workers, monkeypatch, tmp_path):
    # The 0.6 point is the base: it takes the base's source fields, whose
    # factor the other two points read too.
    calls = count_calls(monkeypatch)
    read = record_half_phases(monkeypatch)
    runner.run_scenario(parse_scenario(SWEEPS["gain"]), tmp_path, workers=workers)
    assert calls["evaluate_source"] == len(read) == 3
    assert 1 <= computed(read) <= workers


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "doc, sources",
    [
        (
            sweep_doc(
                "inter_time", PHYSICAL, [0.0, 1.5], [0.0, -0.5],
                "source.mismatch_coeffs.0", [0.2, 0.7, 0.9],
            ),
            3,
        ),
        (
            sweep_doc(
                "inter_time", PHYSICAL, [0.0, 1.5], [0.0, -0.5], "grid.n_points", [256, 512],
                n_points=128,
            ),
            2,
        ),
        (SWEEPS["intra_element"], 1),
    ],
    ids=["mismatch", "grid", "element"],
)
def test_sweeps_off_the_gain_axis_share_no_terms(doc, sources, workers, monkeypatch, tmp_path):
    # Each source computes its own factor: its mismatch or its grid object
    # differs from every other point's.  An element sweep has one source.
    read = record_half_phases(monkeypatch)
    runner.run_scenario(parse_scenario(doc), tmp_path, workers=workers)
    assert len(read) == computed(read) == sources


@pytest.mark.parametrize("analyses", [["width_ratio"], ["rms_width", "s_over_b"]])
def test_single_run_evaluates_source_once_and_baseline_for_width_ratio(
    analyses, monkeypatch, tmp_path
):
    calls = count_calls(monkeypatch)
    doc = {**SWEEPS["gain"], "sweep": None, "outputs": {"analyses": analyses}}
    report = runner.run_scenario(parse_scenario(doc), tmp_path)
    wants_ratio = "width_ratio" in analyses
    assert calls == {"evaluate_source": 1, "baseline": 1 if wants_ratio else 0}
    assert ("width_ratio" in report["results"]) == wants_ratio


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["inter_element", "intra_element", "gain", "grid"])
def test_each_width_is_measured_once(name, workers, monkeypatch, tmp_path):
    # One width per point; the baseline width once per sweep where the points
    # share the base's source, once per point otherwise.
    widths = []
    rms_width = runner.analysis.rms_width

    def counted(corr):
        widths.append(corr)
        return rms_width(corr)

    monkeypatch.setattr(runner.analysis, "rms_width", counted)
    scenario = parse_scenario(SWEEPS[name])
    runner.run_scenario(scenario, tmp_path, workers=workers)
    points = len(scenario.sweep.values)
    assert len(widths) == points + (1 if name.endswith("element") else points)


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


@pytest.mark.parametrize("workers", [-1, 0, True])
def test_bad_worker_count_raises_before_touching_a_finished_run(workers, tmp_path):
    sweep = parse_scenario(SWEEPS["intra_element"])
    for scenario in (sweep, single_point(sweep, sweep.sweep.values[0])):
        out = tmp_path / ("sweep" if scenario.sweep else "single")
        runner.run_scenario(scenario, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ValueError, match="workers must be None or an integer of at least 1"):
            runner.run_scenario(scenario, out, workers=workers)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        runner.run_scenario(scenario, out, workers=np.int64(1))  # numpy integers are counts
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("budget_points, pool", [(2.5, 2), (1.5, 1)])
def test_sweep_pool_fits_the_memory_budget(budget_points, pool, monkeypatch, tmp_path):
    # The budget admits each point alone; the pool runs no more of them at
    # once than fit it together, and writes the same bytes.
    scenario = parse_scenario(SWEEPS["inter_element"])
    report = runner.run_scenario(scenario, tmp_path / "free", workers=8)
    sizes = []
    executor = runner.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", recording)
    estimate = estimate_peak_bytes(scenario.grid.n_points)
    monkeypatch.setattr(scenario_module, "MEMORY_BUDGET_BYTES", int(budget_points * estimate))
    runner.run_scenario(scenario, tmp_path / "capped", workers=8)
    assert sizes == [pool]
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "free", tmp_path / "capped", report["files"], shallow=False
    )
    assert (mismatch, errors) == ([], [])


def test_points_without_trace_files_keep_only_their_analyses(monkeypatch, tmp_path):
    doc = {**SWEEPS["inter_element"], "outputs": {"write_trace": False}}
    kept = []
    write_point_files = outputs.write_point_files

    def recording(outcome, *args):
        kept.append(outcome.result)
        return write_point_files(outcome, *args)

    monkeypatch.setattr(outputs, "write_point_files", recording)
    report = runner.run_scenario(parse_scenario(doc), tmp_path)
    assert kept == [None] * 4
    assert report["files"] == ["sweep.csv", "report.json"]


@pytest.mark.parametrize("sweep, writing", [(False, 0), (True, 1)], ids=["single", "gain"])
def test_source_fields_live_no_longer_than_the_run(sweep, writing, monkeypatch, tmp_path):
    # A single run's fields die when execute returns, before its files are
    # written; a sweep base's, which the 0.6 point shares, when the run returns.
    scenario = parse_scenario(SWEEPS["gain"] if sweep else {**SWEEPS["gain"], "sweep": None})

    def held():
        gc.collect()
        return sum(
            isinstance(o, SourceFields) and o.grid is scenario.grid for o in gc.get_objects()
        )

    counts = []
    write_point_files = outputs.write_point_files

    def counting(*args):
        counts.append(held())
        return write_point_files(*args)

    monkeypatch.setattr(outputs, "write_point_files", counting)
    runner.run_scenario(scenario, tmp_path)
    points = len(scenario.sweep.values) if scenario.sweep else 1
    assert counts == [writing] * points
    assert held() == 0


def test_dispersive_transfer_is_memoised_read_only():
    element = DispersiveElement((0.0, 2.0, -0.7))
    grid = FrequencyGrid(128, 0.1)
    first = dispersive_transfer(element, grid)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert dispersive_transfer(element, grid) is first
    assert dispersive_transfer(element, FrequencyGrid(128, 0.1)) is first
    assert np.array_equal(first, ref.dispersive_transfer(element, grid))
    # An equal element built separately computes the same samples afresh.
    other = dispersive_transfer(DispersiveElement((0.0, 2.0, -0.7)), grid)
    assert other is not first and np.array_equal(other, first)
    # Another grid replaces the memo with that grid's samples.
    coarse = FrequencyGrid(64, 0.2)
    assert np.array_equal(
        dispersive_transfer(element, coarse), ref.dispersive_transfer(element, coarse)
    )
    identity = dispersive_transfer(DispersiveElement.identity(), grid)
    assert not identity.flags.writeable and np.array_equal(identity, np.ones(128))


def test_half_phase_is_memoised_read_only():
    grid = FrequencyGrid(128, 0.1)

    def half_phase(mismatch, grid):
        return source_module._half_phase(mismatch, grid, mismatch.phase(grid.omegas))

    mismatch = PhaseMismatch((0.5, 0.0, 0.02))
    first = half_phase(mismatch, grid)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert first.tobytes() == np.exp(0.5j * mismatch.phase(grid.omegas)).tobytes()
    # An equal mismatch reads the memo; an equal grid built separately has its own.
    assert half_phase(PhaseMismatch((0.5, -0.0, 0.02)), grid) is first
    other = half_phase(mismatch, FrequencyGrid(128, 0.1))
    assert other is not first and other.tobytes() == first.tobytes()
    # Another mismatch replaces the memo with its own factor.
    linear = PhaseMismatch((0.5,))
    replaced = half_phase(linear, grid)
    assert replaced.tobytes() == np.exp(0.5j * linear.phase(grid.omegas)).tobytes()
    assert half_phase(linear, grid) is replaced
    assert half_phase(mismatch, grid) is not first


@pytest.mark.parametrize("coeffs", [(0.5,), (0.5, 0.3, 0.02)], ids=["odd", "even"])
def test_evaluate_uv_computes_the_mismatch_phase_once(coeffs, monkeypatch):
    # On a miss of the grid's memo the factor is built from the phase that
    # evaluate_uv computes for GL anyway; on a hit only that one is computed.
    calls = []
    phase = PhaseMismatch.phase

    def counting(self, omegas):
        calls.append(self)
        return phase(self, omegas)

    monkeypatch.setattr(PhaseMismatch, "phase", counting)
    grid = FrequencyGrid(128, 0.1)
    for gain in (0.6, 1.2):  # a miss, then a hit
        spec = source_module.SourceSpec.physical(gain, coeffs)
        fields = source_module.evaluate_uv(spec, grid)
        assert len(calls) == 1
        expected = ref.evaluate_uv(spec, grid)
        assert fields.U.tobytes() == expected.U.tobytes()
        assert fields.R.tobytes() == expected.R.tobytes()
        calls.clear()


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


def test_failing_run_removes_an_earlier_report(tmp_path):
    # report.json marks a finished run: a run that fails into a directory
    # holding an earlier run's report must not leave that report behind, nor
    # any other file of that run.  Files spdcsim does not name stay.
    out = tmp_path / "out"
    good = sweep_doc(
        "inter_time", ANALYTIC, [0.0, 2.0], [0.0, 0.0], "elements.1.phase_coeffs.1", [-1.0, 1.0]
    )
    report = runner.run_scenario(parse_scenario(good), out)
    assert sorted(p.name for p in out.iterdir()) == sorted(report["files"])
    foreign = _add_foreign_files(out)
    failing = {**good, "sweep": {"parameter": "elements.1.phase_coeffs.1", "values": [1.0, 30.0]}}
    with pytest.raises(AliasRisk):
        runner.run_scenario(parse_scenario(failing), out)
    assert sorted(p.name for p in out.iterdir()) == foreign


SHIPPED_SWEEP = Path(__file__).resolve().parent.parent / "scenarios" / "inter_time_gdd_sweep.json"

# Names spdcsim never writes: they must survive a run into their directory.
FOREIGN_FILES = ("notes.txt", "trace.csv.bak", "point_x_trace.csv", "notes.txt.abcd1234.tmp")
FOREIGN_DIR = "kept"


def _add_foreign_files(out: Path) -> list:
    """Put files and a directory that spdcsim does not name into ``out``;
    returns their sorted names."""
    for name in FOREIGN_FILES:
        (out / name).write_text("not spdcsim's\n", encoding="utf-8")
    (out / FOREIGN_DIR).mkdir()
    (out / FOREIGN_DIR / "trace.csv").write_text("in a subdirectory\n", encoding="utf-8")
    return sorted(FOREIGN_FILES + (FOREIGN_DIR,))


def _shipped_sweep(values=None):
    doc = json.loads(SHIPPED_SWEEP.read_text(encoding="utf-8"))
    if values is not None:
        doc["sweep"]["values"] = values
    return parse_scenario(doc)


def test_rerun_into_a_used_directory_leaves_only_its_own_files(tmp_path):
    out = tmp_path / "out"
    first = runner.run_scenario(_shipped_sweep(), out)
    assert len(first["files"]) == 13
    foreign = _add_foreign_files(out)
    # What a single run and a killed write would have left.
    (out / "trace.csv").write_text("stale\n", encoding="utf-8")
    (out / "point_0007_trace.csv.k2x_9q0z.tmp").write_text("partial\n", encoding="utf-8")
    (out / "report.json.a1b2c3d4.tmp").write_text("{\n", encoding="utf-8")

    report = runner.run_scenario(_shipped_sweep([-1.0, 0.0, 1.0]), out)
    assert len(report["files"]) == 5
    assert sorted(p.name for p in out.iterdir()) == sorted(report["files"] + foreign)
    for name in FOREIGN_FILES:
        assert (out / name).read_text(encoding="utf-8") == "not spdcsim's\n"
    assert (out / FOREIGN_DIR / "trace.csv").exists()
    # Point 1 of the rerun (value 0.0) is point 5 of the shipped sweep.
    fresh = runner.run_scenario(_shipped_sweep([-1.0, 0.0, 1.0]), tmp_path / "fresh")
    assert report == fresh
    for name in report["files"]:
        assert filecmp.cmp(out / name, tmp_path / "fresh" / name, shallow=False)


def test_a_directory_under_an_output_name_is_an_io_error(tmp_path):
    out = tmp_path / "out"
    runner.run_scenario(_shipped_sweep([-1.0, 1.0]), out)
    (out / "trace.csv").mkdir()
    doc = json.loads(SHIPPED_SWEEP.read_text(encoding="utf-8"))
    doc["sweep"] = None
    scenario = tmp_path / "single.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "spdcsim.cli", "run", "--scenario", str(scenario), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("i/o error: ") and "Traceback" not in proc.stderr
    # The earlier sweep's files are gone; the directory and nothing else stays.
    assert [p.name for p in out.iterdir()] == ["trace.csv"]
    assert list((out / "trace.csv").iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_rerun_renames_onto_free_names_only(workers, monkeypatch, tmp_path):
    """Every write of a rerun into a used directory renames its temp file
    onto a name that no file holds."""
    out = tmp_path / "out"
    scenario = _shipped_sweep([-2.0, 0.0, 2.0])
    runner.run_scenario(scenario, out, workers=workers)
    real_replace = os.replace
    taken = []

    def replace_onto_free_name(src, dst):
        taken.append((Path(dst).name, os.path.lexists(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_onto_free_name)
    report = runner.run_scenario(scenario, out, workers=workers)
    assert sorted(name for name, _ in taken) == sorted(report["files"])
    assert [name for name, exists in taken if exists] == []


@pytest.mark.parametrize("sweep", [None, [-1.0, 2.0, 0.0]], ids=["single", "sweep"])
def test_non_finite_result_writes_no_file(sweep, monkeypatch, tmp_path):
    # The results are checked before the first CSV file: an infinite width at
    # the base scenario, the last sweep point, leaves neither trace.csv nor
    # any point file.
    doc = sweep_doc(
        "inter_time", ANALYTIC, [0.0, 2.0], [0.0, 0.0], "elements.1.phase_coeffs.1", sweep
    )
    if sweep is None:
        del doc["sweep"]
    real_execute = runner.execute

    def inf_at_last_point(scenario, shared=None):
        outcome = real_execute(scenario, shared)
        if scenario.elements[1].phase_coeffs[1] == 0.0:
            outcome.analyses["fwhm_ps"] = float("inf")
        return outcome

    monkeypatch.setattr(runner, "execute", inf_at_last_point)
    key = "results.fwhm_ps" if sweep is None else "results.points[2].fwhm_ps"
    with pytest.raises(NonFiniteResult, match=f"^{re.escape(key)} is inf;"):
        runner.run_scenario(parse_scenario(doc), tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


NARROWBAND = spectral(modulators=modulators(0.01, 1.2, -0.4))


INDEX_SWEEP = {"parameter": "modulators.1.index", "values": [-1.2, 0.3]}

# Exact grids are never swept, so this one runs alone; write_comb governs its
# joint.csv.
EXACT = spectral(
    grid={"n_points": 256, "delta_omega": 0.0025},
    source=NARROW,
    modulators=modulators(0.02, 0.5, -0.3),
    exact_grid=True,
)


@pytest.mark.parametrize(
    "base, sweep",
    [(NARROWBAND, None), (NARROWBAND, INDEX_SWEEP), (EXACT, None)],
    ids=["None", "sweep1", "exact"],
)
def test_narrowband_without_comb_files_keeps_its_results(base, sweep, tmp_path):
    doc = {**base, "sweep": sweep}
    written = runner.run_scenario(parse_scenario(doc), tmp_path / "with")
    doc["outputs"] = {"write_comb": False}
    report = runner.run_scenario(parse_scenario(doc), tmp_path / "without")
    comb_files = [name for name in written["files"] if name.endswith(("comb.csv", "joint.csv"))]
    assert len(comb_files) == (1 if sweep is None else 2)
    assert report["files"] == [name for name in written["files"] if name not in comb_files]
    assert sorted(p.name for p in (tmp_path / "without").iterdir()) == sorted(report["files"])
    assert report["results"] == written["results"]
    if sweep is not None:
        assert (tmp_path / "without" / "sweep.csv").read_bytes() == (
            tmp_path / "with" / "sweep.csv"
        ).read_bytes()


@pytest.mark.parametrize("phi2, canceled", [(-2.0, True), (2.0, False)])
def test_width_ratio_entries_follow_the_time_verdict(phi2, canceled, tmp_path):
    doc = {
        **SWEEPS["inter_element"],
        "elements": [{"phase_coeffs": [0.0, 2.0]}, {"phase_coeffs": [0.0, phi2]}],
        "sweep": None,
        "outputs": {"analyses": ["rms_width", "width_ratio"]},
    }
    scenario = parse_scenario(doc)
    results = runner.run_scenario(scenario, tmp_path)["results"]
    source = evaluate_source(scenario.source, scenario.grid)
    reference = analysis.rms_width(baseline(source, scenario.configuration)).rms_width
    verdict = analysis.assess_time_cancelation(results["rms_width_ps"], reference)
    tolerance = analysis.WIDTH_RATIO_TOLERANCE
    assert results["width_ratio"] == verdict.metric
    assert results["cancel_tolerance"] == tolerance
    assert results["canceled"] is (abs(results["width_ratio"] - 1.0) <= tolerance)
    assert results["canceled"] is canceled


@pytest.mark.parametrize("index, canceled", [(-1.2, True), (-0.4, False)])
def test_comb_leakage_entries_follow_the_comb_verdict(index, canceled, tmp_path):
    modulators = [NARROWBAND["modulators"][0], {"mod_freq": 0.01, "index": index}]
    doc = {**NARROWBAND, "modulators": modulators}
    scenario = parse_scenario(doc)
    results = runner.run_scenario(scenario, tmp_path)["results"]
    source = evaluate_source(scenario.source, scenario.grid)
    (freq, idx1), (_, idx2) = scenario.modulators
    comb = g2_inter_freq_narrowband(source, build_comb(freq, idx1), build_comb(freq, idx2))
    tolerance = analysis.LEAKAGE_TOLERANCE
    assert results["comb_leakage"] == analysis.assess_comb_cancelation(comb).metric
    assert results["cancel_tolerance"] == tolerance
    assert results["canceled"] is (results["comb_leakage"] <= tolerance)
    assert results["canceled"] is canceled
