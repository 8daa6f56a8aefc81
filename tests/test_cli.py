import csv
import json
import subprocess
import sys

import pytest

from spdcsim import NonFiniteResult, cli, runner
from spdcsim.runner import run_scenario
from spdcsim.scenario import parse_scenario


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "spdcsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def scenario_doc():
    return {
        "schema_version": 1,
        "configuration": "inter_time",
        "grid": {"n_points": 512, "delta_omega": 0.02},
        "source": {"mode": "analytic", "envelope_bandwidth": 1.0},
        "elements": [{"phase_coeffs": [0.0, 5.0]}, {"phase_coeffs": [0.0, -5.0]}],
    }


def comb_doc():
    return {
        "schema_version": 1,
        "configuration": "intra_freq",
        "grid": {"n_points": 256, "delta_omega": 0.5},
        "source": {"mode": "analytic", "envelope_bandwidth": 60.0},
        "modulators": [
            {"mod_freq": 0.01, "index": 1.3},
            {"mod_freq": 0.01, "index": 1.3},
        ],
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestRunCommand:
    def test_run_writes_trace_and_report(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        proc = run_cli("run", "--scenario", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "trace.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["configuration"] == "inter_time"
        assert report["results"]["canceled"] is True
        with open(out / "trace.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["tau_ps", "g2", "background"]
        assert len(rows) == 1 + 512

    def test_byte_identical_reruns(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--scenario", str(path), "--out", str(out_a)).returncode == 0
        assert run_cli("run", "--scenario", str(path), "--out", str(out_b)).returncode == 0
        for name in ("trace.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_comb_output_schema(self, tmp_path):
        path = write_doc(tmp_path, comb_doc())
        out = tmp_path / "out"
        proc = run_cli("run", "--scenario", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out / "comb.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "coefficient", "ridge", "envelope_axis_radps", "envelope_value"]
        # canceled config: single n=0 line over 256 envelope samples
        assert len(rows) == 1 + 256
        assert all(row[0] == "0" and row[1] == "1" for row in rows[1:])
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["comb_leakage"] == 0.0
        assert report["results"]["canceled"] is True

    def test_grid_overrides(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        proc = run_cli(
            "run", "--scenario", str(path), "--out", str(out), "--grid-points", "256"
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["grid"]["n_points"] == 256

    def test_report_can_be_rerun(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc())
        out_a = tmp_path / "a"
        assert run_cli("run", "--scenario", str(path), "--out", str(out_a)).returncode == 0
        out_b = tmp_path / "b"
        proc = run_cli(
            "run", "--scenario", str(out_a / "report.json"), "--out", str(out_b)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


class TestSweepCommand:
    def test_sweep_csv_schema_and_points(self, tmp_path):
        doc = scenario_doc()
        doc["sweep"] = {
            "parameter": "elements.1.phase_coeffs.1",
            "values": [-5.0, 0.0, 5.0],
        }
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_cli("sweep", "--scenario", str(path), "--out", str(out), "--workers", "2")
        assert proc.returncode == 0, proc.stderr
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["param", "rms_width_ps", "fwhm_ps", "s_over_b"]
        assert [row[0] for row in rows[1:]] == ["-5", "0", "5"]
        # width at the cancelation point is minimal
        widths = [float(row[1]) for row in rows[1:]]
        assert widths[0] < widths[1] < widths[2]
        for i in range(3):
            assert (out / f"point_{i:04d}_trace.csv").exists()

    def test_sweep_command_requires_sweep(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc())
        proc = run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "sweep" in proc.stderr


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        doc = scenario_doc()
        doc["unknown_key"] = 1
        path = write_doc(tmp_path, doc)
        proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "unknown_key" in proc.stderr

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2

    def test_alias_risk_is_3(self, tmp_path):
        doc = scenario_doc()
        doc["grid"] = {"n_points": 64, "delta_omega": 0.2}
        doc["elements"] = [{"phase_coeffs": [0.0, 25.0]}, {"phase_coeffs": [0.0, 25.0]}]
        path = write_doc(tmp_path, doc)
        proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "precondition" in proc.stderr

    def test_mismatched_drive_is_3(self, tmp_path):
        doc = comb_doc()
        doc["modulators"][1]["mod_freq"] = 0.02
        path = write_doc(tmp_path, doc)
        proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "doc, path",
        [
            (
                {**scenario_doc(), "source": {"mode": "physical", "gain": float("nan")}},
                "scenario.source.gain",
            ),
            (
                {**scenario_doc(), "source": {"mode": "analytic", "envelope_bandwidth": float("inf")}},
                "scenario.source.envelope_bandwidth",
            ),
            (
                {**comb_doc(), "modulators": [
                    {"mod_freq": 0.01, "index": float("nan")},
                    {"mod_freq": 0.01, "index": 1.3},
                ]},
                "scenario.modulators[0].index",
            ),
        ],
        ids=["nan_gain", "infinite_bandwidth", "nan_modulation_index"],
    )
    def test_non_finite_input_is_2_without_report(self, tmp_path, doc, path):
        scenario_file = write_doc(tmp_path, doc)  # json writes NaN / Infinity literals
        out = tmp_path / "out"
        proc = run_cli("run", "--scenario", str(scenario_file), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{path}: expected a finite number" in proc.stderr
        assert not (out / "report.json").exists()

    def test_sweep_without_table_columns_is_2_before_any_file(self, tmp_path):
        doc = scenario_doc()
        doc["sweep"] = {"parameter": "elements.1.phase_coeffs.1", "values": [-5.0, 5.0]}
        doc["outputs"] = {"analyses": ["rms_width"]}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_cli("sweep", "--scenario", str(path), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "scenario.outputs.analyses" in proc.stderr
        assert not out.exists()

    def test_fractional_grid_size_sweep_is_2(self, tmp_path):
        doc = scenario_doc()
        doc["sweep"] = {"parameter": "grid.n_points", "values": [512, 1024.5]}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_cli("sweep", "--scenario", str(path), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "scenario.sweep.values[1]" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_bad_worker_count_is_usage_error(self, tmp_path, workers):
        path = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        proc = run_cli("run", "--scenario", str(path), "--out", str(out), "--workers", workers)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "--workers" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_missing_scenario_file_is_4(self, tmp_path):
        proc = run_cli(
            "run", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")
        )
        assert proc.returncode == 4


class TestSelftestCommand:
    def test_full_selftest_passes(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 13
        assert all(line.startswith("PASS") for line in lines)
        assert "13/13 checks passed" in proc.stdout

    def test_filtered_selftest_passes(self):
        proc = run_cli("selftest", "--filter", "parseval")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_unknown_filter_fails(self):
        proc = run_cli("selftest", "--filter", "no_such_check")
        assert proc.returncode == 1


def test_runner_api_matches_cli_output(tmp_path):
    scenario = parse_scenario(scenario_doc())
    report = run_scenario(scenario, tmp_path / "api")
    assert (tmp_path / "api" / "trace.csv").exists()
    assert report["results"]["width_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_report_with_nan_is_not_written(tmp_path, monkeypatch):
    real_execute = runner.execute

    def nan_execute(scenario):
        outcome = real_execute(scenario)
        outcome.analyses["s_over_b"] = float("nan")
        return outcome

    monkeypatch.setattr(runner, "execute", nan_execute)
    with pytest.raises(NonFiniteResult, match=r"^results\.s_over_b is nan;"):
        run_scenario(parse_scenario(scenario_doc()), tmp_path / "out")
    assert not (tmp_path / "out" / "report.json").exists()


def _run_main(tmp_path, doc):
    scenario_file = write_doc(tmp_path, doc)
    return cli.main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out")])


def test_nan_result_exits_3_naming_its_key(tmp_path, monkeypatch, capsys):
    real_execute = runner.execute

    def nan_execute(scenario, shared=None):
        outcome = real_execute(scenario, shared)
        outcome.analyses["width_ratio"] = float("nan")
        return outcome

    monkeypatch.setattr(runner, "execute", nan_execute)
    assert _run_main(tmp_path, scenario_doc()) == cli.EXIT_PRECONDITION == 3
    err = capsys.readouterr().err
    assert err == "precondition error: results.width_ratio is nan; report.json not written\n"
    assert not (tmp_path / "out" / "report.json").exists()


def test_nan_in_a_sweep_point_names_the_point(tmp_path, monkeypatch, capsys):
    real_execute = runner.execute

    def inf_on_second_point(scenario, shared=None):
        outcome = real_execute(scenario, shared)
        if scenario.elements[1].phase_coeffs[1] == 0.0:
            outcome.analyses["fwhm_ps"] = float("inf")
        return outcome

    monkeypatch.setattr(runner, "execute", inf_on_second_point)
    sweep = {"parameter": "elements.1.phase_coeffs.1", "values": [-5.0, 0.0]}
    doc = {**scenario_doc(), "sweep": sweep}
    assert _run_main(tmp_path, doc) == 3
    assert "results.points[1].fwhm_ps is inf" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_unexpected_exception_exits_5_without_traceback(tmp_path, monkeypatch, capsys):
    def broken_execute(scenario, shared=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "execute", broken_execute)
    assert _run_main(tmp_path, scenario_doc()) == cli.EXIT_INTERNAL == 5
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert not (tmp_path / "out" / "report.json").exists()


def temporal_doc(**changes):
    doc = {
        "schema_version": 1,
        "configuration": "inter_time",
        "grid": {"n_points": 256, "delta_omega": 0.05},
        "source": {"mode": "analytic", "envelope_bandwidth": 1.0},
        "elements": [{"phase_coeffs": [0.0, 1.0]}, {"phase_coeffs": [0.0, -1.0]}],
    }
    return {**doc, **changes}


def spectral_doc(**changes):
    doc = {
        "schema_version": 1,
        "configuration": "inter_freq",
        "grid": {"n_points": 256, "delta_omega": 0.4},
        "source": {"mode": "analytic", "envelope_bandwidth": 60.0},
        "modulators": [
            {"mod_freq": 0.01, "index": 1.3},
            {"mod_freq": 0.01, "index": 1.3},
        ],
    }
    return {**doc, **changes}


def modulators(mod_freq, index1, index2):
    return [{"mod_freq": mod_freq, "index": index1}, {"mod_freq": mod_freq, "index": index2}]


# Inputs that once ended in exit 5 (an untyped exception); each now either
# runs or stops with a typed precondition error.
EXTREME_INPUTS = {
    "gain_300": temporal_doc(source={"mode": "physical", "gain": 300}),
    "mismatch_1e300": temporal_doc(
        source={"mode": "physical", "gain": 0.5, "mismatch_coeffs": [1e300]}
    ),
    "bandwidth_1e30": temporal_doc(
        source={"mode": "analytic", "envelope_bandwidth": 1e30}
    ),
    "delta_omega_1e300": temporal_doc(grid={"n_points": 256, "delta_omega": 1e300}),
    "tiny_index_narrowband": spectral_doc(modulators=modulators(0.01, 1e-100, 1.3)),
    "tiny_index_exact": spectral_doc(
        grid={"n_points": 256, "delta_omega": 0.0025},
        source={"mode": "analytic", "envelope_bandwidth": 0.05},
        modulators=modulators(0.02, 1e-100, 1.0),
        exact_grid=True,
    ),
    "exact_spacing_underflow": spectral_doc(
        configuration="intra_freq",
        grid={"n_points": 256, "delta_omega": 1e-240},
        modulators=modulators(1e-240, 1.3, 1.3),
        exact_grid=True,
    ),
    "exact_spacing_overflow": spectral_doc(
        grid={"n_points": 256, "delta_omega": 1e180},
        modulators=modulators(4e180, 1.3, 1.3),
        exact_grid=True,
    ),
}

# Inputs found by the property test in tests/test_cli_property.py.
FOUND_INPUTS = {
    "combined_index_30": spectral_doc(modulators=modulators(0.01, 15.0, 15.0)),
    "bandwidth_1e-200": temporal_doc(
        source={"mode": "analytic", "envelope_bandwidth": 1e-200}
    ),
    "canceling_overflowing_phases": temporal_doc(
        configuration="intra_time",
        elements=[{"phase_coeffs": [0.0, 0.0, 1.7976931348623157e308]}] * 2,
    ),
    "exact_structure_overflow": spectral_doc(
        grid={"n_points": 256, "delta_omega": 1.5e-154},
        source={"mode": "physical", "gain": 3.0},
        modulators=modulators(1.5e-154, 1.0, 1.0),
        exact_grid=True,
    ),
}


def _run_in_process(tmp_path, doc):
    scenario_file = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(scenario_file), "--out", str(out), "--workers", "1"]
    return cli.main(argv), out


@pytest.mark.parametrize(
    "name, expected",
    [
        ("gain_300", "precondition error: Bogoliubov unitarity violated by 1.366e+244"),
        ("mismatch_1e300", "precondition error: Bogoliubov unitarity violated by nan"),
        ("bandwidth_1e30", "precondition error: trace structure lies within one delay sample"),
        ("delta_omega_1e300", "precondition error: pointlike integrand spectrum"),
        ("tiny_index_narrowband", None),
        ("tiny_index_exact", None),
        ("exact_spacing_underflow", "precondition error: exact grid spacing 1e-240 rad/ps"),
        ("exact_spacing_overflow", "precondition error: exact grid spacing 1e+180 rad/ps"),
        ("combined_index_30", None),
        ("bandwidth_1e-200", "scenario error: scenario.source: envelope_bandwidth 1e-200"),
        ("canceling_overflowing_phases", "precondition error: dispersive phase is not finite"),
        ("exact_structure_overflow", "precondition error: exact joint structure overflows"),
    ],
)
def test_extreme_input_runs_or_fails_typed(tmp_path, capsys, name, expected):
    code, out = _run_in_process(tmp_path, {**EXTREME_INPUTS, **FOUND_INPUTS}[name])
    err = capsys.readouterr().err
    if expected is None:
        assert code == cli.EXIT_OK, err
        assert err == ""
        assert (out / "report.json").exists()
        return
    assert code == (cli.EXIT_PARSE if expected.startswith("scenario") else cli.EXIT_PRECONDITION)
    assert err.startswith(expected)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (out / "report.json").exists()


def test_bad_sweep_value_is_named_before_any_directory(tmp_path, capsys):
    sweep = {"parameter": "modulators.1.index", "values": [1.3, 25]}
    code, out = _run_in_process(tmp_path, spectral_doc(sweep=sweep))
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "scenario error: scenario.sweep.values[1]: scenario.modulators[1]: "
        "|index| <= 20.0 required, got 25.0\n"
    )
    assert not out.exists()


def test_precondition_at_a_sweep_value_keeps_its_type(tmp_path, capsys):
    sweep = {"parameter": "modulators.1.mod_freq", "values": [0.01, 0.02]}
    code, out = _run_in_process(tmp_path, spectral_doc(sweep=sweep))
    assert code == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "precondition error: scenario.sweep.values[1]: scenario.modulators: "
        "modulator drive frequencies differ: 0.01 vs 0.02 rad/ps\n"
    )
    assert not out.exists()
