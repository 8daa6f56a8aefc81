"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from spdcsim.runner import run_scenario  # noqa: E402
from spdcsim.scenario import parse_scenario  # noqa: E402


def _run(doc, out_dir):
    run_scenario(parse_scenario(doc), out_dir, workers=1)
    return out_dir


def _inter_doc(sweep=False):
    doc = {
        "schema_version": 1,
        "configuration": "inter_time",
        "grid": {"n_points": 2048, "delta_omega": 0.015},
        "source": {"mode": "analytic", "envelope_bandwidth": 1.0},
        "elements": [{"phase_coeffs": [0.0, 3.0]}, {"phase_coeffs": [0.0, 0.0]}],
    }
    if sweep:
        doc["sweep"] = {"parameter": "elements.1.phase_coeffs.1", "values": [-2.0, 0.5, 4.0]}
    return doc


def _intra_doc():
    return {
        "schema_version": 1,
        "configuration": "intra_time",
        "grid": {"n_points": 1024, "delta_omega": 0.05},
        "source": {"mode": "physical", "gain": 0.5, "mismatch_coeffs": [0.5]},
        "elements": [{"phase_coeffs": [0.0, 2.0]}, {"phase_coeffs": [0.0, 2.0]}],
        "sweep": {"parameter": "elements.1.phase_coeffs.1", "values": [1.0, 2.0, 3.0]},
    }


def _gain_doc():
    return {
        "schema_version": 1,
        "configuration": "inter_time",
        "grid": {"n_points": 1024, "delta_omega": 0.05},
        "source": {"mode": "physical", "gain": 0.5, "mismatch_coeffs": [0.5]},
        "elements": [{"phase_coeffs": [0.0, 1.0]}, {"phase_coeffs": [0.0, 0.0]}],
        "sweep": {"parameter": "source.gain", "values": [0.3, 0.6, 0.9]},
        "outputs": {"write_trace": False},
    }


def _comb_doc():
    return {
        "schema_version": 1,
        "configuration": "inter_freq",
        "grid": {"n_points": 256, "delta_omega": 0.5},
        "source": {"mode": "analytic", "envelope_bandwidth": 60.0},
        "modulators": [{"mod_freq": 0.01, "index": 1.2}, {"mod_freq": 0.01, "index": 1.05}],
    }


def _joint_doc(config="inter_freq"):
    return {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": 256, "delta_omega": 0.0025},
        "source": {"mode": "analytic", "envelope_bandwidth": 0.05},
        "modulators": [{"mod_freq": 0.02, "index": 1.2}, {"mod_freq": 0.02, "index": 0.7}],
        "exact_grid": True,
    }


def _rewrite_csv(path, table):
    header = path.read_text(encoding="utf-8").splitlines()[0]
    rows = [",".join(format(float(v), ".17g") for v in row) for row in table]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def _edit_report(out_dir, edit):
    path = out_dir / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _has(problems, fragment):
    return any(fragment in p for p in problems)


@pytest.mark.parametrize(
    "make_doc", [_inter_doc, lambda: _inter_doc(sweep=True), _intra_doc, _gain_doc, _comb_doc,
                 _joint_doc, lambda: _joint_doc("intra_freq")],
)
def test_real_output_passes(tmp_path, make_doc):
    doc = make_doc()
    assert checks.check_run(doc, _run(doc, tmp_path / "out")) == []


def test_trace_one_percent_wider_is_rejected(tmp_path):
    doc = _inter_doc()
    out = _run(doc, tmp_path / "out")
    trace = checks._load_csv(out / "trace.csv", "tau_ps,g2,background")
    tau, bg = trace[:, 0], trace[:, 2]
    trace[:, 1] = bg + np.interp(tau / 1.01, tau, trace[:, 1] - bg)
    _rewrite_csv(out / "trace.csv", trace)
    assert _has(checks.check_run(doc, out), "trace RMS width")


def test_nan_in_report_is_rejected(tmp_path):
    doc = _inter_doc()
    out = _run(doc, tmp_path / "out")
    path = out / "report.json"
    text = path.read_text(encoding="utf-8")
    head, sep, tail = text.partition('"s_over_b": ')
    path.write_text(head + sep + "NaN" + tail[tail.index(","):], encoding="utf-8")
    assert _has(checks.check_run(doc, out), "not strict JSON")


def test_background_off_closed_form_is_rejected(tmp_path):
    doc = _inter_doc(sweep=True)
    out = _run(doc, tmp_path / "out")

    def bump(report):
        report["results"]["points"][1]["background"] *= 1.0 + 1e-10

    _edit_report(out, bump)
    assert _has(checks.check_run(doc, out), "background")


def test_sweep_table_disagreeing_with_report_is_rejected(tmp_path):
    doc = _inter_doc(sweep=True)
    out = _run(doc, tmp_path / "out")
    table = checks._load_csv(out / "sweep.csv", "param,rms_width_ps,fwhm_ps,s_over_b")
    table[2, 3] *= 1.0 + 1e-15
    _rewrite_csv(out / "sweep.csv", table)
    assert _has(checks.check_run(doc, out), "sweep.csv")


def test_intrabeam_above_thermal_bound_is_rejected(tmp_path):
    doc = _intra_doc()
    out = _run(doc, tmp_path / "out")

    def lift(report):
        report["results"]["points"][0]["s_over_b"] = 1.01

    _edit_report(out, lift)
    assert _has(checks.check_run(doc, out), "exceeds 1")


def test_identical_elements_width_ratio_off_is_rejected(tmp_path):
    doc = _intra_doc()
    out = _run(doc, tmp_path / "out")

    def nudge(report):
        report["results"]["points"][1]["width_ratio"] = 1.0 + 1e-9

    _edit_report(out, nudge)
    assert _has(checks.check_run(doc, out), "width ratio")


def test_flux_not_rising_with_gain_is_rejected(tmp_path):
    doc = _gain_doc()
    out = _run(doc, tmp_path / "out")

    def swap(report):
        points = report["results"]["points"]
        points[0]["background"], points[2]["background"] = points[2]["background"], points[0]["background"]

    _edit_report(out, swap)
    assert _has(checks.check_run(doc, out), "flux does not rise")


def test_comb_weight_off_by_1e9_is_rejected(tmp_path):
    doc = _comb_doc()
    out = _run(doc, tmp_path / "out")
    comb = checks._load_csv(out / "comb.csv", "n,coefficient,ridge,envelope_axis_radps,envelope_value")
    comb[comb[:, 0] == 2, 1] += 1e-9
    _rewrite_csv(out / "comb.csv", comb)
    assert _has(checks.check_run(doc, out), "comb coefficients")


def test_leakage_off_by_1e9_is_rejected(tmp_path):
    doc = _comb_doc()
    out = _run(doc, tmp_path / "out")

    def bump(report):
        report["results"]["comb_leakage"] += 1e-9

    _edit_report(out, bump)
    assert _has(checks.check_run(doc, out), "leakage")


@pytest.mark.parametrize("config", ["inter_freq", "intra_freq"])
def test_joint_cell_off_is_rejected(tmp_path, config):
    doc = _joint_doc(config)
    out = _run(doc, tmp_path / "out")
    joint = checks._load_csv(out / "joint.csv", "omega1_radps,omega2_radps,structure,background")
    peak = int(np.argmax(joint[:, 2]))
    joint[peak, 2] *= 1.0 + 1e-6
    _rewrite_csv(out / "joint.csv", joint)
    assert _has(checks.check_run(doc, out), "structure differs")


def test_joint_missing_cell_is_rejected(tmp_path):
    doc = _joint_doc()
    out = _run(doc, tmp_path / "out")
    joint = checks._load_csv(out / "joint.csv", "omega1_radps,omega2_radps,structure,background")
    _rewrite_csv(out / "joint.csv", np.delete(joint, int(np.argmax(joint[:, 2])), axis=0))
    assert _has(checks.check_run(doc, out), "omits nonzero cells")


def test_rerun_with_different_bytes_is_rejected(tmp_path):
    doc = _inter_doc()
    first = _run(doc, tmp_path / "first")
    second = tmp_path / "second"
    shutil.copytree(first, second)
    assert checks.check_rerun(first, second) == []
    trace = second / "trace.csv"
    data = bytearray(trace.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last row
    trace.write_bytes(bytes(data))
    assert _has(checks.check_rerun(first, second), "trace.csv differs")
