import json
import tracemalloc

import pytest

from spdcsim import GridIncommensurate, MismatchedDrive, ScenarioError
from spdcsim import cli
from spdcsim import scenario as scenario_module
from spdcsim.elements import build_comb
from spdcsim.errors import ECHO_LIMIT, echo
from spdcsim.outputs import delay_cells
from spdcsim.runner import execute, run_scenario
from spdcsim.scenario import (
    MEMORY_BUDGET_BYTES,
    check_sweep_outputs,
    estimate_peak_bytes,
    load_scenario,
    parse_scenario,
    resolve_parameter,
    set_parameter,
    sweep_points,
)


def minimal_time_doc():
    return {
        "schema_version": 1,
        "configuration": "inter_time",
        "grid": {"n_points": 256, "delta_omega": 0.05},
        "source": {"mode": "analytic", "envelope_bandwidth": 1.0},
        "elements": [{"phase_coeffs": []}, {"phase_coeffs": []}],
    }


def minimal_freq_doc():
    return {
        "schema_version": 1,
        "configuration": "inter_freq",
        "grid": {"n_points": 256, "delta_omega": 0.05},
        "source": {"mode": "analytic", "envelope_bandwidth": 60.0},
        "modulators": [
            {"mod_freq": 0.01, "index": 0.8},
            {"mod_freq": 0.01, "index": -0.8},
        ],
    }


def test_minimal_time_scenario_parses():
    s = parse_scenario(minimal_time_doc())
    assert s.configuration == "inter_time"
    assert s.is_temporal
    assert s.elements[0].phase_coeffs == ()
    assert s.outputs.analyses == ("rms_width", "fwhm", "s_over_b", "width_ratio")


def test_cancelation_scenario_parses():
    doc = minimal_time_doc()
    doc["elements"] = [{"phase_coeffs": [0.0, 5.0]}, {"phase_coeffs": [0.0, -5.0]}]
    s = parse_scenario(doc)
    assert s.elements[0].phase_coeffs == (0.0, 5.0)
    assert s.elements[1].phase_coeffs == (0.0, -5.0)


def test_resolved_round_trip():
    doc = minimal_freq_doc()
    doc["sweep"] = {"parameter": "modulators.1.index", "values": [-0.8, 0.0, 0.8]}
    s = parse_scenario(doc)
    assert parse_scenario(s.resolved()).resolved() == s.resolved()


def test_report_document_unwraps_embedded_scenario():
    s = parse_scenario(minimal_time_doc())
    report_like = {"schema_version": 1, "scenario": s.resolved(), "results": {}}
    assert parse_scenario(report_like).resolved() == s.resolved()


def test_unknown_top_level_key_rejected_with_path():
    doc = minimal_time_doc()
    doc["detector"] = {}
    with pytest.raises(ScenarioError, match="scenario.*detector"):
        parse_scenario(doc)


def test_unknown_nested_key_rejected_with_path():
    doc = minimal_time_doc()
    doc["grid"]["spacing"] = 1.0
    with pytest.raises(ScenarioError, match=r"scenario\.grid"):
        parse_scenario(doc)


def test_bad_schema_version():
    doc = minimal_time_doc()
    doc["schema_version"] = 2
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(doc)


def test_grid_invariants_checked():
    doc = minimal_time_doc()
    doc["grid"]["n_points"] = 100
    with pytest.raises(ScenarioError, match="power of two"):
        parse_scenario(doc)


def test_element_kind_must_match_configuration():
    doc = minimal_time_doc()
    doc["modulators"] = minimal_freq_doc()["modulators"]
    with pytest.raises(ScenarioError, match="modulators"):
        parse_scenario(doc)
    doc2 = minimal_freq_doc()
    doc2["elements"] = [{"phase_coeffs": []}, {"phase_coeffs": []}]
    with pytest.raises(ScenarioError, match="elements"):
        parse_scenario(doc2)


def test_mismatched_drive_surfaces_at_parse_time():
    doc = minimal_freq_doc()
    doc["modulators"][1]["mod_freq"] = 0.02
    with pytest.raises(MismatchedDrive):
        parse_scenario(doc)


def test_exact_grid_commensurability_checked_at_parse_time():
    doc = minimal_freq_doc()
    doc["exact_grid"] = True
    doc["modulators"][0]["mod_freq"] = 0.013
    doc["modulators"][1]["mod_freq"] = 0.013
    with pytest.raises(GridIncommensurate):
        parse_scenario(doc)


def test_exact_grid_not_allowed_for_temporal():
    doc = minimal_time_doc()
    doc["exact_grid"] = True
    with pytest.raises(ScenarioError, match="exact_grid"):
        parse_scenario(doc)


def test_sweep_parameter_must_exist():
    doc = minimal_time_doc()
    doc["sweep"] = {"parameter": "elements.1.phase_coeffs.7", "values": [1.0]}
    with pytest.raises(ScenarioError, match=r"^scenario\.sweep\.parameter: "):
        parse_scenario(doc)


def test_sweep_parameter_must_be_numeric():
    doc = minimal_time_doc()
    doc["sweep"] = {"parameter": "source.mode", "values": [1.0]}
    with pytest.raises(ScenarioError, match="does not address a number"):
        parse_scenario(doc)


def test_sweep_values_validated():
    doc = minimal_time_doc()
    doc["elements"] = [{"phase_coeffs": [0.0, 1.0]}, {"phase_coeffs": [0.0, 1.0]}]
    doc["sweep"] = {"parameter": "elements.1.phase_coeffs.1", "values": []}
    with pytest.raises(ScenarioError, match="at least one value"):
        parse_scenario(doc)


def test_sweep_points_are_single_runs_that_parse_no_sweep(monkeypatch):
    # Each point would otherwise re-parse all the sweep's values: O(P^2).
    values = [-1.0, 0.0, 2.0]
    doc = minimal_time_doc()
    doc["elements"] = [{"phase_coeffs": [0.0, 1.0]}, {"phase_coeffs": [0.0, 1.0]}]
    doc["sweep"] = {"parameter": "elements.1.phase_coeffs.1", "values": values}
    scenario = parse_scenario(doc)
    parsed = []
    parse_sweep = scenario_module._parse_sweep

    def counted(*args):
        parsed.append(args)
        return parse_sweep(*args)

    monkeypatch.setattr(scenario_module, "_parse_sweep", counted)
    points = sweep_points(scenario)
    assert parsed == []
    assert [point.sweep for point in points] == [None] * len(values)
    assert [point.resolved()["elements"][1]["phase_coeffs"][1] for point in points] == values


def test_unknown_analysis_rejected():
    doc = minimal_time_doc()
    doc["outputs"] = {"analyses": ["comb_leakage"]}
    with pytest.raises(ScenarioError, match="comb_leakage"):
        parse_scenario(doc)


def test_parameter_path_helpers():
    doc = minimal_time_doc()
    doc["elements"] = [{"phase_coeffs": [0.0, 1.0]}, {"phase_coeffs": [0.0, 2.0]}]
    assert resolve_parameter(doc, "elements.1.phase_coeffs.1") == 2.0
    updated = set_parameter(doc, "elements.1.phase_coeffs.1", -3.0)
    assert resolve_parameter(updated, "elements.1.phase_coeffs.1") == -3.0
    assert resolve_parameter(doc, "elements.1.phase_coeffs.1") == 2.0  # original untouched


def test_source_mode_key_separation():
    doc = minimal_time_doc()
    doc["source"] = {"mode": "analytic", "envelope_bandwidth": 1.0, "gain": 0.5}
    with pytest.raises(ScenarioError, match="physical-mode key"):
        parse_scenario(doc)
    doc["source"] = {"mode": "physical", "gain": 0.5, "envelope_bandwidth": 1.0}
    with pytest.raises(ScenarioError, match="analytic-mode key"):
        parse_scenario(doc)


def test_load_scenario_reports_json_syntax_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "schema_version": 1,\n  broken\n}\n', encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"bad\.json:3:"):
        load_scenario(bad)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize(
    "where, path",
    [
        (("grid", "delta_omega"), "scenario.grid.delta_omega"),
        (("source", "envelope_bandwidth"), "scenario.source.envelope_bandwidth"),
        (("elements", 0, "phase_coeffs", 1), r"scenario.elements\[0\].phase_coeffs\[1\]"),
    ],
)
def test_non_finite_numbers_rejected_with_path(bad, where, path):
    doc = minimal_time_doc()
    doc["elements"][0]["phase_coeffs"] = [0.0, 1.0]
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = bad
    with pytest.raises(ScenarioError, match=f"{path}: expected a finite number"):
        parse_scenario(doc)


def test_non_finite_modulation_index_and_sweep_value_rejected():
    doc = minimal_freq_doc()
    doc["modulators"][1]["index"] = float("nan")
    with pytest.raises(ScenarioError, match=r"scenario.modulators\[1\].index"):
        parse_scenario(doc)
    doc = minimal_freq_doc()
    doc["sweep"] = {"parameter": "modulators.1.index", "values": [0.0, float("inf")]}
    with pytest.raises(ScenarioError, match=r"scenario.sweep.values\[1\]"):
        parse_scenario(doc)


def _sweep_doc(doc, parameter, analyses=None):
    doc["sweep"] = {"parameter": parameter, "values": [0.5, 1.0]}
    if analyses is not None:
        doc["outputs"] = {"analyses": analyses}
    return doc


@pytest.mark.parametrize(
    "doc, match",
    [
        (
            _sweep_doc(minimal_time_doc(), "source.envelope_bandwidth", ["rms_width", "fwhm"]),
            r"scenario.outputs.analyses: .*\['s_over_b'\]",
        ),
        (
            _sweep_doc(minimal_freq_doc(), "modulators.1.index", []),
            r"scenario.outputs.analyses: .*\['comb_leakage'\]",
        ),
        (
            _sweep_doc(
                {**minimal_freq_doc(), "grid": {"n_points": 256, "delta_omega": 0.0025},
                 "exact_grid": True},
                "modulators.1.index",
            ),
            "scenario.exact_grid: exact-grid scenarios cannot be swept",
        ),
    ],
    ids=["temporal_without_s_over_b", "narrowband_without_leakage", "exact_grid"],
)
def test_sweep_without_its_table_columns_refused_before_any_point(doc, match, tmp_path):
    scenario = parse_scenario(doc)
    with pytest.raises(ScenarioError, match=match):
        check_sweep_outputs(scenario)
    with pytest.raises(ScenarioError, match=match):
        run_scenario(scenario, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_single_runs_need_no_sweep_columns():
    doc = minimal_time_doc()
    doc["outputs"] = {"analyses": ["fwhm"]}
    check_sweep_outputs(parse_scenario(doc))


def _with(doc, *edits):
    for keys, value in edits:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, error, prefix, exit_code",
    [
        (
            _with(minimal_time_doc(), (("elements", 1, "phase_coeffs"), [0.0] * 6)),
            ScenarioError,
            "scenario.elements[1].phase_coeffs: ",
            2,
        ),
        (
            _with(
                minimal_freq_doc(),
                (("modulators", 0, "mod_freq"), -0.01),
                (("modulators", 1, "mod_freq"), -0.01),
            ),
            ScenarioError,
            "scenario.modulators[0]",
            2,
        ),
        (
            _with(minimal_freq_doc(), (("modulators", 1, "index"), 20.5)),
            ScenarioError,
            "scenario.modulators[1]",
            2,
        ),
        (
            _with(minimal_freq_doc(), (("modulators", 1, "mod_freq"), 0.02)),
            MismatchedDrive,
            "scenario.modulators: ",
            3,
        ),
        (
            _with(
                minimal_freq_doc(),
                (("exact_grid",), True),
                (("modulators", 0, "mod_freq"), 0.013),
                (("modulators", 1, "mod_freq"), 0.013),
            ),
            GridIncommensurate,
            "scenario.exact_grid: ",
            3,
        ),
        (
            _with(minimal_time_doc(), (("grid", "n_points"), 100)),
            ScenarioError,
            "scenario.grid: ",
            2,
        ),
        (
            _with(minimal_time_doc(), (("source",), {"mode": "physical", "gain": -1})),
            ScenarioError,
            "scenario.source: ",
            2,
        ),
        (
            _with(minimal_time_doc(), (("source", "envelope_bandwidth"), 1e-200)),
            ScenarioError,
            "scenario.source: ",
            2,
        ),
        # A number is read before the source's boundary, so its path is not
        # prefixed twice.
        (
            _with(minimal_time_doc(), (("source",), {"mode": "physical", "gain": "x"})),
            ScenarioError,
            "scenario.source.gain: ",
            2,
        ),
    ],
    ids=[
        "phase_orders",
        "mod_freq_positive",
        "index_bound",
        "drive_match",
        "commensurability",
        "grid",
        "physical_source",
        "analytic_source",
        "source_number",
    ],
)
def test_each_scenario_rule_names_its_path_and_exit_code(
    doc, error, prefix, exit_code, tmp_path, capsys
):
    with pytest.raises(error) as caught:
        parse_scenario(doc)
    assert type(caught.value) is error
    assert str(caught.value).startswith(prefix)

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == exit_code
    kind = "scenario error" if exit_code == 2 else "precondition error"
    assert capsys.readouterr().err.startswith(f"{kind}: {prefix}")
    assert not out.exists()


def _exact_doc(n_points, index1, index2):
    return _with(
        minimal_freq_doc(),
        (("grid",), {"n_points": n_points, "delta_omega": 0.0025}),
        (("source",), {"mode": "analytic", "envelope_bandwidth": 0.05}),
        (("modulators",), [{"mod_freq": 0.0025, "index": i} for i in (index1, index2)]),
        (("exact_grid",), True),
    )


def _traced_peak(fn):
    delay_cells.cache_clear()  # measure what a cold run needs
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_estimate_scales_with_samples_and_exact_comb_lines():
    modulators = ((0.01, 20.0), (0.01, -20.0))
    assert [build_comb(*m).orders.size for m in modulators] == [89, 89]  # 177 joint lines
    per_sample = estimate_peak_bytes(1)
    assert estimate_peak_bytes(4096) == 4096 * per_sample
    assert estimate_peak_bytes(2**40) == 2**40 * per_sample
    per_line = (estimate_peak_bytes(1, modulators) - per_sample) / 177
    assert per_line >= 16  # at least the complex amplitude of each ridge sample
    single = ((0.01, 0.0), (0.01, 0.0))
    assert estimate_peak_bytes(1, single) == per_sample + per_line
    # The largest shipped and benchmark shapes sit far below the budget.
    assert 100 * estimate_peak_bytes(65536) < MEMORY_BUDGET_BYTES
    assert 100 * estimate_peak_bytes(4096, modulators) < MEMORY_BUDGET_BYTES


@pytest.mark.parametrize(
    "doc, run",
    [
        (
            _with(
                minimal_time_doc(),
                (("grid",), {"n_points": 16384, "delta_omega": 0.01}),
                (("source",), {"mode": "physical", "gain": 0.5, "mismatch_coeffs": [0.5]}),
                (("configuration",), "intra_time"),
                (("elements", 0, "phase_coeffs"), [0.0, 2.0]),
            ),
            "run_scenario",
        ),
        (_exact_doc(4096, 20.0, 20.0), "execute"),
    ],
    ids=["temporal_16384", "exact_4096_177_lines"],
)
def test_peak_estimate_covers_a_traced_run(doc, run, tmp_path):
    scenario = parse_scenario(doc)
    modulators = scenario.modulators if scenario.exact_grid else None
    estimate = estimate_peak_bytes(scenario.grid.n_points, modulators)
    if run == "execute":
        peak = _traced_peak(lambda: execute(scenario))
    else:
        peak = _traced_peak(lambda: run_scenario(scenario, tmp_path / "out"))
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("n_points, delta_omega", [(4096, 0.01), (65536, 0.001)])
def test_peak_estimate_covers_a_five_order_run(n_points, delta_omega, tmp_path):
    """Two elements with all five orders make the grid hold four detuning
    powers (32 bytes per sample) besides the transfers, the trace and its
    text; the estimate still covers the traced peak."""
    doc = _with(
        minimal_time_doc(),
        (("grid",), {"n_points": n_points, "delta_omega": delta_omega}),
        (("source",), {"mode": "physical", "gain": 0.5, "mismatch_coeffs": [0.5]}),
        (("configuration",), "intra_time"),
        (("elements", 0, "phase_coeffs"), [0.0, 2.0, 0.1, 0.01, 0.001]),
        (("elements", 1, "phase_coeffs"), [0.0, 1.0, 0.05, 0.005, 0.0005]),
    )
    scenario = parse_scenario(doc)
    peak = _traced_peak(lambda: run_scenario(scenario, tmp_path / "out"))
    assert peak <= estimate_peak_bytes(n_points)


@pytest.mark.parametrize("n_points, delta_omega", [(4096, 0.01), (65536, 0.0025)])
def test_peak_estimate_covers_a_gain_sweep(n_points, delta_omega, tmp_path):
    """The grid keeps the gain-free factor exp(i DL/2) that a gain sweep's
    points share (16 bytes per sample) besides one point's source,
    transfers, traces and trace text; on one worker the estimate still
    covers the traced peak (300-363 bytes per sample)."""
    doc = _with(
        minimal_time_doc(),
        (("grid",), {"n_points": n_points, "delta_omega": delta_omega}),
        (("source",), {"mode": "physical", "gain": 0.5, "mismatch_coeffs": [0.5]}),
        (("elements", 0, "phase_coeffs"), [0.0, 2.0]),
        (("elements", 1, "phase_coeffs"), [0.0, -1.0]),
        (("sweep",), {"parameter": "source.gain", "values": [0.2, 0.9, 1.5]}),
    )
    scenario = parse_scenario(doc)
    peak = _traced_peak(lambda: run_scenario(scenario, tmp_path / "out", workers=1))
    assert peak <= estimate_peak_bytes(n_points)


@pytest.mark.parametrize("n_points", [2**30, 2**40])
def test_oversized_grid_refused_before_allocation(n_points):
    doc = _with(minimal_time_doc(), (("grid", "n_points"), n_points))
    refusals = []

    def parse():
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(doc)
        refusals.append(str(caught.value))

    assert _traced_peak(parse) < 2**20
    assert refusals[0].startswith(f"scenario.grid.n_points: {n_points} samples need ")


def test_exact_comb_lines_count_against_the_budget():
    n_points = 2**20  # parses as a narrowband scenario; 177 exact lines exceed the budget
    assert estimate_peak_bytes(n_points) < MEMORY_BUDGET_BYTES
    parse_scenario(_with(_exact_doc(n_points, 20.0, 20.0), (("exact_grid",), False)))
    with pytest.raises(ScenarioError, match=r"^scenario\.grid\.n_points: "):
        parse_scenario(_exact_doc(n_points, 20.0, 20.0))
    parse_scenario(_exact_doc(n_points, 1.0, 1.0))


@pytest.mark.parametrize(
    "argv_extra, sweep",
    [
        (["--grid-points", str(2**40)], None),
        ([], {"parameter": "grid.n_points", "values": [256, 2**30]}),
    ],
    ids=["override", "sweep_value"],
)
def test_oversized_grid_exits_2_naming_its_path(argv_extra, sweep, tmp_path, capsys):
    doc = minimal_time_doc()
    if sweep is not None:
        doc["sweep"] = sweep
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), *argv_extra]) == 2
    prefix = "scenario error: " if sweep is None else "scenario error: scenario.sweep.values[1]: "
    assert capsys.readouterr().err.startswith(prefix + "scenario.grid.n_points: ")
    assert not out.exists()


def test_echo_keeps_short_values_and_cuts_long_ones():
    assert echo("fwhm") == "'fwhm'"
    assert echo([1.5, "x"]) == "[1.5, 'x']"
    assert echo(2**64) == "18446744073709551616"
    exact = "z" * (ECHO_LIMIT - 2)
    assert echo(exact) == repr(exact)
    assert echo(exact + "z") == repr(exact + "z")[: ECHO_LIMIT - 3] + "..."
    assert len(echo(list(range(10**5)))) == ECHO_LIMIT


@pytest.mark.parametrize(
    "n_points, expected",
    [
        (96, "scenario.grid: n_points must be a power of two, got 96"),
        (
            3 * 10**4000,
            "scenario.grid: n_points must be a power of two, got 3" + "0" * (ECHO_LIMIT - 4) + "...",
        ),
    ],
    ids=["short", "4001_digits"],
)
def test_grid_size_is_echoed_bounded_by_the_library(n_points, expected):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(_with(minimal_time_doc(), (("grid", "n_points"), n_points)))
    assert str(caught.value) == expected


def test_echo_names_a_value_nested_beyond_repr():
    nested = []
    for _ in range(10**5):
        nested = [nested]
    assert echo(nested) == "a too deeply nested list"
