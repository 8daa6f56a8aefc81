"""Golden tests of the CSV writers against a row-by-row reference writer.

The reference formats every value on its own with ``format(float(x), ".17g")``
and builds each row with an f-string.  The runner's writers must produce the
same bytes: on small scenarios of every configuration, on the shipped
scenarios, and on arrays of awkward doubles.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from spdcsim import runner
from spdcsim.correlators import Correlation1D, JointComb, JointGrid
from spdcsim.grid import FrequencyGrid
from spdcsim.scenario import load_scenario, parse_scenario, set_parameter

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SPECIAL = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    1.5e-310,
    1e16,
    1e17,
    -1e17,
    0.1,
    1.0 / 3.0,
    -2.0 / 3.0,
    1.7976931348623157e308,
    123456789012345678.0,
    math.inf,
    -math.inf,
    math.nan,
]


def _ref(x) -> str:
    return format(float(x), ".17g")


def reference_trace(corr: Correlation1D) -> str:
    lines = ["tau_ps,g2,background"]
    bg = _ref(corr.background)
    for tau, value in zip(corr.tau_grid, corr.values):
        lines.append(f"{_ref(tau)},{_ref(value)},{bg}")
    return "\n".join(lines) + "\n"


def reference_comb(comb: JointComb) -> str:
    lines = ["n,coefficient,ridge,envelope_axis_radps,envelope_value"]
    for order, coeff in zip(comb.orders, comb.coefficients):
        ridge = _ref(order * comb.mod_freq)
        for axis, env in zip(comb.envelope_axis, comb.envelope):
            lines.append(f"{int(order)},{_ref(coeff)},{ridge},{_ref(axis)},{_ref(env)}")
    return "\n".join(lines) + "\n"


def reference_joint(joint: JointGrid) -> str:
    omegas = joint.grid.omegas
    lines = ["omega1_radps,omega2_radps,structure,background"]
    for i, j in zip(*np.nonzero(joint.structure)):
        lines.append(
            f"{_ref(omegas[i])},{_ref(omegas[j])},"
            f"{_ref(joint.structure[i, j])},{_ref(joint.background[i, j])}"
        )
    return "\n".join(lines) + "\n"


def reference_sweep(scenario, values, outcomes) -> str:
    keys = ("rms_width_ps", "fwhm_ps", "s_over_b") if scenario.is_temporal else ("comb_leakage",)
    lines = ["param," + ",".join(keys)]
    for value, outcome in zip(values, outcomes):
        lines.append(",".join([_ref(value)] + [_ref(outcome.analyses[k]) for k in keys]))
    return "\n".join(lines) + "\n"


def reference_point_file(result) -> tuple:
    if isinstance(result, Correlation1D):
        return "trace.csv", reference_trace(result)
    if isinstance(result, JointComb):
        return "comb.csv", reference_comb(result)
    return "joint.csv", reference_joint(result)


def written(chunks) -> str:
    return "".join(chunks)


def assert_run_matches_reference(scenario, out_dir: Path) -> None:
    runner.run_scenario(scenario, out_dir)
    if scenario.sweep is None:
        name, text = reference_point_file(runner.execute(scenario).result)
        assert (out_dir / name).read_bytes() == text.encode()
        return
    resolved = scenario.resolved()
    outcomes = []
    for i, value in enumerate(scenario.sweep.values):
        point = parse_scenario(set_parameter(resolved, scenario.sweep.parameter, value))
        outcome = runner.execute(point)
        outcomes.append(outcome)
        name, text = reference_point_file(outcome.result)
        assert (out_dir / f"point_{i:04d}_{name}").read_bytes() == text.encode()
    expected = reference_sweep(scenario, scenario.sweep.values, outcomes)
    assert (out_dir / "sweep.csv").read_bytes() == expected.encode()


def _temporal(config, source, e0, e1, sweep=None):
    doc = {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": 256, "delta_omega": 0.05},
        "source": source,
        "elements": [{"phase_coeffs": e0}, {"phase_coeffs": e1}],
    }
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


def _spectral(config, n, d_omega, bandwidth, mod_freq, index1, index2, exact):
    return {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": n, "delta_omega": d_omega},
        "source": {"mode": "analytic", "envelope_bandwidth": bandwidth},
        "modulators": [
            {"mod_freq": mod_freq, "index": index1},
            {"mod_freq": mod_freq, "index": index2},
        ],
        "exact_grid": exact,
    }


SMALL_DOCS = {
    "inter_time": _temporal(
        "inter_time", {"mode": "analytic", "envelope_bandwidth": 1.0}, [0.0, 3.0], [0.0, -1.5]
    ),
    "intra_time_physical": _temporal(
        "intra_time",
        {"mode": "physical", "gain": 0.6, "mismatch_coeffs": [0.5]},
        [0.0, 1.0, 0.4],
        [0.0, 2.0],
    ),
    "inter_time_sweep": _temporal(
        "inter_time",
        {"mode": "analytic", "envelope_bandwidth": 1.0},
        [0.0, 2.0],
        [0.0, 0.0],
        sweep={"parameter": "elements.1.phase_coeffs.1", "values": [-2.0, 0.0, 1.0 / 3.0]},
    ),
    "inter_freq_narrowband": _spectral("inter_freq", 256, 0.5, 60.0, 0.01, 1.2, 1.05, False),
    "intra_freq_narrowband": _spectral("intra_freq", 256, 0.5, 60.0, 0.01, 3.2, 0.95, False),
    "inter_freq_exact": _spectral("inter_freq", 128, 0.0025, 0.05, 0.02, 1.2, 0.7, True),
    "intra_freq_exact": _spectral("intra_freq", 128, 0.0025, 0.05, 0.02, 1.2, 0.7, True),
}


@pytest.mark.parametrize("name", sorted(SMALL_DOCS))
def test_small_scenarios_match_reference(name, tmp_path):
    assert_run_matches_reference(parse_scenario(SMALL_DOCS[name]), tmp_path / name)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenarios_match_reference(path, tmp_path):
    assert_run_matches_reference(load_scenario(path), tmp_path / path.stem)


def _special_column(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: len(SPECIAL)] = SPECIAL
    return rng.permutation(values)


def test_trace_special_values():
    n = 64
    corr = Correlation1D(
        tau_grid=_special_column(n, 1),
        values=_special_column(n, 2),
        background=5e-324,
        peak_tau=0.0,
    )
    assert written(runner._trace_csv(corr)) == reference_trace(corr)


def test_trace_delay_text_follows_the_bits_of_the_axis():
    # 0.0 and -0.0 compare equal but print differently: a reused delay
    # column must never carry the sign of the previous trace's zero.
    values = np.array([1.0, 2.0, 3.0])
    for zero in (0.0, -0.0, 0.0):
        corr = Correlation1D(np.array([-1.0, zero, 1.0]), values, 1.0 / 3.0, 0.0)
        assert written(runner._trace_csv(corr)) == reference_trace(corr)


def test_comb_special_values():
    m = 48
    comb = JointComb(
        grid=FrequencyGrid(64, 0.5),
        ridge_axis="omega_minus",
        mod_freq=0.1,
        combined_index=1.0 / 3.0,
        orders=np.array([-3, -1, 0, 2, 7], dtype=np.int64),
        coefficients=np.array([5e-324, 0.1, 1.0 / 3.0, -0.0, 1e17]),
        envelope_axis=_special_column(m, 3),
        envelope=_special_column(m, 4),
        background_factor_1=np.ones(64),
        background_factor_2=np.ones(64),
    )
    assert written(runner._comb_csv(comb)) == reference_comb(comb)


def test_joint_special_values_across_chunks():
    # 128^2 cells, most of them nonzero: more rows than one formatting chunk.
    n = 128
    grid = FrequencyGrid(n, 0.1)
    structure = _special_column(n * n, 5).reshape(n, n)
    structure[::3, ::2] = 0.0
    structure[5, 7] = -0.0  # not a nonzero cell
    joint = JointGrid(
        grid=grid,
        ridge_axis="omega_plus",
        mod_freq=0.2,
        m_ratio=2,
        structure=structure,
        background=_special_column(n * n, 6).reshape(n, n),
    )
    assert np.count_nonzero(structure) > runner._JOINT_CHUNK_ROWS
    assert written(runner._joint_csv(joint)) == reference_joint(joint)
