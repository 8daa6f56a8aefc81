"""Golden tests of the CSV writers against a row-by-row reference writer.

The reference formats every value on its own with ``format(float(x), ".17g")``
and builds each row with an f-string.  The writers of ``outputs`` must produce the
same bytes: on small scenarios of every configuration, on the shipped
scenarios, and on arrays of awkward doubles.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_joint import reference_joint_text, scatter
from documents import ANALYTIC, PHYSICAL, elements, modulators, spectral, temporal
from spdcsim import outputs, runner
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
    return reference_joint_text(joint.grid.omegas, *scatter(joint))


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


def _temporal(config, source, e0, e1, **changes):
    return temporal(configuration=config, source=source, elements=elements(e0, e1), **changes)


def _spectral(config, n, d_omega, bandwidth, mod_freq, index1, index2, exact):
    return spectral(
        configuration=config,
        grid={"n_points": n, "delta_omega": d_omega},
        source={**ANALYTIC, "envelope_bandwidth": bandwidth},
        modulators=modulators(mod_freq, index1, index2),
        exact_grid=exact,
    )


SMALL_DOCS = {
    "inter_time": _temporal("inter_time", ANALYTIC, [0.0, 3.0], [0.0, -1.5]),
    "intra_time_physical": _temporal("intra_time", PHYSICAL, [0.0, 1.0, 0.4], [0.0, 2.0]),
    "inter_time_sweep": _temporal(
        "inter_time", ANALYTIC, [0.0, 2.0], [0.0, 0.0],
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
    assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def test_trace_delay_text_follows_the_bits_of_the_axis():
    # 0.0 and -0.0 compare equal but print differently: a reused delay
    # column must never carry the sign of the previous trace's zero.
    values = np.array([1.0, 2.0, 3.0])
    for zero in (0.0, -0.0, 0.0):
        corr = Correlation1D(np.array([-1.0, zero, 1.0]), values, 1.0 / 3.0, 0.0)
        assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def _trace(values: np.ndarray, background: float) -> Correlation1D:
    tau = np.linspace(-10.0, 10.0, values.size, endpoint=False)
    return Correlation1D(tau_grid=tau, values=values, background=background, peak_tau=0.0)


def _doubles(*bit_patterns) -> list:
    return np.array(bit_patterns, dtype=np.uint64).view(np.float64).tolist()


def test_trace_mostly_background_with_zeros_and_nans():
    # Values that compare equal (0.0, -0.0) or never compare equal (NaNs of
    # any payload or sign) must each keep the text of their own bits.
    rng = np.random.default_rng(11)
    background = 0.1 + 0.2  # 0.30000000000000004
    odd = [0.0, -0.0, math.inf, background * (1.0 + 2**-52), 1.0 / 3.0]
    odd += _doubles(0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000)
    values = np.full(1024, background)
    where = rng.choice(values.size, size=200, replace=False)
    values[where] = rng.choice(np.array(odd), size=where.size)
    values[where[: len(odd)]] = odd  # every odd value at least once
    bits = values.view(np.uint64)
    assert np.count_nonzero(bits == np.float64(background).view(np.uint64)) > 800
    assert len(set(bits[np.isnan(values)].tolist())) == 3
    corr = _trace(values, background)
    assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def test_trace_of_one_distinct_value():
    for value in (2.0 / 3.0, -0.0, math.nan):
        corr = _trace(np.full(256, value), 2.0 / 3.0)
        assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def test_trace_of_all_distinct_values():
    values = _special_column(512, 8)
    assert np.unique(values.view(np.uint64)).size == values.size
    corr = _trace(values, 1.0 / 7.0)
    assert written(outputs.trace_csv(corr)) == reference_trace(corr)


TRACE_CHUNK = outputs.TRACE_CHUNK_ROWS

# Signed zeros, the smallest and largest subnormals, signed infinities and
# NaNs of several signs and payloads (the last one signalling).
ODD_BITS = [
    0x0000000000000000,
    0x8000000000000000,
    0x0000000000000001,
    0x800FFFFFFFFFFFFF,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF8000000000001,
    0xFFF8000000000000,
    0x7FF0000000000001,
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1, 3 * TRACE_CHUNK + 5])
    | st.integers(1, 3 * TRACE_CHUNK),
    patterns=st.lists(st.floats(width=64), min_size=1, max_size=4),
    background=st.floats(width=64),
    share=st.floats(0.0, 1.0),
    fresh_share=st.sampled_from([0.0, 0.5, 1.0]),
    span=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_across_chunks_matches_reference(
    n, patterns, background, share, fresh_share, span, seed
):
    # A few repeated bit patterns, the first one filling the rest of the
    # trace as a background would, mixed with odd doubles at a drawn share
    # of the rows, and then with random bit patterns, nearly all distinct,
    # at a drawn share; lengths at and around the chunk boundaries.
    rng = np.random.default_rng(seed)
    pool = np.concatenate([np.array(patterns).view(np.uint64), np.array(ODD_BITS, dtype=np.uint64)])
    bits = np.full(n, pool[0])
    mixed = rng.random(n) < share
    bits[mixed] = pool[rng.integers(0, pool.size, np.count_nonzero(mixed))]
    fresh = rng.random(n) < fresh_share
    bits[fresh] = rng.integers(0, 2**64, np.count_nonzero(fresh), dtype=np.uint64)
    tau = np.linspace(-span, span, n, endpoint=False)
    corr = Correlation1D(tau, bits.view(np.float64), background, 0.0)
    assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def test_traces_on_axes_of_different_lengths_written_in_turn():
    # The cached delay cells switch between the two axes at every trace.
    longer = _trace(_special_column(2 * TRACE_CHUNK + 1, 9), 0.25)
    shorter = _trace(_special_column(TRACE_CHUNK - 3, 10), -0.0)
    for corr in (longer, shorter, longer, shorter):
        assert written(outputs.trace_csv(corr)) == reference_trace(corr)


def test_comb_special_values():
    m = 48
    comb = JointComb(
        grid=FrequencyGrid(64, 0.5),
        configuration="intra_freq",
        mod_freq=0.1,
        combined_index=1.0 / 3.0,
        orders=np.array([-3, -1, 0, 2, 7], dtype=np.int64),
        coefficients=np.array([5e-324, 0.1, 1.0 / 3.0, -0.0, 1e17]),
        envelope_axis=_special_column(m, 3),
        envelope=_special_column(m, 4),
    )
    assert written(outputs.comb_csv(comb)) == reference_comb(comb)


def test_joint_special_values_across_chunks():
    # With one grid step per line the 255 lines cover all 128^2 cells, most of
    # them nonzero: more rows than one formatting chunk.
    n = 128
    orders = np.arange(-(n - 1), n)
    for configuration in ("inter_freq", "intra_freq"):
        joint = JointGrid(
            grid=FrequencyGrid(n, 0.1),
            configuration=configuration,
            m_ratio=1,
            orders=orders,
            profiles=_special_column(orders.size * n, 5).reshape(orders.size, n),
            background_factor_1=_special_column(n, 6),
            background_factor_2=_special_column(n, 7),
        )
        for line, profile in zip(orders.tolist(), joint.profiles):
            off = np.ones(n, dtype=bool)
            off[joint.ridge_indices(line)[0]] = False
            profile[off] = 0.0  # zero where the line leaves the grid
            profile[::3] = 0.0
        joint.profiles[n - 1, 7] = -0.0  # not a nonzero cell
        assert np.count_nonzero(joint.profiles) > outputs.JOINT_CHUNK_ROWS
        with np.errstate(over="ignore", invalid="ignore"):  # background products
            assert written(outputs.joint_csv(joint)) == reference_joint(joint)
