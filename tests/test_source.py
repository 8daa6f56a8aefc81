import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim import (
    FrequencyGrid,
    PhaseMismatch,
    PreconditionError,
    SourceSpec,
    SpdcSimError,
    evaluate_analytic,
    evaluate_source,
    evaluate_uv,
    gamma_of,
)
from spdcsim.oracle import perturbative_v


def test_gamma_matched():
    assert gamma_of(1.0, 0.0) == pytest.approx(1.0 + 0.0j)


def test_gamma_pure_mismatch_is_imaginary():
    assert gamma_of(0.0, 2.0) == pytest.approx(1.0j)


def test_gamma_branch_point_is_zero():
    assert gamma_of(0.5, 1.0) == 0.0 + 0.0j


def test_gamma_vectorized():
    dl = np.array([0.0, 1.0, 4.0])
    gl = gamma_of(1.0, dl)
    assert gl[0] == pytest.approx(1.0)
    assert gl[1] == pytest.approx(np.sqrt(0.75))
    assert gl[2] == pytest.approx(1j * np.sqrt(3.0))


def test_uv_zero_gain_is_identity():
    g = FrequencyGrid(128, 0.1)
    src = evaluate_uv(SourceSpec.physical(0.0, [2.0, 0.3]), g)
    assert np.allclose(src.U, 1.0, atol=1e-14)
    assert np.allclose(src.V, 0.0, atol=1e-14)
    assert src.flux_n == 0.0


def test_uv_matched_values_at_center():
    g = FrequencyGrid(128, 0.1)
    src = evaluate_uv(SourceSpec.physical(1.0), g)
    center = g.index_of_tau_zero()
    assert src.U[center] == pytest.approx(np.cosh(1.0), rel=1e-12)
    assert src.V[center] == pytest.approx(-1j * np.sinh(1.0), rel=1e-12)


def test_uv_low_gain_sinc_magnitude():
    # d1 such that DL = pi at Omega* = 2 rad/ps: |V| = gain * sinc(pi/2) = gain*2/pi
    g = FrequencyGrid(64, 0.5)
    d1 = np.pi / 2.0
    src = evaluate_uv(SourceSpec.physical(0.01, [d1]), g)
    k = np.argmin(np.abs(g.omegas - 2.0))
    assert g.omegas[k] == 2.0
    assert abs(src.V[k]) == pytest.approx(0.01 * 2.0 / np.pi, rel=1e-4)


def test_uv_low_gain_matches_perturbative_oracle():
    g = FrequencyGrid(256, 0.1)
    gain = 0.01
    mism = PhaseMismatch((0.8, 0.05))
    src = evaluate_uv(SourceSpec(mode="physical", gain=gain, mismatch=mism), g)
    vp = perturbative_v(gain, mism, g)
    assert np.max(np.abs(src.V - vp)) < 10.0 * gain**2


@settings(max_examples=25, deadline=None)
@given(
    gain=st.floats(min_value=0.0, max_value=5.0),
    d1=st.floats(min_value=-3.0, max_value=3.0),
    d2=st.floats(min_value=-1.0, max_value=1.0),
)
def test_unitarity_property(gain, d1, d2):
    g = FrequencyGrid(128, 0.1)
    src = evaluate_uv(SourceSpec.physical(gain, [d1, d2]), g)
    worst = np.max(np.abs(np.abs(src.U) ** 2 - np.abs(src.V) ** 2 - 1.0))
    assert worst < 1e-10


def test_branch_point_continuity():
    # DL just below/above 2*gain: U and V must be continuous across the branch
    g = FrequencyGrid(64, 0.1)
    gain = 1.3
    for eps in (-1e-9, 1e-9):
        d1 = 2.0 * gain * (1.0 + eps)  # DL = d1 at Omega = 1
        src = evaluate_uv(SourceSpec.physical(gain, [d1]), g)
        k = np.argmin(np.abs(g.omegas - 1.0))
        if eps < 0:
            u_lo, v_lo = src.U[k], src.V[k]
        else:
            u_hi, v_hi = src.U[k], src.V[k]
    assert abs(u_hi - u_lo) / abs(u_lo) < 1e-6
    assert abs(v_hi - v_lo) / abs(v_lo) < 1e-6


def test_flux_strictly_increasing_in_gain():
    g = FrequencyGrid(128, 0.1)
    fluxes = [
        evaluate_uv(SourceSpec.physical(gain, [0.7]), g).flux_n
        for gain in (0.1, 0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b > a for a, b in zip(fluxes, fluxes[1:]))


def test_r_pairs_u_with_reflected_v():
    g = FrequencyGrid(64, 0.5)
    src = evaluate_uv(SourceSpec.physical(0.7, [0.3, 0.1]), g)
    for k in (1, 10, 33, 63):
        assert src.R[k] == pytest.approx(src.U[k] * src.V[64 - k], rel=1e-14)
    assert src.R[0] == pytest.approx(src.U[0] * src.V[0], rel=1e-14)


def test_analytic_envelope_values():
    g = FrequencyGrid(512, 0.05)
    src = evaluate_analytic(SourceSpec.analytic(1.0), g)
    center = g.index_of_tau_zero()
    assert src.R[center] == 1.0
    k = np.argmin(np.abs(g.omegas - 2.0))  # Omega = 2B
    assert src.R[k].real == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert np.allclose(src.S, np.abs(src.R) ** 2, atol=1e-15)
    assert src.U is None and src.V is None


def test_analytic_flux_matches_gaussian_integral():
    g = FrequencyGrid(512, 0.05)
    src = evaluate_analytic(SourceSpec.analytic(1.0), g)
    assert src.flux_n == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-6)


@pytest.mark.parametrize("bandwidth", [1e-200, 1e160])
def test_bandwidth_whose_envelope_denominator_leaves_range_refused(bandwidth):
    # 4*B^2 is zero below B ~ 1e-162 and infinite above B ~ 6.7e153.
    message = f"envelope_bandwidth {bandwidth} is out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        SourceSpec.analytic(bandwidth)


def test_extreme_but_valid_envelopes_evaluate_silently():
    pointlike = evaluate_analytic(SourceSpec.analytic(1e-161), FrequencyGrid(64, 0.1))
    assert pointlike.S.tolist() == [0.0] * 32 + [1.0] + [0.0] * 31
    overflowing_grid = evaluate_analytic(SourceSpec.analytic(1.0), FrequencyGrid(64, 1e300))
    assert overflowing_grid.S.tolist() == pointlike.S.tolist()


def test_evaluate_source_dispatch():
    g = FrequencyGrid(64, 0.1)
    assert evaluate_source(SourceSpec.physical(0.5), g).mode == "physical"
    assert evaluate_source(SourceSpec.analytic(2.0), g).mode == "analytic"


def test_mode_validation():
    with pytest.raises(ValueError):
        SourceSpec(mode="squeezed")
    with pytest.raises(ValueError):
        SourceSpec.physical(-0.1)
    with pytest.raises(ValueError):
        SourceSpec.analytic(0.0)
    with pytest.raises(ValueError):
        PhaseMismatch((1, 2, 3, 4, 5, 6, 7))
    g = FrequencyGrid(64, 0.1)
    with pytest.raises(ValueError):
        evaluate_uv(SourceSpec.analytic(1.0), g)
    with pytest.raises(ValueError):
        evaluate_analytic(SourceSpec.physical(1.0), g)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_spec_numbers_named(bad):
    with pytest.raises(ValueError, match="^envelope_bandwidth must be finite"):
        SourceSpec.analytic(bad)
    with pytest.raises(ValueError, match="^center_frequency must be finite"):
        SourceSpec.physical(1.0, center_frequency=bad)


@pytest.mark.parametrize(
    "gain, mismatch, deviation",
    [(300.0, (), "1.366e+244"), (0.5, (1e300,), "nan")],
    ids=["gain_300", "mismatch_1e300"],
)
def test_overflowing_source_is_a_silent_precondition_error(gain, mismatch, deviation):
    spec = SourceSpec.physical(gain, mismatch)
    with pytest.raises(PreconditionError) as caught:
        evaluate_uv(spec, FrequencyGrid(256, 0.05))
    assert str(caught.value) == f"Bogoliubov unitarity violated by {deviation}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinite_gain_fails_the_unitarity_gate():
    with pytest.raises(SpdcSimError, match="unitarity"):
        evaluate_uv(SourceSpec.physical(float("inf")), FrequencyGrid(64, 0.1))


def test_center_frequency_is_metadata_only():
    g = FrequencyGrid(64, 0.1)
    a = evaluate_uv(SourceSpec.physical(1.0, [0.5], center_frequency=2415.0), g)
    b = evaluate_uv(SourceSpec.physical(1.0, [0.5], center_frequency=None), g)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.V, b.V)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_gain_fails_the_unitarity_gate():
    # NaN > tol is False: the gate must be written so that NaN fails it.
    with pytest.raises(SpdcSimError, match="unitarity"):
        evaluate_uv(SourceSpec.physical(float("nan")), FrequencyGrid(64, 0.1))
