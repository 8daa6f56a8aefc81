import warnings

import numpy as np
import pytest

from spdcsim import DispersiveElement, FrequencyGrid, PreconditionError, dispersive_transfer


def test_omega_samples_symmetric_convention():
    g = FrequencyGrid(64, 0.5)
    assert g.omegas[0] == -16.0
    assert g.omegas[32] == 0.0
    assert g.omegas[-1] == 15.5
    assert g.omega_max == 16.0


def test_delay_grid_pairing():
    g = FrequencyGrid(128, 0.25)
    assert g.delta_tau == pytest.approx(2 * np.pi / (128 * 0.25), rel=1e-15)
    assert g.taus[g.index_of_tau_zero()] == 0.0
    assert g.tau_window == pytest.approx(128 * g.delta_tau)


@pytest.mark.parametrize("n", [63, 96, 100, 32, 0])
def test_rejects_non_power_of_two_or_too_small(n):
    with pytest.raises(ValueError):
        FrequencyGrid(n, 0.1)


def test_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        FrequencyGrid(64, 0.0)
    with pytest.raises(ValueError):
        FrequencyGrid(64, -1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_rejects_non_finite_spacing(bad):
    with pytest.raises(ValueError, match="delta_omega must be finite and positive"):
        FrequencyGrid(64, bad)


def test_reflect_maps_omega_to_minus_omega():
    g = FrequencyGrid(64, 0.5)
    idx = np.arange(64)
    reflected = g.reflect(idx.astype(float))
    # k=0 endpoint maps to itself, everything else to n-k
    assert reflected[0] == 0
    for k in range(1, 64):
        assert reflected[k] == 64 - k
    # so reflect(f)(Omega) samples f at -Omega wherever -Omega is on the grid
    omegas = g.omegas
    ref_om = g.reflect(omegas)
    assert np.all(ref_om[1:] == -omegas[1:])


def test_reflect_is_involution():
    g = FrequencyGrid(64, 0.1)
    rng = np.random.default_rng(7)
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.array_equal(g.reflect(g.reflect(f)), f)


def test_reflect_rejects_wrong_shape():
    g = FrequencyGrid(64, 0.1)
    with pytest.raises(ValueError):
        g.reflect(np.zeros(65))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_omega_power_is_cached_read_only(k):
    g = FrequencyGrid(256, 0.0025)
    power = g.omega_power(k)
    assert not power.flags.writeable
    with pytest.raises(ValueError):
        power[0] = 1.0
    assert g.omega_power(k) is power
    # An equal grid built separately raises its own power to the same bits.
    other = FrequencyGrid(256, 0.0025)
    assert other == g and hash(other) == hash(g)
    assert other.omega_power(k) is not power
    assert other.omega_power(k).tobytes() == power.tobytes()
    assert power.tobytes() == (g.omegas**k).tobytes()


def test_omega_power_one_is_the_detunings():
    g = FrequencyGrid(64, 0.5)
    assert g.omega_power(1) is g.omegas


def test_overflowing_power_is_refused_by_the_transfer_without_warning():
    g = FrequencyGrid(64, 1e61)  # Omega_max = 3.2e62, whose fifth power overflows
    element = DispersiveElement((0.0, 0.0, 0.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="dispersive phase is not finite"):
            dispersive_transfer(element, g)
        assert np.isinf(g.omega_power(5)[0])
        assert np.all(np.isfinite(g.omega_power(2)))
