import numpy as np
import pytest

from spdcsim import FrequencyGrid


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
