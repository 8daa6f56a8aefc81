import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from spdcsim import DispersiveElement, FrequencyGrid, PreconditionError, dispersive_transfer
from spdcsim.grid import memo


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


def test_numpy_integer_size_is_stored_as_an_int_and_other_types_refused():
    g = FrequencyGrid(np.int64(64), 0.1)
    assert type(g.n_points) is int and g == FrequencyGrid(64, 0.1)
    with pytest.raises(ValueError, match=r"^n_points must be a power of two, got 96$"):
        FrequencyGrid(np.int32(96), 0.1)
    for bad in (64.0, "64", np.float64(64.0)):
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got "):
            FrequencyGrid(bad, 0.1)


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


def recomputed():
    pytest.fail("memo computed again for an equal key")


def test_memo_makes_an_array_read_only_and_stores_other_values_as_they_are():
    owner = SimpleNamespace()
    array = memo(owner, "_array", None, lambda: np.arange(4.0))
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 1.0
    assert memo(owner, "_array", None, recomputed) is array
    values = [0.5, False]
    assert memo(owner, "_values", None, lambda: values) is values
    values.append(1.0)  # not frozen
    assert memo(owner, "_values", None, recomputed) == [0.5, False, 1.0]


def test_memo_hits_an_equal_key_held_by_another_object():
    owner = SimpleNamespace()
    first = memo(owner, "_value", FrequencyGrid(64, 0.1), object)
    assert memo(owner, "_value", FrequencyGrid(64, 0.1), recomputed) is first


def test_memo_recomputes_and_replaces_the_entry_for_another_key():
    owner = SimpleNamespace()
    assert memo(owner, "_value", FrequencyGrid(64, 0.1), lambda: "fine") == "fine"
    assert memo(owner, "_value", FrequencyGrid(64, 0.2), lambda: "coarse") == "coarse"
    assert vars(owner) == {"_value": (FrequencyGrid(64, 0.2), "coarse")}
    assert memo(owner, "_value", FrequencyGrid(64, 0.1), lambda: "again") == "again"


def test_memo_stores_nothing_when_compute_raises():
    def refused():
        raise PreconditionError("refused")

    owner = SimpleNamespace()
    with pytest.raises(PreconditionError):
        memo(owner, "_value", 1, refused)
    assert vars(owner) == {}
    assert memo(owner, "_value", 1, lambda: "one") == "one"
    with pytest.raises(PreconditionError):
        memo(owner, "_value", 2, refused)
    assert memo(owner, "_value", 1, recomputed) == "one"
    # An overflowing transfer is refused on every call, not only the first.
    g = FrequencyGrid(64, 1e61)
    element = DispersiveElement((0.0, 0.0, 0.0, 0.0, 1.0))
    for _ in range(2):
        with pytest.raises(PreconditionError, match="dispersive phase is not finite"):
            dispersive_transfer(element, g)
    assert "_transfer" not in vars(element)


def test_memo_entry_takes_no_part_in_equality_or_hash():
    grid = FrequencyGrid(256, 0.0025)
    element = DispersiveElement((0.0, 2.0))
    dispersive_transfer(element, grid)
    assert {"_transfer"} <= set(vars(element)) and {"_omega_power_2"} <= set(vars(grid))
    fresh = (FrequencyGrid(256, 0.0025), DispersiveElement((0.0, 2.0)))
    for memoised, other in zip((grid, element), fresh):
        assert memoised == other and hash(memoised) == hash(other)
