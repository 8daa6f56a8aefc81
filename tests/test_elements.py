import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim import (
    DispersiveElement,
    FrequencyGrid,
    PreconditionError,
    bessel_j,
    build_comb,
    dispersive_transfer,
)
from spdcsim.oracle import bessel_quadrature


class TestDispersiveElement:
    def test_identity_is_all_ones(self):
        g = FrequencyGrid(64, 0.5)
        h = dispersive_transfer(DispersiveElement.identity(), g)
        assert np.array_equal(h, np.ones(64, dtype=complex))

    def test_gdd_phase_value(self):
        # Phi_2 = 2 ps^2 at Omega = 3 rad/ps: arg H = 2*9/2 = 9 rad
        g = FrequencyGrid(64, 0.5)
        h = dispersive_transfer(DispersiveElement((0.0, 2.0)), g)
        k = np.argmin(np.abs(g.omegas - 3.0))
        assert g.omegas[k] == 3.0
        assert np.angle(h[k]) == pytest.approx(np.angle(np.exp(9.0j)), abs=1e-12)
        assert abs(h[k]) == pytest.approx(1.0, abs=1e-14)

    def test_third_order_sign(self):
        # Phi_3 = 0.6 ps^3 at Omega = -2: arg H = 0.6*(-8)/6 = -0.8 rad
        g = FrequencyGrid(64, 0.5)
        h = dispersive_transfer(DispersiveElement((0.0, 0.0, 0.6)), g)
        k = np.argmin(np.abs(g.omegas + 2.0))
        assert np.angle(h[k]) == pytest.approx(-0.8, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=st.lists(st.floats(min_value=-10, max_value=10), min_size=0, max_size=5)
    )
    def test_pure_phase_property(self, coeffs):
        g = FrequencyGrid(64, 0.3)
        h = dispersive_transfer(DispersiveElement(tuple(coeffs)), g)
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-14

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.7976931348623157e308), (1.7e308, -1.7e308)])
    def test_phase_that_overflows_on_the_grid_refused(self, coeffs):
        with pytest.raises(PreconditionError, match="^dispersive phase is not finite"):
            dispersive_transfer(DispersiveElement(coeffs), FrequencyGrid(64, 0.1))

    def test_rejects_too_many_orders(self):
        with pytest.raises(ValueError):
            DispersiveElement((1, 1, 1, 1, 1, 1))


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_jn_at_zero(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_j1_value(self):
        assert bessel_j(1, 1.2) == pytest.approx(0.498289057567215, abs=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.5, 1.2, 5.0, 12.3, 27.0, 50.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 20, 50, 120, 200])
    def test_against_quadrature_oracle(self, n, x):
        assert abs(bessel_j(n, x) - bessel_quadrature(n, x)) < 1e-12

    @pytest.mark.parametrize("n,x", [(1, 2.3), (4, 7.7), (3, 0.4)])
    def test_negative_order_and_argument_reduction(self, n, x):
        assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)
        assert bessel_j(n, -x) == (-1.0) ** n * bessel_j(n, x)
        assert bessel_j(-n, -x) == bessel_j(n, x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(201, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, 50.5)


class TestModulatorComb:
    def test_zero_index_single_line(self):
        comb = build_comb(0.5, 0.0)
        assert list(comb.orders) == [0]
        assert comb.weights[0] == 1.0
        assert comb.n_max == 0

    def test_line_values_at_1p2(self):
        comb = build_comb(0.5, 1.2)
        assert comb.line_weight(0) == pytest.approx(0.671132744264363, abs=1e-12)
        assert comb.line_weight(1) == pytest.approx(0.498289057567215, abs=1e-12)

    @pytest.mark.parametrize("index", [0.5, 1.2, 3.0, 7.0, 20.0, -2.4])
    def test_normalization_and_truncation(self, index):
        comb = build_comb(1.0, index)
        assert abs(np.sum(comb.weights**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("index", [0.7, 2.2, 5.5])
    def test_parity_identity_exact(self, index):
        comb = build_comb(1.0, index)
        for n in comb.orders:
            if -n in comb.orders:
                assert comb.line_weight(int(n)) == (-1.0) ** n * comb.line_weight(int(-n))

    @pytest.mark.parametrize("index", [0.4, 1.7, 3.1])
    def test_phase_inversion_closure(self, index):
        plus = build_comb(1.0, index)
        minus = build_comb(1.0, -index)
        assert np.array_equal(plus.orders, minus.orders)
        for n in plus.orders:
            assert minus.line_weight(int(n)) == (-1.0) ** n * plus.line_weight(int(n))

    def test_pruning_threshold(self):
        comb = build_comb(1.0, 1.2)
        assert np.all(np.abs(comb.weights) >= 1e-12)
        # the first pruned order is genuinely negligible
        assert abs(bessel_quadrature(comb.n_max + 1, 1.2)) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_comb(0.0, 1.0)
        with pytest.raises(ValueError):
            build_comb(1.0, 20.5)
        with pytest.raises(ValueError, match=r"^\|index\| <= 40.0 required, got -40.5$"):
            build_comb(1.0, -40.5, max_index=40.0)

    @pytest.mark.parametrize("index", [-40.0, 27.3, 40.0])
    def test_combined_index_range_against_oracle(self, index):
        comb = build_comb(1.0, index, max_index=40.0)
        assert np.sum(comb.weights**2) == pytest.approx(1.0, abs=1e-14)
        for n in range(-60, 61, 7):
            assert comb.line_weight(n) == pytest.approx(bessel_quadrature(n, index), abs=1e-14)

    @pytest.mark.parametrize("index", [5e-324, 1e-300, -1e-100, 1e-58, 1e-40, 9.9e-13])
    def test_tiny_index_is_the_central_line(self, index):
        # Below ~1e-57 one step of the Bessel recurrence overflows; the comb
        # is the n = 0 line, as it is for every nonzero index below 1e-12.
        comb = build_comb(0.01, index)
        assert comb.orders.tolist() == [0]
        assert comb.weights.tolist() == [1.0]
        assert comb.index == index

    def test_negative_zero_index_is_stored_as_zero(self):
        assert math.copysign(1.0, build_comb(0.01, -0.0).index) == 1.0

    @pytest.mark.parametrize(
        "mod_freq, index, name",
        [
            (0.01, float("nan"), "index"),
            (0.01, float("inf"), "index"),
            (float("inf"), 1.0, "mod_freq"),
            (float("nan"), 1.0, "mod_freq"),
        ],
    )
    def test_non_finite_arguments_named(self, mod_freq, index, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build_comb(mod_freq, index)


@pytest.mark.parametrize("theta1", [-2.0, -0.7, 0.3, 1.5])
@pytest.mark.parametrize("theta2", [-2.0, -0.7, 0.3, 1.5])
def test_bessel_addition_theorem(theta1, theta2):
    # sum_k J_k(t1) J_{n-k}(t2) = J_n(t1+t2): the identity behind two
    # modulators composing into a single effective index
    for n in (0, 1, 2, 3, 5):
        total = sum(bessel_j(k, theta1) * bessel_j(n - k, theta2) for k in range(-40, 41))
        assert total == pytest.approx(bessel_j(n, theta1 + theta2), abs=1e-10)
