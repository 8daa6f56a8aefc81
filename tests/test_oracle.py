import numpy as np
import pytest

from spdcsim import DispersiveElement, FrequencyGrid, PhaseMismatch, SourceSpec, evaluate_analytic
from spdcsim.oracle import (
    bessel_quadrature,
    perturbative_v,
    quadrature_g2,
)


class TestBesselQuadrature:
    def test_j0_at_zero(self):
        assert bessel_quadrature(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_j2_at_zero(self):
        assert bessel_quadrature(2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_j1_reference_value(self):
        assert bessel_quadrature(1, 1.2) == pytest.approx(0.498289057567215, abs=1e-13)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            bessel_quadrature(201, 1.0)
        with pytest.raises(ValueError):
            bessel_quadrature(1, 51.0)


class TestPerturbativeV:
    def test_matched_value(self):
        g = FrequencyGrid(64, 0.1)
        v = perturbative_v(0.02, PhaseMismatch(()), g)
        assert np.allclose(v, -0.02j, atol=1e-15)

    def test_vanishes_at_two_pi_mismatch(self):
        g = FrequencyGrid(64, 0.5)
        # d1 = pi: DL = 2pi at Omega = 2 -> sinc(pi) = 0
        v = perturbative_v(0.02, PhaseMismatch((np.pi,)), g)
        k = np.argmin(np.abs(g.omegas - 2.0))
        assert abs(v[k]) < 1e-15

    def test_half_pi_magnitude(self):
        g = FrequencyGrid(64, 0.5)
        v = perturbative_v(0.02, PhaseMismatch((np.pi / 2,)), g)
        k = np.argmin(np.abs(g.omegas - 2.0))  # DL = pi
        assert abs(v[k]) == pytest.approx(0.02 * 2.0 / np.pi, rel=1e-12)

    def test_gain_domain(self):
        g = FrequencyGrid(64, 0.1)
        with pytest.raises(ValueError):
            perturbative_v(0.06, PhaseMismatch(()), g)


class TestQuadratureG2:
    def test_gaussian_closed_form_inter(self):
        # analytic source + GDD D: the trace amplitude is a closed-form
        # complex Gaussian integral
        grid = FrequencyGrid(512, 0.04)
        src = evaluate_analytic(SourceSpec.analytic(1.0), grid)
        d = 3.0
        h1 = DispersiveElement((0.0, d))
        taus = np.linspace(-8.0, 8.0, 161)
        values = quadrature_g2(src, h1, DispersiveElement.identity(), "inter_time", taus)
        a = 0.25 - 0.5j * d  # 1/(4B^2) - i D/2 with B = 1
        amps = np.sqrt(np.pi / a) * np.exp(-(taus**2) / (4.0 * a)) / (2.0 * np.pi)
        expected = src.flux_n**2 + np.abs(amps) ** 2
        assert np.max(np.abs(values - expected)) < 1e-6

    def test_equal_cubic_elements_match_baseline_intra(self):
        grid = FrequencyGrid(256, 0.05)
        src = evaluate_analytic(SourceSpec.analytic(1.0), grid)
        cubic = DispersiveElement((0.0, 0.0, 1.5))
        taus = np.linspace(-5.0, 5.0, 101)
        with_elements = quadrature_g2(src, cubic, cubic, "intra_time", taus)
        bare = quadrature_g2(
            src, DispersiveElement.identity(), DispersiveElement.identity(), "intra_time", taus
        )
        assert np.max(np.abs(with_elements - bare)) < 1e-12 * np.max(bare)

    def test_tau_list_length_gate(self):
        grid = FrequencyGrid(64, 0.1)
        src = evaluate_analytic(SourceSpec.analytic(1.0), grid)
        with pytest.raises(ValueError):
            quadrature_g2(
                src,
                DispersiveElement.identity(),
                DispersiveElement.identity(),
                "inter_time",
                np.zeros(4097),
            )

    @pytest.mark.parametrize("config", ["both", "inter", "intra_freq"])
    def test_config_validation(self, config):
        grid = FrequencyGrid(64, 0.1)
        src = evaluate_analytic(SourceSpec.analytic(1.0), grid)
        with pytest.raises(ValueError):
            quadrature_g2(
                src, DispersiveElement.identity(), DispersiveElement.identity(), config, [0.0]
            )

