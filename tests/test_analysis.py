import numpy as np
import pytest

from spdcsim import (
    Correlation1D,
    DegenerateTrace,
    DispersiveElement,
    FrequencyGrid,
    SourceSpec,
    assess_comb_cancelation,
    assess_time_cancelation,
    baseline,
    broadening_fit,
    build_comb,
    cauchy_schwarz_ratio,
    comb_leakage,
    evaluate_analytic,
    evaluate_uv,
    g2_inter_freq_narrowband,
    g2_inter_time,
    rms_width,
    signal_to_background,
)


def synthetic_gaussian_trace(tau0=0.5, background=2.0, n=2048, dt=0.01, center=0.0):
    taus = (np.arange(n) - n // 2) * dt
    values = background + np.exp(-((taus - center) ** 2) / (2 * tau0**2))
    peak = int(np.argmax(values))
    return Correlation1D(
        tau_grid=taus, values=values, background=background, peak_tau=float(taus[peak])
    )


class TestRmsWidth:
    def test_gaussian_moments(self):
        report = rms_width(synthetic_gaussian_trace(tau0=0.5))
        assert report.rms_width == pytest.approx(0.5, rel=1e-3)
        assert report.fwhm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * 0.5, rel=1e-3)

    def test_symmetric_trace_centroid_at_zero(self):
        report = rms_width(synthetic_gaussian_trace())
        assert report.centroid == pytest.approx(0.0, abs=1e-12)

    def test_shifted_trace_centroid(self):
        report = rms_width(synthetic_gaussian_trace(center=1.5))
        assert report.centroid == pytest.approx(1.5, rel=1e-6)
        assert report.rms_width == pytest.approx(0.5, rel=1e-3)

    def test_degenerate_trace_rejected(self):
        taus = (np.arange(128) - 64) * 0.1
        flat = Correlation1D(
            tau_grid=taus, values=np.full(128, 4.0), background=4.0, peak_tau=0.0
        )
        with pytest.raises(DegenerateTrace):
            rms_width(flat)

    def test_nan_trace_rejected(self):
        taus = (np.arange(128) - 64) * 0.1
        values = np.full(128, np.nan)
        trace = Correlation1D(tau_grid=taus, values=values, background=4.0, peak_tau=0.0)
        with pytest.raises(DegenerateTrace):
            rms_width(trace)

    def test_structure_within_one_sample_rejected(self):
        taus = (np.arange(128) - 64) * 0.1
        values = np.full(128, 4.0)
        values[64] = 5.0
        spike = Correlation1D(tau_grid=taus, values=values, background=4.0, peak_tau=0.0)
        with pytest.raises(DegenerateTrace, match="within one delay sample"):
            rms_width(spike)

    def test_estimator_stable_under_resampling(self):
        spec = SourceSpec.analytic(1.0)
        coarse = evaluate_analytic(spec, FrequencyGrid(1024, 0.02))
        fine = evaluate_analytic(spec, FrequencyGrid(2048, 0.02))
        w_coarse = rms_width(baseline(coarse, "inter_time")).rms_width
        w_fine = rms_width(baseline(fine, "inter_time")).rms_width
        assert abs(w_fine / w_coarse - 1.0) < 1e-3


class TestSignalToBackground:
    def test_intrabeam_baseline_is_unity(self):
        grid = FrequencyGrid(1024, 0.05)
        src = evaluate_uv(SourceSpec.physical(0.5, [0.5]), grid)
        assert signal_to_background(baseline(src, "intra_time")) == pytest.approx(1.0, abs=1e-9)

    def test_structureless_trace_gives_zero(self):
        taus = (np.arange(128) - 64) * 0.1
        flat = Correlation1D(
            tau_grid=taus, values=np.full(128, 9.0), background=9.0, peak_tau=0.0
        )
        assert signal_to_background(flat) == 0.0

    def test_zero_background_rejected(self):
        grid = FrequencyGrid(128, 0.1)
        src = evaluate_uv(SourceSpec.physical(0.0), grid)
        corr = baseline(src, "inter_time")
        with pytest.raises(DegenerateTrace):
            signal_to_background(corr)

    def test_invariant_under_canceling_elements(self):
        src = evaluate_analytic(SourceSpec.analytic(1.0), FrequencyGrid(1024, 0.02))
        plain = signal_to_background(baseline(src, "inter_time"))
        canceled = signal_to_background(
            g2_inter_time(src, DispersiveElement((0.0, 4.0)), DispersiveElement((0.0, -4.0)))
        )
        assert abs(canceled / plain - 1.0) < 1e-6

    def test_scaling_with_flux(self):
        grid = FrequencyGrid(1024, 0.05)
        fluxes, ratios = [], []
        for gain in (0.02, 0.05, 0.1, 0.2):
            src = evaluate_uv(SourceSpec.physical(gain), grid)
            fluxes.append(src.flux_n)
            ratios.append(signal_to_background(baseline(src, "inter_time")))
        slope = np.polyfit(np.log(fluxes), np.log(ratios), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


class TestBroadeningFit:
    def test_recovers_synthetic_law_exactly(self):
        a, b = 0.37, 2.9
        pairs = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.5, 2.5)]
        widths = [np.sqrt(a + b * (p1 + p2) ** 2) for p1, p2 in pairs]
        fit = broadening_fit(pairs, widths, "inter")
        assert fit.intercept == pytest.approx(a, abs=1e-10)
        assert fit.slope == pytest.approx(b, abs=1e-10)
        assert fit.max_rel_residual < 1e-10

    def test_intra_combination_axis(self):
        a, b = 0.2, 1.4
        pairs = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 1.0), (0.5, 3.0)]
        widths = [np.sqrt(a + b * (p1 - p2) ** 2) for p1, p2 in pairs]
        fit = broadening_fit(pairs, widths, "intra")
        assert fit.combination == "phi1-phi2"
        assert fit.slope == pytest.approx(b, abs=1e-10)

    def test_constant_combination_pins_slope_to_zero(self):
        # all samples share Phi1+Phi2: only the intercept is identifiable
        pairs = [(x, 4.0 - x) for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        widths = [1.3] * 5
        fit = broadening_fit(pairs, widths, "inter")
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(1.3**2, rel=1e-12)

    def test_requires_five_samples(self):
        with pytest.raises(ValueError):
            broadening_fit([(0, 0)] * 4, [1.0] * 4, "inter")

    def test_measured_widths_follow_inter_law(self):
        src = evaluate_analytic(SourceSpec.analytic(1.0), FrequencyGrid(2048, 0.015))
        tau0 = rms_width(baseline(src, "inter_time")).rms_width
        pairs = [(d / 2, d / 2) for d in (0.0, 2.0, 4.0, 6.0, 8.0)]
        widths = [
            rms_width(
                g2_inter_time(
                    src, DispersiveElement((0.0, a)), DispersiveElement((0.0, b))
                )
            ).rms_width
            for a, b in pairs
        ]
        fit = broadening_fit(pairs, widths, "inter")
        assert fit.max_rel_residual < 1e-3
        assert fit.intercept == pytest.approx(tau0**2, rel=1e-2)
        assert fit.slope == pytest.approx(1.0 / (2 * tau0) ** 2, rel=1e-2)


class TestCombLeakage:
    def setup_method(self):
        self.src = evaluate_analytic(SourceSpec.analytic(60.0), FrequencyGrid(2048, 0.4))

    def comb(self, t1, t2):
        return g2_inter_freq_narrowband(self.src, build_comb(0.01, t1), build_comb(0.01, t2))

    def test_canceled_config_leaks_nothing(self):
        assert comb_leakage(self.comb(0.8, -0.8)) == 0.0

    def test_leakage_value_at_1p2(self):
        # 1 - J_0(1.2)^2, frozen from the quadrature oracle
        assert comb_leakage(self.comb(0.6, 0.6)) == pytest.approx(0.5495808395761856, abs=1e-10)

    def test_leakage_complements_central_line(self):
        comb = self.comb(0.9, 0.3)
        assert comb_leakage(comb) + comb.coefficient(0) == pytest.approx(1.0, abs=1e-12)


class TestCauchySchwarz:
    def test_low_gain_strong_violation(self):
        grid = FrequencyGrid(1024, 0.05)
        ratio = cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(0.05), grid))
        assert ratio > 1e3

    def test_high_gain_approaches_classical_bound(self):
        grid = FrequencyGrid(1024, 0.05)
        low = cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(0.05), grid))
        high = cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(3.0), grid))
        assert 1.0 <= high < 2.0
        assert low / high >= 100.0

    def test_monotone_decreasing_in_gain(self):
        grid = FrequencyGrid(1024, 0.05)
        ratios = [
            cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(g), grid))
            for g in (0.05, 0.2, 0.8, 3.0)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_requires_physical_source_with_flux(self):
        grid = FrequencyGrid(128, 0.1)
        with pytest.raises(ValueError):
            cauchy_schwarz_ratio(evaluate_analytic(SourceSpec.analytic(1.0), grid))
        with pytest.raises(DegenerateTrace):
            cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(0.0), grid))


class TestVerdicts:
    def test_time_verdict_canceled(self):
        src = evaluate_analytic(SourceSpec.analytic(1.0), FrequencyGrid(1024, 0.02))
        corr = g2_inter_time(src, DispersiveElement((0.0, 5.0)), DispersiveElement((0.0, -5.0)))
        verdict = assess_time_cancelation(corr, baseline(src, "inter_time"), "inter_time")
        assert verdict.canceled
        assert verdict.kind == "width_ratio"
        assert abs(verdict.metric - 1.0) <= verdict.tolerance

    def test_time_verdict_not_canceled(self):
        src = evaluate_analytic(SourceSpec.analytic(1.0), FrequencyGrid(1024, 0.02))
        corr = g2_inter_time(src, DispersiveElement((0.0, 5.0)), DispersiveElement((0.0, 0.0)))
        verdict = assess_time_cancelation(corr, baseline(src, "inter_time"), "inter_time")
        assert not verdict.canceled

    def test_comb_verdict(self):
        src = evaluate_analytic(SourceSpec.analytic(60.0), FrequencyGrid(2048, 0.4))
        canceled = g2_inter_freq_narrowband(src, build_comb(0.01, 0.3), build_comb(0.01, -0.3))
        verdict = assess_comb_cancelation(canceled, "inter_freq")
        assert verdict.canceled and verdict.metric == 0.0
        leaking = g2_inter_freq_narrowband(src, build_comb(0.01, 0.3), build_comb(0.01, 0.3))
        assert not assess_comb_cancelation(leaking, "inter_freq").canceled
