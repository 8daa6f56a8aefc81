import sys
import threading

import numpy as np
import pytest

from dense_joint import scatter
from spdcsim.correlators import (
    _rms_bandwidth,
    _structure_bandwidth,
    check_drive,
    exact_orders,
    mod_steps,
)
from spdcsim.oracle import bessel_quadrature
from spdcsim import (
    AliasRisk,
    DispersiveElement,
    FrequencyGrid,
    GridIncommensurate,
    MismatchedDrive,
    NarrowbandInvalid,
    PreconditionError,
    SourceSpec,
    baseline,
    build_comb,
    evaluate_analytic,
    evaluate_uv,
    g2_freq_exact,
    g2_inter_freq_narrowband,
    g2_inter_time,
    g2_intra_freq_narrowband,
    g2_intra_time,
    rms_width,
)

IDENT = DispersiveElement.identity()


def analytic_source(bandwidth=1.0, n=1024, domega=0.02):
    return evaluate_analytic(SourceSpec.analytic(bandwidth), FrequencyGrid(n, domega))


def gdd(phi2):
    return DispersiveElement((0.0, phi2))


class TestInterTime:
    def test_identity_baseline_peak(self):
        src = analytic_source()
        corr = g2_inter_time(src, IDENT, IDENT)
        # peak at tau = 0 with height N^2 + |(1/2pi) int R|^2
        structured = abs(np.sum(src.R) * src.grid.delta_omega / (2 * np.pi)) ** 2
        center = src.grid.index_of_tau_zero()
        assert corr.peak_tau == 0.0
        assert corr.values[center] == pytest.approx(corr.background + structured, rel=1e-12)
        assert corr.background == pytest.approx(src.flux_n**2, rel=1e-15)

    def test_baseline_single_path_equivalence(self):
        src = analytic_source()
        a = g2_inter_time(src, IDENT, IDENT)
        b = baseline(src, "inter_time")
        assert np.array_equal(a.values, b.values)

    def test_opposite_gdd_cancels(self):
        src = analytic_source()
        base = rms_width(baseline(src, "inter_time")).rms_width
        canc = rms_width(g2_inter_time(src, gdd(5.0), gdd(-5.0))).rms_width
        assert abs(canc / base - 1.0) < 1e-6

    def test_chirped_gaussian_broadening_law(self):
        src = analytic_source()
        tau0 = rms_width(baseline(src, "inter_time")).rms_width
        width = rms_width(g2_inter_time(src, gdd(2.5), gdd(2.5))).rms_width
        law = np.sqrt(tau0**2 + (5.0 / (2 * tau0)) ** 2)
        assert width == pytest.approx(law, rel=1e-2)

    def test_width_depends_only_on_gdd_sum(self):
        src = analytic_source()
        w_ab = rms_width(g2_inter_time(src, gdd(1.0), gdd(3.0))).rms_width
        w_shifted = rms_width(g2_inter_time(src, gdd(2.5), gdd(1.5))).rms_width
        w_swapped = rms_width(g2_inter_time(src, gdd(3.0), gdd(1.0))).rms_width
        assert abs(w_shifted / w_ab - 1.0) < 1e-9
        assert abs(w_swapped / w_ab - 1.0) < 1e-9

    def test_equal_sign_third_order_cancels_opposite_adds(self):
        src = analytic_source(n=2048, domega=0.01)
        cubic_p = DispersiveElement((0.0, 0.0, 1.0))
        cubic_m = DispersiveElement((0.0, 0.0, -1.0))
        base = rms_width(baseline(src, "inter_time")).rms_width
        equal = rms_width(g2_inter_time(src, cubic_p, cubic_p)).rms_width
        opposite = rms_width(g2_inter_time(src, cubic_p, cubic_m)).rms_width
        assert abs(equal / base - 1.0) < 1e-6
        assert opposite / base > 1.05

    def test_background_unchanged_by_elements(self):
        src = analytic_source()
        a = g2_inter_time(src, IDENT, IDENT)
        b = g2_inter_time(src, gdd(4.0), DispersiveElement((0.1, -2.0, 0.5)))
        assert a.background == b.background

    def test_alias_risk_raised(self):
        src = analytic_source(n=64, domega=0.2)
        with pytest.raises(AliasRisk):
            g2_inter_time(src, gdd(25.0), gdd(25.0))

    def test_overflowing_spread_counts_as_infinite(self):
        # Omega_max**4 overflows a double at Omega_max ~ 1.3e78 rad/ps.
        src = analytic_source(1e77, n=256, domega=1e76)
        fifth_order = DispersiveElement((0.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(AliasRisk, match="predicted trace extent inf ps"):
            g2_inter_time(src, fifth_order, IDENT)

    def test_pointlike_spectrum_from_an_overflowing_grid_refused(self):
        # Every detuning but zero squares to infinity against a zero weight.
        src = analytic_source(1.0, n=256, domega=1e300)
        with pytest.raises(AliasRisk, match="pointlike"):
            g2_inter_time(src, IDENT, IDENT)


class TestIntraTime:
    def test_thermal_peak_to_background(self):
        grid = FrequencyGrid(1024, 0.05)
        src = evaluate_uv(SourceSpec.physical(0.8, [0.5]), grid)
        corr = baseline(src, "intra_time")
        assert np.max(corr.values) / corr.background == pytest.approx(2.0, abs=1e-9)

    def test_identical_elements_cancel_all_orders(self):
        grid = FrequencyGrid(1024, 0.05)
        src = evaluate_uv(SourceSpec.physical(0.5, [0.5]), grid)
        element = DispersiveElement((0.3, 7.0, 2.0, 0.5))
        trace = g2_intra_time(src, element, element)
        ref = baseline(src, "intra_time")
        assert np.max(np.abs(trace.values - ref.values)) <= 1e-9 * np.max(ref.values)

    def test_single_sided_gdd_broadening_law(self):
        src = analytic_source()
        tau0 = rms_width(baseline(src, "intra_time")).rms_width
        width = rms_width(g2_intra_time(src, IDENT, gdd(3.0))).rms_width
        law = np.sqrt(tau0**2 + (3.0 / (2 * tau0)) ** 2)
        assert width == pytest.approx(law, rel=1e-2)

    def test_swap_elements_time_reverses_trace(self):
        # swapping the paths conjugates the integrand: values(tau) -> values(-tau)
        src = analytic_source()
        h1 = DispersiveElement((0.0, 2.0, 0.4))
        h2 = DispersiveElement((0.0, -1.0))
        a = g2_intra_time(src, h1, h2)
        b = g2_intra_time(src, h2, h1)
        assert np.allclose(b.values[1:], a.values[1:][::-1], rtol=1e-10)
        w_a = rms_width(a).rms_width
        w_b = rms_width(b).rms_width
        assert abs(w_b / w_a - 1.0) < 1e-9


class TestNarrowbandCombs:
    def setup_method(self):
        self.src = evaluate_analytic(SourceSpec.analytic(60.0), FrequencyGrid(2048, 0.4))

    def test_inter_opposite_indexes_cancel(self):
        comb = g2_inter_freq_narrowband(self.src, build_comb(0.01, 0.8), build_comb(0.01, -0.8))
        assert list(comb.orders) == [0]
        assert comb.coefficient(0) == 1.0
        assert comb.configuration == "inter_freq"

    @pytest.mark.parametrize("config", ["inter", "intra"])
    def test_combined_index_beyond_one_modulator_bound(self, config):
        # Two modulators at |index| <= 20 combine to an index of up to 40.
        m1 = build_comb(0.01, 20.0)
        if config == "inter":
            comb = g2_inter_freq_narrowband(self.src, m1, build_comb(0.01, 15.0))
        else:
            comb = g2_intra_freq_narrowband(self.src, m1, build_comb(0.01, -15.0))
        assert comb.combined_index == 35.0
        assert comb.coefficient(3) == pytest.approx(bessel_quadrature(3, 35.0) ** 2, abs=1e-14)
        assert np.sum(comb.coefficients) == pytest.approx(1.0, abs=1e-13)

    def test_inter_equal_indexes_compose(self):
        comb = g2_inter_freq_narrowband(self.src, build_comb(0.01, 0.6), build_comb(0.01, 0.6))
        assert comb.combined_index == pytest.approx(1.2)
        assert comb.coefficient(1) == pytest.approx(0.248292, abs=1e-6)

    def test_intra_equal_indexes_cancel(self):
        comb = g2_intra_freq_narrowband(self.src, build_comb(0.01, 1.3), build_comb(0.01, 1.3))
        assert list(comb.orders) == [0]
        assert comb.configuration == "intra_freq"

    def test_intra_difference_composes(self):
        comb = g2_intra_freq_narrowband(self.src, build_comb(0.01, 1.0), build_comb(0.01, 0.0))
        assert comb.coefficient(0) == pytest.approx(0.5855274995136641, abs=1e-10)

    def test_baseline_combs_identity(self):
        inter = baseline(self.src, "inter_freq")
        assert list(inter.orders) == [0]
        assert np.allclose(inter.envelope, np.abs(self.src.R) ** 2, atol=1e-300)
        intra = baseline(self.src, "intra_freq")
        assert intra.configuration == "intra_freq"
        assert np.allclose(intra.envelope, self.src.S**2, atol=1e-300)

    def test_mismatched_drive_rejected(self):
        with pytest.raises(MismatchedDrive):
            g2_inter_freq_narrowband(self.src, build_comb(0.01, 0.5), build_comb(0.02, -0.5))

    def test_narrowband_gate(self):
        narrow = analytic_source(1.0, 512, 0.05)
        with pytest.raises(NarrowbandInvalid):
            g2_inter_freq_narrowband(narrow, build_comb(0.5, 0.6), build_comb(0.5, 0.6))


def test_check_drive():
    check_drive(0.01, 0.01)
    with pytest.raises(MismatchedDrive, match="^modulator drive frequencies differ: 0.01 vs 0.02"):
        check_drive(0.01, 0.02)


@pytest.mark.parametrize(
    "mod_freq, delta_omega, steps",
    [
        (0.03, 0.01, 3),
        (0.02, 0.02, 1),
        (0.013, 0.01, None),
        (0.004, 0.01, None),
        (1e300, 1e-300, None),
        (1e6 * (1.0 + 5e-10), 1.0, 1_000_000),
        (1e6 * (1.0 + 2e-9), 1.0, None),
        (1e-240, 1e-240, "^exact grid spacing 1e-240 rad/ps squared is out of floating"),
        (4e180, 1e180, r"^exact grid spacing 1e\+180 rad/ps squared is out of floating"),
    ],
    ids=[
        "three",
        "one",
        "fractional",
        "below_one",
        "infinite",
        "many_within_tolerance",
        "many_beyond_tolerance",
        "cell_underflow",
        "cell_overflow",
    ],
)
def test_mod_steps(mod_freq, delta_omega, steps):
    grid = FrequencyGrid(64, delta_omega)
    if steps is None:
        with pytest.raises(GridIncommensurate, match="not an integer multiple"):
            mod_steps(mod_freq, grid)
    elif isinstance(steps, str):  # the cell area delta_omega**2 leaves double range
        with pytest.raises(PreconditionError, match=steps) as caught:
            mod_steps(mod_freq, grid)
        assert type(caught.value) is PreconditionError
    else:
        assert mod_steps(mod_freq, grid) == steps



@pytest.mark.parametrize("bandwidth, n, domega", [(1.0, 1024, 0.02), (0.05, 2048, 0.0025)])
def test_structure_bandwidth_of_the_analytic_source(bandwidth, n, domega):
    """The RMS bandwidth the alias and narrowband gates read, against its closed
    forms on resolved grids: |R|^2 = exp(-W^2/(2B^2)) has B, S^2 = |R|^4 has B/sqrt(2)."""
    src = analytic_source(bandwidth, n, domega)
    inter_empty, inter = _structure_bandwidth(src, True)
    intra_empty, intra = _structure_bandwidth(src, False)
    assert not inter_empty and not intra_empty
    assert inter == pytest.approx(bandwidth, rel=1e-12)
    assert intra == pytest.approx(bandwidth / np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("bandwidth, n, domega", [(1.0, 4096, 0.01), (0.05, 2048, 0.0025)])
@pytest.mark.parametrize("centre", [0.0, -3.0, 2.371, 5.5])
def test_rms_bandwidth_of_a_shifted_gaussian(bandwidth, n, domega, centre):
    """A Gaussian weight exp(-(W - c)^2/(2B^2)) has RMS width B wherever its
    centre c sits (c in units of B, off the grid's samples at 2.371): the
    width is taken about the weight's centroid, not about W = 0."""
    omegas = FrequencyGrid(n, domega).omegas
    weight = np.exp(-0.5 * ((omegas - centre * bandwidth) / bandwidth) ** 2)
    assert _rms_bandwidth(weight, omegas) == pytest.approx(bandwidth, rel=1e-12)


class TestExactJointGrid:
    @pytest.mark.parametrize("domega", [1e-240, 1e-160, 1e180])
    def test_spacing_squared_out_of_range_refused(self, domega):
        src = analytic_source(1.0, 64, domega)
        comb = build_comb(domega, 0.5)
        with pytest.raises(PreconditionError, match="squared is out of floating-point range"):
            g2_freq_exact(src, comb, comb, "intra_freq")

    def test_structure_overflowing_a_double_refused(self):
        # |R|^2 ~ 1e4 at gain 3 over delta_omega**2 ~ 2.25e-308 overflows.
        src = evaluate_uv(SourceSpec.physical(3.0), FrequencyGrid(64, 1.5e-154))
        comb = build_comb(1.5e-154, 1.0)
        with pytest.raises(PreconditionError, match="^exact joint structure overflows a double"):
            g2_freq_exact(src, comb, comb, "inter_freq")

    def test_incommensurate_mod_freq_rejected(self):
        src = analytic_source(1.0, 128, 0.05)
        with pytest.raises(GridIncommensurate):
            g2_freq_exact(src, build_comb(0.013, 0.5), build_comb(0.013, 0.5), "inter_freq")

    def test_zero_index_inter_ridge_is_antidiagonal_envelope(self):
        src = analytic_source(1.0, 128, 0.05)
        joint = g2_freq_exact(src, build_comb(0.05, 0.0), build_comb(0.05, 0.0), "inter_freq")
        structure, _ = scatter(joint)
        i, j = joint.ridge_indices(0)
        expected = np.abs(src.R[i]) ** 2 / src.grid.delta_omega**2
        assert np.allclose(structure[i, j], expected, rtol=1e-12)
        off_ridge = structure.copy()
        off_ridge[i, j] = 0.0
        assert np.all(off_ridge == 0.0)

    def test_zero_index_intra_ridge_is_diagonal(self):
        src = analytic_source(1.0, 128, 0.05)
        joint = g2_freq_exact(src, build_comb(0.05, 0.0), build_comb(0.05, 0.0), "intra_freq")
        diagonal = np.diag(scatter(joint)[0])
        assert np.allclose(diagonal, src.S**2 / src.grid.delta_omega**2, rtol=1e-12)

    def test_intra_structure_symmetric_for_identical_modulators(self):
        # the operator exchange symmetry holds when both paths carry the same
        # modulator (different drives make the paths distinguishable)
        src = analytic_source(2.0, 256, 0.05)
        joint = g2_freq_exact(src, build_comb(0.1, 0.9), build_comb(0.1, 0.9), "intra_freq")
        structure, _ = scatter(joint)
        assert np.allclose(structure, structure.T, rtol=1e-12, atol=1e-300)
        bare = g2_freq_exact(src, build_comb(0.1, 0.0), build_comb(0.1, 0.0), "intra_freq")
        bare_structure, _ = scatter(bare)
        assert np.array_equal(bare_structure, bare_structure.T)

    def test_modulated_background_preserves_total_flux(self):
        src = analytic_source(2.0, 512, 0.1)  # decays well inside the grid
        joint = g2_freq_exact(src, build_comb(0.1, 1.1), build_comb(0.1, 0.7), "inter_freq")
        total = np.sum(scatter(joint)[1]) * src.grid.delta_omega**2
        plain = (np.sum(src.S) * src.grid.delta_omega / (2 * np.pi)) ** 2
        assert total == pytest.approx(plain, rel=1e-12)

    def test_flat_envelope_reduces_to_addition_theorem(self):
        src = evaluate_analytic(SourceSpec.analytic(1e9), FrequencyGrid(512, 0.01))
        m1 = build_comb(0.01, 0.4)
        m2 = build_comb(0.01, 0.4)
        joint = g2_freq_exact(src, m1, m2, "inter_freq")
        reference = build_comb(0.01, 0.8)
        structure, _ = scatter(joint)
        margin = (m1.n_max + m2.n_max) * joint.m_ratio
        for order in reference.orders:
            i, j = joint.ridge_indices(int(order))
            keep = (i >= margin) & (i < 512 - margin) & (j >= margin) & (j < 512 - margin)
            weights = structure[i[keep], j[keep]] * src.grid.delta_omega**2
            assert np.max(np.abs(weights - reference.line_weight(int(order)) ** 2)) < 1e-10

    def test_config_validation(self):
        src = analytic_source(1.0, 128, 0.05)
        with pytest.raises(ValueError, match="config must be"):
            g2_freq_exact(src, build_comb(0.05, 0.1), build_comb(0.05, 0.1), "inter_time")

    @pytest.mark.parametrize("index1", [0.0, 0.3, -2.5, 20.0])
    @pytest.mark.parametrize("index2", [0.0, 1.2, -7.0, -20.0])
    def test_exact_orders_span_every_pair_of_lines(self, index1, index2):
        m1, m2 = build_comb(0.05, index1), build_comb(0.05, index2)
        sums = [n1 + n2 for n1 in m1.orders.tolist() for n2 in m2.orders.tolist()]
        differences = [n2 - n1 for n1 in m1.orders.tolist() for n2 in m2.orders.tolist()]
        orders = exact_orders(m1, m2)
        for lines in (sums, differences):
            assert np.array_equal(orders, np.arange(min(lines), max(lines) + 1))


class TestParseval:
    def test_trace_integral_matches_ridge_energy(self):
        src = analytic_source()
        trace = baseline(src, "inter_time")
        comb = baseline(src, "inter_freq")
        tau_integral = np.sum(trace.subtracted()) * trace.delta_tau
        assert tau_integral == pytest.approx(comb.ridge_energy() / (2 * np.pi), rel=1e-8)


def test_correlation_values_never_below_background():
    src = analytic_source()
    corr = g2_inter_time(src, gdd(2.0), gdd(1.0))
    assert np.all(corr.values >= corr.background - 1e-12)


def test_zero_gain_trace_is_pure_background():
    grid = FrequencyGrid(128, 0.1)
    src = evaluate_uv(SourceSpec.physical(0.0), grid)
    corr = g2_inter_time(src, IDENT, IDENT)
    assert np.all(corr.values == 0.0)  # N = 0 and no structure


def test_threads_racing_on_a_fresh_grid_and_source_get_the_reference_traces():
    """Threads that share one grid and one source each raise the grid's
    detuning powers and gate the source's bandwidth on a first call, or read
    what another thread kept; every trace has the bits of one computed alone."""
    spec = SourceSpec.physical(0.5, [0.5])
    coeffs = ((0.0, 2.0, 0.1, 0.01, 0.001), (0.0, 1.0, 0.05))

    def traces(source):
        h1, h2 = (DispersiveElement(c) for c in coeffs)
        return [g2(source, h1, h2).values.tobytes() for g2 in (g2_inter_time, g2_intra_time)]

    expected = traces(evaluate_uv(spec, FrequencyGrid(4096, 0.01)))
    source = evaluate_uv(spec, FrequencyGrid(4096, 0.01))
    workers = 8
    start = threading.Barrier(workers, timeout=30)
    results = []

    def work():
        start.wait()
        results.append(traces(source))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * workers
    for k in range(2, 6):
        power = source.grid.omega_power(k)
        assert not power.flags.writeable
        assert power.tobytes() == (source.grid.omegas**k).tobytes()
