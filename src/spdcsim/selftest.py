"""Built-in acceptance checks, runnable via ``spdcsim selftest`` or pytest.

Each check pins its own grid and source parameters, computes the relevant
observable, and compares against an analytic law or an independent oracle at
a fixed tolerance, and returns ``(passed, detail)``.  A check is named by its
function (``check_name``); ``spdcsim selftest`` runs every check in ``CHECKS``
and prints them as a pass/fail table.
"""

import filecmp
import tempfile
from pathlib import Path

import numpy as np

from . import analysis, oracle
from .correlators import (
    INTER_FREQ,
    INTER_TIME,
    INTRA_FREQ,
    INTRA_TIME,
    baseline,
    g2_freq_exact,
    g2_inter_freq_narrowband,
    g2_inter_time,
    g2_intra_freq_narrowband,
    g2_intra_time,
)
from .elements import DispersiveElement, build_comb
from .grid import FrequencyGrid
from .runner import run_scenario
from .scenario import parse_scenario
from .source import SourceSpec, evaluate_analytic, evaluate_uv


def _analytic_source(bandwidth: float, n_points: int, delta_omega: float):
    grid = FrequencyGrid(n_points, delta_omega)
    return evaluate_analytic(SourceSpec.analytic(bandwidth), grid)


def check_unitarity() -> tuple:
    """|U|^2 - |V|^2 = 1 across gains and mismatches on a 4096-point grid."""
    grid = FrequencyGrid(4096, 0.01)
    worst = 0.0
    for gain in (0.1, 1.0, 3.0):
        for d1 in (0.0, 2.0):
            src = evaluate_uv(SourceSpec.physical(gain, [d1]), grid)
            dev = float(np.max(np.abs(np.abs(src.U) ** 2 - np.abs(src.V) ** 2 - 1.0)))
            worst = max(worst, dev)
    return worst < 1e-10, f"max | |U|^2-|V|^2-1 | = {worst:.3e} (tol 1e-10)"


def check_inter_dispersion_cancelation() -> tuple:
    """Opposite-sign GDD restores the baseline width; the sum obeys the
    chirped-Gaussian broadening law."""
    src = _analytic_source(1.0, 2048, 0.015)
    tau0 = analysis.rms_width(baseline(src, INTER_TIME)).rms_width

    canceled = g2_inter_time(
        src, DispersiveElement((0.0, 5.0)), DispersiveElement((0.0, -5.0))
    )
    ratio = analysis.rms_width(canceled).rms_width / tau0

    sums = (0.0, 2.0, 4.0, 6.0, 8.0)
    pairs = [(d / 2.0, d / 2.0) for d in sums]
    widths = [
        analysis.rms_width(
            g2_inter_time(src, DispersiveElement((0.0, a)), DispersiveElement((0.0, b)))
        ).rms_width
        for a, b in pairs
    ]
    fit = analysis.broadening_fit(pairs, widths, INTER_TIME)
    a_law, b_law = tau0**2, 1.0 / (2.0 * tau0) ** 2
    ok = (
        abs(ratio - 1.0) < 1e-6
        and fit.max_rel_residual < 1e-2
        and abs(fit.intercept - a_law) < 0.01 * a_law
        and abs(fit.slope - b_law) < 0.01 * b_law
    )
    return (
        ok,
        f"width ratio(+5,-5) - 1 = {ratio - 1:.3e} (tol 1e-6); fit a={fit.intercept:.6f} "
        f"(law {a_law:.6f}), b={fit.slope:.6f} (law {b_law:.6f}), "
        f"max rel residual {fit.max_rel_residual:.3e} (tol 1e-2)",
    )


def check_inter_odd_order() -> tuple:
    """Opposite-sign third-order dispersion adds in the signal-idler trace;
    equal-sign cancels."""
    src = _analytic_source(1.0, 2048, 0.01)
    tau0 = analysis.rms_width(baseline(src, INTER_TIME)).rms_width
    opposite = g2_inter_time(
        src, DispersiveElement((0.0, 0.0, 1.0)), DispersiveElement((0.0, 0.0, -1.0))
    )
    equal = g2_inter_time(
        src, DispersiveElement((0.0, 0.0, 1.0)), DispersiveElement((0.0, 0.0, 1.0))
    )
    r_opp = analysis.rms_width(opposite).rms_width / tau0
    r_eq = analysis.rms_width(equal).rms_width / tau0
    ok = r_opp > 1.05 and abs(r_eq - 1.0) < 1e-6
    return (
        ok,
        f"opposite-sign ratio = {r_opp:.4f} (> 1.05); equal-sign ratio - 1 = "
        f"{r_eq - 1:.3e} (tol 1e-6)",
    )


def check_intra_all_order() -> tuple:
    """Identical elements leave the split-beam trace untouched at all orders."""
    grid = FrequencyGrid(1024, 0.05)
    src = evaluate_uv(SourceSpec.physical(0.5, [0.5]), grid)
    element = DispersiveElement((0.0, 7.0, 2.0))
    trace = g2_intra_time(src, element, element)
    reference = baseline(src, INTRA_TIME)
    dev = float(np.max(np.abs(trace.values - reference.values)) / np.max(reference.values))
    return dev < 1e-9, f"relative Linf vs baseline = {dev:.3e} (tol 1e-9)"


def check_thermal_bound() -> tuple:
    """Split-beam zero-delay peak sits at twice the background for any gain."""
    grid = FrequencyGrid(1024, 0.05)
    worst = 0.0
    for gain in (0.1, 1.0, 3.0):
        src = evaluate_uv(SourceSpec.physical(gain, [0.5]), grid)
        corr = baseline(src, INTRA_TIME)
        worst = max(worst, abs(float(np.max(corr.values)) / corr.background - 2.0))
    return worst < 1e-9, f"max |peak/background - 2| = {worst:.3e} (tol 1e-9)"


def check_sb_scaling() -> tuple:
    """Interbeam signal-to-background falls off as 1/flux."""
    grid = FrequencyGrid(1024, 0.05)
    fluxes = []
    ratios = []
    for gain in (0.02, 0.05, 0.1, 0.2):
        src = evaluate_uv(SourceSpec.physical(gain), grid)
        fluxes.append(src.flux_n)
        ratios.append(analysis.signal_to_background(baseline(src, INTER_TIME)))
    slope = float(np.polyfit(np.log(fluxes), np.log(ratios), 1)[0])
    return abs(slope + 1.0) <= 0.05, f"log-log slope = {slope:.4f} (-1 +/- 0.05)"


def _modulation_cancelation(correlator, canceling, composing, combined) -> tuple:
    """The ``canceling`` drive indexes leave no comb leakage; the ``composing``
    ones give squared Bessel lines of the ``combined`` index."""
    src = _analytic_source(60.0, 2048, 0.4)
    canceled = correlator(src, *(build_comb(0.01, index) for index in canceling))
    leakage = analysis.comb_leakage(canceled)

    modulated = correlator(src, *(build_comb(0.01, index) for index in composing))
    worst = 0.0
    for n in range(-6, 7):
        expected = oracle.bessel_quadrature(n, combined) ** 2
        worst = max(worst, abs(modulated.coefficient(n) - expected))
    ok = leakage < 1e-12 and worst < 1e-10
    return (
        ok,
        f"canceled leakage = {leakage:.3e} (tol 1e-12); max |coeff - J_n({combined})^2| = "
        f"{worst:.3e} for |n|<=6 (tol 1e-10)",
    )


def check_inter_modulation_cancelation() -> tuple:
    """Opposite drive indexes cancel the interbeam comb; equal indexes give
    squared Bessel lines of the summed index."""
    return _modulation_cancelation(g2_inter_freq_narrowband, (0.8, -0.8), (0.6, 0.6), 1.2)


def check_intra_modulation_cancelation() -> tuple:
    """Equal drive indexes cancel the intrabeam comb; an index difference of
    one gives squared Bessel lines of that difference."""
    return _modulation_cancelation(g2_intra_freq_narrowband, (1.3, 1.3), (1.0, 0.0), 1.0)


def _flat_reduction_dev(src, config, theta1, theta2, mod_freq) -> float:
    """Largest per-cell gap between the exact ridge weights and the
    narrowband comb coefficients for a flat envelope (identically 1 to
    machine precision), over interior cells of every retained line."""
    m1 = build_comb(mod_freq, theta1)
    m2 = build_comb(mod_freq, theta2)
    exact = g2_freq_exact(src, m1, m2, config)
    if config == INTER_FREQ:
        comb = g2_inter_freq_narrowband(src, m1, m2)
    else:
        comb = g2_intra_freq_narrowband(src, m1, m2)
    grid = src.grid
    margin = (m1.n_max + m2.n_max) * exact.m_ratio
    worst = 0.0
    for order in comb.orders:
        i, j = exact.ridge_indices(int(order))
        keep = (
            (i >= margin)
            & (i < grid.n_points - margin)
            & (j >= margin)
            & (j < grid.n_points - margin)
        )
        w_exact = exact.profile(int(order))[i[keep]] * grid.delta_omega**2
        worst = max(worst, float(np.max(np.abs(w_exact - comb.coefficient(int(order))))))
    return worst


def check_exact_narrowband() -> tuple:
    """The exact double-comb sum reduces to the narrowband comb for a flat
    envelope (Bessel addition theorem) and departs when the source bandwidth
    is comparable to the modulation frequency."""
    flat = _analytic_source(1e9, 2048, 0.005)
    dev_inter = _flat_reduction_dev(flat, INTER_FREQ, 0.6, 0.6, 0.005)
    dev_intra = _flat_reduction_dev(flat, INTRA_FREQ, 1.0, 0.0, 0.005)

    narrow = _analytic_source(1.0, 512, 0.05)  # bandwidth = 2 * mod_freq
    m1 = build_comb(0.5, 0.6)
    m2 = build_comb(0.5, 0.6)
    exact = g2_freq_exact(narrow, m1, m2, INTER_FREQ)
    reference = build_comb(0.5, 1.2)
    center = narrow.grid.n_points // 2
    dev_narrow = 0.0
    for order in reference.orders:
        i, j = exact.ridge_indices(int(order))
        mid = int(np.argmin(np.abs(i - j)))
        w_exact = exact.profile(int(order))[i[mid]] * narrow.grid.delta_omega**2
        half = (i[mid] - j[mid]) // 2 + center
        w_nb = reference.line_weight(int(order)) ** 2 * abs(narrow.R[half]) ** 2
        dev_narrow = max(dev_narrow, abs(w_exact - w_nb))

    ok = dev_inter < 1e-10 and dev_intra < 1e-10 and dev_narrow > 1e-3
    return (
        ok,
        f"flat-envelope per-cell dev: inter {dev_inter:.3e}, intra {dev_intra:.3e} "
        f"(tol 1e-10); bandwidth=2*mod_freq dev {dev_narrow:.3e} (must exceed 1e-3)",
    )


def check_oracle_equivalence() -> tuple:
    """FFT correlators match the Simpson quadrature oracle pointwise."""
    src = _analytic_source(1.0, 512, 0.04)
    taus = src.grid.taus
    central = np.abs(taus) <= 0.25 * src.grid.tau_window
    configs = [
        (DispersiveElement.identity(), DispersiveElement.identity()),
        (DispersiveElement((0.0, 2.0)), DispersiveElement((0.0, -0.5))),
        (DispersiveElement((0.0, 1.0, 0.3)), DispersiveElement((0.0, 1.0))),
    ]
    worst = 0.0
    for h1, h2 in configs:
        for config, correlator in ((INTER_TIME, g2_inter_time), (INTRA_TIME, g2_intra_time)):
            corr = correlator(src, h1, h2)
            ref = oracle.quadrature_g2(src, h1, h2, config, taus[central])
            dev = float(np.max(np.abs(corr.values[central] - ref)) / np.max(ref))
            worst = max(worst, dev)
    return (
        worst < 1e-8,
        f"max relative Linf over 3 element configs x {{inter,intra}} = {worst:.3e} (tol 1e-8)",
    )


def check_cauchy_schwarz() -> tuple:
    """Nonclassicality ratio decreases monotonically with gain and stays
    above the classical bound."""
    grid = FrequencyGrid(1024, 0.05)
    gains = (0.05, 0.2, 0.8, 3.0)
    ratios = [
        analysis.cauchy_schwarz_ratio(evaluate_uv(SourceSpec.physical(g), grid)) for g in gains
    ]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and ratios[0] / ratios[-1] > 100.0 and ratios[-1] >= 1.0
    return (
        ok,
        f"ratios over gains {gains} = {[f'{r:.4g}' for r in ratios]}; "
        f"decreasing={decreasing}, ratio(0.05)/ratio(3) = {ratios[0] / ratios[-1]:.4g} (> 100), "
        f"ratio(3) = {ratios[-1]:.6f} (>= 1)",
    )


def check_parseval() -> tuple:
    """Interbeam trace tau-integral equals the joint-comb ridge energy / 2pi."""
    src = _analytic_source(1.0, 2048, 0.015)
    trace = baseline(src, INTER_TIME)
    comb = baseline(src, INTER_FREQ)
    tau_integral = float(np.sum(trace.subtracted())) * trace.delta_tau
    ridge = comb.ridge_energy() / (2.0 * np.pi)
    dev = abs(tau_integral - ridge) / ridge
    return dev < 1e-8, f"relative mismatch = {dev:.3e} (tol 1e-8)"


_DETERMINISM_SCENARIO = {
    "schema_version": 1,
    "configuration": "inter_time",
    "grid": {"n_points": 1024, "delta_omega": 0.02},
    "source": {"mode": "analytic", "envelope_bandwidth": 1.0},
    "elements": [{"phase_coeffs": [0.0, 3.0]}, {"phase_coeffs": [0.0, -3.0]}],
    "sweep": {"parameter": "elements.1.phase_coeffs.1", "values": [-3.0, 0.0, 3.0]},
}


def check_run_determinism() -> tuple:
    """Two executions of one scenario produce byte-identical output files."""
    scenario = parse_scenario(_DETERMINISM_SCENARIO)
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = Path(tmp) / "a"
        dir_b = Path(tmp) / "b"
        report_a = run_scenario(scenario, dir_a, workers=2)
        report_b = run_scenario(scenario, dir_b, workers=2)
        names = report_a["files"]
        same_names = names == report_b["files"]
        mismatched = [
            name for name in names if not filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
        ]
    ok = same_names and not mismatched
    return (
        ok,
        f"{len(names)} files compared byte-for-byte; mismatches: {mismatched or 'none'}",
    )


CHECKS = (
    check_unitarity,
    check_inter_dispersion_cancelation,
    check_inter_odd_order,
    check_intra_all_order,
    check_thermal_bound,
    check_sb_scaling,
    check_inter_modulation_cancelation,
    check_intra_modulation_cancelation,
    check_exact_narrowband,
    check_oracle_equivalence,
    check_cauchy_schwarz,
    check_parseval,
    check_run_determinism,
)


def check_name(check) -> str:
    """Name of a check in ``CHECKS``: its function name without ``check_``."""
    return check.__name__.removeprefix("check_")
