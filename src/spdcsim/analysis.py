"""Quantitative figures extracted from correlation results.

Width and signal-to-background estimators for temporal traces, comb-leakage
for joint spectra, quadratic broadening-law fits, the two-mode
Cauchy-Schwarz ratio, and cancelation verdicts built from any of them.
"""

from dataclasses import dataclass

import numpy as np

from .correlators import (
    Correlation1D,
    JointComb,
    baseline,
    INTER_TIME,
    INTRA_TIME,
)
from .errors import DegenerateTrace
from .source import SourceFields

DEGENERATE_MASS_FRACTION = 1e-15


@dataclass(frozen=True)
class WidthReport:
    """RMS and FWHM widths of a background-subtracted trace, in ps."""

    rms_width: float
    fwhm: float
    centroid: float
    method: str = "background-subtracted second central moment; FWHM by linear interpolation"


@dataclass(frozen=True)
class CancelationVerdict:
    """Outcome of a cancelation check at a stated tolerance.

    ``metric`` is the width ratio to baseline for temporal configurations and
    the comb leakage for spectral ones.
    """

    configuration: str
    kind: str  # "width_ratio" | "comb_leakage"
    metric: float
    tolerance: float
    canceled: bool


@dataclass(frozen=True)
class BroadeningFit:
    """Least-squares fit of width^2 = a + b * x^2 along a phase combination."""

    intercept: float
    slope: float
    max_rel_residual: float
    combination: str


def rms_width(corr: Correlation1D) -> WidthReport:
    """Centroid-centered RMS width and FWHM of the subtracted trace."""
    sub = corr.subtracted()
    peak = float(np.max(sub))
    dt = corr.delta_tau
    window = dt * len(sub)
    mass = float(np.sum(sub)) * dt
    if not (peak > 0.0 and mass >= DEGENERATE_MASS_FRACTION * peak * window):
        raise DegenerateTrace("trace has no structure above the background")

    w = sub / np.sum(sub)
    centroid = float(np.sum(corr.tau_grid * w))
    rms = float(np.sqrt(np.sum((corr.tau_grid - centroid) ** 2 * w)))
    if rms == 0.0:
        raise DegenerateTrace("trace structure lies within one delay sample")
    return WidthReport(rms_width=rms, fwhm=_fwhm(corr.tau_grid, sub), centroid=centroid)


def _fwhm(taus: np.ndarray, sub: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation around the peak."""
    peak_idx = int(np.argmax(sub))
    half = sub[peak_idx] / 2.0

    left = float(taus[0])
    for i in range(peak_idx, 0, -1):
        if sub[i - 1] < half <= sub[i]:
            frac = (half - sub[i - 1]) / (sub[i] - sub[i - 1])
            left = taus[i - 1] + frac * (taus[i] - taus[i - 1])
            break

    right = float(taus[-1])
    for i in range(peak_idx, len(sub) - 1):
        if sub[i + 1] < half <= sub[i]:
            frac = (sub[i] - half) / (sub[i] - sub[i + 1])
            right = taus[i] + frac * (taus[i + 1] - taus[i])
            break

    return max(right - left, 0.0)


def signal_to_background(corr: Correlation1D) -> float:
    """(peak - background)/background of a temporal trace."""
    if corr.background <= 0.0:
        raise DegenerateTrace("zero background (source has no flux)")
    return float((np.max(corr.values) - corr.background) / corr.background)


def broadening_fit(phi_pairs, widths, config: str) -> BroadeningFit:
    """Fit width^2 = a + b*(Phi1 +/- Phi2)^2 over dispersion samples.

    ``config`` selects the combination: "inter" uses Phi1 + Phi2 (the sum is
    what survives in the signal-idler trace), "intra" uses Phi1 - Phi2.  When
    every sample sits at the same combination value the slope is pinned to
    zero and only the intercept is fitted.
    """
    if config not in ("inter", "intra"):
        raise ValueError(f"config must be 'inter' or 'intra', got {config!r}")
    phi_pairs = [(float(a), float(b)) for a, b in phi_pairs]
    widths = np.asarray(widths, dtype=float)
    if len(phi_pairs) != len(widths):
        raise ValueError("phi_pairs and widths must have equal length")
    if len(widths) < 5:
        raise ValueError("at least 5 width samples are required")

    sign = 1.0 if config == "inter" else -1.0
    x = np.array([a + sign * b for a, b in phi_pairs])
    combination = "phi1+phi2" if config == "inter" else "phi1-phi2"
    y = widths**2

    x2 = x**2
    if np.ptp(x2) < 1e-12 * max(1.0, float(np.max(x2))):
        a_fit = float(np.mean(y))
        b_fit = 0.0
        pred = np.full_like(y, a_fit)
    else:
        design = np.column_stack([np.ones_like(x2), x2])
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < 2:
            raise ValueError("broadening fit is ill-conditioned")
        a_fit, b_fit = float(coef[0]), float(coef[1])
        pred = design @ coef

    rel = np.abs(pred - y) / np.where(np.abs(y) > 0, np.abs(y), 1.0)
    return BroadeningFit(
        intercept=a_fit,
        slope=b_fit,
        max_rel_residual=float(np.max(rel)),
        combination=combination,
    )


def comb_leakage(comb: JointComb) -> float:
    """Total squared weight outside the n = 0 comb line.

    Zero exactly when the combined modulation index vanishes; equals
    1 - J_0(combined index)^2 by the quadrature normalization otherwise.
    """
    return float(np.sum(comb.coefficients[comb.orders != 0]))


def cauchy_schwarz_ratio(source: SourceFields) -> float:
    """Two-mode Cauchy-Schwarz ratio [g2_si(0)]^2 / (g2_ss(0) g2_ii(0)).

    Normalized zero-delay coherences are read off the no-element baselines;
    classical fields obey ratio <= 1, so values above one certify nonclassical
    signal-idler correlations.  The violation fades as the flux grows.
    """
    source.require_physical("cauchy_schwarz_ratio")
    if source.flux_n <= 0.0:
        raise DegenerateTrace("zero flux; normalized correlations undefined")
    center = source.grid.index_of_tau_zero()
    n2 = source.flux_n**2
    g2_si = float(baseline(source, INTER_TIME).values[center]) / n2
    g2_ss = float(baseline(source, INTRA_TIME).values[center]) / n2
    return g2_si**2 / (g2_ss * g2_ss)


def assess_time_cancelation(
    corr: Correlation1D,
    reference: Correlation1D,
    configuration: str,
    tolerance: float = 1e-6,
) -> CancelationVerdict:
    """Verdict from the RMS width ratio of a trace to its no-element baseline."""
    return _width_ratio_verdict(
        rms_width(corr).rms_width, rms_width(reference).rms_width, configuration, tolerance
    )


def _width_ratio_verdict(
    width: float, reference_width: float, configuration: str, tolerance: float
) -> CancelationVerdict:
    """Verdict from an RMS width and the RMS width of its baseline."""
    ratio = width / reference_width
    return CancelationVerdict(
        configuration=configuration,
        kind="width_ratio",
        metric=float(ratio),
        tolerance=tolerance,
        canceled=bool(abs(ratio - 1.0) <= tolerance),
    )


def assess_comb_cancelation(
    comb: JointComb, configuration: str, tolerance: float = 1e-12
) -> CancelationVerdict:
    """Verdict from the off-ridge leakage of a narrowband joint comb."""
    leakage = comb_leakage(comb)
    return CancelationVerdict(
        configuration=configuration,
        kind="comb_leakage",
        metric=leakage,
        tolerance=tolerance,
        canceled=bool(leakage <= tolerance),
    )
