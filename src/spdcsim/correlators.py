"""Second-order coherence observables of the SPDC beams.

Temporal traces (one FFT each):

    interbeam  G2(tau) = N^2 + |(1/2pi) int dW e^{iWt} R(W) H1(W) H2(-W)|^2
    intrabeam  G2(tau) = N^2 + |(1/2pi) int dW e^{iWt} S(W) H1*(W) H2(W)|^2

The -W argument of H2 in the interbeam case encodes signal-idler frequency
anticorrelation; the conjugated H1 at the same +W in the intrabeam case
encodes the frequency correlation within one beam.  Either way the background
N^2 is untouched by pure-phase elements.

Joint spectra with sinusoidal phase modulators come in two forms: a sparse
narrowband comb (source spectrum flat across all sidebands, valid when the
comb span is small against the source bandwidth) whose lines sit on the
Omega1+Omega2 axis with weights J_n(theta1 + theta2)^2 (interbeam) or on the
Omega1-Omega2 axis with weights J_n(theta1 - theta2)^2 (intrabeam), and an
exact dense double-comb sum on the joint grid that makes no flatness
assumption.  Spectral delta lines are represented on-grid as 1/delta_omega
concentrated on one sample, which keeps Riemann sums of the matrices equal to
the continuum integrals.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import accumulate_inter, accumulate_intra
from .elements import (
    _FACTORIALS,
    DispersiveElement,
    ModulatorComb,
    build_comb,
    dispersive_transfer,
)
from .errors import AliasRisk, GridIncommensurate, MismatchedDrive, NarrowbandInvalid
from .grid import FrequencyGrid
from .source import SourceFields

INTER_TIME = "inter_time"
INTRA_TIME = "intra_time"
INTER_FREQ = "inter_freq"
INTRA_FREQ = "intra_freq"
CONFIGURATIONS = (INTER_TIME, INTRA_TIME, INTER_FREQ, INTRA_FREQ)

OMEGA_PLUS = "omega_plus"
OMEGA_MINUS = "omega_minus"

ALIAS_WINDOW_FRACTION = 0.40
NARROWBAND_MAX_RATIO = 0.05


@dataclass(frozen=True)
class Correlation1D:
    """Temporal correlation trace G2(tau) with its analytic background N^2."""

    tau_grid: np.ndarray
    values: np.ndarray
    background: float
    peak_tau: float

    @property
    def delta_tau(self) -> float:
        return float(self.tau_grid[1] - self.tau_grid[0])

    def subtracted(self) -> np.ndarray:
        """Structured part of the trace, values - background."""
        return self.values - self.background


@dataclass(frozen=True)
class JointComb:
    """Narrowband joint-spectral correlation: delta comb on one frequency
    combination, smooth envelope along the other.

    ``coefficients[k]`` is J_{orders[k]}(combined_index)^2.  ``envelope`` is
    the squared-modulus envelope of the structured term sampled at
    ``envelope_axis`` (the free combination, spanning twice the grid):
    |R(Omega_-/2)|^2 for the interbeam comb, S(Omega_+/2)^2 for the intrabeam
    one.  The background is the separable product of the per-frequency flux
    densities ``background_factor_1/2`` (units photons/ps per rad/ps).
    """

    grid: FrequencyGrid
    ridge_axis: str
    mod_freq: float
    combined_index: float
    orders: np.ndarray
    coefficients: np.ndarray
    envelope_axis: np.ndarray
    envelope: np.ndarray
    background_factor_1: np.ndarray
    background_factor_2: np.ndarray

    def coefficient(self, n: int) -> float:
        """Squared line weight at comb order n, zero if pruned."""
        hit = np.nonzero(self.orders == n)[0]
        return float(self.coefficients[hit[0]]) if hit.size else 0.0

    def ridge_energy(self) -> float:
        """Structured term integrated over the joint plane.

        Integrating coefficient(n) * envelope(u) * delta(ridge - n*mod_freq)
        over (Omega1, Omega2) gives, per line, the envelope integrated in the
        half free coordinate u/2: sum_n c_n * sum_k envelope_k * delta_omega.
        The interbeam-baseline value equals 2pi times the tau-integral of the
        background-subtracted temporal trace (Parseval).
        """
        return float(np.sum(self.coefficients) * np.sum(self.envelope) * self.grid.delta_omega)


@dataclass(frozen=True)
class JointGrid:
    """Exact joint-spectral correlation on the dense (Omega1, Omega2) grid.

    ``structure`` holds |T(Omega1, Omega2)|^2 with each spectral delta line
    carried as 1/delta_omega on its sample; ``background`` holds the separable
    modulated-flux product.  Memory scales as n_points^2.
    """

    grid: FrequencyGrid
    ridge_axis: str
    mod_freq: float
    m_ratio: int
    structure: np.ndarray
    background: np.ndarray

    def ridge_indices(self, line: int):
        """Grid index pairs (i, j) of the cells on comb line ``line``."""
        n = self.grid.n_points
        i = np.arange(n)
        if self.ridge_axis == OMEGA_PLUS:
            j = n + line * self.m_ratio - i
        else:
            j = i - line * self.m_ratio
        keep = (j >= 0) & (j < n)
        return i[keep], j[keep]


def _trace_amplitude(integrand: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """(1/2pi) * Riemann sum of F(Omega) e^{i Omega tau} on the delay grid."""
    amp = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(integrand)))
    return amp * (grid.n_points * grid.delta_omega / (2.0 * np.pi))


def _rms_bandwidth(weight: np.ndarray, omegas: np.ndarray) -> float:
    total = float(np.sum(weight))
    if total <= 0:
        return 0.0
    mean = float(np.sum(omegas * weight)) / total
    var = float(np.sum((omegas - mean) ** 2 * weight)) / total
    return float(np.sqrt(max(var, 0.0)))


def _combined_phase_coeffs(h1: DispersiveElement, h2: DispersiveElement, inter: bool):
    """Effective Taylor phase of the element product entering the trace.

    Interbeam, H1(W)*H2(-W): c_k = Phi_k(1) + (-1)^k Phi_k(2), so equal-sign
    even orders add and equal-sign odd orders cancel.  Intrabeam,
    H1*(W)*H2(W): c_k = Phi_k(2) - Phi_k(1), so identical elements cancel at
    every order.
    """
    orders = range(1, 6)
    if inter:
        return [h1.coefficient(k) + ((-1) ** k) * h2.coefficient(k) for k in orders]
    return [h2.coefficient(k) - h1.coefficient(k) for k in orders]


def _check_alias(grid: FrequencyGrid, weight: np.ndarray, combined_coeffs) -> None:
    """Reject setups whose dispersed trace would wrap around the FFT window.

    The undispersed width is estimated as 1/(2 * RMS bandwidth of the
    integrand weight); the dispersive spread as the band-edge group delay
    sum_k |c_k| Omega_max^{k-1}/(k-1)!.  Both must fit in 40% of the window.
    A structureless integrand (zero weight everywhere) trivially passes.
    """
    if float(np.sum(weight)) == 0.0:
        return
    bw = _rms_bandwidth(weight, grid.omegas)
    if bw <= 0:
        raise AliasRisk("pointlike integrand spectrum; trace cannot fit the delay window")
    tau0 = 1.0 / (2.0 * bw)
    spread = 0.0
    for k, c in enumerate(combined_coeffs, start=1):
        spread += abs(c) * grid.omega_max ** (k - 1) / _FACTORIALS[k - 1]
    budget = ALIAS_WINDOW_FRACTION * grid.tau_window
    if tau0 + spread > budget:
        raise AliasRisk(
            f"predicted trace extent {tau0 + spread:.3g} ps exceeds {budget:.3g} ps "
            f"(40% of the {grid.tau_window:.3g} ps delay window); enlarge the grid "
            "or reduce the dispersion"
        )


def _build_correlation(amp: np.ndarray, grid: FrequencyGrid, flux: float) -> Correlation1D:
    values = flux * flux + np.abs(amp) ** 2
    peak_tau = float(grid.taus[int(np.argmax(values))])
    return Correlation1D(
        tau_grid=grid.taus, values=values, background=flux * flux, peak_tau=peak_tau
    )


def g2_inter_time(
    source: SourceFields, h1: DispersiveElement, h2: DispersiveElement
) -> Correlation1D:
    """Signal-idler temporal coincidence trace after dispersive elements.

    The idler element enters at reflected detuning, so only the combination
    exp(i[(Phi2_1 + Phi2_2) W^2/2 + (Phi3_1 - Phi3_2) W^3/6 + ...]) matters:
    opposite-sign group-delay dispersion cancels, odd orders add instead.
    """
    grid = source.grid
    weight = np.abs(source.R) ** 2
    _check_alias(grid, weight, _combined_phase_coeffs(h1, h2, inter=True))
    t1 = dispersive_transfer(h1, grid)
    t2 = dispersive_transfer(h2, grid)
    integrand = source.R * t1 * grid.reflect(t2)
    return _build_correlation(_trace_amplitude(integrand, grid), grid, source.flux_n)


def g2_intra_time(
    source: SourceFields, h1: DispersiveElement, h2: DispersiveElement
) -> Correlation1D:
    """Split-beam temporal coincidence trace after dispersive elements.

    Both paths see the same detuning and one transfer is conjugated, so
    identical elements cancel at every order and only Phi_k differences
    broaden the trace.  The zero-delay peak never exceeds twice the
    background (thermal-like statistics).
    """
    grid = source.grid
    weight = source.S**2
    _check_alias(grid, weight, _combined_phase_coeffs(h1, h2, inter=False))
    t1 = dispersive_transfer(h1, grid)
    t2 = dispersive_transfer(h2, grid)
    integrand = source.S * np.conj(t1) * t2
    return _build_correlation(_trace_amplitude(integrand, grid), grid, source.flux_n)


def _check_drive(m1: ModulatorComb, m2: ModulatorComb) -> None:
    if m1.mod_freq != m2.mod_freq:
        raise MismatchedDrive(
            f"modulator drive frequencies differ: {m1.mod_freq} vs {m2.mod_freq} rad/ps"
        )


def _check_narrowband(
    weight: np.ndarray, grid: FrequencyGrid, m1: ModulatorComb, m2: ModulatorComb
) -> None:
    span = (m1.n_max + m2.n_max) * m1.mod_freq
    if span == 0.0:
        return
    bw = _rms_bandwidth(weight, grid.omegas)
    ratio = span / bw if bw > 0 else np.inf
    if ratio >= NARROWBAND_MAX_RATIO:
        raise NarrowbandInvalid(
            f"comb span {span:.3g} rad/ps is {ratio:.3g} of the source bandwidth "
            f"{bw:.3g} rad/ps (limit {NARROWBAND_MAX_RATIO}); use g2_freq_exact or a "
            "broader source"
        )


def _flux_density(source: SourceFields) -> np.ndarray:
    """Per-frequency flux density N(Omega) = S(Omega)/(2pi), photons/ps/(rad/ps)."""
    return source.S / (2.0 * np.pi)


def g2_inter_freq_narrowband(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb
) -> JointComb:
    """Signal-idler joint spectrum with phase modulators, narrowband form.

    Comb lines on Omega1+Omega2 = n*mod_freq weighted by J_n(theta1+theta2)^2
    over the envelope |R(Omega_-/2)|^2: opposite drive indexes collapse the
    comb back to the unmodulated anticorrelation ridge.
    """
    _check_drive(m1, m2)
    grid = source.grid
    weight = np.abs(source.R) ** 2
    _check_narrowband(weight, grid, m1, m2)
    combined = build_comb(m1.mod_freq, m1.index + m2.index)
    density = _flux_density(source)
    return JointComb(
        grid=grid,
        ridge_axis=OMEGA_PLUS,
        mod_freq=m1.mod_freq,
        combined_index=m1.index + m2.index,
        orders=combined.orders.copy(),
        coefficients=combined.weights**2,
        envelope_axis=2.0 * grid.omegas,
        envelope=weight,
        background_factor_1=density,
        background_factor_2=density,
    )


def g2_intra_freq_narrowband(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb
) -> JointComb:
    """Split-beam joint spectrum with phase modulators, narrowband form.

    Comb lines on Omega1-Omega2 = n*mod_freq weighted by J_n(theta1-theta2)^2
    over the envelope S(Omega_+/2)^2: equal drive indexes collapse the comb
    back to the unmodulated equal-frequency ridge.
    """
    _check_drive(m1, m2)
    grid = source.grid
    weight = source.S**2
    _check_narrowband(weight, grid, m1, m2)
    combined = build_comb(m1.mod_freq, m1.index - m2.index)
    density = _flux_density(source)
    return JointComb(
        grid=grid,
        ridge_axis=OMEGA_MINUS,
        mod_freq=m1.mod_freq,
        combined_index=m1.index - m2.index,
        orders=combined.orders.copy(),
        coefficients=combined.weights**2,
        envelope_axis=2.0 * grid.omegas,
        envelope=weight,
        background_factor_1=density,
        background_factor_2=density,
    )


def _modulated_flux_density(source: SourceFields, comb: ModulatorComb, m_ratio: int) -> np.ndarray:
    """Exact per-frequency flux density behind a modulator.

    Sidebands redistribute the spectrum, N'(Omega) = sum_n J_n^2
    S(Omega + n*mod_freq)/(2pi); the quadrature normalization of the weights
    preserves the total flux.
    """
    n = source.grid.n_points
    out = np.zeros(n)
    for order, w in zip(comb.orders, comb.weights):
        shift = int(order) * m_ratio
        lo = max(0, -shift)
        hi = min(n, n - shift)
        if hi > lo:
            out[lo:hi] += (w * w) * source.S[lo + shift : hi + shift]
    return out / (2.0 * np.pi)


def g2_freq_exact(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb, config: str
) -> JointGrid:
    """Exact joint spectrum from the double sideband sum, no flatness assumption.

    Requires the modulation frequency to be an integer number of grid steps so
    every delta line lands on a sample.  Reduces to the narrowband comb when
    the source envelope is flat across the comb span; with a source bandwidth
    comparable to mod_freq the envelope varies between sidebands and the
    narrowband form fails, which is the regime the validity gate excludes.
    """
    if config not in (INTER_FREQ, INTRA_FREQ):
        raise ValueError(f"config must be {INTER_FREQ!r} or {INTRA_FREQ!r}, got {config!r}")
    _check_drive(m1, m2)
    grid = source.grid
    steps = m1.mod_freq / grid.delta_omega
    m_ratio = int(round(steps))
    if m_ratio < 1 or abs(steps - m_ratio) > 1e-9 * max(1.0, steps):
        raise GridIncommensurate(
            f"mod_freq {m1.mod_freq} rad/ps is not an integer multiple of the grid "
            f"spacing {grid.delta_omega} rad/ps"
        )

    n = grid.n_points
    orders1 = m1.orders.astype(np.int64)
    orders2 = m2.orders.astype(np.int64)
    if config == INTER_FREQ:
        amp = np.zeros((n, n), dtype=complex)
        accumulate_inter(amp, source.R, orders1, m1.weights, orders2, m2.weights, m_ratio)
        ridge_axis = OMEGA_PLUS
    else:
        amp = np.zeros((n, n))
        accumulate_intra(amp, source.S.astype(float), orders1, m1.weights, orders2, m2.weights, m_ratio)
        ridge_axis = OMEGA_MINUS

    structure = np.abs(amp) ** 2 / grid.delta_omega**2
    background = np.outer(
        _modulated_flux_density(source, m1, m_ratio),
        _modulated_flux_density(source, m2, m_ratio),
    )
    return JointGrid(
        grid=grid,
        ridge_axis=ridge_axis,
        mod_freq=m1.mod_freq,
        m_ratio=m_ratio,
        structure=structure,
        background=background,
    )


def baseline(source: SourceFields, config: str, mod_freq: float = 1.0):
    """No-element reference: the matching correlator with identity elements.

    For the spectral configurations the identity modulator is an index-zero
    comb (single n = 0 line); ``mod_freq`` only labels the comb spacing.
    """
    if config == INTER_TIME:
        return g2_inter_time(source, DispersiveElement.identity(), DispersiveElement.identity())
    if config == INTRA_TIME:
        return g2_intra_time(source, DispersiveElement.identity(), DispersiveElement.identity())
    if config == INTER_FREQ:
        comb = build_comb(mod_freq, 0.0)
        return g2_inter_freq_narrowband(source, comb, comb)
    if config == INTRA_FREQ:
        comb = build_comb(mod_freq, 0.0)
        return g2_intra_freq_narrowband(source, comb, comb)
    raise ValueError(f"unknown configuration {config!r}")
