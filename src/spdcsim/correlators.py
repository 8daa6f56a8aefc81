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
exact double-comb sum on the joint grid that makes no flatness assumption.
The exact sum is stored as its comb-line ridges, one profile of n samples per
line, so its memory is O(lines * n) rather than n^2.  Spectral delta lines are
represented on-grid as 1/delta_omega concentrated on one sample, which keeps
Riemann sums over the grid cells equal to the continuum integrals.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .elements import (
    _FACTORIALS,
    MAX_MOD_INDEX,
    DispersiveElement,
    ModulatorComb,
    at_order,
    build_comb,
    dispersive_transfer,
)
from .errors import (
    AliasRisk,
    GridIncommensurate,
    MismatchedDrive,
    NarrowbandInvalid,
    PreconditionError,
)
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

# Peak traced memory of one run_scenario point over temporal grids of 4096 to
# 65536 samples, each run in a fresh process, was 208-290 bytes per sample
# with a physical source, whose gain-free factor exp(i DL/2) the grid keeps
# (16 bytes per sample); the most with two five-order elements, whose four
# detuning powers the grid keeps too (32 bytes per sample) while the trace
# text is written (255-363), and in a gain sweep on one worker (300-363).
# The trace writer's share is its cached delay cells (about 85 bytes per
# sample) and one chunk of text (about 35 bytes per sample at n = 4096).
# Exact joint spectra at n = 4096 with 77 and 177 comb lines added 20-27
# bytes per line per sample, below the 32 of a complex amplitude and its
# squared modulus held at once.
_PEAK_BYTES_PER_SAMPLE = 384
_PEAK_BYTES_PER_LINE_SAMPLE = 32


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
        return float(at_order(self.orders, self.coefficients, n))

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
    """Exact joint-spectral correlation on the (Omega1, Omega2) grid, stored
    as its comb-line ridges.

    Line L holds the cells i + j = n + L*m_ratio (interbeam) or
    i - j = L*m_ratio (intrabeam), so each cell lies on at most one line;
    every cell on no line is zero.  ``profiles[k, i]`` is |T|^2 at row i on
    line ``orders[k]``, with each spectral delta line carried as
    1/delta_omega on its sample, and zero where the line leaves the grid.
    The background is the separable product of the modulated flux densities
    ``background_factor_1/2``.  Memory scales as len(orders) * n_points.
    """

    grid: FrequencyGrid
    ridge_axis: str
    mod_freq: float
    m_ratio: int
    orders: np.ndarray
    profiles: np.ndarray
    background_factor_1: np.ndarray
    background_factor_2: np.ndarray

    def _column(self, row, line):
        """Column of row i on comb line L: n + L*m_ratio - i interbeam,
        i - L*m_ratio intrabeam (elementwise over arrays of rows and lines)."""
        shift = line * self.m_ratio
        if self.ridge_axis == OMEGA_PLUS:
            return self.grid.n_points + shift - row
        return row - shift

    def ridge_indices(self, line: int):
        """Grid index pairs (i, j) of the cells on comb line ``line``."""
        n = self.grid.n_points
        i = np.arange(n)
        j = self._column(i, line)
        keep = (j >= 0) & (j < n)
        return i[keep], j[keep]

    def cells(self):
        """Rows i, columns j and structure of the nonzero cells, row by row
        and by ascending column within a row (the order of ``np.nonzero`` on
        the dense n x n grid)."""
        # Along a row the column rises with the line interbeam, falls intrabeam.
        step = 1 if self.ridge_axis == OMEGA_PLUS else -1
        profiles, orders = self.profiles[::step], self.orders[::step]
        i, k = np.nonzero(profiles.T)
        return i, self._column(i, orders[k]), profiles[k, i]

    def profile(self, line: int) -> np.ndarray:
        """Structure along comb line ``line`` by row i, zero if not stored."""
        return at_order(self.orders, self.profiles, line)

    def ridge_energy(self) -> float:
        """Structured term integrated over the joint plane: every profile
        summed, times the cell area delta_omega^2."""
        return float(np.sum(self.profiles)) * self.grid.delta_omega**2


def _trace_amplitude(shifted: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """(1/2pi) * Riemann sum of F(Omega) e^{i Omega tau} on the delay grid.

    Both sides are in FFT order: ``shifted`` holds F(Omega) with the two
    halves of the grid swapped (``ifftshift`` order, Omega = 0 first), and
    the result holds the delay samples with theirs swapped (tau = 0 first).
    """
    amp = np.fft.ifft(shifted)
    amp *= grid.n_points * grid.delta_omega / (2.0 * np.pi)
    return amp


def _rms_bandwidth(weight: np.ndarray, omegas: np.ndarray) -> float:
    """RMS width of ``weight`` over ``omegas``; NaN where a detuning squared
    overflows against a zero weight, which the gates refuse."""
    total = float(np.sum(weight))
    if total <= 0:
        return 0.0
    mean = float(np.sum(omegas * weight)) / total
    with np.errstate(over="ignore", invalid="ignore"):
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


def _structure_bandwidth(source: SourceFields, inter: bool) -> tuple:
    """``(empty, bandwidth)`` of the structure weight of one pairing: whether
    the weight sums to zero, and its ``_rms_bandwidth``.

    Memoised on the source object for each pairing, as two scalars rather
    than the weight: the points of an element sweep share one source, and a
    point's baseline and trace gate the same one.  Threads racing on a first
    call may each compute the same pair; either is kept.
    """
    name = "_inter_bandwidth" if inter else "_intra_bandwidth"
    memo = source.__dict__.get(name)
    if memo is None:
        weight = _structure_weight(source, inter)
        memo = (float(np.sum(weight)) == 0.0, _rms_bandwidth(weight, source.grid.omegas))
        source.__dict__[name] = memo
    return memo


def _check_alias(source: SourceFields, inter: bool, combined_coeffs) -> None:
    """Reject setups whose dispersed trace would wrap around the FFT window.

    The undispersed width is estimated as 1/(2 * RMS bandwidth of the
    integrand weight); the dispersive spread as the band-edge group delay
    sum_k |c_k| Omega_max^{k-1}/(k-1)!.  Both must fit in 40% of the window.
    A structureless integrand (zero weight everywhere) trivially passes.  A
    spread too large for a double counts as infinite, and a NaN bandwidth as
    a pointlike spectrum; every comparison fails closed on NaN.
    """
    grid = source.grid
    empty, bw = _structure_bandwidth(source, inter)
    if empty:
        return
    if not bw > 0:
        raise AliasRisk("pointlike integrand spectrum; trace cannot fit the delay window")
    tau0 = 1.0 / (2.0 * bw)
    spread = 0.0
    for k, c in enumerate(combined_coeffs, start=1):
        if c != 0.0:
            try:
                spread += abs(c) * grid.omega_max ** (k - 1) / _FACTORIALS[k - 1]
            except OverflowError:
                spread = math.inf
    budget = ALIAS_WINDOW_FRACTION * grid.tau_window
    if not tau0 + spread <= budget:
        raise AliasRisk(
            f"predicted trace extent {tau0 + spread:.3g} ps exceeds {budget:.3g} ps "
            f"(40% of the {grid.tau_window:.3g} ps delay window); enlarge the grid "
            "or reduce the dispersion"
        )


def _build_correlation(amp: np.ndarray, grid: FrequencyGrid, flux: float) -> Correlation1D:
    """Trace N^2 + |amp|^2 from an amplitude in FFT order, un-shifted into
    delay order while the background is added."""
    power = np.abs(amp) ** 2
    h = grid.n_points // 2
    values = np.empty(grid.n_points)
    np.add(power[h:], flux * flux, out=values[:h])
    np.add(power[:h], flux * flux, out=values[h:])
    peak_tau = float(grid.taus[int(np.argmax(values))])
    return Correlation1D(
        tau_grid=grid.taus, values=values, background=flux * flux, peak_tau=peak_tau
    )


def _structure_weight(source: SourceFields, inter: bool) -> np.ndarray:
    """Spectral weight of the structured term: |R|^2 for the interbeam pairing
    of +W with -W, S^2 for the intrabeam pairing of +W with +W."""
    return np.abs(source.R) ** 2 if inter else source.S**2


def _g2_time(
    source: SourceFields, h1: DispersiveElement, h2: DispersiveElement, inter: bool
) -> Correlation1D:
    """Temporal trace of either pairing: integrand R H1(W) H2(-W) interbeam,
    S H1*(W) H2(W) intrabeam.

    The integrand is built straight into FFT order.  n is an even power of
    two, so ``ifftshift`` and ``fftshift`` are both a swap of the two halves:
    each half's products are written into the other half of the buffer.
    The products are the same elementwise operations, in the same order, as
    on the unshifted grid, so the trace keeps its bits.  There is no (-1)^k
    factor in place of the swaps: it would change the FFT's input, and so
    its rounding.
    """
    grid = source.grid
    _check_alias(source, inter, _combined_phase_coeffs(h1, h2, inter))
    t1 = dispersive_transfer(h1, grid)
    t2 = dispersive_transfer(h2, grid)
    if inter:
        field, first, second = source.R, t1, grid.reflect(t2)
    else:
        field, first, second = source.S, np.conj(t1), t2
    h = grid.n_points // 2
    shifted = np.empty(grid.n_points, dtype=complex)
    np.multiply(field[h:] * first[h:], second[h:], out=shifted[:h])
    np.multiply(field[:h] * first[:h], second[:h], out=shifted[h:])
    return _build_correlation(_trace_amplitude(shifted, grid), grid, source.flux_n)


def g2_inter_time(
    source: SourceFields, h1: DispersiveElement, h2: DispersiveElement
) -> Correlation1D:
    """Signal-idler temporal coincidence trace after dispersive elements.

    The idler element enters at reflected detuning, so only the combination
    exp(i[(Phi2_1 + Phi2_2) W^2/2 + (Phi3_1 - Phi3_2) W^3/6 + ...]) matters:
    opposite-sign group-delay dispersion cancels, odd orders add instead.
    """
    return _g2_time(source, h1, h2, inter=True)


def g2_intra_time(
    source: SourceFields, h1: DispersiveElement, h2: DispersiveElement
) -> Correlation1D:
    """Split-beam temporal coincidence trace after dispersive elements.

    Both paths see the same detuning and one transfer is conjugated, so
    identical elements cancel at every order and only Phi_k differences
    broaden the trace.  The zero-delay peak never exceeds twice the
    background (thermal-like statistics).
    """
    return _g2_time(source, h1, h2, inter=False)


def check_drive(freq1: float, freq2: float) -> None:
    """Raise ``MismatchedDrive`` unless both modulators share one drive frequency."""
    if freq1 != freq2:
        raise MismatchedDrive(f"modulator drive frequencies differ: {freq1} vs {freq2} rad/ps")


def mod_steps(mod_freq: float, grid: FrequencyGrid) -> int:
    """Drive frequency in grid steps, which the exact joint spectrum needs whole.

    Raises ``GridIncommensurate`` unless mod_freq is within 1e-9 (relative) of
    a positive integer multiple of the grid spacing.
    """
    steps = mod_freq / grid.delta_omega
    m_ratio = round(steps) if math.isfinite(steps) else 0
    if m_ratio < 1 or abs(steps - m_ratio) > 1e-9 * max(1.0, steps):
        raise GridIncommensurate(
            f"mod_freq {mod_freq} rad/ps is not an integer multiple of the grid "
            f"spacing {grid.delta_omega} rad/ps"
        )
    return m_ratio


def _check_narrowband(
    source: SourceFields, inter: bool, m1: ModulatorComb, m2: ModulatorComb
) -> None:
    span = (m1.n_max + m2.n_max) * m1.mod_freq
    if span == 0.0:
        return
    bw = _structure_bandwidth(source, inter)[1]
    ratio = span / bw if bw > 0 else np.inf
    if not ratio < NARROWBAND_MAX_RATIO:
        raise NarrowbandInvalid(
            f"comb span {span:.3g} rad/ps is {ratio:.3g} of the source bandwidth "
            f"{bw:.3g} rad/ps (limit {NARROWBAND_MAX_RATIO}); use g2_freq_exact or a "
            "broader source"
        )


def _flux_density(source: SourceFields) -> np.ndarray:
    """Per-frequency flux density N(Omega) = S(Omega)/(2pi), photons/ps/(rad/ps)."""
    return source.S / (2.0 * np.pi)


def _g2_freq_narrowband(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb, inter: bool
) -> JointComb:
    """Narrowband comb of either pairing: lines on Omega1+Omega2 at index
    theta1+theta2 over |R|^2 interbeam, on Omega1-Omega2 at theta1-theta2 over
    S^2 intrabeam."""
    check_drive(m1.mod_freq, m2.mod_freq)
    grid = source.grid
    _check_narrowband(source, inter, m1, m2)
    combined_index = m1.index + m2.index if inter else m1.index - m2.index
    combined = build_comb(m1.mod_freq, combined_index, 2 * MAX_MOD_INDEX)
    density = _flux_density(source)
    return JointComb(
        grid=grid,
        ridge_axis=OMEGA_PLUS if inter else OMEGA_MINUS,
        mod_freq=m1.mod_freq,
        combined_index=combined_index,
        orders=combined.orders.copy(),
        coefficients=combined.weights**2,
        envelope_axis=2.0 * grid.omegas,
        envelope=_structure_weight(source, inter),
        background_factor_1=density,
        background_factor_2=density,
    )


def g2_inter_freq_narrowband(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb
) -> JointComb:
    """Signal-idler joint spectrum with phase modulators, narrowband form.

    Comb lines on Omega1+Omega2 = n*mod_freq weighted by J_n(theta1+theta2)^2
    over the envelope |R(Omega_-/2)|^2: opposite drive indexes collapse the
    comb back to the unmodulated anticorrelation ridge.
    """
    return _g2_freq_narrowband(source, m1, m2, inter=True)


def g2_intra_freq_narrowband(
    source: SourceFields, m1: ModulatorComb, m2: ModulatorComb
) -> JointComb:
    """Split-beam joint spectrum with phase modulators, narrowband form.

    Comb lines on Omega1-Omega2 = n*mod_freq weighted by J_n(theta1-theta2)^2
    over the envelope S(Omega_+/2)^2: equal drive indexes collapse the comb
    back to the unmodulated equal-frequency ridge.
    """
    return _g2_freq_narrowband(source, m1, m2, inter=False)


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


def _exact_orders(m1: ModulatorComb, m2: ModulatorComb, inter: bool) -> np.ndarray:
    """Comb lines of the exact joint spectrum: every n1 + n2 (interbeam) or
    n2 - n1 (intrabeam) from the lowest to the highest."""
    lo1, hi1 = int(np.min(m1.orders)), int(np.max(m1.orders))
    lo2, hi2 = int(np.min(m2.orders)), int(np.max(m2.orders))
    first, last = (lo1 + lo2, hi1 + hi2) if inter else (lo2 - hi1, hi2 - lo1)
    return np.arange(first, last + 1)


def estimate_peak_bytes(n_points: int, exact_combs: tuple | None = None) -> int:
    """Estimated peak memory in bytes of computing and writing one point.

    About _PEAK_BYTES_PER_SAMPLE per grid sample (source fields, transfers,
    FFT buffers, trace text), plus, for an exact joint spectrum of the two
    modulator combs ``exact_combs``, _PEAK_BYTES_PER_LINE_SAMPLE per comb
    line per sample (the complex ridge amplitudes and their profiles).  Pure
    arithmetic: nothing of that size is allocated.
    """
    per_sample = _PEAK_BYTES_PER_SAMPLE
    if exact_combs is not None:
        lines = _exact_orders(*exact_combs, inter=True).size  # same count either pairing
        per_sample += _PEAK_BYTES_PER_LINE_SAMPLE * lines
    return n_points * per_sample


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
    check_drive(m1.mod_freq, m2.mod_freq)
    grid = source.grid
    m_ratio = mod_steps(m1.mod_freq, grid)
    # Delta lines are carried as 1/delta_omega on one sample, so the profiles
    # divide by delta_omega**2, which must be a normal, finite float.
    try:
        cell_area = grid.delta_omega**2
    except OverflowError:
        cell_area = math.inf
    if not sys.float_info.min <= cell_area <= sys.float_info.max:
        raise PreconditionError(
            f"exact grid spacing {grid.delta_omega} rad/ps squared is out of "
            "floating-point range"
        )

    n = grid.n_points
    inter = config == INTER_FREQ
    field = source.R if inter else source.S.astype(float)
    # Pair (n1, n2) adds w1*w2*field[i - shift] to row i of line n1 + n2
    # (interbeam, shift = n1*m) or n2 - n1 (intrabeam, shift = -n1*m).  Row i
    # of line L sits in column n + L*m - i or i - L*m, on the grid for
    # L*m + offset <= i < n + L*m + offset.
    offset = 1 if inter else 0
    orders = _exact_orders(m1, m2, inter)
    first = int(orders[0])
    amp = np.zeros((orders.size, n), dtype=field.dtype)
    for n1, w1 in zip(m1.orders.tolist(), m1.weights):
        shift = n1 * m_ratio if inter else -n1 * m_ratio
        for n2, w2 in zip(m2.orders.tolist(), m2.weights):
            line = n1 + n2 if inter else n2 - n1
            edge = line * m_ratio + offset
            lo, hi = max(0, edge, shift), min(n, n + edge, n + shift)
            if hi > lo:
                amp[line - first, lo:hi] += (w1 * w2) * field[lo - shift : hi - shift]
    with np.errstate(over="ignore"):
        profiles = np.abs(amp) ** 2 / cell_area
    if not math.isfinite(np.max(profiles)):
        raise PreconditionError(
            f"exact joint structure overflows a double at grid spacing {grid.delta_omega} rad/ps"
        )

    return JointGrid(
        grid=grid,
        ridge_axis=OMEGA_PLUS if inter else OMEGA_MINUS,
        mod_freq=m1.mod_freq,
        m_ratio=m_ratio,
        orders=orders,
        profiles=profiles,
        background_factor_1=_modulated_flux_density(source, m1, m_ratio),
        background_factor_2=_modulated_flux_density(source, m2, m_ratio),
    )


def baseline(source: SourceFields, config: str):
    """No-element reference: the matching correlator with identity elements.

    For the spectral configurations the identity modulator is an index-zero
    comb (single n = 0 line) at unit drive frequency.
    """
    if config in (INTER_TIME, INTRA_TIME):
        identity = DispersiveElement.identity()
        return _g2_time(source, identity, identity, config == INTER_TIME)
    if config in (INTER_FREQ, INTRA_FREQ):
        comb = build_comb(1.0, 0.0)
        return _g2_freq_narrowband(source, comb, comb, config == INTER_FREQ)
    raise ValueError(f"unknown configuration {config!r}")
