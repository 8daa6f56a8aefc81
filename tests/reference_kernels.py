"""Test-only frozen copies of the source and temporal-trace kernels.

The library builds the temporal integrand straight into FFT order, evaluates
the small-|GL| series only where it is used, squares |V| once, evaluates
cosh(GL) and sinh(GL)/GL on half the grid when the mismatch is odd,
memoises exp(i DL/2) and raises each detuning power once per grid object,
gates each source's bandwidth once per pairing, and writes cos and sin of
an element's phase into the parts of its transfer.  It multiplies in no
transfer of an identity element, evaluates a GDD-only transfer on half the
grid and mirrors it (and so reflects none), and squares |x| in the buffer
of its modulus.  It conjugates the intrabeam H1 a half at a time,
transforms the integrand in its own buffer, and forms the moments of
``rms_width`` in one scratch array.  Each of those is meant to change no
output bit, so the tests compare the library with the straightforward forms
kept here: ``evaluate_uv`` and ``_cosh_and_sinhc`` with the series and
``np.where`` over the whole array and ``np.abs(x) ** 2``, ``phase`` and
``dispersive_transfer`` raising ``omegas**k`` on every call, the transfer
as ``np.exp(1j * phase)``, ``transfer`` as cos and sin over the whole grid
with ``np.ones`` for an element without coefficients, ``check_alias``
building the weight and its bandwidth on every call, ``g2_time``
multiplying both transfers in, identities included, conjugating H1 over the
full width and reflecting the second one, with explicit
``ifftshift``/``fftshift`` around an out-of-place FFT,
``build_correlation`` adding ``np.abs(amp) ** 2``, and ``rms_width``
summing the subtracted trace twice and writing tau * w and
(tau - centroid) ** 2 * w out, a fresh temporary for each operation.
The helpers these forms call (``gamma_of``, ``structure_weight``,
``rms_bandwidth``, ``combined_phase_coeffs`` and ``fwhm``) are copies too,
so no reference moves with the library; ``tests/test_imports.py`` holds
this module to constants, types and errors from ``spdcsim``.
"""

import math

import numpy as np

from spdcsim.analysis import DEGENERATE_MASS_FRACTION, WidthReport
from spdcsim.correlators import ALIAS_WINDOW_FRACTION, Correlation1D
from spdcsim.errors import AliasRisk, DegenerateTrace, PreconditionError
from spdcsim.source import _SERIES_CUTOFF, _UNITARITY_TOL, PHYSICAL, SourceFields

# k! for k = 0..5, written out so that these copies do not follow the library.
_FACTORIALS = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0)


def gamma_of(gain, mismatch_phase):
    """GL = sqrt(gain^2 - (DL)^2 / 4), principal branch."""
    gain = np.asarray(gain, dtype=complex)
    mismatch_phase = np.asarray(mismatch_phase, dtype=complex)
    return np.sqrt(gain**2 - mismatch_phase**2 / 4.0)


def cosh_and_sinhc(z):
    """cosh(z) and sinh(z)/z with a 4th-order series below |z| = 1e-6."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    cosh = np.cosh(safe)
    sinhc = np.sinh(safe) / safe
    z2 = z * z
    cosh_series = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
    sinhc_series = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, cosh_series, cosh), np.where(small, sinhc_series, sinhc)


def evaluate_uv(spec, grid):
    """Sample U, V and the derived spectra of a physical source on a grid."""
    if spec.mode != PHYSICAL:
        raise ValueError("evaluate_uv requires a physical-mode source")
    with np.errstate(over="ignore", invalid="ignore"):
        dl = spec.mismatch.phase(grid.omegas)
        gl = gamma_of(spec.gain, dl)
        cosh_gl, sinhc_gl = cosh_and_sinhc(gl)
        half_phase = np.exp(0.5j * dl)
        u = half_phase * (cosh_gl - 0.5j * dl * sinhc_gl)
        v = -1j * spec.gain * half_phase * sinhc_gl
        unitarity = np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0
        worst = float(np.max(np.abs(unitarity)))
    if not worst <= _UNITARITY_TOL:
        raise PreconditionError(f"Bogoliubov unitarity violated by {worst:.3e}")

    s = np.abs(v) ** 2
    r = u * grid.reflect(v)
    flux = float(np.sum(s)) * grid.delta_omega / (2.0 * np.pi)
    return SourceFields(grid=grid, R=r, S=s, flux_n=flux, mode=PHYSICAL, U=u, V=v)


def phase(element, omegas):
    """Spectral phase sum_k Phi_k Omega^k / k! in radians."""
    out = np.zeros_like(omegas, dtype=float)
    for k, phi in enumerate(element.phase_coeffs, start=1):
        if phi != 0.0:
            out += (phi / _FACTORIALS[k]) * omegas**k
    return out


def dispersive_transfer(element, grid):
    """Unit-modulus transfer samples exp(i * phase) on the grid."""
    if not element.phase_coeffs:
        return np.ones(grid.n_points, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(1j * phase(element, grid.omegas))
    if not np.all(np.isfinite(out)):
        raise PreconditionError(
            "dispersive phase is not finite on the grid; reduce the phase "
            "coefficients or the grid span"
        )
    return out


def transfer(element, grid):
    """cos(phase) + i sin(phase) on every sample of the grid."""
    if not element.phase_coeffs:
        return np.ones(grid.n_points, dtype=complex)
    out = np.empty(grid.n_points, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        angle = phase(element, grid.omegas)
        np.cos(angle, out=out.real)
        np.sin(angle, out=out.imag)
    if not np.all(np.isfinite(out)):
        raise PreconditionError(
            "dispersive phase is not finite on the grid; reduce the phase "
            "coefficients or the grid span"
        )
    return out


def structure_weight(source, inter):
    """|R|^2 interbeam, S^2 intrabeam."""
    return np.abs(source.R) ** 2 if inter else source.S**2


def rms_bandwidth(weight, omegas):
    """RMS width of ``weight`` about its centroid over ``omegas``."""
    total = float(np.sum(weight))
    if total <= 0:
        return 0.0
    mean = float(np.sum(omegas * weight)) / total
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.sum((omegas - mean) ** 2 * weight)) / total
    return float(np.sqrt(max(var, 0.0)))


def combined_phase_coeffs(h1, h2, inter):
    """c_k = Phi_k(1) + (-1)^k Phi_k(2) interbeam, Phi_k(2) - Phi_k(1)
    intrabeam, for k = 1..5; an absent coefficient is 0."""

    def coefficient(element, k):
        coeffs = element.phase_coeffs
        return coeffs[k - 1] if k <= len(coeffs) else 0.0

    orders = range(1, 6)
    if inter:
        return [coefficient(h1, k) + ((-1) ** k) * coefficient(h2, k) for k in orders]
    return [coefficient(h2, k) - coefficient(h1, k) for k in orders]


def check_alias(grid, weight, combined_coeffs):
    """Reject setups whose dispersed trace would wrap around the FFT window."""
    if float(np.sum(weight)) == 0.0:
        return
    bw = rms_bandwidth(weight, grid.omegas)
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


def trace_amplitude(integrand, grid):
    """(1/2pi) * Riemann sum of F(Omega) e^{i Omega tau} on the delay grid."""
    amp = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(integrand)))
    return amp * (grid.n_points * grid.delta_omega / (2.0 * np.pi))


def build_correlation(amp, grid, flux):
    values = flux * flux + np.abs(amp) ** 2
    peak_tau = float(grid.taus[int(np.argmax(values))])
    return Correlation1D(
        tau_grid=grid.taus, values=values, background=flux * flux, peak_tau=peak_tau
    )


def g2_time(source, h1, h2, inter):
    """Temporal trace of either pairing: integrand R H1(W) H2(-W) interbeam,
    S H1*(W) H2(W) intrabeam."""
    grid = source.grid
    check_alias(grid, structure_weight(source, inter), combined_phase_coeffs(h1, h2, inter))
    t1 = dispersive_transfer(h1, grid)
    t2 = dispersive_transfer(h2, grid)
    integrand = source.R * t1 * grid.reflect(t2) if inter else source.S * np.conj(t1) * t2
    return build_correlation(trace_amplitude(integrand, grid), grid, source.flux_n)


def fwhm(taus, sub):
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


def rms_width(corr):
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
    return WidthReport(rms_width=rms, fwhm=fwhm(corr.tau_grid, sub), centroid=centroid)
