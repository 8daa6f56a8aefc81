"""Test-only frozen copies of the source and temporal-trace kernels.

The library builds the temporal integrand straight into FFT order, evaluates
the small-|GL| series only where it is used, squares |V| once, evaluates
cosh(GL) and sinh(GL)/GL on half the grid when the mismatch is odd,
memoises exp(i DL/2) and raises each detuning power once per grid object,
gates each source's bandwidth once per pairing, and writes cos and sin of
an element's phase into the parts of its transfer.  Each of those is meant
to change no output bit, so the tests compare the library with the
straightforward forms kept here: ``evaluate_uv`` and ``_cosh_and_sinhc``
with the series and ``np.where`` over the whole array, ``phase`` and
``dispersive_transfer`` raising ``omegas**k`` on every call, the transfer
as ``np.exp(1j * phase)``, ``check_alias`` building the weight and its
bandwidth on every call, ``g2_time`` with explicit ``ifftshift``/``fftshift``
around the FFT, and ``rms_width`` summing the subtracted trace twice.
"""

import math

import numpy as np

from spdcsim.analysis import DEGENERATE_MASS_FRACTION, WidthReport, _fwhm
from spdcsim.correlators import (
    ALIAS_WINDOW_FRACTION,
    Correlation1D,
    _combined_phase_coeffs,
    _rms_bandwidth,
    _structure_weight,
)
from spdcsim.elements import _FACTORIALS
from spdcsim.errors import AliasRisk, DegenerateTrace, PreconditionError
from spdcsim.source import (
    _SERIES_CUTOFF,
    _UNITARITY_TOL,
    PHYSICAL,
    SourceFields,
    gamma_of,
)


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


def check_alias(grid, weight, combined_coeffs):
    """Reject setups whose dispersed trace would wrap around the FFT window."""
    if float(np.sum(weight)) == 0.0:
        return
    bw = _rms_bandwidth(weight, grid.omegas)
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
    check_alias(grid, _structure_weight(source, inter), _combined_phase_coeffs(h1, h2, inter))
    t1 = dispersive_transfer(h1, grid)
    t2 = dispersive_transfer(h2, grid)
    integrand = source.R * t1 * grid.reflect(t2) if inter else source.S * np.conj(t1) * t2
    return build_correlation(trace_amplitude(integrand, grid), grid, source.flux_n)


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
    return WidthReport(rms_width=rms, fwhm=_fwhm(corr.tau_grid, sub), centroid=centroid)
