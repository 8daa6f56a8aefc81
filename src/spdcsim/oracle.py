"""Independent brute-force references used by the test suite.

Everything here deliberately avoids the production numerics: correlation
traces come from composite Simpson sums instead of FFTs, Bessel values from
the integral representation instead of the Miller recurrence, and the
low-gain parametric amplitude from first-order perturbation theory.  Slow is
fine; independent is the point.
"""

import math

import numpy as np

from .correlators import INTER_TIME, INTRA_TIME, TEMPORAL
from .elements import DispersiveElement
from .grid import FrequencyGrid
from .source import PhaseMismatch, SourceFields

MAX_TAU_SAMPLES = 4096
MAX_PERTURBATIVE_GAIN = 0.05


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n uniform samples of spacing h.

    For an even sample count (odd interval count) the final interval is
    handled by the trapezoid rule; constants integrate exactly either way.
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0:m] = 2.0
    w[1:m:2] = 4.0
    w[0] = 1.0
    w[m - 1] = 1.0
    w[0:m] *= h / 3.0
    if m < n:
        w[m - 1] += 0.5 * h
        w[m] += 0.5 * h
    return w


def _transfer(element: DispersiveElement, omegas: np.ndarray) -> np.ndarray:
    """exp(i sum_k Phi_k Omega^k / k!), from the element's coefficients alone."""
    phase = np.zeros_like(omegas)
    for k, phi in enumerate(element.phase_coeffs, start=1):
        phase += (phi / math.factorial(k)) * omegas**k
    return np.exp(1j * phase)


def quadrature_g2(
    source: SourceFields,
    h1: DispersiveElement,
    h2: DispersiveElement,
    config: str,
    tau_list: np.ndarray,
) -> np.ndarray:
    """Temporal correlation values by direct Simpson integration, no FFT.

    Same contract as the FFT correlators: returns N^2 + |(1/2pi) int dW
    F(W) e^{iW tau}|^2 at the requested delays, with the interbeam integrand
    R(W) H1(W) H2(-W) or the intrabeam integrand S(W) H1*(W) H2(W).
    """
    if config not in TEMPORAL:
        raise ValueError(f"config must be {INTER_TIME!r} or {INTRA_TIME!r}, got {config!r}")
    taus = np.asarray(tau_list, dtype=float)
    if taus.size > MAX_TAU_SAMPLES:
        raise ValueError(f"tau_list longer than {MAX_TAU_SAMPLES}")

    grid = source.grid
    t1 = _transfer(h1, grid.omegas)
    t2 = _transfer(h2, grid.omegas)
    if config == INTER_TIME:
        integrand = source.R * t1 * grid.reflect(t2)
    else:
        integrand = source.S * np.conj(t1) * t2

    weighted = integrand * _simpson_weights(grid.n_points, grid.delta_omega)
    values = np.empty(taus.size)
    n2 = source.flux_n**2
    chunk = 256
    for lo in range(0, taus.size, chunk):
        block = taus[lo : lo + chunk]
        kernel = np.exp(1j * np.outer(block, grid.omegas))
        amps = kernel @ weighted / (2.0 * np.pi)
        values[lo : lo + block.size] = n2 + np.abs(amps) ** 2
    return values


def perturbative_v(gain: float, mismatch: PhaseMismatch, grid: FrequencyGrid) -> np.ndarray:
    """First-order parametric amplitude V = -i*gain*e^{i DL/2}*sinc(DL/2).

    Valid for gain <= 0.05 where the next correction is O(gain^3); used to
    bound the full Bogoliubov evaluation at O(gain^2).
    """
    if gain > MAX_PERTURBATIVE_GAIN:
        raise ValueError(f"perturbative form requires gain <= {MAX_PERTURBATIVE_GAIN}")
    dl = mismatch.phase(grid.omegas)
    return -1j * gain * np.exp(0.5j * dl) * np.sinc(dl / (2.0 * np.pi))


def bessel_quadrature(n: int, x: float) -> float:
    """J_n(x) from (1/pi) int_0^pi cos(n t - x sin t) dt, 2048-interval Simpson."""
    if abs(n) > 200:
        raise ValueError("|n| <= 200 required")
    if abs(x) > 50.0:
        raise ValueError("|x| <= 50 required")
    intervals = 2048
    t = np.linspace(0.0, np.pi, intervals + 1)
    f = np.cos(n * t - x * np.sin(t))
    w = _simpson_weights(intervals + 1, t[1] - t[0])
    return float(np.sum(w * f) / np.pi)

