"""Passive path elements: dispersive media and sinusoidal phase modulators.

A dispersive element is a pure spectral phase H(omega0 + Omega) =
exp(i * sum_k Phi_k Omega^k / k!), k = 1..5, with Phi_k in ps^k (Phi_2 is the
usual group-delay dispersion).  A sinusoidal phase modulator driven at Omega_m
with modulation index theta is a sparse sideband comb: the Jacobi-Anger
expansion turns exp(i theta sin(Omega_m t)) into delta lines at n*Omega_m
weighted by J_n(theta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grid import FrequencyGrid, memo

MAX_PHASE_ORDER = 5
BESSEL_MAX_ORDER = 200
BESSEL_MAX_ARG = 50.0
MAX_MOD_INDEX = 20.0
COMB_PRUNE = 1e-12

_FACTORIALS = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0)

_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250


@dataclass(frozen=True)
class DispersiveElement:
    """Pure-phase dispersive element, empty coefficient list = identity."""

    phase_coeffs: tuple = ()

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.phase_coeffs)
        if len(coeffs) > MAX_PHASE_ORDER:
            raise ValueError(f"at most {MAX_PHASE_ORDER} phase orders supported")
        if not all(np.isfinite(coeffs)):
            raise ValueError("phase coefficients must be finite")
        object.__setattr__(self, "phase_coeffs", coeffs)

    @classmethod
    def identity(cls) -> "DispersiveElement":
        return cls()

    def coefficient(self, order: int) -> float:
        """Phi_k for 1-based order k, zero if absent."""
        if 1 <= order <= len(self.phase_coeffs):
            return self.phase_coeffs[order - 1]
        return 0.0

    def phase(self, grid: FrequencyGrid) -> np.ndarray:
        """Spectral phase sum_k Phi_k Omega^k / k! in radians on the grid.

        Each power Omega^k is ``grid.omega_power(k)``, raised once per grid
        object, so elements on one grid do not raise it again.
        """
        out = np.zeros(grid.n_points)
        for k, phi in enumerate(self.phase_coeffs, start=1):
            if phi != 0.0:
                out += (phi / _FACTORIALS[k]) * grid.omega_power(k)
        return out


def dispersive_transfer(element: DispersiveElement, grid: FrequencyGrid) -> np.ndarray:
    """Unit-modulus transfer samples exp(i * phase) on the grid.

    Raises ``PreconditionError`` where the phase overflows a double.

    The result is read-only and memoised on the element for the last grid it
    was asked for, so the points of a sweep that share one element object
    evaluate its phase once.
    """
    return memo(element, "_transfer", grid, lambda: _transfer(element, grid))


def _transfer(element: DispersiveElement, grid: FrequencyGrid) -> np.ndarray:
    """cos(phase) + i sin(phase), written into the parts of one array.

    These are the bits of ``np.exp(1j * phase)`` (matched on 15 M draws of
    magnitude 1e-300 to 1e300), without its complex temporaries, except at
    a phase of -0.0, where ``sin`` keeps the sign that ``1j * phase`` drops.
    ``DispersiveElement.phase`` never returns -0.0: it adds terms to +0.0
    zeros, and a sum is -0.0 only when every term is.
    """
    if not element.phase_coeffs:
        return np.ones(grid.n_points, dtype=complex)
    out = np.empty(grid.n_points, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = element.phase(grid)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
    # cos and sin are finite exactly where the phase is.
    if not np.all(np.isfinite(out)):
        raise PreconditionError(
            "dispersive phase is not finite on the grid; reduce the phase "
            "coefficients or the grid span"
        )
    return out


def _bessel_row(x: float, n_max: int) -> np.ndarray:
    """J_0(x)..J_n_max(x) for x > 0 via the normalized Miller recurrence.

    Recurs J_{k-1} = (2k/x) J_k - J_{k+1} downward from an arbitrary seed 36
    orders above max(n_max, x) and normalizes with J_0 + 2*(J_2 + J_4 + ...)
    = 1.  Magnitudes are rescaled whenever they grow past 1e250.
    """
    x = float(x)
    n_max = int(n_max)
    row = np.zeros(n_max + 1)
    f_up = 0.0
    f = 1e-300
    norm = 0.0
    for k in range(max(n_max, int(np.ceil(x))) + 36, -1, -1):
        if k <= n_max:
            row[k] = f
        if k == 0:
            norm += f
        elif k % 2 == 0:
            norm += 2.0 * f
        if k > 0:
            f_down = (2.0 * k / x) * f - f_up
            f_up = f
            f = f_down
            if abs(f) > _RESCALE_LIMIT:
                f *= _RESCALE
                f_up *= _RESCALE
                norm *= _RESCALE
                row *= _RESCALE
    return row / norm


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x).

    Valid for |n| <= 200 and |x| <= 50; negative arguments reduce through
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    n = int(n)
    if abs(n) > BESSEL_MAX_ORDER:
        raise ValueError(f"|n| <= {BESSEL_MAX_ORDER} required, got {n}")
    if abs(x) > BESSEL_MAX_ARG:
        raise ValueError(f"|x| <= {BESSEL_MAX_ARG} required, got {x}")
    sign = 1.0
    if n < 0:
        n = -n
        sign *= (-1.0) ** n
    if x < 0:
        x = -x
        sign *= (-1.0) ** n
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    return sign * float(_bessel_row(x, n)[n])


@dataclass(frozen=True)
class ModulatorComb:
    """Sparse sideband comb of one sinusoidal phase modulator.

    ``orders`` and ``weights`` hold the retained lines (|J_n(index)| >= 1e-12)
    with weights summing in quadrature to one.
    """

    mod_freq: float
    index: float
    orders: np.ndarray
    weights: np.ndarray

    @property
    def n_max(self) -> int:
        """Largest retained |n|."""
        return int(np.max(np.abs(self.orders)))

    def line_weight(self, n: int) -> float:
        """J_n(index), zero if the line was pruned."""
        return float(at_order(self.orders, self.weights, n))


def at_order(orders: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Row of ``values`` at comb order n, or zeros of one row's shape if no
    row holds that order."""
    hit = np.nonzero(orders == n)[0]
    return values[hit[0]] if hit.size else np.zeros(values.shape[1:], dtype=values.dtype)


def check_modulator(mod_freq: float, index: float, max_index: float = MAX_MOD_INDEX) -> None:
    """Raise ``ValueError`` unless mod_freq is finite and positive and the
    index finite with |index| <= max_index."""
    if not (mod_freq > 0 and math.isfinite(mod_freq)):
        raise ValueError(f"mod_freq must be finite and positive, got {mod_freq}")
    if not math.isfinite(index):
        raise ValueError(f"index must be finite, got {index}")
    if abs(index) > max_index:
        raise ValueError(f"|index| <= {max_index} required, got {index}")


def build_comb(mod_freq: float, index: float, max_index: float = MAX_MOD_INDEX) -> ModulatorComb:
    """Build the sideband comb for drive frequency mod_freq and index theta.

    ``max_index`` is 20 for one modulator; the combined index of two
    modulators at one drive frequency reaches twice that.
    """
    check_modulator(mod_freq, index, max_index)

    if abs(index) < COMB_PRUNE:
        # |J_1| ~ |index|/2 is pruned and J_0 rounds to 1: only the n = 0 line
        # remains.  Below |index| ~ 1e-57 the recurrence would overflow.
        orders = np.array([0], dtype=np.int64)
        weights = np.array([1.0])
        index = index if index != 0.0 else 0.0
    else:
        x = abs(index)
        hard_cap = int(np.ceil(x + 12.0 * np.sqrt(x) + 20.0))
        orders = np.arange(-hard_cap, hard_cap + 1, dtype=np.int64)
        weights = _bessel_row(x, hard_cap)[np.abs(orders)]
        # J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x)
        flip = (orders % 2 == 1) & ((orders < 0) != (index < 0))
        np.negative(weights, out=weights, where=flip)
        keep = np.abs(weights) >= COMB_PRUNE
        orders, weights = orders[keep], weights[keep]
    return ModulatorComb(
        mod_freq=float(mod_freq), index=float(index), orders=orders, weights=weights
    )
