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
from .grid import FrequencyGrid

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

    def phase(self, omegas: np.ndarray) -> np.ndarray:
        """Spectral phase sum_k Phi_k Omega^k / k! in radians."""
        out = np.zeros_like(omegas, dtype=float)
        for k, phi in enumerate(self.phase_coeffs, start=1):
            if phi != 0.0:
                out += (phi / _FACTORIALS[k]) * omegas**k
        return out


def dispersive_transfer(element: DispersiveElement, grid: FrequencyGrid) -> np.ndarray:
    """Unit-modulus transfer samples exp(i * phase) on the grid.

    Raises ``PreconditionError`` where the phase overflows a double.

    The result is read-only and memoised on the element for the last grid it
    was asked for, so the points of a sweep that share one element object
    evaluate its phase once.  Threads racing on a first call may each compute
    the same samples; any of them is kept.
    """
    memo = element.__dict__.get("_transfer")
    if memo is not None and memo[0] == grid:
        return memo[1]
    if not element.phase_coeffs:
        out = np.ones(grid.n_points, dtype=complex)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(1j * element.phase(grid.omegas))
        # exp(i * phase) is finite exactly where the phase is.
        if not np.all(np.isfinite(out)):
            raise PreconditionError(
                "dispersive phase is not finite on the grid; reduce the phase "
                "coefficients or the grid span"
            )
    out.setflags(write=False)
    object.__setattr__(element, "_transfer", (grid, out))
    return out


def _bessel_row_loops(x, n_max, start):
    """Backward (Miller) recurrence for J_0(x)..J_n_max(x), x > 0.

    Recurs J_{k-1} = (2k/x) J_k - J_{k+1} downward from an arbitrary seed at
    order ``start`` and normalizes with J_0 + 2*(J_2 + J_4 + ...) = 1.
    Magnitudes are rescaled whenever they grow past 1e250.
    """
    row = np.zeros(n_max + 1)
    f_up = 0.0
    f = 1e-300
    norm = 0.0
    for k in range(start, -1, -1):
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


def _bessel_row(x: float, n_max: int) -> np.ndarray:
    """J_0(x)..J_n_max(x) for x > 0 via the normalized Miller recurrence."""
    start = max(n_max, int(np.ceil(x))) + 36
    return _bessel_row_loops(float(x), int(n_max), int(start))


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
        hit = np.nonzero(self.orders == n)[0]
        return float(self.weights[hit[0]]) if hit.size else 0.0


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
        return ModulatorComb(
            mod_freq=float(mod_freq),
            index=float(index) if index != 0.0 else 0.0,
            orders=orders,
            weights=weights,
        )

    x = abs(index)
    hard_cap = int(np.ceil(x + 12.0 * np.sqrt(x) + 20.0))
    row = _bessel_row(x, hard_cap)

    orders_list = []
    weights_list = []
    for n in range(-hard_cap, hard_cap + 1):
        w = row[abs(n)]
        if n < 0 or index < 0:
            # J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x)
            flips = (1 if n < 0 else 0) + (1 if index < 0 else 0)
            if (abs(n) % 2 == 1) and (flips % 2 == 1):
                w = -w
        if abs(w) >= COMB_PRUNE:
            orders_list.append(n)
            weights_list.append(w)

    return ModulatorComb(
        mod_freq=float(mod_freq),
        index=float(index),
        orders=np.array(orders_list, dtype=np.int64),
        weights=np.array(weights_list),
    )
