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
from .grid import FrequencyGrid, even_from_half, half_samples, memo

MAX_PHASE_ORDER = 5
MAX_MOD_INDEX = 20.0
COMB_PRUNE = 1e-12

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

    @property
    def is_identity(self) -> bool:
        """Whether every coefficient is zero (of either sign), the empty list
        included: then the transfer is 1 + 0j at every sample."""
        return not any(self.phase_coeffs)

    @property
    def is_gdd_only(self) -> bool:
        """Whether no coefficient but Phi_2 is nonzero.  Then the phase is
        even bit for bit, since Omega**2 is the same at +-Omega; the odd
        powers flip sign, and numpy's Omega**4 is not sign-symmetric."""
        return not any(c for k, c in enumerate(self.phase_coeffs, start=1) if k != 2)

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
                out += (phi / math.factorial(k)) * grid.omega_power(k)
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

    A GDD-only element's phase is even (``is_gdd_only``), so cos and sin run
    on its ``grid.half_samples`` only and are mirrored onto the rest
    (``grid.even_from_half``): the same bits, and the transfer is its own
    reflection.  Orders 1 and 3-5 keep the full grid.  An identity element
    gives 1 + 0j everywhere, but the correlators multiply in no transfer of
    one and so build none.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phase = element.phase(grid)
        if element.is_gdd_only:
            phase = half_samples(phase)
        out = np.empty(phase.size, dtype=complex)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
    # cos and sin are finite exactly where the phase is.
    if not np.all(np.isfinite(out)):
        raise PreconditionError(
            "dispersive phase is not finite on the grid; reduce the phase "
            "coefficients or the grid span"
        )
    return even_from_half(out) if element.is_gdd_only else out


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


def _bessel_negates(orders, x: float):
    """Where J_n(x) = -J_|n|(|x|), for an order or an array of orders n: at
    odd n with exactly one of n and x negative (J_-n(x) = (-1)^n J_n(x) and
    J_n(-x) = (-1)^n J_n(x)); ``build_comb`` signs its lines with it."""
    return (orders % 2 == 1) & ((orders < 0) != (x < 0))


@dataclass(frozen=True)
class ModulatorComb:
    """Sparse sideband comb of one sinusoidal phase modulator.

    ``orders`` and ``weights`` hold the retained lines (|J_n(index)| >= 1e-12)
    with weights summing in quadrature to one.  The orders are symmetric:
    n is retained exactly when -n is, since |J_-n| = |J_n| and lines are
    pruned by |J_n|.  So they span -n_max .. n_max.
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
        np.negative(weights, out=weights, where=_bessel_negates(orders, index))
        keep = np.abs(weights) >= COMB_PRUNE
        orders, weights = orders[keep], weights[keep]
    return ModulatorComb(
        mod_freq=float(mod_freq), index=float(index), orders=orders, weights=weights
    )
