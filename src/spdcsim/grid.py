"""Frequency/delay grid shared by all spectral quantities.

Detuning samples are Omega_k = (k - n/2) * delta_omega in rad/ps, so the grid
is symmetric around the degenerate frequency except for the single -Omega_max
endpoint at k = 0.  The paired delay grid tau_j = (j - n/2) * delta_tau with
delta_tau = 2*pi / (n * delta_omega) makes a plain FFT implement the
e^{+i*Omega*tau} transform used by the temporal correlators.

A grid object computes its samples once: ``omegas`` and ``taus`` are
read-only arrays cached on the object, so everything handed the same grid
object (every point of a sweep on its base's grid) shares them.  ``memo``
keeps the rest of what a sweep shares, read-only, on an object: the powers
``omega_power(k)`` and the source's exp(i DL/2) on the grid, the transfer on
an element and the structure bandwidths on the source fields.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import echo


def memo(owner, name: str, key, compute):
    """The value kept on ``owner`` under ``name`` for ``key``, computed once.

    The entry ``(key, value)`` lives in ``owner.__dict__`` as long as the
    owner, outside a frozen dataclass's ``==`` and ``hash``.  An equal key
    returns the kept value; another calls ``compute()``, makes an array
    result read-only and replaces the entry, unless ``compute`` raises.
    Threads racing on a first call may each compute; any result is kept.
    """
    entry = owner.__dict__.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    value = compute()
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    owner.__dict__[name] = (key, value)
    return value


def half_samples(samples: np.ndarray) -> np.ndarray:
    """The samples at indices [0] + [n/2, n): the unpaired -Omega_max
    endpoint, then Omega >= 0.  ``even_from_half`` mirrors them back."""
    m = samples.size // 2
    return np.concatenate((samples[:1], samples[m:]))


def even_from_half(half: np.ndarray) -> np.ndarray:
    """Full-grid samples of an even function from its ``half_samples``:
    index n/2 - j takes the value at n/2 + j, and the unpaired -Omega_max
    endpoint keeps its own.  The result is its own ``FrequencyGrid.reflect``."""
    m = half.size - 1  # n/2
    out = np.empty(2 * m, dtype=half.dtype)
    out[0] = half[0]
    out[m:] = half[1:]
    out[1:m] = half[:1:-1]
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric detuning grid and its FFT-paired delay grid.

    Attributes:
        n_points: number of samples, a power of two >= 64.
        delta_omega: grid spacing in rad/ps.

    Equality and hashing see only these two fields; the sample arrays cached
    on an object are not part of its value.
    """

    n_points: int
    delta_omega: float

    def __post_init__(self) -> None:
        if isinstance(self.n_points, np.integer):  # an int, which json.dumps can write
            object.__setattr__(self, "n_points", int(self.n_points))
        if not isinstance(self.n_points, int):
            raise ValueError(f"n_points must be an integer, got {echo(self.n_points)}")
        if not _is_power_of_two(self.n_points):
            raise ValueError(f"n_points must be a power of two, got {echo(self.n_points)}")
        if self.n_points < 64:
            raise ValueError(f"n_points must be >= 64, got {self.n_points}")
        if not (self.delta_omega > 0 and math.isfinite(self.delta_omega)):
            raise ValueError(
                f"delta_omega must be finite and positive, got {self.delta_omega}"
            )

    @property
    def omega_max(self) -> float:
        """Largest detuning magnitude on the grid, (n/2)*delta_omega."""
        return 0.5 * self.n_points * self.delta_omega

    @property
    def delta_tau(self) -> float:
        """Delay-grid spacing in ps, 2*pi/(n*delta_omega)."""
        return 2.0 * np.pi / (self.n_points * self.delta_omega)

    @property
    def tau_window(self) -> float:
        """Full span of the delay grid in ps."""
        return self.n_points * self.delta_tau

    @cached_property
    def omegas(self) -> np.ndarray:
        """Detuning samples Omega_k = (k - n/2)*delta_omega, rad/ps."""
        k = np.arange(self.n_points)
        out = (k - self.n_points // 2) * self.delta_omega
        out.setflags(write=False)
        return out

    @cached_property
    def taus(self) -> np.ndarray:
        """Delay samples tau_j = (j - n/2)*delta_tau, ps."""
        j = np.arange(self.n_points)
        out = (j - self.n_points // 2) * self.delta_tau
        out.setflags(write=False)
        return out

    def omega_power(self, k: int) -> np.ndarray:
        """Detuning power Omega_k**k for an order k >= 1, read-only.

        Computed once per grid object, as ``omegas**k``; ``k == 1`` is
        ``omegas`` itself, which has the same bits.  A power that overflows
        is left infinite without a warning, for the caller's finite check to
        refuse.  Each order has its own entry: two five-order elements read
        powers 2-5 in turn.
        """
        if k == 1:
            return self.omegas
        with np.errstate(over="ignore", invalid="ignore"):
            return memo(self, f"_omega_power_{k}", None, lambda: self.omegas**k)

    def reflect(self, samples: np.ndarray) -> np.ndarray:
        """Resample an on-grid function at -Omega by index reflection.

        Index k maps to n - k; the k = 0 endpoint (-Omega_max, which has no
        +Omega_max partner) maps to itself.
        """
        if samples.shape != (self.n_points,):
            raise ValueError("samples do not match the grid")
        out = np.empty_like(samples)
        out[0] = samples[0]
        out[1:] = samples[1:][::-1]
        return out

    def index_of_tau_zero(self) -> int:
        """Index of tau = 0 on the delay grid."""
        return self.n_points // 2
