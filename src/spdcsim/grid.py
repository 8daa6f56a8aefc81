"""Frequency/delay grid shared by all spectral quantities.

Detuning samples are Omega_k = (k - n/2) * delta_omega in rad/ps, so the grid
is symmetric around the degenerate frequency except for the single -Omega_max
endpoint at k = 0.  The paired delay grid tau_j = (j - n/2) * delta_tau with
delta_tau = 2*pi / (n * delta_omega) makes a plain FFT implement the
e^{+i*Omega*tau} transform used by the temporal correlators.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric detuning grid and its FFT-paired delay grid.

    Attributes:
        n_points: number of samples, a power of two >= 64.
        delta_omega: grid spacing in rad/ps.
    """

    n_points: int
    delta_omega: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_points, int) or not _is_power_of_two(self.n_points):
            raise ValueError(f"n_points must be a power of two, got {self.n_points}")
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
