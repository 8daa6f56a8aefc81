"""Closed-form Heisenberg solution of CW-pumped degenerate SPDC.

The parametric interaction over a crystal of dimensionless gain sigma*L and
phase mismatch Delta(Omega)*L mixes each signal mode at detuning +Omega with
the idler mode at -Omega through the Bogoliubov transfer functions

    U(Omega) = e^{i DL/2} [cosh(GL) - i (DL / 2GL) sinh(GL)]
    V(Omega) = -i (sigma L / GL) e^{i DL/2} sinh(GL)

with DL = Delta(Omega)*L and GL = sqrt((sigma L)^2 - DL^2/4) taken on the
principal complex branch, so the oscillatory phase-mismatched regime needs no
case split.  Derived spectra: R(Omega) = U(Omega) V(-Omega) drives interbeam
(signal-idler) correlations, S(Omega) = |V(Omega)|^2 is the photon spectrum
of one beam, and the per-beam flux is N = (1/2pi) * integral of S.

Units: detunings in rad/ps, delays in ps, gain dimensionless.  The absolute
carrier frequency is metadata only; all physics depends on detuning.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .grid import FrequencyGrid

_SERIES_CUTOFF = 1e-6
_UNITARITY_TOL = 1e-10

PHYSICAL = "physical"
ANALYTIC = "analytic"


@dataclass(frozen=True)
class PhaseMismatch:
    """Taylor expansion of the phase mismatch, Delta(Omega)*L = sum d_k Omega^k.

    Coefficients start at the linear term (d_1, in ps; d_k in ps^k); the
    constant term is identically zero, fixing perfect phase matching at
    degeneracy.  At most six orders are supported.
    """

    taylor_coeffs: tuple = ()

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.taylor_coeffs)
        if len(coeffs) > 6:
            raise ValueError("phase mismatch supports at most 6 Taylor orders")
        if not all(np.isfinite(coeffs)):
            raise ValueError("phase mismatch coefficients must be finite")
        object.__setattr__(self, "taylor_coeffs", coeffs)

    @property
    def is_odd(self) -> bool:
        """Whether every even-order coefficient is zero (of either sign).

        Then each Horner step of ``phase`` maps -Omega to the exact negation
        of its value at +Omega, so the phase is odd bit for bit up to the
        sign of a zero.
        """
        return not any(self.taylor_coeffs[1::2])

    def phase(self, omegas: np.ndarray) -> np.ndarray:
        """Dimensionless mismatch phase Delta(Omega)*L on the given detunings."""
        out = np.zeros_like(omegas, dtype=float)
        for d in reversed(self.taylor_coeffs):
            out = (out + d) * omegas
        return out


@dataclass(frozen=True)
class SourceSpec:
    """Physical (gain + mismatch) or analytic-envelope source description."""

    mode: str
    gain: float = 0.0
    mismatch: PhaseMismatch = field(default_factory=PhaseMismatch)
    envelope_bandwidth: float = 0.0
    center_frequency: float | None = None  # rad/ps, metadata only

    def __post_init__(self) -> None:
        if self.mode not in (PHYSICAL, ANALYTIC):
            raise ValueError(f"unknown source mode {self.mode!r}")
        # A NaN or infinite gain is refused by the unitarity gate of evaluate_uv.
        if self.gain < 0:
            raise ValueError("gain must be nonnegative")
        if not math.isfinite(self.envelope_bandwidth):
            raise ValueError(f"envelope_bandwidth must be finite, got {self.envelope_bandwidth}")
        if self.center_frequency is not None and not math.isfinite(self.center_frequency):
            raise ValueError(f"center_frequency must be finite, got {self.center_frequency}")
        if self.mode == ANALYTIC and not self.envelope_bandwidth > 0:
            raise ValueError("analytic mode requires a positive bandwidth")
        # 4*B^2 is the envelope's denominator in evaluate_analytic.
        b = self.envelope_bandwidth
        if self.mode == ANALYTIC and not 0.0 < 4.0 * b * b < math.inf:
            raise ValueError(
                f"envelope_bandwidth {b} is out of range: 4*B^2 must be a positive, finite double"
            )

    @classmethod
    def physical(cls, gain, mismatch_coeffs=(), center_frequency=None) -> "SourceSpec":
        return cls(
            mode=PHYSICAL,
            gain=float(gain),
            mismatch=PhaseMismatch(tuple(mismatch_coeffs)),
            center_frequency=center_frequency,
        )

    @classmethod
    def analytic(cls, bandwidth, center_frequency=None) -> "SourceSpec":
        return cls(
            mode=ANALYTIC,
            envelope_bandwidth=float(bandwidth),
            center_frequency=center_frequency,
        )


@dataclass(frozen=True)
class SourceFields:
    """Sampled source spectra on a frequency grid.

    ``R`` and ``S`` are always populated; ``U`` and ``V`` only for physical
    sources, and not in the fields a run holds (``runner``), whose
    correlators and analyses read R and S alone.  ``flux_n`` is the per-beam
    photon flux in photons/ps.
    """

    grid: FrequencyGrid
    R: np.ndarray
    S: np.ndarray
    flux_n: float
    mode: str
    U: np.ndarray | None = None
    V: np.ndarray | None = None

    def require_physical(self, what: str) -> None:
        if self.mode != PHYSICAL:
            raise ValueError(f"{what} requires a physical source, got {self.mode!r}")


def _half_phase(mismatch: PhaseMismatch, grid: FrequencyGrid, dl: np.ndarray) -> np.ndarray:
    """exp(i DL/2) of the mismatch phase DL of ``mismatch`` on ``grid``, read-only.

    ``dl`` is that phase, ``mismatch.phase(grid.omegas)``, which the caller
    computes anyway; it is read on a miss and never held.  The factor does
    not depend on the gain.  It is memoised on the grid object for the last
    mismatch asked (compared by value), so the sources of a gain sweep, all
    on their base's grid object, compute it once.  Equal mismatches whose
    zero coefficients differ in sign give the same bits: only DL's zeros can
    differ in sign, and exp(i DL/2) is 1 + 0j at either.  Threads racing on
    a first call may each compute the same samples; any of them is kept.
    """
    memo = grid.__dict__.get("_half_phase")
    if memo is not None and memo[0] == mismatch:
        return memo[1]
    out = np.exp(0.5j * dl)
    out.setflags(write=False)
    grid.__dict__["_half_phase"] = (mismatch, out)
    return out


def gamma_of(gain, mismatch_phase):
    """Complex nonlinear coefficient GL = sqrt(gain^2 - (DL)^2 / 4).

    Principal-branch complex square root: GL is real for |DL| < 2*gain and
    moves continuously onto the positive imaginary axis beyond the branch
    point.  Accepts scalars or arrays.
    """
    radicand = np.asarray(gain, dtype=complex) ** 2 - np.asarray(mismatch_phase, dtype=complex) ** 2 / 4.0
    return np.sqrt(radicand)


def _cosh_and_sinhc(z: np.ndarray):
    """cosh(z) and sinh(z)/z of a complex array.

    Every entry starts as the library cosh and sinh(z)/z; entries with
    |z| < 1e-6 (z = 0 included, whose 0/0 is overwritten) then take the
    4th-order series 1 + z^2/2 + z^4/24 and 1 + z^2/6 + z^4/120, evaluated
    on those entries only and written into place.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        cosh = np.cosh(z)
        sinhc = np.sinh(z) / z
    z_small = z[small]
    z2 = z_small * z_small
    cosh[small] = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
    sinhc[small] = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return cosh, sinhc


def _even_from_half(half: np.ndarray) -> np.ndarray:
    """Full-grid samples of an even function from its samples at indices
    [0] + [n/2, n): index n/2 - j takes the value at n/2 + j, and the
    unpaired -Omega_max endpoint keeps its own."""
    m = half.size - 1  # n/2
    out = np.empty(2 * m, dtype=half.dtype)
    out[0] = half[0]
    out[m:] = half[1:]
    out[1:m] = half[:1:-1]
    return out


def evaluate_uv(spec: SourceSpec, grid: FrequencyGrid) -> SourceFields:
    """Sample U, V and the derived spectra of a physical source on a grid.

    The gain-free factor exp(i DL/2) is read from the grid object's memo
    (``_half_phase``), which the sources of a gain sweep share.

    When the mismatch is odd (``PhaseMismatch.is_odd``) and the gain's sign
    bit is clear, GL and with it cosh(GL) and sinh(GL)/GL are evaluated on
    the samples Omega >= 0 and -Omega_max only and mirrored onto the rest.
    That is exact: the grid's detunings at +-Omega are exact negations, DL
    at -Omega is then the exact negation of DL at +Omega, and the radicand
    gain^2 - DL^2/4 has the same bits at both, its imaginary part +0 (not
    so for a gain of -0.0, whose square has a -0 imaginary part: -0 minus
    the signed zero of DL^2/4 is +0 on one side and -0 on the other).  U and
    V keep the full-grid expressions, since exp(i DL/2) is not even.
    """
    if spec.mode != PHYSICAL:
        raise ValueError("evaluate_uv requires a physical-mode source")
    # An extreme gain or mismatch overflows U and V; the gate below refuses
    # the non-finite deviation that results.
    with np.errstate(over="ignore", invalid="ignore"):
        dl = spec.mismatch.phase(grid.omegas)
        half_phase = _half_phase(spec.mismatch, grid, dl)
        if spec.mismatch.is_odd and not math.copysign(1.0, spec.gain) < 0.0:
            m = grid.n_points // 2
            half = np.concatenate((dl[:1], dl[m:]))
            cosh_gl, sinhc_gl = map(_even_from_half, _cosh_and_sinhc(gamma_of(spec.gain, half)))
        else:
            cosh_gl, sinhc_gl = _cosh_and_sinhc(gamma_of(spec.gain, dl))
        i_half_dl = 0.5j * dl
        u = half_phase * (cosh_gl - i_half_dl * sinhc_gl)
        v = -1j * spec.gain * half_phase * sinhc_gl
        # Dead from here on: dropping them cuts the call's peak by 2 MiB at
        # n = 65536.
        del cosh_gl, sinhc_gl, i_half_dl
        s = np.abs(v) ** 2
        unitarity = np.abs(u) ** 2 - s - 1.0
        worst = float(np.max(np.abs(unitarity)))
    if not worst <= _UNITARITY_TOL:
        raise PreconditionError(f"Bogoliubov unitarity violated by {worst:.3e}")

    r = u * grid.reflect(v)
    flux = float(np.sum(s)) * grid.delta_omega / (2.0 * np.pi)
    return SourceFields(grid=grid, R=r, S=s, flux_n=flux, mode=PHYSICAL, U=u, V=v)


def evaluate_analytic(spec: SourceSpec, grid: FrequencyGrid) -> SourceFields:
    """Sample a Gaussian-envelope source: R = exp(-Omega^2/(4B^2)), S = R^2.

    |R|^2 then has RMS bandwidth B.  Useful for clean broadening-law checks;
    U and V are left unset.
    """
    if spec.mode != ANALYTIC:
        raise ValueError("evaluate_analytic requires an analytic-mode source")
    b = spec.envelope_bandwidth
    with np.errstate(over="ignore"):  # an overflowing detuning squared gives exp(-inf) = 0
        r = np.exp(-grid.omegas**2 / (4.0 * b * b))
    s = r * r
    flux = float(np.sum(s)) * grid.delta_omega / (2.0 * np.pi)
    return SourceFields(grid=grid, R=r.astype(complex), S=s, flux_n=flux, mode=ANALYTIC)


def evaluate_source(spec: SourceSpec, grid: FrequencyGrid) -> SourceFields:
    """Dispatch to the physical or analytic evaluator."""
    if spec.mode == PHYSICAL:
        return evaluate_uv(spec, grid)
    return evaluate_analytic(spec, grid)
