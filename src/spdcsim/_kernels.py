"""Hot numeric kernels: Bessel rows and exact joint-spectrum accumulation.

Each kernel has two interchangeable implementations: a loop form compiled
with numba's ``@njit`` and a vectorized pure-numpy form.  The numpy path is
selected when numba is unavailable or when the environment variable
``SPDCSIM_NO_NUMBA`` is set to 1/true/yes.  ``tests/test_kernels.py`` checks
that the two agree.

Conventions baked into the accumulators (shared with ``correlators``):
grid index i maps to detuning Omega_i = (i - n/2)*delta_omega, the modulation
frequency is ``m_ratio`` grid steps, and a spectral delta line carries weight
1/delta_omega on its sample (applied by the caller).
"""

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("SPDCSIM_NO_NUMBA", "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

USING_NUMBA = _HAVE_NUMBA and not _FORCE_NUMPY

_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250


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
                for i in range(n_max + 1):
                    row[i] *= _RESCALE
    for i in range(n_max + 1):
        row[i] /= norm
    return row


def _accumulate_inter_loops(amp, field, orders1, weights1, orders2, weights2, m_ratio):
    """Add interbeam sideband amplitudes onto the joint (Omega1, Omega2) grid.

    For each sideband pair (n1, n2) the amplitude w1*w2*field[i - n1*m_ratio]
    lands on the anti-diagonal i + j = n + (n1 + n2)*m_ratio.  Contributions
    whose field index falls off the grid are dropped (the field is assumed
    negligible outside it).
    """
    n = field.shape[0]
    for a in range(orders1.shape[0]):
        n1 = orders1[a]
        w1 = weights1[a]
        shift = n1 * m_ratio
        for b in range(orders2.shape[0]):
            w = w1 * weights2[b]
            c = n + (n1 + orders2[b]) * m_ratio
            lo = max(max(0, c - (n - 1)), shift)
            hi = min(min(n - 1, c), shift + n - 1)
            for i in range(lo, hi + 1):
                amp[i, c - i] += w * field[i - shift]


def _accumulate_intra_loops(amp, field, orders1, weights1, orders2, weights2, m_ratio):
    """Add intrabeam sideband amplitudes onto the joint (Omega1, Omega2) grid.

    Pair (n1, n2) contributes w1*w2*field[i + n1*m_ratio] on the diagonal
    i - j = (n2 - n1)*m_ratio.
    """
    n = field.shape[0]
    for a in range(orders1.shape[0]):
        n1 = orders1[a]
        w1 = weights1[a]
        shift = n1 * m_ratio
        for b in range(orders2.shape[0]):
            w = w1 * weights2[b]
            d = (orders2[b] - n1) * m_ratio
            lo = max(max(0, d), -shift)
            hi = min(min(n - 1, n - 1 + d), n - 1 - shift)
            for i in range(lo, hi + 1):
                amp[i, i - d] += w * field[i + shift]


def _accumulate_inter_numpy(amp, field, orders1, weights1, orders2, weights2, m_ratio):
    n = field.shape[0]
    for n1, w1 in zip(orders1, weights1):
        shift = int(n1) * m_ratio
        for n2, w2 in zip(orders2, weights2):
            c = n + (int(n1) + int(n2)) * m_ratio
            lo = max(0, c - (n - 1), shift)
            hi = min(n - 1, c, shift + n - 1)
            if hi < lo:
                continue
            i = np.arange(lo, hi + 1)
            amp[i, c - i] += (w1 * w2) * field[i - shift]


def _accumulate_intra_numpy(amp, field, orders1, weights1, orders2, weights2, m_ratio):
    n = field.shape[0]
    for n1, w1 in zip(orders1, weights1):
        shift = int(n1) * m_ratio
        for n2, w2 in zip(orders2, weights2):
            d = (int(n2) - int(n1)) * m_ratio
            lo = max(0, d, -shift)
            hi = min(n - 1, n - 1 + d, n - 1 - shift)
            if hi < lo:
                continue
            i = np.arange(lo, hi + 1)
            amp[i, i - d] += (w1 * w2) * field[i + shift]


if USING_NUMBA:
    bessel_row_kernel = njit(cache=True)(_bessel_row_loops)
    accumulate_inter = njit(cache=True)(_accumulate_inter_loops)
    accumulate_intra = njit(cache=True)(_accumulate_intra_loops)
else:
    bessel_row_kernel = _bessel_row_loops
    accumulate_inter = _accumulate_inter_numpy
    accumulate_intra = _accumulate_intra_numpy
