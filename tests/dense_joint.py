"""Test-only dense views of the exact joint spectrum.

``g2_freq_exact`` stores its result as comb-line ridges.  The helpers here
rebuild the n x n grids the tests reason about: ``scatter`` spreads the
ridges of a ``JointGrid`` over the grid, and ``dense_reference`` is the
former dense double-comb accumulation, kept as the golden reference.  Its
background is a plain per-sample sideband sum, independent of the library's
sliced accumulation.
"""

import numpy as np

from spdcsim.correlators import INTER_FREQ


def scatter(joint):
    """Dense (structure, background) n x n arrays of a ridge ``JointGrid``."""
    n = joint.grid.n_points
    structure = np.zeros((n, n))
    for line, profile in zip(joint.orders.tolist(), joint.profiles):
        i, j = joint.ridge_indices(line)
        structure[i, j] = profile[i]
    background = np.outer(joint.background_factor_1, joint.background_factor_2)
    return structure, background


def dense_reference(source, m1, m2, config):
    """Dense (structure, background) from the accumulation ridges replaced.

    Every sideband pair (n1, n2) adds w1*w2*field[i -/+ n1*m] onto its
    anti-diagonal (interbeam) or diagonal (intrabeam) of a zeroed n x n
    amplitude grid, in the order of the two combs' orders.
    """
    grid = source.grid
    n = grid.n_points
    m_ratio = int(round(m1.mod_freq / grid.delta_omega))
    if config == INTER_FREQ:
        amp = np.zeros((n, n), dtype=complex)
        field = source.R
        for n1, w1 in zip(m1.orders, m1.weights):
            shift = int(n1) * m_ratio
            for n2, w2 in zip(m2.orders, m2.weights):
                c = n + (int(n1) + int(n2)) * m_ratio
                lo = max(0, c - (n - 1), shift)
                hi = min(n - 1, c, shift + n - 1)
                if hi < lo:
                    continue
                i = np.arange(lo, hi + 1)
                amp[i, c - i] += (w1 * w2) * field[i - shift]
    else:
        amp = np.zeros((n, n))
        field = source.S.astype(float)
        for n1, w1 in zip(m1.orders, m1.weights):
            shift = int(n1) * m_ratio
            for n2, w2 in zip(m2.orders, m2.weights):
                d = (int(n2) - int(n1)) * m_ratio
                lo = max(0, d, -shift)
                hi = min(n - 1, n - 1 + d, n - 1 - shift)
                if hi < lo:
                    continue
                i = np.arange(lo, hi + 1)
                amp[i, i - d] += (w1 * w2) * field[i + shift]
    structure = np.abs(amp) ** 2 / grid.delta_omega**2
    background = np.outer(
        _flux_density(source.S, m1, m_ratio), _flux_density(source.S, m2, m_ratio)
    )
    return structure, background


def _flux_density(spectrum, comb, m_ratio):
    """Per-sample sideband sum sum_n J_n^2 S(Omega + n*mod_freq) / 2pi, each
    sample's terms added in the order of the comb's orders."""
    n = len(spectrum)
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for order, w in zip(comb.orders, comb.weights):
            k = i + int(order) * m_ratio
            if 0 <= k < n:
                total += (w * w) * spectrum[k]
        out[i] = total / (2.0 * np.pi)
    return out


def reference_joint_text(omegas, structure, background) -> str:
    """joint.csv of dense arrays, every nonzero cell formatted on its own."""
    lines = ["omega1_radps,omega2_radps,structure,background"]
    for i, j in zip(*np.nonzero(structure)):
        lines.append(
            ",".join(
                format(float(x), ".17g")
                for x in (omegas[i], omegas[j], structure[i, j], background[i, j])
            )
        )
    return "\n".join(lines) + "\n"
