"""Golden tests of the exact joint spectrum stored as comb-line ridges.

Every ridge cell, the background and the joint.csv text must be
bit-identical to the dense n x n accumulation the ridges replaced
(``dense_joint.dense_reference``), on small grids covering both
configurations, unequal comb sizes, negative indexes, modulation
frequencies of several grid steps and comb lines that leave the grid.
"""

import numpy as np
import pytest

from dense_joint import dense_reference, reference_joint_text, scatter
from spdcsim import outputs
from spdcsim.correlators import g2_freq_exact
from spdcsim.elements import _bessel_row, build_comb
from spdcsim.grid import FrequencyGrid
from spdcsim.source import SourceSpec, evaluate_source

# (n, delta_omega, m_ratio, source spec, index1, index2)
CASES = {
    "analytic_equal": (128, 0.05, 1, SourceSpec.analytic(1.0), 0.9, 0.9),
    "analytic_unequal": (128, 0.05, 3, SourceSpec.analytic(2.0), 0.3, 2.6),
    "negative_indexes": (256, 0.02, 2, SourceSpec.analytic(0.8), -1.7, -0.4),
    "opposite_indexes": (64, 0.1, 4, SourceSpec.analytic(1.5), 1.2, -1.2),
    "physical": (128, 0.05, 2, SourceSpec.physical(0.8, [0.5]), 1.4, -2.1),
    "one_index_zero": (64, 0.1, 5, SourceSpec.physical(0.3), 0.0, 2.5),
    # comb span of about 2 x 15 x 5 = 150 steps on a 64-point grid
    "lines_leave_grid": (64, 0.1, 5, SourceSpec.analytic(3.0), 3.0, -2.7),
}


def _case(name, config):
    n, d_omega, m_ratio, spec, index1, index2 = CASES[name]
    source = evaluate_source(spec, FrequencyGrid(n, d_omega))
    m1 = build_comb(m_ratio * d_omega, index1)
    m2 = build_comb(m_ratio * d_omega, index2)
    return g2_freq_exact(source, m1, m2, config), dense_reference(source, m1, m2, config)


def _assert_bit_identical(config):
    for name in CASES:
        joint, (structure, background) = _case(name, config)
        dense, outer = scatter(joint)
        assert dense.tobytes() == structure.tobytes(), name
        assert outer.tobytes() == background.tobytes(), name
        for line, profile in zip(joint.orders.tolist(), joint.profiles):
            off = np.ones(joint.grid.n_points, dtype=bool)
            off[joint.ridge_indices(line)[0]] = False
            assert not np.any(profile[off]), (name, line)


def test_inter_accumulators_agree():
    _assert_bit_identical("inter_freq")


def test_intra_accumulators_agree():
    _assert_bit_identical("intra_freq")


@pytest.mark.parametrize("config", ["inter_freq", "intra_freq"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_joint_csv_matches_dense_reference(name, config):
    joint, (structure, background) = _case(name, config)
    text = "".join(outputs.joint_csv(joint))
    assert text == reference_joint_text(joint.grid.omegas, structure, background)


def test_some_lines_leave_the_grid():
    joint, (structure, _) = _case("lines_leave_grid", "inter_freq")
    on_grid = [joint.ridge_indices(line)[0].size > 0 for line in joint.orders.tolist()]
    assert not all(on_grid) and any(on_grid)
    assert np.count_nonzero(structure) > 0


def _bessel_row_reference(x, n_max, start):
    """The Miller recurrence with element-by-element rescaling and norming."""
    row = np.zeros(n_max + 1)
    f_up, f, norm = 0.0, 1e-300, 0.0
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
            if abs(f) > 1e250:
                f *= 1e-250
                f_up *= 1e-250
                norm *= 1e-250
                for i in range(n_max + 1):
                    row[i] *= 1e-250
    for i in range(n_max + 1):
        row[i] /= norm
    return row


def test_bessel_row_matches_plain_recurrence():
    for x, n_max in [(0.3, 12), (1.2, 20), (7.7, 40), (20.0, 96), (50.0, 128)]:
        start = max(n_max, int(np.ceil(x))) + 36
        plain = _bessel_row_reference(x, n_max, start)
        assert np.array_equal(_bessel_row(x, n_max), plain)
