"""The scenario documents the tests run: two base documents and their parts.

``temporal(**changes)`` and ``spectral(**changes)`` return a deep copy of
their base document with the top-level keys of ``changes`` replaced or
added, so a caller may edit what it gets.  An edit below the top level goes
through ``spdcsim.scenario.set_parameter``, the editor sweeps use.
"""

import copy

ANALYTIC = {"mode": "analytic", "envelope_bandwidth": 1.0}
PHYSICAL = {"mode": "physical", "gain": 0.6, "mismatch_coeffs": [0.5]}
# The narrow source of the exact-grid documents, on a 0.0025 rad/ps grid.
NARROW = {"mode": "analytic", "envelope_bandwidth": 0.05}


def elements(phase_coeffs_1, phase_coeffs_2):
    return [{"phase_coeffs": phase_coeffs_1}, {"phase_coeffs": phase_coeffs_2}]


def modulators(mod_freq, index1, index2):
    return [{"mod_freq": mod_freq, "index": index1}, {"mod_freq": mod_freq, "index": index2}]


# Opposite group-delay dispersions, which cancel.
TEMPORAL = {
    "schema_version": 1,
    "configuration": "inter_time",
    "grid": {"n_points": 256, "delta_omega": 0.05},
    "source": ANALYTIC,
    "elements": elements([0.0, 1.0], [0.0, -1.0]),
}

# Two modulators at 0.01 rad/ps, index 1.3 each, on the narrowband path.
SPECTRAL = {
    "schema_version": 1,
    "configuration": "inter_freq",
    "grid": {"n_points": 256, "delta_omega": 0.4},
    "source": {"mode": "analytic", "envelope_bandwidth": 60.0},
    "modulators": modulators(0.01, 1.3, 1.3),
}


def temporal(**changes) -> dict:
    return copy.deepcopy({**TEMPORAL, **changes})


def spectral(**changes) -> dict:
    return copy.deepcopy({**SPECTRAL, **changes})
