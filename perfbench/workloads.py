"""Seeded scenario documents for the benchmark workloads.

A workload is a fixed list of operations; one operation is one
``runner.run_scenario`` call on a parsed scenario.  The seed draws sweep
values, element coefficients, source parameters and modulation indexes, always
inside the program's gates (alias budget, narrowband ratio, index bound) and
inside windows that keep the amount of work independent of the seed: grid
sizes and point counts are fixed, and every modulation index is drawn from an
interval on which its sideband comb keeps the same number of lines.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

WORKLOADS = ("trace_sweeps", "analysis_sweeps", "joint_spectra")

ELEMENT_AXIS = "elements.1.phase_coeffs.1"


@dataclass(frozen=True)
class Op:
    """One scenario run of a workload round.

    ``doc`` is the scenario document to parse; ``path`` a shipped scenario
    file to load instead; ``rerun_of`` names the operation whose written
    report.json is loaded and run again.  ``name`` doubles as the output
    directory name.
    """

    name: str
    doc: dict | None = None
    path: Path | None = None
    rerun_of: str | None = None

    def input_doc(self) -> dict | None:
        """The scenario document this operation starts from, if known up front."""
        if self.path is not None:
            return json.loads(self.path.read_text(encoding="utf-8"))
        return self.doc


def _analytic(bandwidth: float) -> dict:
    return {"mode": "analytic", "envelope_bandwidth": bandwidth}


def _physical(gain: float, mismatch: list) -> dict:
    return {"mode": "physical", "gain": gain, "mismatch_coeffs": mismatch}


def _temporal(config, n, d_omega, source, e0, e1, parameter, values, write_trace):
    return {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": n, "delta_omega": d_omega},
        "source": source,
        "elements": [{"phase_coeffs": e0}, {"phase_coeffs": e1}],
        "sweep": {"parameter": parameter, "values": values},
        "outputs": {"write_trace": write_trace},
    }


def _spectral(config, n, d_omega, source, mod_freq, index1, index2, exact, sweep=None):
    doc = {
        "schema_version": 1,
        "configuration": config,
        "grid": {"n_points": n, "delta_omega": d_omega},
        "source": source,
        "modulators": [
            {"mod_freq": mod_freq, "index": index1},
            {"mod_freq": mod_freq, "index": index2},
        ],
        "exact_grid": exact,
    }
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


def _sorted_uniform(rng: random.Random, lo: float, hi: float, count: int) -> list:
    return sorted(rng.uniform(lo, hi) for _ in range(count))


def _inter_gdd_sweep(rng, n, d_omega, bandwidth, lo, hi, points, write_trace):
    """Analytic-source interbeam sweep of the second element's GDD.

    The combined GDD Phi2(1) + Phi2(2) stays within |p| + max(|lo|, |hi|),
    which the caller keeps inside 40% of the delay window.
    """
    p = rng.uniform(2.0, 6.0)
    return _temporal(
        "inter_time", n, d_omega, _analytic(bandwidth),
        [0.0, p], [0.0, 0.0], ELEMENT_AXIS,
        _sorted_uniform(rng, lo, hi, points), write_trace,
    )


def _intra_gdd_sweep(rng, n, d_omega, half_span, points, write_trace):
    """Physical-source intrabeam sweep around identical elements.

    One sweep value equals the first element's GDD exactly, so one point
    has identical elements; the others differ by at most ``half_span`` ps^2.
    """
    gain = rng.uniform(0.3, 0.8)
    mismatch = [rng.uniform(0.4, 0.6)]
    a = rng.uniform(1.0, 4.0)
    b = rng.uniform(0.5, 1.5)
    values = sorted([a] + [a + rng.uniform(-half_span, half_span) for _ in range(points - 1)])
    return _temporal(
        "intra_time", n, d_omega, _physical(gain, mismatch),
        [0.0, a, b], [0.0, a, b], ELEMENT_AXIS, values, write_trace,
    )


def _trace_sweeps(rng) -> list:
    shipped = [Op(name=f"shipped_{p.stem}", path=p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
    # n = 16384, d_omega = 0.004: Omega_max = 32.8 rad/ps, alias budget 628 ps,
    # so |combined GDD| <= 18 ps^2 fits.
    return shipped + [
        Op("inter_gdd_b1", _inter_gdd_sweep(rng, 16384, 0.004, 1.0, -12.0, 12.0, 9, True)),
        Op("inter_gdd_b07", _inter_gdd_sweep(rng, 16384, 0.004, 0.7, -12.0, 12.0, 9, True)),
        # n = 16384, d_omega = 0.01: Omega_max = 81.9 rad/ps, budget 251 ps.
        Op("intra_phys_a", _intra_gdd_sweep(rng, 16384, 0.01, 2.5, 9, True)),
        Op("intra_phys_b", _intra_gdd_sweep(rng, 16384, 0.01, 2.5, 9, True)),
        Op("rerun_inter_gdd_b1", rerun_of="inter_gdd_b1"),
    ]


def _analysis_sweeps(rng) -> list:
    # Two element-axis sweeps (source and baseline identical at every point)
    # and one gain sweep (both change), 41 points each at n = 65536.
    gain_sweep = _temporal(
        "inter_time", 65536, 0.0025, _physical(0.5, [rng.uniform(0.4, 0.6)]),
        [0.0, rng.uniform(1.0, 4.0)], [0.0, rng.uniform(-3.0, 3.0)],
        "source.gain", _sorted_uniform(rng, 0.2, 1.5, 41), False,
    )
    return [
        # d_omega = 0.001: budget 2513 ps, |combined GDD| <= 46 < 70 ps^2.
        Op("inter_elem", _inter_gdd_sweep(rng, 65536, 0.001, 1.0, -40.0, 40.0, 41, False)),
        # d_omega = 0.0025: Omega_max = 81.9 rad/ps, budget 1005 ps.
        Op("intra_elem", _intra_gdd_sweep(rng, 65536, 0.0025, 8.0, 41, False)),
        Op("gain", gain_sweep),
    ]


# Index windows on which build_comb keeps a fixed line count (25 and 21
# lines), and combined-index windows [2.1, 2.4] (31 lines) for the
# narrowband combs, so the written rows do not depend on the seed.
_EXACT_INDEX_1 = (1.10, 1.35)
_EXACT_INDEX_2 = (0.60, 0.78)


def _joint_spectra(rng) -> list:
    # Source bandwidth 0.05 rad/ps against mod_freq 0.02 rad/ps: the regime
    # where only the exact double-comb sum is valid.  mod_freq is 8 grid steps.
    narrow = _analytic(0.05)
    broad = _analytic(60.0)
    exact_inter = _spectral(
        "inter_freq", 4096, 0.0025, narrow, 0.02,
        rng.uniform(*_EXACT_INDEX_1), rng.uniform(*_EXACT_INDEX_2), True,
    )
    exact_intra = _spectral(
        "intra_freq", 2048, 0.0025, narrow, 0.02,
        rng.uniform(*_EXACT_INDEX_1), rng.uniform(*_EXACT_INDEX_2), True,
    )
    nb_inter = _spectral(
        "inter_freq", 2048, 0.4, broad, 0.01, rng.uniform(1.1, 1.3), rng.uniform(1.0, 1.1), False
    )
    nb_intra = _spectral(
        "intra_freq", 2048, 0.4, broad, 0.01, rng.uniform(3.1, 3.3), rng.uniform(0.9, 1.0), False
    )
    # Fixed inputs: every exact-grid sweep fails in runner._sweep_csv with
    # KeyError 'comb_leakage' after its point files are written.
    exact_sweep = _spectral(
        "inter_freq", 256, 0.0025, narrow, 0.02, 0.5, -0.5, True,
        sweep={"parameter": "modulators.1.index", "values": [-0.5, 0.0, 0.5]},
    )
    return [
        Op("exact_inter_4096", exact_inter),
        Op("exact_intra_2048", exact_intra),
        Op("narrowband_inter", nb_inter),
        Op("narrowband_intra", nb_intra),
        Op("exact_sweep_fault", exact_sweep),
    ]


_BUILDERS = {
    "trace_sweeps": _trace_sweeps,
    "analysis_sweeps": _analysis_sweeps,
    "joint_spectra": _joint_spectra,
}


def build(workload: str, seed: int) -> list:
    """The operations of one round of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
