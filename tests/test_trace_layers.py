"""The benchmark's tracer still sees every program layer it measures.

``perfbench/tracing.py`` wraps public attributes of ``runner``, ``scenario``
and ``analysis`` by name and silently skips any that is missing, so a renamed
correlator or helper would drop its metrics from traced benchmark runs
without an error.  Each run below is traced as the benchmark traces a round
and must report every per-layer metric with the call counts of the layers
it goes through.
"""

import pytest

from documents import ANALYTIC, elements, modulators, spectral, temporal
from script_module import load_script
from spdcsim import analysis, runner, scenario

tracing = load_script("perfbench_tracing", "perfbench/tracing.py")

TIMED = (
    "analysis.total_s",
    "correlators.exact_peak_mib",
    "runner.execute_busy_s",
    "runner.execute_wall_s",
    "runner.self_s",
)
LAYERS = (
    "scenario.parse",
    "source.evaluate",
    "correlators.baseline",
    "correlators.temporal",
    "correlators.narrowband",
    "correlators.exact",
    "elements.build_comb",
    "analysis.width",
)


def _spectral(config, mod_freq, exact):
    return spectral(
        configuration=config,
        grid={"n_points": 128, "delta_omega": 0.05},
        source=ANALYTIC,
        modulators=modulators(mod_freq, 0.8, -0.3),
        exact_grid=exact,
    )


RUNS = {
    # Three points share the base's source and baseline; each point and the
    # baseline get one width.
    "temporal_sweep": (
        temporal(
            elements=elements([0.0, 2.0], [0.0, 0.0]),
            sweep={"parameter": "elements.1.phase_coeffs.1", "values": [-1.0, 0.0, 1.0]},
        ),
        {
            "scenario.parse": 4,
            "source.evaluate": 1,
            "correlators.baseline": 1,
            "correlators.temporal": 3,
            "analysis.width": 4,
        },
    ),
    "narrowband": (
        _spectral("intra_freq", 0.001, exact=False),
        {
            "scenario.parse": 1,
            "source.evaluate": 1,
            "correlators.narrowband": 1,
            "elements.build_comb": 2,
        },
    ),
    "exact": (
        _spectral("inter_freq", 0.1, exact=True),
        {
            "scenario.parse": 1,
            "source.evaluate": 1,
            "correlators.exact": 1,
            "elements.build_comb": 2,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_run_reports_every_layer(name, tmp_path):
    doc, calls = RUNS[name]
    tracer = tracing.Tracer()
    tracing.install_program_layers(tracer, runner, scenario, analysis)
    try:
        runner.run_scenario(scenario.parse_scenario(doc), tmp_path, workers=1)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, tracer.spans)
    expected_names = set(TIMED)
    for layer in LAYERS:
        expected_names |= {f"{layer}_s", f"{layer}_calls"}
    assert len(expected_names) == 21
    assert set(metrics) == expected_names
    assert {layer: metrics[f"{layer}_calls"] for layer in LAYERS} == {
        layer: calls.get(layer, 0) for layer in LAYERS
    }
    # Uninstalling restores the program's own functions.
    assert runner.execute.__module__ == "spdcsim.runner"
    assert runner.g2_inter_time.__module__ == "spdcsim.correlators"
