"""Property: any scenario document ends in exit 0, 2 or 3, never 5.

Random documents mix physically sensible values with extreme magnitudes
(1e-300 to 1e300), non-finite numbers, wrong types and wrong shapes, across
all four configurations, ``exact_grid`` and sweeps.  Each runs through
``cli.main`` in this process with one worker; grids stay at n <= 512.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spdcsim import cli
from spdcsim.correlators import CONFIGURATIONS

from test_cli import EXTREME_INPUTS, FOUND_INPUTS

GRID_SIZES = [64, 128, 256, 512]


def weighted(*options):
    """One of the (weight, strategy) ``options``, drawn in proportion to the weights."""
    strategies = [strategy for weight, strategy in options for _ in range(weight)]
    return st.integers(0, len(strategies) - 1).flatmap(lambda k: strategies[k])


wrong_types = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "mode"]), st.integers(), max_size=1),
)

extreme_finite = weighted(
    (
        6,
        st.builds(
            lambda sign, exponent: sign * 10.0**exponent,
            st.sampled_from([1.0, 1.0, -1.0]),
            st.floats(-300.0, 300.0),
        ),
    ),
    (1, st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.7976931348623157e308])),
    (1, st.integers(-1000, 1000)),
)

invalid_numbers = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    wrong_types,
)


class Faults:
    """Where a document may go wrong.

    A clean document has the right keys, types and shapes and finite numbers,
    mostly in a sensible range and otherwise of any magnitude from 1e-300 to
    1e300; a noisy one may also hold non-finite numbers, wrong types and wrong
    shapes anywhere.
    """

    def __init__(self, noisy: bool):
        self.noisy = noisy

    def number(self, lo: float, hi: float):
        sensible = st.floats(lo, hi)
        if self.noisy:
            return weighted((6, sensible), (2, extreme_finite), (1, invalid_numbers))
        return weighted((8, sensible), (1, extreme_finite))

    def shaped(self, strategy):
        return weighted((9, strategy), (1, wrong_types)) if self.noisy else strategy

    def choice(self, good: list, bad: list):
        return st.sampled_from(good + bad if self.noisy else good)

    def numbers(self, lo: float, hi: float, min_size: int, max_size: int):
        """A list of numbers, one longer than allowed or empty when noisy."""
        if self.noisy:
            min_size, max_size = 0, max_size + 1
        return self.shaped(st.lists(self.number(lo, hi), min_size=min_size, max_size=max_size))


@st.composite
def sources(draw, faults):
    if draw(st.booleans()):
        source = {
            "mode": "physical",
            "gain": draw(faults.number(0.0, 3.0)),
            "mismatch_coeffs": draw(faults.numbers(-3.0, 3.0, 0, 6)),
        }
    else:
        source = {"mode": "analytic", "envelope_bandwidth": draw(faults.number(0.01, 100.0))}
    if draw(st.integers(0, 5)) == 0:
        source["center_frequency"] = draw(faults.number(0.0, 3000.0))
    source["mode"] = draw(faults.choice([source["mode"]] * 9, ["thermal", None]))
    return source


@st.composite
def modulator_pairs(draw, faults, delta_omega):
    if isinstance(delta_omega, float) and draw(st.booleans()):
        mod_freq = draw(st.integers(1, 8)) * delta_omega  # commensurate with the grid
    else:
        mod_freq = draw(faults.number(0.001, 2.0))
    second = mod_freq if draw(st.integers(0, 5)) else draw(faults.number(0.001, 2.0))
    pair = [
        {"mod_freq": mod_freq, "index": draw(faults.number(-20.0, 20.0))},
        {"mod_freq": second, "index": draw(faults.number(-20.0, 20.0))},
    ]
    return draw(faults.shaped(faults.choice([pair] * 3, [pair[:1]])))


SWEEP_PARAMETERS = {
    True: [
        "elements.1.phase_coeffs.1",
        "elements.0.phase_coeffs.0",
        "source.gain",
        "source.envelope_bandwidth",
        "grid.delta_omega",
        "grid.n_points",
    ],
    False: [
        "modulators.1.index",
        "modulators.0.mod_freq",
        "source.envelope_bandwidth",
        "grid.delta_omega",
        "grid.n_points",
    ],
}


@st.composite
def sweeps(draw, faults, temporal):
    parameter = draw(faults.shaped(faults.choice(SWEEP_PARAMETERS[temporal], ["outputs.x"])))
    if parameter == "grid.n_points":
        values = st.lists(faults.choice(GRID_SIZES, [100, 256.5, -64, "x"]), min_size=1, max_size=3)
        return {"parameter": parameter, "values": draw(faults.shaped(values))}
    return {"parameter": parameter, "values": draw(faults.numbers(-30.0, 30.0, 1, 3))}


@st.composite
def scenario_documents(draw):
    faults = Faults(noisy=draw(st.booleans()))
    configuration = draw(faults.choice(list(CONFIGURATIONS), ["inter_space"]))
    temporal = configuration.endswith("_time")
    delta_omega = draw(faults.number(0.001, 1.0))
    n_points = draw(faults.choice(GRID_SIZES, [0, -64, 63, 100, 256.0, 1e300, "256", True]))
    doc = {
        "schema_version": draw(faults.choice([1] * 5, [2])),
        "configuration": configuration,
        "grid": draw(faults.shaped(st.just({"n_points": n_points, "delta_omega": delta_omega}))),
        "source": draw(faults.shaped(sources(faults))),
    }
    if temporal:
        element = st.fixed_dictionaries({"phase_coeffs": faults.numbers(-50.0, 50.0, 2, 5)})
        count = draw(faults.choice([2] * 5, [1, 3]))
        doc["elements"] = draw(faults.shaped(st.lists(element, min_size=count, max_size=count)))
    else:
        doc["modulators"] = draw(modulator_pairs(faults, delta_omega))
    if (faults.noisy or not temporal) and draw(st.integers(0, 3)) == 0:
        doc["exact_grid"] = draw(faults.shaped(st.booleans()))
    if draw(st.integers(0, 3)) == 0:
        doc["sweep"] = draw(sweeps(faults, temporal))
    if draw(st.integers(0, 4)) == 0:
        names = ["rms_width", "fwhm", "s_over_b", "width_ratio"]
        names = names if temporal else ["comb_leakage"]
        names = names + ["comb_leakage", "fwhm"] if faults.noisy else names
        doc["outputs"] = {
            "analyses": draw(faults.shaped(st.lists(st.sampled_from(names), unique=True))),
            "write_trace": draw(faults.shaped(st.booleans())),
        }
    if faults.noisy and draw(st.integers(0, 9)) == 0:
        doc["detector"] = {}
    return doc


def _examples(test):
    for doc in [*EXTREME_INPUTS.values(), *FOUND_INPUTS.values()]:
        test = example(doc)(test)
    return test


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario_documents())
@_examples
def test_any_document_ends_in_a_documented_exit(doc):
    with tempfile.TemporaryDirectory() as tmp:
        scenario_file = Path(tmp, "scenario.json")
        scenario_file.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp, "out")
        argv = ["run", "--scenario", str(scenario_file), "--out", str(out), "--workers", "1"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        err = err.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_PRECONDITION), err
        assert "Traceback" not in err
        report = out / "report.json"
        if code == cli.EXIT_OK:
            assert err == ""
            json.loads(report.read_text(), parse_constant=_refuse_non_finite)
        else:
            assert err.count("\n") == 1, err
            assert not report.exists()


def _refuse_non_finite(token):
    raise AssertionError(f"report.json holds {token}")

