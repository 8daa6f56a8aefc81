"""Declarative JSON scenarios for the command-line front end.

A scenario names one correlation configuration, the source and grid, the two
path elements (dispersive for temporal configurations, modulators for
spectral ones) and optionally a one-axis parameter sweep.  Documents are
validated strictly: unknown keys are rejected and every physics invariant is
checked at parse time, with errors anchored to the JSON path of the offending
field (syntax errors keep the parser's line/column).  Reports emitted by the
runner embed their fully resolved scenario under a top-level ``scenario``
key; such documents are accepted back as input.

The parser checks each physics invariant by calling the library code that
owns it (the grid, source and element constructors, ``check_modulator``,
``check_drive`` and ``mod_steps``) inside ``at_path``, the one place where a
library error gets its JSON path; ``sweep_points`` parses a sweep's points
through it too.  A scenario whose ``estimate_peak_bytes`` exceeds
``MEMORY_BUDGET_BYTES`` is refused at ``scenario.grid.n_points`` before
anything of the grid's size is allocated, and ``points_at_once`` tells the
runner how many sweep points fit that budget together.
"""

import copy
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .correlators import CONFIGURATIONS, TEMPORAL
from .correlators import check_drive, exact_orders, mod_steps
from .elements import DispersiveElement, build_comb, check_modulator
from .errors import PreconditionError, ScenarioError, echo
from .grid import FrequencyGrid
from .source import ANALYTIC, PHYSICAL, SourceSpec

SCHEMA_VERSION = 1

# Largest estimated peak memory of one point (``estimate_peak_bytes``) that
# parses; the shipped and benchmark scenarios estimate at most about 24 MiB.
MEMORY_BUDGET_BYTES = 4 * 2**30

# Peak traced memory of one run_scenario point over temporal grids of 4096 to
# 65536 samples, each run in a fresh process, was 193-273 bytes per sample
# with a physical source, whose gain-free factor exp(i DL/2) the grid keeps
# (16 bytes per sample); the most with two five-order elements, whose four
# detuning powers the grid keeps too (32 bytes per sample) while the trace
# text is written (255-362), and in a gain sweep on one worker (300-362).
# The peak comes while the trace text is written: the trace writer's share
# is its cached delay cells (about 85 bytes per sample) and one chunk of
# text (about 35 bytes per sample at n = 4096).  Computing a point without
# writing it peaked at 161-171 bytes per sample at n = 65536.
# Exact joint spectra at n = 4096 with 77 and 177 comb lines added 20-27
# bytes per line per sample, below the 32 of a complex amplitude and its
# squared modulus held at once.
_PEAK_BYTES_PER_SAMPLE = 384
_PEAK_BYTES_PER_LINE_SAMPLE = 32

TIME_ANALYSES = ("rms_width", "fwhm", "s_over_b", "width_ratio")
FREQ_ANALYSES = ("comb_leakage",)

_TOP_KEYS = {
    "schema_version",
    "configuration",
    "grid",
    "source",
    "elements",
    "modulators",
    "exact_grid",
    "sweep",
    "outputs",
}
_GRID_KEYS = {"n_points", "delta_omega"}
_SOURCE_KEYS = {"mode", "gain", "mismatch_coeffs", "envelope_bandwidth", "center_frequency"}
_ELEMENT_KEYS = {"phase_coeffs"}
_MODULATOR_KEYS = {"mod_freq", "index"}
_SWEEP_KEYS = {"parameter", "values"}
_OUTPUT_KEYS = {"analyses", "write_trace", "write_comb"}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class OutputSpec:
    analyses: tuple
    write_trace: bool = True
    write_comb: bool = True


@dataclass(frozen=True)
class Scenario:
    configuration: str
    grid: FrequencyGrid
    source: SourceSpec
    elements: tuple | None  # two DispersiveElement, temporal configs
    modulators: tuple | None  # two (mod_freq, index) pairs, spectral configs
    exact_grid: bool
    sweep: SweepSpec | None
    outputs: OutputSpec

    @property
    def is_temporal(self) -> bool:
        return self.configuration in TEMPORAL

    def resolved(self) -> dict:
        """Fully expanded scenario document; re-parsing it is the identity."""
        doc: dict = {
            "schema_version": SCHEMA_VERSION,
            "configuration": self.configuration,
            "grid": {
                "n_points": self.grid.n_points,
                "delta_omega": self.grid.delta_omega,
            },
            "source": self._source_doc(),
            "exact_grid": self.exact_grid,
            "sweep": None
            if self.sweep is None
            else {"parameter": self.sweep.parameter, "values": list(self.sweep.values)},
            "outputs": {
                "analyses": list(self.outputs.analyses),
                "write_trace": self.outputs.write_trace,
                "write_comb": self.outputs.write_comb,
            },
        }
        if self.is_temporal:
            doc["elements"] = [{"phase_coeffs": list(e.phase_coeffs)} for e in self.elements]
        else:
            doc["modulators"] = [
                {"mod_freq": freq, "index": index} for freq, index in self.modulators
            ]
        return doc

    def _source_doc(self) -> dict:
        if self.source.mode == PHYSICAL:
            return {
                "mode": PHYSICAL,
                "gain": self.source.gain,
                "mismatch_coeffs": list(self.source.mismatch.taylor_coeffs),
                "center_frequency": self.source.center_frequency,
            }
        return {
            "mode": ANALYTIC,
            "envelope_bandwidth": self.source.envelope_bandwidth,
            "center_frequency": self.source.center_frequency,
        }


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


@contextmanager
def at_path(path: str):
    """Put ``path`` in front of the message of an error raised inside: a
    ``ValueError`` becomes a ``ScenarioError``; a ``PreconditionError``, or a
    ``ScenarioError`` of a nested parse (the library raises none), keeps its type."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (ScenarioError, PreconditionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _require_mapping(doc, path: str, allowed: set) -> dict:
    if not isinstance(doc, dict):
        raise _fail(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise _fail(path, f"unknown key(s) {echo(unknown)}; allowed: {sorted(allowed)}")
    return doc


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        raise _fail(path, f"missing required key {key!r}")
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {echo(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {echo(value)}")
    return number


def _number_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list of numbers, got {type(value).__name__}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_grid(doc, path: str) -> FrequencyGrid:
    doc = _require_mapping(doc, path, _GRID_KEYS)
    n_points = _get(doc, "n_points", path)
    if isinstance(n_points, bool) or not isinstance(n_points, int):
        raise _fail(f"{path}.n_points", f"expected an integer, got {echo(n_points)}")
    delta_omega = _number(_get(doc, "delta_omega", path), f"{path}.delta_omega")
    with at_path(path):
        return FrequencyGrid(n_points=n_points, delta_omega=delta_omega)


def _parse_source(doc, path: str) -> SourceSpec:
    doc = _require_mapping(doc, path, _SOURCE_KEYS)
    mode = _get(doc, "mode", path)
    center = doc.get("center_frequency")
    if center is not None:
        center = _number(center, f"{path}.center_frequency")
    # The numbers and this parser's own errors stay outside the boundary,
    # which would put ``path`` in front of their own path.
    if mode == PHYSICAL:
        if "envelope_bandwidth" in doc:
            raise _fail(path, "envelope_bandwidth is an analytic-mode key")
        gain = _number(_get(doc, "gain", path), f"{path}.gain")
        coeffs = _number_list(doc.get("mismatch_coeffs", []), f"{path}.mismatch_coeffs")
        with at_path(path):
            return SourceSpec.physical(gain, coeffs, center_frequency=center)
    if mode == ANALYTIC:
        for key in ("gain", "mismatch_coeffs"):
            if key in doc:
                raise _fail(path, f"{key} is a physical-mode key")
        bandwidth = _number(_get(doc, "envelope_bandwidth", path), f"{path}.envelope_bandwidth")
        with at_path(path):
            return SourceSpec.analytic(bandwidth, center_frequency=center)
    raise _fail(f"{path}.mode", f"expected 'physical' or 'analytic', got {echo(mode)}")


def _two_mappings(doc, path: str, what: str, allowed: set):
    """Each entry of a two-entry list of mappings, with its path, one at a time."""
    if not isinstance(doc, list) or len(doc) != 2:
        raise _fail(path, f"expected exactly two {what}")
    for i, entry in enumerate(doc):
        epath = f"{path}[{i}]"
        yield _require_mapping(entry, epath, allowed), epath


def _parse_elements(doc, path: str) -> tuple:
    out = []
    for element, epath in _two_mappings(doc, path, "elements", _ELEMENT_KEYS):
        coeffs = _number_list(element.get("phase_coeffs", []), f"{epath}.phase_coeffs")
        with at_path(f"{epath}.phase_coeffs"):
            out.append(DispersiveElement(tuple(coeffs)))
    return tuple(out)


def _parse_modulators(doc, path: str) -> tuple:
    out = []
    for mod, mpath in _two_mappings(doc, path, "modulators", _MODULATOR_KEYS):
        freq = _number(_get(mod, "mod_freq", mpath), f"{mpath}.mod_freq")
        index = _number(_get(mod, "index", mpath), f"{mpath}.index")
        with at_path(mpath):
            check_modulator(freq, index)
        out.append((freq, index))
    with at_path(path):
        check_drive(out[0][0], out[1][0])
    return tuple(out)


def _parse_sweep(doc, path: str, resolved: dict) -> SweepSpec:
    doc = _require_mapping(doc, path, _SWEEP_KEYS)
    parameter = _get(doc, "parameter", path)
    if not isinstance(parameter, str) or not parameter:
        raise _fail(f"{path}.parameter", "expected a nonempty dotted path string")
    values = _number_list(_get(doc, "values", path), f"{path}.values")
    if not values:
        raise _fail(f"{path}.values", "expected at least one value")
    current = resolve_parameter(resolved, parameter)  # raises ScenarioError if absent
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise _fail(f"{path}.parameter", f"{echo(parameter)} does not address a number")
    if isinstance(current, int):
        # An integer leaf (grid.n_points) takes integral values only, kept as int.
        raw = doc["values"]
        for i, (value, number) in enumerate(zip(raw, values)):
            if not number.is_integer():
                raise _fail(
                    f"{path}.values[{i}]", f"{echo(parameter)} takes integers, got {echo(value)}"
                )
        values = [int(value) for value in raw]
    return SweepSpec(parameter=parameter, values=tuple(values))


def estimate_peak_bytes(n_points: int, exact_modulators: tuple | None = None) -> int:
    """Estimated peak memory in bytes of computing and writing one point.

    About _PEAK_BYTES_PER_SAMPLE per grid sample (source fields, transfers,
    FFT buffers, trace text), plus, for an exact joint spectrum of the two
    ``(mod_freq, index)`` modulators ``exact_modulators``,
    _PEAK_BYTES_PER_LINE_SAMPLE per sample per comb line
    (``correlators.exact_orders``, the same for either pairing: the complex
    ridge amplitudes and their profiles).  Pure arithmetic: nothing of that
    size is allocated.
    """
    per_sample = _PEAK_BYTES_PER_SAMPLE
    if exact_modulators is not None:
        m1, m2 = (build_comb(freq, index) for freq, index in exact_modulators)
        lines = exact_orders(m1, m2).size
        per_sample += _PEAK_BYTES_PER_LINE_SAMPLE * lines
    return n_points * per_sample


def _check_memory(grid: FrequencyGrid, exact_modulators: tuple | None) -> None:
    """Refuse a grid whose estimated peak memory exceeds the budget, before
    anything of its size is allocated."""
    estimate = estimate_peak_bytes(grid.n_points, exact_modulators)
    if estimate > MEMORY_BUDGET_BYTES:
        try:
            gib = estimate / 2**30
        except OverflowError:  # an integer grid size beyond the range of a double
            gib = math.inf
        raise _fail(
            "scenario.grid.n_points",
            f"{echo(grid.n_points)} samples need an estimated {gib:.3g} GiB, "
            f"above the {MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget",
        )


def points_at_once(points) -> int:
    """How many of the parsed sweep ``points`` fit ``MEMORY_BUDGET_BYTES`` at
    once, each at the estimate that ``_check_memory`` gates: at least one."""
    largest = max(
        estimate_peak_bytes(point.grid.n_points, point.modulators if point.exact_grid else None)
        for point in points
    )
    return max(1, MEMORY_BUDGET_BYTES // largest)


def _parse_outputs(doc, path: str, configuration: str) -> OutputSpec:
    allowed = TIME_ANALYSES if configuration in TEMPORAL else FREQ_ANALYSES
    doc = _require_mapping({} if doc is None else doc, path, _OUTPUT_KEYS)
    analyses = doc.get("analyses")
    if analyses is None:
        analyses = list(allowed)
    if not isinstance(analyses, list):
        raise _fail(f"{path}.analyses", "expected a list of analysis names")
    for name in analyses:
        if name not in allowed:
            raise _fail(
                f"{path}.analyses",
                f"unknown analysis {echo(name)} for {configuration}; allowed: {list(allowed)}",
            )
    write_trace = doc.get("write_trace", True)
    write_comb = doc.get("write_comb", True)
    for key, val in (("write_trace", write_trace), ("write_comb", write_comb)):
        if not isinstance(val, bool):
            raise _fail(f"{path}.{key}", "expected a boolean")
    return OutputSpec(analyses=tuple(analyses), write_trace=write_trace, write_comb=write_comb)


def sweep_columns(scenario: Scenario) -> dict:
    """The ``sweep.csv`` columns after ``param``: {analysis: report key}."""
    if scenario.is_temporal:
        return {"rms_width": "rms_width_ps", "fwhm": "fwhm_ps", "s_over_b": "s_over_b"}
    return {"comb_leakage": "comb_leakage"}


def check_sweep_outputs(scenario: Scenario) -> None:
    """Refuse a sweep whose ``sweep.csv`` columns would not be computed."""
    if scenario.sweep is None:
        return
    if scenario.exact_grid:
        raise _fail(
            "scenario.exact_grid",
            "exact-grid scenarios cannot be swept: exact mode computes no comb_leakage",
        )
    missing = [name for name in sweep_columns(scenario) if name not in scenario.outputs.analyses]
    if missing:
        raise _fail(
            "scenario.outputs.analyses", f"a {scenario.configuration} sweep needs {missing}"
        )


def resolve_parameter(doc: dict, dotted: str):
    """Look up a dotted path like ``elements.1.phase_coeffs.1`` in a document."""
    path = "scenario.sweep.parameter"
    node = doc
    for part in dotted.split("."):
        if isinstance(node, list):
            # ASCII digits without a leading zero, so that a leaf has one name
            # in report.json: int() alone also takes "-1", "01", " 1" and "+1".
            canonical = part == "0" or (part.isascii() and part.isdigit() and part[0] != "0")
            try:
                if not canonical:
                    raise ValueError(part)
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise _fail(path, f"bad list index {echo(part)} in {echo(dotted)}") from exc
        elif isinstance(node, dict):
            if part not in node:
                raise _fail(path, f"{echo(dotted)} not found (missing {echo(part)})")
            node = node[part]
        else:
            raise _fail(path, f"{echo(dotted)} descends into a leaf at {echo(part)}")
    return node


def set_parameter(doc: dict, dotted: str, value) -> dict:
    """Return a deep copy of ``doc`` with the dotted path set to ``value``."""
    out = copy.deepcopy(doc)
    parent, _, last = dotted.rpartition(".")
    node = resolve_parameter(out, parent) if parent else out
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return out


def parse_scenario(document: dict) -> Scenario:
    """Validate a scenario document (or a report embedding one)."""
    if isinstance(document, dict) and "scenario" in document:
        document = document["scenario"]
    document = _require_mapping(document, "scenario", _TOP_KEYS)

    version = _get(document, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise _fail("scenario.schema_version", f"expected {SCHEMA_VERSION}, got {echo(version)}")

    configuration = _get(document, "configuration", "scenario")
    if configuration not in CONFIGURATIONS:
        raise _fail(
            "scenario.configuration",
            f"expected one of {list(CONFIGURATIONS)}, got {echo(configuration)}",
        )
    temporal = configuration in TEMPORAL

    grid = _parse_grid(_get(document, "grid", "scenario"), "scenario.grid")
    source = _parse_source(_get(document, "source", "scenario"), "scenario.source")

    elements = None
    modulators = None
    if temporal:
        if "modulators" in document:
            raise _fail("scenario.modulators", f"not allowed for {configuration}")
        elements = _parse_elements(_get(document, "elements", "scenario"), "scenario.elements")
    else:
        if "elements" in document:
            raise _fail("scenario.elements", f"not allowed for {configuration}")
        modulators = _parse_modulators(
            _get(document, "modulators", "scenario"), "scenario.modulators"
        )

    exact_grid = document.get("exact_grid", False)
    if not isinstance(exact_grid, bool):
        raise _fail("scenario.exact_grid", "expected a boolean")
    if exact_grid:
        if temporal:
            raise _fail("scenario.exact_grid", "only spectral configurations support exact_grid")
        with at_path("scenario.exact_grid"):
            mod_steps(modulators[0][0], grid)
    _check_memory(grid, modulators if exact_grid else None)

    outputs = _parse_outputs(document.get("outputs"), "scenario.outputs", configuration)

    scenario = Scenario(
        configuration=configuration,
        grid=grid,
        source=source,
        elements=elements,
        modulators=modulators,
        exact_grid=exact_grid,
        sweep=None,
        outputs=outputs,
    )
    sweep_doc = document.get("sweep")
    if sweep_doc is not None:
        sweep = _parse_sweep(sweep_doc, "scenario.sweep", scenario.resolved())
        scenario = replace(scenario, sweep=sweep)
    return scenario


def sweep_points(scenario: Scenario) -> list:
    """The parsed points of a sweep (none for a single run), each a single
    run without a sweep, after ``check_sweep_outputs``; a point's error names
    its ``scenario.sweep.values[i]``."""
    sweep = scenario.sweep
    if sweep is None:
        return []
    check_sweep_outputs(scenario)
    resolved = scenario.resolved()
    resolved["sweep"] = None  # a point is a single run; its sweep is not parsed again
    points = []
    for i, value in enumerate(sweep.values):
        with at_path(f"scenario.sweep.values[{i}]"):
            points.append(parse_scenario(set_parameter(resolved, sweep.parameter, value)))
    return points


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; syntax errors keep line/column, and
    bytes that are not UTF-8 their offset."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: byte {exc.start}: invalid UTF-8: {exc.reason}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return parse_scenario(document)
