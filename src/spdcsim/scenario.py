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
``check_drive`` and ``mod_steps``) and puts the JSON path in front of the
library's message: a ``ValueError`` becomes a ``ScenarioError``, and a
``PreconditionError`` is raised again as the same type.
"""

import copy
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .correlators import CONFIGURATIONS, check_drive, mod_steps
from .elements import DispersiveElement, check_modulator
from .errors import PreconditionError, ScenarioError
from .grid import FrequencyGrid
from .source import ANALYTIC, PHYSICAL, SourceSpec

SCHEMA_VERSION = 1

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
        return self.configuration.endswith("_time")

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


def at_path(exc: ScenarioError | PreconditionError, path: str):
    """``exc`` again, as the same type, with ``path`` in front of its message."""
    return type(exc)(f"{path}: {exc}")


def _require_mapping(doc, path: str, allowed: set) -> dict:
    if not isinstance(doc, dict):
        raise _fail(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise _fail(path, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    return doc


def _get(doc: dict, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise _fail(path, f"missing required key {key!r}")
        return default
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {value!r}")
    return number


def _number_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list of numbers, got {type(value).__name__}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_grid(doc, path: str) -> FrequencyGrid:
    doc = _require_mapping(doc, path, _GRID_KEYS)
    n_points = _get(doc, "n_points", path)
    if isinstance(n_points, bool) or not isinstance(n_points, int):
        raise _fail(f"{path}.n_points", f"expected an integer, got {n_points!r}")
    delta_omega = _number(_get(doc, "delta_omega", path), f"{path}.delta_omega")
    try:
        return FrequencyGrid(n_points=n_points, delta_omega=delta_omega)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_source(doc, path: str) -> SourceSpec:
    doc = _require_mapping(doc, path, _SOURCE_KEYS)
    mode = _get(doc, "mode", path)
    center = doc.get("center_frequency")
    if center is not None:
        center = _number(center, f"{path}.center_frequency")
    try:
        if mode == PHYSICAL:
            if "envelope_bandwidth" in doc:
                raise _fail(path, "envelope_bandwidth is an analytic-mode key")
            gain = _number(_get(doc, "gain", path), f"{path}.gain")
            coeffs = _number_list(doc.get("mismatch_coeffs", []), f"{path}.mismatch_coeffs")
            return SourceSpec.physical(gain, coeffs, center_frequency=center)
        if mode == ANALYTIC:
            for key in ("gain", "mismatch_coeffs"):
                if key in doc:
                    raise _fail(path, f"{key} is a physical-mode key")
            bandwidth = _number(
                _get(doc, "envelope_bandwidth", path), f"{path}.envelope_bandwidth"
            )
            return SourceSpec.analytic(bandwidth, center_frequency=center)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.mode", f"expected 'physical' or 'analytic', got {mode!r}")


def _parse_elements(doc, path: str) -> tuple:
    if not isinstance(doc, list) or len(doc) != 2:
        raise _fail(path, "expected exactly two elements")
    out = []
    for i, element in enumerate(doc):
        epath = f"{path}[{i}]"
        element = _require_mapping(element, epath, _ELEMENT_KEYS)
        coeffs = _number_list(element.get("phase_coeffs", []), f"{epath}.phase_coeffs")
        try:
            out.append(DispersiveElement(tuple(coeffs)))
        except ValueError as exc:
            raise _fail(f"{epath}.phase_coeffs", str(exc)) from exc
    return tuple(out)


def _parse_modulators(doc, path: str) -> tuple:
    if not isinstance(doc, list) or len(doc) != 2:
        raise _fail(path, "expected exactly two modulators")
    out = []
    for i, mod in enumerate(doc):
        mpath = f"{path}[{i}]"
        mod = _require_mapping(mod, mpath, _MODULATOR_KEYS)
        freq = _number(_get(mod, "mod_freq", mpath), f"{mpath}.mod_freq")
        index = _number(_get(mod, "index", mpath), f"{mpath}.index")
        try:
            check_modulator(freq, index)
        except ValueError as exc:
            raise _fail(mpath, str(exc)) from exc
        out.append((freq, index))
    try:
        check_drive(out[0][0], out[1][0])
    except PreconditionError as exc:
        raise at_path(exc, path) from exc
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
        raise _fail(f"{path}.parameter", f"{parameter!r} does not address a number")
    if isinstance(current, int):
        # An integer leaf (grid.n_points) takes integral values only, kept as int.
        raw = doc["values"]
        for i, (value, number) in enumerate(zip(raw, values)):
            if not number.is_integer():
                raise _fail(f"{path}.values[{i}]", f"{parameter!r} takes integers, got {value!r}")
        values = [int(value) for value in raw]
    return SweepSpec(parameter=parameter, values=tuple(values))


def _parse_outputs(doc, path: str, configuration: str) -> OutputSpec:
    allowed = TIME_ANALYSES if configuration.endswith("_time") else FREQ_ANALYSES
    if doc is None:
        return OutputSpec(analyses=tuple(allowed))
    doc = _require_mapping(doc, path, _OUTPUT_KEYS)
    analyses = doc.get("analyses")
    if analyses is None:
        analyses = list(allowed)
    if not isinstance(analyses, list):
        raise _fail(f"{path}.analyses", "expected a list of analysis names")
    for name in analyses:
        if name not in allowed:
            raise _fail(
                f"{path}.analyses",
                f"unknown analysis {name!r} for {configuration}; allowed: {list(allowed)}",
            )
    write_trace = doc.get("write_trace", True)
    write_comb = doc.get("write_comb", True)
    for key, val in (("write_trace", write_trace), ("write_comb", write_comb)):
        if not isinstance(val, bool):
            raise _fail(f"{path}.{key}", "expected a boolean")
    return OutputSpec(analyses=tuple(analyses), write_trace=write_trace, write_comb=write_comb)


def check_sweep_outputs(scenario: Scenario) -> None:
    """Refuse a sweep whose ``sweep.csv`` columns would not be computed.

    The runner calls this before any point runs or file is written.
    """
    if scenario.sweep is None:
        return
    if scenario.exact_grid:
        raise _fail(
            "scenario.exact_grid",
            "exact-grid scenarios cannot be swept: exact mode computes no comb_leakage",
        )
    needed = ("rms_width", "fwhm", "s_over_b") if scenario.is_temporal else ("comb_leakage",)
    missing = [name for name in needed if name not in scenario.outputs.analyses]
    if missing:
        raise _fail(
            "scenario.outputs.analyses", f"a {scenario.configuration} sweep needs {missing}"
        )


def resolve_parameter(doc: dict, dotted: str):
    """Look up a dotted path like ``elements.1.phase_coeffs.1`` in a document."""
    node = doc
    for part in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise ScenarioError(f"sweep.parameter: bad list index {part!r} in {dotted!r}") from exc
        elif isinstance(node, dict):
            if part not in node:
                raise ScenarioError(f"sweep.parameter: {dotted!r} not found (missing {part!r})")
            node = node[part]
        else:
            raise ScenarioError(f"sweep.parameter: {dotted!r} descends into a leaf at {part!r}")
    return node


def set_parameter(doc: dict, dotted: str, value) -> dict:
    """Return a deep copy of ``doc`` with the dotted path set to ``value``."""
    out = copy.deepcopy(doc)
    parts = dotted.split(".")
    node = out
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    last = parts[-1]
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
        raise _fail("scenario.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    configuration = _get(document, "configuration", "scenario")
    if configuration not in CONFIGURATIONS:
        raise _fail(
            "scenario.configuration", f"expected one of {list(CONFIGURATIONS)}, got {configuration!r}"
        )
    temporal = configuration.endswith("_time")

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
        try:
            mod_steps(modulators[0][0], grid)
        except PreconditionError as exc:
            raise at_path(exc, "scenario.exact_grid") from exc

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


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; syntax errors keep line/column."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(document, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return parse_scenario(document)
