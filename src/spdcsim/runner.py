"""Scenario execution and report writing.

Outputs are deterministic: floats are printed with 17 significant digits,
files are written atomically (temp file + rename), report.json embeds the
fully resolved scenario, and sweep rows are ordered by sweep index no matter
which worker finishes first.

A sweep computes what its points share with its base scenario once: on the
base's grid, the source fields and the width of the no-element baseline of
every point whose source equals the base's, and the transfer of every
dispersive element that equals the base's (the point is handed the base's
element object, on which ``dispersive_transfer`` memoises it).

The CSV writers format whole columns at once: a row template repeated over
the rows is filled by a single %-operation (``_format_rows``), and
``"%.17g" % x`` runs the same C routine as ``format(x, ".17g")``, so the text
is that of formatting each value on its own.  Writers yield text in chunks
that ``_atomic_write`` streams to disk.
"""

import json
import math
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis
from .correlators import (
    Correlation1D,
    INTER_FREQ,
    INTER_TIME,
    INTRA_FREQ,
    JointComb,
    JointGrid,
    baseline,
    g2_freq_exact,
    g2_inter_freq_narrowband,
    g2_inter_time,
    g2_intra_freq_narrowband,
    g2_intra_time,
)
from .elements import build_comb
from .errors import NonFiniteResult, PreconditionError, ScenarioError
from .scenario import Scenario, at_path, check_sweep_outputs, parse_scenario, set_parameter
from .source import evaluate_source

WIDTH_RATIO_TOLERANCE = 1e-6
LEAKAGE_TOLERANCE = 1e-12

_JOINT_CHUNK_ROWS = 8192


def _format_rows(row_template: str, *columns) -> str:
    """``row_template % row`` for every row of ``columns``, joined, in one pass.

    Columns are equal-length sequences of floats or of preformatted strings;
    they are laid out row-major in an object table whose ``tolist`` feeds a
    single %-operation over the repeated template.
    """
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, column in enumerate(columns):
        table[:, k] = column
    return (row_template * len(table)) % tuple(table.ravel().tolist())


@lru_cache(maxsize=1)
def _column_lines(raw: bytes) -> str:
    """17-digit text of a float64 column given as its raw bytes, one value per line.

    Cached by the exact bits of the column, so the delay axis that the points
    of a sweep share is formatted once.
    """
    return _format_rows("%.17g\n", np.frombuffer(raw))


def _atomic_write(path: Path, chunks) -> None:
    """Write an iterable of text chunks to ``path`` via a temp file + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_csv(corr: Correlation1D):
    yield "tau_ps,g2,background\n"
    delays = _column_lines(np.asarray(corr.tau_grid, dtype=np.float64).tobytes())
    # Each delay line becomes a row template for its G2 value; the 17-digit
    # text of a float never holds a "%".
    template = delays.replace("\n", ",%.17g," + "%.17g" % float(corr.background) + "\n")
    yield template % tuple(corr.values.tolist())


def _comb_csv(comb: JointComb):
    yield "n,coefficient,ridge,envelope_axis_radps,envelope_value\n"
    # The envelope columns are the same for every comb line: format them once
    # and prefix each row with the line's n, coefficient and ridge.
    envelope = _format_rows("%.17g,%.17g\n", comb.envelope_axis, comb.envelope)[:-1]
    for order, coeff in zip(comb.orders.tolist(), comb.coefficients.tolist()):
        prefix = "%d,%.17g,%.17g," % (order, coeff, order * comb.mod_freq)
        yield prefix + envelope.replace("\n", "\n" + prefix) + "\n"


def _joint_csv(joint: JointGrid):
    yield "omega1_radps,omega2_radps,structure,background\n"
    omegas = np.array(["%.17g" % x for x in joint.grid.omegas.tolist()], dtype=object)
    rows, cols, structure = joint.cells()
    for start in range(0, rows.size, _JOINT_CHUNK_ROWS):
        i = rows[start : start + _JOINT_CHUNK_ROWS]
        j = cols[start : start + _JOINT_CHUNK_ROWS]
        yield _format_rows(
            "%s,%s,%.17g,%.17g\n",
            omegas[i],
            omegas[j],
            structure[start : start + _JOINT_CHUNK_ROWS],
            joint.background_factor_1[i] * joint.background_factor_2[j],
        )


@dataclass
class PointOutcome:
    """One executed configuration: the raw result plus its analyses."""

    result: object
    analyses: dict


class _SharedWithBase:
    """Source fields and baseline width of a sweep's base scenario, each
    computed once.

    Handed to the points whose source and grid equal the base's; the first
    point to ask computes a piece while the others wait for it.
    """

    def __init__(self, base: Scenario):
        self._base = base
        self._lock = threading.Lock()
        self._source = None
        self._reference_width = None

    def source(self):
        with self._lock:
            if self._source is None:
                self._source = evaluate_source(self._base.source, self._base.grid)
            return self._source

    def reference_width(self) -> float:
        """RMS width of the no-element baseline."""
        source = self.source()
        with self._lock:
            if self._reference_width is None:
                reference = baseline(source, self._base.configuration)
                self._reference_width = analysis.rms_width(reference).rms_width
            return self._reference_width


def _share_with_base(point: Scenario, base: Scenario) -> Scenario:
    """``point`` on the base's grid object, with each dispersive element that
    equals the base's replaced by the base's object; unchanged off that grid."""
    if point.grid != base.grid:
        return point
    elements = point.elements
    if point.is_temporal:
        elements = tuple(b if p == b else p for p, b in zip(point.elements, base.elements))
    return replace(point, grid=base.grid, elements=elements)


def execute(scenario: Scenario, shared: _SharedWithBase | None = None) -> PointOutcome:
    """Run the configured correlator and the requested analyses.

    ``shared`` supplies the source fields and the baseline width when they are
    those of a sweep's base scenario.
    """
    source = shared.source() if shared else evaluate_source(scenario.source, scenario.grid)
    config = scenario.configuration

    if scenario.is_temporal:
        h1, h2 = scenario.elements
        corr = (
            g2_inter_time(source, h1, h2)
            if config == INTER_TIME
            else g2_intra_time(source, h1, h2)
        )
        results: dict = {"background": corr.background, "peak_tau_ps": corr.peak_tau}
        wanted = scenario.outputs.analyses
        if "rms_width" in wanted or "fwhm" in wanted or "width_ratio" in wanted:
            report = analysis.rms_width(corr)
            if "rms_width" in wanted:
                results["rms_width_ps"] = report.rms_width
            if "fwhm" in wanted:
                results["fwhm_ps"] = report.fwhm
        if "s_over_b" in wanted:
            results["s_over_b"] = analysis.signal_to_background(corr)
        if "width_ratio" in wanted:
            if shared:
                reference_width = shared.reference_width()
            else:
                reference_width = analysis.rms_width(baseline(source, config)).rms_width
            verdict = analysis._width_ratio_verdict(
                report.rms_width, reference_width, config, WIDTH_RATIO_TOLERANCE
            )
            results["width_ratio"] = verdict.metric
            results["canceled"] = verdict.canceled
            results["cancel_tolerance"] = verdict.tolerance
        return PointOutcome(result=corr, analyses=results)

    (freq, idx1), (_, idx2) = scenario.modulators
    m1 = build_comb(freq, idx1)
    m2 = build_comb(freq, idx2)
    if scenario.exact_grid:
        joint = g2_freq_exact(source, m1, m2, config)
        structure_integral = float(np.sum(joint.profiles)) * scenario.grid.delta_omega**2
        return PointOutcome(result=joint, analyses={"structure_integral": structure_integral})

    comb = (
        g2_inter_freq_narrowband(source, m1, m2)
        if config == INTER_FREQ
        else g2_intra_freq_narrowband(source, m1, m2)
    )
    results = {
        "combined_index": comb.combined_index,
        "n0_coefficient": comb.coefficient(0),
    }
    if "comb_leakage" in scenario.outputs.analyses:
        verdict = analysis.assess_comb_cancelation(comb, config, tolerance=LEAKAGE_TOLERANCE)
        results["comb_leakage"] = verdict.metric
        results["canceled"] = verdict.canceled
        results["cancel_tolerance"] = verdict.tolerance
    return PointOutcome(result=comb, analyses=results)


def _write_point_files(outcome: PointOutcome, scenario: Scenario, out_dir: Path, prefix: str):
    files = []
    if isinstance(outcome.result, Correlation1D):
        if scenario.outputs.write_trace:
            name = f"{prefix}trace.csv"
            _atomic_write(out_dir / name, _trace_csv(outcome.result))
            files.append(name)
    elif isinstance(outcome.result, JointComb):
        if scenario.outputs.write_comb:
            name = f"{prefix}comb.csv"
            _atomic_write(out_dir / name, _comb_csv(outcome.result))
            files.append(name)
    elif isinstance(outcome.result, JointGrid):
        name = f"{prefix}joint.csv"
        _atomic_write(out_dir / name, _joint_csv(outcome.result))
        files.append(name)
    return files


def _sweep_csv(scenario: Scenario, values, outcomes):
    if scenario.is_temporal:
        yield "param,rms_width_ps,fwhm_ps,s_over_b\n"
        keys = ("rms_width_ps", "fwhm_ps", "s_over_b")
    else:
        yield "param,comb_leakage\n"
        keys = ("comb_leakage",)
    columns = [[outcome.analyses[key] for outcome in outcomes] for key in keys]
    yield _format_rows(",".join(["%.17g"] * (1 + len(keys))) + "\n", values, *columns)


def _require_finite(value, key: str) -> None:
    """Raise ``NonFiniteResult`` naming the first NaN or infinity under ``key``."""
    if isinstance(value, dict):
        for name, item in value.items():
            _require_finite(item, f"{key}.{name}" if key else name)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _require_finite(item, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteResult(f"{key} is {float(value)!r}; report.json not written")


def _sweep_points(scenario: Scenario, resolved: dict) -> list:
    """The parsed points of a sweep, sharing what they can with its base."""
    sweep = scenario.sweep
    points = []
    for i, value in enumerate(sweep.values):
        try:
            point = parse_scenario(set_parameter(resolved, sweep.parameter, value))
        except (ScenarioError, PreconditionError) as exc:
            raise at_path(exc, f"scenario.sweep.values[{i}]") from exc
        points.append(_share_with_base(point, scenario))
    return points


def run_scenario(scenario: Scenario, out_dir, workers: int | None = None) -> dict:
    """Execute a scenario (sweeping if configured) and write its report.

    Returns the report dictionary; files land in ``out_dir``.  Every sweep
    point is parsed before the directory is made; a point's error names its
    ``scenario.sweep.values[i]``.
    """
    check_sweep_outputs(scenario)
    resolved = scenario.resolved()
    sweep = scenario.sweep
    points = [] if sweep is None else _sweep_points(scenario, resolved)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"schema_version": 1, "scenario": resolved}
    files: list = []

    if sweep is None:
        outcome = execute(scenario)
        files += _write_point_files(outcome, scenario, out_dir, "")
        report["results"] = outcome.analyses
    else:
        shared = _SharedWithBase(scenario)

        def run_point(point: Scenario) -> PointOutcome:
            shares_source = point.grid is scenario.grid and point.source == scenario.source
            outcome = execute(point, shared if shares_source else None)
            if isinstance(outcome.result, Correlation1D) and not scenario.outputs.write_trace:
                return PointOutcome(result=None, analyses=outcome.analyses)
            return outcome

        max_workers = workers or os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            pending = pool.map(run_point, points)
            # The pool now holds the only reference to each point, so a point
            # and the transfers memoised on its own elements are freed once run.
            del points
            outcomes = list(pending)
        digits = max(4, len(str(len(outcomes))))
        for i, outcome in enumerate(outcomes):
            files += _write_point_files(
                outcome, scenario, out_dir, f"point_{i:0{digits}d}_"
            )
        name = "sweep.csv"
        _atomic_write(out_dir / name, _sweep_csv(scenario, sweep.values, outcomes))
        files.append(name)
        report["results"] = {
            "sweep_parameter": sweep.parameter,
            "points": [
                {"value": value, **outcome.analyses}
                for value, outcome in zip(sweep.values, outcomes)
            ],
        }

    report["files"] = sorted(files) + ["report.json"]
    _require_finite(report, "")
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(out_dir / "report.json", [text, "\n"])
    return report
