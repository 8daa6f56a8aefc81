"""Scenario execution and report writing.

Outputs are deterministic: floats are printed with 17 significant digits,
files are written atomically (temp file + rename), report.json embeds the
fully resolved scenario, and sweep rows are ordered by sweep index no matter
which worker finishes first.

A run owns the names it writes in its output directory.  Before it computes
anything it removes an earlier ``report.json``, then every other file under
one of its own names (``_OWN_FILE``: ``trace.csv``, ``comb.csv``,
``joint.csv``, ``sweep.csv``, their ``point_<i>_`` forms and the temp files
of a killed write).  So every rename lands on a free name, and the directory
ends up holding what the report lists beside files spdcsim does not name.

A run reads its source fields and baseline width through a
``_SharedWithBase``, its own or its sweep's base scenario's, which computes
each once under a lock.  ``_SharedWithBase.adopt`` puts a sweep point on the
base's grid object and equal element objects, and shares the base's when the
point's source equals the base's.  What ``grid.memo`` keeps on those objects
is then shared too, without a lock: the detuning powers, which every element
phase reads; each element's transfer; the gain-free factor exp(i DL/2) of
the source's mismatch phase DL, which every point of a ``source.gain`` sweep
reads while it evaluates its own source; and the source's structure
bandwidth per pairing, which the alias and narrowband gates read.

The CSV writers format whole columns at once: a row template repeated over
the rows is filled by a single %-operation (``_format_rows``), and
``"%.17g" % x`` runs the same C routine as ``format(x, ".17g")``, so the text
is that of formatting each value on its own.  ``trace.csv`` builds no row
template: its rows are ``"<tau>,"`` delay cells, cached per bit pattern of
the delay axis that a sweep's points share, joined with ``"<g2>,<bg>\n"``
row ends.  Each distinct bit pattern of the G2 column gets one row end,
placed through the inverse index of ``np.unique``; most of a trace equals
its background bit for bit.  Writers yield text in chunks that
``_atomic_write`` streams to disk.
"""

import json
import math
import os
import re
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
from .errors import NonFiniteResult
from .scenario import Scenario, points_at_once, sweep_columns, sweep_points
from .source import evaluate_source

_JOINT_CHUNK_ROWS = 8192
_TRACE_CHUNK_ROWS = 1024


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
def _delay_cells(raw: bytes) -> np.ndarray:
    """``"%.17g,"`` cells of a float64 delay axis given as its raw bytes, as a
    read-only object array.

    Cached by the exact bits of the axis, so the delay column that the points
    of a sweep share is formatted once.  One entry: four raised the peak
    memory of a benchmark round by 1.3-1.5 MiB and saved no measurable time.
    """
    cells = np.array(_format_rows("%.17g,\n", np.frombuffer(raw)).split("\n")[:-1], dtype=object)
    cells.setflags(write=False)
    return cells


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
    cells = _delay_cells(np.asarray(corr.tau_grid, dtype=np.float64).tobytes())
    # Most G2 values repeat (the background far from the peak), so each
    # distinct value is formatted once, as the end of its rows.  The key is
    # the bit pattern, not the value: 0.0 and -0.0 print differently, and
    # NaNs never compare equal.  17-digit text holds no line break, so
    # ``splitlines`` cuts exactly one row end per value.
    values = np.ascontiguousarray(corr.values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    end = "%.17g," + "%.17g" % float(corr.background) + "\n"
    # Row ends and rows are both made a chunk at a time, so that no text of
    # the whole trace is held beside its cells: joining the whole trace at
    # once raised the peak memory of a benchmark round by about 2 MiB.
    ends = np.empty(distinct.size, dtype=object)
    for start in range(0, distinct.size, _TRACE_CHUNK_ROWS):
        stop = start + _TRACE_CHUNK_ROWS
        ends[start:stop] = _format_rows(end, distinct[start:stop]).splitlines(True)
    del bits, distinct
    row = np.empty(2 * _TRACE_CHUNK_ROWS, dtype=object)
    for start in range(0, values.size, _TRACE_CHUNK_ROWS):
        stop = min(start + _TRACE_CHUNK_ROWS, values.size)
        chunk = row[: 2 * (stop - start)]
        chunk[0::2] = cells[start:stop]
        chunk[1::2] = ends[inverse[start:stop]]
        yield "".join(chunk.tolist())


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
    """One executed configuration: the raw result to write, None when the
    point writes no file, plus its analyses."""

    result: object
    analyses: dict


class _SharedWithBase:
    """Source fields and baseline width of one scenario, each computed once.

    One per run: the base's for the sweep points that ``adopt`` shares it
    with, else the run's own.  The first point to ask computes a piece while
    the others wait for it.  Computing both in the main thread before the
    pool starts drops the lock but cost compute-bound sweeps about 8% more
    wall and CPU time, with twice the minor page faults.  Not a ``grid.memo``:
    a lock inside ``memo`` made the workers wait for each other's transfers
    at a sweep's start.  And the fields die with the run, a single run's
    before its files are written and a sweep base's when ``run_scenario``
    returns; memoised on the caller's ``SourceSpec``, R and S outlived the
    run and lifted a single run's traced peak by 24 bytes per sample.
    """

    def __init__(self, base: Scenario):
        self._base = base
        self._lock = threading.Lock()
        self._source = None
        self._reference_width = None

    def adopt(self, point: Scenario):
        """``(point, shared)``: ``point`` on the base's grid object and equal
        element objects, ``shared`` this object when its source is the base's
        too, else None; off the base's grid, ``point`` unchanged and None."""
        base = self._base
        if point.grid != base.grid:
            return point, None
        elements = point.elements
        if point.is_temporal:
            elements = tuple(b if p == b else p for p, b in zip(point.elements, base.elements))
        point = replace(point, grid=base.grid, elements=elements)
        return point, (self if point.source == base.source else None)

    def source(self):
        """The source fields without U and V, which no correlator or analysis
        of a run reads, so that a point holds only R and S (at n = 65536, 1.5
        of 3.5 MiB) while its traces are computed."""
        with self._lock:
            if self._source is None:
                fields = evaluate_source(self._base.source, self._base.grid)
                self._source = replace(fields, U=None, V=None)
            return self._source

    def reference_width(self) -> float:
        """RMS width of the no-element baseline."""
        source = self.source()
        with self._lock:
            if self._reference_width is None:
                reference = baseline(source, self._base.configuration)
                self._reference_width = analysis.rms_width(reference).rms_width
            return self._reference_width


def _verdict_results(verdict: analysis.CancelationVerdict) -> dict:
    """The report entries of a cancelation verdict, its metric under its kind."""
    return {
        verdict.kind: verdict.metric,
        "canceled": verdict.canceled,
        "cancel_tolerance": verdict.tolerance,
    }


def execute(scenario: Scenario, shared: _SharedWithBase | None = None) -> PointOutcome:
    """Run the configured correlator and the requested analyses.

    ``shared`` supplies the source fields and the baseline width when they are
    those of a sweep's base scenario; without it the scenario computes its own.
    """
    shared = shared or _SharedWithBase(scenario)
    source = shared.source()
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
            results |= _verdict_results(
                analysis._width_ratio_verdict(report.rms_width, shared.reference_width(), config)
            )
        return PointOutcome(result=corr if scenario.outputs.write_trace else None, analyses=results)

    (freq, idx1), (_, idx2) = scenario.modulators
    m1 = build_comb(freq, idx1)
    m2 = build_comb(freq, idx2)
    if scenario.exact_grid:
        joint = g2_freq_exact(source, m1, m2, config)
        result = joint if scenario.outputs.write_comb else None
        return PointOutcome(result=result, analyses={"structure_integral": joint.ridge_energy()})

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
        results |= _verdict_results(analysis.assess_comb_cancelation(comb, config))
    return PointOutcome(result=comb if scenario.outputs.write_comb else None, analyses=results)


# Every name a run writes: the result files, with a sweep's ``point_<i>_``
# prefix, ``sweep.csv`` and ``report.json``, each also as the
# ``<name>.<random>.tmp`` that ``_atomic_write`` leaves when it is killed.
_OWN_FILE = re.compile(
    r"(?:(?:point_[0-9]+_)?(?:trace|comb|joint)\.csv|sweep\.csv|report\.json)"
    r"(?:\.[a-z0-9_]+\.tmp)?"
)


def _remove_own_files(out_dir: Path) -> None:
    """Unlink every non-directory in ``out_dir`` that ``_OWN_FILE`` names.

    The run's renames then land on free names: renaming over an existing
    file makes ext4 (``auto_da_alloc``) start writing the new file back at
    once, while an unlinked file's unwritten pages are dropped.  On a
    2-vCPU ext4 machine this cut the median wall time of the benchmark's
    ``trace_sweeps`` round, which rewrites 74 files, from 0.51 to 0.42 s.
    """
    with os.scandir(out_dir) as entries:
        stale = [
            entry.path
            for entry in entries
            if _OWN_FILE.fullmatch(entry.name) and not entry.is_dir(follow_symlinks=False)
        ]
    for path in stale:
        Path(path).unlink(missing_ok=True)


def _write_point_files(outcome: PointOutcome, out_dir: Path, prefix: str):
    result = outcome.result
    if result is None:
        return []
    if isinstance(result, Correlation1D):
        name, chunks = f"{prefix}trace.csv", _trace_csv(result)
    elif isinstance(result, JointComb):
        name, chunks = f"{prefix}comb.csv", _comb_csv(result)
    else:
        name, chunks = f"{prefix}joint.csv", _joint_csv(result)
    _atomic_write(out_dir / name, chunks)
    return [name]


def _sweep_csv(scenario: Scenario, values, outcomes):
    keys = list(sweep_columns(scenario).values())
    yield ",".join(["param"] + keys) + "\n"
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


def run_scenario(scenario: Scenario, out_dir, workers: int | None = None) -> dict:
    """Execute a scenario (sweeping if configured) and write its report.

    Returns the report dictionary; files land in ``out_dir``.  Every sweep
    point is parsed before the directory is made; a point's error names its
    ``scenario.sweep.values[i]``.  A sweep runs up to ``workers`` points at
    once (default: the CPU count), but no more than fit the memory budget
    together (``scenario.points_at_once``).

    ``report.json`` marks a finished run: an earlier run's is removed before
    anything is computed or written, every result is checked to be finite
    before the first CSV file is written, and the report is written last.
    Right after the earlier report, every other file of ``out_dir`` that
    spdcsim names (``_OWN_FILE``) is removed too, so the directory ends up
    holding the files the report lists and files spdcsim does not name.
    """
    shared = _SharedWithBase(scenario)
    points = [shared.adopt(point) for point in sweep_points(scenario)]
    sweep = scenario.sweep
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").unlink(missing_ok=True)
    _remove_own_files(out_dir)
    report: dict = {"schema_version": 1, "scenario": scenario.resolved()}

    if sweep is None:
        outcomes = [execute(scenario)]
        prefixes = [""]
        report["results"] = outcomes[0].analyses
    else:
        at_once = points_at_once(point for point, _ in points)
        max_workers = min(workers or os.cpu_count() or 1, at_once)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            pending = pool.map(execute, *zip(*points))
            # The pool now holds the only reference to each point, so a point
            # and the transfers memoised on its own elements are freed once run.
            del points
            outcomes = list(pending)
        digits = max(4, len(str(len(outcomes))))
        prefixes = [f"point_{i:0{digits}d}_" for i in range(len(outcomes))]
        report["results"] = {
            "sweep_parameter": sweep.parameter,
            "points": [
                {"value": value, **outcome.analyses}
                for value, outcome in zip(sweep.values, outcomes)
            ],
        }
    _require_finite(report, "")

    files: list = []
    for outcome, prefix in zip(outcomes, prefixes):
        files += _write_point_files(outcome, out_dir, prefix)
    if sweep is not None:
        name = "sweep.csv"
        _atomic_write(out_dir / name, _sweep_csv(scenario, sweep.values, outcomes))
        files.append(name)
    report["files"] = sorted(files) + ["report.json"]
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(out_dir / "report.json", [text, "\n"])
    return report
