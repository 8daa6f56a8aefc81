"""Every file a run writes: point files (``POINT_FILES``), ``sweep.csv``, ``report.json``.

Outputs are deterministic: floats are printed with 17 significant digits,
files are written atomically (temp file + rename), ``write_run`` builds the
whole report (its frame at ``REPORT_SCHEMA_VERSION``) around the fully
resolved scenario, and sweep rows are ordered by sweep index no matter which
worker finishes first.

A run owns the names it writes in its output directory, and holds it alone:
``claim`` locks the directory for the run.  Before it computes
anything, ``claim`` removes an earlier ``report.json``, then every other file
under one of its own names (``_OWN_FILE``: the names of ``POINT_FILES``,
their ``point_<i>_`` forms, ``sweep.csv`` and the temp files of a killed
write).  So every rename lands on a free name, and the directory ends up
holding what the report lists beside files spdcsim does not name.

The CSV writers format whole columns at once: a row template repeated over
the rows is filled by a single %-operation (``_format_rows``), and
``"%.17g" % x`` runs the same C routine as ``format(x, ".17g")``, so the text
is that of formatting each value on its own.  ``trace_csv`` builds no row
template: its rows are ``"<tau>,"`` delay cells, cached per bit pattern of
the delay axis that a sweep's points share, joined with ``"<g2>,<bg>\\n"``
row ends.  Each distinct bit pattern of the G2 column gets one row end,
placed through the inverse index of ``np.unique``; most of a trace equals
its background bit for bit.  Writers yield text in chunks that
``_atomic_write`` streams to disk.
"""

import fcntl
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .correlators import Correlation1D, JointComb, JointGrid
from .errors import NonFiniteResult, OutputDirectoryInUse
from .scenario import sweep_columns

REPORT_SCHEMA_VERSION = 1  # of the report's frame; the input's is scenario.SCHEMA_VERSION
JOINT_CHUNK_ROWS = 8192
TRACE_CHUNK_ROWS = 1024


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
def delay_cells(raw: bytes) -> np.ndarray:
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


def trace_csv(corr: Correlation1D):
    yield "tau_ps,g2,background\n"
    cells = delay_cells(np.asarray(corr.tau_grid, dtype=np.float64).tobytes())
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
    for start in range(0, distinct.size, TRACE_CHUNK_ROWS):
        stop = start + TRACE_CHUNK_ROWS
        ends[start:stop] = _format_rows(end, distinct[start:stop]).splitlines(True)
    del bits, distinct
    row = np.empty(2 * TRACE_CHUNK_ROWS, dtype=object)
    for start in range(0, values.size, TRACE_CHUNK_ROWS):
        stop = min(start + TRACE_CHUNK_ROWS, values.size)
        chunk = row[: 2 * (stop - start)]
        chunk[0::2] = cells[start:stop]
        chunk[1::2] = ends[inverse[start:stop]]
        yield "".join(chunk.tolist())


def comb_csv(comb: JointComb):
    yield "n,coefficient,ridge,envelope_axis_radps,envelope_value\n"
    # The envelope columns are the same for every comb line: format them once
    # and prefix each row with the line's n, coefficient and ridge.
    envelope = _format_rows("%.17g,%.17g\n", comb.envelope_axis, comb.envelope)[:-1]
    for order, coeff in zip(comb.orders.tolist(), comb.coefficients.tolist()):
        prefix = "%d,%.17g,%.17g," % (order, coeff, order * comb.mod_freq)
        yield prefix + envelope.replace("\n", "\n" + prefix) + "\n"


def joint_csv(joint: JointGrid):
    yield "omega1_radps,omega2_radps,structure,background\n"
    omegas = np.array(["%.17g" % x for x in joint.grid.omegas.tolist()], dtype=object)
    rows, cols, structure = joint.cells()
    for start in range(0, rows.size, JOINT_CHUNK_ROWS):
        i = rows[start : start + JOINT_CHUNK_ROWS]
        j = cols[start : start + JOINT_CHUNK_ROWS]
        yield _format_rows(
            "%s,%s,%.17g,%.17g\n",
            omegas[i],
            omegas[j],
            structure[start : start + JOINT_CHUNK_ROWS],
            joint.background_factor_1[i] * joint.background_factor_2[j],
        )


def sweep_csv(scenario, outcomes):
    keys = list(sweep_columns(scenario).values())
    yield ",".join(["param"] + keys) + "\n"
    columns = [[outcome.analyses[key] for outcome in outcomes] for key in keys]
    yield _format_rows(",".join(["%.17g"] * (1 + len(keys))) + "\n", scenario.sweep.values, *columns)


# The one table of output kinds: a result's exact type -> (point file, writer).
POINT_FILES = {
    Correlation1D: ("trace.csv", trace_csv),
    JointComb: ("comb.csv", comb_csv),
    JointGrid: ("joint.csv", joint_csv),
}

# Every name a run writes: the point files, with a sweep's ``point_<i>_``
# prefix, ``sweep.csv`` and ``report.json``, each also as the
# ``<name>.<random>.tmp`` that ``_atomic_write`` leaves when it is killed.
_OWN_FILE = re.compile(
    r"(?:(?:point_[0-9]+_)?(?:%s)|sweep\.csv|report\.json)(?:\.[a-z0-9_]+\.tmp)?"
    % "|".join(re.escape(name) for name, _ in POINT_FILES.values())
)


@contextmanager
def claim(out_dir: Path):
    """Make ``out_dir``, lock it for this run, and remove an earlier run's
    ``report.json`` from it, then every other non-directory that
    ``_OWN_FILE`` names; the lock is held until the ``with`` block ends.

    The lock is ``flock(LOCK_EX | LOCK_NB)`` on a descriptor of the
    directory itself, so it leaves no file behind.  It is taken before
    anything is removed: a second run into a locked directory, in this
    process or another, fails with ``OutputDirectoryInUse`` and deletes
    nothing.  Closing the descriptor releases it, also when the run fails.

    The run's renames then land on free names: renaming over an existing
    file makes ext4 (``auto_da_alloc``) start writing the new file back at
    once, while an unlinked file's unwritten pages are dropped.  On a
    2-vCPU ext4 machine this cut the median wall time of the benchmark's
    ``trace_sweeps`` round, which rewrites 74 files, from 0.51 to 0.42 s.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OutputDirectoryInUse(f"output directory in use: {out_dir}") from None
        (out_dir / "report.json").unlink(missing_ok=True)
        with os.scandir(out_dir) as entries:
            stale = [
                entry.path
                for entry in entries
                if _OWN_FILE.fullmatch(entry.name) and not entry.is_dir(follow_symlinks=False)
            ]
        for path in stale:
            Path(path).unlink(missing_ok=True)
        yield
    finally:
        os.close(fd)


def write_point_files(outcome, out_dir: Path, prefix: str) -> list:
    """Write the point file of ``outcome.result``, if any; returns its names."""
    if outcome.result is None:
        return []
    name, writer = POINT_FILES[type(outcome.result)]
    _atomic_write(out_dir / (prefix + name), writer(outcome.result))
    return [prefix + name]


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


def write_run(out_dir: Path, scenario, outcomes) -> dict:
    """Write a claimed run's files and report into ``out_dir``; return the report.

    ``outcomes`` holds one outcome per point, in the order of the sweep's values.
    Every result is checked to be finite before the first point file is
    written, and ``report.json``, which marks a finished run, is written last.
    """
    sweep = scenario.sweep
    report = {"schema_version": REPORT_SCHEMA_VERSION, "scenario": scenario.resolved()}
    if sweep is None:
        report["results"] = outcomes[0].analyses
        prefixes = [""]
    else:
        points = [{"value": value, **o.analyses} for value, o in zip(sweep.values, outcomes)]
        report["results"] = {"sweep_parameter": sweep.parameter, "points": points}
        digits = max(4, len(str(len(outcomes))))
        prefixes = [f"point_{i:0{digits}d}_" for i in range(len(outcomes))]
    _require_finite(report, "")
    files: list = []
    for outcome, prefix in zip(outcomes, prefixes):
        files += write_point_files(outcome, out_dir, prefix)
    if sweep is not None:
        _atomic_write(out_dir / "sweep.csv", sweep_csv(scenario, outcomes))
        files.append("sweep.csv")
    report["files"] = sorted(files) + ["report.json"]
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(out_dir / "report.json", [text, "\n"])
    return report
