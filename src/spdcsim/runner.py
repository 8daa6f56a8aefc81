"""Scenario execution: the configured correlator and analyses of each run
or sweep point, and the order of a run; ``outputs.write_run`` builds its
report and writes its files.

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
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

from . import analysis, outputs
from .correlators import (
    INTER_FREQ,
    INTER_TIME,
    baseline,
    g2_freq_exact,
    g2_inter_freq_narrowband,
    g2_inter_time,
    g2_intra_freq_narrowband,
    g2_intra_time,
)
from .elements import build_comb
from .scenario import Scenario, points_at_once, sweep_points
from .source import evaluate_source


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
            verdict = analysis.assess_time_cancelation(report.rms_width, shared.reference_width())
            results |= _verdict_results(verdict)
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
        results |= _verdict_results(analysis.assess_comb_cancelation(comb))
    return PointOutcome(result=comb if scenario.outputs.write_comb else None, analyses=results)


def check_workers(workers) -> None:
    """Refuse a worker count other than ``None`` (the CPU count) or an
    integer (numpy's included) of at least 1; a bool is not a count."""
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, Integral) or workers < 1
    ):
        raise ValueError(f"workers must be None or an integer of at least 1, got {workers!r}")


def run_scenario(scenario: Scenario, out_dir, workers: int | None = None) -> dict:
    """Execute a scenario (sweeping if configured) and write its report.

    Returns the report that ``outputs.write_run`` builds; files land in
    ``out_dir``.  Every sweep point is parsed before the directory is made;
    a point's error names its ``scenario.sweep.values[i]``.  A sweep runs up
    to ``workers`` points at once (default: the CPU count), but no more than
    fit the memory budget together (``scenario.points_at_once``).  A
    ``workers`` that ``check_workers`` refuses raises ``ValueError`` before
    ``out_dir`` is touched, for a single run too.

    ``report.json`` marks a finished run: ``outputs.claim`` locks
    ``out_dir`` until the run returns or fails (a second run into it fails
    with ``OutputDirectoryInUse``, exit 4) and removes an earlier run's
    report and own files before anything is computed, and
    ``outputs.write_run`` writes the report last.
    """
    check_workers(workers)
    shared = _SharedWithBase(scenario)
    points = [shared.adopt(point) for point in sweep_points(scenario)]
    out_dir = Path(out_dir)
    with outputs.claim(out_dir):
        if scenario.sweep is None:
            outcomes = [execute(scenario)]
        else:
            at_once = points_at_once(point for point, _ in points)
            max_workers = min(workers or os.cpu_count() or 1, at_once)
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                pending = pool.map(execute, *zip(*points))
                # The pool now holds the only reference to each point, so a
                # point and the transfers memoised on its own elements are
                # freed once run.
                del points
                outcomes = list(pending)
        return outputs.write_run(out_dir, scenario, outcomes)
