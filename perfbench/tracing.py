"""Spans around the program's public module attributes, kept in memory.

The tracer replaces attributes such as ``runner.execute`` with wrappers that
record (layer, start, end, thread, parent span, operation) and restores them
afterwards, so untraced rounds run the program's own functions.  An attribute
that a later version of the program no longer has is skipped, and the
metrics built from it are left out rather than reported as zero.
"""

import functools
import inspect
import threading
import time
import tracemalloc
from dataclasses import dataclass

MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    layer: str
    op: str | None
    thread: int
    start: float
    end: float
    peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self):
        self.spans: list = []
        self.op: str | None = None  # operation in flight, shared by its spans
        self.installed: set = set()  # layers that have at least one wrapper
        self._saved: list = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def install(self, module, attr: str, layer: str, peak_memory: bool = False) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(original, layer, peak_memory))
        self.installed.add(layer)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer: str, peak_memory: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
                owns_tracemalloc = peak_memory and not tracemalloc.is_tracing()
                if owns_tracemalloc:
                    tracemalloc.start()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak = None
                if owns_tracemalloc:
                    with self._lock:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                self.spans.append(
                    Span(span_id, parent, layer, self.op, threading.get_ident(), start, end, peak)
                )

        return wrapper


def install_program_layers(tracer: Tracer, runner, scenario, analysis) -> None:
    """Wrap the runner's collaborators, the parser and every analysis function."""
    for attr, layer in (
        ("run_scenario", "runner.run"),
        ("execute", "runner.execute"),
        ("parse_scenario", "scenario.parse"),
        ("evaluate_source", "source.evaluate"),
        ("baseline", "correlators.baseline"),
        ("g2_inter_time", "correlators.temporal"),
        ("g2_intra_time", "correlators.temporal"),
        ("g2_inter_freq_narrowband", "correlators.narrowband"),
        ("g2_intra_freq_narrowband", "correlators.narrowband"),
        ("build_comb", "elements.build_comb"),
    ):
        tracer.install(runner, attr, layer)
    tracer.install(runner, "g2_freq_exact", "correlators.exact", peak_memory=True)
    # The benchmark's own parse and load calls go through the scenario module.
    tracer.install(scenario, "parse_scenario", "scenario.parse")
    for name, fn in inspect.getmembers(analysis, inspect.isfunction):
        if not name.startswith("_") and fn.__module__ == analysis.__name__:
            tracer.install(analysis, name, f"analysis.{name}")


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(tracer: Tracer, spans: list) -> dict:
    """Per-layer busy time, call counts and runner self time of one round."""
    by_layer: dict = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
    metrics: dict = {}

    def busy(layer: str, name: str, with_calls: bool = True) -> None:
        if layer not in tracer.installed:
            return
        group = by_layer.get(layer, [])
        metrics[f"{name}_s"] = sum(s.duration for s in group)
        if with_calls:
            metrics[f"{name}_calls"] = len(group)

    busy("scenario.parse", "scenario.parse")
    busy("source.evaluate", "source.evaluate")
    busy("correlators.baseline", "correlators.baseline")
    busy("correlators.temporal", "correlators.temporal")
    busy("correlators.narrowband", "correlators.narrowband")
    busy("correlators.exact", "correlators.exact")
    busy("elements.build_comb", "elements.build_comb")
    busy("analysis.rms_width", "analysis.width")
    if "correlators.exact" in tracer.installed:
        peaks = [s.peak_bytes for s in by_layer.get("correlators.exact", []) if s.peak_bytes]
        metrics["correlators.exact_peak_mib"] = max(peaks, default=0) / MIB

    analysis_ids = {s.span_id for s in spans if s.layer.startswith("analysis.")}
    metrics["analysis.total_s"] = sum(
        s.duration for s in spans if s.span_id in analysis_ids and s.parent not in analysis_ids
    )

    if "runner.execute" in tracer.installed and "runner.run" in tracer.installed:
        executes = by_layer.get("runner.execute", [])
        runs = by_layer.get("runner.run", [])
        covered = 0.0
        for run in runs:
            covered += _union_length(
                (max(e.start, run.start), min(e.end, run.end))
                for e in executes
                if e.op == run.op and e.end > run.start and e.start < run.end
            )
        metrics["runner.execute_busy_s"] = sum(e.duration for e in executes)
        metrics["runner.execute_wall_s"] = covered
        metrics["runner.self_s"] = sum(r.duration for r in runs) - covered
    return metrics


def spans_as_records(spans: list) -> list:
    return [
        {
            "id": s.span_id,
            "parent": s.parent,
            "layer": s.layer,
            "op": s.op,
            "thread": s.thread,
            "start": s.start,
            "end": s.end,
            **({"peak_bytes": s.peak_bytes} if s.peak_bytes is not None else {}),
        }
        for s in spans
    ]
