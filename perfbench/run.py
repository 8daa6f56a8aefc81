#!/usr/bin/env python3
"""Benchmark of spdcsim scenario runs, measured from outside the program.

    python3 perfbench/run.py --workload trace_sweeps --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process through the public API,
``scenario.parse_scenario``/``load_scenario`` and
``runner.run_scenario(scenario, out_dir)``, in whole rounds until
``--seconds`` have passed.  The first round warms up and is left out of the
timings.  Before each round a fresh interpreter imports ``spdcsim.cli`` and
parses the workload's documents (the set-up every CLI invocation pays).
Before each operation a fixed calibration kernel, run in a child process,
measures the machine's current speed (machine.py).  After the last round the
written files are checked (checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each the median over the run's samples:

    wall_s        wall time of one round of operations, at reference speed
    cpu_s         process CPU time (all threads) of one round, at reference speed
    peak_rss_mib  peak resident memory of this process before the checks run
    setup_s       wall time of one set-up probe, at reference speed

With ``--trace 1`` rounds alternate between untraced and traced; the traced
ones wrap the program's public module attributes (tracing.py) and give the
per-layer metrics (medians over traced rounds, raw seconds), and
``trace.overhead_s`` is traced minus untraced ``wall_s``.  Spans are written
to results/<workload>-spans.json.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"
WARMUP_ROUNDS = 1
MIN_TIMED_ROUNDS = 3  # per kind: untraced, and traced when tracing
PROBE_TIMEOUT_S = 60


@dataclass
class Round:
    traced: bool
    walls: list
    cpus: list
    cal_walls: list
    cal_cpus: list
    errors: dict
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Round wall time scaled to the reference calibration speed."""
        return sum(self.walls) * machine.CALIBRATION_REF_S / statistics.mean(self.cal_walls)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpus) * machine.CALIBRATION_REF_S / statistics.mean(self.cal_cpus)


@dataclass
class Probe:
    wall: float
    bare: float
    import_s: float

    @property
    def setup_s(self) -> float:
        return self.wall * machine.SPAWN_REF_S / self.bare


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "spdcsim" / "__init__.py").is_file():
        raise SystemExit(f"spdcsim sources not found under {src}")
    sys.path.insert(0, str(src))
    import spdcsim.cli  # noqa: F401
    from spdcsim import analysis, runner, scenario

    return analysis, runner, scenario


def _probe(setup_file: Path) -> Probe:
    """One fresh interpreter doing the workload's set-up, after a bare start."""
    bare = machine.bare_spawn(PROBE_TIMEOUT_S)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(setup_file)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=PROBE_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    inner = json.loads(proc.stdout.strip().splitlines()[-1])
    return Probe(wall, bare, inner["import_s"])


def _run_op(op, out_base: Path, runner, scenario) -> None:
    if op.path is not None:
        parsed = scenario.load_scenario(op.path)
    elif op.rerun_of is not None:
        parsed = scenario.load_scenario(out_base / op.rerun_of / "report.json")
    else:
        parsed = scenario.parse_scenario(op.doc)
    runner.run_scenario(parsed, out_base / op.name)


def _run_round(ops, out_base, runner, scenario, calibrator, tracer=None) -> Round:
    result = Round(tracer is not None, [], [], [], [], {})
    for op in ops:
        cal_wall, cal_cpu = calibrator.measure()
        result.cal_walls.append(cal_wall)
        result.cal_cpus.append(cal_cpu)
        if tracer is not None:
            tracer.op = op.name
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            _run_op(op, out_base, runner, scenario)
        except Exception as exc:  # a failed operation is counted, not fatal
            result.errors[op.name] = f"{type(exc).__name__}: {exc}"
        result.walls.append(time.perf_counter() - wall0)
        result.cpus.append(time.process_time() - cpu0)
    return result


def _median_layers(rounds) -> dict:
    names = sorted(set().union(*(r.layers for r in rounds)))
    return {
        name: statistics.median_low([r.layers[name] for r in rounds if name in r.layers])
        for name in names
    }


def _output_size(out_base: Path):
    files = [p for p in out_base.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _check(ops, out_base: Path, failed: set) -> list:
    import checks  # imports scipy; kept out of the measured process state

    problems = []
    for op in ops:
        if op.name in failed:
            continue
        if op.rerun_of is not None:
            found = checks.check_rerun(out_base / op.rerun_of, out_base / op.name)
        else:
            found = checks.check_run(op.input_doc(), out_base / op.name)
        problems += [f"{op.name}: {p}" for p in found]
    return problems


def _unit(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    analysis, runner, scenario = _import_program()
    import tracing

    ops = workloads.build(args.workload, args.seed)
    out_base = OUT_DIR / args.workload
    shutil.rmtree(out_base, ignore_errors=True)
    out_base.mkdir(parents=True)
    setup_file = OUT_DIR / f"{args.workload}-setup.json"
    setup_docs = [{"path": str(op.path)} if op.path else {"doc": op.doc} for op in ops if not op.rerun_of]
    setup_file.write_text(json.dumps(setup_docs), encoding="utf-8")

    tracer = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    rounds, probes = [], []
    with machine.Calibrator(PROBE_TIMEOUT_S) as calibrator:
        while True:
            probes.append(_probe(setup_file))
            timed = len(rounds) - WARMUP_ROUNDS
            if tracer is not None and timed >= 0 and timed % 2 == 1:
                mark = len(tracer.spans)
                tracing.install_program_layers(tracer, runner, scenario, analysis)
                try:
                    result = _run_round(ops, out_base, runner, scenario, calibrator, tracer)
                finally:
                    tracer.uninstall()
                result.layers = tracing.layer_metrics(tracer, tracer.spans[mark:])
            else:
                result = _run_round(ops, out_base, runner, scenario, calibrator)
            rounds.append(result)
            timed_rounds = rounds[WARMUP_ROUNDS:]
            enough = sum(not r.traced for r in timed_rounds) >= MIN_TIMED_ROUNDS and (
                tracer is None or sum(r.traced for r in timed_rounds) >= MIN_TIMED_ROUNDS
            )
            if enough and time.perf_counter() >= deadline:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = _check(ops, out_base, set(rounds[-1].errors))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    errors = sorted({f"{name}: {err}" for r in rounds for name, err in r.errors.items()})
    for err in errors:
        print(f"operation failed: {err}", file=sys.stderr)

    timed_rounds = rounds[WARMUP_ROUNDS:]
    plain = [r for r in timed_rounds if not r.traced]
    wall_s = statistics.median(r.wall_s for r in plain)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in plain), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "setup_s": (statistics.median(p.setup_s for p in probes), "s"),
        }
    else:
        traced = [r for r in timed_rounds if r.traced]
        layers = _median_layers(traced)
        bytes_written, files_written = _output_size(out_base)
        layers["cli.import_s"] = statistics.median(p.import_s for p in probes)
        layers["runner.bytes_written"] = bytes_written
        layers["runner.files_written"] = files_written
        layers["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall_s
        layers["machine.calibration_s"] = statistics.median(
            c for r in timed_rounds for c in r.cal_walls
        )
        layers["machine.spawn_s"] = statistics.median(p.bare for p in probes)
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{args.workload}-spans.json").write_text(
            json.dumps(tracing.spans_as_records(tracer.spans)), encoding="utf-8"
        )

    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(ops),
        "failed": sum(len(r.errors) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [op.name for op in ops],
        "round_traced": [r.traced for r in rounds],
        "round_walls_s": [r.walls for r in rounds],
        "round_cpus_s": [r.cpus for r in rounds],
        "round_calibration_s": [r.cal_walls for r in rounds],
        "probe_s": [p.wall for p in probes],
        "bare_spawn_s": [p.bare for p in probes],
        "errors": errors,
        "problems": problems,
        "result": result,
    }
    (RESULTS_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name:<30} {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
