#!/usr/bin/env python3
"""Record the benchmark's three workloads as ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label pr9 --seed 1 --seconds 30

Runs ``perfbench/run.py`` on every workload twice, with ``--trace 0`` and
``--trace 1``, and writes ``BENCH_<label>.json`` at the repository root with,
per workload:

    end_to_end  wall_s and setup_s: median, quartiles and sample count of the
                reference-speed samples in perfbench/results/<w>-trace0.json
                (timed rounds, set-up probes); cpu_s and peak_rss_mib: the
                run's own value (the results file keeps no calibration CPU
                times, and peak memory is one number per run)
    per_layer   the traced run's per-layer metrics
    runs        attempted and failed operations and the checks' verdict

plus the git revision of the measured tree and the machine's CPU count,
Python and numpy versions.  A performance change commits one file for its
parent and one for itself and quotes both.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULTS_DIR = BENCH_DIR / "results"
WARMUP_ROUNDS = 1  # perfbench/run.py leaves its first round out of the timings

sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(BENCH_DIR))
import machine  # noqa: E402  (reference speeds of perfbench/run.py)
from bench_pairs import quartiles, run_benchmark  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (the benchmark's workload names)


def _spread(samples: list, unit: str) -> dict:
    q1, median, q3 = quartiles(samples)
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples), "unit": unit}


def end_to_end(detail: dict) -> dict:
    """End-to-end metrics of one ``--trace 0`` results file."""
    walls = [
        sum(walls) * machine.CALIBRATION_REF_S / statistics.mean(cals)
        for walls, cals in zip(
            detail["round_walls_s"][WARMUP_ROUNDS:], detail["round_calibration_s"][WARMUP_ROUNDS:]
        )
    ]
    setups = [
        wall * machine.SPAWN_REF_S / bare
        for wall, bare in zip(detail["probe_s"], detail["bare_spawn_s"])
    ]
    reported = {name: entry["value"] for name, entry in detail["result"]["metrics"].items()}
    metrics = {
        "wall_s": _spread(walls, "s"),
        "cpu_s": {"median": reported["cpu_s"], "unit": "s"},
        "peak_rss_mib": {"value": reported["peak_rss_mib"], "unit": "MiB"},
        "setup_s": _spread(setups, "s"),
    }
    for name in ("wall_s", "setup_s"):
        if not math.isclose(metrics[name]["median"], reported[name], rel_tol=1e-12):
            raise RuntimeError(f"{name} samples do not give the run's median {reported[name]}")
    return metrics


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_benchmark(ROOT, workload, seed, seconds, trace)
    return json.loads((RESULTS_DIR / f"{workload}-trace{trace}.json").read_text(encoding="utf-8"))


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def record(label: str, seed: int, seconds: float) -> dict:
    workloads = {}
    for workload in WORKLOADS:
        plain = _run(workload, seed, seconds, 0)
        traced = _run(workload, seed, seconds, 1)
        workloads[workload] = {
            "end_to_end": end_to_end(plain),
            "per_layer": {
                name: entry["value"] for name, entry in traced["result"]["metrics"].items()
            },
            "runs": {
                f"trace{run['trace']}": {
                    key: run["result"][key] for key in ("attempted", "failed", "correct")
                }
                for run in (plain, traced)
            },
        }
    return {
        "label": label,
        "revision": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")),
        "seed": seed,
        "seconds": seconds,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bench = record(args.label, args.seed, args.seconds)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
