#!/usr/bin/env python3
"""Compare this checkout's end-to-end benchmark metrics with a git revision's.

    python3 tools/bench_pairs.py --rev 97edcbe --workload analysis_sweeps --pairs 10 --seed 6101

Extracts the committed files of REV into a temporary directory once
(``diff_outputs.extract``).  Pair i runs every named workload once in that
tree and once in this checkout, both with ``perfbench/run.py --trace 0
--seed S+i --seconds SECONDS``; REV runs first in even pairs and this
checkout in odd ones, so neither side always meets a warmer machine.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

For each workload and each end-to-end metric of ``BENCHMARK.json``, prints
each side's median and quartiles over the pairs and in how many pairs this
checkout did better (a tie counts for neither side), then each side's
failed operations.  Then, per metric, whether the gain rule holds (this
checkout better in at least 9/10 of the pairs, and its median better than
the revision's by more than the revision's interquartile range), and
whether this checkout's median is worse than the revision's by more than
the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the revision's
median).  Exits 1 as soon as a run exits non-zero or reports
``correct: false``, else 0.

For an A/A control, run ``--rev HEAD`` from a copy of the checkout with no
uncommitted change: both sides then hold the same code, so what differs is
noise and the bias between an extracted tree and the checkout (a few tenths
of a MiB of ``peak_rss_mib``).  Compare a paired change with that spread.

This checkout's runs overwrite its ``perfbench/out/`` and
``perfbench/results/<workload>-trace0.json``; keep a longer benchmark result
elsewhere before running it.  The temporary tree is removed afterwards.
"""

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))
from diff_outputs import extract, run_benchmark  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (the benchmark's workload names)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run of ``workload`` in ``tree``."""
    proc = run_benchmark(tree, workload, seed, seconds)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} in {tree} reports correct: false:\n{proc.stderr}")
    return result


def _spread(values: list) -> str:
    if len(values) == 1:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def _sides(pairs: list, metric: dict):
    """The revision's and this checkout's values of ``metric`` over the pairs,
    and this checkout's wins (a tie counts for neither side)."""
    name = metric["name"]
    before = [old["metrics"][name]["value"] for old, _ in pairs]
    after = [new["metrics"][name]["value"] for _, new in pairs]
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (old - new) > 0 for old, new in zip(before, after))
    return before, after, wins


def summarize(pairs: list, metrics: list, rev: str) -> list:
    """Summary lines of one workload's ``(rev result, this result)`` pairs:
    per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``), each
    side's median [q1, q3] and this checkout's wins, then the failed
    operations of each side."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        before, after, wins = _sides(pairs, metric)
        lines.append(
            f"  {name:<13} {rev}: {_spread(before)}  this: {_spread(after)}  "
            f"this better in {wins}/{len(pairs)} {metric['unit']}"
        )
    failed = [
        f"{sum(r['failed'] for r in side)}/{sum(r['attempted'] for r in side)}"
        for side in zip(*pairs)
    ]
    lines.append(f"  failed ops    {rev}: {failed[0]}  this: {failed[1]}")
    return lines


def judge(pairs: list, metrics: list) -> list:
    """Per metric of ``metrics``, a line with two verdicts on one workload's
    pairs.  The gain rule holds when this checkout is better in at least
    9/10 of the pairs and its median better than the revision's by more
    than the revision's interquartile range.  The bound is exceeded when
    this checkout's median is worse than the revision's by more than the
    metric's ``bound``, a fraction of the revision's median."""
    lines = []
    for metric in metrics:
        before, after, wins = _sides(pairs, metric)
        q1, base, q3 = (
            statistics.quantiles(before, n=4, method="inclusive") if len(before) > 1 else before * 3
        )
        sign = 1 if metric["better"] == "lower" else -1
        gap = sign * (base - statistics.median(after))
        holds = 10 * wins >= 9 * len(pairs) and gap > q3 - q1
        worse = -gap / abs(base) if base else (math.inf if gap < 0 else 0.0)
        beyond = worse > metric["bound"]
        lines.append(
            f"  {metric['name']:<13} gain rule {'holds' if holds else 'fails'} "
            f"({wins}/{len(pairs)} better, median gap {gap:.4g} against IQR {q3 - q1:.4g})  "
            f"{'BEYOND' if beyond else 'within'} bound {metric['bound']:g} "
            f"(this worse by {worse:+.2%})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    pairs = {workload: [] for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        other = Path(tmp)
        extract(args.rev, other)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for workload in args.workload:
                    sides = (other, ROOT) if i % 2 == 0 else (ROOT, other)
                    results = {tree: run(tree, workload, seed, args.seconds) for tree in sides}
                    pairs[workload].append((results[other], results[ROOT]))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    for workload, workload_pairs in pairs.items():
        print(workload)
        for line in summarize(workload_pairs, BENCHMARK["end_to_end"], args.rev):
            print(line)
        for line in judge(workload_pairs, BENCHMARK["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
