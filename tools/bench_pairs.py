#!/usr/bin/env python3
"""Compare this checkout's benchmark outputs and end-to-end metrics with a git revision's.

    python3 tools/bench_pairs.py --rev 97edcbe --pairs 10 --seed 6101 [--label pr28]

Both sides run from temporary trees of the same layout, made once: the
committed files of REV, extracted with ``git archive`` rather than as a
worktree, so that an interrupted run leaves nothing registered in the
repository; and a copy of this checkout's files as they stand, those that
``git ls-files --cached --others --exclude-standard`` lists (tracked, or
untracked and not ignored) and that still exist, so that an uncommitted
change is measured and no run writes into the checkout.  Pair i runs every
named workload (by default all) once in each tree, both with
``perfbench/run.py --trace 0 --seed S+i --seconds SECONDS``, and prints each
file that differs between the two trees' ``perfbench/out/<workload>`` and a
verdict (``<workload>-setup.json``, beside it, holds tree paths).  REV runs
first in even pairs and this checkout in odd ones, so neither side always
meets a warmer host.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``; ``--pairs 2 --seconds 1`` is the quick byte check.

For each workload, ``record`` computes its figures from the pairs and
``summary_lines`` prints them: per end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles over the pairs and in how many pairs this
checkout did better (a tie counts for neither side), then each side's
failed operations.  Then, per metric, whether the gain rule holds (this
checkout better in at least 9/10 of the pairs, and its median better than
the revision's by more than the revision's interquartile range), and
whether this checkout's median is worse than the revision's by more than
the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the revision's
median).

Usage errors exit 2 before anything runs: a repeated ``--workload``, fewer
than one pair, an empty ``--label`` or one holding ``/``, and a ``--rev`` that git cannot
resolve to a commit (git's message is repeated).  REV is resolved once, and
its SHA is what is extracted and recorded.  Exits 1 as soon as a run exits
non-zero, prints no JSON result line with ``correct`` last, or reports
``correct: false``, or after the summaries if any outputs differed, else 0.

With ``--label L``, each workload then runs once per side with ``--trace 1``
at seed S for its per-layer metrics, and after the summaries each
workload's ``record``, verdicts included, with those runs' metrics is
written to ``BENCH_<L>.json`` at the repository root, under a ``_header``
read before the first run; nothing is written if a run fails.

For an A/A control, run ``--rev HEAD`` on a checkout with no uncommitted
change: both sides then hold the same code, so what differs is noise.
Compare a paired change with that spread.  The temporary trees, with their
``perfbench/out/`` and ``perfbench/results/``, are removed afterwards.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = Path("perfbench") / "out"
SIDES = ("rev", "this")  # the keys of a record's two sides, in pair order

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (the benchmark's workload names)


def compare_trees(left: Path, right: Path) -> list:
    """Lines of ``diff -r -q`` naming each file that differs between the two
    trees or exists in one only; empty when they are identical."""
    command = ["diff", "-r", "-q", str(left), str(right)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"diff failed: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def extract(rev: str, dest: Path) -> None:
    """The files committed at ``rev``, written under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def copy_checkout(dest: Path) -> None:
    """This checkout's tracked files and its untracked files that are not
    ignored, as they stand in the working tree, copied under ``dest``; a
    listed path that no longer exists is skipped."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in dict.fromkeys(listed.split("\0")):
        source = ROOT / name
        if name and source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one run of ``workload`` in ``tree``; raises
    ``RuntimeError`` if it exits non-zero, if its last line of output is not a
    JSON object with ``correct``, or if that reports ``correct: false``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (isinstance(result, dict) and "correct" in result):
        raise RuntimeError(f"{workload} in {tree} printed no result line:\n{proc.stderr}")
    if not result["correct"]:
        raise RuntimeError(f"{workload} in {tree} reports correct: false:\n{proc.stderr}")
    return result


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` of ``values`` by the inclusive method; all three
    are the value itself for a single sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def record(pairs: list, metrics: list, differing: int, traced=None) -> dict:
    """One workload's figures, and its entry in ``BENCH_<label>.json``, from its
    ``(rev result, this result)`` pairs, the number of seeds whose outputs
    differed and the two sides' ``--trace 1`` result lines, if any.  Per
    metric of ``metrics``, each side's values with their median and quartiles,
    this checkout's wins and the two verdicts the module docstring defines;
    each side's operations; and, with traced runs, each side's per-layer
    metrics."""
    end_to_end = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        values = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        wins = sum(sign * (old - new) > 0 for old, new in zip(*values))
        figures = end_to_end[name] = {"unit": metric["unit"], "this_wins": wins}
        for side, side_values in zip(SIDES, values):
            q1, median, q3 = quartiles(side_values)
            figures[side] = {"median": median, "q1": q1, "q3": q3, "values": side_values}
        base, iqr = figures["rev"]["median"], figures["rev"]["q3"] - figures["rev"]["q1"]
        # ``or 0.0``: a tie is +0, not the -0 that a negation leaves.
        gap = sign * (base - figures["this"]["median"]) or 0.0
        worse = (-gap / abs(base) if base else (math.inf if gap < 0 else 0.0)) or 0.0
        figures |= {"gain_rule_holds": 10 * wins >= 9 * len(pairs) and gap > iqr,
                    "median_gap": gap, "rev_iqr": iqr,
                    "this_worse_by": worse, "bound": bound, "beyond_bound": worse > bound}
    operations = [
        {key: sum(result[key] for result in side) for key in ("failed", "attempted")}
        for side in zip(*pairs)
    ]
    entry = {
        "end_to_end": end_to_end,
        "operations": dict(zip(SIDES, operations)),
        "differing_seeds": differing,
    }
    if traced:
        entry["per_layer"] = {
            side: {name: layer["value"] for name, layer in result["metrics"].items()}
            for side, result in zip(SIDES, traced)
        }
    return entry


def _spread(side: dict) -> str:
    median, q1, q3 = side["median"], side["q1"], side["q3"]
    return f"{median:.4g}" if len(side["values"]) == 1 else f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summary_lines(entry: dict, rev: str) -> list:
    """The lines printed for one workload's ``record`` entry: per metric, each
    side's median [q1, q3] and this checkout's wins; each side's failed
    operations; then per metric the gain-rule and bound verdicts."""
    metrics = entry["end_to_end"]
    lines = [
        f"  {name:<13} {rev}: {_spread(m['rev'])}  this: {_spread(m['this'])}  "
        f"this better in {m['this_wins']}/{len(m['rev']['values'])} {m['unit']}"
        for name, m in metrics.items()
    ]
    failed = [f"{ops['failed']}/{ops['attempted']}" for ops in entry["operations"].values()]
    lines.append(f"  failed ops    {rev}: {failed[0]}  this: {failed[1]}")
    lines += [
        f"  {name:<13} gain rule {'holds' if m['gain_rule_holds'] else 'fails'} "
        f"({m['this_wins']}/{len(m['rev']['values'])} better, median gap {m['median_gap']:.4g} "
        f"against IQR {m['rev_iqr']:.4g})  {'BEYOND' if m['beyond_bound'] else 'within'} "
        f"bound {m['bound']:g} (this worse by {m['this_worse_by']:+.2%})"
        for name, m in metrics.items()
    ]
    return lines


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _header(args, rev_sha: str) -> dict:
    """What a record says of its run, read before the first run: the
    arguments, both sides' commits and whether this checkout's ``src/`` or
    ``perfbench/`` has uncommitted changes, and the host."""
    dirty = _git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")
    return {
        "label": args.label,
        "rev": {"name": args.rev, "sha": rev_sha},
        "this": {"sha": _git("rev-parse", "HEAD"), "dirty": bool(dirty)},
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--label", help="also write BENCH_<LABEL>.json at the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if len(set(args.workload)) < len(args.workload):
        parser.error(f"--workload names a workload more than once: {' '.join(args.workload)}")
    if args.label is not None and (not args.label or "/" in args.label):
        parser.error(f"--label must be non-empty and hold no '/', got {args.label!r}")
    try:
        rev_sha = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        parser.error(f"--rev {args.rev!r} is not a commit: {exc.stderr.strip()}")
    header = _header(args, rev_sha)
    pairs = {workload: [] for workload in args.workload}
    differing = dict.fromkeys(args.workload, 0)
    traced = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        other, this = Path(tmp) / "rev", Path(tmp) / "new"
        other.mkdir()
        this.mkdir()
        extract(rev_sha, other)
        copy_checkout(this)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for workload in args.workload:
                    sides = (other, this) if i % 2 == 0 else (this, other)
                    results = {tree: run(tree, workload, seed, args.seconds) for tree in sides}
                    pairs[workload].append((results[other], results[this]))
                    differences = compare_trees(other / OUT / workload, this / OUT / workload)
                    for line in differences:
                        print(line)
                    verdict = f"{len(differences)} difference(s)" if differences else "identical"
                    print(f"{OUT / workload} at seed {seed} against {args.rev}: {verdict}")
                    differing[workload] += bool(differences)
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
            for workload in args.workload if args.label else ():
                traced[workload] = tuple(
                    run(tree, workload, args.seed, args.seconds, trace=1) for tree in (other, this)
                )
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    entries = {}
    for workload in args.workload:
        entries[workload] = entry = record(
            pairs[workload], BENCHMARK["end_to_end"], differing[workload], traced.get(workload)
        )
        print("\n".join([workload, *summary_lines(entry, args.rev)]))
    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        bench = header | {"workloads": entries}
        path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 1 if any(differing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
