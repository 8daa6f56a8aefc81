#!/usr/bin/env python3
"""Compare the benchmark's output files of this checkout with a git revision's.

    python3 tools/diff_outputs.py --rev a5bec99 --seed 1401 1402

Extracts the committed files of REV into a temporary directory once.  For
each seed N in turn, runs every workload once in that tree and in this
checkout (``perfbench/run.py --seconds 1 --trace 0 --seed N``) and compares
the two ``perfbench/out/`` trees with ``diff -r``, leaving out the
``*-setup.json`` files, which hold paths inside their own tree.  Prints every
file that differs or exists on one side only, and a verdict per seed; exits
1 if any seed differs, else 0.  The temporary tree is removed afterwards.

This checkout's workloads run in place, so the run overwrites this
checkout's ``perfbench/out/`` and ``perfbench/results/<workload>-trace0.json``;
keep a longer benchmark result elsewhere before running it.

REV is extracted with ``git archive`` rather than checked out as a worktree,
so an interrupted run leaves nothing registered in the repository.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"
IGNORED = "*-setup.json"

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (the benchmark's workload names)


def compare_trees(left: Path, right: Path) -> list:
    """Lines of ``diff -r -q`` naming each file that differs between the two
    trees or exists in one only; empty when they are identical."""
    proc = subprocess.run(
        ["diff", "-r", "-q", "-x", IGNORED, str(left), str(right)],
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"diff failed: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    """The finished ``perfbench/run.py`` process of one run of ``workload`` in
    ``tree``, with its captured output; raises ``RuntimeError`` if it exits
    non-zero."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed in {tree}:\n{proc.stderr}")
    return proc


def run_workloads(tree: Path, seed: int) -> None:
    """One short run of every workload in ``tree``, writing ``tree/perfbench/out``."""
    for workload in WORKLOADS:
        run_benchmark(tree, workload, seed, 1)


def extract(rev: str, dest: Path) -> None:
    """The files committed at ``rev``, written under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, nargs="+", required=True, help="workload seeds")
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="diff_outputs-") as tmp:
        other = Path(tmp)
        extract(args.rev, other)
        for seed in args.seed:
            run_workloads(other, seed)
            run_workloads(ROOT, seed)
            differences = compare_trees(other / OUT, ROOT / OUT)
            for line in differences:
                print(line)
            verdict = f"{len(differences)} difference(s)" if differences else "identical"
            print(f"perfbench/out at seed {seed} against {args.rev}: {verdict}")
            differing += bool(differences)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
