"""``tools/bench_pairs.py`` compares output trees, and summarises and records paired result lines.

Canned result lines and synthetic trees only: nothing here runs the benchmark.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from script_module import load_script

bench_pairs = load_script("bench_pairs", "tools/bench_pairs.py")

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "rate", "unit": "op/s", "better": "higher", "bound": 0.1},
]


def _line(wall, rate, failed=0, attempted=5):
    """One result line as ``perfbench/run.py`` prints it last."""
    return json.loads(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    "wall_s": {"value": wall, "unit": "s"},
                    "rate": {"value": rate, "unit": "op/s"},
                },
            }
        )
    )


def _summary(pairs, metrics, rev="r"):
    """The printed lines of one workload's pairs: spreads, failed operations, verdicts."""
    return bench_pairs.summary_lines(bench_pairs.record(pairs, metrics, 0), rev)


def _verdicts(pairs, metrics):
    return _summary(pairs, metrics)[len(metrics) + 1 :]


def test_summary_counts_wins_in_each_direction_and_ties_for_neither():
    pairs = [
        (_line(1.0, 10.0), _line(0.9, 11.0)),  # this better in both
        (_line(1.0, 10.0), _line(1.0, 10.0)),  # a tie in both
        (_line(1.2, 12.0), _line(1.3, 11.0, failed=1)),  # the revision better in both
        (_line(1.1, 9.0), _line(1.0, 9.5)),  # this better in both
        (_line(0.8, 8.0), _line(0.7, 9.0)),  # this better in both
    ]
    assert _summary(pairs, METRICS, "abc123")[:3] == [
        "  wall_s        abc123: 1 [1, 1.1]  this: 1 [0.9, 1]  this better in 3/5 s",
        "  rate          abc123: 10 [9, 10]  this: 10 [9.5, 11]  this better in 3/5 op/s",
        "  failed ops    abc123: 0/25  this: 1/25",
    ]


def test_summary_of_one_pair_prints_its_values():
    assert _summary([(_line(2.0, 5.0), _line(2.0, 5.0))], METRICS, "r") == [
        "  wall_s        r: 2  this: 2  this better in 0/1 s",
        "  rate          r: 5  this: 5  this better in 0/1 op/s",
        "  failed ops    r: 0/5  this: 0/5",
        # A tie is +0 in either direction, never -0.
        "  wall_s        gain rule fails (0/1 better, median gap 0 against IQR 0)  "
        "within bound 0.24 (this worse by +0.00%)",
        "  rate          gain rule fails (0/1 better, median gap 0 against IQR 0)  "
        "within bound 0.1 (this worse by +0.00%)",
    ]


def test_default_run_seconds_and_metrics_come_from_the_benchmark():
    assert bench_pairs.BENCHMARK["run_seconds"] > 0
    names = [metric["name"] for metric in bench_pairs.BENCHMARK["end_to_end"]]
    assert "wall_s" in names and "peak_rss_mib" in names


def _pairs(befores, afters):
    return [(_line(b, 1.0), _line(a, 1.0)) for b, a in zip(befores, afters)]


def test_gain_rule_holds_with_nine_wins_and_a_gap_beyond_the_spread():
    befores = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]
    afters = [0.80] * 9 + [1.05]  # the last pair lost
    assert _verdicts(_pairs(befores, afters), METRICS[:1]) == [
        "  wall_s        gain rule holds (9/10 better, median gap 0.2 against IQR 0.015)  "
        "within bound 0.24 (this worse by -20.00%)"
    ]


def test_gain_rule_fails_on_eight_wins_or_a_gap_inside_the_spread():
    befores = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    eight = _verdicts(_pairs(befores, [0.5] * 8 + [2.0, 2.0]), METRICS[:1])
    assert eight[0].startswith("  wall_s        gain rule fails (8/10 better, median gap 0.5 ")
    # Ten wins, but the medians differ by 0.1 and the quartiles by 0.15.
    narrow = _verdicts(_pairs(befores, [b - 0.1 for b in befores]), METRICS[:1])
    assert narrow[0].startswith("  wall_s        gain rule fails (10/10 better, median gap 0.1 ")
    assert "against IQR 0.15)" in narrow[0]


def test_bound_is_a_fraction_of_the_revision_median_in_the_worse_direction():
    # wall_s: lower is better, bound 0.24; rate: higher is better, bound 0.1.
    within = [(_line(1.0, 10.0), _line(1.2, 9.5))] * 3
    beyond = [(_line(1.0, 10.0), _line(1.25, 8.5))] * 3
    assert [line.split("  ")[-1] for line in _verdicts(within, METRICS)] == [
        "within bound 0.24 (this worse by +20.00%)",
        "within bound 0.1 (this worse by +5.00%)",
    ]
    assert [line.split("  ")[-1] for line in _verdicts(beyond, METRICS)] == [
        "BEYOND bound 0.24 (this worse by +25.00%)",
        "BEYOND bound 0.1 (this worse by +15.00%)",
    ]


def test_one_pair_has_no_spread():
    lines = _verdicts([(_line(2.0, 5.0), _line(1.0, 6.0))], METRICS)
    assert lines[0].startswith("  wall_s        gain rule holds (1/1 better, median gap 1 against IQR 0)")
    assert lines[1].startswith("  rate          gain rule holds (1/1 better, median gap 1 against IQR 0)")


def test_quartiles_are_inclusive_and_a_single_sample_is_all_three():
    assert bench_pairs.quartiles([1.0, 2.0, 4.0, 8.0, 16.0]) == (2.0, 4.0, 8.0)
    assert bench_pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def _traced(import_s, calls):
    """One ``--trace 1`` result line: per-layer metrics only."""
    return {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {
            "cli.import_s": {"value": import_s, "unit": "s"},
            "source.evaluate_calls": {"value": calls, "unit": "count"},
        },
    }


def test_record_holds_each_sides_values_spread_wins_operations_and_layers():
    pairs = [
        (_line(1.0, 10.0), _line(0.75, 11.0)),  # this better in both
        (_line(1.5, 12.0, failed=2), _line(1.75, 11.0, failed=1, attempted=6)),  # the revision
        (_line(1.25, 9.0), _line(1.0, 9.5)),  # this better in both
    ]
    traced = (_traced(0.2, 9), _traced(0.19, 7))
    entry = bench_pairs.record(pairs, METRICS, 1, traced)
    assert entry == {
        "end_to_end": {
            "wall_s": {
                "unit": "s",
                "this_wins": 2,
                "rev": {"median": 1.25, "q1": 1.125, "q3": 1.375, "values": [1.0, 1.5, 1.25]},
                "this": {"median": 1.0, "q1": 0.875, "q3": 1.375, "values": [0.75, 1.75, 1.0]},
                "gain_rule_holds": False, "median_gap": 0.25, "rev_iqr": 0.25,  # 2/3 wins
                "this_worse_by": -0.2, "bound": 0.24, "beyond_bound": False,
            },
            "rate": {
                "unit": "op/s",
                "this_wins": 2,
                "rev": {"median": 10.0, "q1": 9.5, "q3": 11.0, "values": [10.0, 12.0, 9.0]},
                "this": {"median": 11.0, "q1": 10.25, "q3": 11.0, "values": [11.0, 11.0, 9.5]},
                "gain_rule_holds": False, "median_gap": 1.0, "rev_iqr": 1.5,
                "this_worse_by": -0.1, "bound": 0.1, "beyond_bound": False,
            },
        },
        "operations": {
            "rev": {"failed": 2, "attempted": 15},
            "this": {"failed": 1, "attempted": 16},
        },
        "differing_seeds": 1,
        "per_layer": {
            "rev": {"cli.import_s": 0.2, "source.evaluate_calls": 9},
            "this": {"cli.import_s": 0.19, "source.evaluate_calls": 7},
        },
    }
    del entry["per_layer"]  # present with traced runs only
    assert bench_pairs.record(pairs, METRICS, 1) == entry


FILES = {
    "trace_sweeps-setup.json": b'[{"path": "/one/tree/scenarios/a.json"}]',
    "trace_sweeps/op0/report.json": b'{"flux_n": 0.125}\n',
    "trace_sweeps/op0/trace.csv": b"tau,g2\n-1,0.5\n0,1.5\n",
    "analysis_sweeps/op3/sweep.csv": b"value,width\n1,2.0000000000000004\n",
}


def _tree(root: Path, files=FILES) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def _files(root: Path) -> dict:
    """Every file under ``root``, by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_identical_trees_pass(tmp_path):
    assert bench_pairs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b")) == []


def test_one_changed_byte_fails_and_names_the_file(tmp_path):
    changed = dict(FILES)
    changed["trace_sweeps/op0/trace.csv"] = b"tau,g2\n-1,0.5\n0,1.6\n"
    lines = bench_pairs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", changed))
    assert len(lines) == 1 and "op0/trace.csv" in lines[0]


def test_missing_file_fails_and_names_the_file(tmp_path):
    fewer = {k: v for k, v in FILES.items() if not k.endswith("trace.csv")}
    lines = bench_pairs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", fewer))
    assert lines == [f"Only in {tmp_path / 'a' / 'trace_sweeps' / 'op0'}: trace.csv"]


def test_missing_directory_fails_and_names_it(tmp_path):
    fewer = {k: v for k, v in FILES.items() if not k.startswith("analysis_sweeps/")}
    lines = bench_pairs.compare_trees(_tree(tmp_path / "a", fewer), _tree(tmp_path / "b"))
    assert lines == [f"Only in {tmp_path / 'b'}: analysis_sweeps"]


def test_setup_file_sits_beside_the_compared_workload_directory(tmp_path):
    moved = {**FILES, "trace_sweeps-setup.json": b'[{"path": "/other/tree/scenarios/a.json"}]'}
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", moved)
    assert bench_pairs.compare_trees(a / "trace_sweeps", b / "trace_sweeps") == []
    assert len(bench_pairs.compare_trees(a, b)) == 1


def _git_checkout(path: Path) -> None:
    """A git repository at ``path`` with two empty commits, so that HEAD~1 exists."""
    path.mkdir()
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    for message in ("a", "b"):
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", message], check=True)


def _fake_runs(monkeypatch, tmp_path, differing=(), fail=None):
    """A git checkout with stand-ins for ``extract``, ``copy_checkout`` and ``run``: a run
    writes a set-up file naming its tree, one output file and a result file, plus ``x.csv``
    in this checkout's copy at a seed of ``differing``, and fails as its tree's run does when
    it is run number ``fail``.  No run may use the checkout itself as its tree.  Returns the
    extracted revisions and the runs as ``(in this checkout's copy, workload, seed)``, with
    the trace level after the seed for traced runs."""
    here = tmp_path / "checkout"
    _git_checkout(here)
    extracted, copies, ran = [], [], []
    monkeypatch.setattr(bench_pairs, "ROOT", here)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: extracted.append(rev))
    monkeypatch.setattr(bench_pairs, "copy_checkout", copies.append)
    metrics = {metric["name"]: {"value": 1.0} for metric in bench_pairs.BENCHMARK["end_to_end"]}

    def run(tree, workload, seed, seconds, trace=0):
        assert tree.resolve() != here.resolve()
        this = tree == copies[0]
        ran.append((this, workload, seed) + ((trace,) if trace else ()))
        if len(ran) == fail:
            raise RuntimeError(f"{workload} failed in {tree}")
        out = tree / bench_pairs.OUT
        shutil.rmtree(out / workload, ignore_errors=True)
        files = {f"{workload}/op0/trace.csv": b"1\n", f"{workload}-setup.json": str(tree).encode()}
        if this and seed in differing:
            files[f"{workload}/op0/x.csv"] = b"1"
        _tree(out, files)
        _tree(tree / "perfbench" / "results", {f"{workload}-trace{trace}.json": b"{}"})
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", run)
    return extracted, ran


@pytest.mark.parametrize("differing, status", [((), 0), ((7,), 1)], ids=["identical", "differing"])
def test_main_exit_status(tmp_path, monkeypatch, capsys, differing, status):
    """Every workload is compared by default, and a differing file fails."""
    _fake_runs(monkeypatch, tmp_path, differing)
    assert bench_pairs.main(["--rev", "HEAD~1", "--pairs", "1", "--seed", "7"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if " at seed 7 against HEAD~1: " in line]) == 3
    assert any("x.csv" in line for line in lines) == bool(status)


@pytest.mark.parametrize(
    "pairs, differing, status",
    [(3, set(), 0), (3, {8}, 1), (2, {7, 8}, 1)],
    ids=["all_identical", "second_differs", "both_differ"],
)
def test_main_compares_every_seed(tmp_path, monkeypatch, capsys, pairs, differing, status):
    """REV is extracted once; pair i runs at seed S+i, REV first in even pairs, and
    every workload's outputs are compared at every seed before the summaries."""
    extracted, ran = _fake_runs(monkeypatch, tmp_path, differing)
    workloads = ["trace_sweeps", "joint_spectra"]
    argv = ["--rev", "HEAD~1", "--workload", *workloads, "--pairs", str(pairs), "--seed", "7"]
    assert bench_pairs.main(argv) == status
    assert extracted == [bench_pairs._git("rev-parse", "HEAD~1")]  # resolved once, up front
    seeds = range(7, 7 + pairs)
    assert ran == [
        (side, workload, seed)
        for i, seed in enumerate(seeds)
        for workload in workloads
        for side in ((False, True), (True, False))[i % 2]
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if " at seed " in line] == [
        f"perfbench/out/{workload} at seed {seed} against HEAD~1: "
        + ("1 difference(s)" if seed in differing else "identical")
        for seed in seeds
        for workload in workloads
    ]
    assert any("x.csv" in line for line in lines) == bool(differing)
    assert [line for line in lines if line in workloads] == workloads


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_a_usage_error(capsys, pairs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--rev", "HEAD", "--pairs", pairs, "--seed", "1"])
    assert exc.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err


def test_repeated_workload_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A repeated workload would add two runs a side to one workload's pairs at each seed."""
    _, ran = _fake_runs(monkeypatch, tmp_path)
    argv = ["--rev", "HEAD", "--workload", "joint_spectra", "joint_spectra", "--pairs", "2"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "--workload names a workload more than once" in capsys.readouterr().err
    assert ran == []


def test_label_writes_one_record_after_every_pair_and_trace_run(tmp_path, monkeypatch, capsys):
    _, ran = _fake_runs(monkeypatch, tmp_path)
    sha = bench_pairs._git("rev-parse", "HEAD")
    path = tmp_path / "checkout" / "BENCH_t.json"
    fake = bench_pairs.run

    def run(*args, **kwargs):
        assert not path.exists()
        return fake(*args, **kwargs)

    monkeypatch.setattr(bench_pairs, "run", run)
    argv = ["--rev", "HEAD", "--workload", "joint_spectra", "--pairs", "2", "--seed", "7"]
    assert bench_pairs.main([*argv, "--label", "t"]) == 0
    assert ran[4:] == [(False, "joint_spectra", 7, 1), (True, "joint_spectra", 7, 1)]
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["rev"] == {"name": "HEAD", "sha": sha}
    assert bench["this"] == {"sha": sha, "dirty": False}
    assert (bench["label"], bench["seed"], bench["pairs"]) == ("t", 7, 2)
    assert set(bench["host"]) == {"cpu_count", "python", "numpy"}
    assert list(bench["workloads"]) == ["joint_spectra"]
    entry = bench["workloads"]["joint_spectra"]
    wall = entry["end_to_end"]["wall_s"]
    assert wall["this"]["values"] == [1.0, 1.0]
    assert (wall["gain_rule_holds"], wall["median_gap"], wall["rev_iqr"]) == (False, 0.0, 0.0)
    assert (wall["this_worse_by"], wall["bound"], wall["beyond_bound"]) == (0.0, 0.24, False)
    # What is printed is the record's entry, verdicts included.
    lines = capsys.readouterr().out.splitlines()
    summary = lines[lines.index("joint_spectra") + 1 : -1]
    assert summary == bench_pairs.summary_lines(entry, "HEAD")
    assert summary[5].endswith("gap 0 against IQR 0)  within bound 0.24 (this worse by +0.00%)")
    assert entry["operations"]["this"] == {"failed": 0, "attempted": 10}
    assert entry["differing_seeds"] == 0
    assert set(entry["per_layer"]) == {"rev", "this"}


@pytest.mark.parametrize("fail", [3, 5], ids=["pair", "trace"])
def test_label_writes_nothing_when_a_run_fails(tmp_path, monkeypatch, fail):
    _, ran = _fake_runs(monkeypatch, tmp_path, fail=fail)
    argv = ["--rev", "HEAD", "--workload", "joint_spectra", "--pairs", "2", "--seed", "7"]
    assert bench_pairs.main([*argv, "--label", "t"]) == 1
    assert len(ran) == fail
    assert not (tmp_path / "checkout" / "BENCH_t.json").exists()


LABEL_RULE = "--label must be non-empty and hold no '/'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rev", "no_such_rev"], "--rev 'no_such_rev' is not a commit: fatal: Needed a single"),
        (["--rev", "HEAD", "--label", "a/b"], f"{LABEL_RULE}, got 'a/b'"),
        (["--rev", "HEAD", "--label", ""], f"{LABEL_RULE}, got ''"),
    ],
    ids=["unknown_rev", "label_with_slash", "empty_label"],
)
def test_bad_rev_or_label_is_a_usage_error_before_any_run(
    tmp_path, monkeypatch, capsys, argv, message
):
    """An unknown revision repeats git's message; a label with '/' names no file at
    the repository root, and an empty one would silently write no record.  Each is
    refused before the first extract or run."""
    extracted, ran = _fake_runs(monkeypatch, tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([*argv, "--pairs", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert extracted == [] and ran == []


@pytest.mark.parametrize(
    "stdout",
    ["", "setting up\n", "{not json\n", "[true]\n", '{"metrics": {}}\n'],
    ids=["silent", "no_json", "bad_json", "not_an_object", "no_correct"],
)
def test_run_without_a_result_line_fails(tmp_path, stdout):
    """A run that exits 0 without a last line holding ``correct`` is a failed run that
    names its workload and tree and carries the run's stderr."""
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        f"import sys\nsys.stdout.write({stdout!r})\nsys.stderr.write('the log')\n",
        encoding="utf-8",
    )
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run(tmp_path, "joint_spectra", 1, 1.0)
    assert str(exc.value) == f"joint_spectra in {tmp_path} printed no result line:\nthe log"


@pytest.mark.parametrize("label", [[], ["--label", "t"]], ids=["unlabelled", "labelled"])
def test_checkout_perfbench_out_and_results_are_left_alone(tmp_path, monkeypatch, label):
    """Both sides run in temporary trees, so an earlier result in the checkout survives."""
    _, ran = _fake_runs(monkeypatch, tmp_path)
    kept = {"out/trace_sweeps/op0/trace.csv": b"kept\n", "results/trace_sweeps-trace0.json": b"[]"}
    perfbench = _tree(tmp_path / "checkout" / "perfbench", kept)
    argv = ["--rev", "HEAD", "--workload", "trace_sweeps", "--pairs", "2", "--seed", "7"]
    assert bench_pairs.main([*argv, *label]) == 0
    assert len(ran) == (6 if label else 4)
    assert _files(perfbench) == kept


def test_copy_checkout_holds_the_working_tree_without_ignored_or_deleted_files(
    tmp_path, monkeypatch
):
    """This side's tree: tracked files as they stand, an untracked file that is not
    ignored, and neither an ignored file nor a committed file since deleted."""
    here = tmp_path / "checkout"
    _git_checkout(here)
    committed = {".gitignore": b"perfbench/out/\n", "a.txt": b"old", "sub/b.txt": b"b", "gone": b""}
    _tree(here, committed)
    git = ["git", "-C", str(here), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "files"], check=True)
    (here / "gone").unlink()
    _tree(here, {"a.txt": b"uncommitted", "new.txt": b"untracked", "perfbench/out/x.csv": b"1"})
    monkeypatch.setattr(bench_pairs, "ROOT", here)
    dest = tmp_path / "copy"
    bench_pairs.copy_checkout(dest)
    assert _files(dest) == {
        ".gitignore": b"perfbench/out/\n",
        "a.txt": b"uncommitted",
        "new.txt": b"untracked",
        "sub/b.txt": b"b",
    }
