"""``tools/diff_outputs.py`` tells identical output trees from different ones.

Synthetic trees only: nothing here runs the benchmark.
"""

import shutil
from pathlib import Path

import pytest

from script_module import load_script

diff_outputs = load_script("diff_outputs", "tools/diff_outputs.py")

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


def test_identical_trees_pass(tmp_path):
    assert diff_outputs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b")) == []


def test_one_changed_byte_fails_and_names_the_file(tmp_path):
    changed = dict(FILES)
    changed["trace_sweeps/op0/trace.csv"] = b"tau,g2\n-1,0.5\n0,1.6\n"
    lines = diff_outputs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", changed))
    assert len(lines) == 1 and "op0/trace.csv" in lines[0]


def test_missing_file_fails_and_names_the_file(tmp_path):
    fewer = {k: v for k, v in FILES.items() if not k.endswith("trace.csv")}
    lines = diff_outputs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", fewer))
    assert lines == [f"Only in {tmp_path / 'a' / 'trace_sweeps' / 'op0'}: trace.csv"]


def test_missing_directory_fails_and_names_it(tmp_path):
    fewer = {k: v for k, v in FILES.items() if not k.startswith("analysis_sweeps/")}
    lines = diff_outputs.compare_trees(_tree(tmp_path / "a", fewer), _tree(tmp_path / "b"))
    assert lines == [f"Only in {tmp_path / 'b'}: analysis_sweeps"]


def test_setup_file_differences_are_ignored(tmp_path):
    moved = dict(FILES)
    moved["trace_sweeps-setup.json"] = b'[{"path": "/other/tree/scenarios/a.json"}]'
    assert diff_outputs.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", moved)) == []


@pytest.mark.parametrize(
    "files, status", [(FILES, 0), ({**FILES, "trace_sweeps/op0/x.csv": b"1"}, 1)]
)
def test_main_exit_status(tmp_path, monkeypatch, capsys, files, status):
    """The command line compares the revision's tree with this checkout's."""
    here = tmp_path / "checkout"
    monkeypatch.setattr(diff_outputs, "ROOT", here)
    monkeypatch.setattr(diff_outputs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(
        diff_outputs,
        "run_workloads",
        lambda tree, seed: _tree(tree / diff_outputs.OUT, FILES if tree != here else files),
    )
    assert diff_outputs.main(["--rev", "HEAD~1", "--seed", "7"]) == status
    out = capsys.readouterr().out
    assert ("x.csv" in out) == bool(status)


@pytest.mark.parametrize(
    "seeds, differing, status",
    [(["7", "8", "9"], set(), 0), (["7", "8", "9"], {8}, 1), (["7", "8"], {7, 8}, 1)],
    ids=["all_identical", "second_differs", "both_differ"],
)
def test_main_compares_every_seed(tmp_path, monkeypatch, capsys, seeds, differing, status):
    """The command line extracts the revision once and compares its tree with
    this checkout's at every seed, failing if any seed differs."""
    here = tmp_path / "checkout"
    extracted, ran = [], []
    monkeypatch.setattr(diff_outputs, "ROOT", here)
    monkeypatch.setattr(diff_outputs, "extract", lambda rev, dest: extracted.append(rev))

    def run_workloads(tree, seed):
        ran.append((tree == here, seed))
        changed = tree == here and seed in differing
        out = tree / diff_outputs.OUT
        if out.exists():
            shutil.rmtree(out)
        _tree(out, {**FILES, "trace_sweeps/op0/x.csv": b"1"} if changed else FILES)

    monkeypatch.setattr(diff_outputs, "run_workloads", run_workloads)
    assert diff_outputs.main(["--rev", "HEAD~1", "--seed", *seeds]) == status
    assert extracted == ["HEAD~1"]
    assert ran == [(side, int(seed)) for seed in seeds for side in (False, True)]
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line.startswith("perfbench/out at seed")]
    assert len(verdicts) == len(seeds)
    for seed, verdict in zip(seeds, verdicts):
        assert verdict.startswith(f"perfbench/out at seed {seed} against HEAD~1: ")
        assert verdict.endswith("identical") == (int(seed) not in differing)
    assert any("x.csv" in line for line in lines) == bool(differing)
