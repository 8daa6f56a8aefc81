"""The names a run owns in its output directory, their one table, and the
frame of its report.

``outputs.claim`` removes every file under one of spdcsim's own names, the
temp files of a killed write included, and keeps every other file.  It
locks the directory first, so a second run into a directory that a run
holds fails and deletes nothing.  Those names are derived from
``outputs.POINT_FILES``; README *Outputs* is the one other place that names
a point file, so it must name each of them.
``outputs.write_run`` builds the whole report that ``run_scenario`` returns.
"""

import fcntl
import json
import os
import re
import tempfile
import threading
from pathlib import Path

import pytest

from documents import temporal
from spdcsim import outputs
from spdcsim.errors import OutputDirectoryInUse
from spdcsim.runner import run_scenario
from spdcsim.scenario import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"

POINT_NAMES = [name for name, _ in outputs.POINT_FILES.values()]
OWN_NAMES = [
    *(prefix + name for name in POINT_NAMES for prefix in ("", "point_0007_", "point_12345_")),
    "sweep.csv",
    "report.json",
]
# Names spdcsim never writes, each one step away from a name it does.
NEAR_MISSES = ("Trace.csv", "point__comb.csv", "point_1_sweep.csv", "joint.csv.ABC.tmp", "comb.csv.bak")


@pytest.mark.parametrize("killed", [False, True], ids=["final", "temp"])
@pytest.mark.parametrize("name", OWN_NAMES)
def test_claim_removes_each_own_name_and_keeps_near_misses(name, killed, tmp_path):
    for kept in NEAR_MISSES:
        (tmp_path / kept).write_text("not spdcsim's\n", encoding="utf-8")
    if killed:
        # The temp file that a write killed before its rename leaves.
        fd, stale = tempfile.mkstemp(dir=tmp_path, prefix=name + ".", suffix=".tmp")
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write("partial\n")
        assert re.fullmatch(re.escape(name) + r"\.[a-z0-9_]+\.tmp", Path(stale).name)
    else:
        (tmp_path / name).write_text("stale\n", encoding="utf-8")
    with outputs.claim(tmp_path):
        pass
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(NEAR_MISSES)


def _outputs_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("name", POINT_NAMES)
def test_readme_outputs_names_every_point_file(name):
    section = _outputs_section()
    own = re.search(r"whose name is spdcsim's own:(.*?)\.\s", section, re.DOTALL).group(1)
    assert f"`{name}`" in own and f"`point_<digits>_{name}`" in own
    listed = [line for line in section.splitlines() if line.startswith("- ")]
    assert any(f"`{name}`" in line for line in listed)


FRAME_DOC = temporal()
FRAME_SWEEP = {"parameter": "elements.1.phase_coeffs.1", "values": [-1.0, 0.5]}


@pytest.mark.parametrize("sweep", [None, FRAME_SWEEP], ids=["single", "sweep"])
def test_report_frame(sweep, tmp_path):
    scenario = parse_scenario({**FRAME_DOC, "sweep": sweep})
    report = run_scenario(scenario, tmp_path)
    assert list(report) == ["schema_version", "scenario", "results", "files"]
    assert report["schema_version"] == outputs.REPORT_SCHEMA_VERSION
    assert report["scenario"] == scenario.resolved()
    if sweep is None:
        assert "rms_width_ps" in report["results"]
    else:
        assert sorted(report["results"]) == ["points", "sweep_parameter"]
        assert [point["value"] for point in report["results"]["points"]] == sweep["values"]
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _own_files(out_dir: Path) -> dict:
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_a_locked_directory_refuses_a_run_and_keeps_its_files(tmp_path):
    """A lock held on a second descriptor of the directory, as another run's
    ``claim`` holds it, refuses the run before it removes anything."""
    scenario = parse_scenario(FRAME_DOC)
    run_scenario(scenario, tmp_path)
    before = _own_files(tmp_path)
    assert sorted(before) == ["report.json", "trace.csv"]
    fd = os.open(tmp_path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(OutputDirectoryInUse, match="^output directory in use: ") as caught:
            run_scenario(scenario, tmp_path)
        assert isinstance(caught.value, OSError)
        assert _own_files(tmp_path) == before
    finally:
        os.close(fd)
    # Closing the descriptor releases the lock.
    assert run_scenario(scenario, tmp_path)["files"] == ["trace.csv", "report.json"]


def test_a_second_thread_cannot_run_into_a_directory_a_run_holds(tmp_path, monkeypatch):
    """A sweep paused after writing its first point file holds the
    directory; a run from another thread fails at once and deletes nothing,
    and the sweep then finishes with exactly the files its report lists."""
    sweep = parse_scenario({**FRAME_DOC, "sweep": FRAME_SWEEP})
    writing, resume = threading.Event(), threading.Event()
    write_point_files = outputs.write_point_files

    def paused(*args):
        names = write_point_files(*args)
        writing.set()
        assert resume.wait(timeout=60)
        return names

    monkeypatch.setattr(outputs, "write_point_files", paused)
    reports = []
    first = threading.Thread(target=lambda: reports.append(run_scenario(sweep, tmp_path)))
    first.start()
    try:
        assert writing.wait(timeout=60)
        held = _own_files(tmp_path)
        assert sorted(held) == ["point_0000_trace.csv"]
        with pytest.raises(OutputDirectoryInUse):
            run_scenario(parse_scenario(FRAME_DOC), tmp_path)
        assert _own_files(tmp_path) == held
    finally:
        resume.set()
        first.join(timeout=60)
    assert not first.is_alive()
    assert sorted(_own_files(tmp_path)) == sorted(reports[0]["files"])
