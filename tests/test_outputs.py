"""The names a run owns in its output directory, their one table, and the
frame of its report.

``outputs.claim`` removes every file under one of spdcsim's own names, the
temp files of a killed write included, and keeps every other file.  Those
names are derived from ``outputs.POINT_FILES``; README *Outputs* is the one
other place that names a point file, so it must name each of them.
``outputs.write_run`` builds the whole report that ``run_scenario`` returns.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest

from documents import temporal
from spdcsim import outputs
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
    outputs.claim(tmp_path)
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
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == report
