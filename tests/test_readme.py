"""README's *Library quick start* runs and prints what its comments promise,
and every command line under *Command line* parses."""

import re
import shlex
from pathlib import Path

import pytest

from spdcsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Library quick start\n\n```python\n(.*?)```", text, re.DOTALL).group(1)
    names = {}
    exec(block, names)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert names["width"] == names["reference"]  # "== baseline width"
    assert printed[1] == "True"  # canceled
    assert float(printed[3]) == 0.0  # comb_leakage: "0: equal indexes cancel"


def test_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Command line\n\n```bash\n(.*?)```", text, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("spdcsim ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        # shlex drops the shell comment; a usage error exits 2.
        args = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(args)
        except SystemExit as exc:
            pytest.fail(f"README command line does not parse ({exc.code}): {line}")
