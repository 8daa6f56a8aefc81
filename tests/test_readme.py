"""README's *Library quick start* runs and prints what its comments promise."""

import re
from pathlib import Path

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
