"""Set-up cost of one fresh interpreter: import spdcsim.cli, parse documents.

    python3 perfbench/probe.py <documents.json>

The file holds a list of {"doc": <scenario document>} or {"path": <file>}
entries.  Prints {"import_s": ..., "parse_s": ...} measured inside the
interpreter; the caller times the whole process from spawn to exit.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import spdcsim.cli  # noqa: F401  (the import every CLI invocation pays)
    from spdcsim import scenario

    imported = time.perf_counter()
    entries = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    for entry in entries:
        if "path" in entry:
            scenario.load_scenario(entry["path"])
        else:
            scenario.parse_scenario(entry["doc"])
    parsed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
