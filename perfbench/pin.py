"""Record the outputs the benchmark's oracle expects.

    python3 perfbench/pin.py

Runs every case of every workload once untraced and once traced, and
writes their digests and the traced exact counts to perfbench/pinned.json.
Re-pin only at a commit whose outputs are known to be right: a later run
marks every case whose digest differs from the pinned one as wrong.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import cases as workloads
import run


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path.insert(0, str(root / "src"))
    pinned: dict = {}
    for workload in workloads.WORKLOADS:
        res = run.measure(workload, 0, 0, True, root, {}, pinned)
        print(f"{workload}: {res['summary']['attempted']} cases",
              file=sys.stderr)
    raised = {cid: d["raised"] for cid, d in pinned.items() if "raised" in d}
    if raised != workloads.KNOWN_DEFECTS:
        print(f"uncaught errors {raised} differ from the known defects "
              f"{workloads.KNOWN_DEFECTS}", file=sys.stderr)
        return 1
    lines = [f"{json.dumps(key)}: {json.dumps(pinned[key], sort_keys=True)}"
             for key in sorted(pinned)]
    text = "{\n" + ",\n".join(lines) + "\n}\n"     # one case a line
    (here / "pinned.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
