"""Record the output digests that fixed-input workloads are checked against.

    python3 perfbench/record_reference.py

Run it only when crossnest's outputs change on purpose; a digest that moves
otherwise is a bug the benchmark is meant to catch.  Every identity check
must still pass while recording.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXED = ("enum-families", "qseries", "verify-cli")


def main() -> int:
    reference: dict = {}
    for scale in ("full", "tiny"):
        for workload in FIXED:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--scale", scale, "--reference", ""],
                input="", capture_output=True, text=True, check=True, cwd=HERE.parent,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"]:
                print(f"{scale} {workload}: {result['failures']}", file=sys.stderr)
                return 1
            reference.setdefault(scale, {})[workload] = result["digests"]
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
