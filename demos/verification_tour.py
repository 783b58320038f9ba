"""Tour of the verification oracle and the sequence cross-check.

Run:  python3 demos/verification_tour.py
"""

import json
from pathlib import Path

from crossnest import run_suite
from crossnest.cli import cmd_dispatch

BFILE = Path(__file__).resolve().parents[1] / "tests" / "data" / "b001006.txt"


def main() -> None:
    # Every named check, capped at a desk-scale size.
    report = run_suite("all", 6)
    for check in report.checks:
        print(f"{check.status} {check.name} ({check.bounds})")
    good = sum(1 for c in report.checks if c.passed)
    print(f"suite all: {good}/{len(report.checks)} checks passed"
          f" in {report.elapsed_ms} ms")
    print()

    # The same report as machine-readable JSON (one check shown).
    payload = report.to_json_dict()
    print("first check as JSON:", json.dumps(payload["checks"][0]))
    print()

    # Cross-check the Motzkin numbers against a bundled b-file, through
    # the command-line entry point.
    print(f"$ crossnest oeis-check --bfile {BFILE.name} --max-n 12")
    code = cmd_dispatch(["oeis-check", "--bfile", str(BFILE), "--max-n", "12"])
    print("exit code:", code)


if __name__ == "__main__":
    main()
