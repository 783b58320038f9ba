"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks three things and exits non-zero if any fails:

1. every workload runs, passes its checks, and prints every end-to-end
   metric that BENCHMARK.json names, with the unit named there;
2. a traced run prints every per-layer metric BENCHMARK.json names;
3. a doctored reference digest makes a run fail: ``failed`` > 0 (so
   fail_frac > 0), ``correct`` is false and the exit code is not 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def missing(result: dict, specs: list[dict]) -> list[str]:
    got = result.get("metrics", {})
    return [
        s["name"] for s in specs
        if s["name"] not in got or got[s["name"]]["unit"] != s["unit"]
    ]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        rc, result = run(w["name"], 0)
        if rc != 0 or not result.get("correct"):
            problems.append(f"{w['name']}: exit {rc}, result {result}")
        gone = missing(result, spec["end_to_end"])
        if gone:
            problems.append(f"{w['name']}: end-to-end metrics missing or mis-unitted: {gone}")

    rc, result = run("objects", 1)
    gone = missing(result, spec["per_layer"])
    if rc != 0 or gone:
        problems.append(f"traced run: exit {rc}, per-layer metrics missing: {gone}")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    doctored_path = HERE / "out" / "doctored-reference.json"
    doctored_path.parent.mkdir(exist_ok=True)
    for workload, digests in reference["tiny"].items():
        doctored = json.loads(json.dumps(reference))
        label = sorted(digests)[0]
        doctored["tiny"][workload][label] = "0" * 64
        doctored_path.write_text(json.dumps(doctored), encoding="utf-8")
        rc, result = run(workload, 0, "--reference", str(doctored_path))
        if rc == 0 or result.get("correct") is not False or not result.get("failed"):
            problems.append(f"{workload}: doctored digest for {label!r} went unnoticed")
    doctored_path.unlink()

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
