"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs run.py once per (workload, seed), one at a time, with the run length
from BENCHMARK.json, and records for each end-to-end metric the median,
the quartiles and the spread (interquartile range over median, from
``statistics.quantiles(values, n=4)``), plus every run's values.  The
committed baseline.json was made this way at the commit that added the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode} {proc.stderr[-500:]}")
                ok = False
                continue
            prov = next(json.loads(ln[len("provenance "):]) for ln in lines
                        if ln.startswith("provenance "))
            runs.append({"seed": seed, **result, "provenance": prov})
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": values,
            }
            print(f"{workload:14s} {m['name']:12s} median {med:11.5g} {m['unit']:3s} "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})")
        summary["workloads"][workload] = {
            "metrics": metrics,
            "provenance": runs[0]["provenance"] if runs else None,
            "samples": [r["provenance"]["samples"] for r in runs],
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
