"""crossnest benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload objects --seed 1 --seconds 25 --trace 0

Load is closed-loop with one client: the runner starts one fresh worker
interpreter per batch (see worker.py) and waits for it before starting the
next.  Every output is checked.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, taken from spans around the benchmark's own
calls into each crossnest module.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import combinatorics
from timing import CAL_REF_S, calibrate, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# BENCHMARK.json names every workload and metric, with its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

WORKER_TIMEOUT = 150
# Path lengths of the objects workload; the paths themselves come from the seed.
OBJECT_SIZES = {"full": [100 + (300 * i) // 47 for i in range(48)], "tiny": [4, 9, 16]}


class BenchError(RuntimeError):
    """The run could not measure: nothing valid to report."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[list] = []
        self.sizes = None

    def worker(self, workload: str, trace: int = 0) -> dict:
        """Run one batch in a fresh worker; return its result, times scaled.

        Set-up runs from here to the worker's "ready": input generation (on
        objects), interpreter start, imports and reading the inputs.  The
        inputs are made here rather than in the worker so that the
        sampler's table never counts towards the worker's peak RSS.
        """
        run_id = f"{workload}/{self.args.seed}/{len(self.setups)}"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload,
            "--scale", self.args.scale,
            "--trace", str(trace),
            "--run-id", run_id,
            "--reference", self.args.reference,
        ]
        cal = calibrate()
        spawned = time.monotonic()
        feed = ""
        if workload == "objects":
            feed = json.dumps(make_objects(OBJECT_SIZES[self.args.scale], self.args.seed))
        # Its own process group lets a timeout kill the worker's CLI children too.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(feed, timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT} s") from None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{workload} worker exited with {proc.returncode}: {stderr.strip()[-2000:]}"
            )
        result = json.loads(lines[-1])
        self.setups.append((result["ready"] - spawned) * CAL_REF_S / cal)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        self.spans += result["spans"]
        self.sizes = result["sizes"]
        raw = result["raw_ops"] = result["ops"]
        result["scale"] = CAL_REF_S / statistics.median(c for _, _, c in raw)
        result["ops"] = [[label, secs * CAL_REF_S / c] for label, secs, c in raw]
        result["wall"] = sum(secs for _, secs in result["ops"])
        return result

    def repeat(self, deadline: float, body, rounds: int = 1) -> None:
        """Run body() at least `rounds` times, then until the next one
        would end past the deadline."""
        while True:
            start = time.monotonic()
            body()
            rounds -= 1
            if rounds <= 0 and time.monotonic() + (time.monotonic() - start) > deadline:
                break


def make_objects(sizes: list[int], seed: int) -> list[list]:
    """The objects workload's inputs: a uniform Motzkin path and a random
    permutation of each length, from the benchmark's own sampler."""
    rng = random.Random(seed)
    sampler = combinatorics.MotzkinSampler(max(sizes))
    return [
        [sampler.sample(n, rng), combinatorics.random_permutation(n, rng)]
        for n in sizes
    ]


def upper_quartile(values: list[float]) -> float:
    """Inclusive upper quartile: with the 5-13 samples of a run it never
    reaches past the second largest, where the exclusive one leans on the
    maximum and so on the one slowest batch."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(runner: Runner, batches: list[dict]) -> tuple[dict, dict, dict]:
    per_op: dict[str, list[float]] = {}
    for b in batches:
        for label, secs in b["ops"]:
            per_op.setdefault(label, []).append(secs)
    # Each op's own upper quartile, so the slowest op sets the tail whatever
    # the number of batches; pooling unequal ops would not.
    tails = {label: upper_quartile(v) for label, v in per_op.items()}
    tail_op = max(tails, key=tails.get)
    walls = [b["wall"] for b in batches]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(runner.setups),
        "op_p50_ms": statistics.median(statistics.median(v) for v in per_op.values()) * 1000,
        "op_tail_ms": tails[tail_op] * 1000,
        "peak_rss_mb": max(b["rss_kb"] for b in batches) / 1024,
    }
    samples = {
        "batches": len(batches),
        "setups": len(runner.setups),
        "ops_per_batch": len(per_op),
        "samples_per_op": len(batches),
        "op_tail_op": tail_op,
    }
    raw = {
        "batch_walls": walls,
        "setup_times": runner.setups,
        "ops_seconds_calibration": [b["raw_ops"] for b in batches],
    }
    return metrics, samples, raw


def layer_metrics(batch: dict) -> dict:
    """Per-layer metrics of one traced batch: self times, scaled, and counts."""
    self_s = {k: v * batch["scale"] for k, v in self_times(batch["spans"]).items()}
    out = {f"{name}_s": secs for name, secs in self_s.items() if f"{name}_s" in PER_LAYER}
    out.update({k: v for k, v in batch["counts"].items() if k in PER_LAYER})
    if any(name.startswith("oracle.distribution.") for name in self_s):
        enum = sum(v for k, v in self_s.items() if k.startswith("permutations.enumerate_class."))
        dist = sum(v for k, v in self_s.items() if k.startswith("oracle.distribution."))
        out["oracle.tally_s"] = dist - enum
    startups = [
        (e - s) / 1e6 * batch["scale"]
        for name, s, e, _, _ in batch["spans"] if name == "cli.startup"
    ]
    if startups:
        out["cli.startup_ms"] = statistics.median(startups)
    return out


def measure(runner: Runner) -> tuple[dict, dict, dict]:
    """Run the workload for --seconds; return (metrics, sample counts, raw times)."""
    args = runner.args
    deadline = time.monotonic() + args.seconds
    w = args.workload
    if not args.trace:
        batches: list[dict] = []

        def body() -> None:
            batches.append(runner.worker(w))

        runner.repeat(deadline, body)
        return end_to_end(runner, batches)

    # Traced: one traced batch of every workload yields every per-layer
    # metric; then untraced and traced batches of this workload alternate,
    # and the ratio of their median walls is the tracing overhead.
    traced = {name: [runner.worker(name, 1)] for name in WORKLOADS}
    plain: list[dict] = []

    def body() -> None:
        plain.append(runner.worker(w))
        traced[w].append(runner.worker(w, 1))

    runner.repeat(deadline, body, rounds=2)
    metrics: dict = {}
    for runs in traced.values():
        per_batch = [layer_metrics(b) for b in runs]
        for name in per_batch[0]:
            metrics[name] = statistics.median(m[name] for m in per_batch)
    metrics["trace.overhead_frac"] = (
        statistics.median(b["wall"] for b in traced[w])
        / statistics.median(b["wall"] for b in plain) - 1
    )
    samples = {
        "setups": len(runner.setups),
        "traced_batches": {k: len(v) for k, v in traced.items()},
        "untraced_batches": len(plain),
    }
    raw = {
        "traced_walls": {k: [b["wall"] for b in v] for k, v in traced.items()},
        "untraced_walls": [b["wall"] for b in plain],
        "setup_times": runner.setups,
    }
    return metrics, samples, raw


def provenance(args, samples: dict, sizes) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": sizes,
        "samples": samples,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny is for the smoke test only")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="digest file for fixed-input outputs (the smoke test doctors one)")
    args = ap.parse_args()

    if not (ROOT / "src" / "crossnest" / "__init__.py").is_file():
        print(f"error: no crossnest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One process runs at a time, so one CPU is enough; pinning the runner
    # (children inherit it) keeps the calibration loop on the same core as
    # the work it scales.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    runner = Runner(args)
    try:
        metrics, samples, raw = measure(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        runner.failures.append(f"metrics not measured: {missing}")
        runner.failed += 1

    prov = provenance(args, samples, runner.sizes)
    prov["pinned_cpu"] = cpu
    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "failures": runner.failures, "raw": raw},
                  fh, indent=1)
    if runner.spans:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in runner.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run_id": run_id}) + "\n")

    for msg in runner.failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    frac = runner.failed / max(runner.attempted, 1)
    print(f"fail_frac {frac:.6g} ({runner.failed}/{runner.attempted})")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
