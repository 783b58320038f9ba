"""One batch of one workload, in a fresh interpreter.

The runner starts this script once per batch, so module-level caches in
crossnest start cold every time, as they do for every CLI invocation.  The
script imports crossnest from the checkout's ``src/`` and takes its inputs
(that is the set-up): fixed sizes, or on ``objects`` the generated words as
a JSON list of [path, permutation] on stdin.  Then it runs the batch and
prints one JSON line:

    {"ready": <time.monotonic() when set-up ended>,
     "ops": [[label, seconds, calibration seconds], ...],
     "attempted": n, "failed": k,
     "failures": [...], "digests": {label: sha256}, "rss_kb": peak,
     "spans": [...], "counts": {...}}

Outputs are checked after the batch's clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(HERE)]
import crossnest as cn  # noqa: E402
import combinatorics  # noqa: E402
from timing import NO_SPAN, Tracer, calibrate  # noqa: E402

# Size guards keep their defaults, in this process and in every CLI child.
os.environ.pop("CROSSNEST_ENUM_LIMIT", None)

CLI_CORPUS = (
    ("stats", "perm", "4", "6", "2", "9", "8", "1", "7", "3", "10", "5"),
    ("map", "phi3", "uuhuudddudduuhdd"),
    ("dist", "--class", "I4321", "--stat", "crs+nes", "--n", "7"),
    ("poly", "Mtilde", "--n", "20"),
    ("tableau", "--n", "8"),
    ("series", "--preset", "I-abcd", "--order", "6"),
    ("oeis-check", "--bfile", "tests/data/b001006.txt", "--max-n", "30"),
)
CLI_STARTUP = ("stats", "perm", "1")
# The child reports its peak RSS as VmHWM on stderr: its ru_maxrss would
# include the worker's pages, which it holds between fork and exec.
CLI_BOOT = (
    "import sys\n"
    "from crossnest.cli import main\n"
    "try:\n"
    "    main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        print(next(ln for ln in fh if ln.startswith('VmHWM')), file=sys.stderr)\n"
)
CLI_PEAKS_KB: list[int] = []

# Fixed sizes; "tiny" exists only for the smoke test.
SIZES = {
    "full": {
        "enum-families": [
            ("S321B3142", 8, "crs"),
            ("S321B3142", 8, "exc-crs"),
            ("I3412", 11, "nes"),
            ("I3412", 11, "fp-exc-crs-nes"),
            ("I4321", 12, "fp-exc-crs-nes"),
        ],
        "qseries": {
            "polys": [("q_motzkin", 60), ("q_motzkin_tilde", 60), ("h_tableau", 40)],
            "series": [
                ("main12-lhs", 30),
                ("main12-rhs", 30),
                ("A", 30),
                ("S321-exc-crs", 24),
                ("I4321-joint", 20),
                ("I-abcd", 20),
            ],
        },
        "verify-cli": 8,  # verify --max-n
    },
    "tiny": {
        "enum-families": [
            ("S321B3142", 5, "crs"),
            ("S321B3142", 5, "exc-crs"),
            ("I3412", 6, "nes"),
            ("I3412", 6, "fp-exc-crs-nes"),
            ("I4321", 6, "fp-exc-crs-nes"),
        ],
        "qseries": {
            "polys": [("q_motzkin", 8), ("q_motzkin_tilde", 8), ("h_tableau", 6)],
            "series": [
                ("main12-lhs", 6),
                ("main12-rhs", 6),
                ("A", 6),
                ("S321-exc-crs", 6),
                ("I4321-joint", 6),
                ("I-abcd", 6),
            ],
        },
        "verify-cli": 4,
    },
}

MOTZKIN = combinatorics.motzkin_numbers(64)  # the benchmark's own recurrence
SUITES = ("statistics", "paths", "bijections", "qpoly", "distributions")
PATH_ENUM_N = 12  # the paths suite's own bound


def coefficients(poly) -> list[int]:
    """A polynomial's coefficients, whether it is a UniPoly or a MultiPoly."""
    if hasattr(poly, "terms_sorted"):
        return [c for _, c in poly.terms_sorted()]
    return list(poly.coeffs)


def at_one(poly) -> int:
    """The polynomial with every variable set to 1."""
    return sum(coefficients(poly))


def run_cli(args) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_BOOT, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    CLI_PEAKS_KB.append(int(proc.stderr.split("VmHWM:")[-1].split()[0]))
    return proc.returncode, proc.stdout


class Batch:
    """Times ops, keeps their outputs, and tallies failed checks."""

    def __init__(self, tracer, reference: dict[str, str] | None):
        self.tracer = tracer
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.ops: list[list] = []
        self.outputs: dict[str, object] = {}
        self.failures: list[str] = []
        self.failed_labels: set[str] = set()
        self.counts: Counter = Counter()
        self.cal: float | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else NO_SPAN

    def op(self, label: str, span_name: str, fn):
        """Run fn() as one op; record its seconds and the host calibration
        around it (the mean of the loop's time just before and just after)."""
        before = self.cal if self.cal is not None else calibrate()
        start = time.perf_counter()
        try:
            with self.span(span_name):
                out = fn()
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.fail(label, f"raised {exc!r}")
            out = None
        secs = time.perf_counter() - start
        self.cal = calibrate()
        self.ops.append([label, secs, (before + self.cal) / 2])
        self.outputs[label] = out
        return out

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")
        self.failed_labels.add(label)

    def expect(self, label: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(label, message)

    def expect_digest(self, label: str, text: str) -> None:
        """Compare an output's canonical text with the recorded digest."""
        d = self.digests[label] = hashlib.sha256(text.encode()).hexdigest()
        if self.reference is not None:
            self.expect(label, self.reference.get(label) == d, "digest differs from reference")


# --- enum-families -----------------------------------------------------------


def run_enum(b: Batch, cases) -> None:
    for fam, n, stat in cases:
        cls, spec = cn.PermClass.from_name(fam), cn.StatSpec.from_name(stat)
        b.op(
            f"distribution {fam} n={n} {stat}",
            f"oracle.distribution.{fam}",
            lambda: cn.distribution(cls, n, spec, allow_large=True),
        )


def check_enum(b: Batch, cases) -> None:
    for fam, n, stat in cases:
        label = f"distribution {fam} n={n} {stat}"
        poly = b.outputs[label]
        if poly is not None:
            b.expect_digest(label, str(poly))
            b.expect(label, at_one(poly) == MOTZKIN[n], "family size is not M_n")


def trace_enum(b: Batch, cases) -> None:
    # distribution() drains enumerate_class internally; draining it again on
    # its own splits the call into enumeration and tally.
    for fam, n, stat in cases:
        cls = cn.PermClass.from_name(fam)
        label = f"enumerate_class {fam} n={n} for {stat}"
        members = b.op(
            label,
            f"permutations.enumerate_class.{fam}",
            lambda: sum(1 for _ in cn.enumerate_class(n, cls)),
        )
        b.counts["permutations.members"] += members or 0
        b.expect(label, members == MOTZKIN[n], f"{members} members, not M_n")


# --- qseries -----------------------------------------------------------------


def run_qseries(b: Batch, sizes) -> None:
    for name, n in sizes["polys"]:
        b.op(f"{name}({n})", f"qmotzkin.{name}", lambda: getattr(cn, name)(n))
    for preset, order in sizes["series"]:
        b.op(
            f"named_series {preset} order={order}",
            f"series.{preset}",
            lambda: cn.named_series(preset, order),
        )


def check_qseries(b: Batch, sizes) -> None:
    for name, n in sizes["polys"]:
        label = f"{name}({n})"
        out = b.outputs[label]
        if out is None:
            continue
        if name == "h_tableau":
            b.expect_digest(label, "\n".join(" | ".join(map(str, row)) for row in out))
            ok = [at_one(row[0]) for row in out] == MOTZKIN[: n + 1]
        else:
            b.expect_digest(label, str(out))
            ok = at_one(out) == MOTZKIN[n]
        b.expect(label, ok, "q=1 does not give the Motzkin number")
    for preset, order in sizes["series"]:
        label = f"named_series {preset} order={order}"
        out = b.outputs[label]
        if out is None:
            continue
        b.expect_digest(label, "\n".join(map(str, out.coeffs)))
        ok = [at_one(c) for c in out.coeffs] == MOTZKIN[: order + 1]
        b.expect(label, ok, "coefficients at 1 are not the Motzkin numbers")


def trace_qseries(b: Batch, sizes) -> None:
    outs = b.outputs
    n = dict(sizes["polys"])["q_motzkin"]
    polys = [outs[f"q_motzkin({n})"], outs[f"q_motzkin_tilde({n})"]]
    polys += [p for row in outs[f"h_tableau({dict(sizes['polys'])['h_tableau']})"] for p in row]
    b.counts["qmotzkin.coeff_bits"] = sum(
        c.bit_length() for p in polys for c in coefficients(p)
    )
    b.counts["series.terms"] = sum(
        len(coefficients(c))
        for preset, order in sizes["series"]
        for c in outs[f"named_series {preset} order={order}"].coeffs
    )

    # The recurrence's operand pairs for q_motzkin(n), cached by the core run.
    uni = [(cn.q_motzkin(k), cn.q_motzkin(n - 2 - k)) for k in range(n - 1)]
    label = f"uni_mul pairs of q_motzkin({n})"
    prods = b.op(label, "polynomials.uni_mul", lambda: [x * y for x, y in uni])
    if prods is not None:
        b.expect(
            label,
            [at_one(p) for p in prods]
            == [MOTZKIN[k] * MOTZKIN[n - 2 - k] for k in range(n - 1)],
            "products at q=1 disagree",
        )
        count_products(b, uni, prods)

    order = dict(sizes["series"])["I4321-joint"]
    joint = outs[f"named_series I4321-joint order={order}"].coeffs
    multi = [(joint[k], joint[order - k]) for k in range(order + 1)]
    label = f"multi_mul pairs of I4321-joint order={order}"
    prods = b.op(label, "polynomials.multi_mul", lambda: [x * y for x, y in multi])
    if prods is not None:
        b.expect(
            label,
            [at_one(p) for p in prods]
            == [MOTZKIN[k] * MOTZKIN[order - k] for k in range(order + 1)],
            "products at 1 disagree",
        )
        count_products(b, multi, prods)


def count_products(b: Batch, pairs, prods) -> None:
    """Computed cost of a list of products: schoolbook coefficient
    multiplications, and bits of the operands and results."""
    for (x, y), p in zip(pairs, prods):
        cx, cy, cp = coefficients(x), coefficients(y), coefficients(p)
        b.counts["polynomials.mul_coeff_ops"] += len(cx) * len(cy)
        b.counts["polynomials.mul_bits"] += sum(c.bit_length() for c in cx + cy + cp)


# --- objects -----------------------------------------------------------------


def pipeline(b: Batch, path: str, perm: tuple[int, ...]) -> dict:
    sp = b.span
    out = {}
    with sp("paths.path_statistics"):
        out["stats"] = cn.path_statistics(path)
    with sp("paths.matchings"):
        out["seq"] = cn.sequential_matching(path)
        out["tun"] = cn.tunnel_matching(path)
    with sp("paths.strip_decomposition"):
        strips = out["strips"] = cn.strip_decomposition(path)
    with sp("paths.path_from_head_tail"):
        out["rebuilt"] = cn.path_from_head_tail(strips, len(path))
    with sp("bijections.phi1"):
        img1 = out["phi1"] = cn.phi1(path, check=False)
    with sp("bijections.phi2"):
        img2 = out["phi2"] = cn.phi2(path, check=False)
    with sp("bijections.phi3"):
        img3 = out["phi3"] = cn.phi3(path, check=False)
    with sp("permutations.pattern_tests"):
        out["classes"] = (
            cn.in_class(img1, cn.PermClass.I4321),
            cn.in_class(img2, cn.PermClass.I3412),
            cn.in_class(img3, cn.PermClass.S321_B3142),
        )
    with sp("bijections.involution_shape_path"):
        out["inv12"] = (cn.involution_shape_path(img1), cn.involution_shape_path(img2))
    with sp("bijections.phi3_inverse"):
        out["inv3"] = cn.phi3_inverse(img3)
    with sp("permutations.perm_statistics"):
        out["perm"] = cn.perm_statistics(perm)
    with sp("permutations.head_tail"):
        out["head_tail"] = cn.head_tail_pairs(perm)
    with sp("permutations.pattern_tests"):
        out["patterns"] = (cn.contains_321(perm), cn.contains_4321(perm), cn.contains_3412(perm))
    return out


def run_objects(b: Batch, objects) -> None:
    for i, (path, perm) in enumerate(objects):
        b.op(f"object {i} n={len(path)}", "objects.op", lambda: pipeline(b, path, perm))


def own_matchings(path: str):
    ups = [i for i, ch in enumerate(path, 1) if ch == "u"]
    downs = [i for i, ch in enumerate(path, 1) if ch == "d"]
    stack, tunnels = [], []
    for i, ch in enumerate(path, 1):
        if ch == "u":
            stack.append(i)
        elif ch == "d":
            tunnels.append((stack.pop(), i))
    return tuple(zip(ups, downs)), tuple(sorted(tunnels))


def check_objects(b: Batch, objects) -> None:
    cb = combinatorics
    for i, (path, perm) in enumerate(objects):
        label = f"object {i} n={len(path)}"
        out = b.outputs[label]
        if out is None:
            continue
        want = cb.path_stats(path)
        s = out["stats"]
        got = {"hor": s.hor, "up": s.up, "sh_u": s.sh_u, "sh_h": s.sh_h, "area": s.area}
        b.expect(label, got == want, f"path statistics {got} != {want}")
        b.expect(label, (out["seq"], out["tun"]) == own_matchings(path), "matchings differ")
        b.expect(label, len(out["strips"]) == want["up"], "one strip per up step")
        b.expect(label, out["rebuilt"] == path, "path_from_head_tail(strips) != path")
        hor, up, sh_u, sh_h = want["hor"], want["up"], want["sh_u"], want["sh_h"]
        transports = (
            ("phi1", ("fp", "exc", "crs", "nes"), (hor, up, 2 * sh_u, sh_h)),
            ("phi2", ("fp", "exc", "crs", "nes"), (hor, up, 0, 2 * sh_u + sh_h)),
            ("phi3", ("exc", "crs", "nes", "inv"), (up, sh_u + sh_h, 0, want["area"] - sh_u)),
        )
        for name, keys, expected in transports:
            st = cb.perm_stats(out[name])
            got_t = tuple(st[k] for k in keys)
            b.expect(label, got_t == expected, f"{name} transport {got_t} != {expected}")
        img1, img2, img3 = out["phi1"], out["phi2"], out["phi3"]
        b.expect(label, cb.is_involution(img1) and cb.longest_decreasing(img1) < 4,
                 "phi1 image is not a 4321-avoiding involution")
        b.expect(label, cb.is_involution(img2) and not cb.has_3412(img2),
                 "phi2 image is not a 3412-avoiding involution")
        b.expect(label, cb.longest_decreasing(img3) < 3, "phi3 image contains 321")
        b.expect(label, out["classes"] == (True, True, True), "in_class rejected an image")
        b.expect(label, out["inv12"] == (path, path),
                 "involution_shape_path is not the phi1/phi2 inverse")
        b.expect(label, out["inv3"] == path, "phi3_inverse(phi3(p)) != p")

        own = cb.perm_stats(perm)
        r = out["perm"]
        got_p = {"fp": r.fp, "exc": r.exc, "crs": r.crs, "nes": r.nes, "inv": r.inv}
        b.expect(label, got_p == own, f"perm statistics {got_p} != {own}")
        b.expect(label, own["inv"] == own["exc"] + own["crs"] + 2 * own["nes"],
                 "inv != exc + crs + 2*nes")
        b.expect(label, sum(h - t + 1 for h, t in out["head_tail"]) == own["inv"],
                 "head/tail pairs do not add up to inv")
        lds = cb.longest_decreasing(perm)
        want_pat = (lds >= 3, lds >= 4, cb.has_3412(perm))
        b.expect(label, out["patterns"] == want_pat,
                 f"pattern tests {out['patterns']} != {want_pat}")


# --- verify-cli ----------------------------------------------------------------


def cli_commands(max_n: int):
    return [("verify", "--suite", "all", "--max-n", str(max_n)), *CLI_CORPUS]


def run_verify_cli(b: Batch, max_n: int) -> None:
    for args in cli_commands(max_n):
        span = "cli.verify" if args[0] == "verify" else "cli.corpus"
        b.op("crossnest " + " ".join(args), span, lambda: run_cli(args))


def check_verify_cli(b: Batch, max_n: int) -> None:
    for args in cli_commands(max_n):
        label = "crossnest " + " ".join(args)
        out = b.outputs[label]
        if out is None:
            continue
        rc, stdout = out
        b.expect_digest(label, stdout)
        b.expect(label, rc == 0, f"exit code {rc}")
        lines = stdout.splitlines()
        if args[0] == "verify":
            tail = lines[-1].split() if lines else []
            passed, _, total = (tail[2] if len(tail) > 2 else "").partition("/")
            b.expect(label, passed == total and passed.isdigit() and int(total) > 0,
                     f"summary line {lines[-1:]!r}")
            b.expect(label, not any(ln.startswith("FAIL") for ln in lines), "a check failed")
        if args[0] == "oeis-check":
            want = "match; values " + ",".join(map(str, MOTZKIN[:31]))
            b.expect(label, lines[:1] == [want], "Motzkin values differ")


def trace_verify_cli(b: Batch, max_n: int) -> None:
    for k in range(3):
        label = f"startup {k}"
        out = b.op(label, "cli.startup", lambda: run_cli(CLI_STARTUP))
        b.expect(label, out is not None and out[0] == 0, "stats perm 1 failed")
    for suite in SUITES:
        label = f"run_suite {suite} {max_n}"
        report = b.op(label, f"oracle.suite.{suite}", lambda: cn.run_suite(suite, max_n))
        if report is not None:
            b.counts["oracle.checks"] += len(report.checks)
            b.expect(label, report.passed and bool(report.checks), "suite did not pass")
    label = f"enumerate_paths {PATH_ENUM_N}"
    count = b.op(label, "paths.enumerate_paths",
                 lambda: sum(1 for _ in cn.enumerate_paths(PATH_ENUM_N)))
    b.expect(label, count == MOTZKIN[PATH_ENUM_N], f"{count} paths, not M_n")


# --- main --------------------------------------------------------------------


# workload -> (run the batch, check its outputs, traced-only extras)
PHASES = {
    "enum-families": (run_enum, check_enum, trace_enum),
    "qseries": (run_qseries, check_qseries, trace_qseries),
    "objects": (run_objects, check_objects, None),
    "verify-cli": (run_verify_cli, check_verify_cli, trace_verify_cli),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(PHASES))
    ap.add_argument("--scale", default="full", choices=tuple(SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--reference", default="", help="digest file; empty skips digests")
    args = ap.parse_args()

    # Set-up: the imports above, the inputs and the reference digests.
    w = args.workload
    if w == "objects":
        inputs = [(path, tuple(perm)) for path, perm in json.load(sys.stdin)]
        sizes = [len(path) for path, _ in inputs]
    else:
        inputs = sizes = SIZES[args.scale][w]
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh).get(args.scale, {}).get(w, {})
    ready = time.monotonic()

    run, check, extras = PHASES[w]
    tracer = Tracer(args.run_id) if args.trace else None
    b = Batch(tracer, reference)
    with b.span(f"batch.{w}"):
        run(b, inputs)
    core_ops = len(b.ops)
    check(b, inputs)
    if tracer is not None and extras is not None and not b.failed_labels:
        b.cal = None
        extras(b, inputs)

    # Peak RSS of whatever ran crossnest: on verify-cli the largest CLI
    # child, since the worker there only waits and its own floor is higher.
    if w == "verify-cli":
        rss = max(CLI_PEAKS_KB, default=0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ready": ready,
        "ops": b.ops[:core_ops],
        "attempted": len(b.ops),
        "failed": len(b.failed_labels),
        "failures": b.failures[:20],
        "digests": b.digests,
        "rss_kb": rss,
        "sizes": sizes,
        "spans": tracer.spans if tracer else [],
        "counts": dict(b.counts),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
