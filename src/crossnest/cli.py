"""Command-line interface.

Exit codes: 0 on success, 1 on a verification failure, an invalid
object (bad permutation word, bad path word, b-file mismatch), a negative
size or a size refused by the enumeration guard, 2 on usage errors.  A verification
failure is any check that is not ``pass``: ``FAIL`` (a counterexample,
or an exception raised by the check) or ``empty`` (it compared nothing,
as the tableau checks do at ``--max-n 0``).  Identical argv produces
byte-identical standard output, except that JSON verification reports
embed wall-clock fields.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bijections import involution_shape_path, phi1, phi2, phi3, phi3_inverse
from .paths import parse_path, path_statistics
from .permutations import (
    PermClass,
    StatSpec,
    cycle_string,
    distribution,
    in_class,
    one_line,
    parse_permutation,
    perm_statistics,
)
from .polynomials import _check_size
from .qmotzkin import h_tableau, motzkin_number, q_motzkin, q_motzkin_tilde
from .series import PRESETS, named_series

_CLASS_NAMES = tuple(c.value for c in PermClass)
_STAT_NAMES = tuple(s.value for s in StatSpec)
# oracle.SUITES, written out so that building the parser does not load the
# oracle; a test keeps the two equal.
_SUITES = ("all", "statistics", "paths", "bijections", "qpoly", "distributions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnest",
        description="Crossings and nestings on Motzkin paths and "
        "pattern-restricted permutations, with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="statistics of one object")
    p_stats.add_argument("kind", choices=("perm", "path"))
    p_stats.add_argument("object", nargs="+", help="one-line word or path word")

    p_map = sub.add_parser("map", help="apply one of the bijections")
    p_map.add_argument("which", choices=("phi1", "phi2", "phi3"))
    p_map.add_argument(
        "--inverse", action="store_true", help="map a permutation back to a path"
    )
    p_map.add_argument("object", nargs="+", help="path word, or permutation with --inverse")

    p_dist = sub.add_parser(
        "dist", help="distribution of a statistic over a family, by enumeration"
    )
    p_dist.add_argument("--class", dest="family", required=True, choices=_CLASS_NAMES)
    p_dist.add_argument("--stat", required=True, choices=_STAT_NAMES)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--json", action="store_true")

    p_poly = sub.add_parser(
        "poly", help="q-Motzkin polynomial, column 0 of its cut tableau"
    )
    p_poly.add_argument("which", choices=("M", "Mtilde"))
    p_poly.add_argument("--n", type=int, required=True)

    p_tab = sub.add_parser("tableau", help="tableau rows with levels q^(i-1)")
    p_tab.add_argument("--n", type=int, required=True)

    p_series = sub.add_parser("series", help="expand a preset generating series")
    p_series.add_argument("--preset", required=True, choices=tuple(sorted(PRESETS)))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=_SUITES)
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")

    p_oeis = sub.add_parser(
        "oeis-check", help="compare Motzkin numbers against a local b-file"
    )
    p_oeis.add_argument("--bfile", required=True)
    p_oeis.add_argument("--max-n", type=int, required=True)

    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    text = " ".join(args.object)
    if args.kind == "perm":
        w = parse_permutation(text)
        record = perm_statistics(w)._asdict()
        record["involution"] = "true" if record.pop("is_involution") else "false"
        fields = {"n": len(w), "word": one_line(w), "cycles": cycle_string(w), **record}
    else:
        p = parse_path(text)
        fields = {"n": len(p), "word": p, **path_statistics(p)._asdict()}
    for name, value in fields.items():
        # A set prints as its elements, space-separated after the colon.
        print(f"{name}:", *(value if isinstance(value, tuple) else (value,)))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    text = " ".join(args.object)
    if args.inverse:
        w = parse_permutation(text)
        if args.which == "phi3":
            print(phi3_inverse(w))
            return 0
        cls = PermClass.I4321 if args.which == "phi1" else PermClass.I3412
        if not in_class(w, cls):
            raise ValueError(
                f"permutation is outside the {cls.value} class: {one_line(w)}"
            )
        print(involution_shape_path(w))
        return 0
    p = parse_path(text)
    fn = {"phi1": phi1, "phi2": phi2, "phi3": phi3}[args.which]
    print(one_line(fn(p)))
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    poly = distribution(
        PermClass.from_name(args.family),
        args.n,
        StatSpec.from_name(args.stat),
    )
    if args.json:
        import json

        data = {
            "class": args.family,
            "stat": args.stat,
            "n": args.n,
            "vars": list(poly.variables),
            "poly": str(poly),
        }
        print(json.dumps(data))
    else:
        print(poly)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    fn = q_motzkin if args.which == "M" else q_motzkin_tilde
    print(fn(args.n))
    return 0


def _cmd_tableau(args: argparse.Namespace) -> int:
    for k, row in enumerate(h_tableau(args.n)):
        print(f"n={k}: " + " | ".join(str(p) for p in row))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    series = named_series(args.preset, args.order)
    if args.json:
        import json

        print(json.dumps(series.to_json_dict()))
    else:
        for n, coeff in enumerate(series.coeffs):
            print(f"t^{n}: {coeff}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import run_suite

    report = run_suite(args.suite, args.max_n)
    if args.json:
        import json

        print(json.dumps(report.to_json_dict(), ensure_ascii=False))
    else:
        for check in report.checks:
            print(f"{check.status} {check.name} ({check.bounds})")
            if check.counterexample is not None:
                print(f"  counterexample: {check.counterexample}")
        good = sum(1 for c in report.checks if c.passed)
        print(f"suite {report.suite}: {good}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


def _read_bfile(path: str) -> dict[int, int]:
    values: dict[int, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for ln, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}: parse error at line {ln}: expected 'n value'"
                    )
                try:
                    n, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValueError(
                        f"{path}: parse error at line {ln}: non-integer field"
                    ) from None
                if n in values:
                    raise ValueError(
                        f"{path}: parse error at line {ln}: duplicate index {n}"
                    )
                values[n] = v
    except OSError as exc:
        raise ValueError(f"cannot read b-file: {exc}") from None
    return values


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    # range(max_n + 1) is empty below 0: no call below would refuse it.
    _check_size(args.max_n, "--max-n")
    values = _read_bfile(args.bfile)
    gaps = []
    for n in range(args.max_n + 1):
        computed = motzkin_number(n)
        if n not in values:
            gaps.append(n)
            continue
        if values[n] != computed:
            raise ValueError(
                f"mismatch at n={n}: b-file has {values[n]}, computed {computed}"
            )
    print(
        "match; values "
        + ",".join(str(motzkin_number(n)) for n in range(args.max_n + 1))
    )
    if gaps:
        print("gaps: " + " ".join(str(n) for n in gaps))
    return 0


_HANDLERS = {
    "stats": _cmd_stats,
    "map": _cmd_map,
    "dist": _cmd_dist,
    "poly": _cmd_poly,
    "tableau": _cmd_tableau,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "oeis-check": _cmd_oeis_check,
}


def cmd_dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand, returning the exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv))
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
