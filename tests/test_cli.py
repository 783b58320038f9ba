import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_permutations import pair_loop_statistics
from test_qmotzkin import (
    SLOT_BOUNDARY_SIZES,
    first_exponent,
    product_recurrence,
    tilde_exponent,
)

from crossnest.cli import (
    _CLASS_NAMES,
    _STAT_NAMES,
    _SUITES,
    build_parser,
    cmd_dispatch,
)
from crossnest.oracle import SUITES, CheckResult, VerificationReport
from crossnest.series import PRESETS

BFILE = str(Path(__file__).parent / "data" / "b001006.txt")

SHOWCASE_PERM = ("stats", "perm", "4", "6", "2", "9", "8", "1", "7", "3", "10", "5")
SHOWCASE_PATH = "uuhuudddudduuhdd"


def run(capsys, *argv):
    code = cmd_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_perm_exact_output(self, capsys):
        code, out, err = run(capsys, *SHOWCASE_PERM)
        assert code == 0
        assert err == ""
        assert out == (
            "n: 10\n"
            "word: 4 6 2 9 8 1 7 3 10 5\n"
            "cycles: (1 4 9 10 5 8 3 2 6)(7)\n"
            "exc: 5\n"
            "fp: 1\n"
            "crs: 7\n"
            "nes: 4\n"
            "inv: 20\n"
            "exc_set: 1 2 4 5 9\n"
            "des_set: 2 4 5 7 9\n"
            "involution: false\n"
        )

    def test_perm_long_word_matches_pair_loop(self, capsys):
        w = tuple(random.Random(13).sample(range(1, 1001), 1000))
        code, out, _ = run(capsys, "stats", "perm", *map(str, w))
        assert code == 0
        fields = dict(line.partition(": ")[::2] for line in out.splitlines())
        expected = pair_loop_statistics(w)
        assert [fields[k] for k in ("fp", "exc", "crs", "nes", "inv")] == [
            str(v) for v in expected]

    def test_path_exact_output(self, capsys):
        code, out, err = run(capsys, "stats", "path", SHOWCASE_PATH)
        assert code == 0
        assert out == (
            "n: 16\n"
            f"word: {SHOWCASE_PATH}\n"
            "hor: 2\n"
            "up: 7\n"
            "down: 7\n"
            "sh_u: 8\n"
            "sh_h: 4\n"
            "sh_d: 15\n"
            "area: 27\n"
        )

    def test_perm_word_in_pieces(self, capsys):
        # nargs="+" lets the shell split the word for us
        code, out, _ = run(capsys, "stats", "perm", "2 1", "3")
        assert code == 0
        assert "word: 2 1 3\n" in out

    def test_invalid_perm(self, capsys):
        code, out, err = run(capsys, "stats", "perm", "1", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_invalid_path(self, capsys):
        code, _, err = run(capsys, "stats", "path", "udx")
        assert code == 1
        assert "illegal character" in err


class TestMap:
    def test_phi3_forward(self, capsys):
        code, out, _ = run(capsys, "map", "phi3", SHOWCASE_PATH)
        assert code == 0
        assert out == "6 1 7 2 3 8 4 10 5 11 9 15 12 16 13 14\n"

    def test_phi1_phi2_small(self, capsys):
        for which in ("phi1", "phi2"):
            code, out, _ = run(capsys, "map", which, "uhd")
            assert code == 0
            assert out == "3 2 1\n"

    def test_phi3_inverse_roundtrip(self, capsys):
        code, out, _ = run(capsys, "map", "phi3", SHOWCASE_PATH)
        word = out.split("\n")[0].split()
        code, out, _ = run(capsys, "map", "phi3", "--inverse", *word)
        assert code == 0
        assert out == SHOWCASE_PATH + "\n"

    def test_phi1_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "phi1", "--inverse", "3", "2", "1")
        assert code == 0
        assert out == "uhd\n"

    def test_phi2_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "phi2", "--inverse", "4", "3", "2", "1")
        assert code == 0
        assert out == "uudd\n"

    def test_phi1_inverse_rejects_pattern(self, capsys):
        # 4321 is an involution but carries the forbidden pattern
        code, out, err = run(capsys, "map", "phi1", "--inverse", "4", "3", "2", "1")
        assert code == 1
        assert out == ""
        assert "outside the I4321 class" in err

    def test_phi1_inverse_rejects_non_involution(self, capsys):
        code, _, err = run(capsys, "map", "phi1", "--inverse", "2", "3", "1")
        assert code == 1
        assert "error: " in err


class TestDist:
    def test_empty_family(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--class", "I4321", "--stat", "crs+nes", "--n", "0"
        )
        assert code == 0
        assert out == "1\n"

    def test_small_distribution(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--class", "I4321", "--stat", "crs+nes", "--n", "3"
        )
        assert code == 0
        assert out == "3 + q\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "dist", "--class", "S321B3142", "--stat", "crs", "--n", "3", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "class": "S321B3142",
            "stat": "crs",
            "n": 3,
            "vars": ["q"],
            "poly": "3 + q",
        }

    def test_negative_n(self, capsys):
        code, out, err = run(capsys, "dist", "--class", "all", "--stat", "crs", "--n", "-1")
        assert (code, out) == (1, "")
        assert err == "error: n must be nonnegative\n"

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, "dist", "--class", "all", "--stat", "crs", "--n", "13")
        assert code == 1
        assert "CROSSNEST_ENUM_LIMIT" in err

    def test_unknown_class_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(("dist", "--class", "D8", "--stat", "crs", "--n", "3"))
        assert exc.value.code == 2


class TestPoly:
    def test_mtilde(self, capsys):
        code, out, _ = run(capsys, "poly", "Mtilde", "--n", "4")
        assert code == 0
        assert out == "5 + 3*q + q^2\n"

    def test_m(self, capsys):
        code, out, _ = run(capsys, "poly", "M", "--n", "4")
        assert code == 0
        assert out == "5 + 2*q + 2*q^2\n"

    def test_base_case(self, capsys):
        code, out, _ = run(capsys, "poly", "M", "--n", "0")
        assert (code, out) == (0, "1\n")

    def test_negative(self, capsys):
        code, out, err = run(capsys, "poly", "M", "--n", "-2")
        assert (code, out) == (1, "")
        assert err == "error: n must be nonnegative\n"


class TestTableau:
    def test_small_tableau(self, capsys):
        code, out, _ = run(capsys, "tableau", "--n", "2")
        assert code == 0
        assert out == ("n=0: 1\n" "n=1: 1 | 1\n" "n=2: 2 | 1 + q | q\n")

    def test_negative(self, capsys):
        code, out, err = run(capsys, "tableau", "--n", "-1")
        assert (code, out) == (1, "")
        assert err == "error: n_max must be nonnegative\n"


class TestSeries:
    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "series", "--preset", "motzkin", "--order", "4")
        assert code == 0
        assert out == ("t^0: 1\n" "t^1: 1\n" "t^2: 2\n" "t^3: 4\n" "t^4: 9\n")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "series", "--preset", "M", "--order", "3", "--json")
        assert code == 0
        assert json.loads(out) == {
            "order": 3,
            "vars": ["q"],
            "coeffs": ["1", "1", "2", "3 + q"],
        }

    def test_main12_lhs_matches_rhs_and_recurrence(self, capsys):
        # Three algorithms: the nested fraction, the J-fraction tableau and
        # the Mtilde recurrence.
        outs = [
            run(capsys, "series", "--preset", preset, "--order", "14")
            for preset in ("main12-lhs", "main12-rhs", "Mtilde")
        ]
        assert outs[0][0] == 0
        assert outs[0][1].splitlines() == outs[1][1].splitlines()
        assert outs[0][1].splitlines() == outs[2][1].splitlines()
        assert len(outs[0][1].splitlines()) == 15
        code, out, _ = run(
            capsys, "series", "--preset", "main12-lhs", "--order", "14", "--json"
        )
        assert code == 0
        assert json.loads(out)["vars"] == ["q"]

    def test_negative_order(self, capsys):
        code, out, err = run(capsys, "series", "--preset", "M", "--order", "-1")
        assert (code, out) == (1, "")
        assert err == "error: order must be nonnegative\n"

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(("series", "--preset", "nope", "--order", "3"))
        assert exc.value.code == 2


class TestVerify:
    def test_plain_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paths", "--max-n", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("pass ") for line in lines[:-1])
        total = len(lines) - 1
        assert lines[-1] == f"suite paths: {total}/{total} checks passed"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "qpoly", "--max-n", "2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"suite", "max_n", "checks", "elapsed_ms"}
        assert all(check["pass"] for check in data["checks"])

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = VerificationReport(
            suite="paths",
            max_n=3,
            checks=(
                CheckResult(
                    name="made-up",
                    bounds="n≤3",
                    passed=False,
                    counterexample="n=2: 0 != 1",
                    elapsed_ms=0,
                ),
            ),
            elapsed_ms=0,
        )
        # The CLI imports run_suite from the oracle when verify runs.
        monkeypatch.setattr("crossnest.oracle.run_suite", lambda suite, max_n: failing)
        code, out, _ = run(capsys, "verify", "--suite", "paths", "--max-n", "3")
        assert code == 1
        assert out == (
            "FAIL made-up (n≤3)\n"
            "  counterexample: n=2: 0 != 1\n"
            "suite paths: 0/1 checks passed\n"
        )

    def test_negative_max_n(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "paths", "--max-n", "-1")
        assert (code, out) == (1, "")
        assert err == "error: max_n must be nonnegative\n"

    def test_all_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "8")
        assert code == 0
        last = out.strip().split("\n")[-1]
        assert re.fullmatch(r"suite all: (\d+)/\1 checks passed", last)


class TestOeisCheck:
    def test_bundled_bfile(self, capsys):
        code, out, _ = run(capsys, "oeis-check", "--bfile", BFILE, "--max-n", "10")
        assert code == 0
        assert out == "match; values 1,1,2,4,9,21,51,127,323,835,2188\n"

    def test_gaps_reported(self, capsys):
        code, out, _ = run(capsys, "oeis-check", "--bfile", BFILE, "--max-n", "32")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("match; values 1,1,2,")
        assert lines[1] == "gaps: 31 32"

    def test_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2\n")
        code, out, err = run(capsys, "oeis-check", "--bfile", str(bad), "--max-n", "1")
        assert code == 1
        assert out == ""
        assert "mismatch at n=1: b-file has 2, computed 1" in err

    def test_malformed_lines(self, capsys, tmp_path):
        cases = {
            "0 1\nbogus\n": "parse error at line 2",
            "0 1\n1 x\n": "parse error at line 2",
            "0 1\n0 1\n": "duplicate index 0",
        }
        for text, needle in cases.items():
            bad = tmp_path / "bad.txt"
            bad.write_text(text)
            code, _, err = run(capsys, "oeis-check", "--bfile", str(bad), "--max-n", "0")
            assert code == 1
            assert needle in err

    def test_negative_max_n(self, capsys):
        # The loop over range(max_n + 1) would be empty and print a match.
        code, out, err = run(capsys, "oeis-check", "--bfile", BFILE, "--max-n", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --max-n must be nonnegative\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oeis-check", "--bfile", str(tmp_path / "nope.txt"), "--max-n", "1"
        )
        assert code == 1
        assert "cannot read b-file" in err


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(())
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(("frobnicate",))
        assert exc.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(("dist", "--class", "all", "--stat", "crs"))
        assert exc.value.code == 2

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["poly", "M", "--n", "3"])
        assert args.command == "poly"
        assert args.n == 3

    def test_suite_choices_are_the_oracle_suites(self):
        # The parser spells the suites out so that it need not load the oracle.
        assert _SUITES == SUITES


# Each subcommand's positional arguments and options, with the values worth
# drawing for each (None for a switch); sizes and the other words of _WORDS
# are drawn as well.
_OBJECTS = ("", "uhd", "uudd", "uhud", "udx", "1", "2 1", "1 3", "3 1 2",
            "2 1 4 3", "4 3 2 1", "1 2 3 4 5 6")
_BFILES = (BFILE, str(Path(BFILE).with_name("missing.txt")))
_POSITIONALS = {
    "stats": (("perm", "path"), _OBJECTS),
    "map": (("phi1", "phi2", "phi3"), _OBJECTS),
    "poly": (("M", "Mtilde"),),
}
_OPTIONS = {
    "stats": {},
    "map": {"--inverse": None},
    "dist": {"--class": _CLASS_NAMES, "--stat": _STAT_NAMES, "--n": (),
             "--json": None},
    "poly": {"--n": ()},
    "tableau": {"--n": ()},
    "series": {"--preset": tuple(sorted(PRESETS)), "--order": (), "--json": None},
    "verify": {"--suite": SUITES, "--max-n": (), "--json": None},
    "oeis-check": {"--bfile": _BFILES, "--max-n": ()},
}
_FLAGS = sorted({flag for options in _OPTIONS.values() for flag in options})
_SIZES = tuple(str(n) for n in range(-2, 7))
_WORDS = ("perm", "path", "phi1", "phi2", "phi3", "M", "Mtilde", *_CLASS_NAMES,
          *_STAT_NAMES, *sorted(PRESETS), *SUITES, *_OBJECTS, *_SIZES)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    # Each argument of the subcommand is left out, and each value drawn from
    # all of _WORDS, one time in five; a stray word and a stray flag of any
    # subcommand each join one time in five.
    def often():
        return draw(st.integers(0, 4)) > 0

    def value(pool):
        return draw(st.sampled_from(pool if often() else _WORDS))

    words = [value(pool) for pool in _POSITIONALS.get(command, ()) if often()]
    if not often():
        words.append(draw(st.sampled_from(_WORDS)))
    flags = [flag for flag in options if often()]
    if not often():
        flags.append(draw(st.sampled_from(_FLAGS)))
    parts = []
    for flag in flags:
        pool = options.get(flag, ())
        if pool is None:
            parts.append([flag])
        elif flag == "--bfile":
            parts.append([flag, draw(st.sampled_from(_BFILES))])
        else:
            parts.append([flag, value(pool or _SIZES)])
    # Options may come in any order, but positionals keep theirs.
    return [command, *words, *(token for part in draw(st.permutations(parts))
                               for token in part)]


class TestFuzzedArguments:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_exit_codes(self, argv):
        # Every argv ends in 0, 1 or a usage error; a 1 outside verify says
        # why on stderr.
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cmd_dispatch(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert code in (0, 1), argv
        if code == 1 and argv[0] != "verify":
            assert "\nerror: " in "\n" + err.getvalue(), argv


class TestByteStability:
    def test_repeated_runs_identical(self, capsys):
        argvs = [
            ("dist", "--class", "I3412", "--stat", "nes", "--n", "5"),
            ("series", "--preset", "A", "--order", "6"),
            ("verify", "--suite", "qpoly", "--max-n", "2"),
            ("tableau", "--n", "4"),
        ]
        for argv in argvs:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


class TestModuleEntryPoint:
    def run_module(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "crossnest.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_verify_reports_and_fails(self):
        proc = self.run_module("verify", "--suite", "all", "--max-n", "0")
        assert proc.stdout.splitlines()[-1] == "suite all: 29/31 checks passed"
        assert proc.returncode == 1

    def test_poly(self):
        proc = self.run_module("poly", "M", "--n", "4")
        assert proc.stdout == "5 + 2*q + 2*q^2\n"
        assert proc.stderr == ""
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "which, n, exponent",
        [("M", 24, first_exponent), ("Mtilde", 45, tilde_exponent)],
    )
    def test_poly_at_slot_boundary(self, which, n, exponent):
        # A fresh process starts from a cold cache, so the cut tableau runs
        # its rows from row 0 at the first size of a new slot width.
        assert n in SLOT_BOUNDARY_SIZES
        proc = self.run_module("poly", which, "--n", str(n))
        assert proc.stdout == f"{product_recurrence(n, exponent)[n]}\n"
        assert proc.stderr == ""
        assert proc.returncode == 0
