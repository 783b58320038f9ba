import itertools
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_permutations import pair_loop_statistics

import crossnest.oracle as oracle_module
import crossnest.permutations as permutations_module
import crossnest.qmotzkin as qmotzkin_module
from crossnest.bijections import phi1, phi2, phi3_inverse
from crossnest.cli import cmd_dispatch
from crossnest.oracle import (
    _CHECKS,
    DEFAULT_ENUM_LIMIT,
    ENUM_LIMIT_ENV,
    SUITES,
    SizeLimitError,
    StatSpec,
    distribution,
    run_suite,
)
from crossnest.paths import enumerate_paths
from crossnest.permutations import (
    PermClass,
    _fp_exc_crs_nes_inv,
    enumerate_class,
    head_tail_pairs,
)
from crossnest.polynomials import UNI_ONE, MultiPoly, UniPoly
from crossnest.qmotzkin import h_tableau, q_motzkin, q_motzkin_tilde
from crossnest.series import PowerSeries, named_series


class TestStatSpec:
    def test_variables(self):
        assert StatSpec.CRS.variables == ("q",)
        assert StatSpec.JOINT_FP_EXC_CRS_NES.variables == ("x", "y", "p", "q")
        assert StatSpec.JOINT_EXC_CRS.variables == ("y", "q")

    def test_lookup(self):
        # Both enums share one lookup, each naming its own kind of value.
        assert StatSpec.from_name("crs+nes") is StatSpec.CRS_PLUS_NES
        assert PermClass.from_name("S321B3142") is PermClass.S321_B3142
        with pytest.raises(ValueError, match=r"^unknown statistic 'zzz' \(known: crs, "):
            StatSpec.from_name("zzz")
        with pytest.raises(ValueError, match=r"^unknown class 'D8' \(known: all, "):
            PermClass.from_name("D8")


class TestDistribution:
    def test_trivial_cases(self):
        for spec in StatSpec:
            poly = distribution(PermClass.ALL, 0, spec)
            assert poly == MultiPoly.one(spec.variables)

    def test_examples(self):
        assert (
            str(distribution(PermClass.I4321, 3, StatSpec.CRS_PLUS_NES)) == "3 + q"
        )
        assert str(distribution(PermClass.S321_B3142, 3, StatSpec.CRS)) == "3 + q"

    def test_matches_q_polynomials(self):
        for n in range(8):
            got = distribution(PermClass.I4321, n, StatSpec.CRS_PLUS_NES)
            assert got.as_unipoly("q") == q_motzkin(n), n
            got = distribution(PermClass.I3412, n, StatSpec.NES)
            assert got.as_unipoly("q") == q_motzkin(n), n
            got = distribution(PermClass.S321_B3142, n, StatSpec.CRS)
            assert got.as_unipoly("q") == q_motzkin_tilde(n), n
            assert got.as_unipoly("q") == h_tableau(n)[n][0], n

    def test_joint_matches_fractions(self):
        for n in range(7):
            got = distribution(PermClass.I4321, n, StatSpec.JOINT_FP_EXC_CRS_NES)
            assert got == named_series("I4321-joint", n).coefficient(n), n
            got = distribution(PermClass.I3412, n, StatSpec.JOINT_FP_EXC_CRS_NES)
            assert got == named_series("I3412-joint", n).coefficient(n), n
            got = distribution(PermClass.S321_B3142, n, StatSpec.JOINT_EXC_CRS)
            assert got == named_series("S321-exc-crs", n).coefficient(n), n

    @pytest.mark.parametrize(
        ("cls", "spec", "preset"),
        [
            (PermClass.I4321, StatSpec.JOINT_FP_EXC_CRS_NES, "I4321-joint"),
            (PermClass.I3412, StatSpec.JOINT_FP_EXC_CRS_NES, "I3412-joint"),
            (PermClass.S321_B3142, StatSpec.JOINT_EXC_CRS, "S321-exc-crs"),
        ],
    )
    def test_joint_matches_fraction_past_the_oracle_bounds(self, cls, spec, preset):
        # The dist-* rows stop at n <= 9-10; the passes over the trees'
        # states reach 18 in well under a second each.
        series = named_series(preset, 18)
        for n in range(13, 19):
            got = distribution(cls, n, spec, allow_large=True)
            assert got == series.coefficient(n), n

    def test_matches_kernel_reference(self):
        # Reference: every member through the pair loop, one monomial each
        # (distribution runs the bitmask kernel for ALL alone).
        for cls in PermClass:
            for spec in StatSpec:
                for n in range(8):
                    expected = Counter(
                        spec.exponents(*pair_loop_statistics(w)[:4])
                        for w in enumerate_class(n, cls)
                    )
                    got = distribution(cls, n, spec)
                    assert got == MultiPoly.from_terms(spec.variables, expected), (
                        cls, spec, n)

    def test_kernel_runs_for_all_only(self, monkeypatch):
        # The families carry their statistics; ALL leaves them to the
        # kernel, and enumerating ALL alone never runs it.
        calls = []

        def counted(w):
            calls.append(w)
            return _fp_exc_crs_nes_inv(w)

        monkeypatch.setattr(oracle_module, "_fp_exc_crs_nes_inv", counted)
        monkeypatch.setattr(permutations_module, "_fp_exc_crs_nes_inv", counted)
        # A tally cached by an earlier test would run no kernel at all.
        permutations_module._family_tally.cache_clear()
        for cls in PermClass:
            calls.clear()
            distribution(cls, 6, StatSpec.JOINT_FP_EXC_CRS_NES)
            assert len(calls) == (720 if cls is PermClass.ALL else 0), cls
        calls.clear()
        assert sum(1 for _ in enumerate_class(6, PermClass.ALL)) == 720
        assert calls == []

    def test_unknown_statistic(self):
        # A spec must be a StatSpec, as a class must be a PermClass.
        with pytest.raises(ValueError, match=r"^unknown statistic 'crs'$"):
            distribution(PermClass.I4321, 3, "crs")
        # Past the enumeration guard too: the class is checked before it,
        # and before the cache keyed by class, so an unhashable class is
        # refused as a value too.
        for n in (3, 13):
            with pytest.raises(ValueError, match=r"^unknown class 'I4321'$"):
                distribution("I4321", n, StatSpec.CRS)
            with pytest.raises(ValueError, match=r"^unknown class \[\]$"):
                distribution([], n, StatSpec.CRS)

    def test_total_count_at_one(self):
        poly = distribution(PermClass.ALL, 5, StatSpec.CRS_PLUS_NES)
        assert poly.evaluate({"q": 1}) == 120

    def test_guard_blocks_large_sizes(self):
        with pytest.raises(SizeLimitError, match=ENUM_LIMIT_ENV):
            distribution(PermClass.ALL, DEFAULT_ENUM_LIMIT + 1, StatSpec.CRS)

    def test_guard_holds_for_a_cached_size(self, monkeypatch):
        # The tally is read after the guard: a size cached under
        # allow_large=True is still refused without it, for every spec.
        monkeypatch.delenv(ENUM_LIMIT_ENV, raising=False)
        distribution(PermClass.I4321, 13, StatSpec.CRS, allow_large=True)
        for spec in StatSpec:
            with pytest.raises(SizeLimitError, match=ENUM_LIMIT_ENV):
                distribution(PermClass.I4321, 13, spec)

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(st.sampled_from(PermClass), st.sampled_from([c.value for c in PermClass]),
                  st.none(), st.lists(st.integers(), max_size=1),
                  st.dictionaries(st.text(max_size=1), st.integers(), max_size=1)),
        st.one_of(st.integers(-5, 7), st.integers(13, 10**6), st.booleans(), st.floats(),
                  st.none(), st.text(max_size=2), st.lists(st.integers(), max_size=1)),
        st.one_of(st.sampled_from(StatSpec), st.sampled_from([s.value for s in StatSpec]),
                  st.none(), st.lists(st.integers(), max_size=1)),
    )
    def test_fuzzed_entry_point_counts_or_refuses(self, cls, n, spec):
        # Valid and invalid values of each argument, unhashable ones
        # included: the family's size in the spec's variables, or ValueError
        # (SizeLimitError past the guard); no other exception escapes.
        valid = (isinstance(cls, PermClass) and isinstance(spec, StatSpec)
                 and type(n) is int and 0 <= n <= DEFAULT_ENUM_LIMIT)
        try:
            poly = distribution(cls, n, spec)
        except ValueError:
            assert not valid
            return
        assert valid
        assert poly.variables == spec.variables
        ones = dict.fromkeys(spec.variables, 1)
        assert poly.evaluate(ones) == sum(1 for _ in enumerate_class(n, cls))

    def test_guard_override_flag(self):
        # Keep it cheap: a class whose members are Motzkin-few.
        got = distribution(
            PermClass.I4321, 13, StatSpec.CRS_PLUS_NES, allow_large=True
        )
        assert got.as_unipoly("q") == q_motzkin(13)

    def test_guard_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENUM_LIMIT_ENV, "13")
        got = distribution(PermClass.I4321, 13, StatSpec.CRS_PLUS_NES)
        assert got.as_unipoly("q") == q_motzkin(13)
        monkeypatch.setenv(ENUM_LIMIT_ENV, "4")
        with pytest.raises(SizeLimitError):
            distribution(PermClass.I4321, 5, StatSpec.CRS)
        monkeypatch.setenv(ENUM_LIMIT_ENV, "junk")
        with pytest.raises(ValueError, match="integer"):
            distribution(PermClass.I4321, 3, StatSpec.CRS)
        monkeypatch.setenv(ENUM_LIMIT_ENV, "-1")
        with pytest.raises(ValueError, match=f"^{ENUM_LIMIT_ENV} must be nonnegative$"):
            distribution(PermClass.I4321, 0, StatSpec.CRS)


class TestRunSuite:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(st.sampled_from(SUITES), st.text()),
        st.one_of(st.integers(-5, 3), st.booleans(), st.floats(), st.none(), st.text()),
    )
    def test_fuzzed_entry_point_reports_or_refuses(self, suite, max_n):
        # Any suite text and any max_n up to 3: a passing report (at max_n=0
        # a row with no object is empty, never passed), or ValueError for an
        # unknown suite or a max_n that is not a nonnegative int; no other
        # exception escapes.
        valid = suite in SUITES and type(max_n) is int and max_n >= 0
        try:
            report = run_suite(suite, max_n)
        except ValueError:
            assert not valid
            return
        assert valid
        assert report.suite == suite
        assert {c.status for c in report.checks} <= {"pass", "empty"}
        assert report.passed or max_n == 0

    def test_vacuous_suite_passes(self):
        report = run_suite("paths", 0)
        assert report.passed
        assert report.suite == "paths"
        assert all(c.bounds == "n≤0" for c in report.checks)

    def test_all_suite_small(self):
        report = run_suite("all", 6)
        assert report.passed
        assert len(report.checks) >= 10
        names = [c.name for c in report.checks]
        assert names == sorted(names)

    def test_each_suite_runs(self):
        for suite in ("statistics", "paths", "bijections", "qpoly", "distributions"):
            report = run_suite(suite, 3)
            assert report.passed, suite
            assert report.checks, suite

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", 3)

    def test_negative_max_n(self):
        with pytest.raises(ValueError):
            run_suite("all", -1)

    def test_caps_respect_bounds(self):
        report = run_suite("qpoly", 99)
        by_name = {c.name: c for c in report.checks}
        assert by_name["main12-identity"].bounds == "n≤40"
        assert by_name["tableau-recursion"].bounds == "n≤25"

    def test_report_json_shape(self):
        report = run_suite("paths", 2)
        data = report.to_json_dict()
        assert set(data) == {"suite", "max_n", "checks", "elapsed_ms"}
        assert data["suite"] == "paths"
        assert data["max_n"] == 2
        for check in data["checks"]:
            assert {"name", "range", "pass", "elapsed_ms"} <= set(check)
            assert check["pass"] is True
            assert "counterexample" not in check
            assert check["objects"] > 0
        json.dumps(data)

    def test_objects_count_compared_cases(self):
        by_name = {c.name: c for c in run_suite("paths", 3).checks}
        assert by_name["path-count-recurrence"].objects == 4  # n = 0..3
        assert by_name["strip-roundtrip"].objects == 1 + 1 + 2 + 4
        # The rows over S_n trust the enumerated words, so none may go
        # missing: one case per permutation of size <= 6.
        by_name = {c.name: c for c in run_suite("statistics", 6).checks}
        for name in ("head-tail-roundtrip", "inv-identity"):
            assert by_name[name].objects == sum(map(math.factorial, range(7))) == 874

    def test_empty_checks_do_not_pass(self):
        report = run_suite("all", 0)
        empty = sorted(c.name for c in report.checks if c.objects == 0)
        assert empty == ["tableau-recursion", "tableau-row-pair"]
        for check in report.checks:
            assert check.passed == (check.objects > 0)
            assert check.status == ("pass" if check.objects else "empty")
            assert check.counterexample is None
        assert not report.passed

    def test_verify_max_n_zero_exits_one(self, capsys):
        assert cmd_dispatch(("verify", "--suite", "all", "--max-n", "0")) == 1
        out = capsys.readouterr().out
        assert "empty tableau-recursion (n≤0)\n" in out
        assert "empty tableau-row-pair (n≤0)\n" in out
        assert "FAIL" not in out
        assert out.endswith("suite all: 29/31 checks passed\n")


# The check table as (name, suite, bound), in table order.  Bounds may only
# go up; names and suites are part of the CLI's output.
CHECK_TABLE = (
    ("inv-identity", "statistics", 8),
    ("head-tail-roundtrip", "statistics", 8),
    ("class-tails-des-exc", "statistics", 9),
    ("class-nonnesting", "statistics", 9),
    ("area-down-identity", "paths", 12),
    ("area-up-identity", "paths", 12),
    ("height-sum-difference", "paths", 12),
    ("strip-roundtrip", "paths", 10),
    ("matchings-perfect", "paths", 10),
    ("path-count-recurrence", "paths", 12),
    ("phi1-transport", "bijections", 10),
    ("phi2-transport", "bijections", 10),
    ("phi3-transport", "bijections", 10),
    ("phi-bijectivity", "bijections", 9),
    ("phi-roundtrips", "bijections", 10),
    ("qmotzkin-at-one", "qpoly", 30),
    ("tableau-recursion", "qpoly", 25),
    ("tableau-first-column", "qpoly", 30),
    ("tableau-row-pair", "qpoly", 30),
    ("dumont-expansion", "qpoly", 20),
    ("a-series-recurrence", "qpoly", 20),
    ("mtilde-functional-equation", "qpoly", 20),
    ("main12-identity", "qpoly", 40),
    ("i-abcd-vs-paths", "qpoly", 10),
    ("dist-4321-crs-nes", "distributions", 10),
    ("dist-3412-nes", "distributions", 10),
    ("dist-321-crs", "distributions", 9),
    ("dist-4321-joint-fraction", "distributions", 9),
    ("dist-3412-joint-fraction", "distributions", 9),
    ("dist-321-joint-fraction", "distributions", 9),
    ("dist-path-transport", "distributions", 9),
)

VERIFY_ALL_3 = (
    "pass a-series-recurrence (n≤3)\n"
    "pass area-down-identity (n≤3)\n"
    "pass area-up-identity (n≤3)\n"
    "pass class-nonnesting (n≤3)\n"
    "pass class-tails-des-exc (n≤3)\n"
    "pass dist-321-crs (n≤3)\n"
    "pass dist-321-joint-fraction (n≤3)\n"
    "pass dist-3412-joint-fraction (n≤3)\n"
    "pass dist-3412-nes (n≤3)\n"
    "pass dist-4321-crs-nes (n≤3)\n"
    "pass dist-4321-joint-fraction (n≤3)\n"
    "pass dist-path-transport (n≤3)\n"
    "pass dumont-expansion (n≤3)\n"
    "pass head-tail-roundtrip (n≤3)\n"
    "pass height-sum-difference (n≤3)\n"
    "pass i-abcd-vs-paths (n≤3)\n"
    "pass inv-identity (n≤3)\n"
    "pass main12-identity (n≤3)\n"
    "pass matchings-perfect (n≤3)\n"
    "pass mtilde-functional-equation (n≤3)\n"
    "pass path-count-recurrence (n≤3)\n"
    "pass phi-bijectivity (n≤3)\n"
    "pass phi-roundtrips (n≤3)\n"
    "pass phi1-transport (n≤3)\n"
    "pass phi2-transport (n≤3)\n"
    "pass phi3-transport (n≤3)\n"
    "pass qmotzkin-at-one (n≤3)\n"
    "pass strip-roundtrip (n≤3)\n"
    "pass tableau-first-column (n≤3)\n"
    "pass tableau-recursion (n≤3)\n"
    "pass tableau-row-pair (n≤3)\n"
    "suite all: 31/31 checks passed\n"
)


class TestCheckTable:
    def test_names_suites_bounds(self):
        assert tuple((c.name, c.suite, c.bound) for c in _CHECKS) == CHECK_TABLE

    def test_suites_in_table_order(self):
        # CLI --help, the verify choices and the unknown-suite message all
        # list the suites in this order.
        assert SUITES == ("all", "statistics", "paths", "bijections", "qpoly",
                          "distributions")
        with pytest.raises(ValueError, match=re.escape(
                "(known: all, statistics, paths, bijections, qpoly, distributions)")):
            run_suite("nope", 1)

    def test_reports_sorted_by_name(self):
        names = [c.name for c in run_suite("all", 1).checks]
        assert names == sorted(name for name, _, _ in CHECK_TABLE)
        for suite in SUITES[1:]:
            names = [c.name for c in run_suite(suite, 1).checks]
            assert names == sorted(n for n, s, _ in CHECK_TABLE if s == suite)

    def test_verify_all_stdout(self, capsys):
        assert cmd_dispatch(("verify", "--suite", "all", "--max-n", "3")) == 0
        assert capsys.readouterr().out == VERIFY_ALL_3


class TestFailurePath:
    """Real checks pointed at a broken function report the first failure."""

    def test_phi1_swapped_for_phi2(self, capsys, monkeypatch):
        monkeypatch.setattr("crossnest.oracle.phi1", phi2)
        assert cmd_dispatch(("verify", "--suite", "bijections", "--max-n", "4")) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL phi1-transport (n≤4)\n"
            "  counterexample: uudd: image (fp, exc, crs, nes)=(0, 2, 0, 2), "
            "path (hor, up, 2*sh_u, sh_h)=(0, 2, 2, 0)\n"
        ) in out
        assert "pass phi2-transport (n≤4)\n" in out
        assert "pass phi3-transport (n≤4)\n" in out

    def test_raising_check_fails_alone(self, capsys, monkeypatch):
        # phi1 images leave the 321/barred class, so phi3_inverse raises.
        monkeypatch.setattr("crossnest.oracle.phi3", phi1)
        report = run_suite("all", 5)
        assert len(report.checks) == 31
        by_name = {c.name: c for c in report.checks}
        roundtrips = by_name["phi-roundtrips"]
        assert roundtrips.status == "FAIL"
        assert roundtrips.counterexample == (
            "at uhd: raised ValueError: permutation is outside the "
            "321/barred class: (3, 2, 1)"
        )
        assert by_name["phi3-transport"].status == "FAIL"
        assert by_name["inv-identity"].passed
        assert by_name["tableau-recursion"].passed
        assert cmd_dispatch(("verify", "--suite", "all", "--max-n", "5")) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("suite all: 28/31 checks passed\n")

    def test_raising_check_names_the_object_that_raised(self, monkeypatch):
        monkeypatch.setattr("crossnest.oracle.phi3", phi1)
        check = {c.name: c for c in run_suite("bijections", 5).checks}[
            "phi-roundtrips"
        ]
        place, error = check.counterexample.split(": raised ValueError: ")
        assert place.startswith("at ")
        path = place.removeprefix("at ")
        with pytest.raises(ValueError) as raised:
            phi3_inverse(phi1(path))
        assert str(raised.value) == error
        # And it is the first such path: no earlier one raises.
        paths = (p for n in range(len(path) + 1) for p in enumerate_paths(n))
        for p in itertools.takewhile(lambda p: p != path, paths):
            phi3_inverse(phi1(p))

    def test_a_raise_between_cases_names_the_last_case(self, monkeypatch):
        # The path enumeration raises at n = 2, after the three cases of
        # n = 0 and of n = 1 and before any case of n = 2.
        real = oracle_module.enumerate_paths

        def planted(n):
            if n == 2:
                raise RuntimeError("planted")
            return real(n)

        monkeypatch.setattr(oracle_module, "enumerate_paths", planted)
        monkeypatch.setattr(oracle_module, "_CHECKS", tuple(
            c for c in _CHECKS if c.name == "dist-path-transport"))
        (check,) = run_suite("all", 5).checks
        assert check.status == "FAIL"
        assert check.counterexample == (
            "after n=1 strip: raised RuntimeError: planted"
        )
        assert check.objects == 6

    def test_head_tail_pairs_broken(self, monkeypatch):
        # The round trip reads the trusted kernel, not the public wrapper.
        monkeypatch.setattr("crossnest.oracle._head_tail_pairs", lambda w: ())
        by_name = {c.name: c for c in run_suite("statistics", 4).checks}
        roundtrip = by_name["head-tail-roundtrip"]
        assert not roundtrip.passed
        assert roundtrip.counterexample == (
            "n=2 word=2 1: rebuilt=(1, 2), word=(2, 1)"
        )
        assert by_name["inv-identity"].passed

    def test_head_tail_pairs_off_by_one_head(self, monkeypatch):
        # Tails, spacing and sets stay right; only the comparison of the
        # pairs with the excedances (w[t] - 1, t) can see the change.
        monkeypatch.setattr(
            "crossnest.oracle.head_tail_pairs",
            lambda w: tuple((h + 1, t) for h, t in head_tail_pairs(w)),
        )
        check = {c.name: c for c in run_suite("statistics", 4).checks}[
            "class-tails-des-exc"
        ]
        assert check.counterexample == (
            "n=2 word=2 1: "
            "(spaced, tails, tails, pairs)=(True, (1,), (1,), ((2, 1),)), "
            "(True, des, exc, excedances)=(True, (1,), (1,), ((1, 1),))"
        )

    def test_mtilde_equation_sees_a_wrong_term(self, monkeypatch):
        def check():
            return {c.name: c for c in run_suite("qpoly", 20).checks}[
                "mtilde-functional-equation"
            ]

        unpatched = check()
        assert unpatched.passed and unpatched.objects == 21

        def mtilde_off_at_t5(name, order):
            series = named_series(name, order)
            if name != "Mtilde":
                return series
            coeffs = list(series.coeffs)
            coeffs[5] = coeffs[5] + MultiPoly.variable(series.variables, "q")
            return PowerSeries(series.variables, coeffs)

        monkeypatch.setattr(oracle_module, "named_series", mtilde_off_at_t5)
        broken = check()
        assert broken.status == "FAIL"
        assert broken.counterexample.startswith("t^5: lhs=")

    def test_tableau_rows_see_a_fault_in_the_shared_engine(self, monkeypatch):
        # One extra term at height 2 of every row the packed tableau builds,
        # in full mode (h_tableau) and cut mode (the J-fraction presets and
        # both q-Motzkin families, their caches cold): every row that reads
        # the engine compares it with a computation that never runs it, so
        # each one fails.  dist-path-transport alone compares path tallies
        # with enumeration and never reads the engine.
        real = qmotzkin_module._rows

        def planted(start, zero, step, n_max, cut):
            def faulty(i, *entries):
                entry = step(i, *entries)
                if i != 2:
                    return entry
                if isinstance(entry, dict):
                    return {**entry, 0: entry.get(0, 0) + 1}
                return entry + 1

            return real(start, zero, faulty, n_max, cut)

        monkeypatch.setattr(qmotzkin_module, "_h_rows", [[UNI_ONE]])
        monkeypatch.setattr(qmotzkin_module, "_q_motzkin_cache", [UNI_ONE, UNI_ONE])
        monkeypatch.setattr(qmotzkin_module, "_q_tilde_cache", [UNI_ONE, UNI_ONE])
        monkeypatch.setattr(qmotzkin_module, "_rows", planted)
        checks = {
            c.name: c
            for suite in ("qpoly", "distributions")
            for c in run_suite(suite, 12).checks
        }
        for name in ("tableau-first-column", "tableau-recursion",
                     "tableau-row-pair", "dist-321-crs", "dumont-expansion",
                     "a-series-recurrence", "dist-4321-crs-nes", "dist-3412-nes"):
            assert checks[name].status == "FAIL", name
        passed = {name for name, c in checks.items() if c.status != "FAIL"}
        assert passed == {"dist-path-transport"}

    def test_recurrence_rows_see_a_wrong_term_in_the_oracle_recurrence(
        self, monkeypatch
    ):
        # The converse: with the engine intact, a wrong M_5 on the oracle's
        # recurrence side fails each of the four rows that read it, at n=5,
        # and no other row.
        real = oracle_module._product_recurrence

        def planted(n, exponent):
            values = real(n, exponent)
            if n >= 5:
                values[5] = values[5] + UniPoly.q_power(1)
            return values

        reads_it = {"a-series-recurrence", "dumont-expansion",
                    "tableau-first-column", "tableau-row-pair"}
        unpatched = {c.name: c for c in run_suite("qpoly", 12).checks}
        assert all(unpatched[name].passed for name in reads_it)
        monkeypatch.setattr(oracle_module, "_product_recurrence", planted)
        checks = {
            c.name: c
            for suite in ("qpoly", "distributions")
            for c in run_suite(suite, 12).checks
        }
        failed = {name for name, c in checks.items() if c.status == "FAIL"}
        assert failed == reads_it
        for name in reads_it:
            assert re.match(r"^(main12-rhs )?n=5: ", checks[name].counterexample), name


class FamilyBuilds:
    """Counts the cut tableaux built from cold q caches; ``beta(2)`` tells
    the builds apart: q^2 for q_motzkin, q for q_motzkin_tilde."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.builds = []
        real = qmotzkin_module._PackedTableau.__init__

        def counting(table, variables, alpha, beta, n_max, cut=False):
            if cut:
                self.builds.append((str(beta(2)), n_max))
            real(table, variables, alpha, beta, n_max, cut)

        monkeypatch.setattr(qmotzkin_module._PackedTableau, "__init__", counting)

    def cold(self):
        self.monkeypatch.setattr(qmotzkin_module, "_q_motzkin_cache", [UNI_ONE, UNI_ONE])
        self.monkeypatch.setattr(qmotzkin_module, "_q_tilde_cache", [UNI_ONE, UNI_ONE])
        self.builds.clear()

    def betas(self):
        return [beta for beta, _ in self.builds]


class TestFamilyBuilds:
    def test_family_rows_build_each_family_once(self, monkeypatch):
        # A row that reads a q-Motzkin family asks for it at the cap before
        # it draws cases, so from cold caches it runs that family's cut
        # tableau once, not once per n past the cache.
        counter = FamilyBuilds(monkeypatch)
        rows = {c.name: c for c in _CHECKS}
        for name, families in (
            ("qmotzkin-at-one", ["q^2", "q"]),
            ("dist-4321-crs-nes", ["q^2"]),
            ("dist-3412-nes", ["q^2"]),
            ("dist-321-crs", ["q"]),
        ):
            counter.cold()
            check = rows[name]
            cases = list(check.cases(check.bound))
            assert len(cases) >= check.bound + 1, name
            assert all(lhs == rhs for _, lhs, rhs in cases), name
            assert counter.betas() == families, name
        # The whole suite: each family once, beside one build per joint preset.
        counter.cold()
        assert run_suite("distributions", 10).passed
        assert sorted(counter.betas()) == ["q", "q^2", "y*p^2", "y*q", "y*q^2"]

    def test_suite_builds_each_family_once_at_its_largest_cap(self, monkeypatch):
        # The qpoly rows read the families at caps 20 and 30; the suite runs
        # the cap-30 rows first, so each family is built once, and every
        # row reports as it does when it runs on its own, in name order.
        counter = FamilyBuilds(monkeypatch)
        counter.cold()
        report = run_suite("qpoly", 30)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        families = [b for b in counter.builds if b[0] in ("q^2", "q")]
        assert sorted(families) == [("q", 30), ("q^2", 30)]
        for check in report.checks:
            counter.cold()
            monkeypatch.setattr(oracle_module, "_CHECKS",
                                tuple(c for c in _CHECKS if c.name == check.name))
            (alone,) = run_suite("qpoly", 30).checks
            assert alone._replace(elapsed_ms=0) == check._replace(elapsed_ms=0)

    def test_a_build_past_a_rows_cap_does_not_fail_it(self, monkeypatch):
        # q_motzkin's cut tableau raises past n = 20: the rows that need it
        # at 30 fail, and a-series-recurrence, which reads it only up to 20,
        # still passes; no row builds a family past its own cap.
        counter = FamilyBuilds(monkeypatch)
        real = qmotzkin_module._PackedTableau.__init__

        def raising(table, variables, alpha, beta, n_max, cut=False):
            if cut and str(beta(2)) == "q^2" and n_max > 20:
                raise MemoryError("planted")
            real(table, variables, alpha, beta, n_max, cut)

        monkeypatch.setattr(qmotzkin_module._PackedTableau, "__init__", raising)
        counter.cold()
        by_name = {c.name: c for c in run_suite("qpoly", 30).checks}
        assert not by_name["qmotzkin-at-one"].passed
        assert "MemoryError: planted" in by_name["qmotzkin-at-one"].counterexample
        assert by_name["a-series-recurrence"].passed
        assert by_name["a-series-recurrence"].bounds == "n≤20"


def fault_off_by_one(field: int):
    """The real function's tuple with field ``field`` one too big."""
    def plant(real):
        def faulty(*args):
            values = list(real(*args))
            values[field] += 1
            return tuple(values)
        return faulty
    return plant


def record_off_by_one(field: str):
    """The real ``path_statistics`` with ``field`` one too big."""
    def plant(real):
        def faulty(p):
            r = real(p)
            return r._replace(**{field: getattr(r, field) + 1})
        return faulty
    return plant


def poly_off_at(size: int):
    """The real q-polynomial family, one too big at n = ``size``."""
    def plant(real):
        return lambda n: real(n) + 1 if n == size else real(n)
    return plant


def tableau_off_at(n: int, i: int):
    """The real ``h_tableau`` with entry (n, i) one too big."""
    def plant(real):
        def faulty(n_max):
            table = real(n_max)
            if n_max >= n:
                table[n][i] = table[n][i] + 1
            return table
        return faulty
    return plant


def series_off_at(preset: str, n: int):
    """The real ``named_series`` with t^n of ``preset`` one too big."""
    def plant(real):
        def faulty(name, order):
            series = real(name, order)
            if name != preset or order < n:
                return series
            coeffs = list(series.coeffs)
            coeffs[n] = coeffs[n] + 1
            return PowerSeries(series.variables, coeffs)
        return faulty
    return plant


def enumeration_off_for(cls: PermClass):
    """The real ``_enumerated``, one too big for ``cls`` at n = 3."""
    def plant(real):
        def faulty(c, n, spec):
            poly = real(c, n, spec)
            return poly + 1 if c is cls and n == 3 else poly
        return faulty
    return plant


# One planted fault per _CHECKS row: the oracle-module name it replaces, on
# one side of that row, and the fault as a function of the real one.  Every
# fault shows by n = 4.
PLANTED_FAULTS = {
    "inv-identity": ("_fp_exc_crs_nes_inv", fault_off_by_one(4)),
    "head-tail-roundtrip": ("_permutation_from_head_tail",
                            lambda real: lambda pairs, n: tuple(range(1, n + 1))),
    "class-tails-des-exc": ("head_tail_pairs", lambda real: lambda w: tuple(
        (h + 1, t) for h, t in real(w))),
    "class-nonnesting": ("_fp_exc_crs_nes_inv", fault_off_by_one(3)),
    "area-down-identity": ("path_statistics", record_off_by_one("sh_d")),
    "area-up-identity": ("path_statistics", record_off_by_one("sh_u")),
    "height-sum-difference": ("path_statistics", record_off_by_one("down")),
    "strip-roundtrip": ("path_from_head_tail", lambda real: lambda pairs, n: "h" * n),
    "matchings-perfect": ("tunnel_matching", lambda real: lambda p: real(p)[1:]),
    "path-count-recurrence": ("motzkin_number", lambda real: lambda n: real(n) + 1),
    "phi1-transport": ("phi1", lambda real: phi2),
    "phi2-transport": ("phi2", lambda real: phi1),
    "phi3-transport": ("phi3", lambda real: lambda p: real(p)[::-1]),
    "phi-bijectivity": ("phi3", lambda real: lambda p: tuple(range(1, len(p) + 1))),
    "phi-roundtrips": ("phi3_inverse", lambda real: lambda w: "h" * len(w)),
    "qmotzkin-at-one": ("q_motzkin_tilde", poly_off_at(3)),
    "tableau-recursion": ("h_recursion_rhs",
                          lambda real: lambda n, i, table: real(n, i, table) + 1),
    "tableau-first-column": ("h_tableau", tableau_off_at(3, 0)),
    "tableau-row-pair": ("h_tableau", tableau_off_at(3, 1)),
    "dumont-expansion": ("_second_kind", lambda real: lambda k, m: k + 1),
    "a-series-recurrence": ("_first_kind", lambda real: lambda k, m: k + 1),
    "mtilde-functional-equation": ("named_series", series_off_at("Mtilde", 3)),
    "main12-identity": ("named_series", series_off_at("main12-lhs", 4)),
    "i-abcd-vs-paths": ("_abcd_tally", lambda real: lambda n: real(n) * 2),
    "dist-4321-crs-nes": ("q_motzkin", poly_off_at(3)),
    "dist-3412-nes": ("_enumerated", enumeration_off_for(PermClass.I3412)),
    "dist-321-crs": ("q_motzkin_tilde", poly_off_at(3)),
    "dist-4321-joint-fraction": ("_enumerated", enumeration_off_for(PermClass.I4321)),
    "dist-3412-joint-fraction": ("named_series", series_off_at("I3412-joint", 3)),
    "dist-321-joint-fraction": ("_enumerated",
                                enumeration_off_for(PermClass.S321_B3142)),
    "dist-path-transport": ("_phi2_predicts", fault_off_by_one(3)),
}


class TestPlantedFaults:
    def test_table_covers_every_row(self):
        assert sorted(PLANTED_FAULTS) == sorted(c.name for c in _CHECKS)

    @pytest.mark.parametrize("row", sorted(PLANTED_FAULTS))
    def test_planted_fault_fails_its_row(self, row, monkeypatch):
        # The row alone, through run_suite: it passes, then fails with the
        # fault planted on one of its sides.
        monkeypatch.setattr(oracle_module, "_CHECKS",
                            tuple(c for c in _CHECKS if c.name == row))

        def status():
            (check,) = run_suite("all", 5).checks
            return check.status

        assert status() == "pass"
        name, plant = PLANTED_FAULTS[row]
        monkeypatch.setattr(oracle_module, name, plant(getattr(oracle_module, name)))
        assert status() == "FAIL"
