"""Package-level contracts: what ``import crossnest`` loads, and the records."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossnest
import crossnest.oracle as oracle
import crossnest.permutations as permutations
from crossnest.oracle import _CHECKS, CheckResult, VerificationReport
from crossnest.paths import path_statistics
from crossnest.permutations import perm_statistics
from crossnest.polynomials import MultiPoly
from crossnest.series import FractionSpec

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(code: str) -> str:
    """Run code in a new interpreter on the checkout's sources; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportDiet:
    def test_cli_import_loads_no_oracle_json_or_dataclasses(self):
        out = fresh_python(
            "import sys\n"
            "import crossnest.cli\n"
            "heavy = ('crossnest.oracle', 'dataclasses', 'json')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        assert out == "[]\n"

    def test_every_public_name_resolves_and_is_listed(self):
        out = fresh_python(
            "import crossnest, sys\n"
            "listed = set(dir(crossnest))\n"
            "print(sorted(set(crossnest.__all__) - listed))\n"
            "print('crossnest.oracle' in sys.modules)\n"
            "print(all(getattr(crossnest, name) is not None\n"
            "          for name in crossnest.__all__))\n"
            "ns = {}\n"
            "exec('from crossnest import *', ns)\n"
            "print(sorted(set(crossnest.__all__) - set(ns)))\n"
        )
        assert out == "[]\nFalse\nTrue\n[]\n"

    def test_lazy_names_are_the_oracle_objects(self):
        assert crossnest.run_suite is oracle.run_suite
        assert crossnest.VerificationReport is oracle.VerificationReport
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            crossnest.nope

    def test_oracle_reexports_the_distribution_names(self):
        for name in ("distribution", "StatSpec", "SizeLimitError",
                     "DEFAULT_ENUM_LIMIT", "ENUM_LIMIT_ENV"):
            assert getattr(oracle, name) is getattr(permutations, name), name


def sibling_imports() -> dict[str, dict[str, set[str]]]:
    """For each module of the package, the names it takes from each
    sibling, read from its ``from .x import`` and ``from . import x``."""
    modules = {}
    for path in sorted(Path(crossnest.__file__).parent.glob("*.py")):
        imports: dict[str, set[str]] = {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        imports.setdefault(alias.name, set())
                    else:
                        imports.setdefault(node.module, set()).add(alias.name)
        modules[path.stem] = imports
    return modules


class TestLayering:
    """``polynomials`` is the leaf that holds the shared rules; the q-series
    layer stands on it alone, never on the permutation or path layers."""

    def test_polynomials_imports_no_sibling(self):
        assert sibling_imports()["polynomials"] == {}

    def test_q_series_layer_stands_apart_from_objects(self):
        modules = sibling_imports()
        for module in ("qmotzkin", "series"):
            assert not {"permutations", "paths", "bijections"} & set(modules[module])

    def test_one_home_for_the_size_guard(self):
        homes = {
            sibling
            for imports in sibling_imports().values()
            for sibling, names in imports.items()
            if "_check_size" in names
        }
        assert homes == {"polynomials"}


def _records():
    def one(k):
        return MultiPoly.one(("q",))

    check = CheckResult("made-up", "n≤3", False, "n=2: 0 != 1", 5, objects=2)
    return [
        perm_statistics((2, 1, 3)),
        path_statistics("uhd"),
        check,
        VerificationReport("paths", 3, (check,), 7),
        _CHECKS[0],
        FractionSpec(("q",), one, one),
    ]


class TestRecords:
    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_records_are_tuples(self):
        r = path_statistics("uhd")
        assert r == (1, 1, 1, 0, 1, 1, 2)
        hor, up, *_, area = r
        assert (hor, up, area) == (r[0], r[1], r[-1]) == (1, 1, 2)
        assert repr(r) == (
            "PathStatRecord(hor=1, up=1, down=1, sh_u=0, sh_h=1, sh_d=1, area=2)"
        )

    def test_check_result_status_and_json(self):
        passed = CheckResult("a", "n≤2", True, None, 3, objects=4)
        failed = CheckResult("b", "n≤2", False, "n=1: x", 3)
        empty = CheckResult("c", "n≤0", False, None, 0)
        assert [c.status for c in (passed, failed, empty)] == ["pass", "FAIL", "empty"]
        assert failed.objects == 0
        assert passed.to_json_dict() == {
            "name": "a", "range": "n≤2", "pass": True, "objects": 4, "elapsed_ms": 3,
        }
        assert failed.to_json_dict() == {
            "name": "b", "range": "n≤2", "pass": False, "objects": 0,
            "elapsed_ms": 3, "counterexample": "n=1: x",
        }

    def test_report_passed_and_json(self):
        good = CheckResult("a", "n≤2", True, None, 3, objects=4)
        bad = CheckResult("b", "n≤2", False, "n=1: x", 3)
        assert VerificationReport("s", 2, (good,), 3).passed
        assert not VerificationReport("s", 2, (good, bad), 6).passed
        assert VerificationReport("s", 2, (good, bad), 6).to_json_dict() == {
            "suite": "s", "max_n": 2, "elapsed_ms": 6,
            "checks": [good.to_json_dict(), bad.to_json_dict()],
        }
