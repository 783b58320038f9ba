"""Each demo and the README quick start run to the end and report success.

Every line a demo ends in a boolean ends in True, no line is a ``FAIL`` or
``empty`` check status, and the verification tour prints a suite with every
check passed and ``exit code: 0`` for its ``oeis-check`` run.  The README's
``>>>`` examples run as a doctest.
"""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines each demo must print, beyond the checks that hold for all of them.
REQUIRED = {
    "verification_tour": (
        re.compile(r"suite all: (\d+)/\1 checks passed in \d+ ms"),
        re.compile(r"exit code: 0"),
    ),
}


def test_demos_found():
    assert len(DEMOS) == 4
    assert set(REQUIRED) <= {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    lines = [ln.rstrip() for ln in proc.stdout.splitlines()]
    claims = [ln for ln in lines if ln.endswith(("True", "False"))]
    assert [ln for ln in claims if not ln.endswith("True")] == []
    assert [ln for ln in lines if ln.startswith(("FAIL ", "empty "))] == []
    for line in REQUIRED.get(demo.stem, ()):
        assert any(line.fullmatch(ln) for ln in lines), line.pattern


def test_readme_quick_start():
    # The fenced block's closing ``` would read as expected output, so the
    # block is cut at the fence before doctest parses it.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert (failed, attempted) == (0, 8)
