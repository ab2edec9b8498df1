"""The repo's pytest settings report a failing Hypothesis test instead of aborting the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED" in out and "::test_fails" in out
    assert "1 failed, 1 passed" in out
