"""The test settings report a failing property test and run on: a warning
raised while Hypothesis reports its counterexample must not abort the
session, while every other warning stays an error."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
"""


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout
    assert "test_fails - assert 0 < 0" in proc.stdout


def test_other_deprecation_warnings_stay_errors():
    with pytest.raises(DeprecationWarning, match="still an error"):
        warnings.warn("still an error", DeprecationWarning)
