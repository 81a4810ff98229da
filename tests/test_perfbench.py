import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_selftest_passes():
    # The benchmark's aggregation self-test reads only perfbench/ and runs
    # on synthetic records.
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout
