import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from corrleak.cli import main

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


def load_perfbench(name: str):
    """Import one benchmark module by path, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "command", ["analyze", "curves", "verify-bounds", "region", "cipher-sim", "decode"]
)
@pytest.mark.parametrize("workload", ["hamming_k10", "iid_k5"])
def test_generated_workloads_match_stored_rows(tmp_path, workload, command):
    # The benchmark's generated scenarios (123,904 equal-weight rows and
    # 32,768 weighted rows) against the rows stored beside them; for
    # verify-bounds and decode, against their row count, verdicts,
    # residuals and the encoded support pair.
    scenarios, checks = load_perfbench("scenarios"), load_perfbench("checks")
    w = scenarios.make_workload(workload, 0, tmp_path)
    out = tmp_path / command
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(scenarios.command_argv(w, command, out, 0)) == 0
    assert checks.OutputChecker(w).check(command, out, 0) == []
