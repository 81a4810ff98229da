"""Start-up: ``import corrleak`` loads no numpy, a process that imports
the CLI runs one thread even when the caller asks OpenBLAS for more, and
``verify-bounds`` draws its patterns without ``numpy.random`` or OpenSSL."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import os, sys
import corrleak
print("numpy" in sys.modules)
import corrleak.cli
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
print("numpy.random" in sys.modules)
"""


def test_cli_process_starts_without_numpy_blas_pool_or_random(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    numpy_after_package, threads, numpy_random = proc.stdout.splitlines()
    assert numpy_after_package == "False"
    if threads:  # /proc/self/task lists one entry per thread, where it exists
        assert int(threads) == 1
    assert numpy_random == "False"


VERIFY_BOUNDS = """
import sys
from corrleak import cli
assert cli.main(["verify-bounds", "--scenario", "reference_k7", "--out", "out"]) == 0
print(*(name in sys.modules for name in ("numpy.random", "secrets", "_hashlib")))
"""


def test_verify_bounds_loads_no_numpy_random_or_openssl(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_BOUNDS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False False"
