"""Start-up: ``import corrleak`` and ``import corrleak.cli`` load no numpy,
a process that runs a command runs one thread even when the caller asks
OpenBLAS for more, ``region`` and ``decode`` on a Hamming model load
``corrleak.linear`` but never numpy, and ``verify-bounds`` draws its
patterns without ``numpy.random`` or OpenSSL."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_perfbench import load_perfbench

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import os, sys
import corrleak
print("numpy" in sys.modules)
from corrleak import cli
print("numpy" in sys.modules)
assert cli.main(["curves", "--scenario", "reference_k7", "--out", "out"]) == 0
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
print("numpy.random" in sys.modules)
"""


def test_cli_process_starts_without_numpy_blas_pool_or_random(tmp_path):
    # The thread count is taken after a command has loaded numpy, so that it
    # sees the OpenBLAS pool that the CLI pins.
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    numpy_after_package, numpy_after_cli, *_, threads, numpy_random = proc.stdout.splitlines()
    assert numpy_after_package == numpy_after_cli == "False"
    if threads:  # /proc/self/task lists one entry per thread, where it exists
        assert int(threads) == 1
    assert numpy_random == "False"


REGION = """
import sys
from corrleak import cli
for scenario in sys.argv[1:]:
    assert cli.main(["region", "--scenario", scenario, "--out", "out"]) == 0
modules = ("numpy", "corrleak.info", "corrleak.leakage", "corrleak.linear")
print(*(name in sys.modules for name in modules))
"""


def test_region_on_a_hamming_model_loads_no_numpy(tmp_path):
    # The summary of a Hamming model comes from ball volumes, which the
    # numpy-free linear module counts: region loads neither numpy nor the
    # modules that build and read tables.
    scenario = tmp_path / "hamming_k10.json"
    scenario.write_text(json.dumps(load_perfbench("scenarios").hamming_k10_scenario()))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", REGION, "reference_k7", str(scenario)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False False True"


DECODE = """
import sys
from corrleak import cli
tx, ty = sys.argv[2:]
assert cli.main(["decode", "--scenario", "reference_k7", "--out", "golden"]) == 0
assert cli.main(["decode", "--scenario", sys.argv[1], "--tx", tx, "--ty", ty, "--out", "k10"]) == 0
modules = ("numpy", "corrleak.info", "corrleak.leakage", "corrleak.linear")
print(*(name in sys.modules for name in modules))
"""


def test_decode_on_a_hamming_model_loads_no_numpy(tmp_path):
    # The golden pair of reference_k7 and a --tx/--ty query of hamming_k10
    # are decoded in their syndrome cosets, the d_xy ball's offsets listed by
    # the numpy-free linear module: no table, so neither numpy nor the
    # modules that build and read tables.
    scenarios = load_perfbench("scenarios")
    scenario = scenarios.hamming_k10_scenario()
    path = tmp_path / "hamming_k10.json"
    path.write_text(json.dumps(scenario))
    x, y = scenarios.decode_query(scenario, 5)
    query = [scenarios.encode(w, scenario["scheme"], side) for w, side in ((x, "x"), (y, "y"))]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", DECODE, str(path), *query],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False False True"
    assert f",{x},{y}," in (tmp_path / "k10" / "decode.csv").read_text()


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
