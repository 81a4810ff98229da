"""Reach: the package is what a command reaches, and a scenario holds only
what a command reads.

Runs the six commands in-process on the benchmark's three workloads, in CSV
and in JSON, under ``sys.setprofile``, and requires every function defined
in ``src/corrleak/`` to be entered, apart from any the README lists as kept
although no command reaches them.
The same runs load each scenario as JSON objects that record every key read
from them, and every key of the three workloads' scenarios must be read.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import corrleak
from corrleak import cli
from test_perfbench import load_perfbench

PACKAGE = Path(corrleak.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

#: Functions no command reaches, as ``module.qualname``; the README's list
#: of them gives each one's reason.
KEPT: set[str] = set()


class ReadRecorder(dict):
    """A scenario JSON object that adds ``(its path, key)`` to ``reads`` for
    every key read from it: by lookup, by ``get``, or by iterating over it."""

    path = "scenario"
    reads: set[tuple[str, str]] = set()

    def _read(self, *keys):
        self.reads.update((self.path, key) for key in keys)

    def __getitem__(self, key):
        self._read(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._read(key)
        return super().get(key, default)

    def __iter__(self):
        self._read(*super().keys())
        return super().__iter__()

    def items(self):
        self._read(*super().keys())
        return super().items()


def scenario_keys(node, path: str) -> set[tuple[str, str]]:
    """``(path, key)`` of every key of every object in a loaded scenario; each
    ``ReadRecorder`` is given its path on the way."""
    keys = set()
    if isinstance(node, ReadRecorder):
        node.path = path
        for key, value in dict.items(node):
            keys.add((path, key))
            keys |= scenario_keys(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            keys |= scenario_keys(value, f"{path}[{i}]")
    return keys


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) of every function defined in the package, decorators
    included as ``co_firstlineno`` counts them, mapped to ``module.qualname``."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs[(str(path), first)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return defs


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """Run the six commands on the three workloads, in CSV and JSON, under the
    profiler and with scenarios loaded as ``ReadRecorder`` objects.  Returns
    the exit codes, the code objects entered, the scenario keys per workload
    and the keys read."""
    tmp_path = tmp_path_factory.mktemp("reach")
    scenarios = load_perfbench("scenarios")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    keys: dict[str, set] = {}
    names = {}  # scenario reference -> workload name
    load_scenario = cli.load_scenario

    def load_recorded(ref):
        # Every path of a workload's scenario starts with the workload's name.
        data = json.loads(json.dumps(load_scenario(ref)), object_hook=ReadRecorder)
        keys[names[ref]] = scenario_keys(data, f"{names[ref]}: scenario")
        return data

    runs = []
    for name in scenarios.WORKLOADS:
        workload = scenarios.make_workload(name, 0, tmp_path)
        names[workload.scenario_ref] = name
        for command in workload.commands:
            for fmt in ("csv", "json"):
                out = tmp_path / name / command / fmt
                runs.append(scenarios.command_argv(workload, command, out, 0, fmt))
    ReadRecorder.reads = set()
    cli.load_scenario = load_recorded
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
        cli.load_scenario = load_scenario
    return codes, entered, keys, ReadRecorder.reads


def test_every_package_function_is_reached_by_a_command(command_runs):
    codes, entered, _, _ = command_runs
    assert codes == [0] * len(codes)

    defs = package_defs()
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    missed = sorted(name for where, name in defs.items() if where not in reached)
    assert missed == sorted(KEPT)
    readme = README.read_text()
    assert all(f"`{name}`" in readme for name in KEPT)


def test_every_scenario_key_is_read_by_a_command(command_runs):
    codes, _, keys, reads = command_runs
    assert codes == [0] * len(codes)
    assert len(keys) == 3
    assert sorted(set().union(*keys.values()) - reads) == []
