"""Reach: the package is what a command reaches.

Runs the six commands in-process on the benchmark's three workloads, in CSV
and in JSON (only JSON reaches ``cli._write_json``), under ``sys.setprofile``,
and requires every function defined in ``src/corrleak/`` to be entered,
apart from the few the README lists as kept although no command reaches them.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import corrleak
from corrleak.cli import main
from test_perfbench import load_perfbench

PACKAGE = Path(corrleak.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

#: Functions no command reaches, as ``module.qualname``; the README's list
#: of them gives each one's reason.
KEPT = {
    "cipher.derive_key_sizes",
    "cipher._pow2_size",
    "cipher.alpha_defaults",
    "swcodec.reference_scheme",
}


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


def test_every_package_function_is_reached_by_a_command(tmp_path):
    scenarios = load_perfbench("scenarios")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs = []
    for name in scenarios.WORKLOADS:
        workload = scenarios.make_workload(name, 0, tmp_path)
        for command in workload.commands:
            for fmt in ("csv", "json"):
                out = tmp_path / name / command / fmt
                runs.append(scenarios.command_argv(workload, command, out, 0, fmt))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)

    defs = package_defs()
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    missed = sorted(name for where, name in defs.items() if where not in reached)
    assert missed == sorted(KEPT)
    readme = README.read_text()
    assert all(f"`{name}`" in readme for name in KEPT)
