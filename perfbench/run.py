"""corrleak benchmark: per-command CLI wall time, CPU time and peak RSS.

Usage::

    python3 perfbench/run.py --workload ref_k7 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The load is a closed loop with one client: one ``python -m
corrleak`` process at a time, each started when the previous one exits.
Wall time, CPU time and peak RSS come from each child's own rusage
(``os.wait4``).  Every command's outputs are checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh set-up processes) and, for the commands all workloads share,
the median wall time of each command over the timed loop, their sum and CPU
sum, and the largest peak RSS.  ``--trace 1`` runs all six commands once
untraced and once in-process under ``traced.py`` and reports the per-layer
metrics and the tracing overhead per command.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench/`` in the checkout; span records of traced runs stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
import traced
from checks import OutputChecker
from scenarios import ALL_COMMANDS, WORKLOADS, Workload, command_argv, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
# A run ends within this many seconds: a child still running then is killed
# and counted as failed.
RUN_LIMIT_S = 170
SETUP_REPEATS = 3
# End-to-end per-command metrics: the commands every workload runs.
COMMAND_METRICS = {
    "curves": "curves_s",
    "verify-bounds": "verify_bounds_s",
    "region": "region_s",
    "cipher-sim": "cipher_sim_s",
    "decode": "decode_s",
}


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], env: dict[str, str], stderr_path: Path,
              timeout_s: float = RUN_LIMIT_S) -> ChildResult:
    """Run one process to completion; time and rusage are that child's own."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Runner:
    """Runs and checks the commands of one workload, one process at a time."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.checker = OutputChecker(workload)
        self.tally = Tally()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self._runs = 0

    def _fresh_dir(self) -> Path:
        self._runs += 1
        out = self.workdir / f"run{self._runs}"
        out.mkdir()
        return out

    def _finish(self, label: str, res: ChildResult, err: Path, problems: list[str]) -> None:
        if res.exit_code != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            problems = [f"exit {res.exit_code} {tail}"] + problems
        self.tally.record(label, problems)

    def command(self, cmd: str, seed: int | None = None, fmt: str = "csv",
                spans: Path | None = None) -> ChildResult:
        """Run one CLI command (under the tracer when ``spans`` is given) and check it."""
        seed = self.seed if seed is None else seed
        out = self._fresh_dir()
        args = command_argv(self.workload, cmd, out / "files", seed, fmt)
        (out / "files").mkdir()
        if spans is None:
            argv = [sys.executable, "-m", "corrleak"] + args
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans)] + args
        err = out / "stderr.txt"
        res = run_child(argv, self.env, err, self.deadline - time.perf_counter())
        problems = self.checker.check(cmd, out / "files", seed, fmt) if res.exit_code == 0 else []
        self._finish(f"{cmd}[{fmt}, seed {seed}]", res, err, problems)
        shutil.rmtree(out / "files")
        return res

    def setup_probe(self) -> ChildResult:
        out = self._fresh_dir()
        err = out / "stderr.txt"
        argv = [sys.executable, str(HERE / "probe_setup.py"), self.workload.scenario_ref]
        res = run_child(argv, self.env, err, self.deadline - time.perf_counter())
        self._finish("setup", res, err, [])
        return res

    def json_mirror(self) -> None:
        """Untimed: the JSON outputs of the bundled scenario at the default seed."""
        if self.workload.name == "ref_k7":
            for cmd in self.workload.commands:
                self.command(cmd, seed=0, fmt="json")


def measure(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics: set-up probes, then the timed closed loop."""
    w = runner.workload
    setup = [runner.setup_probe().wall_s for _ in range(SETUP_REPEATS)]
    runner.json_mirror()
    samples: dict[str, list[ChildResult]] = {cmd: [] for cmd in w.commands}
    start = time.perf_counter()
    i = 0
    while True:
        cmd = w.commands[i % len(w.commands)]
        # The first pass always completes; later commands start only if their
        # last wall time still fits in the measured window.
        if i >= len(w.commands):
            if time.perf_counter() - start + samples[cmd][-1].wall_s > seconds:
                break
        samples[cmd].append(runner.command(cmd))
        i += 1

    for cmd, res in samples.items():
        print(stats.summary_line(f"{w.name} {cmd} wall", [r.wall_s for r in res], "s"))
    print(stats.summary_line(f"{w.name} setup", setup, "s"))
    wall = {cmd: stats.median([r.wall_s for r in res]) for cmd, res in samples.items()}
    cpu = {cmd: stats.median([r.cpu_s for r in res]) for cmd, res in samples.items()}
    metrics = {"setup_s": (stats.median(setup), "s")}
    for cmd, name in COMMAND_METRICS.items():
        metrics[name] = (wall[cmd], "s")
    metrics["suite_s"] = (sum(wall.values()), "s")
    metrics["suite_cpu_s"] = (sum(cpu.values()), "s")
    metrics["peak_rss_mb"] = (max(r.rss_mb for res in samples.values() for r in res), "MB")
    return metrics


def trace(runner: Runner) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: each command once untraced, then right away traced in-process.

    All six commands run on every workload, so every layer is measured on
    each; ``analyze`` is too slow for the timed loop of the generated ones.
    """
    w = runner.workload
    runner.json_mirror()
    records, untraced, traced_wall = {}, {}, {}
    for cmd in ALL_COMMANDS:
        spans = runner.workdir / f"spans-{cmd}.json"
        untraced[cmd] = runner.command(cmd).wall_s
        traced_wall[cmd] = runner.command(cmd, spans=spans).wall_s
        if spans.exists():
            records[cmd] = json.loads(spans.read_text())
    metrics, absent = traced.layer_metrics(records)
    imports = [r["import_s"] for r in records.values()]
    if imports:
        metrics["cli.import_s"] = (stats.median(imports), "s")
    else:
        absent.append("cli.import_s")
        metrics["cli.import_s"] = (0, "s")
    for cmd in ALL_COMMANDS:
        metrics[f"trace_overhead.{cmd}_s"] = (traced_wall[cmd] - untraced[cmd], "s")
    STATE_DIR.mkdir(exist_ok=True)
    record = STATE_DIR / f"spans-{w.name}-seed{runner.seed}.json"
    record.write_text(json.dumps({"workload": w.name, "seed": runner.seed, "absent": absent,
                                  "untraced_wall_s": untraced, "traced_wall_s": traced_wall,
                                  "commands": records}) + "\n")
    print(f"spans written to {record.relative_to(ROOT)}")
    print(f"absent per-layer metrics (reported as 0): {absent or 'none'}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corrleak" / "__init__.py").is_file():
        print(f"perfbench: no corrleak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = STATE_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        runner = Runner(workload, args.seed, workdir)
        metrics = trace(runner) if args.trace else measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio={stats.fail_ratio(tally.attempted, tally.failed):.4f} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
