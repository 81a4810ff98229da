"""Output-invariance check: run the CLI of this tree and of a parent revision
on the same inputs and compare every run.

Usage::

    python3 tools/compare_outputs.py [REV]

REV (default ``HEAD``) is exported with ``git archive`` into a scratch
directory; this tree is the working tree, uncommitted edits included.  Each
side runs all six commands on the three workloads of
``perfbench/scenarios.py``, for seeds 0 and 7, in CSV and JSON, each with
``--verbose``: 72 runs, one process at a time, every ``--out`` an absolute
path outside both trees.  The output directory is blanked out of stdout and
stderr, which echo it.

A run matches when its exit code, stdout, stderr and output files are the
same.  Output files are compared byte for byte; a JSON or CSV output that
differs is also summarised: rows added and removed, floats moved with the
largest |delta|, booleans flipped and strings changed.  A CSV is read as its
comment lines and its rows of cells, ``true`` and ``false`` as booleans and
numbers as floats.  The closing totals count the JSON outputs only, since
each CSV holds the same rows as its JSON twin.  Exit status 0 when every run
matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
FORMATS = ("csv", "json")
OUT_MARK = "<out>"
COUNTS = ("rows_added", "rows_removed", "floats_moved", "bools_flipped", "strings_changed", "other")


def diff_json(old, new, tally: dict) -> None:
    """Add the differences of two parsed JSON values to ``tally``: list
    elements past the shorter list count as rows added or removed, and the
    rest are compared element by element."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() | new.keys():
            if key in old and key in new:
                diff_json(old[key], new[key], tally)
            else:
                tally["other"] += 1
    elif isinstance(old, list) and isinstance(new, list):
        tally["rows_added"] += max(0, len(new) - len(old))
        tally["rows_removed"] += max(0, len(old) - len(new))
        for a, b in zip(old, new):
            diff_json(a, b, tally)
    elif type(old) is type(new) is bool:
        tally["bools_flipped"] += old != new
    elif type(old) is type(new) is float:
        if old != new:
            tally["floats_moved"] += 1
            tally["max_delta"] = max(tally["max_delta"], abs(new - old))
    elif type(old) is type(new) is str:
        tally["strings_changed"] += old != new
    elif type(old) is not type(new) or old != new:
        tally["other"] += 1


def json_report(old, new) -> dict:
    """The differences of two parsed JSON outputs, as counts."""
    tally = dict.fromkeys(COUNTS, 0) | {"max_delta": 0.0}
    diff_json(old, new, tally)
    return tally


def parse_csv(text: str) -> dict:
    """A CSV output as ``{"comments": [...], "rows": [[cell, ...], ...]}``,
    ``true`` and ``false`` read as booleans and numbers as floats."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = csv.reader(line for line in lines if not line.startswith("#"))
    return {"comments": comments, "rows": [[_cell(c) for c in row] for row in rows]}


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def describe(t: dict) -> str:
    """One line of the counts of ``json_report``."""
    return (
        f"rows +{t['rows_added']}/-{t['rows_removed']}, {t['floats_moved']} floats moved"
        f" (max |delta| {t['max_delta']:.3g}), {t['bools_flipped']} booleans flipped,"
        f" {t['strings_changed']} strings changed, {t['other']} other values changed"
    )


def compare_dirs(old: Path, new: Path, totals: dict) -> list[str]:
    """One line per output file that differs between two output directories,
    summarised for a JSON or CSV output; the differences of every JSON output
    both hold are added to ``totals``."""
    names = [{p.name for p in d.iterdir()} if d.is_dir() else set() for d in (old, new)]
    problems = [
        f"{name}: only in {'the parent' if name in names[0] else 'this tree'}"
        for name in sorted(names[0] ^ names[1])
    ]
    for name in sorted(names[0] & names[1]):
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        if name.endswith(".json"):
            t = json_report(json.loads(a), json.loads(b))
            totals["json_outputs"] += 1
            totals["max_delta"] = max(totals["max_delta"], t["max_delta"])
            for key in COUNTS:
                totals[key] += t[key]
            if a != b:
                problems.append(f"{name}: {describe(t)}")
        elif a != b and name.endswith(".csv"):
            t = json_report(parse_csv(a.decode()), parse_csv(b.decode()))
            problems.append(f"{name}: {describe(t)}")
        elif a != b:
            problems.append(f"{name}: bytes differ")
    return problems


def run_cli(tree: Path, args: list[str], out: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``--verbose`` CLI run of ``tree``,
    with the output directory blanked out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "corrleak", *args, "--verbose"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, *(s.replace(str(out), OUT_MARK) for s in (done.stdout, done.stderr))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="parent revision (default HEAD)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from scenarios import ALL_COMMANDS, WORKLOADS, command_argv, make_workload

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        parent = work / "parent"
        parent.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        runs = differ = 0
        totals = dict.fromkeys(COUNTS, 0) | {"max_delta": 0.0, "json_outputs": 0}
        for name in WORKLOADS:
            for seed in SEEDS:
                inputs = work / "inputs" / f"{name}-seed{seed}"
                inputs.mkdir(parents=True)
                w = make_workload(name, seed, inputs)
                for command in ALL_COMMANDS:
                    for fmt in FORMATS:
                        label = f"{name} {command} {fmt} seed {seed}"
                        outs = [work / side / label.replace(" ", "-") for side in ("old", "new")]
                        results = [
                            run_cli(tree, command_argv(w, command, out, seed, fmt), out)
                            for tree, out in zip((parent, ROOT), outs)
                        ]
                        problems = [
                            f"{what} differs"
                            for what, a, b in zip(("exit code", "stdout", "stderr"), *results)
                            if a != b
                        ] + compare_dirs(*outs, totals)
                        runs += 1
                        differ += bool(problems)
                        print(f"{label}: exit {results[1][0]}, " + ("; ".join(problems) or "same"))
    print(f"{runs} runs against {args.rev}: {runs - differ} match, {differ} differ")
    print(f"{totals['json_outputs']} JSON outputs: {describe(totals)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
