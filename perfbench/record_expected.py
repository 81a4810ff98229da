"""Write the stored outputs the benchmark checks against, from the current program.

Usage::

    python3 perfbench/record_expected.py

Records SHA-256 digests of every ``reference_k7`` output (CSV and JSON, seed
0) and the rows of the seed-independent commands of the generated
workloads.  The stored files define correct output: re-record them only for
a change meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checks import EXPECTED_DIR, ROW_CHECKED, digest, parse_csv
from run import ROOT, STATE_DIR, child_env, run_child
from scenarios import ALL_COMMANDS, WORKLOADS, command_argv, make_workload


def record(name: str, workdir: Path) -> dict:
    w = make_workload(name, 0, workdir)
    env = child_env()
    formats = ("csv", "json") if name == "ref_k7" else ("csv",)
    out: dict = {fmt: {} for fmt in formats}
    for fmt in formats:
        for cmd in ALL_COMMANDS:
            if name != "ref_k7" and cmd not in ROW_CHECKED:
                continue
            files = workdir / f"{cmd}-{fmt}"
            files.mkdir()
            res = run_child([sys.executable, "-m", "corrleak"] + command_argv(w, cmd, files, 0, fmt),
                            env, workdir / "stderr.txt")
            if res.exit_code != 0:
                raise SystemExit(f"{name} {cmd} exited {res.exit_code}")
            if name == "ref_k7":
                out[fmt][cmd] = {p.name: digest(p) for p in sorted(files.iterdir())}
            else:
                out[fmt][cmd] = {p.name: parse_csv(p) for p in sorted(files.iterdir())}
    return out if name == "ref_k7" else out["csv"]


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    STATE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=STATE_DIR) as tmp:
            data = record(name, Path(tmp))
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
