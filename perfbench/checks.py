"""Output checks for every command the benchmark runs.

* ``ref_k7``: byte-identical files, compared by SHA-256 digest.  The
  ``verify-bounds`` digest holds for seed 0 only; other seeds get the
  invariant checks below.
* Generated workloads: stored rows for the seed-independent commands, floats
  within 1e-9 plus one unit in the ninth significant digit the CSV prints,
  every other field exact.
* Every seed: each bound ``holds``, each identity residual is at most 1e-9,
  and the decode candidates contain the support pair behind the query.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FLOAT_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# Generated-workload commands checked against stored rows (the seed changes
# the verify-bounds patterns and the decode query of the others).
ROW_CHECKED = ("analyze", "curves", "region", "cipher-sim")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def parse_csv(path: Path) -> dict:
    """Split a CSV written by the CLI into comment lines, header and rows."""
    lines = path.read_text().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return {"comments": comments, "header": body[0] if body else [], "rows": body[1:]}


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _float_or_none(got), _float_or_none(want)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    # The CLI prints 9 significant digits, so values 1e-9 apart can differ by
    # one unit in the last printed digit.
    scale = max(abs(a), abs(b))
    last_digit = 10.0 ** (math.floor(math.log10(scale)) - 8) if scale > 0 else 0.0
    return abs(a - b) <= FLOAT_TOL + last_digit


def compare_rows(got: dict, want: dict, name: str) -> list[str]:
    problems = []
    if got["header"] != want["header"]:
        return [f"{name}: header {got['header']} != {want['header']}"]
    if got["comments"] != want["comments"]:
        problems.append(f"{name}: comment lines differ")
    if len(got["rows"]) != len(want["rows"]):
        return problems + [f"{name}: {len(got['rows'])} rows, expected {len(want['rows'])}"]
    for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        if len(g) != len(w):
            problems.append(f"{name}: row {i} has {len(g)} fields, expected {len(w)}")
            continue
        for field, a, b in zip(want["header"], g, w):
            if not _cells_match(a, b):
                problems.append(f"{name}: row {i} {field}={a}, expected {b}")
    return problems


def check_bounds(path: Path, expected_rows: int) -> list[str]:
    """verify-bounds invariants: every bound holds, every residual is tiny."""
    table = parse_csv(path)
    col = {name: i for i, name in enumerate(table["header"])}
    if "holds" not in col or "identity_residual" not in col:
        return [f"{path.name}: missing holds/identity_residual columns"]
    problems = []
    if len(table["rows"]) != expected_rows:
        problems.append(f"{path.name}: {len(table['rows'])} rows, expected {expected_rows}")
    for i, row in enumerate(table["rows"]):
        if row[col["holds"]] != "true":
            problems.append(f"{path.name}: row {i} bound does not hold")
        residual = _float_or_none(row[col["identity_residual"]])
        if residual is None or not abs(residual) <= RESIDUAL_TOL:
            problems.append(f"{path.name}: row {i} identity residual {row[col['identity_residual']]}")
    return problems


def check_decode(path: Path, pair: tuple[str, str]) -> list[str]:
    table = parse_csv(path)
    col = {name: i for i, name in enumerate(table["header"])}
    if "x_bits" not in col or "y_bits" not in col:
        return [f"{path.name}: missing x_bits/y_bits columns"]
    found = {(r[col["x_bits"]], r[col["y_bits"]]) for r in table["rows"]}
    if pair not in found:
        return [f"{path.name}: candidates do not contain the encoded pair {pair}"]
    return []


class OutputChecker:
    """Checks one workload's command outputs against stored expectations."""

    def __init__(self, workload):
        self.workload = workload
        self.expected = load_expected(workload.name)

    def check(self, command: str, out: Path, seed: int, fmt: str = "csv") -> list[str]:
        try:
            return self._check(command, out, seed, fmt)
        except (OSError, IndexError, ValueError) as exc:
            return [f"{command}: unreadable output ({exc})"]

    def _check(self, command: str, out: Path, seed: int, fmt: str) -> list[str]:
        files = sorted(p.name for p in out.iterdir())
        problems = []
        if self.workload.name == "ref_k7":
            want = self.expected[fmt][command]
            if sorted(want) != files:
                return [f"{command}: wrote {files}, expected {sorted(want)}"]
            # Only verify-bounds depends on the seed.
            if command != "verify-bounds" or seed == 0:
                for name, sha in want.items():
                    if digest(out / name) != sha:
                        problems.append(f"{command}: {name} is not byte-identical to the stored digest")
        elif command in self.expected:
            want = self.expected[command]
            if sorted(want) != files:
                return [f"{command}: wrote {files}, expected {sorted(want)}"]
            for name, table in want.items():
                problems += compare_rows(parse_csv(out / name), table, f"{command}: {name}")
        elif not files:
            return [f"{command}: wrote no output"]
        if command == "verify-bounds" and fmt == "csv":
            problems += check_bounds(out / "bounds.csv", self.workload.bound_rows)
        if command == "decode" and self.workload.decode_pair is not None:
            problems += check_decode(out / "decode.csv", self.workload.decode_pair)
        return problems
