"""Command-line front end: load a scenario, run an analysis, emit CSV/JSON.

Commands, each run by the ``cmd_*`` function that ``COMMANDS`` maps it to::

    analyze        info summary, golden syndromes, prototype-condition gaps
    curves         min/max leakage grid plus the Z-observation trace
    verify-bounds  identity residuals and bound verdicts over random patterns
    region         admissible-rate-region membership for scenario queries
    cipher-sim     measured cipher security levels per key branch
    decode         joint decode of a syndrome pair; candidates as hex strings

Every command takes ``--scenario`` (a path or a bundled name such as
``reference_k7``), ``--out``, ``--format csv|json`` and ``--verbose``.
A command returns its output stem, its note lines and its tables, and
``main`` alone writes them (``_emit``), the note lines headed by
``scenario=<name>``.
``--seed`` only affects the randomized pattern sweep of ``verify-bounds``;
all reproduction commands are deterministic, and identical scenario input
yields byte-identical output.

Exit status: 0 on success, 2 on a validation/usage error, 3 when a computation
would exceed the memory budget, the memory at hand (``MemoryError``) or the
work budget, or a word, Z code or class key would pass its int width.

This module loads no numpy: a command imports what builds or reads its
table when it runs, so ``region`` and ``decode`` on a Hamming model never
load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# corrleak makes no BLAS call (its one matmul is int64, which numpy computes
# without BLAS), yet OpenBLAS starts a pool of OPENBLAS_NUM_THREADS threads
# when numpy loads, and each idle worker costs CPU time. Pin the pool to one
# thread before any import can load numpy; no result depends on it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cipher import (
    BRANCHES,
    REGION_COLUMNS,
    RegionQuery,
    guaranteed_level,
    measure_security,
    region_membership,
    security_verdict,
)
from .errors import (
    CapacityError,
    ToolkitError,
    UsageError,
    ValidationError,
    float_field,
    int_field,
    is_bits,
)
from .seqmodel import build_model, sequence_summary
from .swcodec import PartitionScheme, joint_decode, prototype_condition_report, word_syndrome

if TYPE_CHECKING:
    from .leakage import WiretapAnalyzer


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


#: What a command returns: its output stem, its note lines and its tables,
#: each JSON key mapped to the table's rows and CSV fields.
Output = tuple[str, list[str], dict[str, tuple[list[dict], list[str]]]]


def _emit(out: Path, fmt: str, stem: str, notes: list[str], tables: dict) -> list[Path]:
    """Write a command's ``tables`` (JSON key -> ``(rows, fields)``) under
    ``out`` and return the paths: ``<stem>.json``, the ``header`` lines
    ``notes`` plus every table, or one CSV per table, ``<stem>.csv`` for the
    first and ``<key>.csv`` for each later one, each headed by ``notes`` as
    comment lines."""
    if fmt == "json":
        payload = {"header": notes, **{key: rows for key, (rows, _) in tables.items()}}
        texts = {out / f"{stem}.json": json.dumps(payload, indent=2, sort_keys=True)}
    else:
        texts = {}
        for i, (key, (rows, fields)) in enumerate(tables.items()):
            lines = [f"# {c}" for c in notes] + [",".join(fields)]
            lines += [",".join(_fmt(row[name]) for name in fields) for row in rows]
            texts[out / f"{key if i else stem}.csv"] = "\n".join(lines)
    for path, text in texts.items():
        path.write_text(text + "\n")
    return list(texts)


def load_scenario(ref: str) -> dict:
    """Load a scenario from a file path or a bundled name."""
    p = Path(ref)
    if p.exists():
        text = p.read_text()
    else:
        name = ref if ref.endswith(".json") else f"{ref}.json"
        try:
            text = resources.files("corrleak.scenarios").joinpath(name).read_text()
        except (FileNotFoundError, ModuleNotFoundError) as exc:
            raise ValidationError(f"scenario: {ref!r} is neither a file nor a bundled name") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ValidationError(f"scenario: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError("scenario: top level must be a JSON object")
    return data


def _require_range(field: str, value: int, upper: int) -> None:
    if not 0 <= value <= upper:
        raise ValidationError(f"{field}: must lie in 0..{upper}, got {value}")


class _Context:
    """Parsed scenario pieces shared by the commands."""

    def __init__(self, scenario: dict, verbose: bool):
        self.scenario = scenario
        self.verbose = verbose
        # The name heads every output as a comment line, so it is one line.
        self.name = scenario.get("name", "?")
        if not isinstance(self.name, str) or "".join(self.name.splitlines()) != self.name:
            raise ValidationError(f"scenario.name: expected a one-line string, got {self.name!r}")
        if "model" not in scenario:
            raise ValidationError("scenario.model: missing")
        if "scheme" not in scenario:
            raise ValidationError("scenario.scheme: missing")
        self.model = build_model(scenario["model"])
        self.scheme = PartitionScheme.from_json(scenario["scheme"])

    @cached_property
    def analyzer(self) -> WiretapAnalyzer:
        from .leakage import WiretapAnalyzer

        self.log("building enumeration engine")
        return WiretapAnalyzer(self.scheme, self.model)

    def section(self, name: str) -> dict:
        """The ``scenario.<name>`` object, or {} when it is absent."""
        value = self.scenario.get(name, {})
        if not isinstance(value, dict):
            raise ValidationError(f"scenario.{name}: must be a JSON object")
        return value

    def sweep(self, key: str, default) -> int:
        """The integer ``scenario.sweep.<key>``, or ``default`` when it is absent."""
        return int_field(self.section("sweep").get(key, default), f"scenario.sweep.{key}")

    def grid_size(self, side: str) -> int:
        """``scenario.sweep.mu_t<side>_max``: the largest number of wiretapped
        bits of one syndrome, in 0..its length; by default 5, or the length
        when that is shorter."""
        key = f"mu_t{side}_max"
        length = self.scheme.syndrome_len(side)
        value = self.sweep(key, min(5, length))
        _require_range(f"scenario.sweep.{key}", value, length)
        return value

    def mu_z_values(self) -> list[int]:
        """``scenario.sweep.mu_z_values``: a non-empty list of Z prefix
        lengths in 0..K; every length by default."""
        field = "scenario.sweep.mu_z_values"
        values = self.section("sweep").get("mu_z_values", range(self.model.K + 1))
        if not isinstance(values, (list, range)):
            raise ValidationError(f"{field}: must be a list of integers")
        if not values:
            raise ValidationError(f"{field}: must list at least one value")
        values = [int_field(v, field) for v in values]
        for v in values:
            _require_range(field, v, self.model.K)
        return values

    def log(self, msg: str):
        if self.verbose:
            print(f"corrleak: {msg}", file=sys.stderr)

    def log_entropy_counters(self):
        a = self.analyzer
        self.log(f"entropy: {a.entropy_calls} calls, {a.entropy_sets} sets computed")


def _golden_syndromes(ctx: _Context) -> tuple[int, int]:
    """The syndrome codes T_X and T_Y of the ``scenario.golden`` word pair."""
    golden, n = ctx.section("golden"), ctx.scheme.n
    for side in "xy":
        if not is_bits(golden.get(side), n):
            raise ValidationError(
                f"scenario.golden.{side}: expected {n} bits of 0/1, got {golden.get(side)!r}"
            )
    return tuple(word_syndrome(ctx.scheme, side, int(golden[side], 2)) for side in "xy")


def _golden_notes(ctx: _Context) -> list[str]:
    golden = ctx.scenario.get("golden")
    if not golden:
        return []
    tx, ty = _golden_syndromes(ctx)
    lx, ly = ctx.scheme.syndrome_len("x"), ctx.scheme.syndrome_len("y")
    return [f"x={golden['x']} y={golden['y']}", f"t_x={tx:0{lx}b} t_y={ty:0{ly}b}"]


def cmd_analyze(ctx: _Context, args: argparse.Namespace) -> Output:
    notes = _golden_notes(ctx)
    # A model past the memory budget exits 3 here, before the report's K check can exit 2.
    ctx.model.table
    info = sequence_summary(ctx.model)
    K = ctx.model.K
    summary = [
        {"quantity": name, "per_symbol_bits": val, "total_bits": val * K}
        for name, val in vars(info).items()
    ]
    ctx.log("evaluating prototype-code conditions")
    conditions = [
        {**asdict(r), "gap": r.gap}
        for r in prototype_condition_report(ctx.scheme, ctx.model)
    ]
    return "analyze", notes, {
        "summary": (summary, list(summary[0])),
        "conditions": (conditions, list(conditions[0])),
    }


def cmd_curves(ctx: _Context, args: argparse.Namespace) -> Output:
    from .leakage import grid_curve_rows, z_trace_rows

    if "z_trace" in ctx.scenario:
        raise ValidationError(
            "scenario.z_trace: not a setting; the Z trace takes H(X,Y) and H(X|Y) from the model"
        )
    ctx.log("sweeping the wiretap grid against the brute-force oracle")
    mu_tx_max, mu_ty_max = ctx.grid_size("x"), ctx.grid_size("y")
    rows = grid_curve_rows(ctx.analyzer, mu_tx_max, mu_ty_max)
    rows += z_trace_rows(ctx.analyzer, ctx.mu_z_values())
    ctx.log_entropy_counters()
    dicts = [asdict(r) for r in rows]
    disagree = sorted(
        {
            (r.mu_tx, r.mu_ty)
            for r in rows
            if abs(r.formula_max - r.formula_max_verbatim) > 1e-12
        }
    )
    note = (
        "max-formula variants disagree at: "
        + (";".join(f"({a},{b})" for a, b in disagree) if disagree else "none")
        + "; see variant_match for the oracle-confirmed variant"
    )
    return "curves", [note], {"rows": (dicts, list(dicts[0]))}


def cmd_verify_bounds(ctx: _Context, args: argparse.Namespace) -> Output:
    from .leakage import DELTA, sample_patterns
    from .linear import bits

    count = ctx.sweep("random_patterns", 100)
    if count < 1:
        raise ValidationError("scenario.sweep.random_patterns: sweep produced no patterns")
    tx, ty, mu = sample_patterns(ctx.scheme, count, args.seed, ctx.mu_z_values())
    ctx.log(f"checking {mu.size} patterns")
    checks = ctx.analyzer.pattern_checks(tx, ty, mu)
    rows = []
    for i, (*masks, mu_z) in enumerate(zip(tx.tolist(), ty.tolist(), mu.tolist())):
        tx_positions, ty_positions = (";".join(map(str, bits(m))) for m in masks)
        for target, c in checks.items():
            rows.append(
                {
                    "pattern": i,
                    "tx_positions": tx_positions,
                    "ty_positions": ty_positions,
                    "mu_z": mu_z,
                    "target": target,
                    "lhs_bits": c.lhs_bits[i],
                    "rhs_bits": c.rhs_bits[i],
                    "delta": DELTA,
                    "holds": c.holds[i],
                    "identity_residual": c.residual[i],
                }
            )
    ctx.log_entropy_counters()
    return "bounds", [f"seed={args.seed}"], {"rows": (rows, list(rows[0]))}


def cmd_region(ctx: _Context, args: argparse.Namespace) -> Output:
    queries = ctx.scenario.get("region_queries", [])
    if not queries:
        raise ValidationError("scenario.region_queries: missing or empty")
    if not isinstance(queries, list):
        raise ValidationError(f"scenario.region_queries: must be a list, got {queries!r}")
    info = sequence_summary(ctx.model)
    rows = []
    for i, entry in enumerate(queries):
        try:
            case = entry["case"]
            q = RegionQuery.from_json(entry["query"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"scenario.region_queries: bad entry ({exc})") from exc
        except ValidationError as exc:
            raise ValidationError(f"scenario.region_queries[{i}].query: {exc}") from exc
        try:
            verdict = region_membership(q, case, info)
        except UsageError as exc:  # an unknown case
            raise ValidationError(f"scenario.region_queries[{i}].case: {exc}") from exc
        flags = {c.column: c.satisfied for c in verdict.constraints}
        rows.append(
            {
                "case": case,
                **asdict(q),
                "status": verdict.status,
                **{column: flags.get(column, "") for column in REGION_COLUMNS},
                "violated": ";".join(verdict.violated),
                "domain_note": verdict.domain_note,
            }
        )
    return "region", [], {"rows": (rows, list(rows[0]))}


def cmd_decode(ctx: _Context, args: argparse.Namespace) -> Output:
    s, tx, ty = ctx.scheme, args.tx, args.ty
    n, lx, ly = s.n, s.syndrome_len("x"), s.syndrome_len("y")
    if (tx is None) != (ty is None):
        missing = "--ty" if ty is None else "--tx"
        raise UsageError(f"decode: {missing} is missing; pass both --tx and --ty, or neither")
    if tx is None:
        if not ctx.scenario.get("golden"):
            raise ValidationError("decode: pass --tx/--ty or add scenario.golden")
        tx, ty = _golden_syndromes(ctx)
    else:
        for flag, bits, length in (("--tx", tx, lx), ("--ty", ty, ly)):
            if not is_bits(bits, length):
                raise UsageError(f"{flag} must be {length} bits of 0/1, got {bits!r}")
        tx, ty = int(tx, 2), int(ty, 2)
    candidates = joint_decode(tx, ty, ctx.model, s)
    rows = [
        {
            "candidate": i,
            "x_bits": f"{x:0{n}b}",
            "y_bits": f"{y:0{n}b}",
            "x_hex": f"{x:#04x}",
            "y_hex": f"{y:#04x}",
        }
        for i, (x, y) in enumerate(candidates)
    ]
    note = (
        f"t_x={tx:0{lx}b} t_y={ty:0{ly}b} candidates={len(rows)} "
        f"unique={str(len(rows) == 1).lower()}"
    )
    # Explicit fields: a decode may have no candidates.
    fields = ["candidate", "x_bits", "y_bits", "x_hex", "y_hex"]
    return "decode", [note], {"rows": (rows, fields)}


def cmd_cipher_sim(ctx: _Context, args: argparse.Namespace) -> Output:
    cfg = ctx.section("cipher")
    mu = int_field(cfg.get("mu", 0), "scenario.cipher.mu")
    _require_range("scenario.cipher.mu", mu, ctx.model.K)
    branches = cfg.get("branches", ["none", "reused-pad", "independent-pads"])
    if not isinstance(branches, list) or not all(
        isinstance(b, str) and b in BRANCHES for b in branches
    ):
        raise ValidationError(
            f"scenario.cipher.branches: expected a list of names from {sorted(BRANCHES)}, "
            f"got {branches!r}"
        )
    if not branches:
        raise ValidationError("scenario.cipher.branches: must name at least one branch")
    # A model past the memory budget exits 3 here, before a later check can exit 2.
    ctx.model.table
    info = sequence_summary(ctx.model)
    target = cfg.get("h_target_xy")
    guaranteed = ""
    if target is not None:
        guaranteed = guaranteed_level(
            float_field(target, "scenario.cipher.h_target_xy"),
            *(
                float_field(cfg.get(k, 0.0), f"scenario.cipher.{k}")
                for k in ("alpha_cx", "alpha_cy", "i_xyz")
            ),
        )
    rows = []
    for branch in branches:
        ctx.log(f"measuring branch {branch}")
        m = measure_security(ctx.scheme, ctx.model, branch, mu=mu)
        rows.append(
            {
                "branch": branch,
                "mu_z": mu,
                "h_x_hat": m.h_x_hat,
                "h_y_hat": m.h_y_hat,
                "h_xy_hat": m.h_xy_hat,
                "key_bits_per_symbol": m.key_bits,
                "h_xy_upper": info.h_xy,
                "guaranteed_xy": guaranteed,
                "meets_target": (
                    security_verdict(m.h_xy_hat, guaranteed) if target is not None else ""
                ),
            }
        )
    return "cipher", [], {"rows": (rows, list(rows[0]))}


#: Each command's name and the function that runs it, in help order.
COMMANDS = {
    "analyze": cmd_analyze,
    "curves": cmd_curves,
    "verify-bounds": cmd_verify_bounds,
    "region": cmd_region,
    "cipher-sim": cmd_cipher_sim,
    "decode": cmd_decode,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrleak",
        description="Exact leakage analysis for correlated sources over an eavesdropped channel",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario file or bundled name")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    parser.add_argument("--tx", help="decode: syndrome bits transmitted for X")
    parser.add_argument("--ty", help="decode: syndrome bits transmitted for Y")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        scenario = load_scenario(args.scenario)
        ctx = _Context(scenario, args.verbose)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem, notes, tables = COMMANDS[args.command](ctx, args)
        files = _emit(out, args.format, stem, [f"scenario={ctx.name}", *notes], tables)
    except (CapacityError, MemoryError) as exc:  # MemoryError: a limit below the budget
        print(f"corrleak: capacity guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ToolkitError, OSError) as exc:
        print(f"corrleak: {exc}", file=sys.stderr)
        return 2
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
