"""Workload definitions: scenario files, command lists and seeded decode queries.

The generated scenarios (``hamming_k10``, ``iid_k5``) are fixed: the workload
seed changes only the ``verify-bounds --seed`` value and the decode query,
so the outputs of ``analyze``, ``curves``, ``region`` and ``cipher-sim`` can
be checked against stored rows on every seed.  Syndromes for the decode query are
computed here from the scheme, independently of the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# Region queries of the bundled reference scenario, reused by the generated
# scenarios so `region` exercises every case label.
REGION_QUERIES = [
    {"case": "joint", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.6, "r_ky": 0.6,
                                "h_xy": 1.0, "alpha_cx": 0.0, "alpha_cy": 0.0, "i_xyz": 0.0}},
    {"case": "joint", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.2, "r_ky": 0.2,
                                "h_xy": 1.0, "alpha_cx": 0.0, "alpha_cy": 0.0, "i_xyz": 0.0}},
    {"case": "individual", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.5, "r_ky": 0.5,
                                     "h_x": 0.6, "h_y": 0.8, "alpha_cx": 0.0, "alpha_cy": 0.0,
                                     "i_xyz": 0.0}},
    {"case": "y-only", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.0, "r_ky": 0.9,
                                 "h_y": 0.8, "alpha_cy": 0.0, "i_xyz": 0.0}},
]

ALL_COMMANDS = ("analyze", "curves", "verify-bounds", "region", "cipher-sim", "decode")
GENERATED_COMMANDS = ("curves", "verify-bounds", "region", "cipher-sim", "decode")


def _systematic_scheme(parity_rows: list[str], a1: list[int], v1: list[int]) -> dict:
    """Scheme JSON for G = [I_k | P^T] with the complementary split a1 == u2, v1 == a2."""
    k = len(parity_rows)
    n = k + len(parity_rows[0])
    rows = ["".join("1" if j == i else "0" for j in range(k)) + p for i, p in enumerate(parity_rows)]
    parity = list(range(k, n))
    return {
        "generator": {"rows": rows},
        "x_segments": {"a1": a1, "v1": v1, "q1": parity},
        "y_segments": {"u2": a1, "a2": v1, "q2": parity},
        "segment_roles": {"v1": "private", "u2": "private", "q1": "common", "q2": "common"},
    }


def hamming_k10_scenario() -> dict:
    """[10,6] shortened Hamming code: the first 6 weight->=2 parity columns of [15,11]."""
    columns = [format(v, "04b") for v in range(16) if bin(v).count("1") >= 2][:6]
    return {
        "name": "hamming_k10",
        "model": {"kind": "hamming", "K": 10, "d_xy": 1, "d_yz": 1},
        "scheme": _systematic_scheme(columns, [0, 1, 2], [3, 4, 5]),
        "sweep": {"mu_tx_max": 1, "mu_ty_max": 1, "mu_z_values": [0, 3, 6, 10],
                  "random_patterns": 10},
        "cipher": {"mu": 0, "branches": ["none", "common-only"]},
        "region_queries": REGION_QUERIES,
    }


def iid_pmf() -> list[float]:
    """p(x, y, z) flattened in [x, y, z] order: Y uniform, X = Y^Bern(0.1), Z = Y^Bern(0.2)."""
    return [
        0.5 * (0.9 if x == y else 0.1) * (0.8 if z == y else 0.2)
        for x, y, z in product((0, 1), repeat=3)
    ]


def iid_k5_scenario() -> dict:
    """[5,2] code over a correlated full-support iid law at K=5 (32,768 weighted rows)."""
    return {
        "name": "iid_k5",
        "model": {"kind": "iid", "K": 5,
                  "pmf": {"alphabets": [2, 2, 2], "probs": iid_pmf()}},
        "scheme": _systematic_scheme(["110", "011"], [0], [1]),
        "sweep": {"mu_tx_max": 1, "mu_ty_max": 1, "mu_z_values": [0, 2, 4, 5],
                  "random_patterns": 10},
        "cipher": {"mu": 0,
                   "branches": ["none", "common-only", "reused-pad", "independent-pads"]},
        "region_queries": REGION_QUERIES,
    }


def encode(word: str, scheme: dict, side: str) -> str:
    """Syndrome of a source word: info segment bits, then P^T keyed + parity bits."""
    segs = scheme["x_segments"] if side == "x" else scheme["y_segments"]
    info, keyed, par = (("v1", "a1", "q1") if side == "x" else ("u2", "a2", "q2"))
    rows = scheme["generator"]["rows"]
    k = len(rows)
    bits = [int(b) for b in word]
    out = [bits[p] for p in segs[info]]
    for j, q in enumerate(sorted(segs[par])):
        acc = bits[q]
        for p in segs[keyed]:
            acc ^= bits[p] & int(rows[p][k + j])
        out.append(acc)
    return "".join(str(b) for b in out)


def decode_query(scenario: dict, seed: int) -> tuple[str, str]:
    """A support pair (x, y) drawn from the seed, as bit strings."""
    rng = random.Random(seed)
    model = scenario["model"]
    K = model["K"]
    y = [rng.randrange(2) for _ in range(K)]
    if model["kind"] == "hamming":
        x = list(y)
        flip = rng.randrange(K + 1)  # K means x == y
        if flip < K:
            x[flip] ^= 1
    else:  # the iid law has full support
        x = [rng.randrange(2) for _ in range(K)]
    return "".join(map(str, x)), "".join(map(str, y))


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    scenario_ref: str  # bundled name or a generated file path
    decode_pair: tuple[str, str] | None  # (x, y) support pair behind --tx/--ty
    decode_syndromes: tuple[str, str] | None
    bound_rows: int  # verify-bounds rows: 2 targets x patterns x mu_z values


GENERATORS = {"hamming_k10": hamming_k10_scenario, "iid_k5": iid_k5_scenario}
WORKLOADS = ("ref_k7", "hamming_k10", "iid_k5")


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's generated inputs into ``workdir`` and describe its commands."""
    if name == "ref_k7":
        # reference_k7 sweeps 100 patterns over 8 mu_z values.
        return Workload(name, ALL_COMMANDS, "reference_k7", None, None, 2 * 100 * 8)
    scenario = GENERATORS[name]()
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
    x, y = decode_query(scenario, seed)
    syndromes = (encode(x, scenario["scheme"], "x"), encode(y, scenario["scheme"], "y"))
    (workdir / f"{name}.decode_query.json").write_text(
        json.dumps({"seed": seed, "x": x, "y": y, "tx": syndromes[0], "ty": syndromes[1]}) + "\n"
    )
    sweep = scenario["sweep"]
    bound_rows = 2 * sweep["random_patterns"] * len(sweep["mu_z_values"])
    return Workload(name, GENERATED_COMMANDS, str(path), (x, y), syndromes, bound_rows)


def command_argv(w: Workload, command: str, out: Path, seed: int, fmt: str = "csv") -> list[str]:
    """CLI arguments (after ``python -m corrleak``) for one command of a workload."""
    argv = [command, "--scenario", w.scenario_ref, "--out", str(out), "--format", fmt]
    if command == "verify-bounds":
        argv += ["--seed", str(seed)]
    if command == "decode" and w.decode_syndromes is not None:
        argv += ["--tx", w.decode_syndromes[0], "--ty", w.decode_syndromes[1]]
    return argv
