import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corrleak.cli import load_scenario, main
from corrleak.errors import ValidationError
from corrleak.info import SupportTable
from corrleak.leakage import WiretapAnalyzer, _CHECK_SETS
from corrleak.seqmodel import build_model
from corrleak.swcodec import PartitionScheme
from oracle import ReferenceAnalyzer, pattern_triples
from test_perfbench import load_perfbench


def run(args):
    return main(args)


def test_load_bundled_scenario():
    sc = load_scenario("reference_k7")
    assert sc["model"]["K"] == 7
    with pytest.raises(ValidationError):
        load_scenario("no_such_scenario")


GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "ref_k7.json"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reference_outputs_byte_identical(tmp_path, fmt):
    # Every command on the bundled scenario at seed 0 reproduces the stored
    # SHA-256 digests byte for byte.
    expected = json.loads(GOLDEN_DIGESTS.read_text())[fmt]
    for command, files in expected.items():
        out = tmp_path / command
        args = [command, "--scenario", "reference_k7", "--out", str(out), "--format", fmt]
        assert run(args + ["--seed", "0"]) == 0
        for name, digest in files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_verbose_logs_entropy_counters(tmp_path, capsys):
    # --verbose reports the analyzer's entropy counters on stderr; the
    # outputs stay byte-identical to the stored digests.
    expected = json.loads(GOLDEN_DIGESTS.read_text())["csv"]
    counts = {}
    for command in ("verify-bounds", "curves"):
        out = tmp_path / command
        args = [command, "--scenario", "reference_k7", "--out", str(out), "--seed", "0"]
        assert run(args + ["--verbose"]) == 0
        err = capsys.readouterr().err
        found = re.findall(r"^corrleak: entropy: (\d+) calls, (\d+) sets computed$", err, re.M)
        assert len(found) == 1
        counts[command] = tuple(int(v) for v in found[0])
        for name, digest in expected[command].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert counts["verify-bounds"] == (16003, 1283)
    assert counts["curves"] == (3671, 289)


def test_analyze_golden_header(tmp_path):
    assert run(["analyze", "--scenario", "reference_k7", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "analyze.csv").read_text()
    head = "\n".join(text.splitlines()[:4])
    assert "t_x=11100" in head and "t_y=10111" in head
    assert "h_xy,1.42857143,10" in text
    conditions = (tmp_path / "conditions.csv").read_text()
    assert "decode_error" in conditions


def test_analyze_json_format(tmp_path):
    assert run(
        ["analyze", "--scenario", "reference_k7", "--out", str(tmp_path), "--format", "json"]
    ) == 0
    payload = json.loads((tmp_path / "analyze.json").read_text())
    assert any("t_x=11100" in line for line in payload["header"])
    quantities = {row["quantity"]: row for row in payload["summary"]}
    assert quantities["h_xy"]["total_bits"] == pytest.approx(10.0, abs=1e-9)


def test_analyze_takes_each_table_entropy_once(tmp_path, monkeypatch):
    # The summary takes no entropy of the table, as it comes from the model's
    # structure; the condition report reads H(X), H(Y), H(Z), H(X,Y) and the
    # three conditionals of the law from it too, and takes from the table
    # only its 4 portion entropies and the 3 conditionals given a portion.
    calls = []
    for name in ("entropy", "conditional_entropy"):
        def counted(self, *args, name=name, real=getattr(SupportTable, name)):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(SupportTable, name, counted)
    assert run(["analyze", "--scenario", "reference_k7", "--out", str(tmp_path)]) == 0
    assert (calls.count("entropy"), calls.count("conditional_entropy")) == (4, 3)


@pytest.mark.parametrize("workload", ["ref_k7", "hamming_k10", "iid_k5"])
def test_no_command_codes_a_row_code_without_z(tmp_path, monkeypatch, workload):
    # A set that reads no Z is counted on the pairs, conditionals included:
    # every command of the workload codes rows only for a Z prefix.
    scenarios = load_perfbench("scenarios")
    w = scenarios.make_workload(workload, 0, tmp_path)
    seen, real = [], SupportTable._row_code

    def spy(self, head, mu, tail):
        seen.append(mu)
        return real(self, head, mu, tail)

    monkeypatch.setattr(SupportTable, "_row_code", spy)
    for command in w.commands:
        assert run(scenarios.command_argv(w, command, tmp_path / command, 0)) == 0, command
    assert seen and 0 not in seen


@pytest.mark.parametrize("workload", ["ref_k7", "hamming_k10", "iid_k5"])
def test_analyze_prints_one_float_for_h_y_given_x(tmp_path, workload):
    # The summary's h_y_given_x and the right side of y_private_rate:upper
    # are one quantity of the source law, taken once from its structure.
    scenarios = load_perfbench("scenarios")
    w = scenarios.make_workload(workload, 0, tmp_path)
    assert run(scenarios.command_argv(w, "analyze", tmp_path, 0, "json")) == 0
    payload = json.loads((tmp_path / "analyze.json").read_text())
    summary = {row["quantity"]: row["per_symbol_bits"] for row in payload["summary"]}
    (upper,) = [row for row in payload["conditions"] if row["label"] == "y_private_rate:upper"]
    assert upper["rhs_name"] == "h(y|x)"
    assert upper["rhs_bits"] == summary["h_y_given_x"]


def test_determined_targets_print_zero_not_minus_zero(tmp_path):
    # With d_xy = 0 every support row has x = y, so h(x|y,z), h(y|x,z) and
    # h(y|x) are exactly 0; they print as 0, never as -0 or -0.0.
    scenario = load_scenario("reference_k7")
    scenario["model"]["d_xy"] = 0
    path = tmp_path / "determined.json"
    path.write_text(json.dumps(scenario))
    for fmt in ("csv", "json"):
        assert run(["analyze", "--scenario", str(path), "--out", str(tmp_path), "--format", fmt]) == 0
    lines = (tmp_path / "conditions.csv").read_text().splitlines()
    assert "x_private_rate:lower,h(x|y,z),0,h(w_x)/k,0.285714286,0.285714286" in lines
    assert not [line for line in lines if "-0" in line.split(",")]

    def negative_zeros(node):
        if isinstance(node, dict):
            return sum(negative_zeros(v) for v in node.values())
        if isinstance(node, list):
            return sum(negative_zeros(v) for v in node)
        return isinstance(node, float) and node == 0 and math.copysign(1, node) < 0

    payload = json.loads((tmp_path / "analyze.json").read_text())
    assert negative_zeros(payload) == 0


def test_curves_deterministic_and_rederivable(tmp_path, analyzer):
    scenario = {
        "name": "mini",
        "model": {"kind": "hamming", "K": 7},
        "scheme": load_scenario("reference_k7")["scheme"],
        "sweep": {"mu_tx_max": 2, "mu_ty_max": 2, "mu_z_values": [0, 7]},
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(scenario))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["curves", "--scenario", str(path), "--out", str(out1)]) == 0
    assert run(["curves", "--scenario", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "curves.csv").read_bytes()
    assert b1 == (out2 / "curves.csv").read_bytes()

    # every data row is re-derivable from the library
    from corrleak.leakage import minmax_curves

    lines = [l for l in b1.decode().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    lo, hi = analyzer.minmax_oracle(2, 2)
    for row in rows:
        if row["mu_z"] == "0":
            size = int(row["mu_tx"]), int(row["mu_ty"])
            f = minmax_curves(analyzer.scheme, *size)
            omin, omax = lo[size], hi[size]
            assert float(row["formula_min"]) == pytest.approx(f.min_bits, abs=1e-9)
            assert float(row["oracle_min"]) == pytest.approx(omin, abs=1e-9)
            assert float(row["oracle_max"]) == pytest.approx(omax, abs=1e-9)
    # the untouched corner leaks nothing
    corner = rows[0]
    assert (corner["mu_tx"], corner["mu_ty"], corner["mu_z"]) == ("0", "0", "0")
    assert float(corner["formula_min"]) == 0.0 and float(corner["oracle_max"]) == 0.0


def test_curves_default_grid_stops_at_a_short_syndrome(tmp_path, capsys):
    # Without a sweep section the grid runs to 5 wiretapped bits per side, or
    # to the syndrome length when that is shorter; an explicit 5 past a
    # 4-bit syndrome is still refused.
    scenario = {
        "name": "short-syndromes",
        "model": {"kind": "hamming", "K": 5},
        "scheme": {
            "generator": {"rows": ["10110", "01011"]},
            "x_segments": {"a1": [0], "v1": [1], "q1": [2, 3, 4]},
            "y_segments": {"u2": [0], "a2": [1], "q2": [2, 3, 4]},
        },
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(scenario))
    args = ["curves", "--scenario", str(path), "--out", str(tmp_path), "--format", "json"]
    assert run(args) == 0
    rows = json.loads((tmp_path / "curves.json").read_text())["rows"]
    grid = {(row["mu_tx"], row["mu_ty"]) for row in rows}
    assert grid == {(a, b) for a in range(5) for b in range(5)}
    capsys.readouterr()
    scenario["sweep"] = {"mu_tx_max": 5}
    path.write_text(json.dumps(scenario))
    assert run(args) == 2
    assert "scenario.sweep.mu_tx_max: must lie in 0..4, got 5" in capsys.readouterr().err


def test_curves_checks_the_grid_and_the_z_trace_in_three_batches(tmp_path, monkeypatch):
    # On reference_k7 (a 6 x 6 grid, mu_z in 0..7), the grid's bounds take
    # one evaluator call, and so do the Z trace's leakages and its bounds;
    # the other calls are the analyzer's two constants and the oracle, one block
    # of all 32 x 32 subset pairs of the grid.  Every Z-trace value is ==
    # the per-pattern reference, with the same repr.
    calls = []
    real = WiretapAnalyzer._entropies

    def spy(self, tx, ty, mu, sets):
        calls.append((pattern_triples(tx, ty, mu), set(sets)))
        return real(self, tx, ty, mu, sets)

    monkeypatch.setattr(WiretapAnalyzer, "_entropies", spy)
    args = ["curves", "--scenario", "reference_k7", "--out", str(tmp_path), "--format", "json"]
    assert run(args) == 0
    # The extremal max pattern of (a, b) reads the first a bits of T_X and b of T_Y.
    sizes = itertools.product(range(6), range(6))
    grid = [((1 << a) - 1, (1 << b) - 1, 0) for a, b in sizes]
    trace = [(0, 0, mu) for mu in range(8)]
    leakage_sets = {
        frozenset({"x", "y"}), frozenset({"tx", "ty", "z"}), frozenset({"x", "y", "tx", "ty", "z"})
    }
    assert [ps for ps, sets in calls if sets == _CHECK_SETS["y"]] == [grid, trace]
    leakages = [ps for ps, sets in calls if sets == leakage_sets]
    assert len(leakages) == 1 + 1 and leakages.count(trace) == 1
    (oracle,) = [ps for ps in leakages if ps != trace]
    assert sorted(oracle) == list(itertools.product(range(32), range(32), [0]))
    assert len(calls) == 2 + 1 + 1 + 1 + 1

    scenario = load_scenario("reference_k7")
    reference = ReferenceAnalyzer(
        PartitionScheme.from_json(scenario["scheme"]), build_model(scenario["model"])
    )
    rows = json.loads((tmp_path / "curves.json").read_text())["rows"][-len(trace):]
    for row, p in zip(rows, trace, strict=True):
        assert (row["mu_tx"], row["mu_ty"], row["mu_z"]) == (0, 0, p[2])
        oracle = reference.exact_leakage("xy", p).total_bits
        bound = reference.bound_report("y", p)
        for got, expected in (
            (row["oracle_min"], oracle), (row["oracle_max"], oracle),
            (row["bound_lhs"], bound.lhs_bits), (row["bound_rhs"], bound.rhs_bits),
            (row["bound_holds"], bound.holds),
        ):
            assert (got, repr(got)) == (expected, repr(expected)), (p, row)


def test_verify_bounds_all_hold(tmp_path):
    scenario = {
        "name": "mini-bounds",
        "model": {"kind": "hamming", "K": 7},
        "scheme": load_scenario("reference_k7")["scheme"],
        "sweep": {"random_patterns": 10, "mu_z_values": [0, 3, 7]},
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(scenario))
    assert run(["verify-bounds", "--scenario", str(path), "--out", str(tmp_path), "--seed", "5"]) == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")][1:]
    assert len(data) == 10 * 3 * 2  # patterns x mu values x targets
    for line in data:
        assert ",true," in line  # every verdict holds
        residual = float(line.rsplit(",", 1)[1])
        assert residual < 1e-9
    # same seed, same bytes
    again = tmp_path / "again"
    assert run(["verify-bounds", "--scenario", str(path), "--out", str(again), "--seed", "5"]) == 0
    assert (again / "bounds.csv").read_bytes() == (tmp_path / "bounds.csv").read_bytes()


def test_region_command(tmp_path):
    assert run(["region", "--scenario", "reference_k7", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "region.csv").read_text()
    assert "inside" in text and "outside" in text


def test_region_json_reads_each_flag_by_its_column(tmp_path):
    # An out-of-domain query leaves its four flag cells empty and gives its
    # note; an individual query that fails only its key sum reads
    # key_sum_ok false and names that constraint.
    scenario = load_scenario("reference_k7")
    scenario["region_queries"] = [
        {"case": "joint", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.6, "r_ky": 0.6,
                                    "h_xy": 5.0}},
        {"case": "individual", "query": {"r_x": 0.5, "r_y": 1.0, "r_kx": 0.2, "r_ky": 0.2,
                                         "h_x": 0.6, "h_y": 0.8}},
    ]
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run(["region", "--scenario", str(path), "--out", str(out), "--format", "json"]) == 0
    flags = ("rate_x_ok", "rate_y_ok", "rate_sum_ok", "key_sum_ok")
    domain, keyed = json.loads((out / "region.json").read_text())["rows"]
    assert domain["status"] == "out_of_domain"
    assert [domain[f] for f in flags] == ["", "", "", ""]
    assert domain["violated"] == ""
    assert domain["domain_note"].startswith("h_xy=5 outside 0..")
    assert keyed["status"] == "outside"
    assert [keyed[f] for f in flags] == [True, True, True, False]
    assert keyed["violated"] == "r_kx + r_ky >= max(h_x, h_y)"
    assert keyed["domain_note"] == ""


def test_cipher_sim_command(tmp_path):
    scenario = {
        "name": "mini-cipher",
        "model": {"kind": "hamming", "K": 7},
        "scheme": load_scenario("reference_k7")["scheme"],
        "cipher": {"mu": 0, "branches": ["none", "reused-pad"]},
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(scenario))
    assert run(["cipher-sim", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cipher.csv").read_text().splitlines()
    assert lines[-2].startswith("none,0,0,0,0,")
    assert lines[-1].startswith("reused-pad,")


def test_decode_command(tmp_path):
    assert run(["decode", "--scenario", "reference_k7", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "decode.csv").read_text()
    assert "t_x=11100 t_y=10111" in text
    assert "1011001,1011011,0x59,0x5b" in text
    assert run(
        ["decode", "--scenario", "reference_k7", "--tx", "11100", "--ty", "10111",
         "--out", str(tmp_path), "--format", "json"]
    ) == 0
    payload = json.loads((tmp_path / "decode.json").read_text())
    assert payload["rows"][0]["x_hex"] == "0x59"


def test_decode_rejects_bad_syndrome(tmp_path, capsys):
    assert run(
        ["decode", "--scenario", "reference_k7", "--tx", "111", "--ty", "10111",
         "--out", str(tmp_path)]
    ) == 2
    assert "--tx" in capsys.readouterr().err


def test_exit_code_validation_error(tmp_path, capsys):
    assert run(["analyze", "--scenario", "missing", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario" in err


def test_exit_code_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_exit_code_negative_seed(tmp_path, capsys):
    # numpy refuses a negative seed; the CLI names the option instead.
    args = ["verify-bounds", "--scenario", "reference_k7", "--out", str(tmp_path)]
    assert run(args + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_exit_code_capacity_guard(tmp_path, capsys):
    scenario = {
        "name": "huge",
        "model": {"kind": "hamming", "K": 9, "d_xy": 9, "d_yz": 9},
        "scheme": load_scenario("reference_k7")["scheme"],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    assert run(["analyze", "--scenario", str(path), "--out", str(tmp_path)]) == 3
    assert "capacity guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "hamming", "K": 20000},
        {"kind": "iid", "K": 5000, "pmf": {"alphabets": [2, 2, 2], "probs": [0.125] * 8}},
    ],
    ids=["hamming", "iid"],
)
def test_exit_code_capacity_guard_past_4300_digits(tmp_path, capsys, model):
    # A support size of more than 4,300 decimal digits is past Python's
    # int-to-str limit: the guard names its power of two instead.
    scenario = {"name": "huge", "model": model, "scheme": load_scenario("reference_k7")["scheme"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    assert run(["analyze", "--scenario", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "capacity guard" in err and "2**" in err
    assert len(err.splitlines()) == 1 and len(err) < 200


def test_hamming_support_past_the_budget_exits_before_its_balls_are_summed(tmp_path):
    # Every Hamming support holds at least 2**K rows, so K = 20000 is refused
    # at once; summing the binomials of its d_xy = 20000 ball takes minutes.
    scenario = {
        "name": "wide",
        "model": {"kind": "hamming", "K": 20000, "d_xy": 20000},
        "scheme": load_scenario("reference_k7")["scheme"],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "corrleak", "analyze", "--scenario", str(path), "--out",
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("corrleak: capacity guard: a support of at least 2**20000 rows")


@pytest.mark.parametrize(
    "workload, model",
    [
        ("iid_k5", {"K": 64}),
        ("hamming_k10", {"K": 60, "d_xy": 3, "d_yz": 2}),
        # Both radii full: e1 xor e2 is uniform, so no weight class is summed.
        ("hamming_k10", {"K": 2000, "d_xy": 2000, "d_yz": 2000}),
        # Full balls hold 2**K words, taken without a sum.
        ("hamming_k10", {"K": 10**6, "d_xy": 10**6, "d_yz": 10**6}),
    ],
    ids=["iid-k64", "hamming-k60", "hamming-k2000-full-radii", "hamming-k1e6-full-radii"],
)
def test_region_at_scale_builds_no_table(tmp_path, monkeypatch, workload, model):
    # region reads only the summary, which comes from the model's structure:
    # 8**64 rows of iid_k5's law, or 2**60 * V(60, 3) * V(60, 2) Hamming rows,
    # take no table and well under a second.
    scenario = getattr(load_perfbench("scenarios"), f"{workload}_scenario")()
    scenario["model"].update(model)
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(scenario))
    built = []
    init = SupportTable.__init__
    monkeypatch.setattr(
        SupportTable, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    start = time.perf_counter()
    assert run(["region", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert built == []
    assert len((tmp_path / "region.csv").read_text().splitlines()) > 2


def _hamming_31_26_scenario(d_xy: int) -> dict:
    """The [31,26] Hamming code (parity columns every 5-bit value of weight
    >= 2) with a 13/13 complementary split, under a Hamming model of radius
    ``d_xy``, and a golden pair at distance 1."""
    columns = [format(v, "05b") for v in range(32) if bin(v).count("1") >= 2]
    rows = ["".join("1" if j == i else "0" for j in range(26)) + c for i, c in enumerate(columns)]
    head, tail, parity = list(range(13)), list(range(13, 26)), list(range(26, 31))
    y = "1011001110001011100101101100101"
    x = y[:20] + str(1 - int(y[20])) + y[21:]
    return {
        "name": "hamming-31-26",
        "model": {"kind": "hamming", "K": 31, "d_xy": d_xy, "d_yz": 1},
        "scheme": {
            "generator": {"rows": rows},
            "x_segments": {"a1": head, "v1": tail, "q1": parity},
            "y_segments": {"u2": head, "a2": tail, "q2": parity},
        },
        "golden": {"x": x, "y": y},
    }


def test_decode_of_a_31_26_hamming_code_builds_no_table(tmp_path, monkeypatch):
    # 2**31 words take a support of 2**36 rows, past the memory budget; the
    # coset search reads the 2**13 words of T_Y's coset and the 32 words of
    # the unit ball, and finds the golden pair alone.
    scenario = _hamming_31_26_scenario(d_xy=1)
    path = tmp_path / "h31.json"
    path.write_text(json.dumps(scenario))
    built = []
    init = SupportTable.__init__
    monkeypatch.setattr(
        SupportTable, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    start = time.perf_counter()
    assert run(["decode", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert built == []
    x, y = scenario["golden"]["x"], scenario["golden"]["y"]
    rows = (tmp_path / "decode.csv").read_text().splitlines()
    assert "candidates=1 unique=true" in rows[1]
    assert rows[-1] == f"0,{x},{y},{int(x, 2):#04x},{int(y, 2):#04x}"


def _keyed_scenario(model: dict, info: int) -> dict:
    """``model`` over a systematic [K, K-3] code (parity column of row i the
    3-bit value i % 7 + 1) whose first ``info`` message bits are info bits on
    both sides and whose other message bits are keyed on both sides."""
    K = model["K"]
    k = K - 3
    rows = [
        "".join("1" if j == i else "0" for j in range(k)) + format(i % 7 + 1, "03b")
        for i in range(k)
    ]
    head, tail, parity = list(range(info)), list(range(info, k)), list(range(k, K))
    return {
        "name": "keyed",
        "model": model,
        "scheme": {
            "generator": {"rows": rows},
            "x_segments": {"v1": head, "a1": tail, "q1": parity},
            "y_segments": {"u2": head, "a2": tail, "q2": parity},
        },
    }


@pytest.mark.parametrize(
    "scenario, syndromes",
    [
        # 2**13 words of T_Y's coset, each taking up to V(31, 10) ~ 2**26.2 offsets.
        pytest.param(_hamming_31_26_scenario(d_xy=10), [], id="31-26-radius-10"),
        # Every message bit of a [17,14] code keyed: 2**14 words of T_Y's
        # coset, each taking up to V(17, 6) = 21,778 offsets, about 2**28.4
        # candidates in all, though the coset and the ball are 2**15.4 words.
        pytest.param(
            _keyed_scenario({"kind": "hamming", "K": 17, "d_xy": 6, "d_yz": 1}, info=0),
            ["--tx", "101", "--ty", "101"],
            id="17-14-keyed-radius-6",
        ),
    ],
)
def test_decode_past_the_work_guard_exits_3(tmp_path, capsys, scenario, syndromes):
    # More steps or candidates than the 2**26 support rows that the memory
    # budget admits: refused before the search starts.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["decode", "--scenario", str(path), "--out", str(tmp_path), *syndromes]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrleak: capacity guard: decoding searches")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "decode.csv").exists()


def test_decode_of_a_one_row_law_fixes_the_keyed_bits_of_both_sides(tmp_path):
    # X = Y = 0 is the law's one pair.  Its empty cells fix every keyed bit
    # of y and x, so the 2**28 words of T_Y's coset over 28 keyed bits are
    # never spanned: one candidate for the all-zero syndromes, none when y's
    # info bit is 1.
    model = {"kind": "iid", "K": 32, "pmf": {"alphabets": [1, 1, 1], "probs": [1.0]}}
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps(_keyed_scenario(model, info=1)))
    for ty, found in (("0000", 1), ("1000", 0)):
        args = ["decode", "--scenario", str(path), "--out", str(tmp_path)]
        assert run([*args, "--tx", "0000", "--ty", ty]) == 0
        rows = (tmp_path / "decode.csv").read_text().splitlines()
        assert f"candidates={found} " in rows[1]
        assert rows[3:] == ([f"0,{'0' * 32},{'0' * 32},0x00,0x00"] if found else [])


def _one_row_scenario(K: int) -> dict:
    """A one-row iid law (every alphabet 1), the one law the support guard
    passes at any K, over a systematic [K, 2] code with 1-bit info segments,
    so that l_x + l_y = 2 (K - 1)."""
    parity = list(range(2, K))
    rows = ["10" + "1" * (K - 2), "01" + "10" * (K // 2 - 1) + "1" * (K % 2)]
    return {
        "name": "one-row",
        "model": {"kind": "iid", "K": K, "pmf": {"alphabets": [1, 1, 1], "probs": [1.0]}},
        "scheme": {
            "generator": {"rows": rows},
            "x_segments": {"a1": [0], "v1": [1], "q1": parity},
            "y_segments": {"u2": [0], "a2": [1], "q2": parity},
        },
    }


@pytest.mark.parametrize(
    "K, command, limit",
    [
        pytest.param(40, "analyze", "40-bit Z code", id="k40-analyze"),
        pytest.param(40, "verify-bounds", "40-bit Z code", id="k40-verify-bounds"),
        # 2 flags + l_x + l_y = 60 syndrome bits + bit_length(31) = 67 bits.
        pytest.param(31, "verify-bounds", "67-bit class key", id="k31-verify-bounds"),
    ],
)
def test_exit_code_capacity_guard_on_a_width_limit(tmp_path, capsys, K, command, limit):
    # A Z code past an int32 or a class key past an int64 is a limit of the
    # enumeration, not an internal fault: the command exits 3.
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps(_one_row_scenario(K)))
    assert run([command, "--scenario", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrleak: capacity guard:") and limit in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "cipher-sim"])
def test_one_row_law_selects_wide_syndrome_portions_bit_by_bit(tmp_path, command):
    # The [31,2] scheme's 29-bit common portions are not a prefix of its
    # 30-bit syndromes.  A one-row law takes their bits from its one code
    # rather than through a 2**30-entry lookup table.  The command runs in a
    # child process that limits its own address space to 1 GiB before it
    # imports anything, so that such a table fails there and cannot take
    # the machine's memory.
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps(_one_row_scenario(31)))
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from corrleak.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, command, "--scenario", str(path), "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _systematic_scenario(model: dict) -> dict:
    """``model`` over a systematic [K, K-4] code (parity columns the first
    weight->=2 4-bit values) with the complementary split."""
    K = model["K"]
    k = K - 4
    columns = [format(v, "04b") for v in range(16) if bin(v).count("1") >= 2][:k]
    rows = ["".join("1" if j == i else "0" for j in range(k)) + c for i, c in enumerate(columns)]
    head, tail, parity = list(range(k // 2)), list(range(k // 2, k)), list(range(k, K))
    return {
        "name": "memory-limit",
        "model": model,
        "scheme": {
            "generator": {"rows": rows},
            "x_segments": {"a1": head, "v1": tail, "q1": parity},
            "y_segments": {"u2": head, "a2": tail, "q2": parity},
        },
    }


def _flip_law(x_flip: float, z_flip: float) -> list[float]:
    """Y uniform, X = Y xor Bern(x_flip), Z = Y xor Bern(z_flip), in [x, y, z] order."""
    return [
        0.5 * (x_flip if x != y else 1 - x_flip) * (z_flip if z != y else 1 - z_flip)
        for x, y, z in itertools.product((0, 1), repeat=3)
    ]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is a Linux limit")
@pytest.mark.parametrize(
    "K, law, code",
    [
        # 2**24 weighted rows fit the memory budget but not 512 MiB of
        # address space: the refused allocation is a capacity limit, exit 3.
        pytest.param(8, _flip_law(0.1, 0.2), 3, id="iid_k5-law-k8"),
        # X = Y: four nonzero cells, 2**20 rows.
        pytest.param(10, _flip_law(0.0, 0.2), 0, id="sparse-law-k10"),
    ],
)
def test_analyze_under_a_512mib_address_space_limit(tmp_path, K, law, code):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    model = {"kind": "iid", "K": K, "pmf": {"alphabets": [2, 2, 2], "probs": law}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_systematic_scenario(model)))
    proc = subprocess.run(
        [sys.executable, "-m", "corrleak", "analyze", "--scenario", str(path),
         "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        preexec_fn=limit_address_space, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("corrleak: capacity guard:")
        assert "Traceback" not in proc.stderr


DELETE = object()
# Written as a bare integer literal past Python's 4,300-digit int conversion limit.
HUGE_INT = "1" + "0" * 5000


def _iid_model(probs: list[float], alphabets=(2, 2, 2)) -> dict:
    return {"kind": "iid", "K": 2, "pmf": {"alphabets": list(alphabets), "probs": probs}}


@pytest.mark.parametrize(
    "command, path, value, field",
    [
        pytest.param("analyze", ("model",), DELETE, "scenario.model", id="missing-model"),
        pytest.param("curves", ("sweep",), [], "scenario.sweep", id="sweep-not-object"),
        pytest.param("cipher-sim", ("cipher",), [], "scenario.cipher", id="cipher-not-object"),
        pytest.param(
            "curves", ("sweep", "mu_tx_max"), "five", "scenario.sweep.mu_tx_max",
            id="sweep-mu-tx-max-not-int",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "mu"), "zero", "scenario.cipher.mu", id="cipher-mu-not-int"
        ),
        pytest.param("analyze", ("model", "K"), "seven", "model.K", id="model-k-not-int"),
        pytest.param(
            "region", ("region_queries", 0, "query", "r_x"), "half",
            "scenario.region_queries[0].query: r_x", id="query-r-x-not-number",
        ),
        pytest.param(
            "region", ("region_queries", 0, "query"), [1, 2],
            "scenario.region_queries[0].query", id="query-not-object",
        ),
        pytest.param("analyze", ("golden", "x"), DELETE, "scenario.golden.x", id="golden-no-x"),
        pytest.param(
            "decode", ("golden", "x"), "10a1001", "scenario.golden.x", id="golden-x-not-bits"
        ),
        # A golden word is a string of ASCII 0/1: a list of bits, a list of
        # bools and Unicode digits used to be encoded and echoed raw.
        pytest.param(
            "analyze", ("golden", "x"), [1, 0, 1, 1, 0, 0, 1], "scenario.golden.x",
            id="golden-x-int-list",
        ),
        pytest.param(
            "analyze", ("golden", "y"), [True, False, True, True, False, True, True],
            "scenario.golden.y", id="golden-y-bool-list",
        ),
        pytest.param(
            "decode", ("golden", "x"), "\uff11011001", "scenario.golden.x",
            id="golden-x-unicode-digit",
        ),
        # The name heads every output as a comment line.
        pytest.param("region", ("name",), "a\nb,c", "scenario.name", id="name-line-break"),
        pytest.param("analyze", ("name",), ["ref"], "scenario.name", id="name-not-string"),
        pytest.param(
            "cipher-sim", ("cipher", "h_target_xy"), "high", "scenario.cipher.h_target_xy",
            id="cipher-h-target-not-number",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "alpha_cx"), "x", "scenario.cipher.alpha_cx",
            id="cipher-alpha-cx-not-number",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "alpha_cy"), [1], "scenario.cipher.alpha_cy",
            id="cipher-alpha-cy-not-number",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "i_xyz"), {}, "scenario.cipher.i_xyz",
            id="cipher-i-xyz-not-number",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "branches"), "none", "scenario.cipher.branches",
            id="cipher-branches-not-list",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "branches"), ["none", 5], "scenario.cipher.branches",
            id="cipher-branch-not-string",
        ),
        # The Z trace reads the model's exact constants; an old scenario that
        # still sets them is refused rather than silently traced differently.
        pytest.param(
            "curves", ("z_trace",), {"h_xy_bits": 10.0, "h_x_given_y_bits": 3.0},
            "scenario.z_trace", id="z-trace-section",
        ),
        pytest.param(
            "verify-bounds", ("sweep", "mu_z_values"), [], "scenario.sweep.mu_z_values",
            id="sweep-mu-z-values-empty",
        ),
        pytest.param(
            "curves", ("sweep", "mu_z_values"), [], "scenario.sweep.mu_z_values",
            id="sweep-mu-z-values-empty-curves",
        ),
        pytest.param(
            "verify-bounds", ("sweep", "mu_z_values"), [0, 8], "scenario.sweep.mu_z_values",
            id="sweep-mu-z-value-past-k",
        ),
        pytest.param(
            "curves", ("sweep", "mu_z_values"), [-1], "scenario.sweep.mu_z_values",
            id="sweep-mu-z-value-negative",
        ),
        pytest.param(
            "curves", ("sweep", "mu_tx_max"), 6, "scenario.sweep.mu_tx_max",
            id="sweep-mu-tx-max-past-syndrome",
        ),
        pytest.param(
            "curves", ("sweep", "mu_ty_max"), 6, "scenario.sweep.mu_ty_max",
            id="sweep-mu-ty-max-past-syndrome",
        ),
        pytest.param(
            "curves", ("sweep", "mu_ty_max"), -1, "scenario.sweep.mu_ty_max",
            id="sweep-mu-ty-max-negative",
        ),
        pytest.param(
            "analyze", ("scheme", "x_segments"), "a1", "scheme.x_segments",
            id="scheme-x-segments-string",
        ),
        pytest.param(
            "decode", ("scheme", "y_segments"), [[0, 1]], "scheme.y_segments",
            id="scheme-y-segments-list",
        ),
        pytest.param(
            "region", ("scheme", "segment_roles"), "private", "scheme.segment_roles",
            id="scheme-segment-roles-string",
        ),
        pytest.param(
            "region", ("model",), _iid_model([math.nan] + [1 / 7] * 7), "model.pmf",
            id="iid-pmf-nan-cell",
        ),
        pytest.param(
            "analyze", ("model",), _iid_model([0.125] * 8, [-2, -2, 2]), "model.pmf",
            id="iid-pmf-negative-alphabets",
        ),
        pytest.param("analyze", ("model", "K"), 7.5, "model.K", id="model-k-fractional"),
        pytest.param("analyze", ("model", "K"), True, "model.K", id="model-k-bool"),
        pytest.param(
            "verify-bounds", ("sweep", "random_patterns"), 2.9, "scenario.sweep.random_patterns",
            id="sweep-random-patterns-fractional",
        ),
        pytest.param(
            "verify-bounds", ("sweep", "random_patterns"), -1, "scenario.sweep.random_patterns",
            id="sweep-random-patterns-negative",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "mu"), 0.9, "scenario.cipher.mu", id="cipher-mu-fractional"
        ),
        pytest.param(
            "cipher-sim", ("cipher", "h_target_xy"), math.inf, "scenario.cipher.h_target_xy",
            id="cipher-h-target-infinite",
        ),
        pytest.param(
            "region", ("region_queries", 0, "query", "r_x"), math.nan,
            "scenario.region_queries[0].query: r_x", id="query-r-x-nan",
        ),
        pytest.param(
            "decode", ("scheme", "y_segments", "a2"), [2.0, 3.0], "scheme.y_segments.a2",
            id="scheme-float-positions-decode",
        ),
        pytest.param(
            "analyze", ("scheme", "y_segments", "a2"), [2.0, 3.0], "scheme.y_segments.a2",
            id="scheme-float-positions-analyze",
        ),
        pytest.param(
            "region", ("scheme", "y_segments", "a2"), 5, "scheme.y_segments.a2: expected a list",
            id="scheme-segment-integer",
        ),
        pytest.param(
            "region", ("scheme", "x_segments", "v1"), {"2": 3},
            "scheme.x_segments.v1: expected a list", id="scheme-segment-object",
        ),
        pytest.param(
            "analyze", ("model", "K"), HUGE_INT, "scenario: malformed JSON",
            id="model-k-huge-literal",
        ),
        pytest.param(
            "analyze", ("scheme", "generator", "rows"), "1000101",
            "scheme.generator.rows: expected a list of 0/1 strings", id="generator-rows-string",
        ),
        pytest.param(
            "cipher-sim", ("cipher", "mu"), 9, "scenario.cipher.mu", id="cipher-mu-past-k"
        ),
        pytest.param(
            "region", ("region_queries", 1, "case"), "both", "scenario.region_queries[1].case",
            id="query-case-unknown",
        ),
        # The queries are a non-empty list; a scalar is not iterated.
        pytest.param(
            "region", ("region_queries",), DELETE, "scenario.region_queries: missing or empty",
            id="queries-missing",
        ),
        pytest.param(
            "region", ("region_queries",), [], "scenario.region_queries: missing or empty",
            id="queries-empty",
        ),
        *(
            pytest.param(
                "region", ("region_queries",), value, "scenario.region_queries: must be a list",
                id=f"queries-{name}",
            )
            for name, value in [
                ("integer", 5), ("true", True), ("string", "joint"), ("object", {"case": "joint"})
            ]
        ),
        pytest.param("analyze", ("model", "d_xy"), 8, "model.d_xy", id="model-d-xy-past-k"),
        pytest.param("curves", ("model", "d_yz"), -1, "model.d_yz", id="model-d-yz-negative"),
        pytest.param("analyze", ("model", "K"), 0, "model.K", id="model-k-zero"),
        pytest.param(
            "region", ("scheme", "generator", "rows"), ["1000", "0100", "0010", "0001"],
            "scheme.generator.rows: generator must be wider", id="generator-square",
        ),
        pytest.param(
            "analyze", ("scheme", "generator", "rows"),
            ["0100101", "1000110", "0010111", "0001011"],
            "scheme.generator.rows: generator must start", id="generator-permuted-identity",
        ),
        pytest.param(
            "region", ("scheme", "segment_roles"), {"v1": "public"}, "scheme.segment_roles.v1",
            id="segment-role-unknown",
        ),
        pytest.param(
            "analyze", ("scheme", "segment_roles"), {"zz": "private"}, "scheme.segment_roles.zz",
            id="segment-roles-unknown-segment",
        ),
        pytest.param(
            "region", ("scheme", "x_segments", "v1"), [2, 7], "scheme.x_segments: segments must",
            id="segments-not-a-partition",
        ),
        pytest.param(
            "analyze", ("scheme", "x_segments", "q1"), DELETE, "scheme.x_segments: segments must",
            id="segments-missing-q1",
        ),
        pytest.param(
            "region", ("scheme", "y_segments"), {"u2": [0, 1], "a2": [3, 4], "q2": [2, 5, 6]},
            "scheme.y_segments.q2", id="segments-q2-off-parity",
        ),
        pytest.param(
            "curves", ("scheme", "y_segments"), {"u2": [2, 3], "a2": [0, 1], "q2": [4, 5, 6]},
            "scheme.x_segments.a1 [0, 1] and scheme.y_segments.u2 [2, 3]",
            id="curves-split-not-complementary",
        ),
        # A model that does not fit the code named no field.
        pytest.param(
            "analyze", ("model",),
            {"kind": "iid", "K": 3, "pmf": {"alphabets": [2, 2, 2], "probs": [0.125] * 8}},
            "model.K: the condition report needs K equal to the code length n=7 of"
            " scheme.generator, got K=3",
            id="analyze-iid-k-not-code-length",
        ),
        pytest.param(
            "curves", ("model",),
            {"kind": "iid", "K": 7, "pmf": {"alphabets": [3, 2, 2], "probs": [1 / 12] * 12}},
            "model.pmf.alphabets: analyzer needs a binary law, got [3, 2, 2]",
            id="curves-ternary-law",
        ),
        # A lone syndrome flag was dropped, and the golden pair decoded.
        pytest.param("decode --tx 00000", (), None, "--ty is missing", id="decode-lone-tx"),
        pytest.param("decode --ty 10111", (), None, "--tx is missing", id="decode-lone-ty"),
    ],
)
def test_exit_code_field_diagnostic(tmp_path, capsys, command, path, value, field):
    # A malformed field of the bundled scenario, or a malformed set of
    # command flags (``path`` empty), exits 2 with a one-line diagnostic that
    # names the field or flag, not with a traceback.
    scenario = load_scenario("reference_k7")
    if path:
        *parents, last = path
        node = scenario
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    scenario_path = tmp_path / "malformed.json"
    scenario_path.write_text(json.dumps(scenario).replace(json.dumps(HUGE_INT), HUGE_INT))
    args = [*command.split(), "--scenario", str(scenario_path), "--out", str(tmp_path)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert field in err
    assert len(err.splitlines()) == 1


def test_package_imports_without_tests_dir(tmp_path):
    # Nothing under src/ may depend on the tests' reference oracle.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "import corrleak, corrleak.cli"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
