"""The one work budget.  Every exact computation whose length a scenario sets
is charged to ``errors.check_work`` before it starts: the cipher's narrow-key
average, the min/max oracle's subset pairs, a bound sweep's patterns, the
joint decoder's search, the Hamming structural sum and a ball volume short of
the whole space.  Only ``errors`` holds a budget or names one in a refusal."""

import ast
import json
import time
from math import comb
from pathlib import Path

import pytest

import corrleak.cipher as cipher_module
import corrleak.info as info_module
import corrleak.leakage as leakage_module
import corrleak.linear as linear_module
import corrleak.swcodec as swcodec_module
from corrleak.cipher import measure_security
from corrleak.cli import load_scenario, main
from corrleak.errors import WORK_BUDGET, CapacityError, check_work
from corrleak.leakage import WiretapAnalyzer, grid_curve_rows, sample_patterns
from corrleak.linear import ball_volume
from corrleak.seqmodel import SequenceModel, build_model, sequence_entropies
from corrleak.swcodec import PartitionScheme, joint_decode

SRC = Path(__file__).resolve().parents[1] / "src" / "corrleak"


class Stop(Exception):
    """Raised after a charge within the budget, so that the work is never done."""


def charges(monkeypatch, module, stop: bool = False) -> list:
    """Wrap ``module.check_work`` so that it records each charge as (steps,
    within the budget) and then passes on the real check's verdict; with
    ``stop``, a charge within the budget raises ``Stop``."""
    seen = []

    def record(steps, what):
        try:
            check_work(steps, what)
        except CapacityError:
            seen.append((steps, False))
            raise
        seen.append((steps, True))
        if stop:
            raise Stop(what)

    monkeypatch.setattr(module, "check_work", record)
    return seen


def entropy_calls(monkeypatch) -> list:
    """One entry per ``code_entropy`` call from here on."""
    seen = []
    real = info_module.code_entropy
    monkeypatch.setattr(info_module, "code_entropy", lambda *a: seen.append(None) or real(*a))
    return seen


def scenario(columns: list[str], x_info, y_info, model: dict) -> dict:
    """``model`` over the systematic code whose row i ends in ``columns[i]``,
    sending the message positions ``x_info`` of X and ``y_info`` of Y; every
    other message position is keyed."""
    k, n = len(columns), len(columns[0]) + len(columns)
    rows = ["".join("1" if j == i else "0" for j in range(k)) + c for i, c in enumerate(columns)]
    keyed = [[p for p in range(k) if p not in info] for info in (x_info, y_info)]
    parity = list(range(k, n))
    return {
        "name": "work",
        "model": model,
        "scheme": {
            "generator": {"rows": rows},
            "x_segments": {"v1": list(x_info), "a1": keyed[0], "q1": parity},
            "y_segments": {"u2": list(y_info), "a2": keyed[1], "q2": parity},
        },
    }


def parse(sc: dict) -> tuple[PartitionScheme, SequenceModel]:
    return PartitionScheme.from_json(sc["scheme"]), build_model(sc["model"])


def hamming(K: int, d_xy: int = 1, d_yz: int = 1) -> dict:
    return {"kind": "hamming", "K": K, "d_xy": d_xy, "d_yz": d_yz}


def weight_two_columns(count: int, width: int) -> list[str]:
    """The first ``count`` ``width``-bit values of weight at least 2."""
    values = [v for v in range(1 << width) if bin(v).count("1") >= 2]
    return [format(v, f"0{width}b") for v in values[:count]]


ONE_ROW = {"kind": "iid", "K": 31, "pmf": {"alphabets": [1, 1, 1], "probs": [1.0]}}
# A one-row law on a [31,30] code sending 29 message bits of X and 28 of Y:
# reused-pad's 28-bit y1 key is narrower than x1, so it is averaged over 2**28 values.
ONE_ROW_28 = {**scenario(["1"] * 30, range(29), range(28), ONE_ROW),
              "cipher": {"mu": 0, "branches": ["reused-pad"]}}
# [K, K-4] Hamming models with the complementary split; the default grid is 5 x 5.
HAMMING_13_9 = scenario(weight_two_columns(9, 4), range(5), range(5, 9), hamming(13))
HAMMING_15_11 = scenario(weight_two_columns(11, 4), range(6), range(6, 11), hamming(15))


def test_a_28_bit_key_on_a_one_row_law_is_refused_before_any_entropy(monkeypatch):
    s, model = parse(ONE_ROW_28)
    seen, calls = charges(monkeypatch, cipher_module), entropy_calls(monkeypatch)
    with pytest.raises(CapacityError, match="measuring reused-pad at mu=0 over 2\\*\\*28 key"):
        measure_security(s, model, "reused-pad")
    # 2**28 ciphertexts, four entropies each, each coding one pair plus 2**11 steps.
    assert seen == [(4 * 2**28 * (1 + 2**11), False)]
    assert calls == []


def test_the_15_11_default_grid_is_refused_before_any_entropy(monkeypatch):
    # The grid is swept as ``curves`` sweeps it: the oracle is charged before
    # the bound checks at the grid's extremal patterns take an entropy.
    s, model = parse(HAMMING_15_11)
    analyzer = WiretapAnalyzer(s, model)
    seen, calls = charges(monkeypatch, leakage_module), entropy_calls(monkeypatch)
    with pytest.raises(CapacityError, match="the min/max oracle over 243716 subset pairs"):
        grid_curve_rows(analyzer, 5, 5)
    # Subsets of at most 5 of T_X's 10 bits and of T_Y's 9 bits, each pair
    # charged one entropy on the table's 2**15 * 16 pairs plus 2**11 steps.
    subsets = [sum(comb(length, k) for k in range(6)) for length in (10, 9)]
    assert subsets == [638, 382] and model.table.pairs == 2**19
    assert seen == [(638 * 382 * (2**19 + 2**11), False)]
    assert calls == []


def test_the_one_row_k29_oracle_is_charged_an_entropy_per_subset_pair(monkeypatch):
    # The [29,2] code keying one message bit of each side: T_X and T_Y are 28
    # bits each over a one-pair table, so each subset pair costs the 2**11
    # steps of one entropy's bookkeeping, not its one pair.  The (4, 4) grid's
    # 24,158**2 subset pairs are refused at once; the (2, 2) grid's 407**2
    # answer, every leakage of a one-row law being 0.
    one_row = {**ONE_ROW, "K": 29}
    s, model = parse(scenario(["1" * 27, "10" * 13 + "1"], [1], [0], one_row))
    assert (s.syndrome_len("x"), s.syndrome_len("y"), model.table.pairs) == (28, 28, 1)
    analyzer = WiretapAnalyzer(s, model)
    seen = charges(monkeypatch, leakage_module)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="the min/max oracle over 583608964 subset pairs"):
        analyzer.minmax_oracle(4, 4)
    assert time.perf_counter() - start < 1.0
    lo, hi = analyzer.minmax_oracle(2, 2)
    assert (lo == 0.0).all() and (hi == 0.0).all()
    assert seen == [(24_158**2 * (1 + 2**11), False), (407**2 * (1 + 2**11), True)]


def test_the_12_10_nine_bit_key_at_mu_12_is_charged_its_rows(monkeypatch):
    # The [12,10] code sending all ten message bits of X and nine of Y:
    # reused-pad's 9-bit key is averaged over 512 values, and at mu = 12 each
    # entropy codes all 2**12 * 13 * 13 rows.  It is charged, within the
    # budget, and stopped before it runs.
    columns = [format(i % 3 + 1, "02b") for i in range(10)]
    s, model = parse(scenario(columns, range(10), range(9), hamming(12)))
    seen, calls = charges(monkeypatch, cipher_module, stop=True), entropy_calls(monkeypatch)
    with pytest.raises(Stop):
        measure_security(s, model, "reused-pad", mu=12)
    assert model.table.rows == 692_224
    assert seen == [(4 * 512 * (692_224 + 2**11), True)]
    assert calls == []


def test_decode_passes_at_2_to_the_26_words_and_is_refused_one_word_past(monkeypatch):
    seen = charges(monkeypatch, swcodec_module, stop=True)
    # The [31,26] Hamming code keying 21 of Y's message bits: 2**21 words of
    # T_Y's coset, each taking up to V(31, 1) = 32 offsets, 2**26 words.
    s, model = parse(scenario(weight_two_columns(26, 5), range(5), range(5), hamming(31)))
    with pytest.raises(Stop):
        joint_decode(0, 0, model, s)
    # A law whose Y is always 0 fixes y (one word) and leaves T_X's coset
    # over 26 keyed bits: 1 + 2**26 words.
    law = {"kind": "iid", "K": 28, "pmf": {"alphabets": [2, 1, 1], "probs": [0.5, 0.5]}}
    s, model = parse(scenario(["1"] * 27, [0], [0], law))
    with pytest.raises(CapacityError, match="^decoding searches would take at least 2\\*\\*32"):
        joint_decode(0, 0, model, s)
    assert seen == [(64 * 2**26, True), (64 * (2**26 + 1), False)]
    assert 64 * 2**26 == WORK_BUDGET


@pytest.mark.parametrize(
    "K, d_xy, steps",
    [
        # (d_xy + 1) weight classes of e1 XOR e2 times K steps.
        pytest.param(65536, 65535, 2**32, id="at-the-budget"),
        pytest.param(6_700_417, 640, 2**32 + 1, id="one-step-past"),  # 641 * 6,700,417
    ],
)
def test_the_structural_sum_passes_at_2_to_the_32_steps_and_is_refused_one_past(
    monkeypatch, K, d_xy, steps
):
    seen = charges(monkeypatch, linear_module, stop=True)
    within = steps <= WORK_BUDGET
    with pytest.raises(Stop if within else CapacityError, match=f"H\\(e1 xor e2\\) at K={K}"):
        sequence_entropies(SequenceModel(kind="hamming", K=K, d_xy_max=d_xy, d_yz_max=0))
    assert seen == [(steps, within)]


def test_a_ball_volume_is_charged_its_terms_unless_the_ball_is_full(monkeypatch):
    # V(K, K) = 2**K is taken without a sum; V(K, d) for d < K sums d
    # binomials of up to K bits, charged d x K steps.
    seen = charges(monkeypatch, linear_module)
    assert ball_volume(10**6, 10**6) == 1 << 10**6
    assert ball_volume(7, 6) == 2**7 - 1 and ball_volume(7, 0) == 1
    with pytest.raises(CapacityError, match="^the ball volume V\\(1000000, 999999\\) would take"):
        ball_volume(10**6, 10**6 - 1)
    assert seen == [(42, True), (0, True), ((10**6 - 1) * 10**6, False)]


def test_region_at_k_a_million_with_one_radius_short_exits_3_at_once(tmp_path, capsys):
    # region reads the summary alone; with d_xy = K - 1 its ball volume is
    # refused before any term is summed (both radii K answer at once, as
    # tests/test_cli.py's region-at-scale test shows).
    K = 10**6
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**load_scenario("reference_k7"), "model": hamming(K, K - 1, K)}))
    start = time.perf_counter()
    assert main(["region", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"corrleak: capacity guard: the ball volume V({K}, {K - 1}) would take")


@pytest.mark.parametrize(
    "command, sc, message",
    [
        pytest.param("cipher-sim", ONE_ROW_28,
                     "measuring reused-pad at mu=0 over 2**28 key values", id="narrow-key"),
        pytest.param("curves", HAMMING_13_9,
                     "the min/max oracle over 83658 subset pairs", id="13-9-default-grid"),
    ],
)
def test_a_command_past_the_work_budget_exits_3(tmp_path, capsys, command, sc, message):
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(sc))
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"corrleak: capacity guard: {message} would take at least 2**")
    assert err.endswith(" steps, over the work budget of 2**32\n")
    assert len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_a_sweep_is_charged_2_to_the_11_steps_per_pattern_and_mu(monkeypatch):
    # reference_k7's 100 x 8 sweep and the [13,9] probe's 10 x 4 answer; at
    # 2**18 patterns of 8 mu values the charge reaches the budget exactly,
    # and one pattern more is refused before its first draw.
    s, _ = parse(load_scenario("reference_k7"))
    seen = charges(monkeypatch, leakage_module)
    assert sample_patterns(s, 100, 0, range(8))[0].size == 800
    assert sample_patterns(parse(HAMMING_13_9)[0], 10, 0, [0, 3, 6, 10])[0].size == 40
    assert seen == [(800 * 2**11, True), (40 * 2**11, True)]
    seen = charges(monkeypatch, leakage_module, stop=True)
    with pytest.raises(Stop):
        sample_patterns(s, 2**18, 0, range(8))
    with pytest.raises(CapacityError, match="^a sweep of 262145 patterns at 8 mu values would"):
        sample_patterns(s, 2**18 + 1, 0, range(8))
    assert seen == [(2**32, True), ((2**18 + 1) * 8 * 2**11, False)]


def test_a_sweep_of_10_to_the_12_patterns_exits_3_in_under_a_second(tmp_path, capsys):
    sc = load_scenario("reference_k7")
    sc["sweep"] = {**sc["sweep"], "random_patterns": 10**12}
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(sc))
    start = time.perf_counter()
    assert main(["verify-bounds", "--scenario", str(path), "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "corrleak: capacity guard: a sweep of 1000000000000 patterns at 8 mu values would take"
        " at least 2**53 steps, over the work budget of 2**32\n"
    )
    assert list(out.iterdir()) == []


def _budget_names(path: Path) -> tuple[set[str], list[int]]:
    """The ``*_BUDGET`` names that a module assigns, and the lines where it
    raises a ``CapacityError`` whose message names a budget."""
    defined, naming = set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "CapacityError"):
            parts = list(ast.walk(node.exc))
            text = " ".join(p.value for p in parts if isinstance(p, ast.Constant)
                            and isinstance(p.value, str))
            names = [p.id for p in parts if isinstance(p, ast.Name)]
            if "budget" in text.lower() or any(n.endswith("_BUDGET") for n in names):
                naming.append(node.lineno)
    return {n for n in defined if n.endswith("_BUDGET")}, naming


def test_only_errors_holds_a_budget_or_names_one_in_a_refusal():
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"errors", "seqmodel", "swcodec", "cipher", "leakage"}
    for path in modules:
        defined, naming = _budget_names(path)
        if path.stem == "errors":
            assert defined == {"MEMORY_BUDGET", "WORK_BUDGET"} and len(naming) == 2
        else:
            assert (defined, naming) == (set(), []), path.name
