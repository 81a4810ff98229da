"""The analyzer's block evaluator against the per-set reference.

``WiretapAnalyzer`` evaluates a block of patterns at once: observation
classes as int64 keys, one kernel call per distinct class, and the bound and
identity terms as array expressions.  ``oracle.ReferenceAnalyzer`` is the
same analysis one pattern and one entropy set at a time, its terms summed as
Python floats.  Every float the two report must be ``==`` with the same
``repr`` (so a -0.0 or a numpy scalar in place of 0.0 or a float fails), and
their memos and counters must be equal.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrleak import leakage
from corrleak.cli import load_scenario
from corrleak.errors import CapacityError, InternalConsistencyError, UsageError
from corrleak.leakage import BLOCK, WiretapAnalyzer, _key_shifts, sample_patterns, z_trace_rows
from corrleak.seqmodel import SequenceModel, build_model
from corrleak.swcodec import PartitionScheme
from oracle import ReferenceAnalyzer, pattern, pattern_arrays, pattern_triples, readable_memo
from test_leakage import MODELS, random_systematic_scheme
from test_perfbench import load_perfbench


def benchmark_sweep(name: str, seed: int):
    """Scheme, model and verify-bounds patterns of one benchmark workload."""
    if name == "ref_k7":
        scenario = load_scenario("reference_k7")
    else:
        scenario = load_perfbench("scenarios").GENERATORS[name]()
    s = PartitionScheme.from_json(scenario["scheme"])
    model = build_model(scenario["model"])
    sweep = scenario["sweep"]
    mu_values = sweep.get("mu_z_values", range(model.K + 1))
    patterns = sample_patterns(s, sweep["random_patterns"], seed, mu_values)
    grid = (sweep.get("mu_tx_max", 5), sweep.get("mu_ty_max", 5))
    return s, model, patterns, grid


def check_floats(checks, i: int, reference) -> list[tuple]:
    """(what, batch value, reference value) for every float of pattern ``i``."""
    out = []
    for t, residual, bound in (
        ("y", reference.residual_y, reference.bound_y),
        ("x", reference.residual_x, reference.bound_x),
    ):
        c = checks[t]
        out += [
            (f"{t} lhs", c.lhs_bits[i], bound.lhs_bits),
            (f"{t} rhs", c.rhs_bits[i], bound.rhs_bits),
            (f"{t} residual", c.residual[i], residual),
            (f"{t} holds", c.holds[i], bound.holds),
        ]
    return out


#: The analyzer's entropy constants, three of which every bound adds.
CONSTANTS = ("h_x_total", "h_y_total", "h_xy_total", "h_private_x", "h_private_y", "h_common")


def assert_batch_equals_reference(s, model, patterns, grid=None) -> WiretapAnalyzer:
    """Check a batch ``(tx, ty, mu)`` against the reference one pattern at a
    time, then the oracle over the grid of sizes up to ``grid``, if given,
    against the reference at every grid point."""
    analyzer, reference = WiretapAnalyzer(s, model), ReferenceAnalyzer(s, model)
    for name in CONSTANTS:
        got, expected = getattr(analyzer, name), getattr(reference, name)
        assert (got, repr(got)) == (expected, repr(expected)), name
    checks = analyzer.pattern_checks(*patterns)
    triples = pattern_triples(*patterns)
    for i, p in enumerate(triples):
        for what, got, expected in check_floats(checks, i, reference.pattern_check(p)):
            assert (got, repr(got)) == (expected, repr(expected)), (p, what)
    # The batch asks for the same sets and computes the same kernel values.
    assert analyzer.entropy_calls == reference.entropy_calls
    assert analyzer.entropy_sets == reference.entropy_sets
    assert readable_memo(analyzer) == reference._entropy_memo
    for target in ("x", "y", "xy"):
        for p, got in zip(triples, analyzer.leakages(target, *patterns), strict=True):
            expected = reference.exact_leakage(target, p).total_bits
            assert (got, repr(got)) == (expected, repr(expected)), p
    if grid is not None:
        lo, hi = analyzer.minmax_oracle(*grid)
        for size in itertools.product(range(grid[0] + 1), range(grid[1] + 1)):
            got, expected = (lo[size].item(), hi[size].item()), reference.minmax_oracle(*size)
            assert (got, repr(got)) == (expected, repr(expected)), size
    assert (analyzer.entropy_calls, analyzer.entropy_sets) == (
        reference.entropy_calls, reference.entropy_sets
    )
    return analyzer


@pytest.mark.parametrize(
    "name, seed", [("ref_k7", 0), ("ref_k7", 4242), ("hamming_k10", 5), ("iid_k5", 5)]
)
def test_batch_equals_per_set_reference_on_benchmark_sweeps(name, seed):
    # Both bound sides, both residuals, every term, every exact leakage and
    # every grid point's oracle min and max, == float for float.
    s, model, patterns, grid = benchmark_sweep(name, seed)
    assert_batch_equals_reference(s, model, patterns, grid)


#: A random systematic [k + parity, k] scheme under a Hamming, uneven-run or
#: weighted law; ``scheme_case`` draws the rest.
RANDOM_SCHEMES = dict(
    k=st.integers(2, 4),
    parity=st.integers(1, 3),
    model_name=st.sampled_from(["hamming-1-1", "hamming-2-0", "iid-uneven", "iid-weighted"]),
    data=st.data(),
)


def scheme_case(k: int, parity: int, model_name: str, data, count: int):
    """Scheme, model and patterns of one ``RANDOM_SCHEMES`` draw: ``count``
    sampled patterns at mu = 0 and one drawn mu, then the empty and the full
    pattern at mu = 0 and mu = K."""
    n = k + parity
    v1 = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="v1")))
    u2 = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="u2")))
    s = random_systematic_scheme(k, n, v1, u2, seed=data.draw(st.integers(0, 999), label="code"))
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    seed = data.draw(st.integers(0, 999), label="patterns")
    mu_values = (0, data.draw(st.integers(1, n)))
    patterns = pattern_triples(*sample_patterns(s, count, seed=seed, mu_values=mu_values))
    patterns += [pattern(mu=mu) for mu in (0, n)]
    patterns += [pattern(range(lx), range(ly), mu) for mu in (0, n)]
    return s, MODELS[model_name](n), pattern_arrays(patterns)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_SCHEMES)
def test_batch_equals_per_set_reference_over_random_schemes(k, parity, model_name, data):
    # Random systematic schemes under Hamming, uneven-run and weighted laws,
    # with the empty and the full pattern at mu = 0 and mu = K among them.
    s, model, patterns = scheme_case(k, parity, model_name, data, count=3)
    grid = (s.syndrome_len("x"), s.syndrome_len("y"))
    assert_batch_equals_reference(s, model, patterns, grid)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_SCHEMES)
def test_bound_gap_is_one_constant_per_scheme_model_and_target(k, parity, model_name, data):
    # The bound's right side adds the nine chain-rule terms, whose signed sum
    # is the leakage itself, to h_private_t + h_common - H(t).  So wherever
    # the left side is positive (not clamped at 0), rhs - lhs is that
    # constant over K, the same for every pattern, up to rounding.
    s, model, patterns = scheme_case(k, parity, model_name, data, count=10)
    analyzer = WiretapAnalyzer(s, model)
    checks = analyzer.pattern_checks(*patterns)
    for t, c in checks.items():
        private, h_t = (
            (analyzer.h_private_x, analyzer.h_x_total) if t == "x"
            else (analyzer.h_private_y, analyzer.h_y_total)
        )
        constant = (private + analyzer.h_common - h_t) / model.K
        gaps = [rhs - lhs for lhs, rhs in zip(c.lhs_bits, c.rhs_bits) if lhs > 0.0]
        if not gaps:
            # Then the target leaks nothing even to the full pattern at
            # mu = K.  That happens: under the weighted law, X = Y ^ N with N
            # independent of Y, so with no clear info bit every pattern reads
            # only parity XORs of x ^ y, and Y leaks nothing.
            full = ((1 << s.syndrome_len("x")) - 1, (1 << s.syndrome_len("y")) - 1, model.K)
            leak = ReferenceAnalyzer(s, model).exact_leakage(t, full).total_bits
            assert abs(leak) <= 1e-12, (t, leak)
        assert all(abs(gap - constant) <= 1e-12 for gap in gaps), (t, constant, gaps)


def test_key_shifts_refuse_a_key_past_63_bits():
    assert _key_shifts({"a": 1, "b": 40, "c": 22}) == {"a": 62, "b": 22, "c": 0}
    with pytest.raises(CapacityError, match="64-bit class key"):
        _key_shifts({"a": 1, "b": 40, "c": 23})


def test_reference_key_width(analyzer):
    # Two flags, 5 + 5 syndrome bits and 3 bits for mu in 0..7; the pad
    # columns read on both sides take the T_X field's padded positions.
    assert analyzer._shift == {"x": 14, "y": 13, "tx": 8, "ty": 3, "z": 0}


def test_wide_low_rate_scheme_packs_its_keys_within_an_int64():
    # A [20,1] code over X = Y = Z: 2**20 triples, within the guard.  Its
    # syndromes are 20 bits each, so a separate field for the 19 pad
    # columns read on both sides would take the key to 66 bits; they sit in
    # the T_X field's padded positions instead, for 2 + 20 + 20 + 5 = 47.
    s = random_systematic_scheme(1, 20, (0,), (0,), seed=4)
    model = SequenceModel(kind="hamming", K=20, d_xy_max=0, d_yz_max=0)
    patterns = [pattern(range(20), range(20)), pattern(range(20), range(20), 20)]
    patterns += pattern_triples(*sample_patterns(s, 1, seed=1, mu_values=(3,)))
    analyzer = assert_batch_equals_reference(s, model, pattern_arrays(patterns))
    assert analyzer._shift["x"] == 46


def row(c, i: int) -> tuple:
    """Pattern ``i``'s entries of one target's bound columns."""
    return c.target, c.lhs_bits[i], c.rhs_bits[i], c.holds[i], c.residual[i]


def test_single_pattern_operations_equal_rows_of_one_sweep(scheme, hamming7):
    # One path: one-pattern and one-target calls are rows of the batched
    # sweep, and a sweep counts what its patterns count one at a time.
    patterns = sample_patterns(scheme, 30, seed=11, mu_values=(0, 2, 7))
    triples = pattern_triples(*patterns)
    batch = WiretapAnalyzer(scheme, hamming7)
    checks = batch.pattern_checks(*patterns)
    counts = batch.entropy_calls, batch.entropy_sets
    single = WiretapAnalyzer(scheme, hamming7)
    for p in triples:
        single.pattern_checks(*p)
    assert counts == (single.entropy_calls, single.entropy_sets)
    assert counts[0] == 6 + 20 * len(triples)
    leaks = {t: batch.leakages(t, *patterns) for t in ("x", "y", "xy")}
    for i, p in enumerate(triples):
        one = single.pattern_checks(*p)
        for t in ("y", "x"):
            assert row(single.pattern_checks(*p, (t,))[t], 0) == row(checks[t], i)
            assert row(one[t], 0) == row(checks[t], i)
            assert one[t].residual == [checks[t].residual[i]]
            assert one[t].holds == [checks[t].holds[i]]
            assert single.leakages(t, *p)[0] / single.K == checks[t].lhs_bits[i]
        for t, values in leaks.items():
            assert single.leakages(t, *p) == [values[i]]


def test_results_do_not_depend_on_the_block_size(scheme, hamming7, monkeypatch):
    # Every benchmark sweep fits one block, so run one again in blocks of 7
    # patterns: the sweep's columns, the oracle's min and max folded over
    # 147 blocks of subset pairs, and the counters must not change.
    patterns = sample_patterns(scheme, 100, seed=0, mu_values=range(8))

    def run():
        analyzer = WiretapAnalyzer(scheme, hamming7)
        checks = analyzer.pattern_checks(*patterns)
        oracle = [values.tolist() for values in analyzer.minmax_oracle(5, 5)]
        return checks, oracle, analyzer.entropy_calls, analyzer.entropy_sets

    one_block = run()
    monkeypatch.setattr(leakage, "BLOCK", 7)
    assert run() == one_block


def test_pattern_checks_take_any_iterable_and_no_pattern(analyzer):
    # Lists, tuples, ranges, arrays and broadcast scalars give the same
    # columns; no pattern, a plain empty list as well as a typed empty
    # array, gives empty ones.
    tx, ty, mu = sample_patterns(analyzer.scheme, 4, seed=3, mu_values=(0, 5))
    lists = (tx.tolist(), tuple(ty.tolist()), mu.tolist())
    assert analyzer.pattern_checks(*lists) == analyzer.pattern_checks(tx, ty, mu)
    assert analyzer.leakages("xy", *lists) == analyzer.leakages("xy", tx, ty, mu)
    assert analyzer.leakages("y", tx, ty, 5) == analyzer.leakages("y", tx, ty, [5] * len(tx))
    zeros = [0] * 8
    ramp = list(range(8))
    assert analyzer.leakages("y", 0, 0, range(8)) == analyzer.leakages("y", zeros, zeros, ramp)
    for empty in ([], np.array([], dtype=np.int64)):
        for t, c in analyzer.pattern_checks(empty, empty, empty).items():
            assert (c.target, c.lhs_bits, c.rhs_bits, c.residual, c.holds) == (t, [], [], [], [])
        assert analyzer.leakages("xy", empty, 0, 0) == []
        assert z_trace_rows(analyzer, empty) == []


def sweep_transient(analyzer, patterns) -> int:
    """Peak traced bytes of a sweep beyond the bytes it keeps (its result)."""
    tracemalloc.start()
    try:
        result = analyzer.pattern_checks(*patterns)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result["y"].lhs_bits) == len(patterns[0])
    return peak - kept


def test_sweep_memory_does_not_grow_with_its_length(scheme, hamming7):
    # 20,000 patterns (2,500 draws x 8 mu values) go through in blocks, so
    # the sweep's key and term arrays never outgrow one block's.  The memo is
    # filled first, so that no kernel array is traced.
    patterns = sample_patterns(scheme, 2500, seed=17, mu_values=range(8))
    assert len(patterns[0]) == 20_000 > 19 * BLOCK
    analyzer = WiretapAnalyzer(scheme, hamming7)
    analyzer.pattern_checks(*patterns)
    sets = analyzer.entropy_sets
    one_block = sweep_transient(analyzer, [values[:BLOCK] for values in patterns])
    whole = sweep_transient(analyzer, patterns)
    assert analyzer.entropy_sets == sets
    # Growing result lists move now and then, so allow twice one block;
    # a sweep in one piece needs about twenty times as much.
    assert whole <= 2 * one_block, (whole, one_block)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("tx", {"tx": np.array([1.5, 3.0])}),
        ("tx", {"tx": np.array([True, False])}),
        ("ty", {"ty": [2.0]}),
        ("ty", {"ty": np.array([False])}),
        ("mu", {"mu": 2.0}),
        ("mu", {"mu": True}),
    ],
    ids=["tx-float", "tx-bool", "ty-float", "ty-bool", "mu-float", "mu-bool"],
)
def test_pattern_validation_refuses_non_integers(analyzer, field, kwargs):
    # A float or bool array is refused by its dtype, never read as a mask.
    patterns = {"tx": 0, "ty": 0, "mu": 0, **kwargs}
    with pytest.raises(UsageError, match=f"^{field}: expected integers, got dtype"):
        analyzer.leakages("xy", **patterns)
    with pytest.raises(UsageError, match=f"^{field}: expected integers, got dtype"):
        analyzer.pattern_checks(**patterns)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tx": [3, 32]}, "tx out of range 0..31, got 32"),
        ({"tx": np.array([1 << 63], dtype=np.uint64)}, f"tx out of range 0..31, got {1 << 63}"),
        ({"ty": np.array([5, -1], dtype=np.int8)}, "ty out of range 0..31, got -1"),
        ({"mu": [0, 8]}, "mu out of range 0..7, got 8"),
        ({"mu": -1}, "mu out of range 0..7, got -1"),
        (
            {"tx": np.zeros((2, 2), dtype=np.int64)},
            r"tx: expected one dimension, got shape \(2, 2\)",
        ),
        ({"tx": [1, 2], "ty": [1, 2, 3]}, "pattern lengths do not broadcast: tx 2, ty 3, mu 1"),
    ],
    ids=["tx-past-width", "tx-past-int64", "ty-negative", "mu-past-k", "mu-negative",
         "two-dimensional", "lengths"],
)
def test_pattern_validation_refuses_masks_out_of_range_and_bad_shapes(analyzer, kwargs, message):
    patterns = {"tx": 0, "ty": 0, "mu": 0, **kwargs}
    with pytest.raises(UsageError, match=f"^{message}$"):
        analyzer.leakages("xy", **patterns)
    with pytest.raises(UsageError, match=f"^{message}$"):
        analyzer.pattern_checks(**patterns)


def test_pattern_validation_takes_numpy_integers(analyzer):
    # Any integer dtype reads as the same masks as int64, scalars included.
    patterns = sample_patterns(analyzer.scheme, 6, seed=9, mu_values=(0, 4, 7))
    expected = analyzer.leakages("xy", *patterns), analyzer.pattern_checks(*patterns)
    for dtype in (np.int8, np.int32, np.uint8):
        narrow = [values.astype(dtype) for values in patterns]
        assert narrow[0].dtype == dtype
        assert (analyzer.leakages("xy", *narrow), analyzer.pattern_checks(*narrow)) == expected
    scalars = np.int8(9), np.int32(4), np.uint64(4)
    assert analyzer.leakages("xy", *scalars) == analyzer.leakages("xy", 9, 4, 4)


@pytest.mark.parametrize("skewed_pattern", [0, -1], ids=["first", "last"])
def test_minmax_oracle_refuses_a_negative_leakage_anywhere_in_its_block(
    analyzer, monkeypatch, skewed_pattern
):
    # A joint entropy pushed 100 bits up makes one pattern's leakage
    # negative; the oracle checks every pattern of the block, as
    # ``leakages`` does, instead of taking the min past it.
    real = analyzer._entropies
    joint = frozenset({"x", "y", "tx", "ty", "z"})

    def skewed(tx, ty, mu, sets):
        h = real(tx, ty, mu, sets)
        if joint in h:
            h[joint] = h[joint].copy()
            h[joint][skewed_pattern] += 100.0
        return h

    monkeypatch.setattr(analyzer, "_entropies", skewed)
    with pytest.raises(InternalConsistencyError, match="negative leakage -"):
        analyzer.minmax_oracle(2, 2)


def oracle_transient(analyzer, mu_tx_max: int, mu_ty_max: int) -> int:
    """Peak traced bytes of an oracle pass beyond the bytes it keeps."""
    tracemalloc.start()
    try:
        lo, hi = analyzer.minmax_oracle(mu_tx_max, mu_ty_max)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lo.shape == hi.shape == (mu_tx_max + 1, mu_ty_max + 1)
    return peak - kept


def test_oracle_memory_does_not_grow_with_the_grid(monkeypatch):
    # hamming_k10's 7-bit syndromes give 128 x 128 subset pairs over the
    # full grid, 16 blocks, against 29 x 29 in one block up to size 2.  The
    # pass walks them by index, so it never holds more than one block's
    # arrays.  The memo is filled first, so that no kernel array is traced.
    s, model, _, _ = benchmark_sweep("hamming_k10", 0)
    analyzer = WiretapAnalyzer(s, model)
    assert s.syndrome_len("x") == s.syndrome_len("y") == 7
    blocks = []
    real = analyzer._entropies

    def spy(tx, ty, mu, sets):
        blocks.append(len(tx))
        return real(tx, ty, mu, sets)

    monkeypatch.setattr(analyzer, "_entropies", spy)
    analyzer.minmax_oracle(7, 7)
    assert blocks == [BLOCK] * 16
    blocks.clear()
    analyzer.minmax_oracle(2, 2)
    assert blocks == [29 * 29]
    monkeypatch.undo()
    sets = analyzer.entropy_sets
    one_block = oracle_transient(analyzer, 2, 2)
    whole = oracle_transient(analyzer, 7, 7)
    assert analyzer.entropy_sets == sets
    assert whole <= 2 * one_block, (whole, one_block)
