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
from corrleak.leakage import BLOCK, WiretapAnalyzer, WiretapPattern, _key_shifts, sample_patterns
from corrleak.seqmodel import SequenceModel, build_model
from corrleak.swcodec import PartitionScheme
from oracle import ReferenceAnalyzer, readable_memo
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
        # The reference's breakdown ends in the three bound constants, which
        # the caller compares as the analyzers' attributes.
        assert list(c.terms) == list(bound.term_breakdown)[:-3]
        out += [
            (f"{t} {name}", values[i], bound.term_breakdown[name])
            for name, values in c.terms.items()
        ]
    return out


#: The analyzer's entropy constants, three of which every bound adds.
CONSTANTS = ("h_x_total", "h_y_total", "h_xy_total", "h_private_x", "h_private_y", "h_common")


def assert_batch_equals_reference(s, model, patterns, sizes) -> WiretapAnalyzer:
    analyzer, reference = WiretapAnalyzer(s, model), ReferenceAnalyzer(s, model)
    for name in CONSTANTS:
        got, expected = getattr(analyzer, name), getattr(reference, name)
        assert (got, repr(got)) == (expected, repr(expected)), name
    checks = analyzer.pattern_checks(patterns)
    for i, p in enumerate(patterns):
        for what, got, expected in check_floats(checks, i, reference.pattern_check(p)):
            assert (got, repr(got)) == (expected, repr(expected)), (p, what)
    # The batch asks for the same sets and computes the same kernel values.
    assert analyzer.entropy_calls == reference.entropy_calls
    assert analyzer.entropy_sets == reference.entropy_sets
    assert readable_memo(analyzer) == reference._entropy_memo
    for target in ("x", "y", "xy"):
        for p, got in zip(patterns, analyzer.leakages(target, patterns), strict=True):
            expected = reference.exact_leakage(target, p).total_bits
            assert (got, repr(got)) == (expected, repr(expected)), p
    for mu_tx, mu_ty in sizes:
        got, expected = analyzer.minmax_oracle(mu_tx, mu_ty), reference.minmax_oracle(mu_tx, mu_ty)
        assert (got, repr(got)) == (expected, repr(expected)), (mu_tx, mu_ty)
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
    s, model, patterns, (mx, my) = benchmark_sweep(name, seed)
    sizes = list(itertools.product(range(mx + 1), range(my + 1)))
    assert_batch_equals_reference(s, model, patterns, sizes)


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
    patterns = sample_patterns(s, count, seed=seed, mu_values=(0, data.draw(st.integers(1, n))))
    full = (frozenset(range(lx)), frozenset(range(ly)))
    patterns += [WiretapPattern(mu=mu) for mu in (0, n)]
    patterns += [WiretapPattern(*full, mu) for mu in (0, n)]
    return s, MODELS[model_name](n), patterns


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_SCHEMES)
def test_batch_equals_per_set_reference_over_random_schemes(k, parity, model_name, data):
    # Random systematic schemes under Hamming, uneven-run and weighted laws,
    # with the empty and the full pattern at mu = 0 and mu = K among them.
    s, model, patterns = scheme_case(k, parity, model_name, data, count=3)
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    sizes = [(0, 0), (1, 1), (lx, ly), (min(2, lx), 1)]
    assert_batch_equals_reference(s, model, patterns, sizes)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RANDOM_SCHEMES)
def test_bound_gap_is_one_constant_per_scheme_model_and_target(k, parity, model_name, data):
    # The bound's right side adds the nine chain-rule terms, whose signed sum
    # is the leakage itself, to h_private_t + h_common - H(t).  So wherever
    # the left side is positive (not clamped at 0), rhs - lhs is that
    # constant over K, the same for every pattern, up to rounding.
    s, model, patterns = scheme_case(k, parity, model_name, data, count=10)
    analyzer = WiretapAnalyzer(s, model)
    checks = analyzer.pattern_checks(patterns)
    for t, c in checks.items():
        private, h_t = (
            (analyzer.h_private_x, analyzer.h_x_total) if t == "x"
            else (analyzer.h_private_y, analyzer.h_y_total)
        )
        constant = (private + analyzer.h_common - h_t) / model.K
        gaps = [rhs - lhs for lhs, rhs in zip(c.lhs_bits, c.rhs_bits) if lhs > 0.0]
        assert gaps  # the full pattern at mu = K leaks
        assert max(abs(gap - constant) for gap in gaps) <= 1e-12, (t, constant, gaps)


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
    full = (frozenset(range(20)), frozenset(range(20)))
    patterns = [WiretapPattern(*full), WiretapPattern(*full, 20)]
    patterns += sample_patterns(s, 1, seed=1, mu_values=(3,))
    analyzer = assert_batch_equals_reference(s, model, patterns, sizes=[])
    assert analyzer._shift["x"] == 46


def row(c, i: int) -> tuple:
    """Pattern ``i``'s entries of one target's bound columns."""
    terms = {name: values[i] for name, values in c.terms.items()}
    return c.target, c.lhs_bits[i], c.rhs_bits[i], c.holds[i], c.residual[i], terms


def test_single_pattern_operations_equal_rows_of_one_sweep(scheme, hamming7):
    # One path: one-pattern and one-target calls are rows of the batched
    # sweep, and a sweep counts what its patterns count one at a time.
    patterns = sample_patterns(scheme, 30, seed=11, mu_values=(0, 2, 7))
    batch = WiretapAnalyzer(scheme, hamming7)
    checks = batch.pattern_checks(patterns)
    counts = batch.entropy_calls, batch.entropy_sets
    single = WiretapAnalyzer(scheme, hamming7)
    for p in patterns:
        single.pattern_checks([p])
    assert counts == (single.entropy_calls, single.entropy_sets)
    assert counts[0] == 6 + 20 * len(patterns)
    leaks = {t: batch.leakages(t, patterns) for t in ("x", "y", "xy")}
    for i, p in enumerate(patterns):
        one = single.pattern_checks([p])
        for t in ("y", "x"):
            assert row(single.pattern_checks([p], (t,))[t], 0) == row(checks[t], i)
            assert row(one[t], 0) == row(checks[t], i)
            assert one[t].residual == [checks[t].residual[i]]
            assert one[t].holds == [checks[t].holds[i]]
            assert single.leakages(t, [p])[0] / single.K == checks[t].lhs_bits[i]
        for t, values in leaks.items():
            assert single.leakages(t, [p]) == [values[i]]


def test_results_do_not_depend_on_the_block_size(scheme, hamming7, monkeypatch):
    # Every benchmark sweep fits one block, so run one again in blocks of 7
    # patterns: the sweep's columns, the oracle's running min and max over
    # up to 15 blocks of subset pairs, and the counters must not change.
    patterns = sample_patterns(scheme, 100, seed=0, mu_values=range(8))
    sizes = list(itertools.product(range(6), range(6)))

    def run():
        analyzer = WiretapAnalyzer(scheme, hamming7)
        checks = analyzer.pattern_checks(patterns)
        oracle = [analyzer.minmax_oracle(*size) for size in sizes]
        return checks, oracle, analyzer.entropy_calls, analyzer.entropy_sets

    one_block = run()
    monkeypatch.setattr(leakage, "BLOCK", 7)
    assert run() == one_block


def test_pattern_checks_take_any_iterable_and_no_pattern(analyzer):
    patterns = sample_patterns(analyzer.scheme, 4, seed=3, mu_values=(0, 5))
    assert analyzer.pattern_checks(iter(patterns)) == analyzer.pattern_checks(patterns)
    for t, c in analyzer.pattern_checks([]).items():
        assert (c.target, c.lhs_bits, c.residual, c.holds) == (t, [], [], [])
        assert all(v == [] for v in c.terms.values())
    assert analyzer.leakages("xy", iter(patterns)) == analyzer.leakages("xy", patterns)
    assert analyzer.leakages("xy", []) == []


def sweep_transient(analyzer, patterns) -> int:
    """Peak traced bytes of a sweep beyond the bytes it keeps (its result)."""
    tracemalloc.start()
    try:
        result = analyzer.pattern_checks(patterns)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result["y"].lhs_bits) == len(patterns)
    return peak - kept


def test_sweep_memory_does_not_grow_with_its_length(scheme, hamming7):
    # 20,000 patterns (2,500 draws x 8 mu values) go through in blocks, so
    # the sweep's key and term arrays never outgrow one block's.  The memo is
    # filled first, so that no kernel array is traced.
    patterns = sample_patterns(scheme, 2500, seed=17, mu_values=range(8))
    assert len(patterns) == 20_000 > 19 * BLOCK
    analyzer = WiretapAnalyzer(scheme, hamming7)
    analyzer.pattern_checks(patterns)
    sets = analyzer.entropy_sets
    one_block = sweep_transient(analyzer, patterns[:BLOCK])
    whole = sweep_transient(analyzer, patterns)
    assert analyzer.entropy_sets == sets
    # Growing result lists move now and then, so allow twice one block;
    # a sweep in one piece needs about twenty times as much.
    assert whole <= 2 * one_block, (whole, one_block)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("tx_positions", {"tx_positions": frozenset({1.5})}),
        ("tx_positions", {"tx_positions": frozenset({True})}),
        ("ty_positions", {"ty_positions": frozenset({2.0})}),
        ("ty_positions", {"ty_positions": frozenset({False})}),
        ("mu", {"mu": 2.0}),
        ("mu", {"mu": True}),
    ],
    ids=["tx-float", "tx-bool", "ty-float", "ty-bool", "mu-float", "mu-bool"],
)
def test_pattern_validation_refuses_non_integers(analyzer, field, kwargs):
    # A float ended in a numpy or int() TypeError, and a bool was read as 1.
    with pytest.raises(UsageError, match=f"^{field}: expected an integer"):
        analyzer.leakages("xy", [WiretapPattern(**kwargs)])


def test_pattern_validation_takes_numpy_integers(analyzer):
    plain = WiretapPattern(frozenset({0, 3}), frozenset({2}), 4)
    numpy_ints = WiretapPattern(
        frozenset(map(np.int64, (0, 3))), frozenset({np.int8(2)}), np.int64(4)
    )
    assert analyzer.leakages("xy", [numpy_ints]) == analyzer.leakages("xy", [plain])


@pytest.mark.parametrize("skewed_pattern", [0, -1], ids=["first", "last"])
def test_minmax_oracle_refuses_a_negative_leakage_anywhere_in_its_block(
    analyzer, monkeypatch, skewed_pattern
):
    # A joint entropy pushed 100 bits up makes one pattern's leakage
    # negative; the oracle checks every pattern of the block, as
    # ``leakages`` does, instead of taking the min past it.
    real = analyzer._entropies
    joint = frozenset({"x", "y", "tx", "ty", "z"})

    def skewed(patterns, sets):
        h = real(patterns, sets)
        if joint in h:
            h[joint] = h[joint].copy()
            h[joint][skewed_pattern] += 100.0
        return h

    monkeypatch.setattr(analyzer, "_entropies", skewed)
    with pytest.raises(InternalConsistencyError, match="negative leakage -"):
        analyzer.minmax_oracle(2, 2)
