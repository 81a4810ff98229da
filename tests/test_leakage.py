import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corrleak.info as info_module
from corrleak.errors import DomainError, UsageError
from corrleak.info import JointPmf, code_entropy, column_code, pack_chunks
from corrleak.leakage import (
    DELTA,
    WiretapAnalyzer,
    _rank_term,
    grid_curve_rows,
    minmax_curves,
    sample_patterns,
    z_mu_leakage,
    z_trace_rows,
)
from corrleak.seqmodel import SequenceModel
from corrleak.swcodec import PartitionScheme, support_syndromes
from oracle import (
    ReferenceAnalyzer,
    enumeration_equivocation,
    formula_encode_x,
    formula_encode_y,
    h_surgery_rank_term,
    is_subset_of,
    mask_bits,
    mask_of,
    pack_bits,
    pattern,
    pattern_arrays,
    pattern_triples,
    readable_memo,
    support_arrays,
    support_digits,
    syndrome_observable,
    word_digits,
    z_prefix_observable,
)


def H(analyzer, p, *names):
    """H of one entropy set under one pattern, through the analyzer's evaluator."""
    names = frozenset(names)
    return analyzer._entropies(*(np.array([v]) for v in p), [names])[names].item()


def oracle_lists(analyzer, mu_tx_max, mu_ty_max):
    """The analyzer's oracle min and max grids as nested lists of floats."""
    return [values.tolist() for values in analyzer.minmax_oracle(mu_tx_max, mu_ty_max)]


def test_pattern_validation(scheme, analyzer):
    with pytest.raises(UsageError):
        analyzer.leakages("y", *pattern(tx=[5]))
    with pytest.raises(UsageError):
        analyzer.leakages("y", *pattern(mu=8))
    with pytest.raises(UsageError):
        analyzer.leakages("nope", *pattern())
    with pytest.raises(UsageError):
        analyzer.pattern_checks(*pattern(), ("xy",))


def test_empty_pattern_leaks_nothing(analyzer):
    (val,) = analyzer.leakages("y", *pattern())
    assert val == pytest.approx(0.0, abs=1e-12)
    assert val / analyzer.K == pytest.approx(0.0, abs=1e-12)


def test_full_pattern_definitional(analyzer):
    full = pattern(tx=range(5), ty=range(5), mu=7)
    (val,) = analyzer.leakages("y", *full)
    equiv = H(analyzer, full, "y", "tx", "ty", "z") - H(analyzer, full, "tx", "ty", "z")
    assert val == pytest.approx(analyzer.h_y_total - equiv, abs=1e-9)
    # the bound's left side is the same leakage per symbol
    lhs = analyzer.pattern_checks(*full, ("y",))["y"].lhs_bits
    assert lhs == [pytest.approx(val / 7, abs=1e-12)]


def test_z_only_joint_leakage_is_four_bits(analyzer):
    # 10 - (log2 8 + 3): full Z leaves 3 bits of y-ball freedom plus H(X|Y)
    assert analyzer.leakages("xy", 0, 0, 7) == [pytest.approx(4.0, abs=1e-9)]


def test_exact_leakage_matches_enumeration_oracle(scheme, hamming7, analyzer):
    # cross-check the fast engine against the plain dictionary oracle
    (val,) = analyzer.leakages("y", *pattern(mu=3))
    h_y = enumeration_equivocation([], "y", hamming7)
    h_y_given = enumeration_equivocation([z_prefix_observable(3)], "y", hamming7)
    assert val == pytest.approx(h_y - h_y_given, abs=1e-9)


def test_decomposition_residual_small_everywhere(analyzer):
    checks = analyzer.pattern_checks(*pattern_arrays([
        pattern(),
        pattern(tx=[0, 2], ty=[1, 4], mu=0),
        pattern(tx=range(5), ty=range(5), mu=7),
        pattern(tx=[3], ty=[], mu=5),
    ]))
    for c in checks.values():
        assert len(c.residual) == 4 and max(c.residual) < 1e-9


def test_mu_zero_kills_z_terms(scheme, hamming7):
    # The nine terms stay inside the package's bound sum, so read them from
    # the per-pattern reference, whose bound columns the package equals.
    report = ReferenceAnalyzer(scheme, hamming7).bound_report("y", pattern([0, 1], [0, 1], 0))
    for name, value in report.term_breakdown.items():
        if "z" in name and name.startswith("i("):
            assert value == pytest.approx(0.0, abs=1e-12)


def test_bound_empty_pattern(analyzer):
    rep = analyzer.pattern_checks(*pattern(), ("y",))["y"]
    assert rep.lhs_bits[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs_bits[0] <= rep.rhs_bits[0] + DELTA
    assert rep.holds == [True]


def test_bound_full_wiretap_both_targets(analyzer):
    full = pattern(tx=range(5), ty=range(5), mu=7)
    for rep in analyzer.pattern_checks(*full, ("x", "y")).values():
        assert rep.holds == [True]
        # the desk-scale margin is exactly (2 + 6 - 7)/7 = 1/7
        assert rep.rhs_bits[0] - rep.lhs_bits[0] == pytest.approx(1 / 7, abs=1e-9)


def test_bound_random_patterns_hold(scheme, analyzer):
    checks = analyzer.pattern_checks(*sample_patterns(scheme, 25, seed=7, mu_values=(0, 3, 7)))
    assert all(checks["y"].holds) and all(checks["x"].holds)


def extremal_min_pattern(scheme, mu_tx, mu_ty, mu):
    """Parity-first picks with minimal column overlap between the sides."""
    l_ix, l_iy, l_p = scheme.info_len("x"), scheme.info_len("y"), scheme.parity_len
    px, py = min(mu_tx, l_p), min(mu_ty, l_p)
    tx = {l_ix + c for c in range(px)} | set(range(mu_tx - px))
    ty = {l_iy + c for c in range(l_p - py, l_p)} | set(range(mu_ty - py))
    return pattern(tx, ty, mu)


def test_bound_holds_on_full_extremal_sweep(scheme, analyzer):
    # every size pair, extremal max and min subsets, every z prefix length
    patterns = [
        p
        for mu_tx, mu_ty, mu in itertools.product(range(6), range(6), range(8))
        for p in (
            pattern(range(mu_tx), range(mu_ty), mu), extremal_min_pattern(scheme, mu_tx, mu_ty, mu)
        )
    ]
    for c in analyzer.pattern_checks(*pattern_arrays(patterns)).values():
        assert len(c.holds) == 6 * 6 * 8 * 2
        assert all(c.holds) and max(c.residual) < 1e-9


def test_monotone_under_pattern_growth(scheme, analyzer):
    rng = np.random.default_rng(8)
    smalls, bigs = [], []
    for _ in range(500):
        a = int(rng.integers(0, 6))
        b = int(rng.integers(0, 6))
        mu = int(rng.integers(0, 8))
        tx = mask_of(rng.choice(5, size=a, replace=False))
        ty = mask_of(rng.choice(5, size=b, replace=False))
        small = (tx, ty, mu)
        extra_tx = tx | mask_of(rng.choice(5, size=min(5, a + 1), replace=False))
        big = (extra_tx, ty, min(7, mu + int(rng.integers(0, 3))))
        assert is_subset_of(small, big)
        smalls.append(small)
        bigs.append(big)
    leaks = [analyzer.leakages("xy", *pattern_arrays(ps)) for ps in (smalls, bigs)]
    for lo, hi in zip(*leaks):
        assert hi >= lo - 1e-9


def test_minmax_formula_examples(scheme, analyzer):
    f00 = minmax_curves(scheme, 0, 0)
    assert (f00.min_bits, f00.max_bits_corrected, f00.max_bits_verbatim) == (0, 0, 0)
    f22 = minmax_curves(scheme, 2, 2)
    assert f22.max_bits_corrected == 4
    f55 = minmax_curves(scheme, 5, 5)
    omin, omax = (values[5, 5] for values in analyzer.minmax_oracle(5, 5))
    assert f55.min_bits == f55.max_bits_corrected == omin == omax
    assert f55.max_bits_corrected != f55.max_bits_verbatim  # the stray-term variant differs here


def test_rank_term_equals_h_surgery():
    # |C| - rank(P_C) equals the H = [P | I] surgery it replaces, on seeded
    # random systematic [n, k] schemes with k, n - k in 1..7, for every
    # subset C of the parity columns.
    for k, p, seed in itertools.product(range(1, 8), range(1, 8), range(2)):
        s = random_systematic_scheme(k, k + p, (0,), (0,), seed=100 * k + 10 * p + seed)
        for size in range(p + 1):
            for cols in itertools.combinations(range(p), size):
                assert _rank_term(s, cols) == h_surgery_rank_term(s, cols), (k, p, seed, cols)


def test_minmax_formula_range_check(scheme):
    with pytest.raises(UsageError):
        minmax_curves(scheme, 6, 0)
    with pytest.raises(UsageError):
        minmax_curves(scheme, 0, -1)


def test_minmax_formulas_hold_exactly_on_the_complementary_splits(scheme, hamming7):
    # Over all 36 two-plus-two partitions of the reference [7,4] generator,
    # the formulas equal the oracle at every grid point on the 6 where a1
    # and u2 are the same set, and are refused on the other 30.
    refused, matched = 0, 0
    for a1, u2 in itertools.product(itertools.combinations(range(4), 2), repeat=2):
        s = PartitionScheme(
            scheme.generator,
            {"a1": a1, "v1": tuple(sorted({0, 1, 2, 3} - set(a1))), "q1": (4, 5, 6)},
            {"u2": u2, "a2": tuple(sorted({0, 1, 2, 3} - set(u2))), "q2": (4, 5, 6)},
        )
        if a1 != u2:
            with pytest.raises(DomainError, match=r"x_segments\.a1 \[.*y_segments\.u2 \["):
                minmax_curves(s, 0, 0)
            refused += 1
            continue
        lo, hi = WiretapAnalyzer(s, hamming7).minmax_oracle(5, 5)
        for size in itertools.product(range(6), repeat=2):
            f = minmax_curves(s, *size)
            omin, omax = lo[size], hi[size]
            assert f.min_bits == pytest.approx(omin, abs=DELTA), (a1, size)
            assert any(m == pytest.approx(omax, abs=DELTA)
                       for m in (f.max_bits_corrected, f.max_bits_verbatim)), (a1, size)
        matched += 1
    assert (refused, matched) == (30, 6)


def test_minmax_oracle_monotone_spot(analyzer):
    _, hi = analyzer.minmax_oracle(3, 3)
    m22, m32, m23 = hi[2, 2], hi[3, 2], hi[2, 3]
    assert m32 >= m22 - 1e-9 and m23 >= m22 - 1e-9


def test_extremal_max_pattern_layout(scheme, analyzer):
    # The maximum-leakage pattern reads info positions first, then parity
    # columns from column 0: at every size, the first bits of the syndrome.
    def picks(side, count):
        info = min(count, scheme.info_len(side))
        return set(range(info)) | {scheme.info_len(side) + c for c in range(count - info)}

    assert mask_bits(mask_of(picks("x", 4))) == (0, 1, 2, 3)
    for side in "xy":
        for count in range(scheme.syndrome_len(side) + 1):
            assert mask_of(picks(side, count)) == (1 << count) - 1
    # The grid's bound columns are the checks of those patterns.
    sizes = list(itertools.product(range(6), range(6)))
    patterns = [pattern(picks("x", a), picks("y", b)) for a, b in sizes]
    bound = analyzer.pattern_checks(*pattern_arrays(patterns), ("y",))["y"]
    rows = grid_curve_rows(analyzer, 5, 5)
    assert [(r.mu_tx, r.mu_ty) for r in rows] == sizes
    assert [(r.bound_lhs, r.bound_rhs, r.bound_holds) for r in rows] == list(
        zip(bound.lhs_bits, bound.rhs_bits, bound.holds)
    )


def test_z_mu_leakage_endpoints():
    assert z_mu_leakage(0, 7, 10.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert z_mu_leakage(7, 7, 10.0, 3.0) == pytest.approx(4.0, abs=1e-12)


def test_z_mu_leakage_midpoint_formula():
    # direct evaluation with the counting shares spelled out
    total = (1 << 4) * 8
    expected = 10.0 + (5 / 8) * math.log2(5 / total) + (3 / 8) * math.log2(1 / total) - 3.0
    assert z_mu_leakage(3, 7, 10.0, 3.0) == pytest.approx(expected, abs=1e-12)
    assert z_mu_leakage(3, 7, 10.0, 3.0) == pytest.approx(1.4512050593046013, abs=1e-9)


def test_z_mu_leakage_domain():
    with pytest.raises(DomainError):
        z_mu_leakage(8, 7, 10.0, 3.0)
    with pytest.raises(DomainError):
        z_mu_leakage(-1, 7, 10.0, 3.0)


def test_z_mu_matches_enumeration_all_mu(analyzer):
    oracles = analyzer.leakages("xy", 0, 0, range(8))
    for mu, oracle in enumerate(oracles):
        formula = z_mu_leakage(mu, 7, 10.0, 3.0)
        assert formula == pytest.approx(oracle, abs=1e-9)


def test_grid_rows_and_z_trace(analyzer):
    rows = grid_curve_rows(analyzer, 2, 2)
    assert len(rows) == 9
    for r in rows:
        assert r.formula_min <= r.oracle_min + 1e-9
        assert r.oracle_max <= max(r.formula_max, r.formula_max_verbatim) + 1e-9
        assert r.bound_holds
    trace = z_trace_rows(analyzer, range(8))
    assert [r.mu_z for r in trace] == list(range(8))
    assert trace[0].formula_min == pytest.approx(0.0, abs=1e-9)
    assert trace[-1].formula_min == pytest.approx(4.0, abs=1e-9)


def test_sample_patterns_deterministic(scheme):
    a = sample_patterns(scheme, 5, seed=3, mu_values=(0, 2))
    b = sample_patterns(scheme, 5, seed=3, mu_values=(0, 2))
    assert all(x.dtype == np.int64 and x.shape == (10,) for x in a)
    assert pattern_triples(*a) == pattern_triples(*b)
    c = sample_patterns(scheme, 5, seed=4, mu_values=(0, 2))
    assert pattern_triples(*a) != pattern_triples(*c)
    # Each draw of subsets is taken with every mu value in turn.
    tx, ty, mu = a
    assert (tx[::2] == tx[1::2]).all() and (ty[::2] == ty[1::2]).all()
    assert mu.tolist() == [0, 2] * 5


# -- the analyzer's cross-pattern entropy memo ---------------------------------------


def test_memo_shared_across_patterns_matches_fresh_analyzers(scheme, hamming7):
    patterns = pattern_triples(*sample_patterns(scheme, 13, seed=21, mu_values=(0, 2, 5, 7)))
    random.Random(22).shuffle(patterns)
    assert len(patterns) >= 50
    shared = WiretapAnalyzer(scheme, hamming7)
    for p in patterns:
        checks = shared.pattern_checks(*p)
        assert checks == WiretapAnalyzer(scheme, hamming7).pattern_checks(*p)
        fresh = WiretapAnalyzer(scheme, hamming7)
        assert checks["y"] == fresh.pattern_checks(*p, ("y",))["y"]
        assert checks["x"] == fresh.pattern_checks(*p, ("x",))["x"]
        for target in ("x", "y", "xy"):
            fresh = WiretapAnalyzer(scheme, hamming7).leakages(target, *p)
            assert shared.leakages(target, *p) == fresh
    sizes = [(2, 3), (0, 5), (5, 5), (3, 1), (1, 0)]
    for mu_tx, mu_ty in sizes:
        fresh = oracle_lists(WiretapAnalyzer(scheme, hamming7), mu_tx, mu_ty)
        assert oracle_lists(shared, mu_tx, mu_ty) == fresh
    assert 0 < shared.entropy_sets < shared.entropy_calls


def test_memo_keys_a_pad_column_by_side(scheme, hamming7):
    # Parity column 0 seen on x only, on y only, and on both sides.
    px, py = scheme.info_len("x"), scheme.info_len("y")
    analyzer = WiretapAnalyzer(scheme, hamming7)
    assert analyzer._pads["x"] >> px & 1 and analyzer._pads["y"] >> py & 1
    sets = analyzer.entropy_sets
    h_x = H(analyzer, pattern(tx=[px]), "tx")
    h_y = H(analyzer, pattern(ty=[py]), "ty")
    h_pair = H(analyzer, pattern(tx=[px], ty=[py]), "tx", "ty")
    # The two one-side reads pack no chunk, so they share one kernel entry.
    assert analyzer.entropy_sets == sets + 2
    # One padded bit alone is one fresh bit; the pair adds the raw-parity XOR.
    assert h_x == h_y == 1.0
    x, y, _, _ = support_arrays(hamming7)
    tx, ty = (
        word_digits(code, 2, scheme.syndrome_len(side))
        for code, side in zip(support_syndromes(scheme, x, y), "xy")
    )
    h_xor = code_entropy((tx[:, px] ^ ty[:, py]).astype(np.int64))
    assert h_xor > 0.0
    assert h_pair == pytest.approx(1.0 + h_xor, abs=1e-12)


ALL_ROLES = ("v1", "u2", "q1", "q2")


@pytest.mark.parametrize(
    "roles",
    [{"v1": "common"}, {"q1": "private"}, dict.fromkeys(ALL_ROLES, "private"),
     dict.fromkeys(ALL_ROLES, "common")],
    ids=["v1-common", "q1-private", "all-private", "all-common"],
)
def test_role_positions_and_pad_map_follow_the_segment_names(scheme, roles):
    # Each syndrome bit is named by its segment: the info segment's bits
    # first, then the parity segment's.  The role positions and the
    # analyzer's pad map equal that per-bit reading, and only common-role
    # parity bits are padded, each with its index past the info bits.
    for s in (scheme, random_systematic_scheme(5, 8, (1, 2, 3), (4,), seed=3)):
        s = replace(s, segment_roles=roles)
        analyzer = WiretapAnalyzer(s, SequenceModel(kind="hamming", K=s.n))
        for side, info, parity in (("x", "v1", "q1"), ("y", "u2", "q2")):
            n_info = len((s.x_segments if side == "x" else s.y_segments)[info])
            names = [info] * n_info + [parity] * s.parity_len
            role = [roles.get(name, "private") for name in names]
            for r in ("private", "common"):
                assert s.role_positions(side, r) == [i for i, v in enumerate(role) if v == r]
            # The pad mask's bits are positions; the evaluator shifts them
            # down by the info length to pad columns.
            assert analyzer._pads[side] == sum(
                1 << i for i, name in enumerate(names) if name == parity and role[i] == "common"
            )


@pytest.mark.parametrize("rows", [40, 5000], ids=["table-larger", "table-smaller"])
def test_column_code_equals_packing_the_columns(rows):
    # A column subset of a packed code is the code packed from those
    # columns, by shift, by reading the bits of each code (the 2**width
    # table is larger than the code) or by table gather (it is smaller).
    bits = np.random.default_rng(rows).integers(0, 2, size=(rows, 10)).astype(np.uint8)
    code = pack_bits(bits)
    for cols in ([0], [9], [1], [0, 1, 2], [3, 7], [0, 2, 9], [8, 9], list(range(10)), [4, 4]):
        expected = pack_bits(bits[:, cols])
        assert (column_code(code, 10, cols) == expected).all(), cols


@pytest.mark.parametrize(
    "base, extra",
    [
        pytest.param(pattern(tx=[0], ty=[0, 1], mu=0), "z", id="mu-0-z-prefix"),
        pytest.param(pattern(tx=[2], ty=[0, 1], mu=3), "tx", id="all-padded-tx"),
    ],
)
def test_memo_skips_a_variable_without_chunks(scheme, hamming7, base, extra):
    # The mu = 0 Z prefix and a syndrome read whose bits are all padded pack
    # no chunk: adding either to an entropy set adds no kernel entry, only
    # the padded read's fresh bit, and every value equals a fresh analyzer's.
    analyzer = WiretapAnalyzer(scheme, hamming7)
    assert analyzer._pads["x"] >> 2 & 1  # a padded common-role parity bit
    sets_of_names = [("ty",), ("x", "ty"), ("y", "ty"), ("x", "y", "ty")]
    if extra == "tx":
        sets_of_names += [("z",), ("ty", "z"), ("y", "ty", "z")]
    else:
        sets_of_names += [("tx",), ("tx", "ty"), ("x", "tx", "ty")]
    without = {names: H(analyzer, base, *names) for names in sets_of_names}
    sets, memo = analyzer.entropy_sets, len(analyzer._class_values)
    bonus = 1.0 if extra == "tx" else 0.0
    for names, value in without.items():
        assert H(analyzer, base, *names, extra) == value + bonus
    assert (analyzer.entropy_sets, len(analyzer._class_values)) == (sets, memo)
    fresh = WiretapAnalyzer(scheme, hamming7)
    for names in without:
        assert H(analyzer, base, *names, extra) == H(fresh, base, *names, extra)
        assert H(analyzer, base, *names) == H(fresh, base, *names)


def random_systematic_scheme(k: int, n: int, v1: tuple, u2: tuple, seed: int) -> PartitionScheme:
    """Seeded random systematic [n,k] code; v1 of X and u2 of Y sent in the clear."""
    parity = np.random.default_rng(seed).integers(0, 2, size=(k, n - k))
    rows = [
        "".join("1" if j == i else "0" for j in range(k)) + "".join(map(str, p))
        for i, p in enumerate(parity)
    ]
    return PartitionScheme(
        generator=rows,
        x_segments={"a1": tuple(p for p in range(k) if p not in v1), "v1": v1,
                    "q1": tuple(range(k, n))},
        y_segments={"u2": u2, "a2": tuple(p for p in range(k) if p not in u2),
                    "q2": tuple(range(k, n))},
    )


def weighted_iid_law() -> JointPmf:
    """Skewed Y, X = Y ^ Bern(0.1) and a constant Z: weighted rows, 4**K of them."""
    cells = [(0.7 if y == 0 else 0.3) * (0.9 if x == y else 0.1) for x in (0, 1) for y in (0, 1)]
    return JointPmf(np.array(cells).reshape(2, 2, 1))


#: (k, n, generator seed, model) for the memo cases.  The [10,6] model keeps
#: Z = Y so that its support stays at 11,264 rows.
MEMO_CODES = {
    "k7-hamming": (4, 7, 31, lambda: SequenceModel(kind="hamming", K=7)),
    "k7-iid": (4, 7, 32, lambda: SequenceModel(kind="iid", K=7, base=weighted_iid_law())),
    "k10-hamming": (6, 10, 33, lambda: SequenceModel(kind="hamming", K=10, d_yz_max=0)),
}

#: Split name -> (v1, u2) as functions of k.
MEMO_SPLITS = {
    "complementary": lambda k: (tuple(range(k // 2, k)), tuple(range(k // 2))),
    "crossed": lambda k: ((0, 2), (1, 2)),
    "unequal": lambda k: (tuple(range(1, k)), (0,)),
}


@pytest.mark.parametrize("split", sorted(MEMO_SPLITS))
@pytest.mark.parametrize("code", sorted(MEMO_CODES))
def test_memo_matches_fresh_analyzers_over_schemes(code, split, monkeypatch):
    k, n, seed, make_model = MEMO_CODES[code]
    s = random_systematic_scheme(k, n, *MEMO_SPLITS[split](k), seed=seed)
    model = make_model()
    patterns = pattern_triples(*sample_patterns(s, 6, seed=seed, mu_values=(0, 3, n)))
    random.Random(seed).shuffle(patterns)
    shared = WiretapAnalyzer(s, model)
    for p in patterns:
        fresh = WiretapAnalyzer(s, model)
        assert shared.pattern_checks(*p) == fresh.pattern_checks(*p)
        for target in ("x", "y", "xy"):
            assert shared.leakages(target, *p) == fresh.leakages(target, *p)
    for mu_tx, mu_ty in [(1, 2), (2, 1), (0, 3)]:
        fresh = oracle_lists(WiretapAnalyzer(s, model), mu_tx, mu_ty)
        assert oracle_lists(shared, mu_tx, mu_ty) == fresh

    # Reading one more pad column on the x side only adds a fresh bit outside
    # the memo: no new kernel entry and no packing by the support table.
    wider = []
    for tx, ty, mu in patterns:
        read_y = {i - s.info_len("y") for i in mask_bits(ty) if i >= s.info_len("y")}
        free = [
            i for i in range(s.info_len("x"), s.syndrome_len("x"))
            if not tx >> i & 1 and i - s.info_len("x") not in read_y
        ]
        if free:
            wider.append((tx | 1 << free[0], ty, mu))
    assert wider

    def results(analyzer, p):
        leaks = [analyzer.leakages(target, *p) for target in ("x", "y", "xy")]
        return analyzer.pattern_checks(*p), leaks

    expected = [results(WiretapAnalyzer(s, model), p) for p in wider]
    packed = []
    monkeypatch.setattr(
        info_module, "pack_chunks", lambda *args: packed.append(args) or pack_chunks(*args)
    )
    sets = shared.entropy_sets
    assert [results(shared, p) for p in wider] == expected
    assert shared.entropy_sets == sets
    assert packed == []


# -- the pair table: Z-free sets counted on distinct (x, y) pairs ---------------------


def full_table_kernel(s: PartitionScheme, model: SequenceModel):
    """The kernel entropy behind an analyzer memo key, packed from the
    model's digit arrays over every support row: the reference for the pair
    table and for the row path's repeated pair chunks."""
    X, Y, Z = support_digits(model)
    TX, TY = (
        word_digits(code, 2, s.syndrome_len(side))
        for code, side in zip(support_syndromes(s, pack_bits(X), pack_bits(Y)), "xy")
    )
    tables = {"X": X, "Y": Y, "x": TX, "y": TY}

    def kernel(key) -> float:
        var_keys, both = key
        chunks = []
        for name, *cols in var_keys:
            if name == "z":  # ("z", mu): the Z prefix
                part = Z[:, : cols[0]]
            else:
                part = tables[name] if not cols else tables[name][:, list(cols[0])]
            chunks.append((pack_bits(part), part.shape[1]))
        for c in both:
            xor = TX[:, s.info_len("x") + c] ^ TY[:, s.info_len("y") + c]
            chunks.append((xor.astype(np.int64), 1))
        return code_entropy(pack_chunks(chunks, X.shape[0]), model.table.weights)

    return kernel


def reads_z(key) -> bool:
    return any(var_key[0] == "z" for var_key in key[0])


def spy_kernel_rows(monkeypatch) -> list[tuple[int, object]]:
    """Record (code size, weights) of every kernel input of the support table."""
    seen = []
    real = info_module.code_entropy

    def spy(code, weights=1):
        seen.append((code.size, weights))
        return real(code, weights)

    monkeypatch.setattr(info_module, "code_entropy", spy)
    return seen


def assert_kernel_inputs(analyzer: WiretapAnalyzer, seen: list[tuple[int, object]]) -> None:
    """Under an equal-weight law every Z-free memo entry was counted on the
    pairs, each counted as its run of rows (one integer for even runs), and
    every other one over all rows."""
    table = analyzer.model.table
    keys = list(readable_memo(analyzer))
    assert len(keys) == len(seen)
    for key, (size, weights) in zip(keys, seen):
        if table.weights is None and not reads_z(key):
            assert size == table.pairs, key
            assert (np.broadcast_to(weights, size) == table.runs).all(), key
        else:
            assert size == table.rows and weights is table.weights, key


def assert_memo_equals_full_table(analyzer: WiretapAnalyzer) -> None:
    kernel = full_table_kernel(analyzer.scheme, analyzer.model)
    for key, value in readable_memo(analyzer).items():
        assert value == kernel(key), key


def test_reference_sweep_counts_z_free_sets_on_1024_pairs(scheme, hamming7, monkeypatch):
    # verify-bounds' 800-pattern sweep (seed 0) on reference_k7: every Z-free
    # kernel input has one row per (x, y) pair, 1,024 of them, each standing
    # for 8 rows; sets that read Z run over all 8,192 rows.  Every kernel
    # value is == the full-table kernel of its set.
    seen = spy_kernel_rows(monkeypatch)
    analyzer = WiretapAnalyzer(scheme, hamming7)
    analyzer.pattern_checks(*sample_patterns(scheme, 100, seed=0, mu_values=range(8)))
    keys = list(readable_memo(analyzer))
    assert len(keys) == len(seen) == analyzer.entropy_sets == 1284
    assert (hamming7.table.pairs, hamming7.table.rows) == (1024, 8192)
    assert (hamming7.table.runs == 8).all()
    assert_kernel_inputs(analyzer, seen)
    assert sum(not reads_z(key) for key in keys) > 0 and sum(map(reads_z, keys)) > 0
    assert_memo_equals_full_table(analyzer)


def test_pair_table_equals_full_table_on_a_10_6_sweep(monkeypatch):
    # A random [10,6] code over the unit-distance model: 123,904 rows,
    # 11,264 pairs of 11 rows each.
    s = random_systematic_scheme(6, 10, (3, 4, 5), (0, 1, 2), seed=41)
    model = SequenceModel(kind="hamming", K=10)
    seen = spy_kernel_rows(monkeypatch)
    analyzer = WiretapAnalyzer(s, model)
    for p in pattern_triples(*sample_patterns(s, 4, seed=42, mu_values=(0, 4, 10))):
        analyzer.pattern_checks(*p)
        analyzer.leakages("xy", *p)
    analyzer.minmax_oracle(1, 2)
    assert (model.table.pairs, model.table.rows) == (11_264, 123_904)
    assert (model.table.runs == 11).all()
    assert_kernel_inputs(analyzer, seen)
    assert_memo_equals_full_table(analyzer)


def uneven_equal_weight_law() -> JointPmf:
    """Cells (0,0,0), (0,0,1) and (1,1,0), 1/3 each: every row has weight
    3**-K, and a pair has 2**(zeros of y) rows."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[0, 0, 1] = probs[1, 1, 0] = 1 / 3
    return JointPmf(probs)


def constant_pair_law() -> JointPmf:
    """X = Y = 0 and a fair Z: one (x, y) pair, so every pair column is constant."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[0, 0, 1] = 0.5
    return JointPmf(probs)


MODELS = {
    "hamming-1-1": lambda K: SequenceModel(kind="hamming", K=K),
    "hamming-2-0": lambda K: SequenceModel(kind="hamming", K=K, d_xy_max=2, d_yz_max=0),
    "hamming-0-2": lambda K: SequenceModel(kind="hamming", K=K, d_xy_max=0, d_yz_max=2),
    "iid-uneven": lambda K: SequenceModel(kind="iid", K=K, base=uneven_equal_weight_law()),
    "iid-weighted": lambda K: SequenceModel(kind="iid", K=K, base=weighted_iid_law()),
    "iid-one-pair": lambda K: SequenceModel(kind="iid", K=K, base=constant_pair_law()),
}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.integers(2, 4),
    parity=st.integers(1, 3),
    model_name=st.sampled_from(sorted(MODELS)),
    data=st.data(),
)
def test_pair_table_equals_full_table_over_random_schemes(k, parity, model_name, data):
    n = k + parity
    v1 = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="v1")))
    u2 = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="u2")))
    s = random_systematic_scheme(k, n, v1, u2, seed=data.draw(st.integers(0, 999), label="code"))
    model = MODELS[model_name](n)
    probs = support_arrays(model)[3]
    assert (model.table.weights is None) == bool((probs == probs[0]).all())
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_kernel_rows(mp)
        analyzer = WiretapAnalyzer(s, model)
        seed = data.draw(st.integers(0, 999), label="patterns")
        mu_values = (0, data.draw(st.integers(1, n)))
        for p in pattern_triples(*sample_patterns(s, 3, seed=seed, mu_values=mu_values)):
            analyzer.pattern_checks(*p)
            analyzer.leakages("xy", *p)
    assert_kernel_inputs(analyzer, seen)
    assert_memo_equals_full_table(analyzer)


def test_uneven_pairs_count_on_the_pairs_and_match_the_oracle(monkeypatch):
    # Equal row weights, but pairs of 1 to 16 rows at K=4: every Z-free set
    # is counted on the pairs with their uneven runs, its count equals the
    # count of its code over the rows, and every leakage equals the
    # dictionary oracle's.
    s = PartitionScheme(
        generator=["1011", "0110"],
        x_segments={"a1": (0,), "v1": (1,), "q1": (2, 3)},
        y_segments={"u2": (0,), "a2": (1,), "q2": (2, 3)},
    )
    model = SequenceModel(kind="iid", K=4, base=uneven_equal_weight_law())
    table = model.table
    assert table.weights is None
    assert (table.runs.min(), table.runs.max()) == (1, 16)
    seen = spy_kernel_rows(monkeypatch)
    analyzer = WiretapAnalyzer(s, model)
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    info_x, info_y = s.info_len("x"), s.info_len("y")

    def xor_observable(col):
        def fn(t):
            bit_x = formula_encode_x(t.x, s)[info_x + col]
            return bit_x ^ formula_encode_y(t.y, s)[info_y + col]

        return fn

    def subsets(length):
        return [c for r in range(length + 1) for c in itertools.combinations(range(length), r)]

    unconditional = {t: enumeration_equivocation([], t, model) for t in ("y", "xy")}
    for tx, ty in itertools.product(subsets(lx), subsets(ly)):
        mu = 3 if (len(tx) + len(ty)) % 2 else 0
        # Clear info bits, the raw XOR of each pad column read on both sides,
        # and the Z prefix; a pad bit read on one side shows nothing.
        both = {i - info_x for i in tx if i >= info_x} & {i - info_y for i in ty if i >= info_y}
        observed = [
            syndrome_observable(s, "x", [i for i in tx if i < info_x]),
            syndrome_observable(s, "y", [i for i in ty if i < info_y]),
            *(xor_observable(c) for c in sorted(both)),
            z_prefix_observable(mu),
        ]
        for target, h in unconditional.items():
            expected = max(0.0, h - enumeration_equivocation(observed, target, model))
            (got,) = analyzer.leakages(target, *pattern(tx, ty, mu))
            assert got == pytest.approx(expected, abs=1e-9), (tx, ty, mu, target)
    # Every Z-free set was counted on the pairs, and every memo entry is ==
    # the count of its code over the rows.
    assert sum(not reads_z(key) for key in readable_memo(analyzer)) > 1
    assert_kernel_inputs(analyzer, seen)
    assert_memo_equals_full_table(analyzer)


def test_row_code_orders_rows_as_their_chunk_tuples(hamming7):
    # Pair chunks are spread out to the rows around the Z columns, which are
    # written into the table's row buffer: the shared (read-only, int32) Z
    # code is never written, and a constant leading chunk still orders
    # nothing.  7 Z columns above a 25-bit tail take 32 bits, so the row code
    # is int64 even with no head or a constant one, where the pair code is
    # the 25-bit tail alone.
    table = hamming7.table
    x, _, z, _ = support_arrays(hamming7)
    assert (np.repeat(table.x, table.runs) == x).all()
    bit, zero = table.x & 1, np.zeros(table.pairs, dtype=np.int64)
    wide = np.random.default_rng(25).integers(0, 1 << 25, size=table.pairs)
    cases = [
        ([(zero, 7)], [(bit, 1)], np.int32),
        ([(table.x, 7)], [(bit, 1)], np.int32),
        ([], [(wide, 25)], np.int64),
        ([(zero, 7)], [(wide, 25)], np.int64),
    ]
    for head, tail, dtype in cases:
        code = table._row_code(head, 7, tail)
        assert code.dtype == dtype
        spread = [(np.repeat(c, table.runs), w) for c, w in head + tail]
        rows = [*spread[: len(head)], (z, 7), *spread[len(head) :]]
        rank = np.unique(pack_chunks(rows, z.size), return_inverse=True)[1]
        assert (np.unique(code, return_inverse=True)[1] == rank).all()
    assert (table.z == z).all() and not table.z.flags.writeable
    assert table.z.dtype == np.int32


# -- the row buffer: every row-path code is built in one reused array ----------------


def spy_row_code_dtypes(monkeypatch, table) -> list[np.dtype]:
    """Record the dtype of every row code the support table builds."""
    seen = []
    real = table._row_code

    def spy(*args):
        code = real(*args)
        seen.append(code.dtype)
        return code

    monkeypatch.setattr(table, "_row_code", spy)
    return seen


def test_row_buffer_equals_full_table_on_wide_and_padded_sets(monkeypatch):
    # A random [10,6] code over the unit-distance model with Z = Y (11,264
    # rows, one per pair): a set of 40 bits (the int64 view) and a Z prefix
    # followed by the XOR of pad columns read on both sides.
    k, n, seed, make_model = MEMO_CODES["k10-hamming"]
    s = random_systematic_scheme(k, n, (3, 4, 5), (0, 1, 2), seed=seed)
    model = make_model()
    analyzer = WiretapAnalyzer(s, model)
    seen = spy_row_code_dtypes(monkeypatch, model.table)
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    px, py = s.info_len("x"), s.info_len("y")
    assert analyzer._pads["x"] >> px & 1 and analyzer._pads["y"] >> py & 1

    H(analyzer, pattern(tx=range(lx), ty=range(ly), mu=n), "tx", "ty", "x", "y", "z")
    assert seen == [np.dtype(np.int64)]
    for names in [("tx", "ty", "z"), ("tx", "ty", "y", "z"), ("tx", "ty", "x", "y", "z")]:
        H(analyzer, pattern(tx=[px], ty=[py], mu=3), *names)
    assert np.dtype(np.int32) in seen
    keys = list(readable_memo(analyzer))
    assert any(key[1] and reads_z(key) for key in keys)
    assert_memo_equals_full_table(analyzer)


def test_row_code_re_ranks_a_lead_past_62_bits(hamming7):
    # A 40-bit lead, 7 Z columns and a 21-bit tail pass 62 bits: the lead is
    # re-ranked on the pairs and the code, in the int64 view, still orders
    # rows as their chunk tuples do.
    table = hamming7.table
    z = table.z
    rng = np.random.default_rng(61)
    lead = rng.integers(0, 1 << 40, size=table.pairs)
    bit, wide = rng.integers(0, 2, size=table.pairs), rng.integers(0, 1 << 20, size=table.pairs)
    code = table._row_code([(lead, 40)], 7, [(bit, 1), (wide, 20)])
    assert code.dtype == np.int64 and code.size == z.size
    rows = [(np.repeat(lead, table.runs), 40), (z, 7), (np.repeat(bit, table.runs), 1),
            (np.repeat(wide, table.runs), 20)]
    rank = np.unique(pack_chunks(rows, z.size), return_inverse=True)[1]
    assert (np.unique(code, return_inverse=True)[1] == rank).all()


BUFFER_MODELS = {
    "hamming-k7": lambda: SequenceModel(kind="hamming", K=7),
    "iid-weighted-k5": lambda: SequenceModel(kind="iid", K=5, base=weighted_iid_law()),
    "iid-uneven-k5": lambda: SequenceModel(kind="iid", K=5, base=uneven_equal_weight_law()),
}


@pytest.mark.parametrize("name", sorted(BUFFER_MODELS))
def test_row_buffer_carries_no_state_between_sets(name):
    # Every entropy set of a few patterns, Z prefixes of several lengths, asked for
    # in one order and, on a fresh analyzer, in the reverse order: the two
    # memos are identical and equal the full-table kernel, so the reused
    # buffer never leaks one set's code into the next.
    model = BUFFER_MODELS[name]()
    n = model.K
    s = random_systematic_scheme(n - 2, n, (0, 1), (2,), seed=len(name))
    patterns = pattern_triples(*sample_patterns(s, 3, seed=7, mu_values=(0, 2, n)))
    patterns.append(pattern({0}, {1}, 1))
    names = ("tx", "ty", "x", "y", "z")
    subsets = [c for r in range(1, 6) for c in itertools.combinations(names, r)]
    asks = [(p, c) for p in patterns for c in subsets]

    def run(order):
        analyzer = WiretapAnalyzer(s, model)
        values = {(p, c): H(analyzer, p, *c) for p, c in order}
        return analyzer, values

    forward, forward_values = run(asks)
    backward, backward_values = run(asks[::-1])
    assert forward_values == backward_values
    assert readable_memo(forward) == readable_memo(backward)
    assert any(map(reads_z, readable_memo(forward)))
    assert_memo_equals_full_table(forward)
