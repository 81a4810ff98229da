import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrleak.errors import (
    MEMORY_BUDGET,
    CapacityError,
    DomainError,
    InternalConsistencyError,
    ValidationError,
)
from corrleak.info import JointPmf, SupportTable
from corrleak.seqmodel import (
    SequenceModel,
    ball_volume,
    build_model,
    sequence_entropies,
    sequence_summary,
)
from oracle import (
    iter_support,
    pack_bits,
    prefix_classes,
    sorted_ball,
    summarize,
    support_arrays,
    support_digits,
    table_entropies,
    z_consistency_counts,
)


def test_hamming_k7_support_and_ball():
    model = SequenceModel(kind="hamming", K=7)
    # eight x-neighbours per y, eight z-neighbours per y
    assert model.support_size() == (1 << 7) * 8 * 8 == 8192
    y = (0, 1, 1, 0, 0, 0, 1)
    assert len(sorted_ball(y, 1)) == 8


def test_hamming_k1_all_triples():
    model = SequenceModel(kind="hamming", K=1)
    triples = list(iter_support(model))
    assert len(triples) == 8
    assert {(t.x, t.y, t.z) for t in triples} == {
        ((x,), (y,), (z,)) for x in (0, 1) for y in (0, 1) for z in (0, 1)
    }


def test_hamming_mass_and_order():
    model = SequenceModel(kind="hamming", K=4)
    triples = list(iter_support(model))
    assert sum(t.prob for t in triples) == pytest.approx(1.0, abs=1e-12)
    keys = [(t.y, t.x, t.z) for t in triples]
    assert keys == sorted(keys)
    for t in triples:
        assert sum(a != b for a, b in zip(t.x, t.y)) <= 1
        assert sum(a != b for a, b in zip(t.y, t.z)) <= 1


def test_iid_uniform_bits_k2():
    base = JointPmf(np.full((2, 2, 2), 0.125))
    model = SequenceModel(kind="iid", K=2, base=base)
    triples = list(iter_support(model))
    assert len(triples) == 64
    for t in triples:
        assert t.prob == pytest.approx(1 / 64, abs=1e-15)


def test_iid_k1_is_base_pmf():
    rng = np.random.default_rng(0)
    flat = rng.dirichlet(np.ones(8))
    base = JointPmf(flat.reshape(2, 2, 2))
    model = SequenceModel(kind="iid", K=1, base=base)
    for t in iter_support(model):
        assert t.prob == pytest.approx(base.probs[t.x[0], t.y[0], t.z[0]], abs=1e-15)


def test_iid_table_builds_past_64_numpy_axes():
    # A one-row law (every alphabet 1) passes the guard at any K, and a law
    # with one binary alphabet at K = 22 holds 2**22 triples: both took 3K
    # numpy axes, past numpy's 64.  At K = 22 one Z symbol has mass 0, so
    # the one row left is Z = 1...1.
    one_row = SequenceModel(kind="iid", K=30, base=JointPmf(np.ones((1, 1, 1)))).table
    wide = build_model(
        {"kind": "iid", "K": 22, "pmf": {"alphabets": [1, 1, 2], "probs": [0.0, 1.0]}}
    ).table
    for table, z in ((one_row, 0), (wide, (1 << 22) - 1)):
        assert (table.rows, table.pairs, table.p) == (1, 1, 1.0)
        assert (table.x.tolist(), table.y.tolist(), table.z.tolist()) == ([0], [0], [z])


def test_iid_per_symbol_entropy_matches_base():
    rng = np.random.default_rng(1)
    flat = rng.dirichlet(np.ones(8))
    base = JointPmf(flat.reshape(2, 2, 2))
    model = SequenceModel(kind="iid", K=2, base=base)
    summary = sequence_summary(model)
    base_summary = summarize(base)
    assert summary.h_x == pytest.approx(base_summary.h_x, abs=1e-9)
    assert summary.h_xy == pytest.approx(base_summary.h_xy, abs=1e-9)
    assert summary.i_xyz == pytest.approx(base_summary.i_xyz, abs=1e-9)


def test_hamming_k7_per_symbol_marginals_uniform():
    model = SequenceModel(kind="hamming", K=7)
    counts = {v: np.zeros((7, 2)) for v in "xyz"}
    for t in iter_support(model):
        for v in "xyz":
            vec = getattr(t, v)
            for i, b in enumerate(vec):
                counts[v][i, b] += t.prob
    for v in "xyz":
        assert np.allclose(counts[v], 0.5, atol=1e-12)


def test_z_consistency_counts_examples():
    assert z_consistency_counts(7, 7) == (1, 1, 7)
    assert z_consistency_counts(7, 1) == (64, 7, 64)
    assert z_consistency_counts(7, 3) == (16, 5, 48)


def test_z_consistency_total_identity():
    for K in (3, 5, 7):
        for mu in range(1, K + 1):
            rep, mult, single = z_consistency_counts(K, mu)
            assert rep * mult + single == (1 << (K - mu)) * (K + 1)


def brute_force_counts(K, mu):
    """Count candidate sequences within distance 1 of some completion of an
    all-zero observed prefix, with multiplicities over completions."""
    seen = {}
    for suffix in itertools.product((0, 1), repeat=K - mu):
        completion = (0,) * mu + suffix
        for cand in sorted_ball(completion, 1):
            seen[cand] = seen.get(cand, 0) + 1
    mults = {}
    for m in seen.values():
        mults[m] = mults.get(m, 0) + 1
    return seen, mults


@pytest.mark.parametrize("K", [3, 5, 7])
def test_z_consistency_counts_against_enumeration(K):
    for mu in range(1, K + 1):
        rep, mult, single = z_consistency_counts(K, mu)
        seen, mults = brute_force_counts(K, mu)
        assert sum(seen.values()) == (1 << (K - mu)) * (K + 1)
        if mult == 1:
            # mu == K: repeated and singleton classes coincide
            assert mults == {1: rep + single}
        else:
            assert mults == {mult: rep, 1: single}


def test_z_consistency_domain_errors():
    with pytest.raises(DomainError):
        z_consistency_counts(7, 0)
    with pytest.raises(DomainError):
        z_consistency_counts(7, 8)


def test_capacity_guard():
    # 2**27 rows at 64 bytes each pass the memory budget: the table refuses
    # them when it is built, not the model.
    model = SequenceModel(kind="hamming", K=9, d_xy_max=9, d_yz_max=9)
    assert 64 * model.support_size() > MEMORY_BUDGET
    with pytest.raises(CapacityError, match="2\\*\\*27 rows"):
        model.table


def test_hamming_table_refuses_2_to_the_k_rows_before_sizing_its_balls(monkeypatch):
    # 2**27 rows alone pass the memory budget at 64 bytes each.
    def unreachable(self):
        raise AssertionError("support size computed")

    monkeypatch.setattr(SequenceModel, "support_size", unreachable)
    model = SequenceModel(kind="hamming", K=27, d_xy_max=0, d_yz_max=0)
    with pytest.raises(CapacityError, match="2\\*\\*27 rows"):
        model.table


def _pmf_with_cells(shape, cells) -> JointPmf:
    """A law over alphabets ``shape`` with mass only on ``cells``, a dict of
    (x, y, z) -> probability."""
    probs = np.zeros(shape)
    for cell, p in cells.items():
        probs[cell] = p
    return JointPmf(probs)


@pytest.mark.parametrize(
    "shape, cells, K, widths",
    [
        # An X word of 20 symbols of a 100-letter alphabet needs 133 bits.
        ((100, 2, 2), {(99, 0, 0): 0.5, (0, 1, 1): 0.5}, 20, "133-bit X and 20-bit Y"),
        # Each word fits an int64, but an (x, y) pair code needs 120 bits:
        # packing it would fail past the ranked X code.
        ((1000, 1000, 2), {(999, 999, 0): 0.5, (0, 1, 1): 0.5}, 6, "60-bit X and 60-bit Y"),
    ],
    ids=["wide-x", "wide-pair"],
)
def test_table_refuses_wide_words_before_building(monkeypatch, shape, cells, K, widths):
    # Two nonzero cells give 2**K rows, well inside the memory budget.
    model = SequenceModel(kind="iid", K=K, base=_pmf_with_cells(shape, cells))
    assert model.support_size() == 1 << K

    def unreachable(*args, **kwargs):
        raise AssertionError("support arrays built")

    monkeypatch.setattr(SequenceModel, "_iid_pairs", unreachable)
    with pytest.raises(CapacityError, match=f"{widths} words pass 62 bits"):
        model.table


@st.composite
def sparse_laws(draw):
    """Small laws with zero cells: integer cell weights 0..4, some cell positive."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(3))
    weights = draw(st.lists(st.integers(0, 4), min_size=int(np.prod(shape)),
                            max_size=int(np.prod(shape))).filter(any))
    probs = np.array(weights, dtype=float).reshape(shape)
    return JointPmf(probs / probs.sum())


@settings(max_examples=40, deadline=None)
@given(base=sparse_laws(), K=st.integers(1, 3))
def test_nonzero_cell_table_equals_the_dense_threshold_reference(base, K):
    # Wherever the reference's product threshold drops no row of positive
    # probability, the table built from the nonzero cells is the reference's
    # support bit for bit: codes, runs and probabilities.
    model = SequenceModel(kind="iid", K=K, base=base)
    x, y, z, probs = support_arrays(model)
    assert x.size == model.support_size() == np.count_nonzero(base.probs) ** K
    table = model.table
    first = np.cumsum(table.runs) - table.runs
    assert (table.x == x[first]).all() and (table.y == y[first]).all()
    assert (np.repeat(table.x, table.runs) == x).all()
    assert (np.repeat(table.y, table.runs) == y).all()
    assert (table.z == z).all()
    pair = y * base.alphabet_sizes[0] ** K + x
    assert (np.diff(pair[first]) > 0).all() and table.rows == x.size
    assert (probs == (table.p if table.weights is None else table.weights)).all()


def test_nonzero_cell_table_keeps_rows_below_the_product_threshold():
    # A 1e-9 cell: the rows that take it twice have probability 1e-18, which
    # the reference's threshold drops.  The table keeps them, and its mass
    # sums to 1.
    cells = {c: 0.125 for c in itertools.product((0, 1), repeat=3)}
    cells[0, 0, 0], cells[1, 1, 1] = 1e-9, 0.25 - 1e-9
    model = SequenceModel(kind="iid", K=2, base=_pmf_with_cells((2, 2, 2), cells))
    assert support_arrays(model)[0].size == 63
    table = model.table
    assert table.rows == model.support_size() == 64
    assert abs(math.fsum(table.weights.tolist()) - 1) <= 1e-12
    assert table.weights.min() == 1e-9 * 1e-9


#: Every Hamming model with K <= 10 and radii 0..3 whose table holds at most 2**20 rows.
SMALL_HAMMING = [
    (K, a, b)
    for K in range(1, 11)
    for a, b in itertools.product(range(min(3, K) + 1), repeat=2)
    if (1 << K) * ball_volume(K, a) * ball_volume(K, b) <= 1 << 20
]


@pytest.mark.parametrize("K, d_xy, d_yz", SMALL_HAMMING)
def test_hamming_structure_equals_the_table(K, d_xy, d_yz):
    # Ball volumes and the weight classes of e1 XOR e2 give the seven
    # entropies that the table counts, and all seven are the table's floats
    # at reference_k7's (7, 1, 1).
    model = SequenceModel(kind="hamming", K=K, d_xy_max=d_xy, d_yz_max=d_yz)
    structure, table = sequence_entropies(model), table_entropies(model)
    assert structure == pytest.approx(table, abs=1e-12, rel=0)
    if (K, d_xy, d_yz) == (7, 1, 1):
        assert structure == table == (7, 7, 7, 10, 11.75, 10, 13)


@settings(max_examples=40, deadline=None)
@given(base=sparse_laws(), data=st.data())
def test_iid_structure_equals_the_table(base, data):
    # K times the per-symbol entropies, at every K <= 6 whose table holds at
    # most 2**18 rows.
    cells = base.nonzero_cells
    K = data.draw(st.integers(1, max(k for k in range(1, 7) if cells**k <= 1 << 18)), label="K")
    model = SequenceModel(kind="iid", K=K, base=base)
    assert sequence_entropies(model) == pytest.approx(table_entropies(model), abs=1e-12, rel=0)


def test_iid_structure_counts_cells_below_zero_eps_as_zeros():
    # A 1e-16 cell holds no row of the table, and no mass of the structure:
    # its entropies are those of the law with that cell exactly 0.
    cells = {c: 0.125 for c in itertools.product((0, 1), repeat=3)}
    cells[0, 0, 0], cells[1, 1, 1] = 1e-16, 0.25 - 1e-16
    model = SequenceModel(kind="iid", K=3, base=_pmf_with_cells((2, 2, 2), cells))
    cells[0, 0, 0] = 0.0
    zeroed = SequenceModel(kind="iid", K=3, base=_pmf_with_cells((2, 2, 2), cells))
    assert model.support_size() == zeroed.support_size() == 7**3
    assert sequence_entropies(model) == sequence_entropies(zeroed)
    assert sequence_entropies(model) == pytest.approx(table_entropies(model), abs=1e-12, rel=0)


def test_hamming_structure_scales_past_float_range_within_its_budget():
    # At K = 20000 the ball volumes and word counts are integers of
    # thousands of digits: their ratios and logs stay finite.  Past the
    # budget the weight-class sum is refused before it starts.
    model = SequenceModel(kind="hamming", K=20000, d_xy_max=20000, d_yz_max=1)
    h = sequence_entropies(model)
    assert h[3] == 40000 and h[4] == pytest.approx(40000, abs=1e-9)
    assert h[5] == 20000 + math.log2(20001)
    wide = SequenceModel(kind="hamming", K=20000, d_xy_max=20000, d_yz_max=20000)
    with pytest.raises(CapacityError, match="H\\(e1 xor e2\\) at K=20000"):
        sequence_entropies(wide)


def test_build_model_json():
    m = build_model({"kind": "hamming", "K": 7, "d_xy": 1, "d_yz": 1})
    assert m.kind == "hamming" and m.K == 7
    m2 = build_model(
        {"kind": "iid", "K": 2, "pmf": {"alphabets": [2, 2, 2], "probs": [0.125] * 8}}
    )
    assert m2.kind == "iid" and m2.support_size() == 64
    # An iid spec's distance bounds are never read.
    m3 = build_model(
        {"kind": "iid", "K": 2, "d_xy": 0.5, "pmf": {"alphabets": [2, 2, 2], "probs": [0.125] * 8}}
    )
    assert m3.support_size() == 64
    with pytest.raises(ValidationError):
        build_model({"kind": "markov", "K": 3})
    with pytest.raises(ValidationError):
        build_model({"kind": "iid", "K": 3})


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"kind": "markov", "K": 3}, "model.kind"),
        ({"kind": "hamming", "K": 0}, "model.K"),
        ({"kind": "iid", "K": 3}, "model.pmf"),
        ({"kind": "hamming", "K": 3, "d_xy_max": 4}, "model.d_xy"),
        ({"kind": "hamming", "K": 3, "d_yz_max": -1}, "model.d_yz"),
    ],
)
def test_sequence_model_names_the_field_it_refuses(fields, name):
    # The model itself checks its fields, with the messages the CLI prints.
    with pytest.raises(ValidationError, match=rf"^{name}: "):
        SequenceModel(**fields)


def _iid_with_zero_cell() -> SequenceModel:
    probs = np.random.default_rng(5).dirichlet(np.ones(12)).reshape(3, 2, 2)
    probs[1, 0, 1] = 0.0
    return SequenceModel(kind="iid", K=2, base=JointPmf(probs / probs.sum()))


@pytest.mark.parametrize(
    "model",
    [
        SequenceModel(kind="hamming", K=3),
        SequenceModel(kind="hamming", K=4, d_xy_max=2, d_yz_max=1),
        SequenceModel(kind="hamming", K=4, d_xy_max=1, d_yz_max=2),
        SequenceModel(kind="hamming", K=4, d_xy_max=2, d_yz_max=2),
        _iid_with_zero_cell(),
    ],
    ids=["hamming-1-1", "hamming-2-1", "hamming-1-2", "hamming-2-2", "iid-3x2x2-zero-cell"],
)
def test_support_arrays_match_iteration(model):
    # The oracle's per-row expansion: each word is one int64 code, its
    # symbols in its alphabet's base with position 0 most significant.
    x, y, z, probs = support_arrays(model)
    triples = list(iter_support(model))
    for code, word, base in zip((x, y, z), "xyz", model.alphabet_sizes):
        assert code.dtype == np.int64 and code.shape == (len(triples),)
        assert code.tolist() == [
            functools.reduce(lambda c, symbol: c * base + symbol, getattr(t, word), 0)
            for t in triples
        ]
    assert probs.tolist() == [t.prob for t in triples]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        SequenceModel(kind="hamming", K=3),
        SequenceModel(kind="hamming", K=4, d_xy_max=2, d_yz_max=1),
        SequenceModel(kind="hamming", K=4, d_xy_max=1, d_yz_max=2),
        SequenceModel(kind="hamming", K=4, d_xy_max=2, d_yz_max=2),
        _iid_with_zero_cell(),
    ],
    ids=["hamming-1-1", "hamming-2-1", "hamming-1-2", "hamming-2-2", "iid-3x2x2-zero-cell"],
)
def test_support_codes_and_pairs_match_the_digits(model):
    # The oracle's row codes are pack_bits of their digit expansion, in each
    # alphabet's base; the table's pairs are the distinct (x, y) rows of
    # that expansion, each one run of rows, and its Z codes and
    # probabilities are the expansion's.
    *codes, probs = support_arrays(model)
    X, Y, Z = support_digits(model)
    for code, digits, base in zip(codes, (X, Y, Z), model.alphabet_sizes):
        assert code.dtype == np.int64
        assert digits.shape == (code.size, model.K) and (digits < base).all()
        assert (code == pack_bits(digits, base)).all()
    table = model.table
    for arr in (table.x, table.y, table.runs):
        assert not arr.flags.writeable and arr.size == table.pairs
    runs = table.runs
    assert runs.sum() == X.shape[0] == table.rows and (runs > 0).all()
    first = np.cumsum(runs) - runs
    pairs = [tuple(X[r]) + tuple(Y[r]) for r in first.tolist()]
    assert len(set(pairs)) == len(pairs)
    assert (table.x == codes[0][first]).all() and (table.y == codes[1][first]).all()
    per_row = np.repeat(np.arange(table.pairs), runs)
    assert (X == X[first][per_row]).all() and (Y == Y[first][per_row]).all()
    assert (np.repeat(table.x, runs) == codes[0]).all() and (table.z == codes[2]).all()
    assert table.z.dtype == np.int32 and not table.z.flags.writeable
    if table.weights is None:
        assert (probs == table.p).all()
    else:
        assert (table.weights == probs).all() and not table.weights.flags.writeable
    assert model.table is table  # built once per model


def _iid_k5_law() -> JointPmf:
    """Y uniform, X = Y xor Bern(0.1), Z = Y xor Bern(0.2): every cell weighted."""
    probs = np.zeros((2, 2, 2))
    for x, y, z in itertools.product((0, 1), repeat=3):
        probs[x, y, z] = 0.5 * (0.9 if x == y else 0.1) * (0.8 if z == y else 0.2)
    return JointPmf(probs)


# Model kind -> (model of length K, the K range drawn).
CLASS_MODELS = {
    "hamming-1-1": (lambda K: SequenceModel(kind="hamming", K=K), (1, 7)),
    "hamming-2-1": (lambda K: SequenceModel(kind="hamming", K=K, d_xy_max=2), (2, 6)),
    "hamming-1-2": (lambda K: SequenceModel(kind="hamming", K=K, d_yz_max=2), (2, 6)),
    "hamming-2-2": (
        lambda K: SequenceModel(kind="hamming", K=K, d_xy_max=2, d_yz_max=2), (2, 6)
    ),
    "iid-zero-cell": (lambda K: SequenceModel(kind="iid", K=K, base=_iid_with_zero_cell().base),
                      (1, 3)),
    "iid-uniform": (
        lambda K: SequenceModel(kind="iid", K=K, base=JointPmf(np.full((2, 2, 2), 0.125))), (1, 4)
    ),
    "iid-k5-weighted": (lambda K: SequenceModel(kind="iid", K=K, base=_iid_k5_law()), (1, 5)),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CLASS_MODELS)), data=st.data())
def test_prefix_classes_equal_the_unique_collapse(name, data):
    # The sort-free classes (runs of rows, only the pairs sorted) are == the
    # oracle's np.unique collapse of the rows, all four arrays, at every mu:
    # uneven runs (the zero cell), equal weights on runs longer than K+1
    # (uniform iid), running-sum masses and row-order float masses.
    make, (lo, hi) = CLASS_MODELS[name]
    model = make(data.draw(st.integers(lo, hi), label="K"))
    table = model.table
    assert (table.weights is None) == (name != "iid-zero-cell" and name != "iid-k5-weighted")
    for mu in range(table.z_width + 1):
        got, want = table.prefix_classes(mu), prefix_classes(model, mu)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), mu
            assert not a.flags.writeable
        assert table.prefix_classes(mu) is got  # built once per mu


def test_hamming_k10_table_build_peaks_under_10_bytes_per_row():
    # The table keeps the pairs and one int32 Z code per row; building it
    # allocates no per-row X, Y or probability array.
    model = SequenceModel(kind="hamming", K=10)
    tracemalloc.start()
    try:
        table = model.table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows == 123_904 and table.weights is None
    assert peak <= 10 * table.rows, peak / table.rows


def test_support_table_refuses_a_broken_run():
    # Sort-free prefix classes need each pair's rows to be one run with Z
    # strictly ascending, and Z codes that fit the table's Z width; a width
    # past an int32 is a capacity limit.
    x, y = np.array([0, 1]), np.array([0, 0])
    runs, probs = np.array([2, 2]), 0.25
    assert SupportTable(x, y, runs, np.array([0, 1, 0, 3]), probs, 2).rows == 4
    for z in ([1, 0, 0, 3], [0, 1, 3, 3]):  # a descending run, a repeated code
        with pytest.raises(InternalConsistencyError, match="ascend"):
            SupportTable(x, y, runs, np.array(z), probs, 2)
    with pytest.raises(InternalConsistencyError, match="cover"):
        SupportTable(x, y, np.array([2, 1]), np.array([0, 1, 0, 3]), probs, 2)
    with pytest.raises(InternalConsistencyError, match="fit"):
        SupportTable(x, y, runs, np.array([0, 1, 0, 4]), probs, 2)
    with pytest.raises(CapacityError, match="int32"):
        SupportTable(x, y, runs, np.array([0, 1, 0, 3]), probs, 32)
    # A pair that spans two runs would split its rows across classes.
    split = SupportTable(np.array([0, 0]), y, runs, np.array([0, 1, 2, 3]), probs, 2)
    with pytest.raises(InternalConsistencyError, match="two runs"):
        split.prefix_classes(0)
