import ast
from collections import Counter
from itertools import product
from math import fsum, log2
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrleak.errors import InternalConsistencyError, UsageError, ValidationError
from corrleak.info import JointPmf, PACK_LIMIT_BITS, SupportTable, code_entropy, pack_chunks
from corrleak.seqmodel import SequenceModel
from oracle import (
    code_conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginal,
    mutual_information,
    pack_bits,
    summarize,
    support_arrays,
    triple_mutual_information,
)


def random_pmf(rng, shape) -> JointPmf:
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return JointPmf(flat.reshape(shape))


def xor_triple() -> JointPmf:
    """X, Y independent uniform bits, Z = X xor Y."""
    probs = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y, x ^ y] = 0.25
    return JointPmf(probs)


def copy_triple() -> JointPmf:
    """X = Y = Z uniform bit."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 1] = 0.5
    return JointPmf(probs)


def test_entropy_uniform_four():
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_point_mass():
    assert entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_half_quarter_quarter():
    # hand evaluation: 0.5*1 + 2 * 0.25*2 = 1.5
    assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)


def test_entropy_rejects_bad_pmf():
    with pytest.raises(ValidationError):
        entropy([0.7, -0.1, 0.4])
    with pytest.raises(ValidationError):
        entropy([0.2, 0.2])


def test_mi_independent_bits():
    probs = np.full((2, 2, 1), 0.25)
    assert mutual_information(JointPmf(probs), "x", "y") == pytest.approx(0.0, abs=1e-12)


def test_mi_identity_coupling():
    probs = np.zeros((2, 2, 1))
    probs[0, 0, 0] = probs[1, 1, 0] = 0.5
    assert mutual_information(JointPmf(probs), "x", "y") == pytest.approx(1.0, abs=1e-12)


def test_mi_doubly_symmetric_pair():
    # uniform X, Y = X flipped with probability 0.25
    eps = 0.25
    probs = np.array([[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]]).reshape(2, 2, 1)
    expected = 1.0 - entropy([eps, 1 - eps])  # oracle: 1 - H2(eps)
    got = mutual_information(JointPmf(probs), "x", "y")
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.18872187554086717, abs=1e-12)


def test_mi_rejects_overlapping_or_unknown_selectors():
    pmf = random_pmf(np.random.default_rng(0), (2, 2, 2))
    with pytest.raises(UsageError):
        mutual_information(pmf, "x", "x")
    with pytest.raises(UsageError):
        mutual_information(pmf, "x", "w")


def test_cmi_conditioning_on_constant_equals_mi():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pmf = random_pmf(rng, (2, 3, 1))  # z constant
        mi = mutual_information(pmf, "x", "y")
        cmi = conditional_mutual_information(pmf, "x", "y", "z")
        assert cmi == pytest.approx(mi, abs=1e-9)


def test_cmi_xor_triple():
    # enumeration of the 8 equiprobable (x, y) pairs with z = x xor y:
    # given z, knowing x determines y, so I(X;Y|Z) = 1.
    assert conditional_mutual_information(xor_triple(), "x", "y", "z") == pytest.approx(
        1.0, abs=1e-12
    )


def test_cmi_copy_triple():
    assert conditional_mutual_information(copy_triple(), "x", "y", "z") == pytest.approx(
        0.0, abs=1e-12
    )


def test_cmi_rejects_overlap():
    pmf = random_pmf(np.random.default_rng(2), (2, 2, 2))
    with pytest.raises(UsageError):
        conditional_mutual_information(pmf, "x", "y", "y")


def test_triple_mi_copy():
    assert triple_mutual_information(copy_triple()) == pytest.approx(1.0, abs=1e-12)


def test_triple_mi_xor():
    assert triple_mutual_information(xor_triple()) == pytest.approx(-1.0, abs=1e-12)


def test_triple_mi_independent():
    probs = np.full((2, 2, 2), 0.125)
    assert triple_mutual_information(JointPmf(probs)) == pytest.approx(0.0, abs=1e-12)


def test_triple_mi_permutation_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pmf = random_pmf(rng, (2, 3, 2))
        base = triple_mutual_information(pmf)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = JointPmf(np.transpose(pmf.probs, perm))
            assert triple_mutual_information(permuted) == pytest.approx(base, abs=1e-9)


def test_chain_rule_random_alphabets():
    rng = np.random.default_rng(4)
    for _ in range(50):
        shape = tuple(rng.integers(2, 5, size=3))
        pmf = random_pmf(rng, shape)
        h_xy = entropy(marginal(pmf, "xy"))
        h_x = entropy(marginal(pmf, "x"))
        # H(Y|X) as a direct expectation, independent of the library identities
        px = marginal(pmf, "x")
        pxy = marginal(pmf, "xy")
        h_y_given_x = 0.0
        for i in range(shape[0]):
            if px[i] > 1e-15:
                h_y_given_x += px[i] * entropy(pxy[i] / px[i])
        assert h_xy == pytest.approx(h_x + h_y_given_x, abs=1e-9)


def test_conditional_mi_nonnegative_on_random_pmfs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        shape = tuple(rng.integers(2, 4, size=3))
        pmf = random_pmf(rng, shape)
        assert conditional_mutual_information(pmf, "x", "y", "z") >= -1e-9


def test_summary_identities_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        pmf = random_pmf(rng, (2, 3, 2))
        s = summarize(pmf)
        assert s.h_xy == pytest.approx(s.h_x_given_y + s.h_y, abs=1e-9)
        assert s.h_xy == pytest.approx(s.h_y_given_x + s.h_x, abs=1e-9)
        assert s.i_xy >= 0.0
        assert s.i_xy == pytest.approx(s.h_x + s.h_y - s.h_xy, abs=1e-9)
        assert s.i_xyz == pytest.approx(
            s.i_xy - conditional_mutual_information(pmf, "x", "y", "z"), abs=1e-9
        )


def test_json_roundtrip():
    pmf = random_pmf(np.random.default_rng(7), (2, 2, 3))
    again = JointPmf.from_json({"alphabets": [2, 2, 3], "probs": pmf.probs.ravel().tolist()})
    assert np.allclose(pmf.probs, again.probs)
    assert again.alphabet_sizes == (2, 2, 3)


def test_json_rejects_bad_shape():
    with pytest.raises(ValidationError):
        JointPmf.from_json({"alphabets": [2, 2, 2], "probs": [1.0]})


def test_pmf_validation():
    with pytest.raises(ValidationError):
        JointPmf(np.full((2, 2), 0.25))  # not 3-d
    bad = np.full((2, 2, 2), 0.125)
    bad[0, 0, 0] = 0.5
    with pytest.raises(ValidationError):
        JointPmf(bad)


# -- entropy kernel over integer codes ---------------------------------------------


def entropy_by_unique(code, probs=None):
    """The kernel's np.unique form, the reference for its counting fast path."""
    if probs is None:
        _, counts = np.unique(code, return_counts=True)
        n = float(code.size)
        return float(np.log2(n) - (counts * np.log2(counts)).sum() / n)
    _, inv = np.unique(code, return_inverse=True)
    mass = np.bincount(inv, weights=probs)
    mass = mass[mass > 0]
    return float(-(mass * np.log2(mass)).sum())


@pytest.mark.parametrize("weighted", [False, True], ids=["counts", "weights"])
@pytest.mark.parametrize("top", [0, 1], ids=["max-2n-1", "max-2n"])
def test_code_entropy_counting_paths_agree(monkeypatch, weighted, top):
    rng = np.random.default_rng(11)
    n = 2000
    code = rng.integers(0, 300, size=n) * 3
    code[0] = 2 * n - 1 + top  # 2n-1 is still counted densely, 2n is not
    probs = None
    if weighted:
        probs = rng.dirichlet(np.ones(n))
        probs[rng.choice(n, size=200, replace=False)] = 0.0
        code[1], probs[1] = 1, 0.0  # a code seen only on a zero-weight row
    expected = entropy_by_unique(code, probs)
    # Far above the dense range the kernel sorts: run lengths for counts,
    # np.unique for weights.
    assert code_entropy(code + 4 * n, probs) == expected
    if top == 0:
        def refuse(*args, **kwargs):
            raise AssertionError("a dense code went through np.unique")

        monkeypatch.setattr(np, "unique", refuse)
    assert code_entropy(code, probs) == expected


RUN_LENGTH_CASES = {
    "single-row": np.array([7]),
    "all-equal": np.full(500, 1 << 40),
    "all-distinct": np.random.default_rng(14).permutation(1000) * 5 + 2000,
    "at-least-2n": np.random.default_rng(15).integers(0, 40, size=1000) * 1000 + 2000,
}


@pytest.mark.parametrize("name", sorted(RUN_LENGTH_CASES))
def test_code_entropy_run_lengths_equal_unique(monkeypatch, name):
    # Codes outside 0..2n-1 are counted as run lengths of the sorted code,
    # without np.unique, to the same float.  The code is handed over, so the
    # kernel may sort it in place.
    code = RUN_LENGTH_CASES[name]
    assert code.min() >= 2 * code.size
    expected = entropy_by_unique(code)

    def refuse(*args, **kwargs):
        raise AssertionError("the count path went through np.unique")

    monkeypatch.setattr(np, "unique", refuse)
    owned = code.copy()
    assert code_entropy(owned) == expected
    assert (np.sort(owned) == np.sort(code)).all()


@pytest.mark.parametrize("name", sorted(RUN_LENGTH_CASES))
def test_code_entropy_reads_a_read_only_code(name):
    # A read-only array works on every path: the run lengths sort a copy of
    # it, where a writable code handed over would be sorted in place.
    for code in (RUN_LENGTH_CASES[name], RUN_LENGTH_CASES[name] % 7):
        frozen = code.copy()
        frozen.flags.writeable = False
        assert code_entropy(frozen) == entropy_by_unique(code)
        assert (frozen == code).all()


@pytest.mark.parametrize("multiplicity", [1, 2, 11])
@pytest.mark.parametrize("name", sorted(RUN_LENGTH_CASES) + ["dense"])
def test_owned_code_entropy_equals_the_repeated_code(name, multiplicity):
    # Counting each row of an owned code as `multiplicity` equal rows gives
    # the very float of the kernel over the repeated code, dense or sorted;
    # a code that is not dense is sorted in place.
    code = RUN_LENGTH_CASES.get(name, np.random.default_rng(17).integers(0, 50, size=400))
    expected = code_entropy(np.repeat(code, multiplicity))
    owned = code.copy()
    assert code_entropy(owned, multiplicity) == expected
    if code.max() >= 2 * code.size:
        assert (owned == np.sort(code)).all()


@settings(max_examples=60, deadline=None)
@given(
    code=st.lists(st.integers(0, 40), min_size=1, max_size=60),
    data=st.data(),
    offset=st.sampled_from([0, 1 << 40]),
)
def test_code_entropy_counts_integer_multiplicities_as_repeated_rows(code, data, offset):
    # One integer count per row gives the float of the code with every row
    # repeated that many times, on the dense path (codes in 0..2n-1, offset
    # 0) and on the sorted path (offset 2**40).
    mult = np.array(
        data.draw(st.lists(st.integers(1, 30), min_size=len(code), max_size=len(code))),
        dtype=np.int64,
    )
    code = np.array(code, dtype=np.int64) * 3 // 2 + offset
    if offset:
        assert code.min() >= 2 * code.size
    expected = code_entropy(np.repeat(code, mult))
    assert code_entropy(code.copy(), mult) == expected


def weighted_iid_table(zero_cell: bool) -> SupportTable:
    """Y uniform, X = Y xor Bern(0.1), Z = Y xor Bern(0.2) at K=3: every
    pair spans 8 rows, or with the cell (1, 0, 1) dropped 1 to 8 rows."""
    probs = np.array([
        0.5 * (0.9 if x == y else 0.1) * (0.8 if z == y else 0.2)
        for x, y, z in product((0, 1), repeat=3)
    ]).reshape(2, 2, 2)
    if zero_cell:
        probs[1, 0, 1] = 0.0
    return SequenceModel(kind="iid", K=3, base=JointPmf(probs / probs.sum())).table


def uneven_weighted_table() -> SupportTable:
    """Six pairs of 1 to 5 rows, random row probabilities and Z codes."""
    rng = np.random.default_rng(23)
    runs = np.array([1, 3, 2, 4, 1, 5])
    z = np.concatenate([np.sort(rng.choice(8, size=r, replace=False)) for r in runs])
    pairs = np.arange(runs.size, dtype=np.int64)
    probs = rng.random(z.size)
    return SupportTable(pairs % 3, pairs // 3, runs, z, probs / probs.sum(), 3)


WEIGHTED_TABLES = {
    "even-runs": lambda: weighted_iid_table(False),
    "zero-cell": lambda: weighted_iid_table(True),
    "uneven-runs": uneven_weighted_table,
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_TABLES))
def test_weighted_sets_that_read_no_z_count_the_pair_masses(name):
    # A weighted table sums each pair's row probabilities once; a set that
    # reads no Z is counted on the pairs with those masses, within 1e-12 of
    # its code spread over the rows, and a conditional is the difference
    # of two entropies, ==.
    table = WEIGHTED_TABLES[name]()
    assert table.weights is not None
    assert (name == "even-runs") == bool((table.runs == table.runs[0]).all())
    ends = np.cumsum(table.runs)
    for mass, start, end in zip(table.pair_weights, ends - table.runs, ends):
        assert mass == pytest.approx(fsum(table.weights[start:end]), rel=1e-15, abs=0)
    width = max(int(table.x.max()), int(table.y.max())).bit_length()
    X, Y = (table.x, width), (table.y, width)
    for head, tail in [([X], []), ([Y], []), ([X, Y], []), ([Y], [X]), ([], [])]:
        spread = np.repeat(pack_chunks([*head, *tail], table.pairs), table.runs)
        expected = code_entropy(spread, table.weights)
        assert abs(table.entropy(head, 0, tail) - expected) <= 1e-12
    for head, mu in [([Y, X], 0), ([X], 0), ([], 1), ([Y], 1), ([Y, X], table.z_width)]:
        expected = table.entropy(head, mu) - table.entropy(head if mu else head[:-1])
        assert table.conditional_entropy(head, mu) == expected


def uneven_equal_weight_law() -> JointPmf:
    """Cells (0,0,0), (0,0,1) and (1,1,0), 1/3 each: every row has weight
    3**-K, and a pair has 2**(zeros of y) rows."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[0, 0, 1] = probs[1, 1, 0] = 1 / 3
    return JointPmf(probs)


#: Equal-weight models of length K: Hamming balls of radii 0..3, whose
#: pairs all span one run length, and an iid law whose runs are uneven.
EQUAL_WEIGHT_MODELS = {
    **{
        f"hamming-{a}-{b}": lambda K, a=a, b=b: SequenceModel(
            kind="hamming", K=K, d_xy_max=min(a, K), d_yz_max=min(b, K)
        )
        for a, b in product(range(4), repeat=2)
    },
    "iid-uneven": lambda K: SequenceModel(kind="iid", K=K, base=uneven_equal_weight_law()),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(EQUAL_WEIGHT_MODELS)),
    K=st.integers(2, 5),
    data=st.data(),
)
def test_equal_weight_conditionals_equal_the_row_oracle_bit_for_bit(name, K, data):
    # H(T | O) on an equal-weight law, T the Z prefix when mu > 0 and the
    # last head chunk at mu = 0, equals the oracle's sum over the support
    # rows, ==.  Each chunk is a masked x, y or x xor y, per pair for the
    # table and per row for the oracle; the observation packs them first
    # chunk most significant, as the table orders its bins.
    model = EQUAL_WEIGHT_MODELS[name](K)
    table = model.table
    assert table.weights is None
    full = (1 << K) - 1
    specs = data.draw(st.lists(
        st.tuples(st.sampled_from(["x", "y", "x^y"]), st.integers(0, full)), max_size=3
    ), label="chunks")
    mu = data.draw(st.integers(0 if specs else 1, K), label="mu")

    def chunk(spec, x, y):
        word, mask = spec
        return {"x": x, "y": y, "x^y": x ^ y}[word] & mask

    head = [(chunk(spec, table.x, table.y), K) for spec in specs]
    x, y, z, probs = support_arrays(model)
    rows = [chunk(spec, x, y) for spec in specs]
    if mu:
        target, observed = z >> (K - mu), rows
    else:
        target, observed = rows[-1], rows[:-1]
    packed = np.zeros(z.size, dtype=np.int64)
    for code in observed:
        packed = packed << K | code
    expected = code_conditional_entropy(target, packed, probs)
    assert table.conditional_entropy(head, mu) == expected


SRC = Path(__file__).resolve().parents[1] / "src" / "corrleak"
#: The fields and helpers through which a support table counts its rows.
TABLE_COUNTING = {"p", "weights", "pair_weights", "runs", "rows", "_run", "_row_code", "_buffer"}


def test_only_info_reads_how_a_table_counts_its_rows():
    # The counting rule, the law's weighting and the cost of an entropy stay
    # behind SupportTable: every other module takes entropies, masses and
    # steps from its methods and reads no attribute of these names.
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"info", "cipher", "leakage", "seqmodel", "swcodec"}
    for path in modules:
        reads = sorted(
            (node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in TABLE_COUNTING
        )
        if path.stem == "info":
            assert {attr for _, attr in reads} == TABLE_COUNTING
        else:
            assert reads == [], path.name


def test_pack_chunks_leaves_its_inputs_unchanged():
    # Variable chunks are cached and shared, so packing never writes into them:
    # not the first chunk, which becomes the running code, nor a later one,
    # nor any chunk when a re-rank is needed.
    rng = np.random.default_rng(16)
    cases = [
        [(rng.integers(0, 1 << 10, size=200), 10)],
        [(rng.integers(0, 2, size=200).astype(np.uint8), 1), (rng.integers(0, 8, size=200), 3)],
        [(rng.integers(0, 1 << 40, size=200), 40), (rng.integers(0, 1 << 30, size=200), 30)],
    ]
    for chunks in cases:
        before = [chunk.copy() for chunk, _ in chunks]
        code = pack_chunks(chunks, 200)
        assert code.dtype == np.int64
        for (chunk, _), copy in zip(chunks, before):
            assert chunk.dtype == copy.dtype and (chunk == copy).all()
            assert not np.shares_memory(code, chunk)


def tuple_entropy(chunks):
    """Entropy of the per-row tuples of chunk values, by a plain Counter."""
    rows = list(zip(*(c.tolist() for c, _ in chunks)))
    n = len(rows)
    return -sum(c / n * log2(c / n) for c in Counter(rows).values())


def test_pack_chunks_past_64_bits_matches_tuple_oracle():
    rng = np.random.default_rng(12)
    widths = [20, 17, 13, 9, 1, 1, 6]  # 67 bits: needs re-ranking
    assert sum(widths) > 64
    pool = [rng.integers(0, 1 << w, size=300) for w in widths]
    pick = rng.integers(0, 300, size=5000)  # repeated rows
    chunks = [(col[pick], w) for col, w in zip(pool, widths)]
    code = pack_chunks(chunks, pick.size)
    # Same partition and the same order as the tuples of chunk values.
    rows = list(zip(*(c.tolist() for c, _ in chunks)))
    rank = {t: i for i, t in enumerate(sorted(set(rows)))}
    _, inv = np.unique(code, return_inverse=True)
    assert inv.tolist() == [rank[t] for t in rows]
    assert code_entropy(code) == pytest.approx(tuple_entropy(chunks), abs=1e-12)


def test_pack_chunks_is_the_shifted_code_within_the_limit():
    rng = np.random.default_rng(13)
    widths = [30, 0, 20, 12]  # exactly the limit; width 0 adds nothing
    assert sum(widths) == PACK_LIMIT_BITS
    chunks = [(rng.integers(0, 1 << w, size=100), w) for w in widths]
    shifted = np.zeros(100, dtype=np.int64)
    for c, w in chunks:
        shifted = (shifted << w) | c
    assert (pack_chunks(chunks, 100) == shifted).all()


def test_pack_chunks_refuses_a_chunk_that_cannot_fit():
    bit = np.array([0, 1, 1, 0])
    wide = np.array([0, 1, 2, 3])
    with pytest.raises(InternalConsistencyError):
        pack_chunks([(bit, 1), (wide, PACK_LIMIT_BITS)], 4)


def test_pack_bits_width_check():
    assert pack_bits(np.ones((2, 62), dtype=np.int64)).tolist() == [(1 << 62) - 1] * 2
    assert pack_bits(np.full((1, 39), 2), base=3).tolist() == [3**39 - 1]
    with pytest.raises(InternalConsistencyError):
        pack_bits(np.zeros((2, 63), dtype=np.int64))
    with pytest.raises(InternalConsistencyError):
        pack_bits(np.zeros((2, 40), dtype=np.int64), base=3)
