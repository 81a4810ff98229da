import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corrleak.swcodec as swcodec_module
from corrleak.errors import CapacityError, InternalConsistencyError, UsageError, ValidationError
from corrleak.info import JointPmf, PACK_LIMIT_BITS, SupportTable
from corrleak.seqmodel import SequenceModel, build_model, sequence_summary
from corrleak.swcodec import (
    PartitionScheme,
    decode_ambiguity_rate,
    joint_decode,
    prototype_condition_report,
    support_syndromes,
)
from oracle import (
    bit_observable,
    code_conditional_entropy,
    enumeration_equivocation,
    formula_encode_x,
    formula_encode_y,
    iter_support,
    mat_vec_mul,
    p1_t,
    pack_bits,
    reference_scheme,
    support_arrays,
    support_digits,
    syndrome_observable,
    table_decode,
    word_digits,
    z_prefix_observable,
)
from test_perfbench import load_perfbench


def encode(s: PartitionScheme, x: str, y: str) -> tuple[str, str]:
    """T_X of the word ``x`` and T_Y of the word ``y``, words and syndromes
    written as 0/1 strings, by the one encoder."""
    tx, ty = support_syndromes(s, np.array([int(x, 2)]), np.array([int(y, 2)]))
    return f"{tx[0]:0{s.syndrome_len('x')}b}", f"{ty[0]:0{s.syndrome_len('y')}b}"


def pack(bits: tuple[int, ...]) -> int:
    """The integer code of a bit tuple, the first bit most significant."""
    return int("".join(map(str, bits)), 2)


def test_golden_syndromes(scheme):
    assert encode(scheme, "1011001", "1011011") == ("11100", "10111")


def test_encode_zero_words(scheme):
    assert encode(scheme, "0000000", "0000000") == ("00000", "00000")


def test_encode_hand_worked_variants(scheme):
    # x = 0111010: a1=01, v1=11, q1=010; parity = P1^T(0,1) + 010
    # y = 0011011: u2=00, a2=11, q2=011; parity = (1,0,0) + (0,1,1)
    p1t_col = mat_vec_mul(p1_t(scheme), [0, 1])
    parity = tuple(a ^ b for a, b in zip(p1t_col, (0, 1, 0)))
    tx, ty = encode(scheme, "0111010", "0011011")
    assert tuple(map(int, tx)) == (1, 1) + parity
    assert (tx, ty) == ("11100", "00111")


def test_syndrome_parts(scheme):
    tx, _ = encode(scheme, "1011001", "1011011")
    info = scheme.info_len("x")
    assert tx[:info] == "11"
    assert tx[info:] == "100"
    assert info == 2 and scheme.parity_len == 3 and len(tx) == scheme.syndrome_len("x")


def test_encode_linearity_all_pairs(scheme):
    words = np.arange(1 << scheme.n)
    tx, ty = support_syndromes(scheme, words, words)
    a, b = np.meshgrid(words, words)
    assert (tx[a ^ b] == tx[a] ^ tx[b]).all()
    assert (ty[a ^ b] == ty[a] ^ ty[b]).all()


def random_systematic_scheme(rng, k: int, n: int) -> PartitionScheme:
    """A random [n,k] generator [I_k | P^T] with random, unsorted a1/v1 and
    u2/a2 splits of the message positions."""
    parity = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
    g = [f"{1 << k - 1 - i:0{k}b}" + "".join(map(str, p)) for i, p in enumerate(parity.tolist())]
    x_msg, y_msg = rng.permutation(k).tolist(), rng.permutation(k).tolist()
    cx, cy = int(rng.integers(0, k + 1)), int(rng.integers(0, k + 1))
    return PartitionScheme(
        generator=g,
        x_segments={"a1": x_msg[:cx], "v1": x_msg[cx:], "q1": range(k, n)},
        y_segments={"u2": y_msg[:cy], "a2": y_msg[cy:], "q2": range(k, n)},
    )


def test_encode_matches_generator_matrix(scheme):
    # The generator encoder equals the paper's per-word formula on every word
    # of the reference [7,4] scheme and of a seeded random [10,6] scheme.
    assert scheme.g_x is scheme.g_x and scheme.parity_columns is scheme.parity_columns  # built once
    for s in (scheme, random_systematic_scheme(np.random.default_rng(7), 6, 10)):
        words = np.arange(1 << s.n)
        tx, ty = support_syndromes(s, words, words)
        digits = word_digits(words, 2, s.n).tolist()
        for side, t, formula in (("x", tx, formula_encode_x), ("y", ty, formula_encode_y)):
            got = word_digits(t, 2, s.syndrome_len(side)).tolist()
            assert [tuple(g) for g in got] == [formula(w, s) for w in digits]


def test_support_syndromes_match_formula_encoder():
    # The popcount encoder over a whole word table equals the paper's
    # per-word formula on every word of a seeded random [10,6] scheme.
    s = random_systematic_scheme(np.random.default_rng(8), 6, 10)
    X = np.array(list(itertools.product((0, 1), repeat=s.n)), dtype=np.uint8)
    Y = X[::-1]
    tx, ty = support_syndromes(s, pack_bits(X), pack_bits(Y))
    assert tx.dtype == ty.dtype == np.int64
    tx, ty = (word_digits(t, 2, s.syndrome_len(side)) for t, side in zip((tx, ty), "xy"))
    for x, t_x, y, t_y in zip(X.tolist(), tx.tolist(), Y.tolist(), ty.tolist()):
        assert tuple(t_x) == formula_encode_x(x, s)
        assert tuple(t_y) == formula_encode_y(y, s)


@pytest.mark.parametrize(
    "words",
    [
        np.zeros((4, 6), dtype=np.uint8),
        np.zeros((4, 8), dtype=np.uint8),
        np.array([0, (1 << 7) - 1, 1 << 7]),
        np.array([0, (1 << 7) - 1, -1]),
    ],
    ids=["narrow", "wide", "too-wide-code", "negative-code"],
)
def test_support_syndromes_refuse_a_word_table_of_the_wrong_width(scheme, words):
    # Words are n-bit codes in 0..2**n-1.  The generator columns would drop
    # the bits of a code past n (and the sign bits of a negative one), and a
    # table of digit rows is no array of codes: all are refused, on either side.
    zeros = np.zeros(words.shape[0], dtype=np.int64)
    for x, y in ((words, zeros), (zeros, words)):
        with pytest.raises(UsageError, match="word codes"):
            support_syndromes(scheme, x, y)


def test_encode_words_longer_than_one_packed_slice():
    # Words of more than PACK_LIMIT_BITS bits, up to the 63 bits of an int64
    # word code, are encoded whole; a 64-bit word is refused as past capacity.
    rng = np.random.default_rng(9)
    s = random_systematic_scheme(rng, 57, 63)
    assert s.n > PACK_LIMIT_BITS
    digits = rng.integers(0, 2, size=(8, s.n))
    digits[0] = 1
    words = np.array([pack(w) for w in digits.tolist()])
    assert words.dtype == np.int64 and words[0] == (1 << 63) - 1
    tx, ty = support_syndromes(s, words, words[::-1])
    for side, t, formula, w in (
        ("x", tx, formula_encode_x, digits), ("y", ty, formula_encode_y, digits[::-1])
    ):
        got = word_digits(t, 2, s.syndrome_len(side)).tolist()
        assert [tuple(g) for g in got] == [formula(x, s) for x in w.tolist()]
    wide = random_systematic_scheme(rng, 58, 64)
    with pytest.raises(CapacityError, match="64-bit word"):
        support_syndromes(wide, words, words)


def test_joint_decode_golden_pair(scheme, hamming7):
    tx, ty = (int(t, 2) for t in encode(scheme, "1011001", "1011011"))
    assert joint_decode(tx, ty, hamming7, scheme) == [(0b1011001, 0b1011011)]


def test_joint_decode_zero_pair(scheme, hamming7):
    assert (0, 0) in joint_decode(0, 0, hamming7, scheme)


def test_joint_decode_refuses_syndromes_of_the_wrong_length(scheme, hamming7):
    # A syndrome is a code of the scheme's length: a code past 2**5, the
    # value of a longer syndrome, or a negative one is refused on either side.
    tx, ty = (int(t, 2) for t in encode(scheme, "1011001", "1011011"))
    for wrong in (1 << 5, -1):
        with pytest.raises(UsageError, match=r"t_x must be a code in 0\.\.2\*\*5-1"):
            joint_decode(wrong, ty, hamming7, scheme)
        with pytest.raises(UsageError, match=r"t_y must be a code in 0\.\.2\*\*5-1"):
            joint_decode(tx, wrong, hamming7, scheme)


@pytest.mark.parametrize("code", [True, 28.0, "11100"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_joint_decode_refuses_non_binary_syndrome_bits(scheme, hamming7, side, code):
    # A syndrome is an integer code: a bool, a float or a string of bits is
    # refused as a usage error naming the syndrome, on either side.
    tx, ty = (int(t, 2) for t in encode(scheme, "1011001", "1011011"))
    args = (code, ty) if side == "x" else (tx, code)
    with pytest.raises(UsageError, match=f"t_{side} must be a code"):
        joint_decode(*args, hamming7, scheme)


def test_decode_candidates_contain_truth_everywhere(scheme, hamming7):
    # group all support pairs by their syndrome pair; each group is exactly
    # the candidate set joint_decode would return
    groups = {}
    pairs = set()
    for t in iter_support(hamming7):
        pairs.add((t.x, t.y))
    for x, y in pairs:
        key = (formula_encode_x(x, scheme), formula_encode_y(y, scheme))
        groups.setdefault(key, set()).add((x, y))
    assert all(members for members in groups.values())
    # measured ambiguity: how much mass decodes non-uniquely
    rate = decode_ambiguity_rate(scheme, hamming7)
    expected = sum(len(m) for m in groups.values() if len(m) > 1) / len(pairs)
    assert rate == pytest.approx(expected, abs=1e-12)
    assert rate == pytest.approx(0.0, abs=1e-12)


def assert_decodes_like_the_table(s: PartitionScheme, model: SequenceModel) -> None:
    """The coset search equals the table decoder on every syndrome pair."""
    table = table_decode(model, s)
    for tx in range(1 << s.syndrome_len("x")):
        for ty in range(1 << s.syndrome_len("y")):
            assert joint_decode(tx, ty, model, s) == table.get((tx, ty), []), (tx, ty)


def workload_case(name: str) -> tuple[PartitionScheme, SequenceModel]:
    scenario = getattr(load_perfbench("scenarios"), f"{name}_scenario")()
    return PartitionScheme.from_json(scenario["scheme"]), build_model(scenario["model"])


def k4_scheme() -> PartitionScheme:
    """A [4,2] code with the complementary split."""
    return PartitionScheme(
        generator=["1011", "0110"],
        x_segments={"a1": (0,), "v1": (1,), "q1": (2, 3)},
        y_segments={"u2": (0,), "a2": (1,), "q2": (2, 3)},
    )


@pytest.mark.parametrize(
    "make_case",
    [
        pytest.param(lambda: (reference_scheme(), SequenceModel(kind="hamming", K=7)),
                     id="reference_k7"),
        pytest.param(lambda: workload_case("hamming_k10"), id="hamming_k10"),
        pytest.param(lambda: workload_case("iid_k5"), id="iid_k5"),
        pytest.param(lambda: (k4_scheme(), SequenceModel(kind="iid", K=4, base=uneven_law())),
                     id="uneven-k4"),
        pytest.param(
            lambda: (k4_scheme(), SequenceModel(kind="iid", K=4, base=JointPmf(np.ones((1, 1, 1))))),
            id="one-row-k4",
        ),
    ],
)
def test_joint_decode_equals_the_table_decoder_on_every_syndrome_pair(make_case):
    # 1,024, 16,384, 256, 64 and 64 syndrome pairs: unique, ambiguous and
    # inconsistent ones, under equal-weight, uneven and one-row laws.
    assert_decodes_like_the_table(*make_case())


@st.composite
def decode_models(draw, K: int) -> SequenceModel:
    """A Hamming model with d_xy in 0..3, or a binary iid law with zero cells,
    alphabets of size 1 among them.  Decoding reads no Z, so d_yz stays at
    most 1 and the tables small."""
    if draw(st.booleans(), label="hamming"):
        d_xy, d_yz = draw(st.integers(0, min(3, K))), draw(st.integers(0, 1))
        return SequenceModel(kind="hamming", K=K, d_xy_max=d_xy, d_yz_max=d_yz)
    shape = tuple(draw(st.integers(1, 2)) for _ in range(3))
    size = math.prod(shape)
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    probs = np.array(weights, dtype=float).reshape(shape)
    return SequenceModel(kind="iid", K=K, base=JointPmf(probs / probs.sum()))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 5), parity=st.integers(1, 3), seed=st.integers(0, 999), data=st.data())
def test_joint_decode_equals_the_table_decoder_on_random_schemes(k, parity, seed, data):
    # Random systematic schemes at n <= 8 with random, unsorted splits, of
    # at most 2**12 syndrome pairs.
    s = random_systematic_scheme(np.random.default_rng(seed), k, k + parity)
    assume(s.syndrome_len("x") + s.syndrome_len("y") <= 12)
    assert_decodes_like_the_table(s, data.draw(decode_models(s.n), label="model"))


def test_iid_decode_takes_the_support_not_the_product_of_the_cosets():
    # X = Y = Z, and every message bit keyed on both sides of a [17,14] code:
    # the two cosets hold 2**14 words each, 2**28 pairs, past the 2**26 rows
    # of the memory budget.  Each y allows one x, so the guard counts at most
    # 2**14 + 2**17 steps, and every syndrome pair (t, t) has 2**14 candidates.
    parity = np.random.default_rng(3).integers(0, 2, size=(14, 3))
    rows = [format(1 << 13 - i, "014b") + "".join(map(str, p)) for i, p in enumerate(parity)]
    s = PartitionScheme(
        generator=rows,
        x_segments={"a1": range(14), "v1": (), "q1": (14, 15, 16)},
        y_segments={"u2": (), "a2": range(14), "q2": (14, 15, 16)},
    )
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 1] = 0.5
    model = SequenceModel(kind="iid", K=17, base=JointPmf(probs))
    table = table_decode(model, s)
    assert len(table[5, 5]) == 1 << 14
    assert joint_decode(5, 5, model, s) == table[5, 5]
    assert joint_decode(5, 6, model, s) == []


def test_enumeration_equivocation_unconditional(scheme, hamming7):
    assert enumeration_equivocation([], "y", hamming7) == pytest.approx(7.0, abs=1e-9)


def test_enumeration_equivocation_observing_target(scheme, hamming7):
    obs = [bit_observable("y", range(7))]
    assert enumeration_equivocation(obs, "y", hamming7) == pytest.approx(0.0, abs=1e-12)


def test_enumeration_equivocation_syndrome(scheme, hamming7):
    obs = [syndrome_observable(scheme, "y")]
    got = enumeration_equivocation(obs, "y", hamming7)
    # direct counting oracle: y is uniform, so H(Y|T_Y) = log2(#preimages)
    preimages = sum(
        1
        for w in itertools.product((0, 1), repeat=7)
        if formula_encode_y(w, scheme) == (1, 0, 1, 1, 1)
    )
    assert got == pytest.approx(math.log2(preimages), abs=1e-9)
    assert got == pytest.approx(2.0, abs=1e-9)


def test_enumeration_equivocation_z_prefix(scheme, hamming7):
    # H(Y | Z^7) = 3 bits: given z, y ranges uniformly over its ball
    got = enumeration_equivocation([z_prefix_observable(7)], "y", hamming7)
    assert got == pytest.approx(3.0, abs=1e-9)


def test_prototype_condition_report(scheme, hamming7):
    info = sequence_summary(hamming7)
    rows = {r.label: r for r in prototype_condition_report(scheme, hamming7, info)}
    err = rows["decode_error"]
    assert 0.0 <= err.lhs_bits <= 1.0
    assert err.lhs_bits == pytest.approx(0.0, abs=1e-12)
    # common-portion rate: I(X;Y) = (7 + 7 - 10)/7 = 4/7 per symbol
    assert rows["common_rate:lower"].lhs_bits == pytest.approx(4 / 7, abs=1e-9)
    # the joint rate sum meets H(X,Y)/K = 10/7 exactly for this partition
    assert rows["joint_rate_sum:lower"].lhs_bits == pytest.approx(10 / 7, abs=1e-9)
    assert rows["joint_rate_sum:lower"].gap == pytest.approx(0.0, abs=1e-9)
    assert rows["joint_rate_sum:upper"].gap == pytest.approx(0.0, abs=1e-9)
    # private rate of X: H(W_X)/K = 2/7 against H(X|Y,Z) = 3/7
    assert rows["x_private_rate:lower"].rhs_bits == pytest.approx(2 / 7, abs=1e-9)
    assert rows["x_private_rate:lower"].lhs_bits == pytest.approx(3 / 7, abs=1e-9)
    # gaps are signed and reported, not judged
    assert rows["x_private_rate:lower"].gap == pytest.approx(-1 / 7, abs=1e-9)


def test_scheme_json_roundtrip(scheme):
    again = PartitionScheme.from_json(
        {
            "generator": {"rows": ["1000101", "0100110", "0010111", "0001011"]},
            "x_segments": {k: list(v) for k, v in scheme.x_segments.items()},
            "y_segments": {k: list(v) for k, v in scheme.y_segments.items()},
            "segment_roles": dict(scheme.segment_roles),
        }
    )
    assert again.generator == scheme.generator
    assert again.x_segments == scheme.x_segments
    assert again.segment_roles == scheme.segment_roles


def test_scheme_validation():
    g = ["1000101", "0100110", "0010111", "0001011"]
    with pytest.raises(ValidationError):
        PartitionScheme(
            generator=["0100110", "1000101", "0010111", "0001011"],
            x_segments={"a1": (0, 1), "v1": (2, 3), "q1": (4, 5, 6)},
            y_segments={"u2": (0, 1), "a2": (2, 3), "q2": (4, 5, 6)},
        )
    with pytest.raises(ValidationError):
        PartitionScheme(
            generator=g,
            x_segments={"a1": (0, 1), "v1": (2, 4), "q1": (3, 5, 6)},
            y_segments={"u2": (0, 1), "a2": (2, 3), "q2": (4, 5, 6)},
        )
    with pytest.raises(ValidationError):
        PartitionScheme(
            generator=g,
            x_segments={"a1": (0, 1), "v1": (2, 3), "q1": (4, 5, 6)},
            y_segments={"u2": (0, 1), "a2": (2, 3), "q2": (4, 5, 6)},
            segment_roles={"v1": "secret"},
        )


@pytest.mark.parametrize(
    "position, accepted",
    [(1, True), (np.int64(1), True), (True, False), (1.0, False), ("1", False)],
    ids=["int", "np-int64", "bool", "float", "str"],
)
def test_segment_positions_take_the_one_integer_rule(position, accepted):
    # errors.is_int decides: an int or a numpy integer, never a bool, a
    # float of integral value or a string of digits.
    def make():
        return PartitionScheme(
            generator=["1000101", "0100110", "0010111", "0001011"],
            x_segments={"a1": (0, position), "v1": (2, 3), "q1": (4, 5, 6)},
            y_segments={"u2": (0, 1), "a2": (2, 3), "q2": (4, 5, 6)},
        )

    if accepted:
        assert make().x_segments["a1"] == (0, 1)
    else:
        with pytest.raises(ValidationError, match="a1: positions must be integers"):
            make()


def test_roles_default(scheme):
    assert scheme.role_positions("x", "private") == [0, 1]    # v1 segment
    assert scheme.role_positions("x", "common") == [2, 3, 4]  # parity
    assert scheme.role_positions("y", "private") == [0, 1]    # u2 segment
    assert scheme.role_positions("y", "common") == [2, 3, 4]
    # A parity bit's column is its index past the info bits: bit 3 of T_X is
    # parity column 1, and bit 1 is an info bit.
    assert scheme.info_len("x") == scheme.info_len("y") == 2


def test_support_table_paths_match_oracle_on_weighted_ambiguous_model():
    # [4,2] code, complementary split, over a non-uniform full-support iid
    # law: 4,096 weighted rows, and 256 source pairs share 64 syndrome pairs.
    s = PartitionScheme(
        generator=["1011", "0110"],
        x_segments={"a1": (0,), "v1": (1,), "q1": (2, 3)},
        y_segments={"u2": (0,), "a2": (1,), "q2": (2, 3)},
    )
    probs = np.array(
        [
            (0.3 if y else 0.7) * (0.1 if x != y else 0.9) * (0.2 if z != y else 0.8)
            for x, y, z in itertools.product((0, 1), repeat=3)
        ]
    ).reshape(2, 2, 2)
    K = 4
    model = SequenceModel(kind="iid", K=K, base=JointPmf(probs))
    assert model.table.weights is not None

    def H(target, *observed):
        return enumeration_equivocation(list(observed), target, model)

    x_obs, y_obs, z_obs = (bit_observable(v, range(K)) for v in "xyz")
    # T_X / T_Y bit 0 is the private info bit; bits 1-2 are the common parity.
    w_x, w_cx = syndrome_observable(s, "x", [0]), syndrome_observable(s, "x", [1, 2])
    w_y, w_cy = syndrome_observable(s, "y", [0]), syndrome_observable(s, "y", [1, 2])

    h = {v: H(v) for v in ("x", "y", "z", "xy", "xz", "yz", "xyz")}
    summary = sequence_summary(model)
    i_xy_given_z = h["xz"] + h["yz"] - h["xyz"] - h["z"]
    expected = {
        "h_x": h["x"], "h_y": h["y"], "h_z": h["z"], "h_xy": h["xy"],
        "h_x_given_y": h["xy"] - h["y"], "h_y_given_x": h["xy"] - h["x"],
        "i_xy": h["x"] + h["y"] - h["xy"], "i_xz": h["x"] + h["z"] - h["xz"],
        "i_yz": h["y"] + h["z"] - h["yz"],
        "i_xyz": h["x"] + h["y"] - h["xy"] - i_xy_given_z,
    }
    for name, value in expected.items():
        assert getattr(summary, name) == pytest.approx(value / K, abs=1e-9), name

    pairs = {}
    for t in iter_support(model):
        pairs[(t.x, t.y)] = pairs.get((t.x, t.y), 0.0) + t.prob
    groups = {}
    for x, y in pairs:
        groups.setdefault(
            (formula_encode_x(x, s), formula_encode_y(y, s)), []
        ).append((x, y))
    ambiguous = sum(pairs[m] for ms in groups.values() if len(ms) > 1 for m in ms)
    assert ambiguous > 0.1
    assert decode_ambiguity_rate(s, model) == pytest.approx(ambiguous, abs=1e-9)
    for (tx, ty), members in groups.items():
        codes = sorted((pack(x), pack(y)) for x, y in members)
        assert joint_decode(pack(tx), pack(ty), model, s) == codes

    h_wx, h_wcx = h["x"] - H("x", w_x), h["x"] - H("x", w_cx)
    h_wy, h_wcy = h["y"] - H("y", w_y), h["y"] - H("y", w_cy)
    i_xy = h["x"] + h["y"] - h["xy"]
    portions = h_wx + h_wcx + h_wy + h_wcy
    oracle = [
        (ambiguous, 0.0),
        (H("x", y_obs, z_obs), h_wx),
        (h_wx, 1.0),
        (1.0, H("x", y_obs, z_obs)),
        (H("y", x_obs, z_obs), h_wy),
        (h_wy, 1.0),
        (1.0, H("y", x_obs)),
        (i_xy, h_wcx + h_wcy),
        (h_wcx + h_wcy, i_xy),
        (h["x"], H("x", w_y)),
        (h["y"], H("y", w_x)),
        (h["xy"], portions),
        (portions, h["xy"]),
        (h["z"], H("z", w_y)),
    ]
    rows = prototype_condition_report(s, model, sequence_summary(model))
    assert len(rows) == len(oracle)
    for row, (lhs, rhs) in zip(rows, oracle):
        scale = 1.0 if row.label == "decode_error" else K
        assert row.lhs_bits == pytest.approx(lhs / scale, abs=1e-9), row.label
        assert row.rhs_bits == pytest.approx(rhs / scale, abs=1e-9), row.label


def uneven_law() -> JointPmf:
    """Cells (0,0,0), (0,0,1) and (1,1,0), 1/3 each: pairs of 1 to 2**K rows."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[0, 0, 1] = probs[1, 1, 0] = 1 / 3
    return JointPmf(probs)


@pytest.mark.parametrize(
    "make_model",
    [
        pytest.param(lambda: SequenceModel(kind="hamming", K=4), id="hamming-k4"),
        pytest.param(lambda: SequenceModel(kind="iid", K=4, base=uneven_law()), id="uneven-k4"),
    ],
)
def test_pair_encoding_equals_row_encoding(monkeypatch, make_model):
    # Syndromes are functions of the (x, y) pair, so the decoder and the
    # condition report, which encode the distinct pairs only, give exactly
    # what encoding every support row as a pair of its own gives: a table of
    # the same equal-weight rows, reordered so that every run is one row.
    # The decode_error row is left out: it groups the table's pairs, refuses
    # a pair that spans two runs, and is checked on its own.
    s = PartitionScheme(
        generator=["1011", "0110"],
        x_segments={"a1": (0,), "v1": (1,), "q1": (2, 3)},
        y_segments={"u2": (0,), "a2": (1,), "q2": (2, 3)},
    )
    model = make_model()
    X, Y, _ = support_digits(model)
    queries = set(zip(*(t.tolist() for t in support_syndromes(s, pack_bits(X), pack_bits(Y)))))
    report = prototype_condition_report(s, model, sequence_summary(model))
    decoded = {(tx, ty): joint_decode(tx, ty, model, s) for tx, ty in queries}

    x, y, z, probs = support_arrays(model)
    assert model.table.weights is None and model.table.pairs < x.size
    order = np.lexsort((x, y, z))
    runs = np.ones(x.size, dtype=np.int64)
    every_row = SupportTable(x[order], y[order], runs, z[order], probs[order], model.K)
    assert every_row.pairs == x.size
    monkeypatch.setitem(model.__dict__, "table", every_row)
    with pytest.raises(InternalConsistencyError, match="two runs"):
        decode_ambiguity_rate(s, model)
    monkeypatch.setattr(swcodec_module, "decode_ambiguity_rate", lambda s, model: 0.0)
    assert prototype_condition_report(s, model, sequence_summary(model))[1:] == report[1:]
    assert report[0].label == "decode_error"
    for (tx, ty), result in decoded.items():
        assert joint_decode(tx, ty, model, s) == result


def weighted_k5_case() -> tuple[PartitionScheme, SequenceModel]:
    """A [5,2] code over the iid law with Y uniform, X = Y xor Bern(0.1) and
    Z = Y xor Bern(0.2): 32,768 weighted rows, 1,024 pairs."""
    s = PartitionScheme(
        generator=["10110", "01011"],
        x_segments={"a1": (0,), "v1": (1,), "q1": (2, 3, 4)},
        y_segments={"u2": (0,), "a2": (1,), "q2": (2, 3, 4)},
    )
    probs = np.zeros((2, 2, 2))
    for x, y, z in itertools.product((0, 1), repeat=3):
        probs[x, y, z] = 0.5 * (0.9 if x == y else 0.1) * (0.8 if z == y else 0.2)
    return s, SequenceModel(kind="iid", K=5, base=JointPmf(probs))


def _ambiguous_rows(s: PartitionScheme, model: SequenceModel) -> np.ndarray:
    """Per support row of the oracle's expansion: whether another (x, y) pair
    of the support has the same syndrome pair, by the paper's formulas."""
    X, Y, _ = support_digits(model)
    _, first, pair = np.unique(
        pack_bits(np.hstack([X, Y])), return_index=True, return_inverse=True
    )
    syndromes = [
        formula_encode_x(x, s) + formula_encode_y(y, s)
        for x, y in zip(X[first].tolist(), Y[first].tolist())
    ]
    _, group, size = np.unique(syndromes, axis=0, return_inverse=True, return_counts=True)
    return (size[group.ravel()] > 1)[pair.ravel()]


def test_decode_ambiguity_rate_sums_the_ambiguous_rows():
    # A weighted law's rate is the sum of the ambiguous rows' probabilities
    # in row order, ==.  On this law (no cell with x = 1, y = 0) about half
    # the pairs are ambiguous and the sum stays below 1, so no clamp hides
    # its float.
    s, _ = weighted_k5_case()
    probs = np.zeros((2, 2, 2))
    for (x, y), p in {(0, 0): 0.5, (1, 1): 0.3, (0, 1): 0.2}.items():
        probs[x, y, y], probs[x, y, 1 - y] = 0.8 * p, 0.2 * p
    model = SequenceModel(kind="iid", K=5, base=JointPmf(probs))
    ambiguous = _ambiguous_rows(s, model)
    expected = float(support_arrays(model)[3][ambiguous].sum())
    assert model.table.weights is not None and 0 < ambiguous.mean() < 1
    assert 0 < expected < 1.0
    assert decode_ambiguity_rate(s, model) == expected
    # Every pair of this law is ambiguous and its float row probabilities
    # sum past 1: the clamp gives exactly 1.
    s, model = weighted_k5_case()
    assert _ambiguous_rows(s, model).all() and model.table.weights.sum() > 1.0
    assert decode_ambiguity_rate(s, model) == 1.0
    # An equal-weight law: the ambiguous rows over all rows, here 28 of 29.
    model = SequenceModel(kind="hamming", K=7, d_xy_max=2)
    ambiguous = _ambiguous_rows(reference_scheme(), model)
    assert ambiguous.mean() == pytest.approx(28 / 29, abs=1e-15)
    rate = decode_ambiguity_rate(reference_scheme(), model)
    assert rate == pytest.approx(ambiguous.sum() / ambiguous.size, abs=1e-12)


def test_decode_ambiguity_rate_counts_the_rows_of_uneven_runs():
    # Four cells of mass 1/4, two of them on the (0, 0) cell pair: every row
    # has the same probability, but a pair spans 1 to 32 rows.  The rate
    # counts each ambiguous pair's rows, not the pair once.
    s, _ = weighted_k5_case()
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[0, 0, 1] = probs[0, 1, 0] = probs[1, 1, 0] = 0.25
    model = SequenceModel(kind="iid", K=5, base=JointPmf(probs))
    table = model.table
    assert table.weights is None and table.runs.min() == 1 and table.runs.max() == 32
    ambiguous = _ambiguous_rows(s, model)
    assert 0 < ambiguous.mean() < 1
    assert decode_ambiguity_rate(s, model) == ambiguous.mean()


def _weighted_law(zero_cell: bool) -> JointPmf:
    """Y uniform, X = Y xor Bern(0.1), Z = Y xor Bern(0.2); with ``zero_cell``
    the cell (1, 0, 1) is dropped and the rest renormalised (uneven runs)."""
    probs = weighted_k5_case()[1].base.probs.copy()
    if zero_cell:
        probs[1, 0, 1] = 0.0
    return JointPmf(probs / probs.sum())


# Model kind -> (binary model of length K, the K range drawn).
CONDITIONAL_MODELS = {
    **{
        f"hamming-{dxy}-{dyz}": (
            lambda K, dxy=dxy, dyz=dyz: SequenceModel(
                kind="hamming", K=K, d_xy_max=dxy, d_yz_max=dyz
            ),
            (2, 6),
        )
        for dxy, dyz in itertools.product((1, 2), repeat=2)
    },
    "iid-zero-cell": (lambda K: SequenceModel(kind="iid", K=K, base=_weighted_law(True)), (2, 4)),
    "iid-uneven-equal": (lambda K: SequenceModel(kind="iid", K=K, base=uneven_law()), (2, 4)),
    "iid-uniform": (
        lambda K: SequenceModel(kind="iid", K=K, base=JointPmf(np.full((2, 2, 2), 0.125))), (2, 4)
    ),
    "iid-weighted": (lambda K: SequenceModel(kind="iid", K=K, base=_weighted_law(False)), (2, 5)),
}


def _private_syndromes(s: PartitionScheme, side: str, words: np.ndarray, K: int) -> np.ndarray:
    """The private syndrome bits of each word code, packed, by the paper's formula."""
    formula = formula_encode_x if side == "x" else formula_encode_y
    private = s.role_positions(side, "private")
    values, inv = np.unique(words, return_inverse=True)
    codes = []
    for digits in word_digits(values, 2, K).tolist():
        bits = formula(digits, s)
        codes.append(sum(bits[p] << i for i, p in enumerate(reversed(private))))
    return np.array(codes, dtype=np.int64)[inv]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CONDITIONAL_MODELS)), data=st.data())
def test_report_conditionals_equal_the_three_sort_oracle(name, data):
    # The six Slepian-Wolf conditionals of the report come from the table's
    # row code and are == the oracle's three np.unique sorts over the
    # per-row codes of the support rows, on random systematic schemes:
    # equal-weight runs, uneven runs, running-sum and row-order masses.
    make, (lo, hi) = CONDITIONAL_MODELS[name]
    K = data.draw(st.integers(lo, hi), label="K")
    k = data.draw(st.integers(1, K - 1), label="k")
    parity = data.draw(st.lists(st.integers(0, 1), min_size=k * (K - k), max_size=k * (K - k)))
    generator = [
        "".join("1" if j == i else "0" for j in range(k))
        + "".join(map(str, parity[i * (K - k) : (i + 1) * (K - k)]))
        for i in range(k)
    ]
    a1 = data.draw(st.sets(st.integers(0, k - 1)), label="a1")
    u2 = data.draw(st.sets(st.integers(0, k - 1)), label="u2")
    q = tuple(range(k, K))
    s = PartitionScheme(
        generator=generator,
        x_segments={"a1": tuple(sorted(a1)), "v1": tuple(sorted(set(range(k)) - a1)), "q1": q},
        y_segments={"u2": tuple(sorted(u2)), "a2": tuple(sorted(set(range(k)) - u2)), "q2": q},
    )
    model = make(K)
    table = model.table
    assert (table.weights is None) == (name not in ("iid-zero-cell", "iid-weighted"))

    x, y, z, probs = support_arrays(model)
    v_x, v_y = (_private_syndromes(s, side, w, K) for side, w in (("x", x), ("y", y)))
    want = {
        ("x_private_rate:lower", "lhs"): (x, (y << K) | z),
        ("y_private_rate:lower", "lhs"): (y, (x << K) | z),
        ("y_private_rate:upper", "rhs"): (y, x),
        ("x_unc_given_y_private", "rhs"): (x, v_y),
        ("y_unc_given_x_private", "rhs"): (y, v_x),
        ("z_unc_given_y_private", "rhs"): (z, v_y),
    }
    rows = {r.label: r for r in prototype_condition_report(s, model, sequence_summary(model))}
    for (label, side), (target, observed) in want.items():
        got = getattr(rows[label], f"{side}_bits")
        assert got == code_conditional_entropy(target, observed, probs) / K, label

    # The target is the last part of any set: a later tail chunk, the Z
    # columns, or the last head chunk, whatever lies in front of it.  A
    # chunk may declare more bits than its codes use.
    X, Y = (table.x, K), (table.y, K)
    assert table.conditional_entropy([Y], K, [(table.x, K + 2)]) == code_conditional_entropy(
        x, (y << K) | z, probs
    )
    assert table.conditional_entropy([Y, X]) == code_conditional_entropy(x, y, probs)
    assert table.conditional_entropy([X], 1, [Y, X]) == code_conditional_entropy(
        x, (((x << 1) | z >> (K - 1)) << K) | y, probs
    )
    assert table.conditional_entropy([], K) == code_conditional_entropy(z, 0 * z, probs)


def test_condition_report_on_the_k10_hamming_model_peaks_under_80_bytes_per_row():
    # The report's conditionals are taken on the table's row code: it
    # spreads no X, Y, syndrome or probability column over the rows and
    # runs no per-call np.unique sorts on an equal-weight law.
    columns = [format(v, "04b") for v in range(16) if bin(v).count("1") >= 2][:6]
    rows = ["".join("1" if j == i else "0" for j in range(6)) + c for i, c in enumerate(columns)]
    parity = tuple(range(6, 10))
    s = PartitionScheme(
        generator=rows,
        x_segments={"a1": (0, 1, 2), "v1": (3, 4, 5), "q1": parity},
        y_segments={"u2": (0, 1, 2), "a2": (3, 4, 5), "q2": parity},
    )
    model = SequenceModel(kind="hamming", K=10)
    table = model.table
    tracemalloc.start()
    try:
        prototype_condition_report(s, model, sequence_summary(model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows == 123_904 and table.weights is None
    assert peak <= 80 * table.rows, peak / table.rows
