import itertools
import math
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

import corrleak.cipher as cipher_module
from corrleak.cipher import (
    BRANCHES,
    RegionQuery,
    measure_security,
    region_membership,
)
from corrleak.errors import MEMORY_BUDGET, DomainError, UsageError
from corrleak.info import InfoSummary, JointPmf, SupportTable
from corrleak.seqmodel import SequenceModel, sequence_summary
from corrleak.swcodec import PartitionScheme
from oracle import (
    CipherSizes,
    alpha_defaults,
    build_ciphertexts,
    decrypt_ciphertexts,
    derive_key_sizes,
    enumeration_equivocation,
    formula_encode_x,
    formula_encode_y,
    iter_support,
    split_index,
    syndrome_observable,
)


def test_split_index_examples():
    assert split_index(13, 4) == (1, 3)
    assert split_index(9, 1) == (0, 9)
    with pytest.raises(UsageError):
        split_index(3, 0)


def test_split_index_roundtrip_exhaustive():
    for w in range(64):
        for m1 in range(1, 65):
            w1, w2 = split_index(w, m1)
            assert 0 <= w1 < m1
            assert w == w1 + m1 * w2


def test_zero_keys_are_identity():
    sch = CipherSizes(m_x=8, m_y=8, m_x1=4, m_y1=4, m_cx=4, m_cy=4)
    w1, w2 = build_ciphertexts(5, 6, 3, 2, {}, replace(sch, key_assignment=BRANCHES["none"]))
    assert w1 == (*split_index(5, 4), 3)
    assert w2 == (*split_index(6, 4), 2)


def test_default_masks_x1_with_y_key():
    sch = CipherSizes(m_x=8, m_y=8, m_x1=4, m_y1=4, m_cx=4, m_cy=4)
    keys = {"ky1": 3, "kcx": 0, "kcy": 0}
    w1, w2 = build_ciphertexts(5, 6, 0, 0, keys, sch)  # reused-pad default
    wx1, _ = split_index(5, 4)
    wy1, _ = split_index(6, 4)
    assert w1[0] == (wx1 + 3) % 4
    assert w2[0] == (wy1 + 3) % 4  # the same pad lands on both first parts


def test_roundtrip_exhaustive_small():
    sch = CipherSizes(m_x=8, m_y=6, m_x1=4, m_y1=3, m_cx=3, m_cy=2)
    for branch in ("none", "common-only", "reused-pad", "independent-pads"):
        keyed = replace(sch, key_assignment=BRANCHES[branch])
        for wx, wy, wcx, wcy in itertools.product(range(8), range(6), range(3), range(2)):
            keys = {"kx1": wx % 4, "ky1": wy % 3, "kcx": wcx % 3, "kcy": wcy % 2}
            w1, w2 = build_ciphertexts(wx, wy, wcx, wcy, keys, keyed)
            assert decrypt_ciphertexts(w1, w2, keys, keyed) == (wx, wy, wcx, wcy)


def test_component_range_checks():
    sch = CipherSizes(m_x=4, m_y=4, m_x1=2, m_y1=2, m_cx=2, m_cy=2)
    with pytest.raises(UsageError):
        build_ciphertexts(4, 0, 0, 0, {}, sch)
    with pytest.raises(UsageError):
        build_ciphertexts(0, 0, 2, 0, {}, sch)
    with pytest.raises(UsageError):
        reused = replace(sch, key_assignment=BRANCHES["reused-pad"])
        build_ciphertexts(0, 0, 0, 0, {"ky1": 2}, reused)


def perfect_secrecy_mi(sch: CipherSizes, branch: str) -> float:
    """Exhaustive I(plaintext; ciphertext) in bits, by dictionary counting."""
    sch = replace(sch, key_assignment=BRANCHES[branch])
    key_sizes = sch.key_sizes()
    names = sorted(key_sizes)
    joint, pt_marg, ct_marg = {}, {}, {}
    total = 0
    for pt in itertools.product(range(sch.m_x), range(sch.m_y), range(sch.m_cx), range(sch.m_cy)):
        for key_vals in itertools.product(*(range(key_sizes[n]) for n in names)):
            keys = dict(zip(names, key_vals))
            ct = build_ciphertexts(*pt, keys, sch)
            joint[(pt, ct)] = joint.get((pt, ct), 0) + 1
            pt_marg[pt] = pt_marg.get(pt, 0) + 1
            ct_marg[ct] = ct_marg.get(ct, 0) + 1
            total += 1

    def h(counter):
        return -sum((c / total) * math.log2(c / total) for c in counter.values())

    return h(pt_marg) + h(ct_marg) - h(joint)


def test_perfect_secrecy_with_independent_full_pads():
    # full-length pads on every component: ciphertext carries nothing
    sch = CipherSizes(m_x=4, m_y=4, m_x1=4, m_y1=4, m_cx=3, m_cy=2)
    assert perfect_secrecy_mi(sch, "independent-pads") < 1e-9


def test_reused_pad_is_not_perfectly_secret():
    # the shared pad leaks the difference of the two first parts
    sch = CipherSizes(m_x=4, m_y=4, m_x1=4, m_y1=4, m_cx=1, m_cy=1)
    assert perfect_secrecy_mi(sch, "reused-pad") > 0.5


def test_derive_key_sizes_degenerate_target():
    info = InfoSummary(
        h_x=2, h_y=2, h_z=0, h_xy=3, h_x_given_y=1, h_y_given_x=1,
        i_xy=1, i_xz=0, i_yz=0, i_xyz=0,
    )
    sch, _ = derive_key_sizes(info, K=3, h_target=0.0, case="joint")
    assert (sch.m_x1, sch.m_y1, sch.m_cx) == (1, 1, 1)
    assert sch.key_assignment == {"x1": None, "cx": "kcx", "y1": None, "cy": None}


def test_derive_key_sizes_above_shared_information():
    info = InfoSummary(
        h_x=2, h_y=2, h_z=0, h_xy=3, h_x_given_y=1, h_y_given_x=1,
        i_xy=1, i_xz=0, i_yz=0, i_xyz=0,
    )
    sch, _ = derive_key_sizes(info, K=3, h_target=2.0, case="joint")
    assert sch.m_y1 == 8  # 2^(3 * (2 - 1))
    assert sch.m_x1 == min(8, sch.m_y1)
    assert sch.m_cx == 8  # 2^(3 * i_xy)


def test_derive_key_sizes_below_shared_information():
    info = InfoSummary(
        h_x=2, h_y=2, h_z=0, h_xy=3, h_x_given_y=1, h_y_given_x=1,
        i_xy=1, i_xz=0, i_yz=0, i_xyz=0,
    )
    sch, errors = derive_key_sizes(info, K=3, h_target=0.5, case="joint")
    assert sch.m_cx == round(2 ** 1.5)
    assert sch.m_x1 == sch.m_y1 == 1
    assert "m_cx" in errors
    with pytest.raises(DomainError):
        derive_key_sizes(info, K=3, h_target=3.5, case="joint")


def region_info() -> InfoSummary:
    return InfoSummary(
        h_x=1.0, h_y=1.0, h_z=1.0, h_xy=10 / 7, h_x_given_y=3 / 7, h_y_given_x=3 / 7,
        i_xy=4 / 7, i_xz=0.2, i_yz=0.2, i_xyz=0.1,
    )


def test_region_dominant_rates_inside():
    info = region_info()
    q = RegionQuery(r_x=5, r_y=5, r_kx=5, r_ky=5, h_x=0.5, h_y=0.5, h_xy=1.0)
    for case in ("joint", "individual", "y-only"):
        assert region_membership(q, case, info).status == "inside"


def test_region_key_violation_listed():
    info = region_info()
    q = RegionQuery(r_x=1, r_y=1, r_kx=0.45, r_ky=0.45, h_xy=1.0)
    verdict = region_membership(q, "joint", info)
    assert verdict.status == "outside"
    assert verdict.violated == ("r_kx + r_ky >= h_xy",)


def test_region_out_of_domain():
    info = region_info()
    q = RegionQuery(r_x=1, r_y=1, r_kx=1, r_ky=1, h_xy=2.0)  # above H(X,Y)
    assert region_membership(q, "joint", info).status == "out_of_domain"
    q2 = RegionQuery(r_x=1, r_y=1, r_kx=1, r_ky=1, h_x=1.5, h_y=0.2)
    assert region_membership(q2, "individual", info).status == "out_of_domain"


def test_region_constraint_sets_by_case():
    info = region_info()
    q = RegionQuery(r_x=1, r_y=1, r_kx=1, r_ky=1, h_x=0.5, h_y=0.6, h_xy=0.9)
    joint = region_membership(q, "joint", info)
    assert [c.name for c in joint.constraints] == [
        "r_x >= h(x|y)", "r_y >= h(y|x)", "r_x + r_y >= h(x,y)", "r_kx + r_ky >= h_xy",
    ]
    assert joint.constraints[3].rhs == pytest.approx(0.9)
    indiv = region_membership(q, "individual", info)
    assert indiv.constraints[3].name == "r_kx + r_ky >= max(h_x, h_y)"
    assert indiv.constraints[3].rhs == pytest.approx(0.6)


def random_query(rng) -> RegionQuery:
    return RegionQuery(
        r_x=float(rng.uniform(0, 2)),
        r_y=float(rng.uniform(0, 2)),
        r_kx=float(rng.uniform(0, 1.5)),
        r_ky=float(rng.uniform(0, 1.5)),
        h_x=float(rng.uniform(0, 1.2)),
        h_y=float(rng.uniform(0, 1.2)),
        h_xy=float(rng.uniform(0, 1.6)),
        alpha_cx=float(rng.uniform(0, 0.2)),
        alpha_cy=float(rng.uniform(0, 0.2)),
        i_xyz=float(rng.uniform(-0.2, 0.2)),
    )


def test_y_only_case_matches_reduced_individual_case():
    info = region_info()
    rng = np.random.default_rng(12)
    for _ in range(200):
        q = random_query(rng)
        v1 = region_membership(q, "y-only", info)
        forced = RegionQuery(
            r_x=q.r_x, r_y=q.r_y, r_kx=q.r_kx, r_ky=q.r_ky,
            h_x=0.0, h_y=q.h_y, h_xy=q.h_xy,
            alpha_cx=q.alpha_cx, alpha_cy=q.alpha_cy, i_xyz=q.i_xyz,
        )
        v2 = region_membership(forced, "individual", info)
        assert v1.status == v2.status
        assert v1.violated == v2.violated


def test_region_monotone_in_rates():
    info = region_info()
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = random_query(rng)
        bigger = RegionQuery(
            r_x=q.r_x + float(rng.uniform(0, 1)),
            r_y=q.r_y + float(rng.uniform(0, 1)),
            r_kx=q.r_kx + float(rng.uniform(0, 1)),
            r_ky=q.r_ky + float(rng.uniform(0, 1)),
            h_x=q.h_x, h_y=q.h_y, h_xy=q.h_xy,
            alpha_cx=q.alpha_cx, alpha_cy=q.alpha_cy, i_xyz=q.i_xyz,
        )
        for case in ("joint", "individual", "y-only"):
            v_small = region_membership(q, case, info)
            v_big = region_membership(bigger, case, info)
            if v_small.status == "inside":
                assert v_big.status == "inside"


def test_alpha_defaults():
    info = region_info()
    a_cx, a_cy, a_z = alpha_defaults(info, mu=7, K=7)
    assert a_cx == pytest.approx(info.i_xz)
    assert a_cy == pytest.approx(info.i_yz)
    assert a_z == pytest.approx(info.h_z - info.i_xz - info.i_yz + info.i_xyz)
    assert alpha_defaults(info, mu=0, K=7) == (0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        alpha_defaults(info, mu=8, K=7)


def test_measure_security_no_keys_matches_equivocation(scheme, hamming7):
    m = measure_security(scheme, hamming7, "none", mu=0)
    obs = [syndrome_observable(scheme, "x"), syndrome_observable(scheme, "y")]
    for attr, target in (("h_x_hat", "x"), ("h_y_hat", "y"), ("h_xy_hat", "xy")):
        oracle = enumeration_equivocation(obs, target, hamming7) / 7
        assert getattr(m, attr) == pytest.approx(oracle, abs=1e-9)


def test_measure_security_full_independent_pads(scheme, hamming7):
    m = measure_security(scheme, hamming7, "independent-pads", mu=0)
    summary = sequence_summary(hamming7)
    assert m.h_x_hat == pytest.approx(summary.h_x, abs=1e-9)
    assert m.h_y_hat == pytest.approx(summary.h_y, abs=1e-9)
    assert m.h_xy_hat == pytest.approx(summary.h_xy, abs=1e-9)


def test_measure_security_reused_pad_costs_secrecy(scheme, hamming7):
    reused = measure_security(scheme, hamming7, "reused-pad", mu=0)
    indep = measure_security(scheme, hamming7, "independent-pads", mu=0)
    assert reused.h_xy_hat <= indep.h_xy_hat + 1e-9
    assert reused.h_xy_hat < indep.h_xy_hat - 0.1  # the reuse is measurably weaker


def test_measured_levels_never_exceed_unconditional(scheme, hamming7):
    summary = sequence_summary(hamming7)
    for branch in ("none", "common-only", "reused-pad", "independent-pads"):
        for mu in (0, 4):
            m = measure_security(scheme, hamming7, branch, mu=mu)
            assert m.h_xy_hat <= summary.h_xy + 1e-9
            assert m.h_x_hat <= summary.h_x + 1e-9


def test_cipher_branches_share_one_prefix_collapse(scheme, monkeypatch):
    # cipher-sim measures every branch on one model at one mu: the support
    # table collapses its rows to (x, y, z prefix) classes once, and every
    # branch measures what it measures on a fresh model.
    model = SequenceModel(kind="hamming", K=7)
    seen = []
    real = SupportTable.prefix_classes
    monkeypatch.setattr(
        SupportTable, "prefix_classes", lambda self, mu: seen.append(real(self, mu)) or seen[-1]
    )
    shared = {b: measure_security(scheme, model, b, mu=4) for b in BRANCHES}
    monkeypatch.undo()
    assert len(seen) == len(BRANCHES) == 4
    assert all(classes is seen[0] for classes in seen)
    assert list(model.table._classes) == [4]
    for branch, m in shared.items():
        fresh = SequenceModel(kind="hamming", K=7)
        assert m == measure_security(scheme, fresh, branch, mu=4)


def test_measure_security_mu_reduces_uncertainty(scheme, hamming7):
    base = measure_security(scheme, hamming7, "independent-pads", mu=0)
    leaked = measure_security(scheme, hamming7, "independent-pads", mu=7)
    assert leaked.h_xy_hat < base.h_xy_hat - 0.1


def partition(rows: list[str], v1: tuple[int, ...], u2: tuple[int, ...]) -> PartitionScheme:
    """Systematic [n,k] scheme sending v1 of X and u2 of Y in the clear."""
    k, n = len(rows), len(rows[0])
    parity = tuple(range(k, n))
    return PartitionScheme(
        generator=rows,
        x_segments={"a1": tuple(p for p in range(k) if p not in v1), "v1": v1, "q1": parity},
        y_segments={"u2": u2, "a2": tuple(p for p in range(k) if p not in u2), "q2": parity},
    )


def partition_sizes(s: PartitionScheme, branch: str) -> CipherSizes:
    """The per-codeword cipher of a partition's syndrome portions: every index
    space as wide as its portion, the first sub-codewords the whole private
    spaces, and the keys of ``branch``."""
    m_x, m_cx, m_y, m_cy = (
        1 << len(s.role_positions(side, role)) for side in "xy" for role in ("private", "common")
    )
    return CipherSizes(m_x, m_y, m_x, m_y, m_cx, m_cy, BRANCHES[branch])


def cipher_oracle(cipher: CipherSizes, model, s: PartitionScheme, mu_values):
    """Per mu: H(x | ct, z-prefix), H(y | ...), H(xy | ...) per symbol, by
    sending every support triple with every key tuple through build_ciphertexts."""
    key_sizes = cipher.key_sizes()
    key_tuples = list(itertools.product(*(range(m) for m in key_sizes.values())))
    mass = {mu: [defaultdict(float) for _ in range(4)] for mu in mu_values}

    def index(bits, side, role):
        value = 0
        for i in s.role_positions(side, role):
            value = 2 * value + bits[i]
        return value

    for t in iter_support(model):
        tx, ty = formula_encode_x(t.x, s), formula_encode_y(t.y, s)
        plain = (index(tx, "x", "private"), index(ty, "y", "private"),
                 index(tx, "x", "common"), index(ty, "y", "common"))
        p = t.prob / len(key_tuples)
        for key_vals in key_tuples:
            ct = build_ciphertexts(*plain, dict(zip(key_sizes, key_vals)), cipher)
            for mu, acc in mass.items():
                obs = (ct, t.z[:mu])
                for counter, cell in zip(acc, (obs, (obs, t.x), (obs, t.y), (obs, t.x, t.y))):
                    counter[cell] += p

    def h(counter):
        return -math.fsum(q * math.log2(q) for q in counter.values())

    out = {}
    for mu, acc in mass.items():
        h_obs = h(acc[0])
        out[mu] = tuple((h(c) - h_obs) / model.K for c in acc[1:])
    return out


def hamming_law(K: int) -> SequenceModel:
    return SequenceModel(kind="hamming", K=K, d_xy_max=1, d_yz_max=0)


def weighted_law(K: int) -> SequenceModel:
    """Four cells of unequal mass, Z a noisy copy of Y: weighted rows, 4**K of them."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0], probs[1, 0, 0], probs[0, 1, 1], probs[1, 1, 0] = 0.4, 0.1, 0.3, 0.2
    return SequenceModel(kind="iid", K=K, base=JointPmf(probs))


ORACLE_CASES = {
    # name: (generator rows, v1, u2, model of length n)
    "equal-split": (["1011", "0101"], (1,), (0,), hamming_law),
    # Both private parts are bits 0..1: a reused pad shows y1 - x1 mod 4.
    "equal-split-wide": (["10001", "01001", "00101", "00011"], (0, 1), (0, 1), hamming_law),
    "v1-longer": (["10011", "01010", "00111"], (1, 2), (0,), hamming_law),
    "u2-longer": (["10011", "01010", "00111"], (2,), (0, 1), hamming_law),
    # reused-pad's 2-valued y1 key pads the 8-valued x1.
    "v1-four-times-longer": (["10011", "01010", "00111"], (0, 1, 2), (0,), hamming_law),
    "v1-longer-weighted": (["1011", "0101"], (0, 1), (0,), weighted_law),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_measure_security_matches_key_enumeration_oracle(case):
    # Every key folds but reused-pad's shared key under |v1| > |u2|: it is
    # narrower than X's private portion, so measure_security averages over it.
    rows, v1, u2, law = ORACLE_CASES[case]
    s = partition(rows, v1, u2)
    model = law(s.n)
    for branch in BRANCHES:
        for mu, expected in cipher_oracle(partition_sizes(s, branch), model, s, (0, 2)).items():
            m = measure_security(s, model, branch, mu=mu)
            assert (m.h_x_hat, m.h_y_hat, m.h_xy_hat) == pytest.approx(expected, abs=1e-12), (
                branch, mu
            )


def test_measure_security_refuses_an_unknown_branch(scheme, hamming7):
    with pytest.raises(UsageError, match="unknown branch 'crossed'"):
        measure_security(scheme, hamming7, "crossed")


# The [12,10] code of the two tests below: ten info bits, two parity bits.
CODE_12_10 = [
    "".join("1" if j == i else "0" for j in range(10)) + format(i % 3 + 1, "02b")
    for i in range(10)
]


def entropy_calls(monkeypatch) -> list:
    """One entry per ``code_entropy`` call that ``measure_security`` makes."""
    seen = []
    real = cipher_module.code_entropy
    monkeypatch.setattr(cipher_module, "code_entropy", lambda *a: seen.append(None) or real(*a))
    return seen


def assert_within_summary(m, model) -> None:
    summary = sequence_summary(model)
    for level, bound in ((m.h_x_hat, summary.h_x), (m.h_y_hat, summary.h_y),
                         (m.h_xy_hat, summary.h_xy)):
        assert -1e-12 <= level <= bound + 1e-12


def test_measure_security_averages_a_narrow_key_in_class_sized_memory(monkeypatch):
    # The [12,10] code sending all ten info bits of X and four of Y: reused-pad's
    # 16-valued y1 pad is narrower than the 1,024-valued x1, so the levels are
    # averaged over the 16 values of y1's ciphertext, four class entropies
    # each, one class-sized code at a time rather than (class, key) cells.
    s = partition(CODE_12_10, tuple(range(10)), tuple(range(4)))
    model = SequenceModel(kind="hamming", K=12)
    classes = model.table.prefix_classes(0)[0].size
    calls = entropy_calls(monkeypatch)
    tracemalloc.start()
    try:
        m = measure_security(s, model, "reused-pad", mu=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * classes * 8
    assert len(calls) == 4 * 16
    assert_within_summary(m, model)


def test_measure_security_folds_a_shared_key_wider_than_a_portion_it_masks(monkeypatch):
    # The same code sending one info bit of X and all ten of Y: reused-pad's
    # 1,024-valued y1 pad also masks the 2-valued x1 and folds against y1,
    # so the levels take four class entropies.
    s = partition(CODE_12_10, (0,), tuple(range(10)))
    model = SequenceModel(kind="hamming", K=12)
    calls = entropy_calls(monkeypatch)
    m = measure_security(s, model, "reused-pad", mu=0)
    assert len(calls) == 4
    assert_within_summary(m, model)


def test_measure_security_folds_keys_past_the_enumeration_guard():
    # [10,6] shortened Hamming code at K=10: 11,264 (x, y) rows x 16,384
    # independent-pad key tuples would exceed the memory budget if enumerated.
    columns = [format(v, "04b") for v in range(16) if bin(v).count("1") >= 2][:6]
    rows = ["".join("1" if j == i else "0" for j in range(6)) + c for i, c in enumerate(columns)]
    s = partition(rows, (3, 4, 5), (0, 1, 2))
    model = SequenceModel(kind="hamming", K=10)
    # independent-pads keys every portion: one key bit per syndrome bit.
    assert 8 * 17 * (11_264 << (s.syndrome_len("x") + s.syndrome_len("y"))) > MEMORY_BUDGET
    m = measure_security(s, model, "independent-pads", mu=0)
    summary = sequence_summary(model)
    assert m.h_x_hat == pytest.approx(summary.h_x, abs=1e-9)
    assert m.h_y_hat == pytest.approx(summary.h_y, abs=1e-9)
    assert m.h_xy_hat == pytest.approx(summary.h_xy, abs=1e-9)
