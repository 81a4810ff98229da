"""Cross-module behaviour: alternate models and role variants."""

import numpy as np
import pytest

from corrleak.info import JointPmf
from corrleak.leakage import WiretapAnalyzer
from corrleak.seqmodel import SequenceModel
from corrleak.swcodec import PartitionScheme
from oracle import (
    entropy,
    generator_cells,
    iter_support,
    marginal,
    mutual_information,
    pattern,
    pattern_arrays,
    reference_scheme,
    submatrix,
)
from test_leakage import H


def test_composite_selector_mutual_information():
    probs = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y, x ^ y] = 0.25
    pmf = JointPmf(probs)
    # z is a function of the pair, so I((X,Y); Z) = H(Z) = 1
    assert mutual_information(pmf, "xy", "z") == pytest.approx(1.0, abs=1e-12)


def test_enumerate_support_streams_in_order():
    model = SequenceModel(kind="hamming", K=3)
    seen = [(t.y, t.x, t.z) for t in iter_support(model)]
    assert seen == sorted(seen)
    assert len(seen) == model.support_size()


def test_submatrix_extraction():
    sub = submatrix(generator_cells(reference_scheme()), [0, 1], [4, 5, 6])
    assert sub.tolist() == [[1, 0, 1], [1, 1, 0]]


@pytest.fixture(scope="module")
def iid_uniform_analyzer(scheme):
    base = JointPmf(np.full((2, 2, 2), 0.125))
    model = SequenceModel(kind="iid", K=7, base=base)
    return WiretapAnalyzer(scheme, model)


def test_iid_model_identity_and_bound(iid_uniform_analyzer):
    an = iid_uniform_analyzer
    assert H(an, pattern(), "x", "y") == pytest.approx(14.0, abs=1e-9)
    checks = an.pattern_checks(*pattern_arrays([
        pattern({0, 3}, {1, 4}, 2),
        pattern(range(5), range(5), 7),
    ]))
    for c in checks.values():
        assert max(c.residual) < 1e-9
        # independent uniform sources also satisfy the portion bound
        assert all(c.holds)


def test_iid_independent_sources_leak_nothing_crosswise(iid_uniform_analyzer):
    # with fully independent sources, T_X says nothing about Y
    (val,) = iid_uniform_analyzer.leakages("y", *pattern(range(5)))
    assert val == pytest.approx(0.0, abs=1e-9)


def test_nearly_uniform_iid_law_uses_its_weights(scheme):
    # Row probabilities spread by about 2%, yet every pair of rows agrees
    # within 1e-8; only exact equality may select count-based entropies.
    cells = np.array([0.125 * (1.0014 if x == 0 else 0.9986) for x in (0, 1) for _ in range(4)])
    base = JointPmf(cells.reshape(2, 2, 2))
    an = WiretapAnalyzer(scheme, SequenceModel(kind="iid", K=7, base=base))
    assert H(an, pattern(), "x") == pytest.approx(7 * entropy(marginal(base, "x")), abs=1e-9)


def all_private_scheme() -> PartitionScheme:
    base = reference_scheme()
    return PartitionScheme(
        generator=base.generator,
        x_segments=base.x_segments,
        y_segments=base.y_segments,
        segment_roles={"v1": "private", "u2": "private", "q1": "private", "q2": "private"},
    )


def test_unmasked_parity_leaks_in_the_clear(hamming7):
    an = WiretapAnalyzer(all_private_scheme(), hamming7)
    # a single parity bit is a uniform function of the sources: 1 bit leaked
    (val,) = an.leakages("xy", *pattern({2}))
    assert val == pytest.approx(1.0, abs=1e-9)
    # with no common-designated segments the portion bound loses its slack
    assert an.h_common == pytest.approx(0.0, abs=1e-12)


def test_masked_parity_leaks_nothing_alone(scheme, analyzer):
    val, pair, cross = analyzer.leakages("xy", *pattern_arrays([
        pattern({2}),
        pattern({2}, {2}),
        pattern({2}, {3}),
    ]))
    assert val == pytest.approx(0.0, abs=1e-12)
    # but the aligned pair reveals exactly one bit
    assert pair == pytest.approx(1.0, abs=1e-9)
    # and misaligned parity bits reveal nothing
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_analyzer_rejects_mismatched_model(scheme):
    with pytest.raises(Exception):
        WiretapAnalyzer(scheme, SequenceModel(kind="hamming", K=5))
