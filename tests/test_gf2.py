"""The package's one GF(2) routine, ``swcodec.xor_basis``, and the int masks
that ``PartitionScheme`` derives from its generator rows, against the uint8
Gaussian elimination of ``oracle.rank``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrleak.errors import UsageError, ValidationError
from corrleak.swcodec import PartitionScheme, xor_basis
from oracle import generator_cells, mat_vec_mul, p1_t, p2_t, rank, reference_scheme

G_ROWS = ["1000101", "0100110", "0010111", "0001011"]
GX_ROWS = ["00101", "00110", "10000", "01000", "00100", "00010", "00001"]
GY_ROWS = ["10000", "01000", "00111", "00011", "00100", "00010", "00001"]


def cells(rows: list[str]) -> np.ndarray:
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.uint8)


def row_masks(m: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as an int mask, its first column most significant."""
    return [int("".join(map(str, row)) or "0", 2) for row in m.tolist()]


def column_masks(m: np.ndarray) -> list[int]:
    return row_masks(m.T)


def xor_rank(masks) -> int:
    return len(xor_basis(masks))


def scheme_with(rows) -> PartitionScheme:
    """The reference partition over the given generator rows."""
    s = reference_scheme()
    return PartitionScheme(rows, s.x_segments, s.y_segments)


def test_parse_and_roundtrip():
    s = reference_scheme()
    assert s.generator == tuple(G_ROWS) and (s.k, s.n) == (4, 7)
    assert generator_cells(s).ravel()[:7].tolist() == [1, 0, 0, 0, 1, 0, 1]
    again = PartitionScheme.from_json(
        {"generator": {"rows": list(s.generator)},
         **{f"{side}_segments": {name: list(v) for name, v in segs.items()}
            for side, segs in (("x", s.x_segments), ("y", s.y_segments))}}
    )
    assert again.generator == tuple(G_ROWS)
    # Column j of P^T as a k-bit mask, row 0 most significant.
    assert s.parity_columns == (0b1110, 0b0111, 0b1011)
    assert s.parity_columns == tuple(column_masks(cells(G_ROWS)[:, 4:]))
    # The encoder columns are the columns of G_X and G_Y, packed like word codes.
    assert s.g_x == tuple(column_masks(cells(GX_ROWS)))
    assert s.g_y == tuple(column_masks(cells(GY_ROWS)))


def test_parse_rejects_bad_rows():
    for rows, message in (
        (["1010101", "10"], "row 1 has length 2, expected 7"),
        (["10x0101", "0101011"], "row 0 contains characters other than 0/1"),
        (["1000101", "01001\uff110"], "row 1 contains characters other than 0/1"),
        ([], "matrix needs at least one row"),
        ("1000101", "expected a list of 0/1 strings"),
        ([1000101], "expected a list of 0/1 strings"),
    ):
        with pytest.raises(ValidationError, match=f"^scheme.generator.rows: {message}"):
            scheme_with(rows)


def test_rank_of_bundled_matrices():
    s = reference_scheme()
    for name, rows, masks, want in (
        ("G", G_ROWS, [int(r, 2) for r in s.generator], 4),
        ("G_X", GX_ROWS, s.g_x, 5),
        ("G_Y", GY_ROWS, s.g_y, 5),
    ):
        assert xor_rank(masks) == rank(cells(rows)) == want, name


def test_rank_zero_matrix():
    assert xor_basis([0, 0, 0]) == [] and xor_basis([]) == []
    assert rank(np.zeros((3, 5), dtype=np.uint8)) == 0


def test_mat_vec_parity_blocks():
    s = reference_scheme()
    # P1^T: transposed rows 1-2 / parity columns of G; P2^T: rows 3-4.
    assert p1_t(s).tolist() == cells(G_ROWS)[0:2, 4:7].T.tolist()
    assert p2_t(s).tolist() == cells(G_ROWS)[2:4, 4:7].T.tolist()
    assert mat_vec_mul(p1_t(s), [1, 0]) == (1, 0, 1)
    assert mat_vec_mul(p2_t(s), [1, 1]) == (1, 0, 0)
    ident = np.eye(5, dtype=np.uint8)
    assert mat_vec_mul(ident, [1, 0, 1, 1, 0]) == (1, 0, 1, 1, 0)


def test_mat_vec_dimension_mismatch():
    g = cells(G_ROWS)
    with pytest.raises(UsageError):
        mat_vec_mul(g, [1, 0, 1])
    with pytest.raises(UsageError):
        mat_vec_mul(g, [2, 0, 0, 0, 0, 0, 0])


def remove_columns(m: np.ndarray, cols) -> np.ndarray:
    return np.delete(m, list(cols), axis=1)


def test_remove_columns():
    g = cells(G_ROWS)
    assert xor_rank(row_masks(remove_columns(g, []))) == rank(g) == 4
    assert xor_rank(row_masks(remove_columns(g, range(7)))) == rank(remove_columns(g, range(7)))
    assert rank(remove_columns(g, range(7))) == 0
    # H = [P | I_3]; dropping the identity block leaves rank(P) = 3
    h = np.hstack([g[:, 4:7].T, np.eye(3, dtype=np.uint8)])
    assert xor_rank(column_masks(remove_columns(h, [4, 5, 6]))) == 3
    assert rank(remove_columns(h, [4, 5, 6])) == 3


def random_matrix(rng, rows, cols) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def test_rank_equals_transpose_rank_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = random_matrix(rng, int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        assert xor_rank(row_masks(m)) == xor_rank(column_masks(m)) == rank(m) == rank(m.T)


def test_rank_invariant_under_row_ops():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = random_matrix(rng, 6, 8)
        r = rank(m)
        i, j = rng.choice(6, size=2, replace=False)
        m[[i, j]] = m[[j, i]]       # swap
        m[i] ^= m[j]                # xor another row in
        assert xor_rank(row_masks(m)) == rank(m) == r


def test_rank_drop_bounded_by_removed_columns():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_matrix(rng, 5, 9)
        k = int(rng.integers(0, 5))
        cols = rng.choice(9, size=k, replace=False)
        assert xor_rank(row_masks(remove_columns(m, cols))) >= xor_rank(row_masks(m)) - k


@settings(deadline=None)
@given(
    st.tuples(st.integers(1, 20), st.integers(1, 63)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
    )
)
def test_xor_basis_length_is_the_gaussian_elimination_rank(m):
    # Rows (up to 63-bit masks) and columns (up to 20-bit masks) of random
    # 0/1 matrices: the basis length is the rank, whichever side is masked.
    assert xor_rank(row_masks(m)) == xor_rank(column_masks(m)) == rank(m)
