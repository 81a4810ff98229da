import numpy as np
import pytest

from corrleak.errors import UsageError, ValidationError
from corrleak.gf2 import Gf2Matrix, rank
from oracle import mat_vec_mul


def rank_oracle(m: Gf2Matrix) -> int:
    """Independent rank check: grow a basis of row bitmasks."""
    basis = []
    for row in m.cells:
        v = int("".join(str(int(b)) for b in row), 2) if m.cols else 0
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


G_ROWS = ["1000101", "0100110", "0010111", "0001011"]
GX_ROWS = ["00101", "00110", "10000", "01000", "00100", "00010", "00001"]
GY_ROWS = ["10000", "01000", "00111", "00011", "00100", "00010", "00001"]


def row_strings(m: Gf2Matrix) -> list[str]:
    return ["".join(map(str, row)) for row in m.cells.tolist()]


def test_parse_and_roundtrip():
    g = Gf2Matrix.from_rows(G_ROWS)
    assert g.rows == 4 and g.cols == 7
    assert row_strings(g) == G_ROWS
    assert g.cells.ravel()[:7].tolist() == [1, 0, 0, 0, 1, 0, 1]
    assert row_strings(Gf2Matrix.from_json({"rows": row_strings(g)})) == G_ROWS


def test_parse_rejects_bad_rows():
    with pytest.raises(ValidationError):
        Gf2Matrix.from_rows(["101", "10"])
    with pytest.raises(ValidationError):
        Gf2Matrix.from_rows(["10x"])
    with pytest.raises(ValidationError):
        Gf2Matrix.from_rows([])


def test_rank_of_bundled_matrices():
    g = Gf2Matrix.from_rows(G_ROWS)
    gx = Gf2Matrix.from_rows(GX_ROWS)
    gy = Gf2Matrix.from_rows(GY_ROWS)
    assert rank(g) == rank_oracle(g) == 4
    assert rank(gx) == rank_oracle(gx) == 5
    assert rank(gy) == rank_oracle(gy) == 5


def test_rank_zero_matrix():
    assert rank(Gf2Matrix(np.zeros((3, 5), dtype=np.uint8))) == 0


def test_mat_vec_parity_blocks():
    g = Gf2Matrix.from_rows(G_ROWS)
    # P1^T: transposed rows 1-2 / parity columns of G; P2^T: rows 3-4.
    p1t = Gf2Matrix(g.cells[0:2, 4:7].T)
    p2t = Gf2Matrix(g.cells[2:4, 4:7].T)
    assert mat_vec_mul(p1t, [1, 0]) == (1, 0, 1)
    assert mat_vec_mul(p2t, [1, 1]) == (1, 0, 0)
    ident = Gf2Matrix(np.eye(5, dtype=np.uint8))
    assert mat_vec_mul(ident, [1, 0, 1, 1, 0]) == (1, 0, 1, 1, 0)


def test_mat_vec_dimension_mismatch():
    g = Gf2Matrix.from_rows(G_ROWS)
    with pytest.raises(UsageError):
        mat_vec_mul(g, [1, 0, 1])
    with pytest.raises(UsageError):
        mat_vec_mul(g, [2, 0, 0, 0, 0, 0, 0])


def remove_columns(m: np.ndarray, cols) -> Gf2Matrix:
    return Gf2Matrix(np.delete(m, list(cols), axis=1))


def test_remove_columns():
    g = Gf2Matrix.from_rows(G_ROWS)
    assert rank(remove_columns(g.cells, [])) == rank(g)
    assert rank(remove_columns(g.cells, range(7))) == 0
    # H = [P | I_3]; dropping the identity block leaves rank(P) = 3
    h = np.hstack([g.cells[:, 4:7].T, np.eye(3, dtype=np.uint8)])
    assert rank(remove_columns(h, [4, 5, 6])) == 3


def random_matrix(rng, rows, cols) -> Gf2Matrix:
    return Gf2Matrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def test_rank_equals_transpose_rank_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = random_matrix(rng, int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        assert rank(m) == rank(Gf2Matrix(m.cells.T)) == rank_oracle(m)


def test_rank_invariant_under_row_ops():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = random_matrix(rng, 6, 8)
        r = rank(m)
        cells = m.cells.copy()
        i, j = rng.choice(6, size=2, replace=False)
        cells[[i, j]] = cells[[j, i]]       # swap
        cells[i] ^= cells[j]                # xor another row in
        assert rank(Gf2Matrix(cells)) == r


def test_rank_drop_bounded_by_removed_columns():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_matrix(rng, 5, 9)
        k = int(rng.integers(0, 5))
        cols = rng.choice(9, size=k, replace=False)
        assert rank(remove_columns(m.cells, cols)) >= rank(m) - k
