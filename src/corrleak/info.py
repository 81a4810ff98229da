"""Exact Shannon measures over enumerated support tables, in bits.

A support table lists outcomes row by row with their probabilities; a
deterministic function of the outcome is an integer code per row, and every
entropy in the package is an entropy of such a code.  ``JointPmf`` is the
validated per-symbol law of (X, Y, Z) that an iid sequence model extends.
Probabilities below ``ZERO_EPS`` are treated as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InternalConsistencyError, ValidationError

#: Probabilities below this are exact zeros.
ZERO_EPS = 1e-15
#: Tolerance on the total probability mass of a pmf.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class JointPmf:
    """Joint probability tensor over the (X, Y, Z) alphabets.

    ``probs`` is a 3-d array indexed [x, y, z]; it is validated and made
    read-only on construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(f"probs must be 3-dimensional, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"every alphabet must have size >= 1, got {arr.shape}")
        if np.any(arr < -ZERO_EPS):
            raise ValidationError("probs has a negative entry")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"probs mass is {total!r}, expected 1 within {MASS_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def alphabet_sizes(self) -> tuple[int, int, int]:
        return tuple(self.probs.shape)  # type: ignore[return-value]

    def to_json(self) -> dict:
        nx, ny, nz = self.alphabet_sizes
        return {"alphabets": [nx, ny, nz], "probs": [float(v) for v in self.probs.ravel()]}

    @classmethod
    def from_json(cls, data: dict) -> "JointPmf":
        try:
            nx, ny, nz = (int(v) for v in data["alphabets"])
            flat = np.asarray(data["probs"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad JointPmf JSON: {exc}") from exc
        if flat.size != nx * ny * nz:
            raise ValidationError(
                f"probs has {flat.size} entries, alphabets imply {nx * ny * nz}"
            )
        return cls(flat.reshape(nx, ny, nz))


# -- entropy kernel over support tables ------------------------------------------

#: Running width, in bits, up to which ``pack_chunks`` shifts chunks into one
#: int64 code before it re-ranks the code so far.
PACK_LIMIT_BITS = 62


def pack_bits(cols: np.ndarray, base: int = 2) -> np.ndarray:
    """Pack a (rows, width) array of symbols in 0..base-1 into one int64
    code per row, column 0 most significant.  A width of 0 gives all zeros.

    Codes order rows exactly as the symbol tuples order lexicographically.
    Raises ``InternalConsistencyError`` when ``base**width`` reaches 2**63,
    where int64 arithmetic would wrap.
    """
    if base ** cols.shape[1] >= 1 << 63:
        raise InternalConsistencyError(
            f"{cols.shape[1]} symbols of base {base} do not fit one int64 code"
        )
    code = np.zeros(cols.shape[0], dtype=np.int64)
    for i in range(cols.shape[1]):
        code *= base
        code += cols[:, i]
    return code


def pack_chunks(chunks: Iterable[tuple[np.ndarray, int]], rows: int) -> np.ndarray:
    """Join ``(code, width)`` chunks, codes in 0..2**width-1, into one int64
    code per row, the first chunk most significant.

    Before a chunk would take the running width past ``PACK_LIMIT_BITS``,
    the code so far is re-ranked to 0..distinct-1.  Re-ranking keeps the
    order of the rows, so the result always orders rows as the tuples of
    their chunks do, and it is the plain shifted code when no re-rank is
    needed.  The first chunk is copied and the rest are shifted in place
    into the copy, so the input arrays are never written.
    """
    code = None
    used = 0
    for chunk, width in chunks:
        if not width:
            continue
        if code is None:
            code = chunk.astype(np.int64)
            used = width
            continue
        if used + width > PACK_LIMIT_BITS:
            values, code = np.unique(code, return_inverse=True)
            used = (values.size - 1).bit_length()
            if used + width > PACK_LIMIT_BITS:
                raise InternalConsistencyError(
                    f"a {width}-bit chunk does not fit beside {used} ranked bits"
                )
        code <<= width
        code |= chunk
        used += width
    return np.zeros(rows, dtype=np.int64) if code is None else code


def code_entropy(code: np.ndarray, probs: np.ndarray | None = None) -> float:
    """H of a coded variable, in bits.  ``probs`` are the row probabilities;
    None means every row has the same probability (entropy from counts).

    Codes in 0..2*rows-1 are counted with ``np.bincount`` on the code itself.
    Other codes are counted as the run lengths of a sorted copy of the code,
    or, with weights, binned through ``np.unique``.  Every path gives the
    bins in ascending code order with the weights summed in row order, so
    the result is the same bit for bit; the dense count array is at most
    twice the size of ``code``.  ``code`` is never written.
    """
    if probs is None:
        return _count_entropy(_bin_counts(code, owned=False), code.size)
    if not _is_dense(code):
        _, code = np.unique(code, return_inverse=True)
    mass = np.bincount(code, weights=probs)
    mass = mass[mass > 0]
    return float(-(mass * np.log2(mass)).sum())


def owned_code_entropy(code: np.ndarray, multiplicity: int = 1) -> float:
    """H of a coded variable over equally weighted rows, each of which
    stands for ``multiplicity`` rows with the same code, in bits.

    The caller hands ``code`` over: it may be sorted in place.  The bins,
    their ascending order and their integer counts are those of the code
    with every row repeated ``multiplicity`` times, so the result equals
    ``code_entropy`` of that repeated code bit for bit.
    """
    counts = _bin_counts(code, owned=True)
    if multiplicity != 1:
        counts *= multiplicity
    return _count_entropy(counts, code.size * multiplicity)


def _is_dense(code: np.ndarray) -> bool:
    return code.size > 0 and code.min() >= 0 and code.max() < 2 * code.size


def _bin_counts(code: np.ndarray, owned: bool) -> np.ndarray:
    """Row count of every distinct code, in ascending code order.  Sorts
    ``code`` in place when it is ``owned``, else a copy of it."""
    if _is_dense(code):
        counts = np.bincount(code)
        return counts[counts > 0]
    if owned:
        code.sort()
    else:
        code = np.sort(code)
    starts = np.flatnonzero(code[1:] != code[:-1]) + 1
    return np.diff(starts, prepend=0, append=code.size)


def _count_entropy(counts: np.ndarray, rows: int) -> float:
    n = float(rows)
    return float(np.log2(n) - (counts * np.log2(counts)).sum() / n)


def code_conditional_entropy(
    target: np.ndarray, observed: np.ndarray, probs: np.ndarray
) -> float:
    """H(T | O) = -sum p(t,o) log2(p(t,o) / p(o)), in bits.

    The terms are summed one after another (``np.cumsum``) in the order of
    the sorted joint codes.  Taking the difference H(T,O) - H(O), or a
    pairwise ``np.sum``, moves results in the last place.
    """
    _, o_inv = np.unique(observed, return_inverse=True)
    t_vals, t_inv = np.unique(target, return_inverse=True)
    joint, j_inv = np.unique(o_inv * t_vals.size + t_inv, return_inverse=True)
    p_joint = np.bincount(j_inv, weights=probs)
    p_obs = np.bincount(o_inv, weights=probs)[joint // t_vals.size]
    return float(-np.cumsum(p_joint * np.log2(p_joint / p_obs))[-1])


@dataclass(frozen=True)
class InfoSummary:
    """The standard single, joint and conditional measures of a law of
    (X, Y, Z), in bits per symbol."""

    h_x: float
    h_y: float
    h_z: float
    h_xy: float
    h_x_given_y: float
    h_y_given_x: float
    i_xy: float
    i_xz: float
    i_yz: float
    i_xyz: float
