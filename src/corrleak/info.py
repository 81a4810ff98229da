"""Exact Shannon measures over enumerated support tables, in bits.

A support table lists outcomes row by row with their probabilities; a
deterministic function of the outcome is an integer code per row, and every
entropy in the package is an entropy of such a code, taken by the one
kernel ``code_entropy``.  ``SupportTable`` is the one table of a sequence
model: its distinct (x, y) pairs with their run lengths, and one Z code
per row (plus one probability per row only for a weighted law).  It
counts a set that reads no Z on the pairs and codes every other set over
the rows in one reused buffer.  ``JointPmf`` is the validated per-symbol
law of (X, Y, Z) that an iid sequence model extends.  Probabilities below
``ZERO_EPS`` are treated as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InternalConsistencyError, ValidationError, int_field

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
        if not np.isfinite(arr).all():
            raise ValidationError("probs has a non-finite entry")
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

    @property
    def nonzero_cells(self) -> int:
        """Cells of probability above ``ZERO_EPS``."""
        return int((self.probs > ZERO_EPS).sum())

    def entropy(self, variables: str) -> float:
        """H of the marginal law of ``variables`` (letters of "xyz"), in bits,
        cells of at most ``ZERO_EPS`` counted as zeros."""
        cells = np.where(self.probs > ZERO_EPS, self.probs, 0.0)
        mass = cells.sum(axis=tuple(i for i, v in enumerate("xyz") if v not in variables))
        # 0.0 - sum, not -sum: a law on one outcome gives +0.0, never -0.0.
        return 0.0 - float(_xlogx_sum(mass[mass > 0]))

    @classmethod
    def from_json(cls, data: dict) -> "JointPmf":
        try:
            nx, ny, nz = (int_field(v, "alphabets") for v in data["alphabets"])
            flat = np.asarray(data["probs"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad JointPmf JSON: {exc}") from exc
        if min(nx, ny, nz) < 1:
            raise ValidationError(f"every alphabet must have size >= 1, got {[nx, ny, nz]}")
        if flat.size != nx * ny * nz:
            raise ValidationError(
                f"probs has {flat.size} entries, alphabets imply {nx * ny * nz}"
            )
        return cls(flat.reshape(nx, ny, nz))


# -- entropy kernel over support tables ------------------------------------------

#: Running width, in bits, up to which ``pack_chunks`` shifts chunks into one
#: int64 code before it re-ranks the code so far.
PACK_LIMIT_BITS = 62


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


def column_code(code: np.ndarray, width: int, cols: Sequence[int]) -> np.ndarray:
    """Columns ``cols`` of a code packed from ``width`` bit columns, column 0
    most significant, packed the same way.  A prefix is a shift of the code.
    Other columns take one gather through a lookup table over all
    ``2**width`` codes when that table is no larger than the code, and are
    taken bit by bit from the code itself otherwise."""
    cols = list(cols)
    if cols == list(range(len(cols))):
        return code if len(cols) == width else code >> (width - len(cols))
    gather = (1 << width) <= code.size
    values = np.arange(1 << width, dtype=np.int64) if gather else code
    out = np.zeros(values.size, dtype=np.int64)
    for c in cols:
        out <<= 1
        out |= (values >> (width - 1 - c)) & 1
    return out[code] if gather else out


def code_entropy(code: np.ndarray, weights: int | np.ndarray | None = 1) -> float:
    """H of a coded variable, in bits.  ``weights`` is the integer count of
    rows that every row of ``code`` stands for (None counts each row once),
    one integer count per row, or one probability per row.

    The caller hands ``code`` over: the kernel may sort it in place (a
    read-only code is sorted in a copy).  Codes in 0..2*rows-1 are binned
    with ``np.bincount`` on the code itself, at most twice its size; other
    codes are sorted and counted run by run from one bool array of run
    edges or, with per-row weights, binned through ``np.unique``.  Every
    path gives the bins in ascending code order, with integer counts or
    with the probabilities summed in row order, so the result is the same
    bit for bit, and counting a row m times gives the float of repeating it
    m times.
    """
    if isinstance(weights, np.ndarray):
        if not _is_dense(code):
            _, code = np.unique(code, return_inverse=True)
        counts = np.bincount(code, weights=weights)
        counts = counts[counts > 0]
        if weights.dtype.kind == "f":
            return float(-_xlogx_sum(counts))
        return _count_entropy(counts, int(weights.sum()))
    if _is_dense(code):
        counts = np.bincount(code)
        counts = counts[counts > 0]
    else:
        if not code.flags.writeable:
            code = code.copy()
        code.sort()
        counts = np.diff(_run_starts(code))
    m = weights or 1
    if m != 1:
        counts *= m
    return _count_entropy(counts, code.size * m)


def _is_dense(code: np.ndarray) -> bool:
    return code.size > 0 and code.min() >= 0 and code.max() < 2 * code.size


def _xlogx_sum(counts: np.ndarray) -> float:
    """sum(c * log2(c)), the products taken in place in one float array."""
    terms = np.log2(counts)
    terms *= counts
    return terms.sum()


def _count_entropy(counts: np.ndarray, rows: int) -> float:
    n = float(rows)
    return float(np.log2(n) - _xlogx_sum(counts) / n)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``values`` starts, then ``values.size``."""
    edge = np.ones(values.size + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


class SupportTable:
    """One enumerated support, as its distinct (x, y) pairs and its rows.

    ``x`` and ``y`` hold the word codes of each pair and ``runs`` its number
    of rows; the rows of each pair are one run, the runs in pair order.
    ``z`` holds one Z code per row, strictly ascending within each run, kept
    as int32.  ``probs`` is one probability per row or one for every row.
    When every row has the same probability the table keeps only that value,
    ``p``, and ``weights`` is None, so that entropies come from integer
    counts; otherwise ``weights`` holds the row probabilities.  A set reads
    a prefix of the ``z_width``-bit Z code, column 0 most significant.

    Raises ``CapacityError`` when ``z_width`` passes the 31 bits of an int32
    (the memory budget keeps a binary Z code below 27 bits unless the law
    has one nonzero cell), and ``InternalConsistencyError`` when the runs do not
    cover the rows, a run's Z codes do not ascend, or a Z code does not fit
    ``z_width`` bits.
    """

    def __init__(self, x, y, runs, z, probs, z_width: int):
        if z_width > 31:
            raise CapacityError(f"a {z_width}-bit Z code does not fit int32")
        if z.size and (z.min() < 0 or int(z.max()) >> z_width):
            raise InternalConsistencyError(f"a Z code does not fit {z_width} bits")
        z = z.astype(np.int32, copy=False)
        if int(runs.sum()) != z.size or (runs < 1).any():
            raise InternalConsistencyError(f"runs of {int(runs.sum())} rows cover {z.size} rows")
        rising = np.less(z[:-1], z[1:])
        last = np.cumsum(runs[:-1])
        last -= 1
        rising[last] = True  # a pair's last row against the next pair's first
        if not rising.all():
            raise InternalConsistencyError("the Z codes of a pair's run do not ascend")
        del rising, last
        self.x, self.y, self.runs, self.z = x, y, runs, z
        if np.ndim(probs) and (probs != probs[0]).any():
            self.p, self.weights = None, probs
        else:
            self.p, self.weights = float(np.ravel(probs)[0]), None
        for arr in (x, y, runs, z, self.weights):
            if arr is not None:
                arr.flags.writeable = False
        self.z_width = z_width
        self.pairs, self.rows = x.size, z.size
        # Rows per pair when every pair spans the same number of rows.
        self._run = int(runs[0]) if bool((runs == runs[0]).all()) else None

    def entropy(
        self,
        head: Sequence[tuple[np.ndarray, int]],
        mu: int = 0,
        tail: Sequence[tuple[np.ndarray, int]] = (),
    ) -> float:
        """H of the joint of the pair chunks ``head``, the Z prefix of ``mu``
        columns and the pair chunks ``tail``, in bits.  A chunk is ``(code, width)``
        with one code per pair; the set is packed in that order.

        Under an equal-weight law a set that reads no Z is counted on the
        pairs, each pair's code counted ``runs`` times: the bins, their order
        and their integer counts are those of the rows, and so is the float.
        Every other set is coded over the rows in the table's row buffer."""
        if not mu and self.weights is None:
            code = pack_chunks([*head, *tail], self.pairs)
            return code_entropy(code, self._run or self.runs)
        return code_entropy(self._row_code(head, mu, tail), self.weights)

    def conditional_entropy(self, head, mu: int = 0, tail=()) -> float:
        """H(T | O) in bits, T the last part of the set that ``entropy`` takes (its
        last ``tail`` chunk, else the Z prefix, else its last ``head`` chunk), O
        the rest.  Terms are summed by ``np.cumsum`` in (o, t) order and masses over
        rows in row order; H(O,T) - H(O) or a pairwise sum moves the last place."""
        width = mu if mu and not tail else int((tail or head)[-1][0].max()).bit_length()
        code = self._row_code(head, mu, tail)  # T in the low ``width`` bits
        if self.weights is None:
            code.sort()
            first = _run_starts(code)
            o_first = _run_starts(code[first[:-1]] >> width)
            count, o_count = np.diff(first), np.diff(first[o_first])
            del first
            run = np.cumsum(np.full(int(o_count.max()), self.p))  # m rows: p added m times
            p_joint = run[count - 1]
            del count
            p_obs = run[np.repeat(o_count - 1, np.diff(o_first))]
        else:
            bins, inv = np.unique(code, return_inverse=True)
            o_rank = np.unique(bins >> width, return_inverse=True)[1]
            p_joint = np.bincount(inv, weights=self.weights)
            p_obs = np.bincount(o_rank[inv], weights=self.weights)[o_rank]
        # p_joint * log2(p_joint / p_obs), taken in place: each array is one float per bin.
        np.log2(np.divide(p_joint, p_obs, out=p_obs), out=p_obs)
        p_obs *= p_joint
        # 0.0 - total, not -total: a determined T gives +0.0, never -0.0.
        return 0.0 - float(np.cumsum(p_obs, out=p_obs)[-1])

    @cached_property
    def _buffer(self) -> np.ndarray:
        """Scratch space for one row code, rewritten by every ``_row_code``."""
        return np.empty(self.rows, dtype=np.int64)

    def _row_code(self, head, mu: int, tail) -> np.ndarray:
        """One code per row, ordering rows as the tuples of ``head``, the Z
        prefix of ``mu`` columns and ``tail`` do: a view of the row buffer,
        int32 when the code fits 31 bits, overwritten by the next call.

        The buffer gets the Z prefix by one right shift of the Z code, shifted
        past ``tail``.  ``pack_chunks`` packs ``head``, then ``tail`` in a
        chunk as wide as Z and ``tail``, into one code on the pairs, and alone
        decides when ``head`` is re-ranked.  That code is spread over each
        pair's rows and ORed in: by broadcasting when every pair spans the
        same number of rows, by one ``np.repeat`` otherwise.  The int32 view
        needs room for the Z prefix even when the pair code is narrower."""
        trail = pack_chunks(tail, self.pairs)
        trail_width = int(trail.max()).bit_length()
        gap = mu + trail_width
        code = pack_chunks([*head, (trail, gap)], self.pairs)
        buf = self._buffer
        if max(int(code.max()).bit_length(), gap) <= 31:
            buf = buf.view(np.int32)[: self.rows]
        pair_code = code.astype(buf.dtype, copy=False)
        if self._run:
            rows, spread = buf.reshape(self.pairs, self._run), pair_code[:, None]
        else:
            rows, spread = buf, np.repeat(pair_code, self.runs)
        if not mu:
            rows[...] = spread
            return buf
        np.right_shift(self.z, self.z_width - mu, out=buf)
        if trail_width:
            buf <<= trail_width
        if head or tail:
            rows |= spread
        return buf
