"""Dense GF(2) matrix arithmetic: parsing and rank.

Matrices in this domain are tiny (at most ~16x16), so everything is plain
Gaussian elimination with XOR row operations on uint8 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Gf2Matrix:
    """An immutable 0/1 matrix with row-major storage."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValidationError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValidationError("matrix entries must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "cells", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "Gf2Matrix":
        """Parse rows given as '0'/'1' strings, e.g. "1000101"."""
        if not rows:
            raise ValidationError("matrix needs at least one row")
        width = len(rows[0])
        parsed = []
        for r, text in enumerate(rows):
            if len(text) != width:
                raise ValidationError(f"row {r} has length {len(text)}, expected {width}")
            if any(ch not in "01" for ch in text):
                raise ValidationError(f"row {r} contains characters other than 0/1")
            parsed.append([int(ch) for ch in text])
        return cls(np.array(parsed, dtype=np.uint8))

    @property
    def rows(self) -> int:
        return int(self.cells.shape[0])

    @property
    def cols(self) -> int:
        return int(self.cells.shape[1])

    @classmethod
    def from_json(cls, data: dict) -> "Gf2Matrix":
        """Parse ``{"rows": [...]}``, each row a '0'/'1' string."""
        rows = data.get("rows") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
            raise ValidationError(f"expected a list of 0/1 strings, got {rows!r}")
        return cls.from_rows(rows)


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank via Gaussian elimination."""
    work = m.cells.copy()
    n_rows, n_cols = work.shape
    pivot_row = 0
    for col in range(n_cols):
        hit = -1
        for r in range(pivot_row, n_rows):
            if work[r, col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != pivot_row:
            work[[pivot_row, hit]] = work[[hit, pivot_row]]
        for r in range(pivot_row + 1, n_rows):
            if work[r, col]:
                work[r] ^= work[pivot_row]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return pivot_row

