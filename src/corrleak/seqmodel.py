"""Length-K sequence-triple models for (X^K, Y^K, Z^K).

Two model kinds are supported:

* ``iid`` — independent product extension of a per-symbol ``JointPmf``;
* ``hamming`` — uniform over all binary triples with d_H(x, y) <= d_xy_max
  and d_H(y, z) <= d_yz_max.  Uniformity is the maximum-entropy completion
  of the distance constraints and reproduces the usual counting results.

The support is deterministic: rows are in lexicographic (y, x, z) order,
with position 0 as the most significant symbol, so outputs are
reproducible.  Each word is one integer code, its symbols the digits of the
code.  Every pair's rows are adjacent, so ``SequenceModel.table``, the one
``SupportTable`` that every entropy of the package is taken over, is built
straight as the distinct (x, y) pairs with their run lengths and one Z code
per row; no per-row X or Y code is kept.  Exact enumeration is guarded at
``SUPPORT_GUARD`` triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional

import numpy as np

from .errors import CapacityError, ValidationError, int_field
from .info import ZERO_EPS, InfoSummary, JointPmf, SupportTable

#: Exact enumeration refuses supports larger than this many triples.
SUPPORT_GUARD = 1 << 26


@dataclass(frozen=True)
class SequenceModel:
    """Distribution over length-K sequence triples."""

    kind: str  # "iid" | "hamming"
    K: int
    base: Optional[JointPmf] = None
    d_xy_max: int = 1
    d_yz_max: int = 1

    def __post_init__(self):
        if self.kind not in ("iid", "hamming"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.K < 1:
            raise ValidationError(f"K must be >= 1, got {self.K}")
        if self.kind == "iid":
            if self.base is None:
                raise ValidationError("iid model requires a base JointPmf")
        else:
            if not 0 <= self.d_xy_max <= self.K or not 0 <= self.d_yz_max <= self.K:
                raise ValidationError("distance bounds must lie in 0..K")
        size = self.support_size()
        if size > SUPPORT_GUARD:
            # The size may have thousands of digits; name its power of two.
            raise CapacityError(
                f"support of at least 2**{size.bit_length() - 1} triples exceeds the guard "
                f"of 2**{SUPPORT_GUARD.bit_length() - 1}"
            )

    @property
    def alphabet_sizes(self) -> tuple[int, int, int]:
        if self.kind == "hamming":
            return (2, 2, 2)
        return self.base.alphabet_sizes  # type: ignore[union-attr]

    @property
    def is_binary(self) -> bool:
        return max(self.alphabet_sizes) <= 2

    def support_size(self) -> int:
        """Number of enumerated triples (including zero-probability iid cells)."""
        if self.kind == "iid":
            nx, ny, nz = self.alphabet_sizes
            return (nx * ny * nz) ** self.K
        ball_xy = _ball_size(self.K, self.d_xy_max)
        ball_yz = _ball_size(self.K, self.d_yz_max)
        return (1 << self.K) * ball_xy * ball_yz

    @cached_property
    def table(self) -> SupportTable:
        """The one support table every entropy of the model is taken over,
        built straight as pairs and per-row Z codes.  Rows are in (y, x, z)
        order, so the rows of each (x, y) pair form one run, with Z
        ascending.  A binary Z code has K bit columns."""
        _, _, nz = self.alphabet_sizes
        z_width = (max(nz, 2) ** self.K - 1).bit_length()
        build = self._hamming_pairs if self.kind == "hamming" else self._iid_pairs
        return SupportTable(*build(), z_width)

    def _hamming_pairs(self):
        """Each y's x and z words are y XOR the offsets of weight <= d,
        sorted per y: y's pairs take its x words, and every pair's run is
        y's z words.  One probability stands for every row."""
        ys = np.arange(1 << self.K, dtype=np.int64)
        weight = np.bitwise_count(ys)
        x_ball = np.sort(ys[:, None] ^ ys[weight <= self.d_xy_max], axis=1)
        z_ball = np.sort(ys[:, None] ^ ys[weight <= self.d_yz_max], axis=1).astype(np.int32)
        bx, bz = x_ball.shape[1], z_ball.shape[1]
        z = np.broadcast_to(z_ball[:, None, :], (ys.size, bx, bz)).ravel()
        runs = np.full(ys.size * bx, bz)
        return x_ball.ravel(), np.repeat(ys, bx), runs, z, 1.0 / self.support_size()

    def _iid_pairs(self):
        """Row probabilities as an iterated outer product of the per-symbol law:
        each is the product over positions, taken left to right.  Rows are in
        lexicographic (y, x, z) order; a pair's run is its rows of mass above
        ``ZERO_EPS``."""
        K = self.K
        nx, _, nz = self.alphabet_sizes
        cell = np.transpose(self.base.probs, (1, 0, 2))  # type: ignore[union-attr]
        p = cell
        for _ in range(K - 1):
            # Each (y, x, z) word takes one more symbol as its last digit.
            p = (p[:, None, :, None, :, None] * cell[None, :, None, :, None, :]).reshape(
                [a * b for a, b in zip(p.shape, cell.shape)]
            )
        p = p.ravel()
        idx = np.flatnonzero(p > ZERO_EPS)
        probs = p[idx]
        pair, z = np.divmod(idx, nz**K)
        pair, runs = np.unique(pair, return_counts=True)  # pair codes ascend with the rows
        return pair % nx**K, pair // nx**K, runs, z.astype(np.int32), probs


def _ball_size(K: int, d: int) -> int:
    return sum(comb(K, i) for i in range(d + 1))


def build_model(spec: dict) -> SequenceModel:
    """Build a model from its JSON description.

    Schemas: ``{"kind": "hamming", "K": 7, "d_xy": 1, "d_yz": 1}`` or
    ``{"kind": "iid", "K": 3, "pmf": {"alphabets": [...], "probs": [...]}}``.
    """
    if not isinstance(spec, dict):
        raise ValidationError("model spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in ("hamming", "iid"):
        raise ValidationError(f"model.kind: unknown kind {kind!r}")
    K = int_field(spec.get("K", 0), "model.K")
    if K < 1:
        raise ValidationError(f"model.K: must be >= 1, got {K}")
    if kind == "hamming":
        d_xy, d_yz = (int_field(spec.get(f, 1), f"model.{f}") for f in ("d_xy", "d_yz"))
        for f, d in (("d_xy", d_xy), ("d_yz", d_yz)):
            if not 0 <= d <= K:
                raise ValidationError(f"model.{f}: must lie in 0..{K}, got {d}")
        return SequenceModel(kind="hamming", K=K, d_xy_max=d_xy, d_yz_max=d_yz)
    if "pmf" not in spec:
        raise ValidationError("model.pmf: required for iid models")
    try:
        base = JointPmf.from_json(spec["pmf"])
    except ValidationError as exc:
        raise ValidationError(f"model.pmf: {exc}") from exc
    return SequenceModel(kind="iid", K=K, base=base)


def sequence_summary(model: SequenceModel) -> InfoSummary:
    """Per-symbol information summary of the sequence law, by enumeration.

    Sequence-level entropies are divided by K, so for iid models these agree
    with the base pmf's summary.
    """
    t = model.table
    K = model.K
    nx, ny, _ = model.alphabet_sizes
    X, Y = (t.x, (nx**K - 1).bit_length()), (t.y, (ny**K - 1).bit_length())
    Z, H = t.z_width, t.entropy
    hx, hy, hz = H([X]), H([Y]), H([], Z)
    hxy, hxz, hyz, hxyz = H([X, Y]), H([X], Z), H([Y], Z), H([X, Y], Z)
    i_xy = hx + hy - hxy
    i_xy_given_z = hxz + hyz - hxyz - hz
    return InfoSummary(
        h_x=hx / K,
        h_y=hy / K,
        h_z=hz / K,
        h_xy=hxy / K,
        h_x_given_y=(hxy - hy) / K,
        h_y_given_x=(hxy - hx) / K,
        i_xy=i_xy / K,
        i_xz=(hx + hz - hxz) / K,
        i_yz=(hy + hz - hyz) / K,
        i_xyz=(i_xy - i_xy_given_z) / K,
    )
