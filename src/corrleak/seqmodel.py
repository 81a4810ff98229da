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
per row; no per-row X or Y code is kept.  A table past the memory budget
is refused before it is built.

``sequence_summary`` builds no table: it takes the seven entropies of the
summary from the model's structure (``sequence_entropies``).  This module
loads numpy only to build a table, and ``info`` only then or to parse an
iid law, so ``region`` on a Hamming model runs without either.

``SequenceModel`` checks its fields, naming each as its scenario field
(``model.K``, ``model.d_xy``, ...), so ``build_model`` only parses JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import fsum, log2
from typing import TYPE_CHECKING, Optional

from .errors import CapacityError, ValidationError, check_budget, int_field

if TYPE_CHECKING:
    from .info import JointPmf, SupportTable

#: Binomial terms times K that the structural summary of a Hamming model may
#: take, each term an operation on integers of up to 2K bits: seconds at most.
STRUCTURE_BUDGET = 1 << 32


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
            raise ValidationError(f"model.kind: unknown kind {self.kind!r}")
        if self.K < 1:
            raise ValidationError(f"model.K: must be >= 1, got {self.K}")
        if self.kind == "iid":
            if self.base is None:
                raise ValidationError("model.pmf: required for iid models")
            return
        for field, d in (("d_xy", self.d_xy_max), ("d_yz", self.d_yz_max)):
            if not 0 <= d <= self.K:
                raise ValidationError(f"model.{field}: must lie in 0..{self.K}, got {d}")

    @property
    def alphabet_sizes(self) -> tuple[int, int, int]:
        if self.kind == "hamming":
            return (2, 2, 2)
        return self.base.alphabet_sizes  # type: ignore[union-attr]

    @property
    def is_binary(self) -> bool:
        return max(self.alphabet_sizes) <= 2

    def support_size(self) -> int:
        """Number of support rows: (nonzero cells of the law)**K for an iid
        model; 2**K times the sizes of the x and z balls around y otherwise."""
        if self.kind == "iid":
            return self.base.nonzero_cells**self.K  # type: ignore[union-attr]
        balls = ball_volume(self.K, self.d_xy_max) * ball_volume(self.K, self.d_yz_max)
        return (1 << self.K) * balls

    @cached_property
    def table(self) -> SupportTable:
        """The one support table every entropy of the model is taken over,
        built straight as pairs and per-row Z codes.  Rows are in (y, x, z)
        order, so the rows of each (x, y) pair form one run, with Z
        ascending.  A binary Z code has K bit columns.  Raises ``CapacityError``
        before building when its rows at 64 bytes each (commands peak at 47 to
        66) pass the memory budget, or an (x, y) pair code passes 62 bits."""
        from .info import PACK_LIMIT_BITS, SupportTable

        if self.kind == "hamming":
            # Every Hamming support holds at least 2**K rows: refuse on that
            # first, naming 2**K rather than the product of the balls.
            check_budget(64 << self.K, f"a support of at least 2**{self.K} rows")
        rows = self.support_size()
        check_budget(64 * rows, f"a support of at least 2**{rows.bit_length() - 1} rows")
        wx, wy, wz = ((n**self.K - 1).bit_length() for n in self.alphabet_sizes)
        if wx + wy > PACK_LIMIT_BITS:
            raise CapacityError(f"{wx}-bit X and {wy}-bit Y words pass {PACK_LIMIT_BITS} bits")
        z_width = max(wz, self.K)
        build = self._hamming_pairs if self.kind == "hamming" else self._iid_pairs
        return SupportTable(*build(), z_width)

    def _hamming_pairs(self):
        """Each y's x and z words are y XOR the offsets of weight <= d,
        sorted per y: y's pairs take its x words, and every pair's run is
        y's z words.  One probability stands for every row."""
        import numpy as np

        ys = np.arange(1 << self.K, dtype=np.int64)
        weight = np.bitwise_count(ys)
        x_ball = np.sort(ys[:, None] ^ ys[weight <= self.d_xy_max], axis=1)
        z_ball = np.sort(ys[:, None] ^ ys[weight <= self.d_yz_max], axis=1).astype(np.int32)
        bx, bz = x_ball.shape[1], z_ball.shape[1]
        z = np.broadcast_to(z_ball[:, None, :], (ys.size, bx, bz)).ravel()
        runs = np.full(ys.size * bx, bz)
        return x_ball.ravel(), np.repeat(ys, bx), runs, z, 1.0 / self.support_size()

    def _iid_pairs(self):
        """One row per K-tuple of the law's nonzero cells, their symbols the
        digits of its words, its probability their product taken left to
        right.  One lexsort puts the rows in (y, x, z) order; reordering one
        array at a time keeps the build's peak at about 44 bytes a row."""
        import numpy as np

        from .info import ZERO_EPS

        nx, ny, nz = self.alphabet_sizes
        cell = np.transpose(self.base.probs, (1, 0, 2))  # type: ignore[union-attr]
        symbols = np.argwhere(cell > ZERO_EPS)  # (y, x, z) of each nonzero cell
        cell_p = cell[tuple(symbols.T)]
        (y, x, z), p = symbols.T, cell_p
        for _ in range(self.K - 1):
            # Each row takes one more cell, its symbols the words' last digits.
            y, x, z = (
                (w[:, None] * n + c).ravel() for w, n, c in zip((y, x, z), (ny, nx, nz), symbols.T)
            )
            p = (p[:, None] * cell_p).ravel()
        order = np.lexsort((z, x, y))
        z = z.astype(np.int32)
        y = y[order]
        x = x[order]
        z = z[order]
        p = p[order]
        edge = np.ones(y.size + 1, dtype=bool)
        edge[1:-1] = (y[1:] != y[:-1]) | (x[1:] != x[:-1])
        first = np.flatnonzero(edge)  # where each pair's run starts, then the row count
        return x[first[:-1]], y[first[:-1]], np.diff(first), z, p


def build_model(spec: dict) -> SequenceModel:
    """Build a model from its JSON description.

    Schemas: ``{"kind": "hamming", "K": 7, "d_xy": 1, "d_yz": 1}`` or
    ``{"kind": "iid", "K": 3, "pmf": {"alphabets": [...], "probs": [...]}}``.
    """
    if not isinstance(spec, dict):
        raise ValidationError("model spec must be a JSON object")
    kind, K = spec.get("kind"), int_field(spec.get("K", 0), "model.K")
    if kind == "hamming":
        d_xy, d_yz = (int_field(spec.get(f, 1), f"model.{f}") for f in ("d_xy", "d_yz"))
        return SequenceModel(kind=kind, K=K, d_xy_max=d_xy, d_yz_max=d_yz)
    base = None
    if "pmf" in spec:
        from .info import JointPmf

        try:
            base = JointPmf.from_json(spec["pmf"])
        except ValidationError as exc:
            raise ValidationError(f"model.pmf: {exc}") from exc
    return SequenceModel(kind=kind, K=K, base=base)


def ball_volume(K: int, d: int) -> int:
    """V(K, d), the number of K-bit words of weight at most ``d``, each
    binomial C(K, i) taken from the one before it."""
    total = term = 1
    for i in range(min(d, K)):
        term = term * (K - i) // (i + 1)
        total += term
    return total


def _xor_entropy(K: int, a: int, b: int) -> float:
    """H(e1 XOR e2) in bits, for independent e1 and e2 uniform on the K-bit
    balls of radii ``a`` and ``b`` (MacWilliams & Sloane, 1977, ch. 1 and 5).

    The law of v = e1 XOR e2 depends on its weight w alone.  An e1 with i
    ones on v's support and j off it gives an e2 with w - i on and j off,
    so c_w, the sum of C(w, i) C(K - w, j) over i + j <= a and
    w - i + j <= b, counts the pairs that give one v of weight w.  The
    radii are symmetric, so let b be the smaller: w - i and j then take at
    most b + 1 values each, and the sum over j is a prefix sum.  Each of the
    C(K, w) words of weight w has probability c_w / N, N = V(K, a) V(K, b).
    Masses are ratios of integers and logs are taken of integers, so no
    large K overflows a float."""
    a, b = max(a, b), min(a, b)
    n = ball_volume(K, a) * ball_volume(K, b)
    log_n = log2(n)
    terms = []
    words = 1  # C(K, w)
    for w in range(min(K, a + b) + 1):
        prefix, off = [], 1  # prefix[j]: C(K - w, j') summed over j' <= j
        for j in range(b + 1):
            prefix.append(off + (prefix[-1] if prefix else 0))
            off = off * (K - w - j) // (j + 1)
        count, on = 0, 1  # on: C(w, k) for e2's k = w - i ones on v's support
        for k in range(min(w, b) + 1):
            j_max = min(a - w + k, b - k)
            if j_max >= 0:
                count += on * prefix[j_max]
            on = on * (w - k) // (k + 1)
        if count:
            terms.append(words * count / n * (log_n - log2(count)))
        words = words * (K - w) // (w + 1)
    return fsum(terms)


def sequence_entropies(model: SequenceModel) -> tuple[float, ...]:
    """H(X), H(Y), H(Z), H(X,Y), H(X,Z), H(Y,Z) and H(X,Y,Z) of the length-K
    sequences, in bits, from the model's structure; no table is built.

    * iid: K times the entropy of each per-symbol marginal, the symbols
      being independent (Cover & Thomas, *Elements of Information Theory*,
      2nd ed., 2006, section 2.5).  Cells of at most ``ZERO_EPS`` count as
      zeros, as in the table.
    * Hamming: Y is uniform, X = Y XOR e1 and Z = Y XOR e2 for independent
      e1 and e2 uniform on the balls of radii d_xy and d_yz.  So H(X) =
      H(Y) = H(Z) = K, H(X,Y) = K + log2 V(K, d_xy), H(Y,Z) = K +
      log2 V(K, d_yz), H(X,Y,Z) = K + both logs and H(X,Z) = K +
      H(e1 XOR e2).  Raises ``CapacityError`` when the sums would take more
      than ``STRUCTURE_BUDGET``.
    """
    K = model.K
    if model.kind == "iid":
        sets = ("x", "y", "z", "xy", "xz", "yz", "xyz")
        return tuple(K * model.base.entropy(v) for v in sets)  # type: ignore[union-attr]
    a, b = model.d_xy_max, model.d_yz_max
    work = (min(K, a + b) + 1) * (min(a, b) + 1) * K
    if work > STRUCTURE_BUDGET:
        raise CapacityError(
            f"H(e1 xor e2) at K={K}, d_xy={a}, d_yz={b} would take at least"
            f" 2**{work.bit_length() - 1} bit operations, over the budget of"
            f" 2**{STRUCTURE_BUDGET.bit_length() - 1}"
        )
    log_a, log_b = log2(ball_volume(K, a)), log2(ball_volume(K, b))
    h = float(K)
    return h, h, h, K + log_a, K + _xor_entropy(K, a, b), K + log_b, K + log_a + log_b


def sequence_summary(model: SequenceModel) -> InfoSummary:
    """Per-symbol information summary of the sequence law, from the seven
    entropies of ``sequence_entropies``.

    Sequence-level entropies are divided by K, so for iid models these agree
    with the base pmf's summary.
    """
    K = model.K
    hx, hy, hz, hxy, hxz, hyz, hxyz = sequence_entropies(model)
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
