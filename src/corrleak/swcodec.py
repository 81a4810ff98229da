"""Syndrome codec over a partitioned systematic generator matrix.

Both sources hold length-n binary words.  The generator ``G = [I_k | P^T]``
fixes the parity structure; each source's word is split into labeled
segments.  Source X transmits its ``v1`` segment directly plus the parity
combination ``P1^T a1 + q1``; source Y transmits ``u2`` plus
``P2^T a2 + q2``.  ``P1^T`` / ``P2^T`` are the transposed row blocks of the
parity part of G selected by the ``a1`` / ``a2`` positions.  ``SEGMENTS``
names each side's (info, keyed, parity) segments, and ``PartitionScheme``
alone reads it: the scheme gives every syndrome length and role position.
Each side's segment layout and parity block fold into one generator,
``G_X`` / ``G_Y``, so a syndrome is the matrix product ``x . G_X``
(``y . G_Y``).  ``support_syndromes``, the one encoder, takes word codes
and gives one int64 syndrome code per word, packed like the word codes, and
each of its bits is the parity of the popcount of the word code ANDed with
the packed generator column.

The receiver resolves both words from the two syndromes by exhaustive
search constrained by the correlation model; at this scale exhaustive coset
search is exact and doubles as the reference decoder.

Segment roles ("private" / "common") mark which syndrome parts count as the
private and common information portions when leakage bounds are evaluated;
by default the transmitted-information segments are private and the parity
segments are common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, UsageError, ValidationError, is_bits, is_int
from .info import column_code, pack_chunks
from .seqmodel import SequenceModel

#: Each side's word segments as (info, keyed, parity).  The syndrome is the
#: info segment followed by the parity bits: P^T of the keyed segment plus
#: the parity segment.
SEGMENTS = {"x": ("v1", "a1", "q1"), "y": ("u2", "a2", "q2")}
DEFAULT_ROLES = {"v1": "private", "u2": "private", "q1": "common", "q2": "common"}


@dataclass(frozen=True)
class PartitionScheme:
    """The generator matrix, as its '0'/'1' row strings, plus the segment
    partition that defines both encoders.  Only the scheme reads the rows;
    everything else uses the int masks derived from them."""

    generator: tuple[str, ...]
    x_segments: Mapping[str, tuple[int, ...]]
    y_segments: Mapping[str, tuple[int, ...]]
    segment_roles: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_ROLES))

    def __post_init__(self):
        rows = self.generator
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, str) for r in rows):
            raise ValidationError(
                f"scheme.generator.rows: expected a list of 0/1 strings, got {rows!r}"
            )
        if not rows:
            raise ValidationError("scheme.generator.rows: matrix needs at least one row")
        k, n = len(rows), len(rows[0])
        for r, text in enumerate(rows):
            if len(text) != n:
                raise ValidationError(
                    f"scheme.generator.rows: row {r} has length {len(text)}, expected {n}"
                )
            if not is_bits(text, n):
                raise ValidationError(
                    f"scheme.generator.rows: row {r} contains characters other than 0/1"
                )
        if n <= k:
            raise ValidationError(
                f"scheme.generator.rows: generator must be wider than tall, got {k}x{n}"
            )
        if any(row[:k] != "0" * i + "1" + "0" * (k - 1 - i) for i, row in enumerate(rows)):
            raise ValidationError(
                "scheme.generator.rows: generator must start with an identity block"
            )
        object.__setattr__(self, "generator", tuple(rows))
        object.__setattr__(self, "x_segments", {s: tuple(v) for s, v in self.x_segments.items()})
        object.__setattr__(self, "y_segments", {s: tuple(v) for s, v in self.y_segments.items()})
        object.__setattr__(self, "segment_roles", dict(self.segment_roles))
        for side in SEGMENTS:
            self._check_segments(side, k, n)
        for name, role in self.segment_roles.items():
            if name not in DEFAULT_ROLES:
                raise ValidationError(f"scheme.segment_roles.{name}: unknown segment {name!r}")
            if role not in ("private", "common"):
                raise ValidationError(
                    f"scheme.segment_roles.{name}: segment role must be private/common,"
                    f" got {role!r}"
                )

    def _check_segments(self, side: str, k: int, n: int) -> None:
        field, names = f"scheme.{side}_segments", SEGMENTS[side]
        segs = self.x_segments if side == "x" else self.y_segments
        if set(segs) != set(names):
            raise ValidationError(
                f"{field}: segments must be exactly {sorted(names)}, got {sorted(segs)}"
            )
        for name, positions in segs.items():
            if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in positions):
                raise ValidationError(
                    f"{field}.{name}: positions must be integers, got {list(positions)!r}"
                )
        if sorted(p for v in segs.values() for p in v) != list(range(n)):
            raise ValidationError(f"{field}: segments must partition positions 0..n-1")
        if sorted(segs[names[2]]) != list(range(k, n)):
            raise ValidationError(
                f"{field}.{names[2]}: {names[2]} must cover the parity positions {k}..{n - 1}"
            )

    def _segments(self, side: str) -> tuple[tuple[int, ...], ...]:
        """The (info, keyed, parity) positions of one side's word."""
        segs = self.x_segments if side == "x" else self.y_segments
        return tuple(segs[name] for name in SEGMENTS[side])

    # -- derived dimensions -------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def n(self) -> int:
        return len(self.generator[0])

    @property
    def parity_len(self) -> int:
        return self.n - self.k

    def info_len(self, side: str) -> int:
        return len(self._segments(side)[0])

    def syndrome_len(self, side: str) -> int:
        return self.info_len(side) + self.parity_len

    # -- derived masks ------------------------------------------------------

    @cached_property
    def parity_columns(self) -> tuple[int, ...]:
        """Column j of the parity block P^T as a k-bit mask, row 0 most significant."""
        return tuple(
            int("".join(row[self.k + j] for row in self.generator), 2)
            for j in range(self.parity_len)
        )

    def _encoder_columns(self, side: str) -> tuple[int, ...]:
        # Each syndrome bit reads one info position, or one parity position
        # plus the keyed positions that the parity column's P^T bits select.
        info, keyed, _ = self._segments(side)
        n, k = self.n, self.k
        keyed_mask = sum(1 << n - 1 - p for p in keyed)
        return tuple(1 << n - 1 - p for p in info) + tuple(
            column << n - k & keyed_mask | 1 << n - 1 - k - j
            for j, column in enumerate(self.parity_columns)
        )

    @cached_property
    def g_x(self) -> tuple[int, ...]:
        """The columns of G_X, which maps a source word x to its syndrome
        T_X = x . G_X, as n-bit masks packed like word codes."""
        return self._encoder_columns("x")

    @cached_property
    def g_y(self) -> tuple[int, ...]:
        """The columns of G_Y (T_Y = y . G_Y), packed as ``g_x`` is."""
        return self._encoder_columns("y")

    def role_positions(self, side: str, role: str) -> list[int]:
        """Syndrome bit positions of T_X ('x') or T_Y ('y') whose segment has
        ``role``: the info segment's bits, then the parity segment's; a
        segment with no role given is private."""
        info, _, parity = SEGMENTS[side]
        n = self.info_len(side)
        return [
            i for i in range(self.syndrome_len(side))
            if self.segment_roles.get(info if i < n else parity, "private") == role
        ]

    @classmethod
    def from_json(cls, data: dict) -> "PartitionScheme":
        try:
            generator = data["generator"]
            rows = generator.get("rows") if isinstance(generator, dict) else None
            x_segments, y_segments = data["x_segments"], data["y_segments"]
            roles = data.get("segment_roles", DEFAULT_ROLES)
            for name, value in [
                ("x_segments", x_segments), ("y_segments", y_segments), ("segment_roles", roles)
            ]:
                if not isinstance(value, dict):
                    raise ValidationError(f"scheme.{name}: expected an object, got {value!r}")
            for name, segs in (("x_segments", x_segments), ("y_segments", y_segments)):
                for seg, positions in segs.items():
                    if not isinstance(positions, list):
                        raise ValidationError(
                            f"scheme.{name}.{seg}: expected a list of positions, got {positions!r}"
                        )
            return cls(rows, x_segments, y_segments, roles)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad scheme JSON: {exc}") from exc


def reference_scheme() -> PartitionScheme:
    """The bundled rate-5/7 worked example: a [7,4] systematic code with
    two-bit keyed/transmitted splits on each source."""
    return PartitionScheme(
        generator=("1000101", "0100110", "0010111", "0001011"),
        x_segments={"a1": (0, 1), "v1": (2, 3), "q1": (4, 5, 6)},
        y_segments={"u2": (0, 1), "a2": (2, 3), "q2": (4, 5, 6)},
    )


# -- encoding ----------------------------------------------------------------


def support_syndromes(
    s: PartitionScheme, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """T_X and T_Y of every pair of word codes ``x``, ``y`` (the n bits of a
    word, position 0 most significant), as one int64 code per pair and side,
    syndrome bit 0 most significant, so that ``info.column_code`` selects its
    segments.  Bit j is the parity of the popcount of the word code ANDed
    with column j of the generator, packed as the word is.  Raises
    ``UsageError`` for a code outside 0..2**n-1, and ``CapacityError`` when
    an n-bit word does not fit an int64 code."""
    if s.n > 63:
        raise CapacityError(f"a {s.n}-bit word does not fit an int64 word code")
    out = []
    for code, columns in ((x, s.g_x), (y, s.g_y)):
        if code.ndim != 1 or code.size and (code.min() < 0 or code.max() >> s.n):
            raise UsageError(f"word codes must be one array of integers in 0..2**{s.n}-1")
        syndrome = np.zeros(code.size, dtype=np.int64)
        for column in columns:
            syndrome <<= 1
            syndrome |= np.bitwise_count(code & column) & 1
        out.append(syndrome)
    return out[0], out[1]


def syndrome_portions(
    s: PartitionScheme, x: np.ndarray, y: np.ndarray
) -> dict[str, tuple[np.ndarray, int]]:
    """The four channel portions of every pair of word codes ``x``, ``y`` as
    ``(code, width)`` chunks, in codeword order: ``x1`` and ``cx``, the
    private and common role positions of T_X, then ``y1`` and ``cy``, those
    of T_Y, each read as one integer, its first position most significant."""
    tx, ty = support_syndromes(s, x, y)
    portions = {}
    for side, t in (("x", tx), ("y", ty)):
        for name, role in ((f"{side}1", "private"), (f"c{side}", "common")):
            cols = s.role_positions(side, role)
            portions[name] = (column_code(t, s.syndrome_len(side), cols), len(cols))
    return portions


def xor_basis(masks: Iterable[int]) -> list[int]:
    """A basis of the GF(2) span of the int ``masks``, one vector per leading
    bit in descending order: each mask is reduced by the basis so far and
    kept when anything is left, so the basis length is the masks' rank."""
    basis: list[int] = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def require_code_model(s: PartitionScheme, model: SequenceModel, what: str) -> None:
    """Raise ``UsageError`` naming the field unless the model is binary with K = n."""
    if not model.is_binary:
        raise UsageError(
            f"model.pmf.alphabets: {what} needs a binary law, got {list(model.alphabet_sizes)}"
        )
    if model.K != s.n:
        raise UsageError(
            f"model.K: {what} needs K equal to the code length n={s.n} of scheme.generator,"
            f" got K={model.K}"
        )


# -- decoding ----------------------------------------------------------------


def joint_decode(
    tx: int, ty: int, model: SequenceModel, s: PartitionScheme
) -> list[tuple[int, int]]:
    """Every pair of the model's support whose syndrome codes are ``tx`` and
    ``ty``, as (x, y) word codes in ascending order: one pair when the
    syndromes decode uniquely, several when they are ambiguous and none when
    they are inconsistent.

    The syndromes are functions of the (x, y) pair, so they are matched on
    the distinct pairs of the support table only.  Raises ``UsageError``
    unless each syndrome is an integer code (a bool is refused) in
    0..2**syndrome_len-1.
    """
    require_code_model(s, model, "decode")
    for t, side in ((tx, "x"), (ty, "y")):
        length = s.syndrome_len(side)
        if not is_int(t) or not 0 <= t < 1 << length:
            raise UsageError(f"t_{side} must be a code in 0..2**{length}-1, got {t!r}")
    x, y = model.table.x, model.table.y
    TX, TY = support_syndromes(s, x, y)
    hit = (TX == tx) & (TY == ty)
    return sorted(set(zip(x[hit].tolist(), y[hit].tolist())))


def decode_ambiguity_rate(s: PartitionScheme, model: SequenceModel) -> float:
    """Probability mass of source pairs whose syndrome pair does not decode
    uniquely, clamped to 1 (an iid law's float row probabilities may sum
    past 1).  The pair masses are the table's classes with no Z prefix, in
    (x, y) order, and the ambiguous ones are summed in that order."""
    require_code_model(s, model, "decode")
    x, y, _, mass = model.table.prefix_classes(0)
    tx, ty = support_syndromes(s, x, y)
    syndromes = pack_chunks([(tx, s.syndrome_len("x")), (ty, s.syndrome_len("y"))], x.size)
    _, group, size = np.unique(syndromes, return_inverse=True, return_counts=True)
    return min(1.0, float(mass[size[group] > 1].sum()))


# -- prototype-code condition report ------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    """One evaluated inequality: lhs <= rhs up to the asymptotic slack.

    ``gap`` is rhs - lhs; no verdict is attached because the slack is an
    asymptotic quantity that has no fixed desk-scale value.
    """

    label: str
    lhs_name: str
    lhs_bits: float
    rhs_name: str
    rhs_bits: float

    @property
    def gap(self) -> float:
        return self.rhs_bits - self.lhs_bits


def prototype_condition_report(s: PartitionScheme, model: SequenceModel) -> list[ConditionRow]:
    """Evaluate every prototype-code condition exactly and report signed gaps.

    Rates are per symbol; the private/common channel portions are read off
    the role-designated syndrome segments of the bundled partition.
    """
    require_code_model(s, model, "the condition report")
    K = model.K
    t = model.table
    # The channel portions, selected on the pairs as chunks of the table.
    w_x, w_cx, w_y, w_cy = syndrome_portions(s, t.x, t.y).values()

    def h(*chunks: tuple[np.ndarray, int], mu: int = 0) -> float:
        return t.entropy(chunks, mu) / K

    X, Y = (t.x, K), (t.y, K)
    h_x, h_y, h_z, h_xy = h(X), h(Y), h(mu=K), h(X, Y)
    h_x_given_yz = t.conditional_entropy([Y], K, [X]) / K
    h_y_given_xz = t.conditional_entropy([X], K, [Y]) / K
    h_y_given_x = t.conditional_entropy([X], 0, [Y]) / K
    i_xy = h_x + h_y - h_xy

    h_wx, h_wy, h_wcx, h_wcy = h(w_x), h(w_y), h(w_cx), h(w_cy)
    log_mx = w_x[1] / K
    log_my = w_y[1] / K

    rows = [
        ConditionRow(
            "decode_error", "pr(decode wrong)", decode_ambiguity_rate(s, model),
            "asymptotic target", 0.0,
        ),
        ConditionRow("x_private_rate:lower", "h(x|y,z)", h_x_given_yz, "h(w_x)/k", h_wx),
        ConditionRow("x_private_rate:middle", "h(w_x)/k", h_wx, "log2(m_x)/k", log_mx),
        ConditionRow("x_private_rate:upper", "log2(m_x)/k", log_mx, "h(x|y,z)", h_x_given_yz),
        ConditionRow("y_private_rate:lower", "h(y|x,z)", h_y_given_xz, "h(w_y)/k", h_wy),
        ConditionRow("y_private_rate:middle", "h(w_y)/k", h_wy, "log2(m_y)/k", log_my),
        ConditionRow("y_private_rate:upper", "log2(m_y)/k", log_my, "h(y|x)", h_y_given_x),
        ConditionRow(
            "common_rate:lower", "i(x;y)", i_xy, "(h(w_cx)+h(w_cy))/k", h_wcx + h_wcy
        ),
        ConditionRow(
            "common_rate:upper", "(h(w_cx)+h(w_cy))/k", h_wcx + h_wcy, "i(x;y)", i_xy
        ),
        ConditionRow(
            "x_unc_given_y_private", "h(x)", h_x,
            "h(x^k|v_y)/k", t.conditional_entropy([w_y], 0, [X]) / K,
        ),
        ConditionRow(
            "y_unc_given_x_private", "h(y)", h_y,
            "h(y^k|v_x)/k", t.conditional_entropy([w_x], 0, [Y]) / K,
        ),
        ConditionRow(
            "joint_rate_sum:lower", "h(x,y)", h_xy,
            "(h(w_x)+h(w_cx)+h(w_y)+h(w_cy))/k", h_wx + h_wcx + h_wy + h_wcy,
        ),
        ConditionRow(
            "joint_rate_sum:upper", "(h(w_x)+h(w_cx)+h(w_y)+h(w_cy))/k",
            h_wx + h_wcx + h_wy + h_wcy, "h(x,y)", h_xy,
        ),
        ConditionRow(
            "z_unc_given_y_private", "h(z)", h_z,
            "h(z^k|v_y)/k", t.conditional_entropy([w_y], K) / K,
        ),
    ]
    return rows
