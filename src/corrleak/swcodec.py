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
(``y . G_Y``).  Each bit of a syndrome is the parity of the popcount of
the word code ANDed with the packed generator column: ``support_syndromes``
encodes arrays of word codes into int64 syndrome codes, packed like the
word codes, and ``word_syndrome`` one int word into an int.

The receiver resolves both words from the two syndromes by an exact search
of their syndrome cosets (``syndrome_coset``), constrained by the
correlation model; it builds no support table and, on a Hamming model,
loads no numpy.

Segment roles ("private" / "common") mark which syndrome parts count as the
private and common information portions when leakage bounds are evaluated;
by default the transmitted-information segments are private and the parity
segments are common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    CapacityError,
    InternalConsistencyError,
    UsageError,
    ValidationError,
    check_work,
    is_bits,
    is_int,
)
from .seqmodel import SequenceModel, ball_volume, sequence_entropies

if TYPE_CHECKING:
    import numpy as np

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
            if not all(is_int(p) for p in positions):
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
    def row_masks(self) -> tuple[int, ...]:
        """Row i of G = [I_k | P^T] as an n-bit mask packed like word codes:
        position i and the parity positions of P^T's row i."""
        return tuple(int(row, 2) for row in self.generator)

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
    import numpy as np

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


def word_syndrome(s: PartitionScheme, side: str, word: int) -> int:
    """T_X (``side`` 'x') or T_Y ('y') of one word code in 0..2**n-1, packed
    as ``support_syndromes`` packs it: bit j is the parity of the popcount
    of the word ANDed with column j of G_X (G_Y)."""
    t = 0
    for column in s.g_x if side == "x" else s.g_y:
        t = t << 1 | (word & column).bit_count() & 1
    return t


def syndrome_coset(
    s: PartitionScheme, side: str, t: int, zeros: int = 0, ones: int = 0
) -> list[int]:
    """Every word code whose syndrome on ``side`` is ``t`` and whose keyed
    bits are 0 at the positions of the word mask ``zeros`` and 1 at those of
    ``ones``: 2**|keyed| words when neither mask holds a keyed position.
    The syndrome fixes the info segment and leaves the keyed one free; its
    parity bits are the parity segment XOR P^T of the keyed bits alone.  So
    the coset is the word with t's info bits, no keyed bits and t's parity
    bits, XOR every sum of the generator rows of the keyed positions, each
    row a word of syndrome 0 on this side whose one keyed bit is its own."""
    info, keyed, _ = s._segments(side)
    length, n = s.syndrome_len(side), s.n
    word = t & (1 << s.parity_len) - 1
    for i, p in enumerate(info):
        word |= (t >> length - 1 - i & 1) << n - 1 - p
    coset = [word]
    for p in keyed:
        row, bit = s.row_masks[p], 1 << n - 1 - p
        if ones & bit:
            coset = [w ^ row for w in coset]
        elif not zeros & bit:
            coset += [w ^ row for w in coset]
    return coset


def syndrome_portions(
    s: PartitionScheme, x: np.ndarray, y: np.ndarray
) -> dict[str, tuple[np.ndarray, int]]:
    """The four channel portions of every pair of word codes ``x``, ``y`` as
    ``(code, width)`` chunks, in codeword order: ``x1`` and ``cx``, the
    private and common role positions of T_X, then ``y1`` and ``cy``, those
    of T_Y, each read as one integer, its first position most significant."""
    from .info import column_code

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

    The pairs are searched in the syndrome cosets, and no table is built.
    On a Hamming model x = y XOR e with wt(e) <= d_xy, and T_X is linear, so
    the ball's offsets are bucketed by their X syndrome and each y of T_Y's
    coset takes the bucket of ``tx ^ T_X(y)``.  On an iid law each y of
    T_Y's coset takes the words of T_X's coset whose every (x_i, y_i) cell
    has a Z cell above ``ZERO_EPS``, the table's rule; the keyed bits that
    the empty cells force, y's and then x's given y, are fixed before each
    coset is spanned.  Raises ``UsageError`` unless each syndrome is an
    integer code (a bool is refused) in 0..2**syndrome_len-1.  Before it
    starts, the search is charged to the work budget (``errors.check_work``)
    at 64 steps for each word it may take, a bound on its steps and on its
    candidates alike, so it refuses past 2**26 words.
    """
    require_code_model(s, model, "decode")
    for t, side in ((tx, "x"), (ty, "y")):
        length = s.syndrome_len(side)
        if not is_int(t) or not 0 <= t < 1 << length:
            raise UsageError(f"t_{side} must be a code in 0..2**{length}-1, got {t!r}")
    tx, ty = int(tx), int(ty)
    if model.kind == "hamming":
        # Each y of T_Y's coset takes at most the whole ball, so the steps and
        # the candidates are both at most |coset_y| * V(n, d_xy).
        check_work(64 * _coset_size(s, "y") * ball_volume(s.n, model.d_xy_max), "decoding searches")
        buckets: dict[int, list[int]] = {}
        for w in range(model.d_xy_max + 1):
            for ones in combinations(range(s.n), w):
                e = sum(1 << p for p in ones)
                buckets.setdefault(word_syndrome(s, "x", e), []).append(e)
        return sorted(
            (y ^ e, y)
            for y in syndrome_coset(s, "y", ty)
            for e in buckets.get(tx ^ word_syndrome(s, "x", y), ())
        )
    from .info import ZERO_EPS

    probs = model.base.probs  # type: ignore[union-attr]
    nx, ny, _ = model.alphabet_sizes
    # The (x_i, y_i) cells of no support row, symbol 1 of a size-1 alphabet among them.
    empty = {
        (a, b) for a in (0, 1) for b in (0, 1)
        if a >= nx or b >= ny or not (probs[a, b] > ZERO_EPS).any()
    }
    full = (1 << s.n) - 1
    # y_i is never b where neither (0, b) nor (1, b) is a cell; likewise x_i and a.
    y_zeros = full if {(0, 1), (1, 1)} <= empty else 0
    y_ones = full if {(0, 0), (1, 0)} <= empty else 0
    x_fixed = {(1, 0), (1, 1)} <= empty or {(0, 0), (0, 1)} <= empty
    size_y = 1 if y_zeros | y_ones else _coset_size(s, "y")
    size_x = 1 if x_fixed else _coset_size(s, "x")
    # Each y takes at most all of T_X's coset, and over all of F2^n the
    # words its cells allow are the support's (4 - |empty|)**n pairs.
    check_work(64 * (size_y + min(size_x * size_y, (4 - len(empty)) ** s.n)), "decoding searches")
    pairs = []
    for y in syndrome_coset(s, "y", ty, y_zeros, y_ones):
        if y & (y_zeros | y_ones) != y_ones:
            continue
        at = (~y & full, y)  # the positions where y_i is 0, and where it is 1
        zeros = ones = 0  # the positions where x_i must be 0, and must be 1
        for a, b in empty:
            if a:
                zeros |= at[b]
            else:
                ones |= at[b]
        if not zeros & ones:
            coset_x = syndrome_coset(s, "x", tx, zeros, ones)
            pairs += [(x, y) for x in coset_x if x & (zeros | ones) == ones]
    return sorted(pairs)


def _coset_size(s: PartitionScheme, side: str) -> int:
    """2**|keyed|, the words of one syndrome's coset on ``side``."""
    return 1 << len(s._segments(side)[1])


def decode_ambiguity_rate(s: PartitionScheme, model: SequenceModel) -> float:
    """Probability mass of source pairs whose syndrome pair does not decode
    uniquely.  The table's pairs are grouped by their packed syndrome pair,
    and ``SupportTable.mass`` takes the mass of the ambiguous ones.  Raises
    ``InternalConsistencyError`` when an (x, y) pair spans two runs of rows,
    since that pair would share its syndrome pair with itself."""
    import numpy as np

    from .info import pack_chunks

    require_code_model(s, model, "decode")
    t, K = model.table, model.K
    if np.unique(pack_chunks([(t.x, K), (t.y, K)], t.pairs)).size < t.pairs:
        raise InternalConsistencyError("an (x, y) pair spans two runs of rows")
    tx, ty = support_syndromes(s, t.x, t.y)
    syndromes = pack_chunks([(tx, s.syndrome_len("x")), (ty, s.syndrome_len("y"))], t.pairs)
    _, group, size = np.unique(syndromes, return_inverse=True, return_counts=True)
    return t.mass(size[group] > 1)


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
    the role-designated syndrome segments of the bundled partition.  The
    source law's own entropies come from ``sequence_entropies``; the table
    answers only what depends on the code.
    """
    require_code_model(s, model, "the condition report")
    K = model.K
    hx, hy, hz, hxy, hxz, hyz, hxyz = sequence_entropies(model)
    h_x, h_y, h_z, h_xy = hx / K, hy / K, hz / K, hxy / K
    i_xy = (hx + hy - hxy) / K
    t = model.table
    # The channel portions, selected on the pairs as chunks of the table.
    w_x, w_cx, w_y, w_cy = syndrome_portions(s, t.x, t.y).values()
    h_wx, h_wy, h_wcx, h_wcy = (t.entropy([w]) / K for w in (w_x, w_y, w_cx, w_cy))
    log_mx = w_x[1] / K
    log_my = w_y[1] / K

    rows = [
        ConditionRow(
            "decode_error", "pr(decode wrong)", decode_ambiguity_rate(s, model),
            "asymptotic target", 0.0,
        ),
        ConditionRow("x_private_rate:lower", "h(x|y,z)", (hxyz - hyz) / K, "h(w_x)/k", h_wx),
        ConditionRow("x_private_rate:middle", "h(w_x)/k", h_wx, "log2(m_x)/k", log_mx),
        ConditionRow("x_private_rate:upper", "log2(m_x)/k", log_mx, "h(x|y,z)", (hxyz - hyz) / K),
        ConditionRow("y_private_rate:lower", "h(y|x,z)", (hxyz - hxz) / K, "h(w_y)/k", h_wy),
        ConditionRow("y_private_rate:middle", "h(w_y)/k", h_wy, "log2(m_y)/k", log_my),
        ConditionRow("y_private_rate:upper", "log2(m_y)/k", log_my, "h(y|x)", (hxy - hx) / K),
        ConditionRow(
            "common_rate:lower", "i(x;y)", i_xy, "(h(w_cx)+h(w_cy))/k", h_wcx + h_wcy
        ),
        ConditionRow(
            "common_rate:upper", "(h(w_cx)+h(w_cy))/k", h_wcx + h_wcy, "i(x;y)", i_xy
        ),
        ConditionRow(
            "x_unc_given_y_private", "h(x)", h_x,
            "h(x^k|v_y)/k", t.conditional_entropy([w_y, (t.x, K)]) / K,
        ),
        ConditionRow(
            "y_unc_given_x_private", "h(y)", h_y,
            "h(y^k|v_x)/k", t.conditional_entropy([w_x, (t.y, K)]) / K,
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
