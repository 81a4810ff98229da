"""Leakage functionals over wiretapped syndrome bits and source symbols.

Observation model
-----------------
A wiretap pattern is the int masks of the T_X and T_Y bits read (bit
``1 << i`` reads syndrome position i, the syndrome's first bit being 0) and a
count ``mu`` of leaked Z symbols, always the prefix of Z.  Bits that belong to
private-role segments are observed in the clear.  Parity bits whose segment
role is "common" are protected by a one-time pad that is *shared per parity
column* between the two syndromes: a single padded bit reveals nothing,
while the pair wiretapped at the same parity column reveals exactly the XOR
of the two raw parity bits.  This is the jointly-protective behaviour of
the parity segments that the minimum/maximum leakage case formulas assume,
and the brute-force oracle below is the ground truth for it.

Leakage of a target given a pattern is definitional:
``L = H(target^K) - H(target^K | observations)`` (reported in total bits
and per symbol, with per-symbol entropies taken as ``(1/K) H(sequence)``).

Everything is computed exactly by enumerating the source support; pad bits
are folded in analytically (one fresh uniform bit per touched pad column,
plus the raw-parity XOR when a column is observed on both sides), which is
exact and avoids blowing up the enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, log2, prod
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (CapacityError, DomainError, InternalConsistencyError, UsageError,
                     check_work, is_int)
from .info import column_code
from .seqmodel import SequenceModel
from .swcodec import PartitionScheme, require_code_model, support_syndromes, xor_basis

#: Slack for exact-enumeration bound verdicts (rounding tolerance only).
DELTA = 1e-9


@dataclass(frozen=True)
class BoundColumns:
    """The bound verdicts and identity residuals of one target over a
    sequence of patterns, as columns with one entry per pattern: the exact
    leakage (``lhs_bits``) and the bound (``rhs_bits``) in bits per symbol,
    and ``holds`` when the left side is at most the right plus ``DELTA``."""

    target: str
    lhs_bits: list[float]
    rhs_bits: list[float]
    holds: list[bool]
    residual: list[float]


#: The nine mutual-information terms of the chain-rule expansion of
#: H(t | T_Y, T_X, Z^mu), I(A; B | C) = H(A, C) + H(B, C) - H(A, B, C) - H(C),
#: as (sign, A, B, C) with ``t`` for the target.  The bound's right side adds
#: each term with its sign; the chain-rule reconstruction subtracts it.
_TERMS = {
    "i(ty;t)": (1.0, "ty", "t", ""),
    "i(tx;t)": (1.0, "tx", "t", ""),
    "i(ty;tx|t)": (1.0, "ty", "tx", "t"),
    "i(t;z)": (1.0, "t", "z", ""),
    "i(ty;z|t)": (1.0, "ty", "z", "t"),
    "i(tx;z|t,ty)": (1.0, "tx", "z", "t ty"),
    "i(tx;ty)": (-1.0, "tx", "ty", ""),
    "i(z;tx)": (-1.0, "z", "tx", ""),
    "i(ty;z|tx)": (-1.0, "ty", "z", "tx"),
}

#: Patterns per evaluator block, so that a sweep's class keys never cover
#: more patterns than this at a time, however long the sweep.
BLOCK = 1024


def _names(*parts: str, t: str = "") -> frozenset[str]:
    """The variable names of space-separated parts; ``t`` is the target."""
    return frozenset(t if name == "t" else name for part in parts for name in part.split())


#: Per target, the sets H(A, C), H(B, C), H(A, B, C) and H(C) of each term.
_TERM_SETS = {
    t: {
        name: tuple(_names(*parts, t=t) for parts in ((a, c), (b, c), (a, b, c), (c,)))
        for name, (_, a, b, c) in _TERMS.items()
    }
    for t in "xy"
}
#: Per target, every set that its bound and identity check reads: the terms
#: hold H(t), H(T_X, T_Y, Z) and H(t, T_X, T_Y, Z) too.
_CHECK_SETS = {t: {s for sets in _TERM_SETS[t].values() for s in sets if s} for t in "xy"}


def _mask(positions: Iterable[int]) -> int:
    return sum(1 << int(p) for p in positions)


def _subset_masks(length: int, size: int) -> np.ndarray:
    """The mask of every subset of ``length`` positions with at most ``size`` members."""
    subsets = (c for k in range(size + 1) for c in itertools.combinations(range(length), k))
    return np.array([_mask(c) for c in subsets], dtype=np.int64)


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _key_shifts(widths: Mapping[str, int]) -> dict[str, int]:
    """The shift of each field when fields of the given bit widths are packed
    into one int64 key, the first field most significant; past 63 bits,
    ``CapacityError``."""
    if (used := sum(widths.values())) > 63:
        raise CapacityError(f"a {used}-bit class key does not fit an int64")
    names = list(widths)[::-1]
    return dict(zip(names, itertools.accumulate([widths[n] for n in names], initial=0)))


def _nonnegative(total: np.ndarray) -> np.ndarray:
    """Leakages in bits: one below ``-DELTA`` is an error, one up to 0 reads +0.0."""
    if (negative := total[total < -DELTA]).size:
        raise InternalConsistencyError(f"negative leakage {negative[0].item()!r}")
    return np.where(total > 0.0, total, 0.0)


class WiretapAnalyzer:
    """Exact enumeration engine for one (scheme, model) pair.

    Building the engine reads the model's support table once.  Every
    leakage, bound and identity value is then a sum of joint entropies of
    ``x`` (X), ``y`` (Y), ``tx`` (T_X), ``ty`` (T_Y) and ``z`` (the leaked Z
    prefix), with shared-pad bits folded in analytically.  Every column but
    Z is a function of the source pair (x, y), so it is kept per distinct
    pair of the support table, which takes every kernel entropy.  So is the
    raw parity XOR, whose pad columns read on both sides a set takes as one chunk.

    Each public operation takes its patterns as int arrays ``tx``, ``ty``
    and ``mu`` that broadcast, in blocks of ``BLOCK``, asks
    the one evaluator, ``_entropies``, for every set it needs over a whole
    block, and sums its terms as array expressions over the block, in the
    order of their written-out form.  Kernel entropies are memoised by
    observation class (``_class_values``) across blocks and operations.
    ``entropy_calls`` counts the sets asked for, each distinct set once per
    pattern, and ``entropy_sets`` the kernel evaluations.
    """

    def __init__(self, s: PartitionScheme, model: SequenceModel):
        require_code_model(s, model, "analyzer")
        self.scheme, self.model, self.K = s, model, model.K
        self._table = t = model.table
        tx, ty = support_syndromes(s, t.x, t.y)
        lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
        # Per side, the packed per-pair syndrome code and its width, the info
        # length, and the bits of its padded positions: the common-role ones
        # at or past the info length, pad column = position - info length.
        self._syndromes = {"x": (tx, lx), "y": (ty, ly)}
        self._info = {side: s.info_len(side) for side in "xy"}
        self._pads = {
            side: _mask(i for i in s.role_positions(side, "common") if i >= self._info[side])
            for side in "xy"
        }
        # The raw parity XOR (the pads cancel in the pair): both codes end in
        # the parity bits, so pad column c is parity column c of tx ^ ty.
        self._xor = (tx ^ ty) & (1 << s.parity_len) - 1
        self._width = {"x": 1, "y": 1, "tx": lx, "ty": ly, "z": self.K.bit_length()}
        self._shift = _key_shifts(self._width)
        self._class_values: dict[int, float] = {}
        self.entropy_calls = 0
        self.entropy_sets = 0

        def h(tx: Sequence[int], ty: Sequence[int], *specs: str) -> list[float]:
            names = [_names(spec) for spec in specs]
            values = self._entropies(np.array([_mask(tx)]), np.array([_mask(ty)]), 0, names)
            return [values[n].item() for n in names]

        self.h_x_total, self.h_y_total, self.h_xy_total = h((), (), "x", "y", "x y")
        # Private/common channel-portion entropies used by the bound right side:
        # the private portion of one syndrome, and the common portion taken
        # jointly across both syndromes (the common information is shared).
        private = [s.role_positions(side, "private") for side in "xy"]
        common = [s.role_positions(side, "common") for side in "xy"]
        self.h_private_x, self.h_private_y = h(*private, "tx", "ty")
        (self.h_common,) = h(*common, "tx ty")

    # -- the evaluator ---------------------------------------------------------

    def _blocks(self, tx, ty, mu) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The patterns ``(tx, ty, mu)`` in int64 slices of ``BLOCK``, never
        the whole input copied, after one check that raises ``UsageError``
        naming the field: integer scalars or 1-D arrays (no bool or float
        dtype) whose lengths broadcast, masks in 0..2**l-1, ``mu`` in 0..K."""
        tops = {f: (1 << self._width[f]) - 1 for f in ("tx", "ty")} | {"mu": self.K}
        arrays = dict(zip(tops, map(np.asarray, (tx, ty, mu))))
        for (field, top), a in zip(tops.items(), arrays.values()):
            if a.size and a.dtype.kind not in "iu":  # np.asarray([]) is float64
                raise UsageError(f"{field}: expected integers, got dtype {a.dtype}")
            if a.ndim > 1:
                raise UsageError(f"{field}: expected one dimension, got shape {a.shape}")
            if a.size and not 0 <= (lo := a.min().item()) <= (hi := a.max().item()) <= top:
                raise UsageError(f"{field} out of range 0..{top}, got {lo if lo < 0 else hi}")
        try:
            columns = np.broadcast_arrays(*map(np.atleast_1d, arrays.values()))
        except ValueError:
            lengths = ", ".join(f"{field} {a.size}" for field, a in arrays.items())
            raise UsageError(f"pattern lengths do not broadcast: {lengths}") from None
        for start in range(0, len(columns[0]), BLOCK):
            yield tuple(a[start : start + BLOCK].astype(np.int64) for a in columns)

    def _entropies(
        self, tx, ty, mu, sets: Sequence[frozenset[str]]
    ) -> dict[frozenset[str], np.ndarray]:
        """H of each name set under each pattern ``(tx, ty, mu)`` of a block,
        in bits: one float64 array per set, one entry per pattern.

        The observation class of a (pattern, set) pair is the set's X and Y
        flags, the clear bits it reads of each side, its Z prefix length
        and, when it reads both sides, the pad columns read on both, whose
        raw-parity XOR it sees.  The class fixes the kernel entropy, and
        every pad column read on either side adds one fresh bit to it.

        A block's classes are packed into int64 keys, deduplicated by one
        ``np.unique``; a key the memo lacks calls the kernel once.  A key
        holds, first field most significant, the two flags, each side's
        syndrome bits and mu: the clear bits read sit at their positions,
        and the pad columns read on both sides at the T_X field's padded
        positions, which no clear bit takes.  That is 2 + l_x + l_y +
        bit_length(K) bits, with l_x, l_y <= n = K.  A Hamming support, and
        an iid one whose law has at least two nonzero cells, holds at least
        2**K rows, so the memory budget (64 bytes a row) keeps K <= 26 and
        the key within 2 + 52 + 5 = 59 bits.  Only a law with one nonzero
        cell passes the budget at any K; a key of its past 63 bits raises
        ``CapacityError`` when the analyzer is built, as its table does for a
        Z code past 31 bits."""
        shift, pads, info = self._shift, self._pads, self._info
        fields = np.stack(np.broadcast_arrays(
            1 << shift["x"], 1 << shift["y"], (tx & ~pads["x"]) << shift["tx"],
            (ty & ~pads["y"]) << shift["ty"], mu << shift["z"],
        ))
        self.entropy_calls += fields.shape[1] * len(sets)
        # One row per set: which of x, y, tx, ty, z it reads.  The fields
        # hold disjoint bits, so a row's product with them is their OR.
        reads = np.array([[n in names for n in ("x", "y", "tx", "ty", "z")] for names in sets])
        keys = reads.astype(np.int64) @ fields
        read_x, read_y = reads[:, 2:3], reads[:, 3:4]
        cols_x = (tx & pads["x"]) >> info["x"]  # pad columns read
        cols_y = (ty & pads["y"]) >> info["y"]
        keys |= np.where(read_x & read_y, (cols_x & cols_y) << (info["x"] + shift["tx"]), 0)
        fresh = np.bitwise_count(np.where(read_x, cols_x, 0) | np.where(read_y, cols_y, 0))
        distinct, inverse = np.unique(keys, return_inverse=True)
        memo = self._class_values
        values = np.array([memo[k] if k in memo else self._kernel(k) for k in distinct.tolist()])
        h = values[inverse.reshape(keys.shape)]
        h += fresh  # one fresh bit per pad column read
        return dict(zip(sets, h))

    def _kernel(self, key: int) -> float:
        """The kernel entropy of the class packed in ``key``, memoised: the
        clear syndrome columns read of T_X, then of T_Y, then X, Y, the Z
        prefix and the raw parity XOR of the pad columns read on both sides."""
        field = {name: key >> self._shift[name] & (1 << w) - 1 for name, w in self._width.items()}
        head = [
            (column_code(*self._syndromes[side], cols), len(cols))
            for side in "xy" if (cols := _bits(field["t" + side] & ~self._pads[side]))
        ]
        t, both = self._table, _bits((field["tx"] & self._pads["x"]) >> self._info["x"])
        head += [(word, self.K) for word, name in zip((t.x, t.y), "xy") if field[name]]
        xor, mu = [(column_code(self._xor, self.scheme.parity_len, both), len(both))], field["z"]
        value = t.entropy(head, mu, xor)
        self._class_values[key] = value
        self.entropy_sets += 1
        return value

    def _check(self, h: Mapping[frozenset[str], np.ndarray], t: str) -> dict[str, np.ndarray]:
        """The bound and identity columns of target ``t`` over a block, from
        one pass over the nine mutual-information terms of the chain-rule
        expansion of H(t | T_Y, T_X, Z^mu)."""
        terms = {}
        for name, (ac, bc, abc, c) in _TERM_SETS[t].items():
            value = h[ac] + h[bc] - h[abc]
            terms[name] = value - h[c] if c else value
        h_t, h_obs, h_t_obs = h[_names("t", t=t)], h[_names("tx ty z")], h[_names("t tx ty z", t=t)]
        private, target = (
            (self.h_private_x, self.h_x_total) if t == "x" else (self.h_private_y, self.h_y_total)
        )
        # Left to right, so each sum rounds as its written-out form would.
        recon = h_t
        rhs = private + self.h_common - target
        for name, (sign, *_) in _TERMS.items():
            recon = recon - sign * terms[name]
            rhs = rhs + sign * terms[name]
        lhs = _nonnegative(h_t + h_obs - h_t_obs) / self.K
        rhs = rhs / self.K
        return {"lhs_bits": lhs, "rhs_bits": rhs, "holds": lhs <= rhs + DELTA,
                "residual": np.abs(h_t_obs - h_obs - recon)}

    def _leakage(self, target: str, tx, ty, mu) -> np.ndarray:
        """Total leakage of ``target`` under each pattern of a block, in bits."""
        sets = [_names(*target), _names("tx ty z"), _names(*target, "tx ty z")]
        h = self._entropies(tx, ty, mu, sets)
        return _nonnegative(h[sets[0]] + h[sets[1]] - h[sets[2]])

    # -- public operations -------------------------------------------------------

    def leakages(self, target: str, tx, ty, mu) -> list[float]:
        """L = H(target^K) - H(target^K | observed bits) under each pattern,
        exact, in total bits; ``target`` is ``"x"``, ``"y"`` or ``"xy"``."""
        if target not in ("x", "xy", "y"):
            raise UsageError(f"target must be one of ['x', 'xy', 'y'], got {target!r}")
        blocks = self._blocks(tx, ty, mu)
        return [v for block in blocks for v in self._leakage(target, *block).tolist()]

    def pattern_checks(
        self, tx, ty, mu, targets: Sequence[str] = ("y", "x")
    ) -> dict[str, BoundColumns]:
        """Exact leakage against the common/private-portion upper bound, and
        the identity residual, of each target under each pattern.  Each
        block of ``BLOCK`` patterns takes one evaluator call for every set
        the checks read (20 for both targets), so the sweep's working memory
        beyond its result columns does not grow with its length."""
        if bad := [t for t in targets if t not in ("x", "y")]:
            raise UsageError(f"bound target must be 'x' or 'y', got {bad[0]!r}")
        sets = list(set().union(*(_CHECK_SETS[t] for t in targets)))
        names = ("lhs_bits", "rhs_bits", "holds", "residual")
        columns = {t: {name: [] for name in names} for t in targets}
        for block in self._blocks(tx, ty, mu):
            h = self._entropies(*block, sets)
            for t in targets:
                for name, values in self._check(h, t).items():
                    columns[t][name] += values.tolist()
        return {t: BoundColumns(t, **c) for t, c in columns.items()}

    def minmax_oracle(self, mu_tx_max: int, mu_ty_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Min and max joint-target leakage (mu = 0) over all position subsets
        of each size pair up to the given sizes, as arrays indexed ``[mu_tx,
        mu_ty]``: the brute-force ground truth for the curves, in one pass
        over every pair of subset masks, ``BLOCK`` pairs at a time, charged
        first to the work budget (``errors.check_work``) at the table's ``steps(0)`` each."""
        lx, ly = self._width["tx"], self._width["ty"]
        if not 0 <= mu_tx_max <= lx or not 0 <= mu_ty_max <= ly:
            raise UsageError(f"subset sizes must lie in 0..{lx} / 0..{ly}")
        pairs = prod(sum(comb(n, k) for k in range(m + 1))
                     for n, m in ((lx, mu_tx_max), (ly, mu_ty_max)))
        check_work(pairs * self._table.steps(0), f"the min/max oracle over {pairs} subset pairs")
        mx, my = _subset_masks(lx, mu_tx_max), _subset_masks(ly, mu_ty_max)
        size_x, size_y = np.bitwise_count(mx), np.bitwise_count(my)
        lo = np.full((mu_tx_max + 1, mu_ty_max + 1), np.inf)
        hi = -lo
        for start in range(0, pairs, BLOCK):
            i, j = np.divmod(np.arange(start, min(start + BLOCK, pairs)), my.size)
            values = self._leakage("xy", mx[i], my[j], 0)
            np.minimum.at(lo, (size_x[i], size_y[j]), values)
            np.maximum.at(hi, (size_x[i], size_y[j]), values)
        return lo, hi


# -- closed-form min/max curves -------------------------------------------------


@dataclass(frozen=True)
class FormulaMinMax:
    """Closed-form minimum and maximum leakage at one wiretap size pair, the
    three expressions of ``minmax_curves``.  The verbatim maximum adds the
    full mu_tx count once both wiretap counts pass their info lengths, the
    case rule's extra term; the corrected one leaves it out.  Reports mark
    which one the brute-force oracle confirms; neither is silently preferred.
    """

    min_bits: int
    max_bits_corrected: int
    max_bits_verbatim: int


def _rank_term(s: PartitionScheme, parity_cols: Sequence[int]) -> int:
    """rank(H) - rank(H without the identity columns of C), for H = [P | I]
    and C the given parity columns.  The identity columns left in H cover
    every row outside C, so the difference is |C| - rank(P_C), with P_C the
    rows C of P: the columns C of the parity block P^T."""
    cols = list(parity_cols)
    return len(cols) - len(xor_basis(s.parity_columns[c] for c in cols))


def minmax_curves(s: PartitionScheme, mu_tx: int, mu_ty: int) -> FormulaMinMax:
    """The minimum/maximum leakage formulas for the joint target, each one
    expression.  With ``x_par = max(0, mu_tx - l_ix)``, ``y_par = max(0,
    mu_ty - l_iy)``, ``aligned = min(x_par, y_par)`` and ``r`` the rank term
    of a set of parity columns:

    * corrected maximum ``min(mu_tx, l_ix) + min(mu_ty, l_iy) + aligned +
      r(low max(x_par, y_par) columns)``: info bits first, then parity
      columns aligned from column 0;
    * verbatim maximum: the corrected one plus mu_tx when ``aligned > 0``;
    * minimum ``max(0, mu_tx + mu_ty - l_p) + r(low min(mu_tx, l_p) columns
      and high min(mu_ty, l_p) columns)``: parity bits first, overlapping
      as little as possible.

    They hold only for the complementary split, where X's keyed segment
    ``a1`` and Y's transmitted segment ``u2`` hold the same positions; any
    other partition is refused with ``DomainError``.
    """
    a1, u2 = s.x_segments["a1"], s.y_segments["u2"]
    if set(a1) != set(u2):
        raise DomainError(
            f"scheme.x_segments.a1 {list(a1)} and scheme.y_segments.u2 {list(u2)}: the min/max"
            " leakage formulas hold only for the complementary split, where a1 and u2 hold"
            " the same positions"
        )
    l_ix, l_iy, l_p = s.info_len("x"), s.info_len("y"), s.parity_len
    if not 0 <= mu_tx <= l_ix + l_p:
        raise UsageError(f"mu_tx must lie in 0..{l_ix + l_p}, got {mu_tx}")
    if not 0 <= mu_ty <= l_iy + l_p:
        raise UsageError(f"mu_ty must lie in 0..{l_iy + l_p}, got {mu_ty}")
    x_par, y_par = max(0, mu_tx - l_ix), max(0, mu_ty - l_iy)
    aligned = min(x_par, y_par)
    corrected = (min(mu_tx, l_ix) + min(mu_ty, l_iy) + aligned
                 + _rank_term(s, range(max(x_par, y_par))))
    low_x, high_y = range(min(mu_tx, l_p)), range(l_p - min(mu_ty, l_p), l_p)
    min_bits = max(0, mu_tx + mu_ty - l_p) + _rank_term(s, sorted({*low_x, *high_y}))
    return FormulaMinMax(min_bits, corrected, corrected + mu_tx * (aligned > 0))


# -- leakage from the wiretapped source ------------------------------------------


def z_mu_leakage(mu: int, K: int, h_xy: float, h_x_given_y: float) -> float:
    """Closed-form joint-target leakage from observing ``mu`` symbols of Z,
    for the unit-distance correlation model; total bits.

    The candidate-counting behind it: ``2**(K-mu)`` sequences repeated
    ``K-mu+1`` times plus ``mu * 2**(K-mu)`` singletons, out of
    ``2**(K-mu) * (K+1)`` weighted candidates.  ``mu = 0`` is evaluated as
    the formula's continuous extension (and equals 0 for the bundled
    constants).
    """
    if not 0 <= mu <= K:
        raise DomainError(f"mu must lie in 0..K, got mu={mu}, K={K}")
    total = (1 << (K - mu)) * (K + 1)
    repeated_share = (K - mu + 1) / (K + 1)
    singleton_share = mu / (K + 1)
    value = (
        h_xy
        + repeated_share * log2((K - mu + 1) / total)
        + singleton_share * log2(1.0 / total)
        - h_x_given_y
    )
    return value


# -- curve sweeps (CLI / report backend) ------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    """One row of the leakage-curve report."""

    mu_tx: int
    mu_ty: int
    mu_z: int
    formula_min: float
    formula_max: float
    formula_max_verbatim: float
    oracle_min: float
    oracle_max: float
    bound_lhs: float
    bound_rhs: float
    bound_holds: bool
    variant_match: str


def _match_label(corrected: float, verbatim: float, oracle: float) -> str:
    corr = abs(corrected - oracle) <= DELTA
    verb = abs(verbatim - oracle) <= DELTA
    if corr and verb:
        return "both"
    if corr:
        return "corrected"
    if verb:
        return "verbatim"
    return "neither"


def grid_curve_rows(analyzer: WiretapAnalyzer, mu_tx_max: int, mu_ty_max: int) -> list[CurveRow]:
    """Sweep the (mu_tx, mu_ty) grid: formulas, oracle, and the Y-target
    bound at the maximum-leakage extremal pattern, all grid points' bounds
    as one batch.  That pattern reads info bits, then aligned parity columns
    from column 0: the first ``mu_tx`` bits of T_X and ``mu_ty`` of T_Y."""
    grid = list(itertools.product(range(mu_tx_max + 1), range(mu_ty_max + 1)))
    formulas = [minmax_curves(analyzer.scheme, *size) for size in grid]
    mu_tx, mu_ty = np.array(grid).T
    lo, hi = (values.ravel().tolist() for values in analyzer.minmax_oracle(mu_tx_max, mu_ty_max))
    bound = analyzer.pattern_checks((1 << mu_tx) - 1, (1 << mu_ty) - 1, 0, ("y",))["y"]
    rows = []
    for i, (size, formula) in enumerate(zip(grid, formulas)):  # the oracle's row-major order
        corr, verb = float(formula.max_bits_corrected), float(formula.max_bits_verbatim)
        rows.append(CurveRow(
            *size, 0, float(formula.min_bits), corr, verb, lo[i], hi[i], bound.lhs_bits[i],
            bound.rhs_bits[i], bound.holds[i], _match_label(corr, verb, hi[i]),
        ))
    return rows


def z_trace_rows(analyzer: WiretapAnalyzer, mu_values: Sequence[int]) -> list[CurveRow]:
    """Leakage-from-Z trace: closed form vs. enumeration at each mu, the
    enumerated leakages and the Y-target bounds each as one batch.  The
    closed form takes the model's exact H(X, Y) and H(X | Y)."""
    h_xy, h_x_given_y = analyzer.h_xy_total, analyzer.h_xy_total - analyzer.h_y_total
    oracles = analyzer.leakages("xy", 0, 0, mu_values)
    bound = analyzer.pattern_checks(0, 0, mu_values, ("y",))["y"]
    rows = []
    for i, (mu, oracle) in enumerate(zip(mu_values, oracles)):
        formula = z_mu_leakage(mu, analyzer.K, h_xy, h_x_given_y)
        rows.append(CurveRow(
            0, 0, mu, formula, formula, formula, oracle, oracle, bound.lhs_bits[i],
            bound.rhs_bits[i], bound.holds[i], _match_label(formula, formula, oracle),
        ))
    return rows


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


class _DefaultRng:
    """numpy's ``default_rng(seed)`` stream, draw for draw, for the two
    calls ``sample_patterns`` makes, in integer Python.  numpy seeds PCG64
    (O'Neill, 2014) through ``SeedSequence``, draws 32-bit words, and bounds
    them with Lemire's rejection (ACM TOMACS, 2019).  ``state``, ``inc``,
    ``has_uint32`` and ``uinteger`` are the fields of numpy's
    ``bit_generator.state``."""

    def __init__(self, seed: int):
        # SeedSequence: the seed's 32-bit words hashed into a pool of four,
        # every pool word mixed into every other, then generate_state(4, uint64).
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        const, halves = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            halves.append(value ^ value >> 16)
        w = [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]
        # pcg64_set_seed: state and increment are the words taken high half first.
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self.state = 0
        self._step()
        self.state = (self.state + (w[0] << 64 | w[1])) & _M128
        self._step()
        self.has_uint32 = self.uinteger = 0

    def _step(self) -> None:
        self.state = (self.state * _PCG_MULT + self.inc) & _M128

    def _next32(self) -> int:
        """The low half of a fresh XSL-RR output; its high half is kept for
        the next call."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        self._step()
        x, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        out = (x >> rot | x << (64 - rot)) & _M64
        self.has_uint32, self.uinteger = 1, out >> 32
        return out & _M32

    def _bounded(self, top: int) -> int:
        """Uniform in ``0..top`` (``top`` < 2**32 - 1), by 32-bit Lemire rejection."""
        if top == 0:
            return 0
        m = self._next32() * (top + 1)
        if m & _M32 <= top:
            threshold = (1 << 32) % (top + 1)
            while m & _M32 < threshold:
                m = self._next32() * (top + 1)
        return m >> 32

    def integers(self, high: int) -> int:
        """``Generator.integers(0, high)``."""
        return self._bounded(high - 1)

    def choice(self, pop_size: int, size: int) -> list[int]:
        """``Generator.choice(pop_size, size, replace=False)``: Floyd's
        algorithm, which takes ``j`` itself when its draw repeats, then a
        Fisher-Yates shuffle of the picks.  numpy tail-shuffles instead when
        ``pop_size`` > 10000, which no syndrome (at most 63 bits) reaches."""
        picks: list[int] = []
        for j in range(pop_size - size, pop_size):
            val = self._bounded(j)
            picks.append(j if val in picks else val)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def sample_patterns(
    s: PartitionScheme, count: int, seed: int, mu_values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic random wiretap patterns ``(tx, ty, mu)`` for bound and
    identity sweeps: each random pair of subsets with every ``mu`` in turn.
    The subsets are drawn from numpy's ``default_rng(seed)`` stream
    (SeedSequence, PCG64), reproduced in the package: per pair, a size
    ``integers(0, l + 1)`` for each side's syndrome length ``l``, then each
    side's ``choice(l, size, replace=False)``.  A ``count`` or ``seed`` that is
    negative, a bool or not an integer is refused with ``UsageError``."""
    for name, value in (("count", count), ("seed", seed)):
        if not is_int(value) or value < 0:
            raise UsageError(f"{name} must be a non-negative integer, got {value!r}")
    rng = _DefaultRng(int(seed))
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    masks = []
    for _ in range(count):
        a, b = rng.integers(lx + 1), rng.integers(ly + 1)
        masks.append((_mask(rng.choice(lx, a)), _mask(rng.choice(ly, b))))
    mu = np.asarray(mu_values, dtype=np.int64)
    tx, ty = np.array(masks, dtype=np.int64).reshape(-1, 2).T
    return np.repeat(tx, mu.size), np.repeat(ty, mu.size), np.tile(mu, len(masks))
