"""Leakage functionals over wiretapped syndrome bits and source symbols.

Observation model
-----------------
A wiretap pattern names bit positions of the two syndromes plus a count
``mu`` of leaked Z symbols, always the prefix of Z.  Bits that belong to
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
from math import log2
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError, InternalConsistencyError, UsageError, is_int
from .gf2 import Gf2Matrix, rank
from .info import column_code
from .seqmodel import SequenceModel
from .swcodec import PartitionScheme, require_code_model, support_syndromes

#: Slack for exact-enumeration bound verdicts (rounding tolerance only).
DELTA = 1e-9


@dataclass(frozen=True)
class WiretapPattern:
    """Wiretapped positions: subsets of T_X and T_Y bits plus the first ``mu``
    symbols of Z, the leaked prefix that ``z_mu_leakage`` is stated for."""

    tx_positions: frozenset[int] = frozenset()
    ty_positions: frozenset[int] = frozenset()
    mu: int = 0

    def validate(self, lx: int, ly: int, K: int) -> None:
        """Raise ``UsageError`` naming the field unless every position is an
        integer bit of its syndrome (``lx`` / ``ly`` bits) and ``mu`` an integer
        in 0..K; a bool or a float is refused, never read as a number."""
        for field, values, top in (
            ("tx_positions", self.tx_positions, lx - 1),
            ("ty_positions", self.ty_positions, ly - 1),
            ("mu", (self.mu,), K),
        ):
            for v in values:
                if not is_int(v):
                    raise UsageError(f"{field}: expected an integer, got {v!r}")
                if not 0 <= v <= top:
                    raise UsageError(f"{field} out of range 0..{top}, got {v}")


@dataclass(frozen=True)
class BoundColumns:
    """The bound verdicts and identity residuals of one target over a
    sequence of patterns, as columns with one entry per pattern: the exact
    leakage (``lhs_bits``) and the bound (``rhs_bits``) in bits per symbol,
    ``holds`` when the left side is at most the right plus ``DELTA``, and in
    ``terms`` the nine mutual-information terms in bits."""

    target: str
    lhs_bits: list[float]
    rhs_bits: list[float]
    holds: list[bool]
    residual: list[float]
    terms: dict[str, list[float]]


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


def _blocks(patterns: Iterable[WiretapPattern]) -> Iterator[list[WiretapPattern]]:
    it = iter(patterns)
    while block := list(itertools.islice(it, BLOCK)):
        yield block


def _mask(positions: Iterable[int]) -> int:
    return sum(1 << int(p) for p in positions)


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _key_shifts(widths: Mapping[str, int]) -> dict[str, int]:
    """The shift of each field when fields of the given bit widths are packed
    into one int64 key, the first field most significant; past 63 bits,
    ``InternalConsistencyError``."""
    if (used := sum(widths.values())) > 63:
        raise InternalConsistencyError(f"a {used}-bit class key does not fit an int64")
    names = list(widths)[::-1]
    return dict(zip(names, itertools.accumulate([widths[n] for n in names], initial=0)))


class WiretapAnalyzer:
    """Exact enumeration engine for one (scheme, model) pair.

    Building the engine reads the model's support table once.  Every
    leakage, bound and identity value is then a sum of joint entropies of
    ``x`` (X), ``y`` (Y), ``tx`` (T_X), ``ty`` (T_Y) and ``z`` (the leaked Z
    prefix), with shared-pad bits folded in analytically.  Every column but
    Z is a function of the source pair (x, y), so it is kept per distinct
    pair of the support table, which takes every kernel entropy.

    Each public operation takes its patterns in blocks of ``BLOCK``, asks
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
        # Raw parity XOR per pad column (the pads cancel in the pair): both
        # codes end in the parity bits, so column c is one bit of tx ^ ty.
        raw = tx ^ ty
        self._xor_col = [
            ((raw >> (s.parity_len - 1 - c)) & 1).astype(np.uint8) for c in range(s.parity_len)
        ]
        self._width = {"x": 1, "y": 1, "tx": lx, "ty": ly, "z": self.K.bit_length()}
        self._shift = _key_shifts(self._width)
        self._class_values: dict[int, float] = {}
        self.entropy_calls = 0
        self.entropy_sets = 0

        def h(tx: Sequence[int], ty: Sequence[int], *specs: str) -> list[float]:
            names = [_names(spec) for spec in specs]
            values = self._entropies([WiretapPattern(frozenset(tx), frozenset(ty))], names)
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

    def _entropies(
        self, patterns: Sequence[WiretapPattern], sets: Sequence[frozenset[str]]
    ) -> dict[frozenset[str], np.ndarray]:
        """H of each name set under each pattern of a block, in bits: one
        float64 array per set, one entry per pattern.

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
        an iid one whose per-symbol alphabet product is at least 2, holds at
        least 2**K triples, so ``SUPPORT_GUARD`` keeps K <= 26 and the key
        within 2 + 52 + 5 = 59 bits.  Only a one-row iid law (every alphabet
        1) passes the guard at any K; a key of its past 63 bits raises
        ``InternalConsistencyError`` when the analyzer is built, as its table
        does for a Z code past 31 bits."""
        lx, ly = self._width["tx"], self._width["ty"]
        for p in patterns:
            p.validate(lx, ly, self.K)
        self.entropy_calls += len(patterns) * len(sets)
        tx = np.array([_mask(p.tx_positions) for p in patterns], dtype=np.int64)
        ty = np.array([_mask(p.ty_positions) for p in patterns], dtype=np.int64)
        mu = np.array([p.mu for p in patterns], dtype=np.int64)
        shift, pads, info = self._shift, self._pads, self._info
        fields = np.stack(np.broadcast_arrays(
            1 << shift["x"], 1 << shift["y"], (tx & ~pads["x"]) << shift["tx"],
            (ty & ~pads["y"]) << shift["ty"], mu << shift["z"],
        ))
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
        prefix and the XOR bit of each pad column read on both sides."""
        field = {name: key >> self._shift[name] & (1 << w) - 1 for name, w in self._width.items()}
        head = [
            (column_code(*self._syndromes[side], cols), len(cols))
            for side in "xy" if (cols := _bits(field["t" + side] & ~self._pads[side]))
        ]
        t, both = self._table, _bits((field["tx"] & self._pads["x"]) >> self._info["x"])
        head += [(word, self.K) for word, name in zip((t.x, t.y), "xy") if field[name]]
        xor, mu = [(self._xor_col[c], 1) for c in both], field["z"]
        value = t.entropy(head, mu, xor) if mu else t.entropy(head + xor)
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
        lhs = h_t + h_obs - h_t_obs
        lhs = np.where(lhs > 0.0, lhs, 0.0) / self.K  # max(0.0, lhs); np.maximum keeps -0.0
        rhs = rhs / self.K
        return {"lhs_bits": lhs, "rhs_bits": rhs, "holds": lhs <= rhs + DELTA,
                "residual": np.abs(h_t_obs - h_obs - recon), **terms}

    def _leakage(self, target: str, patterns: Iterable[WiretapPattern]) -> Iterator[np.ndarray]:
        """Total leakage of ``target`` under each pattern, in bits, one array
        per block; a value below ``-DELTA`` raises ``InternalConsistencyError``,
        one in ``-DELTA..0`` reads 0.0."""
        if target not in ("x", "xy", "y"):
            raise UsageError(f"target must be one of ['x', 'xy', 'y'], got {target!r}")
        sets = [_names(*target), _names("tx ty z"), _names(*target, "tx ty z")]
        for block in _blocks(patterns):
            h = self._entropies(block, sets)
            total = h[sets[0]] + h[sets[1]] - h[sets[2]]
            if (negative := total[total < -DELTA]).size:
                raise InternalConsistencyError(f"negative leakage {negative[0].item()!r}")
            yield np.where(total > 0.0, total, 0.0)

    # -- public operations -------------------------------------------------------

    def leakages(self, target: str, patterns: Iterable[WiretapPattern]) -> list[float]:
        """L = H(target^K) - H(target^K | observed bits) under each pattern,
        exact, in total bits; ``target`` is ``"x"``, ``"y"`` or ``"xy"``."""
        return [v for values in self._leakage(target, patterns) for v in values.tolist()]

    def pattern_checks(
        self, patterns: Iterable[WiretapPattern], targets: Sequence[str] = ("y", "x")
    ) -> dict[str, BoundColumns]:
        """Exact leakage against the common/private-portion upper bound, and
        the identity residual, of each target over a sequence of patterns.
        Each block of ``BLOCK`` patterns takes one evaluator call for every
        set the checks read (20 for both targets), so the sweep's working
        memory beyond its result columns does not grow with its length."""
        if bad := [t for t in targets if t not in ("x", "y")]:
            raise UsageError(f"bound target must be 'x' or 'y', got {bad[0]!r}")
        sets = list(set().union(*(_CHECK_SETS[t] for t in targets)))
        fields = ("lhs_bits", "rhs_bits", "holds", "residual", *_TERMS)
        columns = {t: {name: [] for name in fields} for t in targets}
        for block in _blocks(patterns):
            h = self._entropies(block, sets)
            for t in targets:
                for name, values in self._check(h, t).items():
                    columns[t][name] += values.tolist()
        return {
            t: BoundColumns(t, **{name: c.pop(name) for name in fields[:4]}, terms=c)
            for t, c in columns.items()
        }

    def minmax_oracle(self, mu_tx: int, mu_ty: int) -> tuple[float, float]:
        """Min and max joint-target leakage over all position subsets of the
        given sizes (mu = 0); the brute-force ground truth for the curves."""
        lx, ly = self.scheme.syndrome_len("x"), self.scheme.syndrome_len("y")
        if not 0 <= mu_tx <= lx or not 0 <= mu_ty <= ly:
            raise UsageError(f"subset sizes must lie in 0..{lx} / 0..{ly}")
        lo, hi = float("inf"), float("-inf")
        for values in self._leakage("xy", (
            WiretapPattern(frozenset(tx), frozenset(ty))
            for tx in itertools.combinations(range(lx), mu_tx)
            for ty in itertools.combinations(range(ly), mu_ty)
        )):
            lo, hi = min(lo, values.min().item()), max(hi, values.max().item())
        return lo, hi


# -- closed-form min/max curves -------------------------------------------------


@dataclass(frozen=True)
class FormulaMinMax:
    """Closed-form minimum and maximum leakage at one wiretap size pair.

    Two values are kept for the maximum: one from the case rule that adds
    the full mu_tx count on top of both info lengths when both wiretap
    counts exceed them (``max_bits_verbatim``) and one without that extra
    term (``max_bits_corrected``).  Reports mark which one the brute-force
    oracle confirms; neither is silently preferred here.
    """

    mu_tx: int
    mu_ty: int
    min_bits: int
    max_bits_corrected: int
    max_bits_verbatim: int
    min_case: str
    max_case: str
    rank_term_min: int
    rank_term_max: int


def _rank_term(s: PartitionScheme, parity_cols: Sequence[int]) -> int:
    """rank(H) - rank(H without the identity columns of C), for H = [P | I]
    and C the given parity columns.  The identity columns left in H cover
    every row outside C, so the difference is |C| - rank(P_C), with P_C the
    rows C of P: the columns C of the parity block P^T."""
    cols = list(parity_cols)
    return len(cols) - rank(Gf2Matrix(s.parity_block.cells[:, cols]))


def minmax_curves(s: PartitionScheme, mu_tx: int, mu_ty: int) -> FormulaMinMax:
    """Evaluate the minimum/maximum leakage case formulas for the joint target.

    The parity-matrix rank term uses the extremal column choices of each
    case: aligned low columns for the maximum, maximally mismatched columns
    for the minimum.
    """
    l_ix, l_iy, l_p = s.info_len("x"), s.info_len("y"), s.parity_len
    if not 0 <= mu_tx <= l_ix + l_p:
        raise UsageError(f"mu_tx must lie in 0..{l_ix + l_p}, got {mu_tx}")
    if not 0 <= mu_ty <= l_iy + l_p:
        raise UsageError(f"mu_ty must lie in 0..{l_iy + l_p}, got {mu_ty}")

    # Maximum: info bits first, leftover parity picks aligned from column 0.
    if mu_tx <= l_ix and mu_ty <= l_iy:
        max_case = "info-only"
        x_par, y_par = 0, 0
        base_corr = base_verb = mu_tx + mu_ty
    elif mu_tx > l_ix and mu_ty > l_iy:
        max_case = "both-over-info"
        x_par, y_par = mu_tx - l_ix, mu_ty - l_iy
        aligned = min(x_par, y_par)
        base_corr = l_ix + l_iy + aligned
        base_verb = l_ix + l_iy + mu_tx + aligned
    elif mu_tx > l_ix:
        max_case = "x-over-info"
        x_par, y_par = mu_tx - l_ix, 0
        base_corr = base_verb = mu_ty + l_ix
    else:
        max_case = "y-over-info"
        x_par, y_par = 0, mu_ty - l_iy
        base_corr = base_verb = mu_tx + l_iy
    rt_max = _rank_term(s, range(max(x_par, y_par)))

    # Minimum: parity bits first, chosen to overlap as little as possible.
    px, py = min(mu_tx, l_p), min(mu_ty, l_p)
    if mu_tx <= l_p and mu_ty <= l_p:
        min_case = "parity-first"
        base_min = max(0, mu_tx + mu_ty - l_p)
    else:
        min_case = "parity-saturated"
        base_min = mu_tx + mu_ty - l_p
    union = sorted(set(range(px)) | set(range(l_p - py, l_p)))
    rt_min = _rank_term(s, union)

    return FormulaMinMax(
        mu_tx=mu_tx,
        mu_ty=mu_ty,
        min_bits=base_min + rt_min,
        max_bits_corrected=base_corr + rt_max,
        max_bits_verbatim=base_verb + rt_max,
        min_case=min_case,
        max_case=max_case,
        rank_term_min=rt_min,
        rank_term_max=rt_max,
    )


def extremal_max_pattern(mu_tx: int, mu_ty: int, mu: int = 0) -> WiretapPattern:
    """The deterministic wiretap pattern behind the maximum-leakage case:
    info positions first, then aligned parity columns from column 0.  A
    syndrome is its info bits followed by its parity bits, so that is the
    first ``mu_tx`` bits of T_X and the first ``mu_ty`` of T_Y."""
    return WiretapPattern(frozenset(range(mu_tx)), frozenset(range(mu_ty)), mu)


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


def _match_label(formula: FormulaMinMax, oracle_max: float) -> str:
    corr = abs(formula.max_bits_corrected - oracle_max) <= DELTA
    verb = abs(formula.max_bits_verbatim - oracle_max) <= DELTA
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
    as one batch."""
    grid = list(itertools.product(range(mu_tx_max + 1), range(mu_ty_max + 1)))
    formulas = [minmax_curves(analyzer.scheme, *size) for size in grid]
    bound = analyzer.pattern_checks([extremal_max_pattern(*size) for size in grid], ("y",))["y"]
    rows = []
    for i, (size, formula) in enumerate(zip(grid, formulas)):
        omin, omax = analyzer.minmax_oracle(*size)
        rows.append(CurveRow(
            *size, 0, float(formula.min_bits), float(formula.max_bits_corrected),
            float(formula.max_bits_verbatim), omin, omax, bound.lhs_bits[i], bound.rhs_bits[i],
            bound.holds[i], _match_label(formula, omax),
        ))
    return rows


def z_trace_rows(
    analyzer: WiretapAnalyzer,
    mu_values: Sequence[int],
    h_xy: Optional[float] = None,
    h_x_given_y: Optional[float] = None,
) -> list[CurveRow]:
    """Leakage-from-Z trace: closed form vs. enumeration at each mu, the
    enumerated leakages and the Y-target bounds each as one batch.

    The sequence-level constants default to the model's exact values.
    """
    if h_xy is None:
        h_xy = analyzer.h_xy_total
    if h_x_given_y is None:
        h_x_given_y = analyzer.h_xy_total - analyzer.h_y_total
    patterns = [WiretapPattern(mu=mu) for mu in mu_values]
    oracles = analyzer.leakages("xy", patterns)
    bound = analyzer.pattern_checks(patterns, ("y",))["y"]
    rows = []
    for i, (mu, oracle) in enumerate(zip(mu_values, oracles)):
        formula = z_mu_leakage(mu, analyzer.K, h_xy, h_x_given_y)
        rows.append(CurveRow(
            0, 0, mu, formula, formula, formula, oracle, oracle, bound.lhs_bits[i],
            bound.rhs_bits[i], bound.holds[i],
            "both" if abs(formula - oracle) <= DELTA else "neither",
        ))
    return rows


def sample_patterns(
    s: PartitionScheme, count: int, seed: int, mu_values: Sequence[int]
) -> list[WiretapPattern]:
    """Deterministic random wiretap patterns for bound/identity sweeps."""
    rng = np.random.default_rng(seed)
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    out = []
    for _ in range(count):
        a = int(rng.integers(0, lx + 1))
        b = int(rng.integers(0, ly + 1))
        tx = frozenset(int(v) for v in rng.choice(lx, size=a, replace=False))
        ty = frozenset(int(v) for v in rng.choice(ly, size=b, replace=False))
        for mu in mu_values:
            out.append(WiretapPattern(tx, ty, int(mu)))
    return out
