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
from functools import cached_property
from math import log2
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError, InternalConsistencyError, UsageError
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

    def validate(self, s: PartitionScheme, K: int) -> None:
        lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
        if any(not 0 <= p < lx for p in self.tx_positions):
            raise UsageError(f"tx_positions out of range 0..{lx - 1}")
        if any(not 0 <= p < ly for p in self.ty_positions):
            raise UsageError(f"ty_positions out of range 0..{ly - 1}")
        if not 0 <= self.mu <= K:
            raise UsageError(f"mu must lie in 0..{K}, got {self.mu}")


@dataclass(frozen=True)
class LeakageValue:
    """Exact leakage of one target under one pattern."""

    target: str
    total_bits: float
    per_symbol_bits: float


@dataclass(frozen=True)
class BoundReport:
    """Exact left side vs. bound right side, with every term spelled out."""

    target: str
    lhs_bits: float          # exact leakage, bits per symbol
    rhs_bits: float          # bound value, bits per symbol (slack excluded)
    term_breakdown: Mapping[str, float]
    delta: float = DELTA

    @property
    def holds(self) -> bool:
        return self.lhs_bits <= self.rhs_bits + self.delta


_TARGET_VARS = {"x": ("x",), "y": ("y",), "xy": ("x", "y")}

#: Signs of the nine mutual-information terms in the bound's right side;
#: the chain-rule reconstruction of H(target | T_Y, T_X, Z^mu) takes each
#: with the opposite sign.
_TERM_SIGNS = {
    "i(ty;t)": 1.0,
    "i(tx;t)": 1.0,
    "i(ty;tx|t)": 1.0,
    "i(t;z)": 1.0,
    "i(ty;z|t)": 1.0,
    "i(tx;z|t,ty)": 1.0,
    "i(tx;ty)": -1.0,
    "i(z;tx)": -1.0,
    "i(ty;z|tx)": -1.0,
}


def _target_vars(target: str) -> tuple[str, ...]:
    if target not in _TARGET_VARS:
        raise UsageError(f"target must be one of {sorted(_TARGET_VARS)}, got {target!r}")
    return _TARGET_VARS[target]


class _Var:
    """Observation variable: deterministic columns plus padded-bit refs.

    A bit protected by the shared parity pad is not materialised: within any
    entropy set, a pad column observed on one side contributes exactly one
    bit of fresh uniform randomness, and a column observed on both sides
    contributes one fresh bit plus the deterministic XOR of the two raw
    parity bits.  ``masked`` holds (column, side) references that the
    evaluation resolves per entropy set.  ``key`` names the deterministic
    part, the columns ``cols`` of the packed ``(code, width)`` source;
    ``width`` counts them.  X, Y, T_X and T_Y are functions of the (x, y)
    pair, so their ``source`` is a per-pair code of the support table: the
    word codes for X and Y, the syndrome codes of ``support_syndromes`` for
    T_X and T_Y; Z's is None, as the table shifts its prefix of ``width``
    columns straight out of its row Z code.
    ``chunks`` selects the columns of a pair source on first use, as
    ``(code, width)``, so a variable whose entropy sets all hit the memo
    costs no array pass, and a variable with no deterministic column has no
    chunk.
    """

    def __init__(
        self,
        key: tuple,
        masked: list[tuple[int, str]],
        source: Optional[tuple[np.ndarray, int]],
        cols: Sequence[int],
    ):
        self.key = key
        self.masked = masked
        self.width = len(cols)
        self.cols = cols
        self.source = source

    @cached_property
    def chunks(self) -> list[tuple[np.ndarray, int]]:
        if not self.width:
            return []
        return [(column_code(*self.source, self.cols), self.width)]


class WiretapAnalyzer:
    """Precomputed enumeration engine for one (scheme, model) pair.

    Building the engine reads the model's support table once; every leakage,
    bound and identity evaluation then reduces to entropies of integer-coded
    columns over the support, with shared-pad bits folded in analytically.
    Every column but Z is a function of the source pair (x, y), so it is
    kept per distinct pair of the model's support table, which takes every
    kernel entropy.
    Kernel entropies are memoised across patterns by observation class: the
    deterministic keys of the variables and the pad columns read on both
    sides.  ``entropy_calls`` counts the entropy sets asked for and
    ``entropy_sets`` the kernel evaluations.
    """

    def __init__(self, s: PartitionScheme, model: SequenceModel):
        require_code_model(s, model, "analyzer")
        self.scheme = s
        self.model = model
        self.K = model.K

        self._table = t = model.table
        tx, ty = support_syndromes(s, t.x, t.y)

        # Syndrome bits plus the shared-pad reference (parity column, side)
        # of every common-role parity bit; other bits are clear.
        def padded(side: str) -> dict[int, tuple[int, str]]:
            info = s.info_len(side)
            return {i: (i - info, side) for i in s.role_positions(side, "common") if i >= info}

        # Every variable but Z is a column subset of one of these per-pair
        # packed codes.
        self._tx = ((tx, s.syndrome_len("x")), padded("x"))
        self._ty = ((ty, s.syndrome_len("y")), padded("y"))
        # Raw parity XOR per pad column (the pads cancel in the pair): both
        # codes end in the parity bits, so column c is one bit of tx ^ ty.
        raw = tx ^ ty
        self._xor_col = {
            c: ((raw >> (s.parity_len - 1 - c)) & 1).astype(np.uint8)
            for c in range(s.parity_len)
        }
        self._entropy_memo: dict[tuple, float] = {}
        self.entropy_calls = 0
        self.entropy_sets = 0

        self._x_var = _Var(("X",), [], (t.x, self.K), range(self.K))
        self._y_var = _Var(("Y",), [], (t.y, self.K), range(self.K))

        self.h_x_total = self._set_entropy([self._x_var])
        self.h_y_total = self._set_entropy([self._y_var])
        self.h_xy_total = self._set_entropy([self._x_var, self._y_var])

        # Private/common channel-portion entropies used by the bound right side:
        # the private portion of one syndrome, and the common portion taken
        # jointly across both syndromes (the common information is shared).
        self.h_private_x = self._set_entropy([self._side_var("x", "private")])
        self.h_private_y = self._set_entropy([self._side_var("y", "private")])
        self.h_common = self._set_entropy(
            [self._side_var("x", "common"), self._side_var("y", "common")]
        )

    # -- low-level -----------------------------------------------------------

    def _side_var(self, side: str, role: str) -> _Var:
        return self._syndrome_var(side, self.scheme.role_positions(side, role))

    def _syndrome_var(self, side: str, positions: Sequence[int]) -> _Var:
        source, masked = self._tx if side == "x" else self._ty
        cols = [i for i in positions if i not in masked]
        refs = [masked[i] for i in positions if i in masked]
        return _Var((side, tuple(cols)), refs, source, cols)

    def _set_entropy(self, vars: Sequence[_Var]) -> float:
        """Entropy of the joint of several variables: the kernel entropy of
        their deterministic chunks and the raw-parity XOR of every pad column
        touched on both sides, plus one bit per touched pad column.

        Only the kernel value is memoised.  Its key lists, in the order
        given, which is also the packing order, the keys of the variables
        that have a deterministic column, and the pad columns touched on
        both sides.  A variable with no deterministic column (the ``mu = 0``
        Z prefix, a syndrome read whose bits are all padded) packs nothing,
        and a pad column read on one side changes only the bonus, which is
        added on every call.  So a hit returns the very float a fresh
        computation would, and chunks are packed only on a miss, for the
        support table's ``entropy``."""
        self.entropy_calls += 1
        touched: dict[int, set[str]] = {}
        for v in vars:
            for col, side in v.masked:
                touched.setdefault(col, set()).add(side)
        bonus = 0.0
        both = []
        for col, sides in sorted(touched.items()):
            bonus += 1.0
            if len(sides) == 2:
                both.append(col)
        key = (tuple(v.key for v in vars if v.width), tuple(both))
        value = self._entropy_memo.get(key)
        if value is None:
            # Packing order: the pair chunks before Z, Z, the pair chunks
            # after it, then the XOR of every pad column read on both sides.
            head: list[tuple[np.ndarray, int]] = []
            tail: list[tuple[np.ndarray, int]] = []
            mu = 0
            for v in vars:
                if v.source is not None:
                    (tail if mu else head).extend(v.chunks)
                elif v.width:
                    mu = v.width
            (tail if mu else head).extend((self._xor_col[col], 1) for col in both)
            value = self._table.entropy(head, mu, tail)
            self._entropy_memo[key] = value
            self.entropy_sets += 1
        return value + bonus

    def _pattern_vars(self, pattern: WiretapPattern) -> dict[str, _Var]:
        pattern.validate(self.scheme, self.K)
        tx = self._syndrome_var("x", sorted(pattern.tx_positions))
        ty = self._syndrome_var("y", sorted(pattern.ty_positions))
        z = _Var(("z", pattern.mu), [], None, range(pattern.mu))
        return {"tx": tx, "ty": ty, "z": z, "x": self._x_var, "y": self._y_var}

    def evaluation(self, pattern: WiretapPattern) -> "_Evaluation":
        return _Evaluation(self, self._pattern_vars(pattern))

    # -- public operations -------------------------------------------------------

    def exact_leakage(self, target: str, pattern: WiretapPattern) -> LeakageValue:
        """L = H(target^K) - H(target^K | observed bits), exact."""
        tgt = _target_vars(target)
        ev = self.evaluation(pattern)
        total = ev.H(*tgt) + ev.H("tx", "ty", "z") - ev.H(*tgt, "tx", "ty", "z")
        if total < -DELTA:
            raise InternalConsistencyError(f"negative leakage {total!r}")
        total = max(0.0, total)
        return LeakageValue(target=target, total_bits=total, per_symbol_bits=total / self.K)

    def bound_report(self, target: str, pattern: WiretapPattern) -> BoundReport:
        """Exact leakage against the common/private-portion upper bound.

        The right side combines the nine observation mutual-information
        terms with the entropy of the target's private channel portion and
        the joint entropy of the common portions of both syndromes.
        """
        return self._check(self.evaluation(pattern), target)[1]

    def pattern_checks(self, pattern: WiretapPattern) -> "PatternCheck":
        """Identity residuals and bound reports for both targets, sharing one
        entropy cache; the workhorse of the sweep commands."""
        ev = self.evaluation(pattern)
        residual_y, bound_y = self._check(ev, "y")
        residual_x, bound_x = self._check(ev, "x")
        return PatternCheck(pattern, residual_y, residual_x, bound_y, bound_x)

    def _check(self, ev: "_Evaluation", t: str) -> tuple[float, BoundReport]:
        """Identity residual and bound report of target ``t`` from one pass
        over the nine mutual-information terms of the chain-rule expansion of
        H(t | T_Y, T_X, Z^mu), each computed from exact joint entropies."""
        if t not in ("x", "y"):
            raise UsageError(f"bound target must be 'x' or 'y', got {t!r}")
        terms = {
            "i(ty;t)": ev.H("ty") + ev.H(t) - ev.H("ty", t),
            "i(tx;t)": ev.H("tx") + ev.H(t) - ev.H("tx", t),
            "i(ty;tx|t)": ev.H("ty", t) + ev.H("tx", t) - ev.H("ty", "tx", t) - ev.H(t),
            "i(t;z)": ev.H(t) + ev.H("z") - ev.H(t, "z"),
            "i(ty;z|t)": ev.H("ty", t) + ev.H("z", t) - ev.H("ty", "z", t) - ev.H(t),
            "i(tx;z|t,ty)": ev.H("tx", t, "ty")
            + ev.H("z", t, "ty")
            - ev.H("tx", "z", t, "ty")
            - ev.H(t, "ty"),
            "i(tx;ty)": ev.H("tx") + ev.H("ty") - ev.H("tx", "ty"),
            "i(z;tx)": ev.H("z") + ev.H("tx") - ev.H("z", "tx"),
            "i(ty;z|tx)": ev.H("ty", "tx") + ev.H("z", "tx") - ev.H("ty", "z", "tx") - ev.H("tx"),
        }
        h_t, h_obs, h_t_obs = ev.H(t), ev.H("tx", "ty", "z"), ev.H(t, "tx", "ty", "z")
        h_private = self.h_private_x if t == "x" else self.h_private_y
        h_target = self.h_x_total if t == "x" else self.h_y_total
        # Left to right, so each sum rounds as its written-out form would.
        recon = h_t
        rhs_total = h_private + self.h_common - h_target
        for name, sign in _TERM_SIGNS.items():
            recon -= sign * terms[name]
            rhs_total += sign * terms[name]
        report = BoundReport(
            target=t,
            lhs_bits=max(0.0, h_t + h_obs - h_t_obs) / self.K,
            rhs_bits=rhs_total / self.K,
            term_breakdown={
                **terms,
                "h(v_private)": h_private,
                "h(v_common)": self.h_common,
                "h(target_seq)": h_target,
            },
        )
        return abs(h_t_obs - h_obs - recon), report

    def minmax_oracle(self, mu_tx: int, mu_ty: int) -> tuple[float, float]:
        """Min and max joint-target leakage over all position subsets of the
        given sizes (mu = 0); the brute-force ground truth for the curves."""
        lx, ly = self.scheme.syndrome_len("x"), self.scheme.syndrome_len("y")
        if not 0 <= mu_tx <= lx or not 0 <= mu_ty <= ly:
            raise UsageError(f"subset sizes must lie in 0..{lx} / 0..{ly}")
        lo, hi = float("inf"), float("-inf")
        for tx_sel in itertools.combinations(range(lx), mu_tx):
            for ty_sel in itertools.combinations(range(ly), mu_ty):
                val = self.exact_leakage(
                    "xy", WiretapPattern(frozenset(tx_sel), frozenset(ty_sel), 0)
                ).total_bits
                lo, hi = min(lo, val), max(hi, val)
        return lo, hi


@dataclass(frozen=True)
class PatternCheck:
    """Joint result of the identity and bound checks for one pattern."""

    pattern: WiretapPattern
    residual_y: float
    residual_x: float
    bound_y: BoundReport
    bound_x: BoundReport


class _Evaluation:
    """Entropy calculator for one pattern.  Its cache by variable names sits
    in front of the analyzer's memo, so a repeated ``H`` call builds no key."""

    def __init__(self, engine: WiretapAnalyzer, vars: dict[str, _Var]):
        self._engine = engine
        self._vars = vars
        self._cache: dict[tuple[str, ...], float] = {}

    def H(self, *names: str) -> float:
        key = tuple(sorted(names))
        if key not in self._cache:
            self._cache[key] = self._engine._set_entropy([self._vars[n] for n in key])
        return self._cache[key]


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
    bound at the maximum-leakage extremal pattern."""
    rows = []
    s = analyzer.scheme
    for mu_tx in range(mu_tx_max + 1):
        for mu_ty in range(mu_ty_max + 1):
            formula = minmax_curves(s, mu_tx, mu_ty)
            omin, omax = analyzer.minmax_oracle(mu_tx, mu_ty)
            bound = analyzer.bound_report("y", extremal_max_pattern(mu_tx, mu_ty))
            rows.append(
                CurveRow(
                    mu_tx=mu_tx,
                    mu_ty=mu_ty,
                    mu_z=0,
                    formula_min=float(formula.min_bits),
                    formula_max=float(formula.max_bits_corrected),
                    formula_max_verbatim=float(formula.max_bits_verbatim),
                    oracle_min=omin,
                    oracle_max=omax,
                    bound_lhs=bound.lhs_bits,
                    bound_rhs=bound.rhs_bits,
                    bound_holds=bound.holds,
                    variant_match=_match_label(formula, omax),
                )
            )
    return rows


def z_trace_rows(
    analyzer: WiretapAnalyzer,
    mu_values: Sequence[int],
    h_xy: Optional[float] = None,
    h_x_given_y: Optional[float] = None,
) -> list[CurveRow]:
    """Leakage-from-Z trace: closed form vs. enumeration at each mu.

    The sequence-level constants default to the model's exact values.
    """
    if h_xy is None:
        h_xy = analyzer.h_xy_total
    if h_x_given_y is None:
        h_x_given_y = analyzer.h_xy_total - analyzer.h_y_total
    rows = []
    for mu in mu_values:
        formula = z_mu_leakage(mu, analyzer.K, h_xy, h_x_given_y)
        pattern = WiretapPattern(frozenset(), frozenset(), mu)
        oracle = analyzer.exact_leakage("xy", pattern).total_bits
        bound = analyzer.bound_report("y", pattern)
        match = "both" if abs(formula - oracle) <= DELTA else "neither"
        rows.append(
            CurveRow(
                mu_tx=0,
                mu_ty=0,
                mu_z=mu,
                formula_min=formula,
                formula_max=formula,
                formula_max_verbatim=formula,
                oracle_min=oracle,
                oracle_max=oracle,
                bound_lhs=bound.lhs_bits,
                bound_rhs=bound.rhs_bits,
                bound_holds=bound.holds,
                variant_match=match,
            )
        )
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
