"""Per-triple and per-symbol reference oracle for the tests.

The package computes every result from one numpy support table of integer
word codes and encodes words through the int column masks of the generator
matrices ``G_X`` / ``G_Y``.  This module keeps the scheme of the bundled
``reference_k7`` scenario (``reference_scheme``) and a second, independent
route to the same numbers: a plain Python stream of support triples, the
words of the table as digit arrays and their packing back into codes (``word_digits``,
``pack_bits``), the generator as a uint8 0/1 array (``generator_cells``)
with a Gaussian-elimination ``rank``, which the package's ``xor_basis``
must match, the paper's per-word syndrome formula ``P1^T a1 + q1``, a
dictionary-based conditional entropy over observables of a triple, a
three-sort conditional entropy over per-row codes, which the table's
``conditional_entropy`` must match bit for bit on an equal-weight law and
within 1e-12 of its exact (``math.fsum``) sum on a weighted law, and the
condition report's structural conditionals within 1e-12, the seven summary
entropies taken over the model's table (``table_entropies``), which the
structural ``sequence_entropies`` must match, the table decoder
(``table_decode``), which matches the syndromes of every pair of that
table and which the coset search of ``joint_decode`` must equal, the Shannon measures of
a per-symbol ``JointPmf`` tensor, which the per-symbol summary of an iid
sequence model must match, the per-codeword cipher over general index-space
sizes (``CipherSizes``), which the folded pads of ``measure_security`` must
agree with, the paper's key-size rule
(``derive_key_sizes``, ``alpha_defaults``), which no command reaches, the
paper's min/max leakage case table (``minmax_case_table``), which the
package's three expressions must equal, the
candidate counts behind the leakage of a Z prefix, the pattern sampler on
numpy's own generator (``sample_patterns``), and the analyzer one
pattern and one entropy set at a time (``ReferenceAnalyzer``), which the
package's block evaluator must equal float for float.  The tests check the
fast paths against it; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import fsum, log2
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from corrleak.cipher import BRANCHES, CASES
from corrleak.cli import load_scenario
from corrleak.errors import DomainError, InternalConsistencyError, UsageError, ValidationError
from corrleak.info import MASS_TOL, ZERO_EPS, JointPmf, column_code
from corrleak.leakage import DELTA
from corrleak.seqmodel import InfoSummary, SequenceModel
from corrleak.swcodec import PartitionScheme, support_syndromes

# -- support stream ----------------------------------------------------------


@dataclass(frozen=True)
class SequenceTriple:
    """One support point: three length-K symbol vectors and their probability."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]
    prob: float


def iter_support(model: SequenceModel) -> Iterator[SequenceTriple]:
    """Yield support triples with prob > 0 in lexicographic (y, x, z) order."""
    if model.kind == "hamming":
        yield from _iter_hamming(model)
    else:
        yield from _iter_iid(model)


def _iter_hamming(model: SequenceModel) -> Iterator[SequenceTriple]:
    p = 1.0 / model.support_size()
    for y in itertools.product((0, 1), repeat=model.K):
        x_ball = sorted_ball(y, model.d_xy_max)
        z_ball = sorted_ball(y, model.d_yz_max)
        for x in x_ball:
            for z in z_ball:
                yield SequenceTriple(x=x, y=y, z=z, prob=p)


def _iter_iid(model: SequenceModel) -> Iterator[SequenceTriple]:
    nx, ny, nz = model.alphabet_sizes
    probs = model.base.probs  # type: ignore[union-attr]
    for y in itertools.product(range(ny), repeat=model.K):
        for x in itertools.product(range(nx), repeat=model.K):
            for z in itertools.product(range(nz), repeat=model.K):
                p = 1.0
                for xi, yi, zi in zip(x, y, z):
                    p *= probs[xi, yi, zi]
                    if p <= 0.0:
                        break
                if p > ZERO_EPS:
                    yield SequenceTriple(x=x, y=y, z=z, prob=p)


def sorted_ball(center: Sequence[int], d: int) -> list[tuple[int, ...]]:
    """All vectors within Hamming distance d of center, in lexicographic order."""
    center = tuple(center)
    out = {center}
    for radius in range(1, d + 1):
        for flips in itertools.combinations(range(len(center)), radius):
            v = list(center)
            for i in flips:
                v[i] ^= 1
            out.add(tuple(v))
    return sorted(out)


def z_consistency_counts(K: int, mu: int) -> tuple[int, int, int]:
    """Candidate-sequence counts after observing the first ``mu`` symbols of Z.

    For the unit-distance binary model, the sequences within distance 1 of
    some completion of the observed prefix split into ``2**(K-mu)`` distinct
    sequences that repeat ``K-mu+1`` times and ``mu * 2**(K-mu)`` sequences
    occurring once.  Returns ``(repeated_count, repeated_multiplicity,
    singleton_count)``; the total with multiplicity is ``2**(K-mu) * (K+1)``.
    """
    if not 0 < mu <= K:
        raise DomainError(f"mu must lie in 1..K, got mu={mu}, K={K}")
    repeated = 1 << (K - mu)
    return repeated, K - mu + 1, mu * repeated


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


def word_digits(code: np.ndarray, base: int, K: int) -> np.ndarray:
    """(rows, K) uint8 symbols of base-``base`` word codes, position 0 most
    significant: the inverse of ``pack_bits``."""
    symbols = np.empty((code.size, K), dtype=np.uint8)
    rest = np.array(code, dtype=np.int64)
    for i in range(K - 1, -1, -1):
        symbols[:, i] = rest % base
        rest //= base
    return symbols


def support_arrays(model: SequenceModel) -> tuple[np.ndarray, ...]:
    """The support row by row, as (x, y, z, probs) arrays: rows with prob > 0
    in lexicographic (y, x, z) order, each word one int64 code (its symbols
    in base ``alphabet_sizes``, position 0 most significant, as
    ``pack_bits`` packs them).  Built independently of the model's table,
    with every word expanded onto every row."""
    K = model.K
    if model.kind == "hamming":
        ys = np.arange(1 << K, dtype=np.int64)
        weight = np.bitwise_count(ys)
        x_ball = np.sort(ys[:, None] ^ ys[weight <= model.d_xy_max], axis=1)
        z_ball = np.sort(ys[:, None] ^ ys[weight <= model.d_yz_max], axis=1)
        bx, bz = x_ball.shape[1], z_ball.shape[1]
        y = np.repeat(ys, bx * bz)
        x = np.repeat(x_ball.ravel(), bz)
        z = np.broadcast_to(z_ball[:, None, :], (ys.size, bx, bz)).ravel()
        return x, y, z, np.full(y.size, 1.0 / model.support_size())
    nx, _, nz = model.alphabet_sizes
    cell = np.transpose(model.base.probs, (1, 0, 2))  # type: ignore[union-attr]
    p = cell
    for _ in range(K - 1):
        p = np.multiply.outer(p, cell)
    # axes (y0, x0, z0, y1, ...) -> (y0..y_K-1, x0..x_K-1, z0..z_K-1)
    p = p.transpose([3 * i + v for v in range(3) for i in range(K)]).ravel()
    idx = np.flatnonzero(p > ZERO_EPS)
    NX, NZ = nx**K, nz**K
    return idx // NZ % NX, idx // (NX * NZ), idx % NZ, p[idx]


def code_conditional_entropy(
    target: np.ndarray, observed: np.ndarray, probs: np.ndarray, exact: bool = False
) -> float:
    """H(T | O) = -sum p(t,o) log2(p(t,o) / p(o)), in bits, over per-row codes
    of the target and the observation and one probability per row.

    Each code is ranked by its own ``np.unique``; the terms are summed one
    after another (``np.cumsum``) in the order of the sorted joint codes,
    with every mass summed over its rows in row order.  With ``exact`` the
    terms are summed by ``math.fsum`` instead, free of the sequential sum's
    rounding, which grows to about 1e-12 bits over the 2^15 rows of a
    weighted K=5 law."""
    _, o_inv = np.unique(observed, return_inverse=True)
    t_vals, t_inv = np.unique(target, return_inverse=True)
    joint, j_inv = np.unique(o_inv * t_vals.size + t_inv, return_inverse=True)
    p_joint = np.bincount(j_inv, weights=probs)
    p_obs = np.bincount(o_inv, weights=probs)[joint // t_vals.size]
    terms = p_joint * np.log2(p_joint / p_obs)
    return -fsum(terms) if exact else float(-np.cumsum(terms)[-1])


def support_digits(model: SequenceModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X, Y, Z) words of ``support_arrays(model)`` as (rows, K) digit arrays."""
    x, y, z, _ = support_arrays(model)
    nx, ny, nz = model.alphabet_sizes
    return word_digits(x, nx, model.K), word_digits(y, ny, model.K), word_digits(z, nz, model.K)


def table_entropies(model: SequenceModel) -> tuple[float, ...]:
    """H(X), H(Y), H(Z), H(X,Y), H(X,Z), H(Y,Z) and H(X,Y,Z) in bits, taken
    over the model's support table: the reference for the structural
    ``seqmodel.sequence_entropies``."""
    t = model.table
    K = model.K
    nx, ny, _ = model.alphabet_sizes
    X, Y = (t.x, (nx**K - 1).bit_length()), (t.y, (ny**K - 1).bit_length())
    Z, H = t.z_width, t.entropy
    return H([X]), H([Y]), H([], Z), H([X, Y]), H([X], Z), H([Y], Z), H([X, Y], Z)


def table_decode(
    model: SequenceModel, s: PartitionScheme
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The candidates of every syndrome pair over the model's support
    table: each (t_x, t_y) that some pair of the table encodes to, mapped
    to those (x, y) word codes in ascending order.  A syndrome pair that is
    missing has no candidate.  The reference for ``swcodec.joint_decode``."""
    x, y = model.table.x, model.table.y
    tx, ty = support_syndromes(s, x, y)
    groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for key, pair in zip(zip(tx.tolist(), ty.tolist()), zip(x.tolist(), y.tolist())):
        groups.setdefault(key, set()).add(pair)
    return {key: sorted(pairs) for key, pairs in groups.items()}


# -- dense GF(2) matrices -------------------------------------------------------


def reference_scheme() -> PartitionScheme:
    """The scheme of the bundled ``reference_k7`` scenario: a [7,4]
    systematic code with two-bit keyed/transmitted splits on each source."""
    return PartitionScheme.from_json(load_scenario("reference_k7")["scheme"])


def generator_cells(s: PartitionScheme) -> np.ndarray:
    """The scheme's generator rows as a k x n uint8 0/1 array."""
    return np.array([[int(ch) for ch in row] for row in s.generator], dtype=np.uint8)


def rank(cells: np.ndarray) -> int:
    """GF(2) rank of a 0/1 array via Gaussian elimination on uint8 rows."""
    work = np.array(cells, dtype=np.uint8)
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


def submatrix(m: np.ndarray, row_idx: Sequence[int], col_idx: Sequence[int]) -> np.ndarray:
    return m[np.ix_(list(row_idx), list(col_idx))]


#: One wiretap pattern: the T_X mask, the T_Y mask (bit ``1 << i`` reads
#: syndrome position i) and the Z prefix length mu.
Pattern = tuple[int, int, int]


def mask_of(positions: Iterable[int]) -> int:
    """The wiretap mask that reads the given syndrome positions."""
    return sum(1 << int(p) for p in set(positions))


def mask_bits(mask: int) -> tuple[int, ...]:
    """The syndrome positions that a wiretap mask reads, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def pattern(tx: Iterable[int] = (), ty: Iterable[int] = (), mu: int = 0) -> Pattern:
    """The pattern that reads the given T_X and T_Y positions and ``mu`` Z symbols."""
    return mask_of(tx), mask_of(ty), mu


def pattern_arrays(patterns: Iterable[Pattern]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch of pattern triples as the analyzer's int64 arrays ``(tx, ty, mu)``."""
    tx, ty, mu = np.array(list(patterns), dtype=np.int64).reshape(-1, 3).T
    return tx, ty, mu


def pattern_triples(tx, ty, mu) -> list[Pattern]:
    """The pattern triples of a batch of pattern arrays (or scalars) that broadcast."""
    columns = np.broadcast_arrays(*map(np.atleast_1d, (tx, ty, mu)))
    return list(zip(*(c.tolist() for c in columns)))


def sample_patterns(
    s: PartitionScheme, count: int, seed: int, mu_values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pattern sampler on numpy's own ``default_rng(seed)``, which
    ``leakage.sample_patterns`` reproduces without ``numpy.random``."""
    rng = np.random.default_rng(seed)
    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    masks = []
    for _ in range(count):
        a = int(rng.integers(0, lx + 1))
        b = int(rng.integers(0, ly + 1))
        tx = mask_of(rng.choice(lx, size=a, replace=False))
        masks.append((tx, mask_of(rng.choice(ly, size=b, replace=False))))
    mu = np.asarray(mu_values, dtype=np.int64)
    tx, ty = np.array(masks, dtype=np.int64).reshape(-1, 2).T
    return np.repeat(tx, mu.size), np.repeat(ty, mu.size), np.tile(mu, len(masks))


def is_subset_of(small: Pattern, big: Pattern) -> bool:
    """Every position ``small`` wiretaps, ``big`` wiretaps too."""
    return small[0] & ~big[0] == 0 and small[1] & ~big[1] == 0 and small[2] <= big[2]


# -- the paper's per-word encoder ----------------------------------------------


def mat_vec_mul(m: np.ndarray, v: Iterable[int]) -> tuple[int, ...]:
    """XOR-accumulated product m @ v over GF(2)."""
    vec = np.asarray(list(v), dtype=np.uint8)
    if vec.ndim != 1 or vec.size != m.shape[1]:
        raise UsageError(f"vector length {vec.size} does not match {m.shape[1]} columns")
    if not np.all((vec == 0) | (vec == 1)):
        raise UsageError("vector entries must be 0 or 1")
    out = (m.astype(np.int64) @ vec.astype(np.int64)) % 2
    return tuple(int(b) for b in out)


def parity_cells(s: PartitionScheme) -> np.ndarray:
    """The parity block P^T of the generator (k x (n-k))."""
    return generator_cells(s)[:, s.k :]


def p1_t(s: PartitionScheme) -> np.ndarray:
    """Transposed a1-rows of the parity block ((n-k) x |a1|)."""
    return parity_cells(s)[list(s.x_segments["a1"]), :].T


def p2_t(s: PartitionScheme) -> np.ndarray:
    """Transposed a2-rows of the parity block ((n-k) x |a2|)."""
    return parity_cells(s)[list(s.y_segments["a2"]), :].T


def formula_encode_x(x: Iterable[int], s: PartitionScheme) -> tuple[int, ...]:
    """The bits of T_X: the v1 segment followed by P1^T a1 + q1."""
    bits = tuple(int(b) for b in x)
    a1 = [bits[p] for p in s.x_segments["a1"]]
    v1 = [bits[p] for p in s.x_segments["v1"]]
    q1 = [bits[p] for p in sorted(s.x_segments["q1"])]
    parity = [pa ^ qb for pa, qb in zip(mat_vec_mul(p1_t(s), a1), q1)]
    return tuple(v1 + parity)


def formula_encode_y(y: Iterable[int], s: PartitionScheme) -> tuple[int, ...]:
    """The bits of T_Y: the u2 segment followed by P2^T a2 + q2."""
    bits = tuple(int(b) for b in y)
    u2 = [bits[p] for p in s.y_segments["u2"]]
    a2 = [bits[p] for p in s.y_segments["a2"]]
    q2 = [bits[p] for p in sorted(s.y_segments["q2"])]
    parity = [pa ^ qb for pa, qb in zip(mat_vec_mul(p2_t(s), a2), q2)]
    return tuple(u2 + parity)


def h_surgery_rank_term(s: PartitionScheme, parity_cols: Sequence[int]) -> int:
    """The min/max curves' rank term by column surgery on H = [P | I_(n-k)]:
    rank(H) minus the rank of H without the identity columns of
    ``parity_cols``."""
    h = np.hstack([parity_cells(s).T, np.eye(s.parity_len, dtype=np.uint8)])
    kept = np.delete(h, [s.k + c for c in parity_cols], axis=1)
    return rank(h) - rank(kept)


def minmax_case_table(
    s: PartitionScheme, mu_tx: int, mu_ty: int
) -> tuple[tuple[int, int, int], tuple[str, str]]:
    """The min/max leakage formulas as the paper's case table, written out
    case by case: ``(min_bits, max_bits_corrected, max_bits_verbatim)`` and
    the names of the maximum's and the minimum's case.  The maximum has four
    cases (which side passes its info length), the minimum two (whether a
    side passes the parity length).  The rank term is the column surgery
    ``h_surgery_rank_term``."""
    l_ix, l_iy, l_p = s.info_len("x"), s.info_len("y"), s.parity_len
    if mu_tx <= l_ix and mu_ty <= l_iy:
        max_case, x_par, y_par = "info only", 0, 0
        base_corr = base_verb = mu_tx + mu_ty
    elif mu_tx > l_ix and mu_ty > l_iy:
        max_case, x_par, y_par = "both over info", mu_tx - l_ix, mu_ty - l_iy
        aligned = min(x_par, y_par)
        base_corr = l_ix + l_iy + aligned
        base_verb = l_ix + l_iy + mu_tx + aligned
    elif mu_tx > l_ix:
        max_case, x_par, y_par = "x over info", mu_tx - l_ix, 0
        base_corr = base_verb = mu_ty + l_ix
    else:
        max_case, x_par, y_par = "y over info", 0, mu_ty - l_iy
        base_corr = base_verb = mu_tx + l_iy
    rt_max = h_surgery_rank_term(s, range(max(x_par, y_par)))

    px, py = min(mu_tx, l_p), min(mu_ty, l_p)
    if mu_tx <= l_p and mu_ty <= l_p:
        min_case, base_min = "parity only", max(0, mu_tx + mu_ty - l_p)
    else:
        min_case, base_min = "side past parity", mu_tx + mu_ty - l_p
    rt_min = h_surgery_rank_term(s, sorted(set(range(px)) | set(range(l_p - py, l_p))))
    return (base_min + rt_min, base_corr + rt_max, base_verb + rt_max), (max_case, min_case)


# -- dictionary equivocation ---------------------------------------------------


Observable = Callable[[SequenceTriple], Hashable]

_TARGETS = {
    "x": lambda t: t.x,
    "y": lambda t: t.y,
    "z": lambda t: t.z,
    "xy": lambda t: (t.x, t.y),
    "xz": lambda t: (t.x, t.z),
    "yz": lambda t: (t.y, t.z),
    "xyz": lambda t: (t.x, t.y, t.z),
}


def enumeration_equivocation(
    observed: Sequence[Observable], target: str, model: SequenceModel
) -> float:
    """H(target | observations) in bits, by exact enumeration of the support.

    ``observed`` is a sequence of deterministic functions of a support
    triple; an empty sequence gives the unconditional entropy.
    """
    if target not in _TARGETS:
        raise UsageError(f"unknown target {target!r}")
    pick = _TARGETS[target]
    cells: dict[Hashable, dict[Hashable, float]] = {}
    for t in iter_support(model):
        okey = tuple(fn(t) for fn in observed)
        cells.setdefault(okey, {})
        tkey = pick(t)
        cells[okey][tkey] = cells[okey].get(tkey, 0.0) + t.prob
    h = 0.0
    for groups in cells.values():
        mass = sum(groups.values())
        for p in groups.values():
            h -= p * log2(p / mass)
    return h


def syndrome_observable(s: PartitionScheme, side: str, positions=None) -> Observable:
    """Observable returning (selected bits of) T_X or T_Y for a support triple."""
    if side not in ("x", "y"):
        raise UsageError("side must be 'x' or 'y'")
    enc = formula_encode_x if side == "x" else formula_encode_y
    sel = None if positions is None else tuple(sorted(positions))

    def fn(t: SequenceTriple) -> Hashable:
        bits = enc(getattr(t, side), s)
        return bits if sel is None else tuple(bits[i] for i in sel)

    return fn


def z_prefix_observable(mu: int) -> Observable:
    """Observable exposing the first ``mu`` symbols of Z^K."""

    def fn(t: SequenceTriple) -> Hashable:
        return t.z[:mu]

    return fn


def bit_observable(which: str, positions: Sequence[int]) -> Observable:
    """Observable exposing raw source symbols at the given positions."""
    sel = tuple(positions)

    def fn(t: SequenceTriple) -> Hashable:
        vec = getattr(t, which)
        return tuple(vec[i] for i in sel)

    return fn


# -- the per-codeword cipher ----------------------------------------------------


@dataclass(frozen=True)
class CipherSizes:
    """Index-space sizes of the per-codeword cipher, in general: W_X and W_Y
    of ``m_x`` / ``m_y`` values, each split into a first sub-codeword of
    ``m_x1`` / ``m_y1`` values and the rest, the common spaces ``m_cx`` /
    ``m_cy``, and the key that pads each of x1, cx, y1 and cy.  A key
    ``k<component>`` has the size of that component."""

    m_x: int
    m_y: int
    m_x1: int
    m_y1: int
    m_cx: int
    m_cy: int
    key_assignment: Mapping[str, str | None] = field(
        default_factory=lambda: dict(BRANCHES["reused-pad"])
    )

    def key_sizes(self) -> dict[str, int]:
        """Size of every key the assignment uses, by key name."""
        used = sorted({k for k in self.key_assignment.values() if k is not None})
        return {k: getattr(self, f"m_{k[1:]}") for k in used}


def split_index(w: int, m1: int) -> tuple[int, int]:
    """Split an index into (w mod m1, (w - w mod m1) / m1); w = w1 + m1*w2."""
    if m1 < 1:
        raise UsageError(f"m1 must be >= 1, got {m1}")
    if w < 0:
        raise UsageError(f"index must be nonnegative, got {w}")
    w1 = w % m1
    return w1, (w - w1) // m1


def _masked(value: int, comp: str, keys: Mapping[str, int], scheme: CipherSizes, sign: int) -> int:
    key_name = scheme.key_assignment.get(comp)
    if key_name is None:
        return value
    size = {"x1": scheme.m_x1, "cx": scheme.m_cx, "y1": scheme.m_y1, "cy": scheme.m_cy}[comp]
    return (value + sign * int(keys.get(key_name, 0))) % size


def build_ciphertexts(
    wx: int,
    wy: int,
    wcx: int,
    wcy: int,
    keys: Mapping[str, int],
    scheme: CipherSizes,
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Assemble the two codewords (masked X split, clear X remainder, masked
    common X) and the Y analogue."""
    if not 0 <= wx < scheme.m_x:
        raise UsageError(f"wx={wx} outside index space of size {scheme.m_x}")
    if not 0 <= wy < scheme.m_y:
        raise UsageError(f"wy={wy} outside index space of size {scheme.m_y}")
    if not 0 <= wcx < scheme.m_cx:
        raise UsageError(f"wcx={wcx} outside index space of size {scheme.m_cx}")
    if not 0 <= wcy < scheme.m_cy:
        raise UsageError(f"wcy={wcy} outside index space of size {scheme.m_cy}")
    for key_name, size in scheme.key_sizes().items():
        if not 0 <= int(keys.get(key_name, 0)) < size:
            raise UsageError(f"key {key_name} outside index space of size {size}")

    wx1, wx2 = split_index(wx, scheme.m_x1)
    wy1, wy2 = split_index(wy, scheme.m_y1)
    w1 = (_masked(wx1, "x1", keys, scheme, +1), wx2, _masked(wcx, "cx", keys, scheme, +1))
    w2 = (_masked(wy1, "y1", keys, scheme, +1), wy2, _masked(wcy, "cy", keys, scheme, +1))
    return w1, w2


def decrypt_ciphertexts(
    w1: tuple[int, int, int],
    w2: tuple[int, int, int],
    keys: Mapping[str, int],
    scheme: CipherSizes,
) -> tuple[int, int, int, int]:
    """Invert ``build_ciphertexts``: returns (wx, wy, wcx, wcy)."""
    wx1 = _masked(w1[0], "x1", keys, scheme, -1)
    wcx = _masked(w1[2], "cx", keys, scheme, -1)
    wy1 = _masked(w2[0], "y1", keys, scheme, -1)
    wcy = _masked(w2[2], "cy", keys, scheme, -1)
    return wx1 + scheme.m_x1 * w1[1], wy1 + scheme.m_y1 * w2[1], wcx, wcy


# -- the paper's key-size rule ---------------------------------------------------
#
# Index spaces and keys sized from rates, for example m_cx = 2**(K * I(X;Y)).
# ``cipher-sim`` sizes every index space and key from the width of its
# syndrome portion instead, so the rate-derived sizes drive no measurement.


def _pow2_size(rate_bits: float, K: int, errors: dict[str, float], name: str) -> int:
    """Nearest integer >= 1 to 2**(K*rate), recording the rounding error."""
    exact = 2.0 ** (K * rate_bits)
    size = max(1, round(exact))
    errors[name] = abs(size - exact)
    return size


def derive_key_sizes(
    info: InfoSummary, K: int, h_target: float, case: str
) -> tuple[CipherSizes, dict[str, float]]:
    """Sub-codeword and key alphabet sizes for a security target, and the
    rounding error of every size taken from a rate.

    For targets above the shared information the first sub-codewords are
    split off and padded; at or below it only the common component carries a
    key.  ``h_target`` is the governing level: the joint target for the
    "joint" case, the larger individual target otherwise.
    """
    if case not in CASES:
        raise UsageError(f"unknown case {case!r}; expected one of {CASES}")
    limit = info.h_xy if case == "joint" else max(info.h_x, info.h_y)
    if not 0 <= h_target <= limit + 1e-12:
        raise DomainError(f"h_target={h_target} outside 0..{limit:.6g} for case {case!r}")

    errors: dict[str, float] = {}
    m_x = _pow2_size(info.h_x_given_y, K, errors, "m_x")
    m_y = _pow2_size(info.h_y_given_x, K, errors, "m_y")
    if h_target > info.i_xy:
        m_y1 = _pow2_size(h_target - info.i_xy, K, errors, "m_y1")
        m_x1 = min(_pow2_size(info.h_x_given_y, K, errors, "m_x1"), m_y1)
        m_cx = _pow2_size(info.i_xy, K, errors, "m_cx")
        m_cy = 1
        assignment = BRANCHES["reused-pad"]
    else:
        m_x1 = m_y1 = 1
        m_cx = _pow2_size(h_target, K, errors, "m_cx")
        m_cy = _pow2_size(max(0.0, info.i_xy - h_target), K, errors, "m_cy")
        assignment = BRANCHES["common-only"]
    scheme = CipherSizes(
        m_x=m_x,
        m_y=m_y,
        m_x1=m_x1,
        m_y1=m_y1,
        m_cx=m_cx,
        m_cy=m_cy,
        key_assignment=assignment,
    )
    return scheme, errors


def alpha_defaults(info: InfoSummary, mu: int, K: int) -> tuple[float, float, float]:
    """Per-symbol shares of the wiretapped source correlated with X, with Y,
    and private to Z: (mu/K) * (I(X;Z), I(Y;Z), H(Z|X,Y))."""
    if K < 1 or not 0 <= mu <= K:
        raise DomainError(f"need 0 <= mu <= K with K >= 1, got mu={mu}, K={K}")
    frac = mu / K
    h_z_given_xy = info.h_z - info.i_xz - info.i_yz + info.i_xyz
    return frac * info.i_xz, frac * info.i_yz, frac * h_z_given_xy


# -- Shannon measures of a per-symbol pmf tensor -------------------------------
#
# Mutual informations that are mathematically nonnegative are clamped to 0
# when they land within -NEG_TOL of zero; anything more negative raises
# ``InternalConsistencyError`` instead of being silently corrected.

#: Nonnegative quantities may undershoot zero by at most this much.
NEG_TOL = 1e-12

_AXES = {"x": 0, "y": 1, "z": 2}

VarSelector = Union[str, Sequence[str]]


def entropy(dist) -> float:
    """Shannon entropy -sum(p * log2 p) of a pmf, in bits.

    Accepts any array-like of probabilities (flattened before use).
    Raises ``ValidationError`` if an entry is negative or the total mass
    differs from 1 by more than ``MASS_TOL``.
    """
    p = np.asarray(dist, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("pmf is empty")
    if np.any(p < -ZERO_EPS):
        raise ValidationError(f"pmf has a negative entry (min {p.min():.3g})")
    total = float(p.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"pmf mass is {total!r}, expected 1 within {MASS_TOL}")
    live = p[p > ZERO_EPS]
    return float(-(live * np.log2(live)).sum())


def _resolve(vars: VarSelector) -> tuple[int, ...]:
    """Turn a selector like "x", "xy" or ("x", "y") into sorted axis indices."""
    if isinstance(vars, str):
        names: Iterable[str] = vars
    else:
        names = vars
    axes = []
    for name in names:
        key = name.lower()
        if key not in _AXES:
            raise UsageError(f"unknown variable {name!r}; expected one of x, y, z")
        axes.append(_AXES[key])
    if len(set(axes)) != len(axes):
        raise UsageError(f"selector {vars!r} repeats a variable")
    return tuple(sorted(axes))


def _clamp_nonneg(value: float, what: str) -> float:
    if value < -NEG_TOL:
        raise InternalConsistencyError(f"{what} = {value!r} is negative beyond tolerance")
    return max(0.0, value)


def marginal(joint: JointPmf, vars: VarSelector) -> np.ndarray:
    """Marginal pmf over the selected variables, axes in x, y, z order."""
    keep = _resolve(vars)
    drop = tuple(ax for ax in range(3) if ax not in keep)
    return joint.probs.sum(axis=drop)


def marginal_entropy(joint: JointPmf, vars: VarSelector) -> float:
    """H of the selected marginal, in bits."""
    return entropy(marginal(joint, vars))


def mutual_information(joint: JointPmf, a: VarSelector = "x", b: VarSelector = "y") -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), clamped to 0 near zero."""
    ax_a, ax_b = _resolve(a), _resolve(b)
    if set(ax_a) & set(ax_b):
        raise UsageError(f"selectors {a!r} and {b!r} overlap")
    value = (
        marginal_entropy(joint, a)
        + marginal_entropy(joint, b)
        - entropy(marginal(joint, tuple("xyz"[i] for i in sorted(ax_a + ax_b))))
    )
    return _clamp_nonneg(value, f"I({a};{b})")


def conditional_mutual_information(
    joint: JointPmf, a: VarSelector, b: VarSelector, given: VarSelector = ()
) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), clamped to 0 near zero.

    With an empty conditioning set this reduces to ``mutual_information``.
    """
    ax_a, ax_b, ax_c = _resolve(a), _resolve(b), _resolve(given)
    if (set(ax_a) & set(ax_b)) or (set(ax_a) & set(ax_c)) or (set(ax_b) & set(ax_c)):
        raise UsageError(f"selectors {a!r}, {b!r}, {given!r} must be disjoint")
    if not ax_c:
        return mutual_information(joint, a, b)

    def h(axes: tuple[int, ...]) -> float:
        return entropy(marginal(joint, tuple("xyz"[i] for i in sorted(axes))))

    value = h(ax_a + ax_c) + h(ax_b + ax_c) - h(ax_a + ax_b + ax_c) - h(ax_c)
    return _clamp_nonneg(value, f"I({a};{b}|{given})")


def triple_mutual_information(joint: JointPmf) -> float:
    """I(X;Y;Z) = I(X;Y) - I(X;Y|Z).  May be negative (XOR-style coupling)."""
    return mutual_information(joint, "x", "y") - conditional_mutual_information(
        joint, "x", "y", "z"
    )


def summarize(joint: JointPmf) -> InfoSummary:
    """Compute an ``InfoSummary``; conditionals are entropy differences so the
    chain-rule identities hold exactly."""
    h_x = marginal_entropy(joint, "x")
    h_y = marginal_entropy(joint, "y")
    h_z = marginal_entropy(joint, "z")
    h_xy = marginal_entropy(joint, "xy")
    return InfoSummary(
        h_x=h_x,
        h_y=h_y,
        h_z=h_z,
        h_xy=h_xy,
        h_x_given_y=h_xy - h_y,
        h_y_given_x=h_xy - h_x,
        i_xy=mutual_information(joint, "x", "y"),
        i_xz=mutual_information(joint, "x", "z"),
        i_yz=mutual_information(joint, "y", "z"),
        i_xyz=triple_mutual_information(joint),
    )


# -- per-set reference analyzer --------------------------------------------------

#: Signs of the nine mutual-information terms in the bound's right side; the
#: chain-rule reconstruction of H(target | T_Y, T_X, Z^mu) takes each with the
#: opposite sign.
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


class _Var:
    """Observation variable: deterministic columns plus padded-bit refs.

    ``masked`` holds the (pad column, side) reference of every padded bit;
    ``key`` names the deterministic part, the columns ``cols`` of the packed
    ``(code, width)`` pair ``source`` (None for Z, whose ``width`` columns
    are a prefix of the table's row Z code).  ``chunks`` selects the columns
    on first use."""

    def __init__(self, key: tuple, masked: list, source, cols: Sequence[int]):
        self.key = key
        self.masked = masked
        self.width = len(cols)
        self.cols = cols
        self.source = source

    @property
    def chunks(self) -> list:
        if not self.width:
            return []
        if not hasattr(self, "_chunks"):
            self._chunks = [(column_code(*self.source, self.cols), self.width)]
        return self._chunks


class _Evaluation:
    """Entropy calculator for one pattern, cached by sorted variable names."""

    def __init__(self, engine: "ReferenceAnalyzer", vars: dict):
        self._engine = engine
        self._vars = vars
        self._cache: dict[tuple[str, ...], float] = {}

    def H(self, *names: str) -> float:
        key = tuple(sorted(names))
        if key not in self._cache:
            self._cache[key] = self._engine._set_entropy([self._vars[n] for n in key])
        return self._cache[key]


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

    @property
    def holds(self) -> bool:
        return self.lhs_bits <= self.rhs_bits + DELTA


@dataclass(frozen=True)
class ReferenceCheck:
    """Identity residuals and bound reports of both targets for one pattern."""

    residual_y: float
    residual_x: float
    bound_y: BoundReport
    bound_x: BoundReport


def readable_memo(analyzer) -> dict[tuple, float]:
    """The kernel memo of a ``WiretapAnalyzer``, its int64 class keys
    decoded to the readable keys of ``ReferenceAnalyzer._entropy_memo``, in
    the analyzer's order.  A readable key is ``(parts, both)``: ``parts``
    lists ``("x", cols)`` and ``("y", cols)`` for the clear syndrome bits
    read, ``("X",)``, ``("Y",)`` and ``("z", mu)``, each only if present;
    ``both`` lists the pad columns read on both sides, which the key holds at
    the padded positions of its T_X field."""

    bits, pads, out = mask_bits, analyzer._pads, {}
    for key, value in analyzer._class_values.items():
        field = {n: key >> analyzer._shift[n] & (1 << w) - 1 for n, w in analyzer._width.items()}
        parts = [(side, cols) for side in "xy" if (cols := bits(field["t" + side] & ~pads[side]))]
        parts += [(name.upper(),) for name in "xy" if field[name]]
        parts += [("z", field["z"])] if field["z"] else []
        both = bits((field["tx"] & pads["x"]) >> analyzer.scheme.info_len("x"))
        out[(tuple(parts), both)] = value
    return out


class ReferenceAnalyzer:
    """The analyzer one pattern (a ``Pattern`` triple of ints) and one
    entropy set at a time: each set's kernel value memoised under the readable key that ``readable_memo``
    decodes the package's class keys to, one fresh bit added per pad column read, and each
    term written out as a sum of Python floats.  The package's block
    evaluator must equal it ``==`` on every float and in both counters
    (``entropy_calls``: distinct sets per pattern evaluation;
    ``entropy_sets``: kernel evaluations)."""

    def __init__(self, s: PartitionScheme, model: SequenceModel):
        self.scheme, self.model, self.K = s, model, model.K
        self._table = t = model.table
        tx, ty = support_syndromes(s, t.x, t.y)

        def padded(side: str) -> dict[int, tuple[int, str]]:
            info = s.info_len(side)
            return {i: (i - info, side) for i in s.role_positions(side, "common") if i >= info}

        self._tx = ((tx, s.syndrome_len("x")), padded("x"))
        self._ty = ((ty, s.syndrome_len("y")), padded("y"))
        raw = tx ^ ty
        self._xor_col = {
            c: ((raw >> (s.parity_len - 1 - c)) & 1).astype(np.uint8) for c in range(s.parity_len)
        }
        self._entropy_memo: dict[tuple, float] = {}
        self.entropy_calls = 0
        self.entropy_sets = 0
        self._x_var = _Var(("X",), [], (t.x, self.K), range(self.K))
        self._y_var = _Var(("Y",), [], (t.y, self.K), range(self.K))
        self.h_private_x = self._set_entropy([self._side_var("x", "private")])
        self.h_private_y = self._set_entropy([self._side_var("y", "private")])
        self.h_common = self._set_entropy(
            [self._side_var("x", "common"), self._side_var("y", "common")]
        )

    def _side_var(self, side: str, role: str) -> _Var:
        return self._syndrome_var(side, self.scheme.role_positions(side, role))

    def _syndrome_var(self, side: str, positions: Sequence[int]) -> _Var:
        source, masked = self._tx if side == "x" else self._ty
        cols = [i for i in positions if i not in masked]
        refs = [masked[i] for i in positions if i in masked]
        return _Var((side, tuple(cols)), refs, source, cols)

    def _set_entropy(self, vars: Sequence[_Var]) -> float:
        """Kernel entropy of the deterministic chunks and the raw-parity XOR
        of every pad column touched on both sides, plus one bit per touched
        pad column; only the kernel value is memoised."""
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
            head: list = []
            tail: list = []
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

    def _pattern_vars(self, pattern: Pattern) -> dict[str, _Var]:
        tx_mask, ty_mask, mu = pattern
        tx = self._syndrome_var("x", mask_bits(tx_mask))
        ty = self._syndrome_var("y", mask_bits(ty_mask))
        z = _Var(("z", mu), [], None, range(mu))
        return {"tx": tx, "ty": ty, "z": z, "x": self._x_var, "y": self._y_var}

    def evaluation(self, pattern: Pattern) -> _Evaluation:
        return _Evaluation(self, self._pattern_vars(pattern))

    def exact_leakage(self, target: str, pattern: Pattern) -> LeakageValue:
        tgt = {"x": ("x",), "y": ("y",), "xy": ("x", "y")}[target]
        ev = self.evaluation(pattern)
        total = ev.H(*tgt) + ev.H("tx", "ty", "z") - ev.H(*tgt, "tx", "ty", "z")
        if total < -1e-9:
            raise InternalConsistencyError(f"negative leakage {total!r}")
        total = max(0.0, total)
        return LeakageValue(target=target, total_bits=total, per_symbol_bits=total / self.K)

    def bound_report(self, target: str, pattern: Pattern) -> BoundReport:
        return self._check(self.evaluation(pattern), target)[1]

    def pattern_check(self, pattern: Pattern) -> ReferenceCheck:
        ev = self.evaluation(pattern)
        residual_y, bound_y = self._check(ev, "y")
        residual_x, bound_x = self._check(ev, "x")
        return ReferenceCheck(residual_y, residual_x, bound_y, bound_x)

    def _check(self, ev: _Evaluation, t: str) -> tuple[float, BoundReport]:
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
        recon = h_t
        rhs_total = h_private + self.h_common - h_t
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
                "h(target_seq)": h_t,
            },
        )
        return abs(h_t_obs - h_obs - recon), report

    def minmax_oracle(self, mu_tx: int, mu_ty: int) -> tuple[float, float]:
        lx, ly = self.scheme.syndrome_len("x"), self.scheme.syndrome_len("y")
        lo, hi = float("inf"), float("-inf")
        for tx_sel in itertools.combinations(range(lx), mu_tx):
            for ty_sel in itertools.combinations(range(ly), mu_ty):
                val = self.exact_leakage("xy", pattern(tx_sel, ty_sel)).total_bits
                lo, hi = min(lo, val), max(hi, val)
        return lo, hi
