"""Per-triple reference oracle for the tests.

The package computes every result from one numpy support table and encodes
words through the generator matrices ``G_X`` / ``G_Y``.  This module keeps a
second, independent route to the same numbers: a plain Python stream of
support triples, the paper's per-word syndrome formula ``P1^T a1 + q1``,
and a dictionary-based conditional entropy over observables of a triple.
The tests check the fast paths against it; nothing under ``src/`` imports
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log2
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from corrleak.errors import UsageError
from corrleak.gf2 import Gf2Matrix
from corrleak.info import ZERO_EPS
from corrleak.seqmodel import SequenceModel
from corrleak.swcodec import PartitionScheme, Syndrome

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


# -- the paper's per-word encoder ----------------------------------------------


def mat_vec_mul(m: Gf2Matrix, v: Iterable[int]) -> tuple[int, ...]:
    """XOR-accumulated product m @ v over GF(2)."""
    vec = np.asarray(list(v), dtype=np.uint8)
    if vec.ndim != 1 or vec.size != m.cols:
        raise UsageError(f"vector length {vec.size} does not match {m.cols} columns")
    if not np.all((vec == 0) | (vec == 1)):
        raise UsageError("vector entries must be 0 or 1")
    out = (m.cells @ vec.astype(np.int64)) % 2
    return tuple(int(b) for b in out)


def p1_t(s: PartitionScheme) -> Gf2Matrix:
    """Transposed a1-rows of the parity block ((n-k) x |a1|)."""
    return Gf2Matrix(s.parity_block.cells[list(s.x_segments["a1"]), :].T)


def p2_t(s: PartitionScheme) -> Gf2Matrix:
    """Transposed a2-rows of the parity block ((n-k) x |a2|)."""
    return Gf2Matrix(s.parity_block.cells[list(s.y_segments["a2"]), :].T)


def formula_encode_x(x: Iterable[int], s: PartitionScheme) -> Syndrome:
    """T_X: the v1 segment followed by P1^T a1 + q1."""
    bits = tuple(int(b) for b in x)
    a1 = [bits[p] for p in s.x_segments["a1"]]
    v1 = [bits[p] for p in s.x_segments["v1"]]
    q1 = [bits[p] for p in sorted(s.x_segments["q1"])]
    parity = [pa ^ qb for pa, qb in zip(mat_vec_mul(p1_t(s), a1), q1)]
    return Syndrome(bits=tuple(v1 + parity), info_len=len(v1), parity_len=s.parity_len)


def formula_encode_y(y: Iterable[int], s: PartitionScheme) -> Syndrome:
    """T_Y: the u2 segment followed by P2^T a2 + q2."""
    bits = tuple(int(b) for b in y)
    u2 = [bits[p] for p in s.y_segments["u2"]]
    a2 = [bits[p] for p in s.y_segments["a2"]]
    q2 = [bits[p] for p in sorted(s.y_segments["q2"])]
    parity = [pa ^ qb for pa, qb in zip(mat_vec_mul(p2_t(s), a2), q2)]
    return Syndrome(bits=tuple(u2 + parity), info_len=len(u2), parity_len=s.parity_len)


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
        bits = enc(getattr(t, side), s).bits
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
