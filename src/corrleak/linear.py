"""Binary-word arithmetic: Hamming balls and GF(2) spans of int masks.

A set of bit positions is one int mask, position p its bit ``1 << p``.
``ball_volume`` and ``xor_entropy`` charge their sums to the work budget
(``errors.check_work``) before they start.  This module loads no numpy.
"""

from __future__ import annotations

from itertools import combinations
from math import fsum, log2
from typing import Iterable

from .errors import check_work


def mask(positions: Iterable[int]) -> int:
    return sum(1 << int(p) for p in positions)


def bits(m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def ball(K: int, d: int) -> list[int]:
    """The V(K, d) masks of K-bit words of weight at most ``d``: by weight,
    then in ``itertools.combinations`` order of their positions."""
    return [mask(c) for w in range(min(d, K) + 1) for c in combinations(range(K), w)]


def ball_volume(K: int, d: int) -> int:
    """V(K, d), the K-bit words of weight at most ``d``: 2**K for d >= K, else d
    binomials C(K, i), each from the one before, after a charge of d x K steps."""
    if d >= K:
        return 1 << K
    check_work(d * K, f"the ball volume V({K}, {d})")
    total = term = 1
    for i in range(d):
        term = term * (K - i) // (i + 1)
        total += term
    return total


def xor_entropy(K: int, a: int, b: int) -> float:
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
    terms = (min(K, a + b) + 1) * (min(a, b) + 1)  # each on integers of up to 2K bits
    check_work(terms * K, f"H(e1 xor e2) at K={K}, d_xy={a}, d_yz={b}")
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
