"""One-time-pad cipher over the syndrome portions, and rate-region checks.

A codeword sends four portions of the two syndromes, each read as an
integer in its index space I_M = {0, .., M-1}, M = 2**(portion width):
``x1`` and ``cx``, the private and common bits of T_X, and ``y1`` and
``cy``, those of T_Y.  A branch (``BRANCHES``) names the key that pads each
portion, by addition modulo the portion's size; a key ``k<portion>`` is as
wide as the portion it is named after.  The ``reused-pad`` branch masks
X's private portion with *Y's* private key, so the cost of the shared pad
can be measured rather than argued about.

Security levels are exact conditional entropies per symbol over the source
support.  Every uniform key is folded in by one rule, as the leakage
analyzer does for its shared parity pad: conditioned on the ciphertext of
the portion it is named after, a key leaves only shifted differences of
portions visible.  A key no narrower than any portion it masks costs four
class entropies; a narrower key of size m is averaged over its m
ciphertexts, at four class entropies each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from math import fsum, log2
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, UsageError, ValidationError, float_field
from .seqmodel import InfoSummary, SequenceModel
from .swcodec import PartitionScheme, require_code_model, syndrome_portions

if TYPE_CHECKING:
    import numpy as np

#: Empirical desk-scale slack when comparing measured levels to targets.
SECURITY_EPS = 0.05

#: Security cases: which uncertainty the construction must keep high.
CASES = ("joint", "individual", "y-only")

#: Codeword portion -> the key that pads it (None = sent in the clear).
BRANCHES: dict[str, dict[str, Optional[str]]] = {
    "none": {"x1": None, "cx": None, "y1": None, "cy": None},
    "common-only": {"x1": None, "cx": "kcx", "y1": None, "cy": None},
    "reused-pad": {"x1": "ky1", "cx": "kcx", "y1": "ky1", "cy": "kcy"},
    "independent-pads": {"x1": "kx1", "cx": "kcx", "y1": "ky1", "cy": "kcy"},
}

# -- region predicates ------------------------------------------------------------


@dataclass(frozen=True)
class RegionQuery:
    """A rate point plus security targets and the per-symbol side constants."""

    r_x: float
    r_y: float
    r_kx: float
    r_ky: float
    h_x: float = 0.0
    h_y: float = 0.0
    h_xy: float = 0.0
    alpha_cx: float = 0.0
    alpha_cy: float = 0.0
    alpha_z: float = 0.0
    i_xyz: float = 0.0

    def __post_init__(self):
        for name in ("r_x", "r_y", "r_kx", "r_ky", "h_x", "h_y", "h_xy"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    @classmethod
    def from_json(cls, data: dict) -> "RegionQuery":
        if not isinstance(data, dict):
            raise ValidationError(f"region query must be a JSON object, got {data!r}")
        values = {k: float_field(v, k) for k, v in data.items()}
        try:
            return cls(**values)
        except TypeError as exc:
            raise ValidationError(f"bad region query: {exc}") from exc


#: The report column of each region constraint's verdict, in report order.
REGION_COLUMNS = ("rate_x_ok", "rate_y_ok", "rate_sum_ok", "key_sum_ok")


@dataclass(frozen=True)
class Constraint:
    """A region inequality ``lhs >= rhs``, its display name and report column."""

    column: str
    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return bool(self.lhs >= self.rhs)


@dataclass(frozen=True)
class RegionVerdict:
    status: str  # "inside" | "outside" | "out_of_domain"
    constraints: tuple[Constraint, ...]
    violated: tuple[str, ...]
    domain_note: str = ""


def region_membership(q: RegionQuery, case: str, info: InfoSummary) -> RegionVerdict:
    """Check a rate point against the admissible region for a security case.

    Cases: "joint" keys against the joint target h_xy; "individual" keys
    against max(h_x, h_y); "y-only" is the individual case with the X
    target forced to zero.  Precondition violations on the targets report
    "out_of_domain" rather than outside.
    """
    if case not in CASES:
        raise UsageError(f"unknown case {case!r}; expected one of {CASES}")
    if case == "y-only":
        return region_membership(replace(q, h_x=0.0), "individual", info)

    if case == "joint":
        limit = guaranteed_level(info.h_xy, q.alpha_cx, q.alpha_cy, q.i_xyz)
        if not 0 <= q.h_xy <= limit + 1e-12:
            return RegionVerdict(
                status="out_of_domain",
                constraints=(),
                violated=(),
                domain_note=f"h_xy={q.h_xy:.6g} outside 0..{limit:.6g}",
            )
        key_sum = ("r_kx + r_ky >= h_xy", q.r_kx + q.r_ky, q.h_xy)
    else:
        limit_x = info.h_x - q.alpha_cx
        limit_y = info.h_y - q.alpha_cy
        if not 0 <= q.h_x <= limit_x + 1e-12 or not 0 <= q.h_y <= limit_y + 1e-12:
            return RegionVerdict(
                status="out_of_domain",
                constraints=(),
                violated=(),
                domain_note=(
                    f"h_x={q.h_x:.6g} outside 0..{limit_x:.6g} or "
                    f"h_y={q.h_y:.6g} outside 0..{limit_y:.6g}"
                ),
            )
        key_sum = ("r_kx + r_ky >= max(h_x, h_y)", q.r_kx + q.r_ky, max(q.h_x, q.h_y))

    inequalities = (
        ("r_x >= h(x|y)", q.r_x, info.h_x_given_y),
        ("r_y >= h(y|x)", q.r_y, info.h_y_given_x),
        ("r_x + r_y >= h(x,y)", q.r_x + q.r_y, info.h_xy),
        key_sum,
    )
    constraints = tuple(
        Constraint(column, *row) for column, row in zip(REGION_COLUMNS, inequalities, strict=True)
    )
    violated = tuple(c.name for c in constraints if not c.satisfied)
    return RegionVerdict(
        status="inside" if not violated else "outside",
        constraints=constraints,
        violated=violated,
    )


def security_verdict(measured: float, target: float) -> bool:
    """Desk-scale check that a measured level meets its target within the
    empirical slack ``SECURITY_EPS``; the raw values are reported alongside,
    never replaced."""
    return bool(measured >= target - SECURITY_EPS)


def guaranteed_level(h_target: float, alpha_cx: float, alpha_cy: float, i_xyz: float) -> float:
    """The level a keyed construction guarantees once the wiretapped source's
    correlated portions are discounted: h_target - a_cx - a_cy + i(x;y;z)."""
    return h_target - alpha_cx - alpha_cy + i_xyz


# -- exact security measurement -----------------------------------------------


@dataclass(frozen=True)
class SecurityMeasurement:
    """Measured security levels, bits per symbol."""

    h_x_hat: float
    h_y_hat: float
    h_xy_hat: float
    key_bits: float  # total key material, bits per symbol


def measure_security(
    s: PartitionScheme, model: SequenceModel, branch: str, mu: int = 0
) -> SecurityMeasurement:
    """Exact per-symbol conditional entropies of the sources given both
    codewords of ``branch`` and the leaked Z prefix of ``mu`` columns.

    One rule folds every key.  A key k of size m shows its lead portion
    ``own``, the first portion it masks that is m wide, as u = (own + k) mod
    m, uniform and independent of the sources, and every other portion p it
    masks, of size m', as (p + (u - own) mod m) mod m'.  Given u the
    codewords are a function of the sources, so each level is the mean over
    u of class entropies.  When m' divides m for every such p, the terms are
    shifts of the term at u = 0, and that one term is taken: four class
    entropies.  A key narrower than a portion it masks is averaged over its
    m values of u: m x 4 class entropies.
    """
    from .info import code_entropy, pack_chunks

    if branch not in BRANCHES:
        raise UsageError(f"unknown branch {branch!r}; expected one of {sorted(BRANCHES)}")
    require_code_model(s, model, "measurement")
    if not 0 <= mu <= model.K:
        raise DomainError(f"mu must lie in 0..{model.K}, got {mu}")

    K = model.K
    # The rows collapsed to what the measurement sees: (x, y, leaked z
    # prefix).  Unobserved z symbols only add multiplicity.
    x, y, z, probs = model.table.prefix_classes(mu)
    portions = syndrome_portions(s, x, y)

    # Alphabet size of every portion, in codeword order; a key k<portion>
    # is as wide as its portion.
    sizes = {c: 1 << width for c, (_, width) in portions.items()}
    assignment = BRANCHES[branch]
    key_sizes = {k: sizes[k[1:]] for k in sorted({k for k in assignment.values() if k})}
    # Each key's masked portions, lead first: stable, so the first portion
    # exactly as wide as the key leads.
    masked = {
        k: sorted((c for c in sizes if assignment[c] == k), key=lambda c: sizes[c] != m)
        for k, m in key_sizes.items()
    }
    averaged = [k for k, m in key_sizes.items() if any(sizes[c] > m for c in masked[k])]
    x_chunk, y_chunk = (x, K), (y, K)

    def levels(u: dict[str, int]) -> tuple[float, float, float]:
        """H(x | obs), H(y | obs) and H(x, y | obs) in bits, with each key's
        lead ciphertext at ``u`` (0 when absent)."""
        codes = {c: code for c, (code, _) in portions.items()}
        for key, (lead, *others) in masked.items():
            own = codes.pop(lead)
            for c in others:
                codes[c] = (codes[c] + (u.get(key, 0) - own) % key_sizes[key]) % sizes[c]
        obs = [(code, portions[c][1]) for c, code in codes.items()]
        obs.append((z, mu))

        def h(*targets: tuple[np.ndarray, int]) -> float:
            return code_entropy(pack_chunks(obs + list(targets), x.size), probs)

        h_obs = h()
        return h(x_chunk) - h_obs, h(y_chunk) - h_obs, h(x_chunk, y_chunk) - h_obs

    terms = [
        levels(dict(zip(averaged, u)))
        for u in product(*(range(key_sizes[k]) for k in averaged))
    ]
    h_x, h_y, h_xy = (fsum(t) / len(terms) / K for t in zip(*terms))
    key_bits = sum(log2(v) for v in key_sizes.values())
    return SecurityMeasurement(h_x_hat=h_x, h_y_hat=h_y, h_xy_hat=h_xy, key_bits=key_bits / K)
