"""One-time-pad cipher constructions over index spaces and rate-region checks.

Plaintexts are integers in index spaces I_M = {0, .., M-1}.  The pad
operation on an index space is addition modulo that component's alphabet
size, which is exactly invertible for any fixed key value.  The default
codeword layout masks the first sub-codeword of X with *Y's* key component
(the same pad also masks Y's first sub-codeword); an independent-pads
variant is available so the effect of the shared pad can be measured rather
than argued about.

Security levels are exact conditional entropies per symbol over the source
support.  Uniform keys are folded in analytically: a key whose masked
components all share its size leaves only their differences mod that size
visible, as the leakage analyzer does for its shared parity pad.  Only a key
that masks a component of another size (a shared pad over unequal sizes) is
enumerated together with the support rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, log2, prod
from typing import Mapping, Optional

import numpy as np

from .errors import CapacityError, DomainError, UsageError, ValidationError, float_field
from .info import InfoSummary, code_entropy, column_code, pack_chunks
from .seqmodel import SequenceModel
from .swcodec import PartitionScheme, require_code_model, support_syndromes

#: Empirical desk-scale slack when comparing measured levels to targets.
SECURITY_EPS = 0.05

#: Bytes that the (row, enumerated key) cell arrays of ``measure_security``
#: may take at their peak; a larger enumeration raises ``CapacityError``
#: before any cell array is allocated.
MEASURE_BYTES_GUARD = 1 << 32

#: Security cases: which uncertainty the construction must keep high.
CASES = ("joint", "individual", "y-only")

#: Codeword component -> key-component name (None = sent in the clear).
BRANCHES: dict[str, dict[str, Optional[str]]] = {
    "none": {"x1": None, "cx": None, "y1": None, "cy": None},
    "common-only": {"x1": None, "cx": "kcx", "y1": None, "cy": None},
    "reused-pad": {"x1": "ky1", "cx": "kcx", "y1": "ky1", "cy": "kcy"},
    "independent-pads": {"x1": "kx1", "cx": "kcx", "y1": "ky1", "cy": "kcy"},
}

_KEY_SIZES = {"kx1": "m_x1", "ky1": "m_y1", "kcx": "m_cx", "kcy": "m_cy"}


@dataclass(frozen=True)
class CipherScheme:
    """Alphabet sizes of the sub-codewords plus the key assignment."""

    m_x: int
    m_y: int
    m_x1: int
    m_y1: int
    m_cx: int
    m_cy: int
    key_assignment: Mapping[str, Optional[str]] = field(
        default_factory=lambda: dict(BRANCHES["reused-pad"])
    )

    def __post_init__(self):
        for name in ("m_x", "m_y", "m_x1", "m_y1", "m_cx", "m_cy"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        object.__setattr__(self, "key_assignment", dict(self.key_assignment))
        for comp, key in self.key_assignment.items():
            if comp not in ("x1", "cx", "y1", "cy"):
                raise ValidationError(f"unknown codeword component {comp!r}")
            if key is not None and key not in _KEY_SIZES:
                raise ValidationError(f"unknown key component {key!r}")

    @property
    def m_x2(self) -> int:
        """Ceiling split of the W_X index space by m_x1."""
        return ceil(self.m_x / self.m_x1)

    @property
    def m_y2(self) -> int:
        return ceil(self.m_y / self.m_y1)

    def key_sizes(self) -> dict[str, int]:
        """Alphabet size of every key component the assignment actually uses."""
        used = sorted({k for k in self.key_assignment.values() if k is not None})
        return {k: getattr(self, _KEY_SIZES[k]) for k in used}


def _branch_assignment(branch: str) -> dict[str, Optional[str]]:
    if branch not in BRANCHES:
        raise UsageError(f"unknown branch {branch!r}; expected one of {sorted(BRANCHES)}")
    return dict(BRANCHES[branch])


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
        for name in ("r_x", "r_y", "r_kx", "r_ky"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("h_x", "h_y", "h_xy"):
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


@dataclass(frozen=True)
class Constraint:
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
        limit = info.h_xy - q.alpha_cx - q.alpha_cy + q.i_xyz
        if not 0 <= q.h_xy <= limit + 1e-12:
            return RegionVerdict(
                status="out_of_domain",
                constraints=(),
                violated=(),
                domain_note=f"h_xy={q.h_xy:.6g} outside 0..{limit:.6g}",
            )
        key_constraint = Constraint("r_kx + r_ky >= h_xy", q.r_kx + q.r_ky, q.h_xy)
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
        key_constraint = Constraint(
            "r_kx + r_ky >= max(h_x, h_y)", q.r_kx + q.r_ky, max(q.h_x, q.h_y)
        )

    constraints = (
        Constraint("r_x >= h(x|y)", q.r_x, info.h_x_given_y),
        Constraint("r_y >= h(y|x)", q.r_y, info.h_y_given_x),
        Constraint("r_x + r_y >= h(x,y)", q.r_x + q.r_y, info.h_xy),
        key_constraint,
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


def desk_scheme(s: PartitionScheme, branch: str = "reused-pad") -> CipherScheme:
    """Cipher scheme whose index spaces are the syndrome bit patterns of the
    partition: W_X/W_Y are the private-role segments read as integers and
    W_CX/W_CY the common-role segments.  The first sub-codewords cover the
    whole private spaces (so the pads, when present, cover every private
    bit)."""
    m_x = 1 << len(s.role_positions("x", "private"))
    m_y = 1 << len(s.role_positions("y", "private"))
    return CipherScheme(
        m_x=m_x,
        m_y=m_y,
        m_x1=m_x,
        m_y1=m_y,
        m_cx=1 << len(s.role_positions("x", "common")),
        m_cy=1 << len(s.role_positions("y", "common")),
        key_assignment=_branch_assignment(branch),
    )


def measure_security(
    scheme: CipherScheme, model: SequenceModel, s: PartitionScheme, mu: int = 0
) -> SecurityMeasurement:
    """Exact per-symbol conditional entropies of the sources given both
    codewords and the leaked Z prefix.

    A key of size m whose masked components all have size m folds: the
    codewords then show only each component's difference from the first
    one, mod m, and the key's log2(m) fresh bits cancel between H(obs) and
    H(obs, target).  Any other key is enumerated together with the rows.
    """
    require_code_model(s, model, "measurement")
    if not 0 <= mu <= model.K:
        raise DomainError(f"mu must lie in 0..{model.K}, got {mu}")

    K = model.K
    # The rows collapsed to what the measurement sees: (x, y, leaked z
    # prefix).  Unobserved z symbols only add multiplicity.
    x, y, z, probs = model.table.prefix_classes(mu)
    tx, ty = support_syndromes(s, x, y)
    n_rows = x.size

    lx, ly = s.syndrome_len("x"), s.syndrome_len("y")
    wx, wcx = (column_code(tx, lx, s.role_positions("x", r)) for r in ("private", "common"))
    wy, wcy = (column_code(ty, ly, s.role_positions("y", r)) for r in ("private", "common"))
    if wx.size and (wx.max() >= scheme.m_x or wy.max() >= scheme.m_y):
        raise UsageError("scheme index spaces are smaller than the syndrome portions")
    if wcx.size and (wcx.max() >= scheme.m_cx or wcy.max() >= scheme.m_cy):
        raise UsageError("scheme common spaces are smaller than the syndrome portions")

    # Alphabet size of every codeword component, in codeword order.
    sizes = {
        "x1": scheme.m_x1, "x2": scheme.m_x2, "cx": scheme.m_cx,
        "y1": scheme.m_y1, "y2": scheme.m_y2, "cy": scheme.m_cy,
    }
    key_sizes = scheme.key_sizes()
    masked = {k: [c for c in sizes if scheme.key_assignment.get(c) == k] for k in key_sizes}
    enumerated = [k for k, m in key_sizes.items() if any(sizes[c] != m for c in masked[k])]
    key_space = prod(key_sizes[k] for k in enumerated)
    # Peak int64 words per cell: 17, plus two per enumerated key (its index
    # row and the temporaries of padding a component); tracemalloc reads
    # 16.1 and 18.1 words with none and one enumerated key.
    peak_bytes = 8 * (17 + 2 * len(enumerated)) * n_rows * key_space
    if peak_bytes > MEASURE_BYTES_GUARD:
        raise CapacityError(
            f"{n_rows} support rows x {key_space} enumerated keys need about "
            f"{peak_bytes >> 20} MiB of cell arrays, over the guard of "
            f"{MEASURE_BYTES_GUARD >> 20} MiB"
        )

    # Row index and enumerated key values of every (row, key tuple) cell.
    idx, *key_values = np.indices((n_rows, *(key_sizes[k] for k in enumerated))).reshape(
        len(enumerated) + 1, -1
    )
    pads = dict(zip(enumerated, key_values))
    weights = probs[idx] / key_space
    values = {
        "x1": wx[idx] % scheme.m_x1, "x2": wx[idx] // scheme.m_x1, "cx": wcx[idx],
        "y1": wy[idx] % scheme.m_y1, "y2": wy[idx] // scheme.m_y1, "cy": wcy[idx],
    }
    for key, comps in masked.items():
        if key in pads:
            for c in comps:
                values[c] = (values[c] + pads[key]) % sizes[c]
        else:
            first = values.pop(comps[0])
            for c in comps[1:]:
                values[c] = (values[c] - first) % sizes[c]

    obs = [(code, (sizes[c] - 1).bit_length()) for c, code in values.items()]
    obs.append((z[idx], mu))
    x_chunk = (x[idx], K)
    y_chunk = (y[idx], K)

    def h(*targets: tuple[np.ndarray, int]) -> float:
        return code_entropy(pack_chunks(obs + list(targets), idx.size), weights)

    h_obs = h()
    key_bits = sum(log2(v) for v in key_sizes.values())
    return SecurityMeasurement(
        h_x_hat=(h(x_chunk) - h_obs) / model.K,
        h_y_hat=(h(y_chunk) - h_obs) / model.K,
        h_xy_hat=(h(x_chunk, y_chunk) - h_obs) / model.K,
        key_bits=key_bits / model.K,
    )
