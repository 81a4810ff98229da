"""Exact information-leakage analysis for correlated sources over an
eavesdropped noiseless channel: a syndrome-partition codec, leakage bounds
and curves, and one-time-pad cipher rate regions, all evaluated by exact
enumeration at desk scale."""

from .cipher import (
    BRANCHES,
    CASES,
    CipherScheme,
    Constraint,
    RegionQuery,
    RegionVerdict,
    SecurityMeasurement,
    alpha_defaults,
    derive_key_sizes,
    desk_scheme,
    guaranteed_level,
    measure_security,
    region_membership,
    security_verdict,
)
from .errors import (
    CapacityError,
    DomainError,
    InternalConsistencyError,
    ToolkitError,
    UsageError,
    ValidationError,
)
from .gf2 import Gf2Matrix, rank
from .info import InfoSummary, JointPmf
from .leakage import (
    BoundColumns,
    CurveRow,
    FormulaMinMax,
    WiretapAnalyzer,
    WiretapPattern,
    extremal_max_pattern,
    grid_curve_rows,
    minmax_curves,
    sample_patterns,
    z_mu_leakage,
    z_trace_rows,
)
from .seqmodel import SequenceModel, build_model, sequence_summary
from .swcodec import (
    ConditionRow,
    DecodeResult,
    PartitionScheme,
    Syndrome,
    decode_ambiguity_rate,
    encode_x,
    encode_y,
    joint_decode,
    prototype_condition_report,
    reference_scheme,
)

__version__ = "0.1.0"
