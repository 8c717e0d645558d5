"""Secure coded distributed matrix multiplication over a prime field.

Two confidential matrices are split into blocks, padded with uniformly random
blocks, and encoded as two polynomials whose evaluations form per-worker
shares.  Each worker multiplies its pair of shares; the product of the
original matrices is interpolated from any large-enough subset of worker
results, and no coalition of up to a chosen number of workers learns anything
about the inputs.

Modules:
    field          exact arithmetic in GF(p)
    blocks         block matrices and their text files
    codec          layouts, exponent maps, augmentation, encode/decode,
                   exponent audit
    cluster_sim    straggler models and end-to-end simulated runs
    secrecy_audit  exhaustive information-theoretic leakage check
    cli            command-line front end
"""

from .errors import (
    BudgetExceeded,
    ConfigurationError,
    FieldMismatchError,
    NotEnoughResults,
    SgpdError,
    SingularSystemError,
)
from .field import PrimeField, is_prime
from .blocks import BlockMatrix, partition, read_matrix, write_matrix
from .codec import (
    AugmentationLayout,
    AugmentedPair,
    CodeGeometry,
    CodedShare,
    EncodingPlan,
    ExponentAuditReport,
    ExponentMap,
    LoadReport,
    WorkerResult,
    augment,
    build_plan,
    code_geometry,
    communication_load,
    decode,
    encode,
    exponent_audit,
    naive_secure_threshold,
    worker_compute,
    write_share,
)
from .cluster_sim import (
    FixedSet,
    LatencyModel,
    LatencySummary,
    RandomSubset,
    RunReport,
    latency_sweep,
    run,
)
from .secrecy_audit import (
    MAX_AUDIT_SIZE,
    AuditInstance,
    AuditVerdict,
    SubsetVerdict,
    audit_all_subsets,
    report_lines,
)

__all__ = [
    "AugmentationLayout",
    "AugmentedPair",
    "AuditInstance",
    "AuditVerdict",
    "BlockMatrix",
    "BudgetExceeded",
    "CodeGeometry",
    "CodedShare",
    "ConfigurationError",
    "EncodingPlan",
    "ExponentAuditReport",
    "ExponentMap",
    "FieldMismatchError",
    "FixedSet",
    "LatencyModel",
    "LatencySummary",
    "LoadReport",
    "MAX_AUDIT_SIZE",
    "NotEnoughResults",
    "PrimeField",
    "RandomSubset",
    "RunReport",
    "SgpdError",
    "SingularSystemError",
    "SubsetVerdict",
    "WorkerResult",
    "audit_all_subsets",
    "augment",
    "build_plan",
    "code_geometry",
    "communication_load",
    "decode",
    "encode",
    "exponent_audit",
    "is_prime",
    "latency_sweep",
    "naive_secure_threshold",
    "partition",
    "read_matrix",
    "report_lines",
    "run",
    "worker_compute",
    "write_matrix",
    "write_share",
]

__version__ = "0.1.0"
