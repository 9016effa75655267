"""Finite-dimensional quantum and classical theory cores with falsification
tests, and a Monte Carlo harness for falsifying random generators."""

from .classical import (
    ClassicalState,
    classical_falsifier_exists,
    embed_classical,
)
from .coins import (
    BaselineVerdict,
    CampaignReport,
    NaryGenerator,
    classical_verdict,
    coin_falsification_test,
    count_classical_coin,
    count_generator,
    falsify_campaign,
    make_coin,
    make_nary,
)
from .errors import (
    DimensionMismatchError,
    EigConvergenceError,
    NotCompressibleError,
    NotDeterministicError,
    NotHermitianError,
    NotPSDError,
    NotTracePreservingError,
    NumericalContaminationError,
    OptFalsifyError,
    OutOfRangeError,
    PurificationMismatchError,
    SchemaError,
    UnfalsifiableHypothesisError,
)
from .falsification import (
    FalsificationTest,
    SupportHypothesis,
    TestOutcome,
    falsification_probability,
    run_test,
    support_falsification_test,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    HermitianEig,
    dagger,
    doubleket_to_mat,
    hermitian_eig,
    kernel_projector,
    mat_to_doubleket,
    partial_trace,
    support_projector,
    tensor,
)
from .postulates import PropertyResult, run_postulate_checks
from .quantum import (
    CanonicalForm,
    CompressionResult,
    Dilation,
    DiscriminationResult,
    Effect,
    KrausChannel,
    LocalFalsifier,
    Purification,
    QuantumState,
    apply_channel,
    born_probability,
    canonical_form,
    compress,
    connecting_unitary,
    dilate,
    local_falsifier,
    perfectly_discriminable,
    purify,
)

__version__ = "0.1.0"
