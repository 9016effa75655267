"""Exception types raised by validation and numerical guards."""

from __future__ import annotations


class OptFalsifyError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(OptFalsifyError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotHermitianError(OptFalsifyError, ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(OptFalsifyError, ValueError):
    """Matrix has a significantly negative eigenvalue."""


class EigConvergenceError(OptFalsifyError, RuntimeError):
    """The LAPACK eigensolver failed to converge."""


class NumericalContaminationError(OptFalsifyError, ArithmeticError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class NotDeterministicError(OptFalsifyError, ValueError):
    """Operation requires a normalized (trace-one / probability-one) object."""


class PurificationMismatchError(OptFalsifyError, ValueError):
    """Two purifications do not reduce to the same marginal state."""


class NotCompressibleError(OptFalsifyError, ValueError):
    """State already has full support; no smaller face exists."""


class NotTracePreservingError(OptFalsifyError, ValueError):
    """Channel is not trace-preserving where trace preservation is required."""


class UnfalsifiableHypothesisError(OptFalsifyError, ValueError):
    """Hypothesis admits no falsifier (support is the whole space)."""


class OutOfRangeError(OptFalsifyError, ValueError):
    """A parameter or matrix entry lies outside its admissible range."""


class SchemaError(OptFalsifyError, ValueError):
    """JSON document does not match the expected schema."""
