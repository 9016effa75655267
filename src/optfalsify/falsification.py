"""Falsification tests for support hypotheses.

A test is a binary observation {F, F_?}: outcome F is impossible whenever
the hypothesis holds, so a single F click refutes it; F_? is inconclusive.
The most efficient falsifier for "the state is supported inside K" is the
projector onto the orthogonal complement of K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
    UnfalsifiableHypothesisError,
)
from .linalg import (
    _check_probability,
    _frozen_array,
    _hermitian,
    _is_zero,
    _negligible,
    as_matrix,
    projector_rank,
    support_projector,
)
from .quantum import Effect, QuantumState, born_probability


class TestOutcome(Enum):
    FALSIFIED = "FALSIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class SupportHypothesis:
    """Claim that a state's support lies inside the subspace projected onto
    by `projector`, idempotent within SPECTRUM_TOL.  Only proper subspaces
    are falsifiable, so a full-space projector is rejected outright."""

    projector: np.ndarray

    def __post_init__(self) -> None:
        p = as_matrix(self.projector, square=True, name="hypothesis projector")
        p = _hermitian(p[None], "hypothesis projector")[0]
        if not _is_zero(p @ p - p):
            raise OutOfRangeError("hypothesis projector must be idempotent")
        if p.shape[0] < 2:
            raise DimensionMismatchError(
                "support hypotheses need dimension >= 2"
            )
        if projector_rank(p) >= p.shape[0]:
            raise UnfalsifiableHypothesisError(
                "hypothesis subspace is the whole space; no falsifier exists "
                "(only the inconclusive test F = 0 remains)"
            )
        _frozen_array(self, "projector", p)

    @classmethod
    def from_state(cls, declared: QuantumState) -> "SupportHypothesis":
        """Hypothesis that a source emits states inside Supp(declared)."""
        return cls(support_projector(declared.spectrum))

    @property
    def dim(self) -> int:
        return self.projector.shape[0]

    @property
    def rank(self) -> int:
        return projector_rank(self.projector)


@dataclass(frozen=True, eq=False)
class FalsificationTest:
    """Binary observation {F, F_?}.  Only F is stored; F_? = I - F is
    derived when read.  A zero falsifier is rejected: such a test can never
    falsify anything."""

    falsifier: Effect

    def __post_init__(self) -> None:
        if self.falsifier.is_zero:
            raise OutOfRangeError("zero falsifier: the test can never falsify")

    @property
    def dim(self) -> int:
        return self.falsifier.dim

    @property
    def inconclusive(self) -> Effect:
        """The inconclusive effect F_? = I - F."""
        return Effect(np.eye(self.dim, dtype=complex) - self.falsifier.matrix)


def support_falsification_test(
    hypothesis: SupportHypothesis, efficiency: float = 1.0
) -> FalsificationTest:
    """F = efficiency * (I - P_K): supported in the complement of K, so it
    never fires on states obeying the hypothesis.  efficiency = 1 gives the
    most efficient test (largest falsification probability for every state).
    """
    eta = _check_probability("efficiency", efficiency)
    if eta == 0.0:
        raise OutOfRangeError(f"efficiency={efficiency!r} outside (0, 1]")
    eye = np.eye(hypothesis.dim, dtype=complex)
    falsifier = Effect(eta * (eye - hypothesis.projector))
    return FalsificationTest(falsifier)


def falsification_probability(test: FalsificationTest, rho: QuantumState) -> float:
    """Born probability of the falsifying outcome; any strictly positive
    value already refutes the hypothesis at the theory level.

    A probability at or below DEFAULT_RANK_TOL is returned as exactly 0.0.
    F <= I and tr rho <= 1 bound it by 1, so this is the relative cutoff at
    scale 1: rounding residue in an honest source's rate (up to ~3e-16 for
    declared coins) can then never fire a sampled trial.  The cutoff is
    fixed, so no caller can set it below that residue.
    """
    p = born_probability(rho, test.falsifier)
    return 0.0 if _negligible(p) else p


def run_test(
    test: FalsificationTest, rho: QuantumState, rng: np.random.Generator
) -> TestOutcome:
    """Single-shot Bernoulli sample of the test on a normalized state."""
    if not rho.deterministic:
        raise NotDeterministicError("run_test requires a trace-one state")
    p = falsification_probability(test, rho)
    if rng.random() < p:
        return TestOutcome.FALSIFIED
    return TestOutcome.INCONCLUSIVE

