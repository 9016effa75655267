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
    DEFAULT_RANK_TOL,
    SPECTRUM_TOL,
    _hermitian,
    as_matrix,
    is_hermitian,
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
    label: str = ""

    def __post_init__(self) -> None:
        p = as_matrix(self.projector, square=True, name="hypothesis projector")
        if not is_hermitian(p):
            raise OutOfRangeError("hypothesis projector must be Hermitian")
        if float(np.max(np.abs(p @ p - p))) > SPECTRUM_TOL:
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
        p = _hermitian(p, "hypothesis projector")
        p.setflags(write=False)
        object.__setattr__(self, "projector", p)

    @classmethod
    def from_state(cls, declared: QuantumState, label: str = "") -> "SupportHypothesis":
        """Hypothesis that a source emits states inside Supp(declared)."""
        return cls(
            projector=support_projector(declared.spectrum),
            label=label or "support of declared state",
        )

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
    hypothesis_label: str = ""

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
    if not 0.0 < efficiency <= 1.0:
        raise OutOfRangeError(f"efficiency {efficiency!r} outside (0, 1]")
    eye = np.eye(hypothesis.dim, dtype=complex)
    falsifier = Effect(efficiency * (eye - hypothesis.projector))
    return FalsificationTest(falsifier, hypothesis_label=hypothesis.label)


def falsification_probability(
    test: FalsificationTest, rho: QuantumState, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Born probability of the falsifying outcome; any strictly positive
    value already refutes the hypothesis at the theory level.

    A probability at or below rank_tol is returned as exactly 0.0.  F <= I
    and tr rho <= 1 bound it by 1, so this is the relative cutoff at scale 1:
    rounding residue in an honest source's rate (up to ~3e-16 for declared
    coins) can then never fire a sampled trial.
    """
    p = born_probability(rho, test.falsifier)
    return 0.0 if p <= rank_tol else p


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

