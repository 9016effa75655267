"""Classical theory core: probability vectors, substochastic maps, and the
diagonal embedding into the quantum core.

Conventions: states are column probability vectors, maps act on the left
((M x)_i = sum_j M[i, j] x_j) with column sums at most one, and effects are
single rows of such a map (entries in [0, 1]; the all-ones row is the
deterministic effect).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from .linalg import DEFAULT_RANK_TOL, SPECTRUM_TOL, TRACE_TOL
from .quantum import QuantumState


@dataclass(frozen=True, eq=False)
class ClassicalState:
    """Sub-normalized probability vector: entries >= 0, 0 < sum <= 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.probs, dtype=float).reshape(-1).copy()
        if x.size < 1:
            raise DimensionMismatchError("classical state needs at least one outcome")
        if not np.all(np.isfinite(x)):
            raise OutOfRangeError("classical state entries must be finite")
        if float(np.min(x)) < -SPECTRUM_TOL:
            raise OutOfRangeError(
                f"classical state has negative entry {float(np.min(x)):.3e}"
            )
        x = np.maximum(x, 0.0)
        total = float(np.sum(x))
        if not 0.0 < total <= 1.0 + TRACE_TOL:
            raise OutOfRangeError(f"classical state total {total!r} outside (0, 1]")
        x.setflags(write=False)
        object.__setattr__(self, "probs", x)

    @property
    def dim(self) -> int:
        return self.probs.size

    @property
    def deterministic(self) -> bool:
        return abs(float(np.sum(self.probs)) - 1.0) <= TRACE_TOL


@dataclass(frozen=True, eq=False)
class MarkovMap:
    """Column-substochastic real matrix; deterministic when column-stochastic.

    A 1 x n instance doubles as a classical effect (row of response
    probabilities)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionMismatchError(f"Markov map must be 2-D, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise OutOfRangeError("Markov map entries must be finite")
        if float(np.min(m)) < -SPECTRUM_TOL:
            raise OutOfRangeError("Markov map has a negative entry")
        m = np.maximum(m, 0.0)
        sums = m.sum(axis=0)
        if float(np.max(sums)) > 1.0 + TRACE_TOL:
            raise OutOfRangeError(
                f"Markov map column sum {float(np.max(sums)):.6f} exceeds one"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def deterministic(self) -> bool:
        return float(np.max(np.abs(self.matrix.sum(axis=0) - 1.0))) <= TRACE_TOL


def apply_markov(m: MarkovMap, x: ClassicalState) -> ClassicalState:
    if m.dim_in != x.dim:
        raise DimensionMismatchError(
            f"map input dim {m.dim_in} vs state dim {x.dim}"
        )
    return ClassicalState(m.matrix @ x.probs)


def classical_probability(effect: MarkovMap, x: ClassicalState) -> float:
    """Scalar pairing of a 1 x n effect row with a state."""
    if effect.dim_out != 1:
        raise DimensionMismatchError("classical effect must be a single row")
    if effect.dim_in != x.dim:
        raise DimensionMismatchError(
            f"effect dim {effect.dim_in} vs state dim {x.dim}"
        )
    return float(effect.matrix[0] @ x.probs)


def deterministic_effect(dim: int) -> MarkovMap:
    """All-ones row: certain outcome, used to take marginals."""
    return MarkovMap(np.ones((1, dim)))


def permutation_map(perm) -> MarkovMap:
    """Reversible classical map sending basis state j to perm[j]."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise OutOfRangeError(f"not a permutation of 0..{n - 1}: {perm}")
    m = np.zeros((n, n))
    for j, i in enumerate(perm):
        m[i, j] = 1.0
    return MarkovMap(m)


def embed_classical(x: ClassicalState) -> QuantumState:
    """Diagonal density-matrix embedding of a probability vector."""
    return QuantumState(np.diag(x.probs.astype(complex)))


def classical_falsifier_exists(x: ClassicalState) -> tuple[int, ...] | None:
    """Outcome indices whose occurrence falsifies the declared distribution:
    {i : x_i <= DEFAULT_RANK_TOL}.  None when every outcome has positive weight
    (nothing can ever be falsified, e.g. a binary coin with p not in {0,1}).
    """
    if not x.deterministic:
        raise NotDeterministicError(
            "falsifier existence is defined for normalized distributions"
        )
    idx = tuple(int(i) for i in np.nonzero(x.probs <= DEFAULT_RANK_TOL)[0])
    return idx if idx else None

