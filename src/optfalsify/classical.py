"""Classical theory core: probability vectors, their diagonal embedding
into the quantum core, and the classical side of the single-shot contrast.

A state is a probability vector over outcomes.  An outcome falsifies it only
where it puts no weight, so a coin strictly inside (0, 1) has no falsifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from .linalg import (
    _frozen_array,
    _negligible,
    _normalized,
    _numbers,
    _subnormalized,
    _unit_spectrum,
)
from .quantum import QuantumState


@dataclass(frozen=True, eq=False)
class ClassicalState:
    """Sub-normalized probability vector: entries >= 0, 0 < sum <= 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        x = _numbers(self.probs, float, "classical state").reshape(-1)
        if x.size < 1:
            raise DimensionMismatchError("classical state needs at least one outcome")
        low, _ = _unit_spectrum(x)
        if low is not None:
            raise OutOfRangeError(f"classical state has negative entry {low:.3e}")
        x = np.maximum(x, 0.0)
        total = float(np.sum(x))
        if not (0.0 < total and _subnormalized(total)):
            raise OutOfRangeError(f"classical state total {total!r} outside (0, 1]")
        _frozen_array(self, "probs", x)

    @property
    def deterministic(self) -> bool:
        return _normalized(abs(float(np.sum(self.probs)) - 1.0))


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
    idx = tuple(int(i) for i in np.nonzero(_negligible(x.probs))[0])
    return idx if idx else None

