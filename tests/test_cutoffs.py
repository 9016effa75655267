"""Both sides of every cutoff shared between validating constructors.

Each case builds an input that strays eps past one boundary: it is
accepted at eps = 0.5 x the cutoff and rejected with a typed error at
eps = 2 x the cutoff.
"""

import numpy as np
import pytest

from optfalsify import (
    ClassicalState,
    Effect,
    MarkovMap,
    Purification,
    QuantumState,
    hermitian_eig,
    linalg,
    make_nary,
)
from optfalsify.errors import NotHermitianError, OutOfRangeError
from optfalsify.falsification import SupportHypothesis
from optfalsify.linalg import HERM_TOL, SPECTRUM_TOL, TRACE_TOL


def test_shared_cutoffs_pinned():
    pinned = (linalg.HERM_TOL, linalg.TRACE_TOL, linalg.SPECTRUM_TOL, linalg.DEFAULT_RANK_TOL)
    assert pinned == (1e-10,) * 4


def _skewed(eps):
    """Trace-one qubit matrix with max|m - m^dag| = eps."""
    return [[0.5, eps], [0.0, 0.5]]


# name: (cutoff, error raised at 2x, build(eps))
CASES = {
    "state-hermiticity": (HERM_TOL, NotHermitianError, lambda e: QuantumState(_skewed(e))),
    "effect-hermiticity": (HERM_TOL, NotHermitianError, lambda e: Effect(_skewed(e))),
    "hermitian_eig-hermiticity": (
        HERM_TOL,
        NotHermitianError,
        lambda e: hermitian_eig(_skewed(e)),
    ),
    # [[1, e], [0, 0]] is exactly idempotent, so only Hermiticity is at stake.
    "hypothesis-hermiticity": (
        HERM_TOL,
        OutOfRangeError,
        lambda e: SupportHypothesis([[1.0, e], [0.0, 0.0]]),
    ),
    "state-trace": (
        TRACE_TOL,
        OutOfRangeError,
        lambda e: QuantumState(np.diag([0.5 + e, 0.5])),
    ),
    "cstate-total": (TRACE_TOL, OutOfRangeError, lambda e: ClassicalState([0.5 + e, 0.5])),
    "generator-weight-sum": (TRACE_TOL, OutOfRangeError, lambda e: make_nary([0.5 + e, 0.5])),
    "purification-norm": (
        TRACE_TOL,
        OutOfRangeError,
        lambda e: Purification(np.array([1.0 + e, 0.0]), 2, 1),
    ),
    "cstate-negative-entry": (SPECTRUM_TOL, OutOfRangeError, lambda e: ClassicalState([-e, 1.0])),
    "markov-negative-entry": (
        SPECTRUM_TOL,
        OutOfRangeError,
        lambda e: MarkovMap([[-e, 0.0], [1.0, 1.0]]),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_both_sides_of_shared_cutoff(case):
    tol, error, build = CASES[case]
    build(0.5 * tol)
    with pytest.raises(error):
        build(2.0 * tol)
