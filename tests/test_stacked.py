"""Stacked state validation gives the bits of per-object construction.

quantum._states validates a whole stack of matrices through the code that
QuantumState(m) runs on a stack of one.  That a stacked LAPACK call returns
the same bits as one call per matrix is a fact about the platform and its
BLAS, so these tests check it rather than assume it.
"""

import numpy as np
import pytest

from optfalsify import QuantumState, hermitian_eig, quantum, run_postulate_checks
from optfalsify.linalg import _eig_core, _hermitian
from optfalsify.random_ops import random_density_matrix


def _corpus(d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random states of every rank 1..d, plus states with repeated and zero
    eigenvalues, whose ties the stable sort keeps in LAPACK's order."""
    mats = [random_density_matrix(d, rng, rank=1 + k % d) for k in range(3 * d)]
    mats.append(np.eye(d, dtype=complex) / d)
    if d > 2:
        mats.append(np.diag([0.5] + [0.5 / (d - 2)] * (d - 2) + [0.0]))
    if d > 1:
        mats.append(np.diag([1.0] + [0.0] * (d - 1)))
    return mats


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_stack_sizes_give_per_object_bits(d):
    rng = np.random.default_rng(100 + d)
    mats = _corpus(d, rng)
    singles = [QuantumState(m) for m in mats]
    stack = np.stack(mats)
    # Leading slices hold random states only (no ties); trailing slices end
    # with the tied spectra.
    cases = [slice(None, size) for size in (1, 7)] + [slice(-7, None), slice(None)]
    for part in cases:
        for got, want in zip(quantum._states(stack[part]), singles[part]):
            assert np.array_equal(got.matrix, want.matrix)
            assert np.array_equal(got.spectrum.values, want.spectrum.values)
            assert np.array_equal(got.spectrum.vectors, want.spectrum.vectors)
            assert got.rank() == want.rank()


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_eig_core_stack_matches_hermitian_eig(d):
    # Not states: np.eye(d) itself and Hermitian matrices with negative
    # eigenvalues go through the same core.
    rng = np.random.default_rng(200 + d)
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    mats = list(g + g.conj().swapaxes(1, 2)) + [np.eye(d, dtype=complex)]
    values, vectors = _eig_core(_hermitian(np.stack(mats), "stack", stack=True))
    for k, m in enumerate(mats):
        eig = hermitian_eig(m)
        assert np.array_equal(values[k], eig.values)
        assert np.array_equal(vectors[k], eig.vectors)
    assert np.array_equal(vectors[-1], np.eye(d))


def _per_object(stack):
    return [QuantumState(m) for m in stack]


@pytest.mark.parametrize("dims, seed", [((2, 3, 4), 1), (tuple(range(2, 9)), 3)])
def test_suites_match_per_object_validation(monkeypatch, dims, seed):
    stacked = run_postulate_checks(dims, seed=seed)
    monkeypatch.setattr(quantum, "_states", _per_object)
    per_object = run_postulate_checks(dims, seed=seed)
    # repr of a float round-trips, so equal reprs mean equal bits.
    assert repr(stacked) == repr(per_object)
