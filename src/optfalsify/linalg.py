"""Dense complex linear algebra core.

Everything downstream (states, effects, channels, falsifiers) sits on the
handful of primitives in this module: tensor products, partial traces, the
Hermitian eigendecomposition (LAPACK through numpy, with a fixed order and
phase convention), the support cutoff and the support/kernel projectors,
and the row-major double-ket vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigConvergenceError,
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
)

# Relative eigenvalue cutoff separating support from kernel.
DEFAULT_RANK_TOL = 1e-10

# Absolute cutoffs shared by the validating constructors: max|m - m^dag|;
# how far a trace, total, weight sum or norm may exceed (or, when normalized,
# miss) one; and how far an eigenvalue or probability may leave [0, 1].
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
SPECTRUM_TOL = 1e-10

# Largest entry modulus a matrix may carry.  The sum or product of two such
# entries is finite, so Hermiticity checks and symmetrization cannot overflow.
MAX_ENTRY = float(np.sqrt(np.finfo(float).max))


def entries_bounded(a: np.ndarray) -> bool:
    """True when every entry of the nonempty array a is finite with modulus
    at most MAX_ENTRY (NaN fails the comparison)."""
    return bool(np.abs(a).max() <= MAX_ENTRY)


def unbounded_entries(name: str) -> OutOfRangeError:
    """The error for an input `name` with an entry that is not finite or
    exceeds MAX_ENTRY in modulus."""
    return OutOfRangeError(
        f"{name}: entries must be finite with modulus at most {MAX_ENTRY:.4e}"
    )


def as_matrix(m, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a fresh complex 2-D array, validating shape and that every
    entry is finite with modulus at most MAX_ENTRY (else OutOfRangeError)."""
    try:
        a = np.array(m, dtype=complex)
    except OverflowError:  # a Python integer beyond float range
        raise unbounded_entries(name) from None
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(
            f"{name}: expected a 2-D matrix, got shape {a.shape}"
        )
    if not entries_bounded(a):
        raise unbounded_entries(name)
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square, got {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def is_hermitian(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and np.abs(m - dagger(m)).max() <= HERM_TOL


def _hermitian(m, name: str) -> np.ndarray:
    """as_matrix(m), checked Hermitian within HERM_TOL (else NotHermitianError
    naming it) and symmetrized to exactly Hermitian as (m + m^dag)/2."""
    m = as_matrix(m, square=True, name=name)
    if not is_hermitian(m):
        raise NotHermitianError(
            f"{name} is not Hermitian: max|m - m^dag| = "
            f"{np.abs(m - dagger(m)).max():.3e} > {HERM_TOL:.1e}"
        )
    return (m + dagger(m)) / 2.0


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i,j) of the result is a[i, j] * b."""
    a = as_matrix(a, name="tensor lhs")
    b = as_matrix(b, name="tensor rhs")
    return np.kron(a, b)


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one factor of a (dim_a*dim_b) x (dim_a*dim_b) matrix.

    keep is "A" (trace out the second factor) or "B" (trace out the first).
    """
    m = as_matrix(m, square=True, name="partial_trace input")
    if dim_a < 1 or dim_b < 1 or m.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"partial_trace: matrix of dim {m.shape[0]} is not {dim_a}x{dim_b}"
        )
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise OutOfRangeError(f"partial_trace: keep must be 'A' or 'B', got {keep!r}")


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition; eigenvalues descending, eigenvectors in columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``zheevd`` through
    ``np.linalg.eigh``).

    Eigenvalues come out descending; a stable sort keeps LAPACK's order
    among equal eigenvalues, so ``np.eye`` decomposes into ``np.eye``.  Each
    eigenvector column is multiplied by the phase that makes its first
    component of magnitude at least half the column maximum real and
    positive.  Identical input bits give identical output bits on a given
    platform and BLAS.  Raises OutOfRangeError for an entry that is not
    finite or exceeds MAX_ENTRY in modulus, NotHermitianError if
    max|m - m^dag| > HERM_TOL and EigConvergenceError if LAPACK does not
    converge.  The input is symmetrized as (m + m^dag)/2 before it is
    decomposed; an exactly Hermitian input is decomposed as it is, which is
    how a QuantumState's cached spectrum equals hermitian_eig(state.matrix).
    """
    return _eig_core(_hermitian(m, "hermitian_eig input"))


def _eig_core(h: np.ndarray) -> HermitianEig:
    """hermitian_eig without its validation: h must be an exactly Hermitian
    complex array that as_matrix has accepted."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(f"hermitian_eig: {exc}") from None
    order = np.argsort(-w, kind="stable")
    values, vectors = w[order], v[:, order]
    # The pivot is the first large component rather than the largest one, so
    # near-ties in magnitude cannot flip which entry fixes the phase.
    mags = np.abs(vectors)
    pivot = (mags >= 0.5 * mags.max(axis=0)).argmax(axis=0)
    cols = np.arange(vectors.shape[1])
    lead = vectors[pivot, cols]
    size = np.abs(lead)
    vectors *= size / lead
    # The product leaves a rounding-level imaginary part on the pivot.
    vectors[pivot, cols] = size
    return HermitianEig(values=values, vectors=vectors)


def _extreme_eigvals(h: np.ndarray) -> tuple[float, float]:
    """Lowest and highest eigenvalue of h by LAPACK without eigenvectors
    (``np.linalg.eigvalsh``), for validations that read no more of the
    spectrum.  h must be an exactly Hermitian complex array that as_matrix
    has accepted.  Raises EigConvergenceError if LAPACK does not converge."""
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(f"eigvalsh: {exc}") from None
    return float(w[0]), float(w[-1])


def support_mask(values: np.ndarray, rank_tol: float) -> np.ndarray:
    """Which of the descending eigenvalues lie in the support: those above
    rank_tol * lam_max, with lam_max clamped at zero."""
    return values > rank_tol * max(float(values[0]), 0.0)


def _psd_eigs(m, rank_tol: float, name: str) -> HermitianEig:
    """Eigendecomposition plus a PSD check at relative tolerance rank_tol.

    m is a Hermitian matrix, or a HermitianEig already computed, such as the
    spectrum QuantumState validation computes; only a matrix is decomposed
    here."""
    eig = m if isinstance(m, HermitianEig) else hermitian_eig(m)
    lam_max = max(float(eig.values[0]), 0.0)
    if float(eig.values[-1]) < -rank_tol * lam_max:
        raise NotPSDError(
            f"{name}: eigenvalue {eig.values[-1]:.3e} below -rank_tol*lam_max"
        )
    return eig


def support_projector(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue
    above rank_tol * lam_max.  Input (a matrix or its HermitianEig) must be
    Hermitian PSD up to tolerance."""
    eig = _psd_eigs(m, rank_tol, "support_projector")
    cols = eig.vectors[:, support_mask(eig.values, rank_tol)]
    return _hermitian(cols @ dagger(cols), "support projector")


def kernel_projector(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Projector onto the orthogonal complement of the support."""
    p = support_projector(m, rank_tol)
    return np.eye(p.shape[0], dtype=complex) - p


def projector_rank(p: np.ndarray) -> int:
    """Rank of an (assumed) orthogonal projector, read off its trace."""
    return int(round(float(np.trace(p).real)))


def mat_to_doubleket(a) -> np.ndarray:
    """Row-major vectorization: |A>> = sum_ij A[i, j] |i>|j>."""
    a = as_matrix(a, name="mat_to_doubleket input")
    return a.reshape(-1).copy()


def doubleket_to_mat(v, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Inverse of mat_to_doubleket; square shape inferred when not given."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if rows is None and cols is None:
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise DimensionMismatchError(
                f"doubleket_to_mat: length {v.size} is not a perfect square"
            )
        rows = cols = d
    if rows is None or cols is None or rows * cols != v.size:
        raise DimensionMismatchError(
            f"doubleket_to_mat: length {v.size} != {rows}x{cols}"
        )
    return v.reshape(rows, cols).copy()


def complete_to_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    Deterministic greedy Gram-Schmidt over the canonical basis in index
    order; candidates whose residual norm is at most 1e-6 are skipped.
    """
    cols = as_matrix(cols, name="complete_to_unitary input")
    d, k = cols.shape
    if k > d:
        raise DimensionMismatchError(f"complete_to_unitary: {k} columns in dim {d}")
    basis = [cols[:, j].copy() for j in range(k)]
    for j in range(d):
        if len(basis) == d:
            break
        cand = np.zeros(d, dtype=complex)
        cand[j] = 1.0
        for b in basis:
            cand -= np.vdot(b, cand) * b
        # Second pass restores orthogonality lost to cancellation.
        for b in basis:
            cand -= np.vdot(b, cand) * b
        nrm = float(np.linalg.norm(cand))
        if nrm > 1e-6:
            basis.append(cand / nrm)
    if len(basis) != d:
        raise DimensionMismatchError(
            "complete_to_unitary: input columns are not orthonormal enough to extend"
        )
    return np.column_stack(basis)
