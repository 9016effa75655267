"""Dense complex linear algebra core.

Everything downstream (states, effects, channels, falsifiers) sits on the
handful of primitives in this module: the readers of numbers and integers
from outside (_numbers, _check_int, _read_dims), tensor products, partial
traces, the Hermitian eigendecomposition (LAPACK through numpy, with a fixed
order and phase convention), every validation cutoff and its comparisons,
the support/kernel projectors, and the row-major double-ket vectorization.
"""

from __future__ import annotations

from collections.abc import Iterable
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

# Cutoffs of one decision each, compared only where they are used.
_ORTHOGONALITY_TOL = 1e-8  # largest entry of P_rho P_nu of orthogonal supports
_MARGINAL_TOL = 1e-8  # largest entry of rho1 - rho2 of equal marginals
_IMAG_TOL = 1e-8  # largest imaginary part of a Born trace
_UNIT_NORM_TOL = 1e-8  # how far local_falsifier's vector may miss unit norm
_UNITARY_TOL = 1e-9  # largest entry of U^dag U - I of a dilation
_WEIGHT_TOL = 1e-12  # how far below zero a generator's weight may lie

# Largest entry modulus a matrix may carry.  The sum or product of two such
# entries is finite, so Hermiticity checks and symmetrization cannot overflow.
MAX_ENTRY = float(np.sqrt(np.finfo(float).max))


def entries_bounded(a: np.ndarray) -> bool:
    """True when every entry of the nonempty array a is finite with modulus
    at most MAX_ENTRY (NaN fails the comparison)."""
    return bool(np.abs(a).max() <= MAX_ENTRY)


def unbounded_entries(name: str) -> OutOfRangeError:
    """The error for an input `name` with an entry that is not a finite
    number or exceeds MAX_ENTRY in modulus."""
    return OutOfRangeError(
        f"{name}: entries must be finite numbers with modulus at most {MAX_ENTRY:.4e}"
    )


def as_matrix(m, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Read m by _numbers into a fresh complex array, then require a 2-D
    matrix (square when asked; else DimensionMismatchError)."""
    a = _numbers(m, complex, name)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(
            f"{name}: expected a 2-D matrix, got shape {a.shape}"
        )
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square, got {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _check_int(n, minimum: int, error: type[Exception], message: str) -> int:
    """int(n), or error(message) unless n is an integer (not a bool) >= minimum."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise error(message)
    return int(n)


# What a trial count or a seed must be, in the library's words.
BAD_TRIALS = "n_trials must be an integer of at least 1"
BAD_SEED = "seed must be a non-negative integer"


def _read_dims(dims) -> tuple[int, ...]:
    """The postulate suite's distinct dims in ascending order, each read by
    _check_int as it is drawn: a range too long to hold fails at its first
    dim above 8."""
    read = set()
    for d in dims if isinstance(dims, Iterable) else ():
        d = _check_int(d, 2, OutOfRangeError, "dims must all be integers >= 2")
        if d > 8:
            raise OutOfRangeError("dims above 8 exceed the intended regime")
        read.add(d)
    if not read:
        raise OutOfRangeError("dims must be a nonempty collection of integers")
    return tuple(sorted(read))


def _numbers(x, dtype, name: str) -> np.ndarray:
    """x as a fresh array of dtype (complex or float): the one reader of
    numbers from outside.  Every entry must be a finite number with modulus
    at most MAX_ENTRY.  Anything else raises unbounded_entries(name): text
    that is not a number, None, rows of unequal length, a Python integer
    beyond float range, a complex number read as real, or an entry that is
    not finite or exceeds the bound.  For a 3-D stack the error names the
    first failing matrix (see _at)."""
    try:
        a = np.array(x, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        raise unbounded_entries(name) from None
    if a.size and not entries_bounded(a):
        if a.ndim == 3:
            # NaN fails the comparison, so the first unbounded matrix is the
            # first False.
            bounded = np.abs(a).max(axis=(1, 2)) <= MAX_ENTRY
            name = _at(name, int(np.argmin(bounded)), len(a))
        raise unbounded_entries(name)
    return a


def _check_probability(name: str, p) -> float:
    """p read by _numbers as one real number, which must lie in [0, 1]
    (else OutOfRangeError)."""
    x = _numbers(p, float, name)
    if x.ndim or not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"{name}={p!r} outside [0, 1]")
    return float(x)


def _check_dims(name: str, *dims) -> None:
    """DimensionMismatchError unless each of dims is an integer >= 1 (_check_int)."""
    for d in dims:
        _check_int(d, 1, DimensionMismatchError, f"{name}: {d!r} is not a positive integer")


def _frozen_array(obj, field_name: str, value: np.ndarray) -> None:
    value.setflags(write=False)
    object.__setattr__(obj, field_name, value)


# Every comparison with a shared cutoff is made by one helper per decision
# and side: those below, _hermitian and _unit_spectrum.
def _negligible(x, scale=1.0):
    """x <= DEFAULT_RANK_TOL * scale: the support, PSD, snap and endpoint cut."""
    return x <= DEFAULT_RANK_TOL * scale


def _normalized(dev) -> bool:
    """dev <= TRACE_TOL, for the deviation of a trace, total or norm from one."""
    return dev <= TRACE_TOL


def _subnormalized(x) -> bool:
    """x <= 1.0 + TRACE_TOL, for a trace or a classical total."""
    return x <= 1.0 + TRACE_TOL


def _is_zero(m: np.ndarray):
    """Whether every entry of the matrix m has modulus at most SPECTRUM_TOL;
    for an (n, d, d) stack, an (n,) array of that decision per matrix."""
    zero = np.abs(m).max(axis=(-2, -1)) <= SPECTRUM_TOL
    return zero if zero.ndim else bool(zero)


def _at(name: str, index: int, n: int) -> str:
    """name, with the failing index when its stack holds n > 1 matrices."""
    return f"{name} [{index}]" if n > 1 else name


def _as_stack(m, name: str) -> np.ndarray:
    """Read m by _numbers into a complex (n, d, d) stack of square matrices
    (else DimensionMismatchError)."""
    a = _numbers(m, complex, name)
    if a.ndim != 3 or 0 in a.shape or a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(
            f"{name}: expected a stack of square matrices, got shape {a.shape}"
        )
    return a


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of the complex (n, m) stack v, bit for bit
    (inf on overflow): norm's BLAS dot products of the real and imaginary
    parts, as stacked matmuls; a reduction along an axis rounds otherwise."""
    x, y = v.real[:, None], v.imag[:, None]
    with np.errstate(over="ignore", under="ignore"):
        return np.sqrt((x @ x.swapaxes(1, 2) + y @ y.swapaxes(1, 2))[:, 0, 0])


def _rescale(v: np.ndarray, floor: float) -> None:
    """Divide each nonzero row of the complex (n, m) stack v whose largest
    modulus is below floor (its squares may cost _norms its bits) by that
    modulus: in place, part by part, as complex division by a subnormal overflows."""
    top = np.abs(v).max(axis=1, initial=0.0, keepdims=True)
    np.divide(v.view(float), top, out=v.view(float), where=(0 < top) & (top < floor))


def _hermitian(a: np.ndarray, name: str) -> np.ndarray:
    """The complex (n, d, d) stack a, coerced at the entry point, checked
    Hermitian within HERM_TOL matrix by matrix (else NotHermitianError, see
    _at) and symmetrized to exactly Hermitian as (a + a^dag)/2."""
    adj = a.conj().swapaxes(1, 2)
    skew = np.abs(a - adj)
    if not skew.max() <= HERM_TOL:
        worst = skew.max(axis=(1, 2))
        k = int(np.argmax(worst > HERM_TOL))
        raise NotHermitianError(
            f"{_at(name, k, len(a))} is not Hermitian: max|m - m^dag| = "
            f"{worst[k]:.3e} > {HERM_TOL:.1e}"
        )
    return (a + adj) / 2.0


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i,j) of the result is a[i, j] * b."""
    return _kron(as_matrix(a, name="tensor lhs"), as_matrix(b, name="tensor rhs"))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor of the matrices on the last two axes of a and b, whose leading
    axes broadcast: a stack of Kronecker products, matrix by matrix."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    ab = a[..., :, None, :, None] * b[..., None, :, None, :]
    return ab.reshape(*ab.shape[:-4], m * p, n * q)


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second factor of a (dim_a*dim_b) x (dim_a*dim_b) matrix."""
    m = as_matrix(m, square=True, name="partial_trace input")
    _check_dims("partial_trace dimension", dim_a, dim_b)
    if m.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"partial_trace: matrix of dim {m.shape[0]} is not {dim_a}x{dim_b}"
        )
    return np.einsum("ikjk->ij", m.reshape(dim_a, dim_b, dim_a, dim_b))


@dataclass(frozen=True, eq=False)
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
    a = as_matrix(m, square=True, name="hermitian_eig input")[None]
    values, vectors = _eig_core(_hermitian(a, "hermitian_eig input"))
    return HermitianEig(values=values[0], vectors=vectors[0])


def _eig_core(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig without its validation, on an (n, d, d) stack h of
    exactly Hermitian complex matrices that _hermitian has accepted: the
    (n, d) descending eigenvalues and the (n, d, d) eigenvector columns.
    Each matrix is sorted and phase-fixed on its own."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(f"hermitian_eig: {exc}") from None
    rows = np.arange(w.shape[0])[:, None]
    cols = np.arange(w.shape[1])
    order = np.argsort(-w, axis=1, kind="stable")
    values = w[rows, order]
    vectors = v[rows[:, None], cols[:, None], order[:, None]]
    # The pivot is the first large component rather than the largest one, so
    # near-ties in magnitude cannot flip which entry fixes the phase.
    mags = np.abs(vectors)
    large = mags >= 0.5 * mags.max(axis=1, keepdims=True)
    pivot = large.argmax(axis=1)
    lead = vectors[rows, pivot, cols]
    size = np.abs(lead)
    vectors *= (size / lead)[:, None]
    # The product leaves a rounding-level imaginary part on the pivot.
    vectors[rows, pivot, cols] = size
    return values, vectors


def _unit_spectrum(values) -> tuple[float | None, float | None]:
    """The lowest of the values (eigenvalues or probabilities) when it is
    below -SPECTRUM_TOL, and the highest when it is above 1.0 + SPECTRUM_TOL;
    each None when it is not."""
    low, high = float(np.min(values)), float(np.max(values))
    return low if low < -SPECTRUM_TOL else None, high if high > 1.0 + SPECTRUM_TOL else None


def support_mask(values: np.ndarray) -> np.ndarray:
    """Which of the descending eigenvalues lie in the support: those above
    DEFAULT_RANK_TOL * lam_max, with lam_max clamped at zero.  values may
    also be an (n, d) stack of rows, each cut at its own lam_max."""
    return ~_negligible(values, np.maximum(values[..., :1], 0.0))


def _check_psd(values: np.ndarray, name: str) -> None:
    """NotPSDError unless, in each row of the (n, d) descending eigenvalues,
    the lowest is at least -DEFAULT_RANK_TOL * lam_max, with lam_max clamped
    at zero.  The error names the first failing row (see _at)."""
    low = values[:, -1]
    bad = ~_negligible(-low, np.maximum(values[:, 0], 0.0))
    if bad.any():
        k = int(bad.argmax())
        raise NotPSDError(
            f"{_at(name, k, len(values))}: eigenvalue {low[k]:.3e} "
            "below -DEFAULT_RANK_TOL*lam_max"
        )


def support_projector(m) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue
    above DEFAULT_RANK_TOL * lam_max.  m is a Hermitian matrix, or a
    HermitianEig already computed, such as a QuantumState's spectrum (only
    a matrix is decomposed here); either way it must be PSD at that cut
    (_check_psd)."""
    eig = m if isinstance(m, HermitianEig) else hermitian_eig(m)
    values = eig.values[None]
    _check_psd(values, "support_projector")
    return _support_projectors(values, eig.vectors[None])[0]


def _support_projectors(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """support_projector for each row of the (n, d) descending eigenvalues
    and (n, d, d) eigenvector columns of an _eig_core stack, stacked alike,
    without its PSD check: the rows must come from validated states.

    The values descend, so each support is a column prefix.  Rows of equal
    rank share one product over that prefix, which gives the bits of the
    product for a single matrix; zeroing the columns outside the support
    would not."""
    ranks = support_mask(values).sum(axis=1)
    p = np.empty_like(vectors)
    for r in set(ranks.tolist()):
        rows = ranks == r
        cols = vectors[rows, :, :r]
        p[rows] = cols @ cols.conj().swapaxes(1, 2)
    return _hermitian(p, "support projector")


def kernel_projector(m) -> np.ndarray:
    """Projector onto the orthogonal complement of the support."""
    p = support_projector(m)
    return np.eye(p.shape[0], dtype=complex) - p


def projector_rank(p: np.ndarray) -> int:
    """Rank of an (assumed) orthogonal projector, read off its trace."""
    return int(round(float(np.trace(p).real)))


def mat_to_doubleket(a) -> np.ndarray:
    """Row-major vectorization: |A>> = sum_ij A[i, j] |i>|j>."""
    a = as_matrix(a, name="mat_to_doubleket input")
    return a.reshape(-1).copy()


def doubleket_to_mat(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of mat_to_doubleket for a rows x cols matrix, whose entries
    as_matrix would accept."""
    v = _numbers(v, complex, "doubleket_to_mat input").reshape(-1)
    _check_dims("doubleket_to_mat dimension", rows, cols)
    if rows * cols != v.size:
        raise DimensionMismatchError(
            f"doubleket_to_mat: length {v.size} != {rows}x{cols}"
        )
    return v.reshape(rows, cols)
