"""Quantum theory core.

Immutable validated types (states, effects, Kraus channels) plus the
structure operations falsification rests on: purification and its
connecting unitary, perfect discriminability of orthogonal supports,
compression onto the support face, canonical decomposition of bipartite
states, local falsifiers, and unitary dilation of channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotCompressibleError,
    NotDeterministicError,
    NotPSDError,
    NotTracePreservingError,
    NumericalContaminationError,
    OutOfRangeError,
    PurificationMismatchError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    MAX_ENTRY,
    SPECTRUM_TOL,
    TRACE_TOL,
    HermitianEig,
    _eig_core,
    _extreme_eigvals,
    _hermitian,
    _psd_eigs,
    as_matrix,
    complete_to_unitary,
    dagger,
    doubleket_to_mat,
    entries_bounded,
    hermitian_eig,
    mat_to_doubleket,
    partial_trace,
    support_mask,
    support_projector,
    tensor,
    unbounded_entries,
)

_ORTHOGONALITY_TOL = 1e-8


def _frozen_array(obj, field_name: str, value: np.ndarray) -> None:
    value.setflags(write=False)
    object.__setattr__(obj, field_name, value)


def _is_zero(m: np.ndarray) -> bool:
    """True when every entry of m has modulus at most SPECTRUM_TOL."""
    return float(np.max(np.abs(m))) <= SPECTRUM_TOL


def _bounded_vector(vector, name: str) -> tuple[np.ndarray, float]:
    """A fresh flattened complex copy of vector and its 2-norm (inf when it
    overflows); OutOfRangeError for an entry that as_matrix would reject."""
    try:
        v = np.array(vector, dtype=complex).reshape(-1)
    except OverflowError:  # a Python integer beyond float range
        raise unbounded_entries(name) from None
    if v.size and not entries_bounded(v):
        raise unbounded_entries(name)
    with np.errstate(over="ignore"):
        return v, float(np.linalg.norm(v))


def _unit_vector(vector, name: str) -> np.ndarray:
    """vector / its 2-norm, flattened; OutOfRangeError for a zero vector, an
    entry that as_matrix would reject, or a norm that overflows."""
    v, nrm = _bounded_vector(vector, name)
    if nrm == 0.0:
        raise OutOfRangeError(f"{name} must be nonzero")
    if not np.isfinite(nrm):
        raise OutOfRangeError(f"{name} has a norm beyond float range")
    return v / nrm


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Sub-normalized density matrix: Hermitian, PSD, trace in
    (0, 1 + TRACE_TOL].  Negative eigenvalues within -DEFAULT_RANK_TOL*lam_max
    are treated as zero rather than rejected.

    The eigendecomposition that validation computes is kept, read-only, as
    `spectrum`; it is not a field, so repr and equality ignore it."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _hermitian(self.matrix, "state matrix")
        eig = _psd_eigs(_eig_core(m), DEFAULT_RANK_TOL, "state matrix")
        tr = float(np.trace(m).real)
        if not 0.0 < tr <= 1.0 + TRACE_TOL:
            raise OutOfRangeError(f"state trace {tr!r} outside (0, 1]")
        _frozen_array(self, "matrix", m)
        # m is exactly Hermitian, so hermitian_eig(self.matrix) would return
        # these same bits.
        eig.values.setflags(write=False)
        eig.vectors.setflags(write=False)
        object.__setattr__(self, "_spectrum", eig)

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        v = _unit_vector(vector, "pure state vector")
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        if dim < 1:
            raise DimensionMismatchError("dimension must be positive")
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> HermitianEig:
        """hermitian_eig(self.matrix), computed once on construction."""
        return getattr(self, "_spectrum")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def deterministic(self) -> bool:
        """True when the state is normalized (trace one within TRACE_TOL)."""
        return abs(self.trace - 1.0) <= TRACE_TOL

    def rank(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        return int(np.count_nonzero(support_mask(self.spectrum.values, rank_tol)))


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement element: Hermitian, spectrum in [0, 1] within SPECTRUM_TOL.

    Validation reads only the lowest and highest eigenvalue, by
    ``np.linalg.eigvalsh``; no eigenvectors are computed or kept."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _hermitian(self.matrix, "effect matrix")
        lowest, highest = _extreme_eigvals(m)
        if lowest < -SPECTRUM_TOL:
            raise NotPSDError(f"effect has eigenvalue {lowest:.3e} below zero")
        if highest > 1.0 + SPECTRUM_TOL:
            raise OutOfRangeError(f"effect has eigenvalue {highest:.3e} above one")
        _frozen_array(self, "matrix", m)

    @classmethod
    def identity(cls, dim: int) -> "Effect":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def projector_onto(cls, vector) -> "Effect":
        v = _unit_vector(vector, "projector vector")
        return cls(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.matrix)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-nonincreasing map sum_k A_k . A_k^dag."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if isinstance(self.kraus, np.ndarray) or not len(self.kraus):
            raise DimensionMismatchError("channel needs a nonempty Kraus list")
        ops = tuple(as_matrix(a, name="Kraus operator") for a in self.kraus)
        shape = ops[0].shape
        for a in ops[1:]:
            if a.shape != shape:
                raise DimensionMismatchError(
                    f"Kraus operators disagree in shape: {a.shape} vs {shape}"
                )
        # Entries within MAX_ENTRY can still overflow the products; such a
        # gram is rejected below, so the warnings would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = sum(dagger(a) @ a for a in ops)
        if not entries_bounded(gram):
            raise OutOfRangeError(
                "channel is not trace-nonincreasing: sum A^dag A has an entry "
                f"that is not finite or has modulus above {MAX_ENTRY:.4e}"
            )
        _, top = _extreme_eigvals(_hermitian(gram, "channel gram sum A^dag A"))
        if top > 1.0 + SPECTRUM_TOL:
            raise OutOfRangeError(
                "channel is not trace-nonincreasing: sum A^dag A exceeds identity "
                f"(top eigenvalue {top:.6f})"
            )
        for a in ops:
            a.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        _frozen_array(self, "_gram", gram)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    @property
    def atomic(self) -> bool:
        return len(self.kraus) == 1

    @property
    def deterministic(self) -> bool:
        """True when trace-preserving: sum A^dag A = I within TRACE_TOL."""
        gram = getattr(self, "_gram")
        eye = np.eye(self.dim_in, dtype=complex)
        return float(np.max(np.abs(gram - eye))) <= TRACE_TOL


def born_probability(rho: QuantumState, effect: Effect) -> float:
    """Tr(rho E), clamped to [0, 1].  Raises NumericalContaminationError if
    the trace carries imaginary weight above 1e-8."""
    if rho.dim != effect.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} vs effect dim {effect.dim}"
        )
    p = complex(np.trace(rho.matrix @ effect.matrix))
    if abs(p.imag) > 1e-8:
        raise NumericalContaminationError(
            f"Born probability has imaginary part {p.imag:.3e}"
        )
    return min(1.0, max(0.0, p.real))


def apply_channel(channel: KrausChannel, rho: QuantumState) -> QuantumState:
    """sum_k A_k rho A_k^dag, revalidated as a state."""
    if channel.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"channel input dim {channel.dim_in} vs state dim {rho.dim}"
        )
    out = sum(a @ rho.matrix @ dagger(a) for a in channel.kraus)
    return QuantumState(out)


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure bipartite vector whose first-factor marginal is a target state."""

    state_vector: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        v, nrm = _bounded_vector(self.state_vector, "purification vector")
        if self.dim_a < 1 or self.dim_b < 1 or v.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"purification vector length {v.size} != {self.dim_a}x{self.dim_b}"
            )
        if not abs(nrm - 1.0) <= TRACE_TOL:
            raise OutOfRangeError("purification vector must have unit norm")
        _frozen_array(self, "state_vector", v)

    def marginal(self) -> QuantumState:
        """Reduced state on the first factor."""
        full = np.outer(self.state_vector, self.state_vector.conj())
        return QuantumState(partial_trace(full, self.dim_a, self.dim_b, keep="A"))


def purify(rho: QuantumState, rank_tol: float = DEFAULT_RANK_TOL) -> Purification:
    """Minimal purification: environment dimension equals the rank of rho,
    environment basis ordered by descending eigenvalue."""
    if not rho.deterministic:
        raise NotDeterministicError("only trace-one states are purified")
    eig = rho.spectrum
    keep = support_mask(eig.values, rank_tol)
    lams = eig.values[keep]
    vecs = eig.vectors[:, keep]
    # psi = sum_i sqrt(lam_i) v_i (x) e_i, i.e. the double-ket of V sqrt(L).
    m = vecs * np.sqrt(lams)[None, :]
    psi = mat_to_doubleket(m)
    psi = psi / np.linalg.norm(psi)
    return Purification(state_vector=psi, dim_a=rho.dim, dim_b=int(lams.size))


def connecting_unitary(p1: Purification, p2: Purification) -> np.ndarray:
    """Unitary U on the environment with (I (x) U) psi1 = psi2.

    Both purifications must share dim_a and dim_b and reduce to the same
    marginal within 1e-8 (else PurificationMismatchError).  Identical inputs
    return the identity exactly.
    """
    if p1.dim_a != p2.dim_a:
        raise DimensionMismatchError(
            f"system dims differ: {p1.dim_a} vs {p2.dim_a}"
        )
    if p1.dim_b != p2.dim_b:
        raise DimensionMismatchError(
            f"environment dims differ: {p1.dim_b} vs {p2.dim_b}; "
            "pad the smaller purification before connecting"
        )
    if np.array_equal(p1.state_vector, p2.state_vector):
        return np.eye(p1.dim_b, dtype=complex)
    da, db = p1.dim_a, p1.dim_b
    m1 = doubleket_to_mat(p1.state_vector, da, db)
    m2 = doubleket_to_mat(p2.state_vector, da, db)
    rho1 = m1 @ dagger(m1)
    rho2 = m2 @ dagger(m2)
    if float(np.max(np.abs(rho1 - rho2))) > _ORTHOGONALITY_TOL:
        raise PurificationMismatchError(
            "purifications reduce to different marginals"
        )
    eig = hermitian_eig((rho1 + rho2) / 2.0)
    keep = support_mask(eig.values, DEFAULT_RANK_TOL)
    lams = eig.values[keep]
    vecs = eig.vectors[:, keep]
    scale = 1.0 / np.sqrt(lams)
    # Columns x_i = M^dag w_i / sqrt(lam_i) are orthonormal in the
    # environment; matching them between the two purifications fixes U on
    # the support, and paired completions fix it on the complement.
    x1 = (dagger(m1) @ vecs) * scale[None, :]
    x2 = (dagger(m2) @ vecs) * scale[None, :]
    y1 = complete_to_unitary(x1)[:, lams.size :]
    y2 = complete_to_unitary(x2)[:, lams.size :]
    ut = x1 @ dagger(x2) + y1 @ dagger(y2)
    return ut.T.copy()


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    """Outcome of the orthogonal-support test for a pair of states."""

    discriminable: bool
    overlap: float
    falsifier_rho: Effect | None
    falsifier_nu: Effect | None


def perfectly_discriminable(rho: QuantumState, nu: QuantumState) -> DiscriminationResult:
    """States are perfectly discriminable in one shot iff their supports are
    orthogonal (max entry of P_rho P_nu at most 1e-8).  The falsifier for
    each state is the projector onto its kernel, which captures the other
    state entirely in the discriminable case."""
    if rho.dim != nu.dim:
        raise DimensionMismatchError(f"state dims differ: {rho.dim} vs {nu.dim}")
    p_rho = support_projector(rho.spectrum)
    p_nu = support_projector(nu.spectrum)
    overlap = float(np.max(np.abs(p_rho @ p_nu)))
    dim = rho.dim
    k_rho = np.eye(dim, dtype=complex) - p_rho
    k_nu = np.eye(dim, dtype=complex) - p_nu
    falsifier_rho = None if _is_zero(k_rho) else Effect(k_rho)
    falsifier_nu = None if _is_zero(k_nu) else Effect(k_nu)
    return DiscriminationResult(
        discriminable=overlap <= _ORTHOGONALITY_TOL,
        overlap=overlap,
        falsifier_rho=falsifier_rho,
        falsifier_nu=falsifier_nu,
    )


@dataclass(frozen=True, eq=False)
class CompressionResult:
    """Isometry onto the support face and the compressed state."""

    isometry: np.ndarray
    state: QuantumState

    def decode(self) -> QuantumState:
        """Embed the compressed state back into the original space."""
        v = self.isometry
        return QuantumState(dagger(v) @ self.state.matrix @ v)


def compress(rho: QuantumState) -> CompressionResult:
    """Lossless restriction of a rank-deficient state to its support.

    Returns V of shape (rank, dim) with V V^dag = I_rank and the state
    V rho V^dag.  Full-rank states raise NotCompressibleError.
    """
    eig = rho.spectrum
    keep = support_mask(eig.values, DEFAULT_RANK_TOL)
    rank = int(np.count_nonzero(keep))
    if rank == rho.dim:
        raise NotCompressibleError(
            f"state has full support (rank {rank} = dim); nothing to compress"
        )
    v = dagger(eig.vectors[:, keep])
    compressed = QuantumState(v @ rho.matrix @ dagger(v))
    return CompressionResult(isometry=v, state=compressed)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Decomposition of a bipartite state as sum_j |A_j>><<A_j| with
    Tr(A_i^dag A_j) = delta_ij p_j."""

    operators: tuple[np.ndarray, ...]
    weights: np.ndarray

    def reconstruction(self) -> np.ndarray:
        dim2 = self.operators[0].shape[0] * self.operators[0].shape[1]
        out = np.zeros((dim2, dim2), dtype=complex)
        for a in self.operators:
            dk = mat_to_doubleket(a)
            out += np.outer(dk, dk.conj())
        return out


def canonical_form(r: QuantumState) -> CanonicalForm:
    """Spectral double-ket decomposition of a state on a d x d bipartite
    space: A_j = sqrt(lam_j) unvec(v_j) for each kept eigenpair."""
    d = int(round(np.sqrt(r.dim)))
    if d * d != r.dim:
        raise DimensionMismatchError(
            f"canonical_form needs a bipartite d^2 dimension, got {r.dim}"
        )
    eig = r.spectrum
    keep = support_mask(eig.values, DEFAULT_RANK_TOL)
    ops = []
    weights = []
    for lam, vec in zip(eig.values[keep], eig.vectors[:, keep].T):
        a = np.sqrt(lam) * doubleket_to_mat(vec, d, d)
        ops.append(a)
        weights.append(float(np.trace(dagger(a) @ a).real))
    return CanonicalForm(operators=tuple(ops), weights=np.array(weights))


# Smallest |A|_F that local_falsifier uses unscaled: above it, a
# non-degenerate c = (A^dag a)*, with |c| > DEFAULT_RANK_TOL * |A|_F, has a
# normal (full-precision) |c|^2.
_MIN_SCALE = float(np.sqrt(np.finfo(float).tiny)) / DEFAULT_RANK_TOL


@dataclass(frozen=True, eq=False)
class LocalFalsifier:
    """Product falsifier a (x) b for the hypothesis that a bipartite pure
    state is |A>>; degenerate marks the A^dag a = 0 fallback."""

    vector_b: np.ndarray
    effect: Effect
    degenerate: bool


def local_falsifier(a_op, a_vec) -> LocalFalsifier:
    """Given A != 0 on a d x d bipartite space (d >= 2) and a unit vector a,
    pick b orthogonal to (A^dag a)* so that (<a| (x) <b|) |A>> = 0.

    When A^dag a vanishes every b works; the first canonical basis vector is
    returned with degenerate=True.
    """
    a_mat = as_matrix(a_op, square=True, name="local_falsifier operator")
    d = a_mat.shape[0]
    if d < 2:
        raise DimensionMismatchError(
            "local falsifier needs local dimension >= 2"
        )
    with np.errstate(over="ignore", under="ignore"):
        scale = float(np.linalg.norm(a_mat))
    if np.any(a_mat) and not _MIN_SCALE <= scale < np.inf:
        # Squares of A's or c's entries over- or underflow.  The falsifier
        # does not change when A is scaled by a positive number, so bring
        # its largest entry to 1 (part by part: a complex division by a
        # subnormal overflows).
        top = np.max(np.abs(a_mat))
        a_mat = a_mat.real / top + 1j * (a_mat.imag / top)
        scale = float(np.linalg.norm(a_mat))
    if scale == 0.0:
        raise OutOfRangeError("local_falsifier: operator must be nonzero")
    a, nrm = _bounded_vector(a_vec, "local_falsifier vector a")
    if a.size != d:
        raise DimensionMismatchError(
            f"vector length {a.size} does not match operator dim {d}"
        )
    if not abs(nrm - 1.0) <= 1e-8:
        raise OutOfRangeError("local_falsifier: vector a must have unit norm")
    c = np.conj(dagger(a_mat) @ a)
    if float(np.linalg.norm(c)) <= DEFAULT_RANK_TOL * scale:
        b = np.zeros(d, dtype=complex)
        b[0] = 1.0
        degenerate = True
    else:
        # Project the canonical vector least aligned with c onto c's
        # complement; its residual norm is at least sqrt(1 - 1/d) > 0.
        j = int(np.argmin(np.abs(c)))
        b = np.zeros(d, dtype=complex)
        b[j] = 1.0
        b = b - c * (np.conj(c[j]) / float(np.vdot(c, c).real))
        b = b / np.linalg.norm(b)
        degenerate = False
    effect = Effect(tensor(np.outer(a, a.conj()), np.outer(b, b.conj())))
    return LocalFalsifier(vector_b=b, effect=effect, degenerate=degenerate)


@dataclass(frozen=True, eq=False)
class Dilation:
    """Unitary realization of a trace-preserving channel: branch k of the
    channel equals Tr_env[U (rho (x) sigma) U^dag (I (x) P_k)]."""

    unitary: np.ndarray
    dim_sys: int
    dim_env: int

    def __post_init__(self) -> None:
        u = as_matrix(self.unitary, square=True, name="dilation unitary")
        d = self.dim_sys * self.dim_env
        if u.shape[0] != d:
            raise DimensionMismatchError(
                f"dilation unitary dim {u.shape[0]} != {self.dim_sys}x{self.dim_env}"
            )
        dev = float(np.max(np.abs(dagger(u) @ u - np.eye(d))))
        if dev > 1e-9:
            raise OutOfRangeError(f"dilation matrix deviates from unitary by {dev:.3e}")
        _frozen_array(self, "unitary", u)

    def branch(self, rho: QuantumState, k: int) -> np.ndarray:
        """Unnormalized post-measurement system state for environment
        outcome k, computed through the dilation circuit."""
        if rho.dim != self.dim_sys:
            raise DimensionMismatchError(
                f"state dim {rho.dim} != system dim {self.dim_sys}"
            )
        if not 0 <= k < self.dim_env:
            raise OutOfRangeError(f"branch index {k} out of range")
        # The ancilla |0><0| and the outcome projector |k><k|, exactly 0/1.
        env = np.eye(self.dim_env, dtype=complex)
        joint = tensor(rho.matrix, np.outer(env[0], env[0]))
        evolved = self.unitary @ joint @ dagger(self.unitary)
        picked = evolved @ tensor(
            np.eye(self.dim_sys, dtype=complex), np.outer(env[k], env[k])
        )
        return partial_trace(picked, self.dim_sys, self.dim_env, keep="A")


def dilate(channel: KrausChannel) -> Dilation:
    """Stinespring-style dilation of a trace-preserving square channel.

    The environment has dimension max(n_kraus, 2), the ancilla starts in
    |0><0|, and the isometry column for system basis vector j sits at
    column j * dim_env of the unitary; remaining columns are a deterministic
    orthonormal completion.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatchError(
            "only square channels are dilated directly; embed the channel "
            "into a square space first"
        )
    if not channel.deterministic:
        raise NotTracePreservingError(
            "dilation requires a trace-preserving channel"
        )
    d = channel.dim_in
    n_env = max(channel.n_kraus, 2)
    big = d * n_env
    v = np.zeros((big, d), dtype=complex)
    for k, a in enumerate(channel.kraus):
        v[k::n_env, :] = a
    w = complete_to_unitary(v)
    u = np.zeros((big, big), dtype=complex)
    occupied = [j * n_env for j in range(d)]
    free = [c for c in range(big) if c not in occupied]
    for j, col in enumerate(occupied):
        u[:, col] = w[:, j]
    for j, col in enumerate(free):
        u[:, col] = w[:, d + j]
    return Dilation(unitary=u, dim_sys=d, dim_env=n_env)


def state_support(rho: QuantumState, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    return support_projector(rho.spectrum, rank_tol)

