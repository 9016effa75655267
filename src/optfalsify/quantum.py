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
    _IMAG_TOL,
    _MARGINAL_TOL,
    _ORTHOGONALITY_TOL,
    _UNIT_NORM_TOL,
    _UNITARY_TOL,
    HermitianEig,
    _as_stack,
    _at,
    _bounded_vector,
    _check_dims,
    _check_int,
    _check_psd,
    _eig_core,
    _frozen_array,
    _hermitian,
    _is_zero,
    _negligible,
    _normalized,
    _numbers,
    _subnormalized,
    _support_projectors,
    _unit_spectrum,
    as_matrix,
    dagger,
    doubleket_to_mat,
    entries_bounded,
    hermitian_eig,
    mat_to_doubleket,
    partial_trace,
    support_mask,
    tensor,
)

def _pure_matrix(vector) -> np.ndarray:
    """|v><v| for the pure state vector v over its 2-norm, as
    QuantumState.pure normalizes it; OutOfRangeError for a zero vector, an
    entry that as_matrix would reject, or a norm that overflows."""
    v, nrm = _bounded_vector(vector, "pure state vector")
    if nrm == 0.0:
        raise OutOfRangeError("pure state vector must be nonzero")
    if not np.isfinite(nrm):
        raise OutOfRangeError("pure state vector has a norm beyond float range")
    v = v / nrm
    return np.outer(v, v.conj())


def _validate_states(a: np.ndarray, states: list["QuantumState"]) -> None:
    """Validate the complex (n, d, d) stack a, coerced at the entry point,
    as n states: Hermitian, PSD at -DEFAULT_RANK_TOL * lam_max, trace in
    (0, 1 + TRACE_TOL]; an error names the first failing index (see _at).
    Give states[k] matrix k, symmetrized, and its _eig_core spectrum, as
    read-only views."""
    h = _hermitian(a, "state matrix")
    values, vectors = _eig_core(h)
    _check_psd(values, "state matrix")
    for k, tr in enumerate(h.trace(axis1=1, axis2=2).real.tolist()):
        if not (0.0 < tr and _subnormalized(tr)):
            where = _at("state", k, len(h))
            raise OutOfRangeError(f"{where} trace {tr!r} outside (0, 1]")
    for b in (h, values, vectors):
        b.setflags(write=False)
    for k, state in enumerate(states):
        object.__setattr__(state, "matrix", h[k])
        object.__setattr__(state, "_spectrum", HermitianEig(values[k], vectors[k]))


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Sub-normalized density matrix: Hermitian, PSD, trace in
    (0, 1 + TRACE_TOL].  Negative eigenvalues within -DEFAULT_RANK_TOL*lam_max
    are treated as zero rather than rejected.

    The eigendecomposition that validation computes is kept, read-only, as
    `spectrum`; it is not a field, so repr and equality ignore it."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # A stack of one, validated as _states validates whole stacks; the
        # exactly Hermitian result has the spectrum bits of hermitian_eig.
        a = as_matrix(self.matrix, square=True, name="state matrix")[None]
        _validate_states(a, [self])

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        return cls(_pure_matrix(vector))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        _check_dims("maximally_mixed dimension", dim)
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
        return _normalized(abs(self.trace - 1.0))

    def rank(self) -> int:
        return int(np.count_nonzero(support_mask(self.spectrum.values)))


def _states(stack) -> list[QuantumState]:
    """QuantumStates for an (n, d, d) stack of matrices, validated together
    by the code each QuantumState(m) runs on a stack of one; each state's
    matrix and spectrum are read-only views of the validated stack.  Every
    check applies, and an error names the first failing one as _at does."""
    a = _as_stack(stack, "state matrix")
    states = [object.__new__(QuantumState) for _ in range(len(a))]
    _validate_states(a, states)
    return states


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement element: Hermitian, spectrum in [0, 1] within SPECTRUM_TOL.

    Validation reads only the lowest and highest eigenvalue; no spectrum is
    kept."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        _validate_effects(as_matrix(self.matrix, square=True, name="effect matrix")[None], [self])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.matrix)


def _validate_effects(a: np.ndarray, effects: list[Effect]) -> None:
    """Validate the complex (n, d, d) stack a as n effects, and give
    effects[k] matrix k, symmetrized, read-only.  A spectrum error names the
    eigenvalue furthest out of [0, 1], not its effect."""
    h = _hermitian(a, "effect matrix")
    low, high = _unit_spectrum(_eig_core(h)[0])
    if low is not None:
        raise NotPSDError(f"effect has eigenvalue {low:.3e} below zero")
    if high is not None:
        raise OutOfRangeError(f"effect has eigenvalue {high:.3e} above one")
    h.setflags(write=False)
    for k, effect in enumerate(effects):
        object.__setattr__(effect, "matrix", h[k])


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-nonincreasing map sum_k A_k . A_k^dag."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        try:
            empty = not len(self.kraus)
        except TypeError:  # no length: a number or None
            empty = True
        if empty:
            raise DimensionMismatchError("channel needs a nonempty Kraus list")
        ops = tuple(as_matrix(a, name="Kraus operator") for a in self.kraus)
        shape = ops[0].shape
        for a in ops[1:]:
            if a.shape != shape:
                raise DimensionMismatchError(
                    f"Kraus operators disagree in shape: {a.shape} vs {shape}"
                )
        _validate_channels(np.stack(ops)[None], [self])

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
    def deterministic(self) -> bool:
        """True when trace-preserving: sum A^dag A = I within TRACE_TOL."""
        gram = sum(dagger(a) @ a for a in self.kraus)
        eye = np.eye(self.dim_in, dtype=complex)
        return _normalized(float(np.max(np.abs(gram - eye))))


def _validate_channels(a: np.ndarray, channels: list[KrausChannel]) -> None:
    """Validate the complex (n, n_kraus, d_out, d_in) stack a as n channels
    (an error is one channel's, naming none), and give channels[k] the
    read-only views a[k] as its Kraus operators."""
    # Entries within MAX_ENTRY can still overflow the products; such a
    # gram is rejected below, so the warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum(a[:, j].conj().swapaxes(1, 2) @ a[:, j] for j in range(a.shape[1]))
    if not entries_bounded(gram):
        raise OutOfRangeError(
            "channel is not trace-nonincreasing: sum A^dag A has an entry "
            f"that is not finite or has modulus above {MAX_ENTRY:.4e}"
        )
    h = _hermitian(gram, "channel gram sum A^dag A")
    _, top = _unit_spectrum(_eig_core(h)[0])
    if top is not None:
        raise OutOfRangeError(
            "channel is not trace-nonincreasing: sum A^dag A exceeds identity "
            f"(top eigenvalue {top:.6f})"
        )
    a.setflags(write=False)
    for k, channel in enumerate(channels):
        object.__setattr__(channel, "kraus", tuple(a[k]))


def _channels(families) -> list[KrausChannel]:
    """KrausChannel(f) for each Kraus family f, validated as one stack; all
    must hold as many operators of one shape."""
    channels = [object.__new__(KrausChannel) for _ in families]
    _validate_channels(_numbers(families, complex, "Kraus operator"), channels)
    return channels


def born_probability(rho: QuantumState, effect: Effect) -> float:
    """Tr(rho E), clamped to [0, 1].  Raises NumericalContaminationError if
    the trace carries imaginary weight above _IMAG_TOL (1e-8)."""
    if rho.dim != effect.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} vs effect dim {effect.dim}"
        )
    p = complex(np.trace(rho.matrix @ effect.matrix))
    if abs(p.imag) > _IMAG_TOL:
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
    return _apply_channels([channel], [rho])[0]


def _apply_channels(channels: list[KrausChannel], rhos: list[QuantumState]) -> list[QuantumState]:
    """apply_channel(channels[k], rhos[k]) for every k, validated as one
    stack; the channels must agree in Kraus count and shape."""
    a = np.stack([channel.kraus for channel in channels])
    r = np.stack([rho.matrix for rho in rhos])
    return _states(sum(a[:, j] @ r @ a[:, j].conj().swapaxes(1, 2) for j in range(a.shape[1])))


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure bipartite vector whose first-factor marginal is a target state."""

    state_vector: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        v, nrm = _bounded_vector(self.state_vector, "purification vector")
        _check_dims("purification dimension", self.dim_a, self.dim_b)
        if v.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"purification vector length {v.size} != {self.dim_a}x{self.dim_b}"
            )
        if not _normalized(abs(nrm - 1.0)):
            raise OutOfRangeError("purification vector must have unit norm")
        _frozen_array(self, "state_vector", v)

    def marginal(self) -> QuantumState:
        """Reduced state on the first factor: M M^dag, where M is the
        dim_a x dim_b matrix of the vector."""
        return _marginals([self])[0]


def _marginals(purs: list[Purification]) -> list[QuantumState]:
    """p.marginal() for each p of purs, which must share dim_a and dim_b,
    validated as one stack."""
    m = np.stack([p.state_vector.reshape(p.dim_a, p.dim_b) for p in purs])
    return _states(m @ m.conj().swapaxes(1, 2))


def purify(rho: QuantumState) -> Purification:
    """Minimal purification: environment dimension equals the rank of rho,
    environment basis ordered by descending eigenvalue."""
    if not rho.deterministic:
        raise NotDeterministicError("only trace-one states are purified")
    eig = rho.spectrum
    keep = support_mask(eig.values)
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
    marginal within _MARGINAL_TOL (else PurificationMismatchError).
    Identical inputs return the identity exactly.
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
    if float(np.max(np.abs(rho1 - rho2))) > _MARGINAL_TOL:
        raise PurificationMismatchError(
            "purifications reduce to different marginals"
        )
    # M2 = M1 U^T, so U^T is the unitary polar factor of M1^dag M2: the
    # orthogonal Procrustes solution, which needs no support cut.
    w, _, vh = np.linalg.svd(dagger(m1) @ m2)
    return (w @ vh).T


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    """Outcome of the orthogonal-support test for a pair of states, with the
    projector onto each state's kernel (read-only).  A state's falsifier is
    its kernel, validated as an Effect each time it is read; a full-rank
    state, whose kernel is zero, has none."""

    discriminable: bool
    overlap: float
    kernel_rho: np.ndarray
    kernel_nu: np.ndarray

    @property
    def falsifier_rho(self) -> Effect | None:
        return None if _is_zero(self.kernel_rho) else Effect(self.kernel_rho)

    @property
    def falsifier_nu(self) -> Effect | None:
        return None if _is_zero(self.kernel_nu) else Effect(self.kernel_nu)


def perfectly_discriminable(rho: QuantumState, nu: QuantumState) -> DiscriminationResult:
    """States are perfectly discriminable in one shot iff their supports are
    orthogonal (max entry of P_rho P_nu at most _ORTHOGONALITY_TOL).  The
    falsifier for each state is the projector onto its kernel, which
    captures the other state entirely in the discriminable case."""
    if rho.dim != nu.dim:
        raise DimensionMismatchError(f"state dims differ: {rho.dim} vs {nu.dim}")
    return _discriminate([rho], [nu])[0]


def _discriminate(
    rhos: list[QuantumState], nus: list[QuantumState]
) -> list[DiscriminationResult]:
    """perfectly_discriminable(rhos[k], nus[k]) for every k, with every
    projector, overlap and kernel of the pairs built as one stack; the
    states must all share one dimension."""
    states = [*rhos, *nus]
    n = len(rhos)
    p = _support_projectors(
        np.stack([s.spectrum.values for s in states]),
        np.stack([s.spectrum.vectors for s in states]),
    )
    overlaps = np.abs(p[:n] @ p[n:]).max(axis=(1, 2)).tolist()
    kernels = np.eye(rhos[0].dim, dtype=complex) - p
    kernels.setflags(write=False)
    return [
        DiscriminationResult(
            discriminable=overlap <= _ORTHOGONALITY_TOL,
            overlap=overlap,
            kernel_rho=kernels[k],
            kernel_nu=kernels[n + k],
        )
        for k, overlap in enumerate(overlaps)
    ]


@dataclass(frozen=True, eq=False)
class CompressionResult:
    """Isometry onto the support face and the compressed state."""

    isometry: np.ndarray
    state: QuantumState

    def decode(self) -> QuantumState:
        """Embed the compressed state back into the original space."""
        return _decoded([self])[0]


def _decoded(results: list[CompressionResult]) -> list[QuantumState]:
    """r.decode() for each r of results, which must agree in isometry shape,
    validated as one stack.  The isometries keep their column-major layout,
    so BLAS sees the operands of a single decode."""
    v = np.stack([r.isometry.T for r in results]).swapaxes(1, 2)
    s = np.stack([r.state.matrix for r in results])
    return _states(v.conj().swapaxes(1, 2) @ s @ v)


def compress(rho: QuantumState) -> CompressionResult:
    """Lossless restriction of a rank-deficient state to its support.

    Returns V of shape (rank, dim) with V V^dag = I_rank and the state
    V rho V^dag.  Full-rank states raise NotCompressibleError.
    """
    return _compress([rho])[0]


def _compress(rhos: list[QuantumState]) -> list[CompressionResult]:
    """compress(rho) for each of rhos, which must share one dimension and
    one rank, with the compressed states validated as one stack."""
    cols = [rho.spectrum.vectors[:, support_mask(rho.spectrum.values)] for rho in rhos]
    rank, dim = cols[0].shape[1], rhos[0].dim
    if rank == dim:
        raise NotCompressibleError(
            f"state has full support (rank {rank} = dim); nothing to compress"
        )
    v = np.stack(cols).conj().swapaxes(1, 2)
    states = _states(v @ np.stack([rho.matrix for rho in rhos]) @ v.conj().swapaxes(1, 2))
    return [CompressionResult(isometry=iso, state=state) for iso, state in zip(v, states)]


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
    space: A_j = sqrt(lam_j) unvec(v_j) for each kept eigenpair, with the
    kept eigenvalues lam_j as the weights."""
    d = int(round(np.sqrt(r.dim)))
    if d * d != r.dim:
        raise DimensionMismatchError(
            f"canonical_form needs a bipartite d^2 dimension, got {r.dim}"
        )
    eig = r.spectrum
    keep = support_mask(eig.values)
    lams = eig.values[keep]
    ops = tuple(
        np.sqrt(lam) * doubleket_to_mat(vec, d, d)
        for lam, vec in zip(lams, eig.vectors[:, keep].T)
    )
    return CanonicalForm(operators=ops, weights=lams)


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
    """Given A != 0 on a d x d bipartite space (d >= 2) and a unit vector a
    (its norm within _UNIT_NORM_TOL of one; it is then normalized), pick b
    orthogonal to (A^dag a)* so that (<a| (x) <b|) |A>> = 0.

    When A^dag a vanishes every b works; the first canonical basis vector is
    returned with degenerate=True.
    """
    return _local_falsifiers([a_op], [a_vec])[0]


def _local_falsifiers(a_ops, a_vecs) -> list[LocalFalsifier]:
    """local_falsifier(a_ops[k], a_vecs[k]) for every k, the effects
    validated as one stack; the operators must share one dimension."""
    found = [_falsifier_parts(a_op, a_vec) for a_op, a_vec in zip(a_ops, a_vecs)]
    effects = [object.__new__(Effect) for _ in found]
    _validate_effects(_as_stack([m for _, m, _ in found], "effect matrix"), effects)
    return [LocalFalsifier(b, e, degenerate) for (b, _, degenerate), e in zip(found, effects)]


def _falsifier_parts(a_op, a_vec) -> tuple[np.ndarray, np.ndarray, bool]:
    """local_falsifier's vector b, the matrix of its effect, and whether
    A^dag a vanished."""
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
    if not abs(nrm - 1.0) <= _UNIT_NORM_TOL:
        raise OutOfRangeError("local_falsifier: vector a must have unit norm")
    a = a / nrm
    c = np.conj(dagger(a_mat) @ a)
    degenerate = _negligible(float(np.linalg.norm(c)), scale)
    j = 0 if degenerate else int(np.argmin(np.abs(c)))
    b = np.zeros(d, dtype=complex)
    b[j] = 1.0
    if not degenerate:
        # Project the canonical vector least aligned with c onto c's
        # complement; its residual norm is at least sqrt(1 - 1/d) > 0.
        b = b - c * (np.conj(c[j]) / float(np.vdot(c, c).real))
        b = b / np.linalg.norm(b)
    return b, tensor(np.outer(a, a.conj()), np.outer(b, b.conj())), degenerate


@dataclass(frozen=True, eq=False)
class Dilation:
    """Unitary realization of a trace-preserving channel: branch k of the
    channel equals Tr_env[U (rho (x) sigma) U^dag (I (x) P_k)]."""

    unitary: np.ndarray
    dim_sys: int
    dim_env: int

    def __post_init__(self) -> None:
        u = as_matrix(self.unitary, square=True, name="dilation unitary")
        _check_dims("dilation dimension", self.dim_sys, self.dim_env)
        d = self.dim_sys * self.dim_env
        if u.shape[0] != d:
            raise DimensionMismatchError(
                f"dilation unitary dim {u.shape[0]} != {self.dim_sys}x{self.dim_env}"
            )
        dev = float(np.max(np.abs(dagger(u) @ u - np.eye(d))))
        if dev > _UNITARY_TOL:
            raise OutOfRangeError(f"dilation matrix deviates from unitary by {dev:.3e}")
        _frozen_array(self, "unitary", u)

    def branch(self, rho: QuantumState, k: int) -> np.ndarray:
        """Unnormalized post-measurement system state for environment
        outcome k, computed through the dilation circuit."""
        if rho.dim != self.dim_sys:
            raise DimensionMismatchError(
                f"state dim {rho.dim} != system dim {self.dim_sys}"
            )
        k = _check_int(k, 0, OutOfRangeError, f"branch index {k} out of range")
        if k >= self.dim_env:
            raise OutOfRangeError(f"branch index {k} out of range")
        # The ancilla |0><0| and the outcome projector |k><k|, exactly 0/1.
        env = np.eye(self.dim_env, dtype=complex)
        joint = tensor(rho.matrix, np.outer(env[0], env[0]))
        evolved = self.unitary @ joint @ dagger(self.unitary)
        picked = evolved @ tensor(
            np.eye(self.dim_sys, dtype=complex), np.outer(env[k], env[k])
        )
        return partial_trace(picked, self.dim_sys, self.dim_env)


def dilate(channel: KrausChannel) -> Dilation:
    """Stinespring-style dilation of a trace-preserving square channel.

    The environment has dimension max(n_kraus, 2), the ancilla starts in
    |0><0|, and the isometry column for system basis vector j sits at
    column j * dim_env of the unitary; the remaining columns, in order, are
    the leading eigenvectors of I - V V^dag for the isometry V, in
    hermitian_eig's order and phase convention.
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
    # The kernel of V^dag is the eigenvalue-1 eigenspace of I - V V^dag.
    kernel = hermitian_eig(np.eye(big) - v @ dagger(v)).vectors[:, : big - d]
    u = np.empty((big, big), dtype=complex)
    u[:, ::n_env] = v
    u[:, [c for c in range(big) if c % n_env]] = kernel
    return Dilation(unitary=u, dim_sys=d, dim_env=n_env)
