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
    _check_dims,
    _check_int,
    _check_psd,
    _eig_core,
    _frozen_array,
    _hermitian,
    _is_zero,
    _kron,
    _negligible,
    _normalized,
    _norms,
    _numbers,
    _rescale,
    _subnormalized,
    _support_projectors,
    _unit_spectrum,
    as_matrix,
    dagger,
    entries_bounded,
    support_mask,
)

def _pure_matrices(vectors) -> np.ndarray:
    """|v><v| for each pure state vector v of vectors, of one length, over
    its 2-norm, after _rescale to _MIN_SCALE; OutOfRangeError for a zero
    vector, an entry that as_matrix would reject, or a norm that overflows."""
    v = _numbers(vectors, complex, "pure state vector").reshape(len(vectors), -1)
    _rescale(v, _MIN_SCALE)
    nrm = _norms(v)
    if not nrm.all():
        raise OutOfRangeError("pure state vector must be nonzero")
    if not np.isfinite(nrm).all():
        raise OutOfRangeError("pure state vector has a norm beyond float range")
    v = v / nrm[:, None]
    return v[:, :, None] * v.conj()[:, None]


def _validate_states(a: np.ndarray, states: list["QuantumState"]) -> None:
    """Validate the complex (n, d, d) stack a, coerced at the entry point,
    as n states: Hermitian, PSD at -DEFAULT_RANK_TOL * lam_max, trace in
    (0, 1 + TRACE_TOL]; an error names the first failing index (see _at).
    Give states[k] matrix k, symmetrized, and its _eig_core spectrum, as
    read-only views."""
    h = _hermitian(a, "state matrix")
    values, vectors = _eig_core(h)
    _check_psd(values, "state matrix")
    tr = h.trace(axis1=1, axis2=2).real
    bad = ~((0.0 < tr) & _subnormalized(tr))
    if bad.any():
        k = int(bad.argmax())
        raise OutOfRangeError(f"{_at('state', k, len(h))} trace {float(tr[k])!r} outside (0, 1]")
    for b in (h, values, vectors):
        b.setflags(write=False)
    for state, m, w, v in zip(states, h, values, vectors):
        vars(state).update(matrix=m, spectrum=HermitianEig(w, v))


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Sub-normalized density matrix: Hermitian, PSD, trace in
    (0, 1 + TRACE_TOL].  Negative eigenvalues within -DEFAULT_RANK_TOL*lam_max
    are treated as zero rather than rejected.

    The eigendecomposition that validation computes, hermitian_eig(matrix),
    is kept, read-only, as the attribute `spectrum`; it is not a field, so
    repr and equality ignore it."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # A stack of one, validated as _states validates whole stacks; the
        # exactly Hermitian result has the spectrum bits of hermitian_eig.
        _validate_states(as_matrix(self.matrix, square=True, name="state matrix")[None], [self])

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        return cls(_pure_matrices([vector])[0])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        _check_dims("maximally_mixed dimension", dim)
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def deterministic(self) -> bool:
        """True when the state is normalized (trace one within TRACE_TOL)."""
        return _normalized(abs(self.trace - 1.0))

    def rank(self) -> int:
        return _ranks([self])[0]


def _ranks(states: list[QuantumState]) -> list[int]:
    """s.rank() for each of states, of one dimension, from one stacked mask."""
    mask = support_mask(np.array([s.spectrum.values for s in states]))
    return np.count_nonzero(mask, axis=1).tolist()


def _states(stack) -> list[QuantumState]:
    """QuantumStates for an (n, d, d) stack of matrices, validated together
    by the code each QuantumState(m) runs on a stack of one."""
    a = _as_stack(stack, "state matrix")
    states = [object.__new__(QuantumState) for _ in a]
    _validate_states(a, states)
    return states


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement element: Hermitian, spectrum in [0, 1] within SPECTRUM_TOL.

    Validation reads only the lowest and highest eigenvalue; no spectrum is
    kept."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        _effects(as_matrix(self.matrix, square=True, name="effect matrix")[None], [self])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.matrix)


def _effects(mats, effects=None) -> list[Effect]:
    """Effect(m) for each m of mats, of one dimension, validated as one stack
    (a spectrum error names the eigenvalue furthest out of [0, 1]): new
    objects, or `effects`, an Effect validating itself as a stack of one."""
    if not len(mats):
        return []
    h = _hermitian(_as_stack(mats, "effect matrix"), "effect matrix")
    low, high = _unit_spectrum(_eig_core(h)[0])
    if low is not None:
        raise NotPSDError(f"effect has eigenvalue {low:.3e} below zero")
    if high is not None:
        raise OutOfRangeError(f"effect has eigenvalue {high:.3e} above one")
    h.setflags(write=False)
    effects = effects or [object.__new__(Effect) for _ in h]
    for effect, m in zip(effects, h):
        vars(effect).update(matrix=m)
    return effects


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
        _channels(np.array(ops)[None], [self])

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


def _channels(families, channels=None) -> list[KrausChannel]:
    """KrausChannel(f) for each Kraus family f, of one count and shape,
    validated as one stack (an error is one channel's, naming none): new
    objects, or `channels`, a KrausChannel validating itself as one."""
    a = _numbers(families, complex, "Kraus operator")
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
    channels = channels or [object.__new__(KrausChannel) for _ in a]
    for channel, ops in zip(channels, a):
        vars(channel).update(kraus=tuple(ops))
    return channels


def born_probability(rho: QuantumState, effect: Effect) -> float:
    """Tr(rho E), clamped to [0, 1].  Raises NumericalContaminationError if
    the trace carries imaginary weight above _IMAG_TOL (1e-8)."""
    if rho.dim != effect.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} vs effect dim {effect.dim}"
        )
    return _born_probabilities([rho], [effect])[0]


def _born_probabilities(rhos: list[QuantumState], effects: list[Effect]) -> list[float]:
    """born_probability(rhos[k], effects[k]) for every k, as one stacked
    trace; all must share one dimension."""
    r, e = (np.array([x.matrix for x in xs]) for xs in (rhos, effects))
    p = np.trace(r @ e, axis1=1, axis2=2)
    bad = np.abs(p.imag) > _IMAG_TOL
    if bad.any():
        raise NumericalContaminationError(
            f"Born probability has imaginary part {p.imag[bad.argmax()]:.3e}"
        )
    return [min(1.0, max(0.0, x)) for x in p.real.tolist()]


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
    a = np.array([channel.kraus for channel in channels])
    r = np.array([rho.matrix for rho in rhos])
    return _states(sum(a[:, j] @ r @ a[:, j].conj().swapaxes(1, 2) for j in range(a.shape[1])))


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure bipartite vector whose first-factor marginal is a target state."""

    state_vector: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        v = _numbers(self.state_vector, complex, "purification vector").reshape(1, -1)
        _check_dims("purification dimension", self.dim_a, self.dim_b)
        if v.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"purification vector length {v.size} != {self.dim_a}x{self.dim_b}"
            )
        _purification_stack(v, self.dim_a, self.dim_b, [self])

    def marginal(self) -> QuantumState:
        """Reduced state on the first factor: M M^dag, where M is the
        dim_a x dim_b matrix of the vector."""
        return _marginals([self])[0]


def _purification_stack(psi: np.ndarray, dim_a: int, dim_b: int, purs=None) -> list:
    """Purification(p, dim_a, dim_b) for each row p of the stack psi, with
    one unit-norm check: new objects, or `purs`, a Purification validating
    itself as a stack of one."""
    if not _normalized(np.abs(_norms(psi) - 1.0)).all():
        raise OutOfRangeError("purification vector must have unit norm")
    psi.setflags(write=False)
    purs = purs or [object.__new__(Purification) for _ in psi]
    for pur, v in zip(purs, psi):
        vars(pur).update(state_vector=v, dim_a=dim_a, dim_b=dim_b)
    return purs


def _marginals(purs: list[Purification]) -> list[QuantumState]:
    """p.marginal() for each p of purs, which must share dim_a and dim_b,
    validated as one stack."""
    m = np.array([p.state_vector.reshape(p.dim_a, p.dim_b) for p in purs])
    return _states(m @ m.conj().swapaxes(1, 2))


def purify(rho: QuantumState) -> Purification:
    """Minimal purification: environment dimension equals the rank of rho,
    environment basis ordered by descending eigenvalue."""
    return _purifications([rho])[0]


def _purifications(rhos: list[QuantumState]) -> list[Purification]:
    """purify(rho) for each of rhos, which must share one dimension and one
    rank, built as one stack."""
    traces = np.trace(np.array([rho.matrix for rho in rhos]), axis1=1, axis2=2).real
    if not _normalized(np.abs(traces - 1.0)).all():
        raise NotDeterministicError("only trace-one states are purified")
    lams, vecs = _support_spectra(rhos)
    # psi = sum_i sqrt(lam_i) v_i (x) e_i, i.e. the double-ket of V sqrt(L).
    psi = (vecs * np.sqrt(lams)[:, None, :]).reshape(len(rhos), -1)
    return _purification_stack(psi / _norms(psi)[:, None], rhos[0].dim, lams.shape[1])


def _support_spectra(states: list[QuantumState]) -> tuple[np.ndarray, np.ndarray]:
    """The kept eigenvalues and eigenvector columns of states of one dimension
    and rank, stacked: each support is a prefix of the descending spectrum."""
    values = np.array([s.spectrum.values for s in states])
    rank = int(np.count_nonzero(support_mask(values[0])))
    return values[:, :rank], np.array([s.spectrum.vectors[:, :rank] for s in states])


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
    return _connecting_unitaries([p1], [p2])[0]


def _connecting_unitaries(p1s: list[Purification], p2s: list[Purification]) -> list[np.ndarray]:
    """connecting_unitary(p1s[k], p2s[k]) for every k, from one stacked SVD;
    all must share dim_a and dim_b."""
    shape = (-1, p1s[0].dim_a, p1s[0].dim_b)
    m1, m2 = (np.array([p.state_vector for p in ps]).reshape(shape) for ps in (p1s, p2s))
    rho1, rho2 = (m @ m.conj().swapaxes(1, 2) for m in (m1, m2))
    if float(np.max(np.abs(rho1 - rho2))) > _MARGINAL_TOL:
        raise PurificationMismatchError("purifications reduce to different marginals")
    # M2 = M1 U^T, so U^T is the unitary polar factor of M1^dag M2: the
    # orthogonal Procrustes solution, which needs no support cut.
    w, _, vh = np.linalg.svd(m1.conj().swapaxes(1, 2) @ m2)
    u = (w @ vh).swapaxes(1, 2)
    same = [np.array_equal(p1.state_vector, p2.state_vector) for p1, p2 in zip(p1s, p2s)]
    u[same] = np.eye(shape[2])
    return list(u)


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
        return _falsifiers([self.kernel_rho])[0]

    @property
    def falsifier_nu(self) -> Effect | None:
        return _falsifiers([self.kernel_nu])[0]


def _falsifiers(kernels: list[np.ndarray]) -> list[Effect | None]:
    """None for each zero kernel projector, else its Effect; the kernels,
    of one dimension, are validated as one stack."""
    found = iter(_effects([k for k in kernels if not _is_zero(k)]))
    return [None if _is_zero(k) else next(found) for k in kernels]


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
        np.array([s.spectrum.values for s in states]),
        np.array([s.spectrum.vectors for s in states]),
    )
    overlaps = np.abs(p[:n] @ p[n:]).max(axis=(1, 2)).tolist()
    kernels = np.eye(rhos[0].dim, dtype=complex) - p
    kernels.setflags(write=False)
    results = [object.__new__(DiscriminationResult) for _ in overlaps]
    for res, overlap, k_rho, k_nu in zip(results, overlaps, kernels[:n], kernels[n:]):
        vars(res).update(
            discriminable=overlap <= _ORTHOGONALITY_TOL, overlap=overlap,
            kernel_rho=k_rho, kernel_nu=k_nu,
        )
    return results


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
    v = np.array([r.isometry.T for r in results]).swapaxes(1, 2)
    s = np.array([r.state.matrix for r in results])
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
    _, cols = _support_spectra(rhos)
    if cols.shape[1] == cols.shape[2]:
        raise NotCompressibleError(
            f"state has full support (rank {cols.shape[2]} = dim); nothing to compress"
        )
    v = cols.conj().swapaxes(1, 2)
    states = _states(v @ np.array([rho.matrix for rho in rhos]) @ v.conj().swapaxes(1, 2))
    return [CompressionResult(isometry=iso, state=state) for iso, state in zip(v, states)]


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Decomposition of a bipartite state as sum_j |A_j>><<A_j| with
    Tr(A_i^dag A_j) = delta_ij p_j."""

    operators: tuple[np.ndarray, ...]
    weights: np.ndarray

    def reconstruction(self) -> np.ndarray:
        return _reconstructions([self])[0]


def _reconstructions(cfs: list[CanonicalForm]) -> np.ndarray:
    """cf.reconstruction() for each of cfs, which must agree in operator
    count and shape: sum_j |A_j>><<A_j|, added in operator order."""
    ops = np.array([cf.operators for cf in cfs])
    dk = ops.reshape(*ops.shape[:2], -1)
    out = np.zeros((len(dk), dk.shape[2], dk.shape[2]), dtype=complex)
    for j in range(dk.shape[1]):
        out += dk[:, j, :, None] * dk[:, j, None].conj()
    return out


def canonical_form(r: QuantumState) -> CanonicalForm:
    """Spectral double-ket decomposition of a state on a d x d bipartite
    space: A_j = sqrt(lam_j) unvec(v_j) for each kept eigenpair, with the
    kept eigenvalues lam_j as the weights."""
    return _canonical_forms([r])[0]


def _canonical_forms(rs: list[QuantumState]) -> list[CanonicalForm]:
    """canonical_form(r) for each of rs, which must share one dimension and
    one rank, built as one stack."""
    dim = rs[0].dim
    d = int(round(np.sqrt(dim)))
    if d * d != dim:
        raise DimensionMismatchError(
            f"canonical_form needs a bipartite d^2 dimension, got {dim}"
        )
    lams, vecs = _support_spectra(rs)
    ops = np.sqrt(lams)[:, :, None, None] * vecs.swapaxes(1, 2).reshape(*lams.shape, d, d)
    return [CanonicalForm(operators=tuple(o), weights=w) for o, w in zip(ops, lams)]


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
    a_mat = as_matrix(a_op, square=True, name="local_falsifier operator")
    return _local_falsifiers([a_mat], [a_vec])[0]


def _local_falsifiers(a_ops, a_vecs) -> list[LocalFalsifier]:
    """local_falsifier(a_ops[k], a_vecs[k]) for every k, of one dimension, as
    one stack: rows that rescale or degenerate take their branch row by row,
    and a failing row raises a single case's error (naming its row, as _at
    does, for a bad entry)."""
    a_mat = _as_stack(a_ops, "local_falsifier operator")
    n, d = a_mat.shape[:2]
    if d < 2:
        raise DimensionMismatchError("local falsifier needs local dimension >= 2")
    flat = a_mat.reshape(n, -1)
    scale = _norms(flat)
    off = flat.any(axis=1) & ~((_MIN_SCALE <= scale) & (scale < np.inf))
    if off.any():
        # Squares of A's or c's entries over- or underflow.  The falsifier
        # does not change when A is scaled by a positive number, so bring
        # its largest entry to 1 (part by part: a complex division by a
        # subnormal overflows).
        top = np.abs(flat[off]).max(axis=1, keepdims=True)
        flat[off] = flat[off].real / top + 1j * (flat[off].imag / top)
        scale[off] = _norms(flat[off])
    if not scale.all():
        raise OutOfRangeError("local_falsifier: operator must be nonzero")
    a = _numbers(a_vecs, complex, "local_falsifier vector a").reshape(n, -1)
    if a.shape[1] != d:
        raise DimensionMismatchError(
            f"vector length {a.shape[1]} does not match operator dim {d}"
        )
    nrm = _norms(a)
    if not (np.abs(nrm - 1.0) <= _UNIT_NORM_TOL).all():
        raise OutOfRangeError("local_falsifier: vector a must have unit norm")
    a = a / nrm[:, None]
    c = np.conj(a_mat.conj().swapaxes(1, 2) @ a[:, :, None])[:, :, 0]
    degenerate = _negligible(_norms(c), scale)
    j = np.where(degenerate, 0, np.abs(c).argmin(axis=1))
    b = np.zeros_like(c)
    b[np.arange(n), j] = 1.0
    live = ~degenerate
    if live.any():
        # Project the canonical vector least aligned with c onto c's
        # complement; its residual norm is at least sqrt(1 - 1/d) > 0.
        c, j = c[live], j[live]
        cc = (c.conj()[:, None] @ c[:, :, None])[:, 0, 0].real
        bl = b[live] - c * (np.conj(c[np.arange(len(c)), j]) / cc)[:, None]
        b[live] = bl / _norms(bl)[:, None]
    ket = a[:, :, None] * a.conj()[:, None]
    effects = _effects(_kron(ket, b[:, :, None] * b.conj()[:, None]))
    return [LocalFalsifier(*found) for found in zip(b, effects, degenerate.tolist())]


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
        return _branches([self], [rho])[0, k]


def _branches(dilations: list[Dilation], rhos: list[QuantumState]) -> np.ndarray:
    """dilations[i].branch(rhos[i], k) for every i and k, stacked (n, dim_env,
    d, d); the dilations must share dim_sys and dim_env.  rho (x) |0><0| is
    rho on rows and columns j * dim_env.  The partial trace of the evolved
    state times I (x) |k><k| is its slice at j * dim_env + k: the 0/1
    product and the trace add only exact zeros."""
    n_env = dilations[0].dim_env
    u = np.array([dil.unitary for dil in dilations])
    joint = np.zeros_like(u)
    joint[:, ::n_env, ::n_env] = np.array([rho.matrix for rho in rhos])
    evolved = u @ joint @ u.conj().swapaxes(1, 2)
    return np.stack([evolved[:, k::n_env, k::n_env] for k in range(n_env)], axis=1)


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
    return _dilations([channel])[0]


def _dilations(channels: list[KrausChannel]) -> list[Dilation]:
    """dilate(c) for each of channels, which must agree in Kraus count and
    square shape, with one eigendecomposition stack."""
    if not all(channel.deterministic for channel in channels):
        raise NotTracePreservingError("dilation requires a trace-preserving channel")
    a = np.array([channel.kraus for channel in channels])
    n, n_kraus, d = a.shape[:3]
    n_env = max(n_kraus, 2)
    big = d * n_env
    v = np.zeros((n, big, d), dtype=complex)
    v.reshape(n, d, n_env, d)[:, :, :n_kraus] = a.swapaxes(1, 2)  # row j * n_env + k is A_k's row j
    # The kernel of V^dag is the eigenvalue-1 eigenspace of I - V V^dag.
    gram = np.eye(big) - v @ v.conj().swapaxes(1, 2)
    kernel = _eig_core(_hermitian(gram, "hermitian_eig input"))[1][:, :, : big - d]
    u = np.empty((n, big, big), dtype=complex)
    u[:, :, ::n_env] = v
    u[:, :, [c for c in range(big) if c % n_env]] = kernel
    return [Dilation(unitary=m, dim_sys=d, dim_env=n_env) for m in u]
