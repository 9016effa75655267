"""Quantum theory core.

Immutable validated types (states, effects, purifications), the Born rule
and purification: what every subcommand runs.  The structure theorems,
which only check-postulates and the public API run, live in theorems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    NotPSDError,
    NumericalContaminationError,
    OutOfRangeError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    _IMAG_TOL,
    HermitianEig,
    _as_stack,
    _at,
    _check_dims,
    _check_psd,
    _eig_core,
    _hermitian,
    _is_zero,
    _normalized,
    _norms,
    _numbers,
    _rescale,
    _subnormalized,
    _unit_spectrum,
    as_matrix,
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


# Smallest |A|_F that local_falsifier uses unscaled: above it, a
# non-degenerate c = (A^dag a)*, with |c| > DEFAULT_RANK_TOL * |A|_F, has a
# normal (full-precision) |c|^2.
_MIN_SCALE = float(np.sqrt(np.finfo(float).tiny)) / DEFAULT_RANK_TOL
