"""Seeded random matrices, states, and channels for property checks."""

from __future__ import annotations

import numpy as np

from .linalg import _norms, dagger


def _ginibre(z) -> np.ndarray:
    """The complex matrices of normals z shaped (..., 2, rows, cols): real
    parts, then imaginary parts, as random_complex_matrix draws them.  Each
    random_* draw builds its normals by such a route, whose stack along the
    leading axes gives the bits of one draw at a time."""
    z = np.asarray(z)
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def random_complex_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return _ginibre(rng.standard_normal((2, rows, cols)))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _unit_vectors(rng.standard_normal((1, 2, dim)))[0]


def _unit_vectors(z) -> np.ndarray:
    """random_unit_vector of normals z (n, 2, dim)."""
    v = z[:, 0] + 1j * z[:, 1]
    return v / _norms(v)[:, None]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phases fixed."""
    return _unitaries(rng.standard_normal((2, dim, dim)))


def _unitaries(z) -> np.ndarray:
    """random_unitary of normals z (..., 2, dim, dim)."""
    q, r = np.linalg.qr(_ginibre(z))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Trace-one PSD matrix of the given rank (full rank by default)."""
    return _densities(rng.standard_normal((2, dim, dim if rank is None else rank)))


def _densities(z) -> np.ndarray:
    """random_density_matrix of normals z (..., 2, dim, rank)."""
    g = _ginibre(z)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrices(dims, ranks, rng: np.random.Generator) -> list[np.ndarray]:
    """random_density_matrix(dims[k], rng, rank=ranks[k]) for each case k in
    turn (dims and ranks broadcast), from one standard_normal call, which
    gives each case the normals of its own calls; the cases of each (dim,
    rank) are built as one stack."""
    dims, ranks = (a.reshape(-1) for a in np.broadcast_arrays(dims, ranks))
    sizes = 2 * dims * ranks
    z = rng.standard_normal(int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    out = [None] * len(dims)
    for d, r in dict.fromkeys(zip(dims.tolist(), ranks.tolist())):
        ks = np.flatnonzero((dims == d) & (ranks == r))
        rho = _densities(z[starts[ks, None] + np.arange(2 * d * r)].reshape(-1, 2, d, r))
        for k, m in zip(ks.tolist(), rho):
            out[k] = m
    return out


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ dagger(cols)


def random_kraus_tp(dim: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Trace-preserving Kraus family: blocks of a random isometry."""
    return list(_kraus_families(rng.standard_normal((2, dim * n_kraus, dim))))


def _kraus_families(z) -> np.ndarray:
    """random_kraus_tp of normals z (..., 2, dim * n_kraus, dim), stacked."""
    q, _ = np.linalg.qr(_ginibre(z))
    # q has orthonormal columns, so stacking gives sum_k A_k^dag A_k = I.
    return q.reshape(*q.shape[:-2], -1, q.shape[-1], q.shape[-1])


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Single matrix with operator norm <= 1 (atomic sub-channel)."""
    z = rng.standard_normal((2, dim, dim))
    return _contractions(z, rng.uniform(0.2, 1.0))


def _contractions(z, u) -> np.ndarray:
    """random_contraction of normals z (..., 2, dim, dim) and uniforms u."""
    g = _ginibre(z)
    return g * (np.asarray(u) / np.linalg.norm(g, 2, axis=(-2, -1)))[..., None, None]
