"""Seeded random matrices, states, and channels for property checks."""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def random_complex_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phases fixed."""
    q, r = np.linalg.qr(random_complex_matrix(dim, dim, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Trace-one PSD matrix of the given rank (full rank by default)."""
    return random_density_matrices(dim, [dim if rank is None else rank], rng)[0]


def random_density_matrices(dims, ranks, rng: np.random.Generator) -> list[np.ndarray]:
    """random_density_matrix(dims[k], rng, rank=ranks[k]) for each case k in
    turn (dims and ranks broadcast), from one standard_normal call, which
    gives each case the normals of its own calls; the cases of each (dim,
    rank) are multiplied and normalized as one stack."""
    dims, ranks = (a.reshape(-1) for a in np.broadcast_arrays(dims, ranks))
    sizes = 2 * dims * ranks
    z = rng.standard_normal(int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    out = [None] * len(dims)
    for d, r in dict.fromkeys(zip(dims.tolist(), ranks.tolist())):
        ks = np.flatnonzero((dims == d) & (ranks == r))
        parts = z[starts[ks, None] + np.arange(2 * d * r)].reshape(-1, 2, d, r)
        g = parts[:, 0] + 1j * parts[:, 1]
        rho = g @ g.conj().swapaxes(1, 2)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        for k, m in zip(ks.tolist(), rho):
            out[k] = m
    return out


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ dagger(cols)


def random_kraus_tp(dim: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Trace-preserving Kraus family: blocks of a random isometry."""
    g = random_complex_matrix(dim * n_kraus, dim, rng)
    q, _ = np.linalg.qr(g)
    # q has orthonormal columns, so stacking gives sum_k A_k^dag A_k = I.
    return [q[k * dim : (k + 1) * dim, :].copy() for k in range(n_kraus)]


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Single matrix with operator norm <= 1 (atomic sub-channel)."""
    g = random_complex_matrix(dim, dim, rng)
    scale = float(np.linalg.norm(g, 2))
    return g * (rng.uniform(0.2, 1.0) / scale)


__all__ = [
    "random_complex_matrix",
    "random_unit_vector",
    "random_unitary",
    "random_density_matrix",
    "random_density_matrices",
    "random_projector",
    "random_kraus_tp",
    "random_contraction",
]
