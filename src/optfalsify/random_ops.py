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
    rank = dim if rank is None else rank
    g = random_complex_matrix(dim, rank, rng)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


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
    "random_projector",
    "random_kraus_tp",
    "random_contraction",
]
