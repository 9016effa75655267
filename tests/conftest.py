import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


@pytest.fixture
def lapack_calls(monkeypatch) -> dict:
    """Count the Hermitian LAPACK calls the package makes: maps "eigh" and
    "eigvalsh" to the list of input matrices each was called with."""
    inputs = {"eigh": [], "eigvalsh": []}
    for name, seen in inputs.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            _seen.append(np.array(a, dtype=complex))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return inputs
