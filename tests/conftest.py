import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def reference_stream(seed: int) -> np.random.Generator:
    """The keyed stream campaigns count, built here from numpy alone: a
    Philox bit generator keyed by np.random.SeedSequence(seed)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


class _Seen(list):
    """The matrices handed to one LAPACK routine, one entry per matrix, with
    the number of calls that handed them over in `calls`."""

    calls = 0

    def clear(self):
        super().clear()
        self.calls = 0


@pytest.fixture
def lapack_calls(monkeypatch) -> dict:
    """Count the matrices the package hands to Hermitian LAPACK: maps "eigh"
    and "eigvalsh" to the list of input matrices, one entry per matrix, so a
    call on an (n, d, d) stack adds n entries; each list's `calls` counts
    the calls."""
    inputs = {"eigh": _Seen(), "eigvalsh": _Seen()}
    for name, seen in inputs.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            m = np.array(a, dtype=complex)
            _seen.extend(m.reshape(-1, *m.shape[-2:]))
            _seen.calls += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return inputs
