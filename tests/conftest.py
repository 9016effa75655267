import ctypes
import glob
import os

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


def count_lapack(patch) -> dict:
    """Count the matrices the package hands to Hermitian LAPACK: wraps
    np.linalg.eigh and eigvalsh through patch(np.linalg, name, wrapper)
    and returns a map of "eigh" and "eigvalsh" to the list of input
    matrices, one entry per matrix, so a call on an (n, d, d) stack adds n
    entries; each list's `calls` counts the calls."""
    inputs = {"eigh": _Seen(), "eigvalsh": _Seen()}
    for name, seen in inputs.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            m = np.array(a, dtype=complex)
            _seen.extend(m.reshape(-1, *m.shape[-2:]))
            _seen.calls += 1
            return _real(a, *args, **kwargs)

        patch(np.linalg, name, counting)
    return inputs


@pytest.fixture
def lapack_calls(monkeypatch) -> dict:
    """count_lapack for one test, undone after it."""
    return count_lapack(monkeypatch.setattr)


def blas_build() -> tuple:
    """(numpy version, its OpenBLAS build, the core OpenBLAS picked at run
    time), with None for a part this numpy does not show: report floats
    depend on all three.  The core comes from scipy-openblas's
    scipy_openblas_get_corename64_, read through ctypes from the library
    numpy loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = blas.get("version") if blas.get("name") == "scipy-openblas" else None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
    lib = ctypes.CDLL(found[0]) if found else None
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    core = None
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return np.__version__, version, core
