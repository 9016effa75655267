"""Property-based checks.  Every property runs derandomized, so each run
draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optfalsify import Effect, hermitian_eig
from optfalsify.errors import NotPSDError, OutOfRangeError
from optfalsify.random_ops import random_unitary

SPECTRUM_TOL = 1e-10

# Signed distance from a cutoff, in steps of 1e-14.  On such matrices the
# extreme eigenvalues of eigvalsh and eigh differ by up to 1.1e-15 (2e4
# random matrices, d <= 8), so a step keeps both on the same side.
offsets = st.integers(-1000, 1000).filter(bool).map(lambda k: k * 1e-14)


def _verdict(matrix):
    try:
        Effect(matrix)
    except (NotPSDError, OutOfRangeError) as exc:
        return type(exc)
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    above_one=offsets,
    below_zero=offsets,
)
def test_effect_verdict_matches_hermitian_eig(dim, seed, above_one, below_zero):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, dim)
    w[0] = 1.0 + SPECTRUM_TOL + above_one
    w[-1] = -SPECTRUM_TOL + below_zero
    u = random_unitary(dim, rng)
    m = (u * w) @ u.conj().T
    values = hermitian_eig(m).values
    if values[-1] < -SPECTRUM_TOL:
        expected = NotPSDError
    elif values[0] > 1.0 + SPECTRUM_TOL:
        expected = OutOfRangeError
    else:
        expected = None
    assert _verdict(m) is expected
