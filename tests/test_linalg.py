import numpy as np
import pytest

from optfalsify import linalg, quantum
from optfalsify.errors import (
    DimensionMismatchError,
    EigConvergenceError,
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
)
from optfalsify.random_ops import random_density_matrix

from conftest import random_hermitian


class TestTensor:
    def test_block_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.eye(2, dtype=complex)
        t = linalg.tensor(a, b)
        # block (i, j) of the result is a[i, j] * b
        assert np.array_equal(t[0:2, 2:4], 2 * b)
        assert np.array_equal(t[2:4, 0:2], 3 * b)

    def test_vector_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            linalg.tensor(np.ones(3), np.eye(2))

    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((1, 4), (3, 1)), ((3, 2), (2, 5))])
    def test_bits_of_np_kron(self, rng, shapes):
        # Signed zeros in both parts: a route that adds a zero term to each
        # product (a matmul or einsum sum, say) would flip a -0.0 to 0.0.
        a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
        a.flat[0], b.flat[-1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        a.flat[-1] = complex(-0.0, -0.0)
        got, want = linalg.tensor(a, b), np.kron(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_mixed_product_factorizes(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            linalg.tensor(a, b) @ linalg.tensor(a, b),
            linalg.tensor(a @ a, b @ b),
            atol=1e-12,
        )


class TestPartialTrace:
    def test_bell_state_marginals(self):
        # |Phi+> = (|00> + |11>)/sqrt(2); its marginal is I/2 by hand:
        # Tr_B sums the two diagonal blocks.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        expected = np.array([[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(
            linalg.partial_trace(rho, 2, 2), expected, atol=1e-15
        )

    def test_identity(self):
        np.testing.assert_allclose(
            linalg.partial_trace(np.eye(4), 2, 2), 2 * np.eye(2)
        )

    def test_product_state_factor(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = a @ a.conj().T
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = b @ b.conj().T
        joint = linalg.tensor(a, b)
        np.testing.assert_allclose(
            linalg.partial_trace(joint, 3, 2), np.trace(b) * a, atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(6), 2, 2)


@pytest.mark.filterwarnings("error")
class TestEntryBound:
    AT = linalg.MAX_ENTRY
    BEYOND = float(np.nextafter(linalg.MAX_ENTRY, np.inf))

    def test_inside_bound_accepted(self):
        m = linalg.as_matrix([[0.0, self.AT], [-1j * self.AT, 1.0]])
        assert m[0, 1] == self.AT and m[1, 0] == -1j * self.AT
        # Symmetrization and decomposition at the bound stay finite.
        eig = linalg.hermitian_eig([[0.0, self.AT], [self.AT, 0.0]])
        np.testing.assert_allclose(eig.values, [self.AT, -self.AT], rtol=1e-15)

    def test_beyond_bound_or_non_finite_rejected(self):
        bad = (self.BEYOND, -self.BEYOND, 1j * self.BEYOND, complex(self.AT, self.AT),
               np.nan, np.inf, complex(0.0, np.nan))
        for entry in bad:
            with pytest.raises(OutOfRangeError, match="entries must be finite"):
                linalg.as_matrix([[1.0, entry]])
            with pytest.raises(OutOfRangeError, match="entries must be finite"):
                linalg.hermitian_eig([[1.0, entry], [np.conj(entry), 1.0]])

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(OutOfRangeError, match="entries must be finite"):
            linalg.as_matrix([[10**400]])


# Inputs that numpy cannot coerce to complex (text, ragged rows, an integer
# beyond float range) or that hold NaN, at each coercion point.
UNCOERCIBLE = {
    "as_matrix-text": lambda: linalg.as_matrix("abc"),
    "as_matrix-ragged": lambda: linalg.as_matrix([[1, 2], [3]]),
    "stack-ragged": lambda: quantum._states([[[1, 0], [0]]]),
    "pure-text": lambda: quantum.QuantumState.pure("ab"),
    "doubleket-integer": lambda: linalg.doubleket_to_mat([10**400], 1, 1),
    "doubleket-nan": lambda: linalg.doubleket_to_mat([np.nan], 1, 1),
}


@pytest.mark.parametrize("site", UNCOERCIBLE)
def test_uncoercible_input_is_typed(site):
    with pytest.raises(OutOfRangeError, match="entries must be finite numbers"):
        UNCOERCIBLE[site]()


class TestHermitianEig:
    def test_identity_equality(self):
        # Arrays have no single truth value, so spectra compare by identity.
        a = linalg.hermitian_eig(np.eye(2))
        b = linalg.hermitian_eig(np.eye(2))
        assert a == a and a != b
        assert hash(a) == hash(a)

    def test_pauli_x_by_hand(self):
        # char poly of [[0,1],[1,0]] is l^2 - 1: eigenpairs (1, (1,1)/sqrt2)
        # and (-1, (1,-1)/sqrt2), descending order.
        eig = linalg.hermitian_eig([[0, 1], [1, 0]])
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(eig.vectors[:, 0], [s, s], atol=1e-15)
        np.testing.assert_allclose(eig.vectors[:, 1], [s, -s], atol=1e-15)

    def test_pauli_y_complex_phase(self):
        sy = np.array([[0, -1j], [1j, 0]])
        eig = linalg.hermitian_eig(sy)
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-15)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        np.testing.assert_allclose(recon, sy, atol=1e-14)

    def test_diagonal_input_untouched(self):
        # No off-diagonal mass: zero sweeps, exact canonical vectors.
        eig = linalg.hermitian_eig(np.diag([2.0, 1.0]))
        assert np.array_equal(eig.values, [2.0, 1.0])
        assert np.array_equal(eig.vectors, np.eye(2))

    def test_degenerate_spectrum_stable(self):
        eig = linalg.hermitian_eig(np.eye(3))
        assert np.array_equal(eig.values, np.ones(3))
        assert np.array_equal(eig.vectors, np.eye(3))

    def test_descending_order(self, rng):
        for dim in (2, 3, 5, 8):
            eig = linalg.hermitian_eig(random_hermitian(dim, rng))
            assert np.all(np.diff(eig.values) <= 0)

    def test_against_reference_solver(self, rng):
        # Independent route: the singular values of a Hermitian matrix are
        # the magnitudes of its eigenvalues.
        for dim in (2, 3, 4, 6, 9, 16):
            m = random_hermitian(dim, rng)
            eig = linalg.hermitian_eig(m)
            ref = np.linalg.svd(m, compute_uv=False)
            scale = max(np.abs(ref))
            np.testing.assert_allclose(
                np.sort(np.abs(eig.values))[::-1], ref, atol=1e-12 * scale
            )
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-10 * np.max(np.abs(m))
            orth = eig.vectors.conj().T @ eig.vectors - np.eye(dim)
            assert np.max(np.abs(orth)) <= 1e-10

    def test_deterministic(self, rng):
        m = random_hermitian(5, rng)
        a = linalg.hermitian_eig(m)
        b = linalg.hermitian_eig(m.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_deterministic_at_d64(self, rng):
        m = random_hermitian(64, rng)
        first = linalg.hermitian_eig(m)
        for _ in range(3):
            again = linalg.hermitian_eig(m.copy())
            assert np.array_equal(first.values, again.values)
            assert np.array_equal(first.vectors, again.vectors)

    def test_phase_convention(self, rng):
        # In every column the first component of magnitude at least half
        # the column maximum is real and positive.
        mats = [random_hermitian(d, rng) for d in (2, 3, 5, 8, 16)]
        mats += [np.eye(3), np.diag([1.0, 1.0, 0.0]), -np.eye(2)]
        for m in mats:
            vectors = linalg.hermitian_eig(m).vectors
            for col in vectors.T:
                mags = np.abs(col)
                lead = col[np.flatnonzero(mags >= 0.5 * mags.max())[0]]
                assert lead.imag == 0.0 and lead.real > 0.0

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eig([[0, 1], [0, 0]])

    def test_convergence_budget(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigConvergenceError):
            linalg.hermitian_eig([[0, 1], [1, 0]])

    def test_scalar_matrix(self):
        eig = linalg.hermitian_eig([[3.0]])
        assert eig.values[0] == 3.0 and eig.vectors[0, 0] == 1.0

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError, match="expected square"):
            linalg.hermitian_eig([[1.0, 0.0]])


def _reference_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """The documented convention, one matrix at a time from np.linalg.eigh:
    symmetrize as (m + m^dag)/2, order descending by a stable sort, and fix
    each column's phase at its first entry of magnitude at least half the
    column maximum."""
    m = np.array(m, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = sorted(range(len(w)), key=lambda j: -w[j])
    values, vectors = w[order], v[:, order]
    for j in range(len(w)):
        mags = np.abs(vectors[:, j])
        pivot = int(np.flatnonzero(mags >= 0.5 * mags.max())[0])
        vectors[:, j] *= mags[pivot] / vectors[pivot, j]
        vectors[pivot, j] = mags[pivot]
    return values, vectors


def _tied(d: int) -> list[np.ndarray]:
    """np.eye(d), -np.eye(d), diag(1, 1, 0, ...) and diag(1, 0, ...)."""
    first = np.arange(d)
    return [np.eye(d), -np.eye(d), np.diag(first < 2) * 1.0, np.diag(first < 1) * 1.0]


@pytest.mark.parametrize("d", [*range(1, 17), 64])
class TestReferenceConvention:
    """hermitian_eig and the stacked state validation give the reference's
    bits, with and without tied eigenvalues."""

    def test_hermitian_eig(self, d):
        rng = np.random.default_rng(300 + d)
        mats = [random_hermitian(d, rng) for _ in range(3)]
        mats += [random_density_matrix(d, rng, rank=1 + k % d) for k in range(3)]
        for m in mats + _tied(d):
            eig = linalg.hermitian_eig(m)
            values, vectors = _reference_eig(m)
            assert np.array_equal(eig.values, values)
            assert np.array_equal(eig.vectors, vectors)

    def test_stacked_states(self, d):
        rng = np.random.default_rng(400 + d)
        mats = [random_density_matrix(d, rng, rank=1 + k % d) for k in range(6)]
        mats += [t / np.trace(t) for t in _tied(d)[::2]] + [np.eye(d) / d]
        for state, m in zip(quantum._states(np.stack(mats)), mats):
            values, vectors = _reference_eig(m)
            assert np.array_equal(state.spectrum.values, values)
            assert np.array_equal(state.spectrum.vectors, vectors)


class TestSupportProjectors:
    def test_diagonal_indicator(self):
        p = linalg.support_projector(np.diag([0.5, 0.5, 0.0]))
        assert np.array_equal(p, np.diag([1.0, 1.0, 0.0]).astype(complex))

    def test_mixture_spans_plane(self):
        # 0.5|0><0| + 0.5|+><+| has rank 2: |0> and |+> span all of C^2.
        plus = np.array([1, 1]) / np.sqrt(2)
        m = 0.5 * np.diag([1.0, 0.0]) + 0.5 * np.outer(plus, plus)
        p = linalg.support_projector(m)
        np.testing.assert_allclose(p, np.eye(2), atol=1e-12)

    def test_agrees_with_reference_rank(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rank = int(rng.integers(1, dim + 1))
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal(
                (dim, rank)
            )
            m = g @ g.conj().T
            p = linalg.support_projector(m)
            assert round(np.trace(p).real) == np.linalg.matrix_rank(m, tol=1e-10)
            # projector reproduces m: P m = m
            assert np.max(np.abs(p @ m - m)) <= 1e-10 * np.max(np.abs(m))

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            linalg.support_projector(np.diag([1.0, -0.1]))

    def test_small_negative_clamped(self):
        p = linalg.support_projector(np.diag([1.0, -5e-11]))
        assert np.array_equal(p, np.diag([1.0, 0.0]).astype(complex))

    def test_kernel_complements_support(self, rng):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = g @ g.conj().T
        total = linalg.support_projector(m) + linalg.kernel_projector(m)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


class TestDoubleKet:
    def test_bell_from_identity(self):
        v = linalg.mat_to_doubleket(np.eye(2) / np.sqrt(2))
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(v, [s, 0, 0, s], atol=1e-16)

    def test_matrix_unit_index_convention(self):
        # E_{ij} maps to the basis vector at index i*cols + j.
        e = np.zeros((2, 3))
        e[1, 2] = 1.0
        v = linalg.mat_to_doubleket(e)
        assert v[1 * 3 + 2] == 1.0 and np.count_nonzero(v) == 1

    def test_round_trip_exact(self, rng):
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        back = linalg.doubleket_to_mat(linalg.mat_to_doubleket(a), 3, 5)
        assert np.array_equal(back, a)

    def test_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            linalg.doubleket_to_mat(np.ones(6), 2, 2)
