import dataclasses
import tracemalloc

import numpy as np
import pytest

from optfalsify import (
    CanonicalForm,
    Effect,
    KrausChannel,
    Purification,
    QuantumState,
    apply_channel,
    born_probability,
    canonical_form,
    compress,
    connecting_unitary,
    dilate,
    doubleket_to_mat,
    hermitian_eig,
    kernel_projector,
    local_falsifier,
    mat_to_doubleket,
    partial_trace,
    perfectly_discriminable,
    purify,
    support_projector,
    tensor,
)
from optfalsify.errors import (
    DimensionMismatchError,
    EigConvergenceError,
    NotCompressibleError,
    NotDeterministicError,
    NotHermitianError,
    NotPSDError,
    NotTracePreservingError,
    NumericalContaminationError,
    OutOfRangeError,
    PurificationMismatchError,
)
from optfalsify.falsification import SupportHypothesis
from optfalsify.linalg import MAX_ENTRY, support_mask
from optfalsify.quantum import _pure_matrices
from optfalsify.theorems import Dilation
from optfalsify.random_ops import (
    random_complex_matrix,
    random_density_matrix,
    random_kraus_tp,
    random_unit_vector,
    random_unitary,
)

SQ03 = 0.5477225575051661  # sqrt(0.3)
SQ07 = 0.8366600265340756  # sqrt(0.7)


class TestQuantumState:
    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            QuantumState([[0.5, 0.5], [0.0, 0.5]])

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            QuantumState(np.diag([1.0, -0.1]))

    def test_small_negative_tolerated(self):
        rho = QuantumState(np.diag([1.0 - 5e-11, -5e-11]))
        assert rho.dim == 2

    def test_trace_bounds(self):
        with pytest.raises(OutOfRangeError):
            QuantumState(np.diag([0.8, 0.4]))
        with pytest.raises(OutOfRangeError):
            QuantumState(np.zeros((2, 2)))

    def test_subnormalized_not_deterministic(self):
        rho = QuantumState(np.diag([0.25, 0.25]))
        assert rho.trace == pytest.approx(0.5)
        assert not rho.deterministic

    def test_pure_normalizes(self):
        rho = QuantumState.pure([3.0, 4.0])
        assert rho.deterministic
        assert rho.matrix[0, 0] == pytest.approx(0.36)

    def test_pure_rescales_tiny_vectors(self):
        # Squares of 1e-160 are subnormal and of 1e-170 zero, so an
        # unscaled 2-norm is wrong or zero.
        for tiny, unit in [([1e-160, 0.0], [1.0, 0.0]), ([1e-170, 1e-170j], [1.0, 1.0j])]:
            assert np.array_equal(QuantumState.pure(tiny).matrix, QuantumState.pure(unit).matrix)
        with pytest.raises(OutOfRangeError, match="must be nonzero"):
            QuantumState.pure([0.0, 0.0])
        # A row above quantum._MIN_SCALE keeps its bits beside a rescaled one.
        big = np.array([1e150, 2e150j])
        u = big / np.linalg.norm(big)
        assert np.array_equal(_pure_matrices([big, [1e-160, 0.0]])[0], np.outer(u, u.conj()))

    def test_rank(self, rng):
        rho = QuantumState(random_density_matrix(4, rng, rank=2))
        assert rho.rank() == 2

    def test_rank_matches_svd_count(self, rng):
        for dim in range(2, 10):
            for rank in range(1, dim + 1):
                rho = QuantumState(random_density_matrix(dim, rng, rank=rank))
                s = np.linalg.svd(rho.matrix, compute_uv=False)
                assert rho.rank() == rank
                assert rho.rank() == np.count_nonzero(s > 1e-10 * s[0])

    def test_immutable(self):
        rho = QuantumState.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestEffect:
    def test_spectrum_above_one(self):
        with pytest.raises(OutOfRangeError):
            Effect(np.diag([1.2, 0.0]))

    def test_negative(self):
        with pytest.raises(NotPSDError):
            Effect(np.diag([-0.2, 0.5]))

    def test_identity_and_zero(self):
        assert Effect(np.eye(3)).dim == 3
        assert Effect(np.zeros((2, 2))).is_zero
        assert not Effect(np.eye(2)).is_zero


class TestKrausChannel:
    def test_trace_nonincreasing_enforced(self):
        with pytest.raises(OutOfRangeError):
            KrausChannel((np.eye(2) * 1.1,))

    def test_flags(self, rng):
        unitary = KrausChannel((random_unitary(3, rng),))
        assert unitary.deterministic
        half = KrausChannel((np.eye(2) * np.sqrt(0.5),))
        assert not half.deterministic

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel((np.eye(2), np.eye(3)))

    def test_empty(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(())

    def test_stack_reads_as_its_operators(self, rng):
        ops = random_kraus_tp(3, 2, rng)
        stacked, listed = KrausChannel(np.stack(ops)), KrausChannel(tuple(ops))
        assert stacked.n_kraus == 2
        assert [a.tobytes() for a in stacked.kraus] == [a.tobytes() for a in listed.kraus]
        assert KrausChannel(np.stack([np.eye(2)])).n_kraus == 1

    def test_matrix_is_read_row_by_row(self):
        # A 2-D array is a list of rows, none of them a matrix.
        with pytest.raises(DimensionMismatchError, match=r"Kraus operator: expected a 2-D matrix"):
            KrausChannel(np.eye(2))


class TestExtremeEigenvalueValidation:
    """Effect and KrausChannel read their extreme eigenvalues from eigh."""

    def test_gram_cutoff_both_sides(self, rng):
        u = random_unitary(3, rng)
        for top, valid in ((1.0 + 0.5e-10, True), (1.0 + 2e-10, False)):
            for kraus in (
                (np.sqrt(top) * u,),
                (np.sqrt(top / 2) * u, np.sqrt(top / 2) * np.eye(3)),
            ):
                if valid:
                    assert KrausChannel(kraus).n_kraus == len(kraus)
                else:
                    with pytest.raises(OutOfRangeError, match="exceeds identity"):
                        KrausChannel(kraus)

    def test_lapack_failure_is_typed(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigConvergenceError):
            Effect(np.diag([0.5, 0.0]))
        with pytest.raises(EigConvergenceError):
            KrausChannel((np.eye(2),))


@pytest.mark.filterwarnings("error")
class TestEntryBound:
    """Entries up to MAX_ENTRY in modulus reach the ordinary checks without
    a floating-point warning; the constructors reject entries beyond it."""

    AT = MAX_ENTRY
    BEYOND = float(np.nextafter(MAX_ENTRY, np.inf))

    @pytest.mark.parametrize("cls", [QuantumState, Effect])
    def test_state_and_effect(self, cls):
        with pytest.raises(NotPSDError):
            cls([[0.5, self.AT], [self.AT, 0.5]])
        with pytest.raises(OutOfRangeError, match="entries must be finite"):
            cls([[0.5, self.BEYOND], [self.BEYOND, 0.5]])

    def test_channel(self):
        # Within the bound the gram overflows or exceeds it: not a contraction.
        for entry in (self.AT, 1e100):
            with pytest.raises(OutOfRangeError, match="sum A\\^dag A has an entry"):
                KrausChannel((np.full((2, 2), entry),))
        with pytest.raises(OutOfRangeError, match="exceeds identity"):
            KrausChannel((np.full((2, 2), 1e70),))
        with pytest.raises(OutOfRangeError, match="entries must be finite"):
            KrausChannel((np.full((2, 2), self.BEYOND),))

    @pytest.mark.parametrize("build, name", [(QuantumState.pure, "pure state vector")])
    def test_normalized_vector(self, build, name):
        # Inside the bound the norm may still overflow; beyond it, or for an
        # integer beyond float range, the entries are rejected first.
        for vector in ([self.AT, self.AT], [1e200, 0.0], [self.BEYOND], [10**400, 0], [np.nan]):
            with pytest.raises(OutOfRangeError, match=name):
                build(vector)
        with pytest.raises(OutOfRangeError, match=f"{name} must be nonzero"):
            build([0.0, 0.0])
        m = build([1e150, 1e150j]).matrix
        np.testing.assert_allclose(m, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda v: Purification(v, 2, 1), "purification vector"),
            (lambda v: local_falsifier(np.eye(2), v), "local_falsifier vector a"),
        ],
        ids=["Purification", "local_falsifier"],
    )
    def test_unit_norm_vector(self, build, name):
        # Bad entries are rejected by name before any norm is taken; a norm
        # that overflows from entries inside the bound is not a unit norm.
        for vector in ([np.nan, 0.0], [1e200, 0.0], [10**400, 0], [self.BEYOND, 0.0]):
            with pytest.raises(OutOfRangeError, match=name):
                build(vector)
        with pytest.raises(OutOfRangeError, match="must have unit norm"):
            build([1e154, 1e154])


class TestBornProbability:
    def test_basis_readout(self):
        rho = QuantumState(np.diag([0.3, 0.7]))
        assert born_probability(rho, Effect(np.diag([1.0, 0.0]))) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_complement_sums_to_trace(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        f = Effect(np.diag([1.0, 0.5, 0.0]))
        f_inconc = Effect(np.eye(3) - f.matrix)
        total = born_probability(rho, f) + born_probability(rho, f_inconc)
        assert total == pytest.approx(rho.trace, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        rho = QuantumState.pure([1.0, 0.0])
        p = born_probability(rho, Effect(np.diag([1.0, 0.0])))
        assert 0.0 <= p <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_probability(QuantumState.maximally_mixed(2), Effect(np.eye(3)))

    def test_imaginary_contamination_guard(self):
        # Forged non-Hermitian operands (bypassing validation) must trip the
        # realness guard rather than silently return a complex trace.
        rho = object.__new__(QuantumState)
        object.__setattr__(rho, "matrix", np.array([[0.5, 0.5j], [0, 0.5]]))
        eff = object.__new__(Effect)
        object.__setattr__(eff, "matrix", np.array([[0, 0], [1.0, 0]]))
        with pytest.raises(NumericalContaminationError):
            born_probability(rho, eff)


class TestApplyChannel:
    def test_projection_branch(self):
        # A = |0><0| on I/2 keeps half the weight in |0>.
        ch = KrausChannel((np.diag([1.0, 0.0]),))
        out = apply_channel(ch, QuantumState.maximally_mixed(2))
        assert np.array_equal(out.matrix, np.diag([0.5, 0.0]).astype(complex))
        assert out.trace == pytest.approx(0.5)

    def test_unitary_preserves_spectrum(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        u = random_unitary(3, rng)
        out = apply_channel(KrausChannel((u,)), rho)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix),
            np.linalg.eigvalsh(rho.matrix),
            atol=1e-12,
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(
                KrausChannel((np.eye(3),)), QuantumState.maximally_mixed(2)
            )


class TestPurify:
    def test_two_level_mixture_by_hand(self):
        # diag(0.3, 0.7): eigenpairs in descending order give
        # sqrt(0.7)|1>|0> + sqrt(0.3)|0>|1>, i.e. entries at indices 2 and 1.
        pur = purify(QuantumState(np.diag([0.3, 0.7])))
        assert (pur.dim_a, pur.dim_b) == (2, 2)
        np.testing.assert_allclose(
            pur.state_vector, [0.0, SQ03, SQ07, 0.0], atol=1e-15
        )

    def test_pure_state_trivial_environment(self):
        pur = purify(QuantumState.pure([1.0, 1.0j]))
        assert pur.dim_b == 1

    def test_marginal_recovery(self, rng):
        for dim, rank in ((2, 1), (3, 2), (4, 4)):
            rho = QuantumState(random_density_matrix(dim, rng, rank=rank))
            pur = purify(rho)
            assert pur.dim_b == rank
            assert (
                np.max(np.abs(pur.marginal().matrix - rho.matrix)) <= 1e-9
            )

    def test_requires_normalization(self):
        with pytest.raises(NotDeterministicError):
            purify(QuantumState(np.diag([0.25, 0.25])))

    def test_marginal_memory_is_quadratic(self, rng):
        # The marginal is M M^dag of the d x d matrix M of the vector; the
        # outer product of the d^2-vector would take 16 d^4 bytes (16 MiB at
        # d = 32).
        pur = purify(QuantumState(random_density_matrix(32, rng)))
        assert pur.dim_b == 32
        tracemalloc.start()
        try:
            pur.marginal()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPurificationType:
    def test_norm_validation(self):
        with pytest.raises(OutOfRangeError):
            Purification(np.array([1.0, 1.0]), 2, 1)

    def test_length_validation(self):
        with pytest.raises(DimensionMismatchError):
            Purification(np.array([1.0, 0.0, 0.0]), 2, 2)


class TestConnectingUnitary:
    def test_bit_flip_pair_by_hand(self):
        # psi1 = |I/sqrt2>> and psi2 = (I (x) X) psi1 both purify I/2; the
        # connecting unitary is X itself.
        s = 1 / np.sqrt(2)
        p1 = Purification(np.array([s, 0, 0, s]), 2, 2)
        p2 = Purification(np.array([0, s, s, 0]), 2, 2)
        u = connecting_unitary(p1, p2)
        np.testing.assert_allclose(u, [[0, 1], [1, 0]], atol=1e-12)

    def test_identical_inputs_give_exact_identity(self, rng):
        pur = purify(QuantumState(random_density_matrix(3, rng)))
        u = connecting_unitary(pur, pur)
        assert np.array_equal(u, np.eye(3))

    def test_random_pairs(self, rng):
        # Random states, and d = 3 states with spectrum (0.7 - s, 0.3, s) in a
        # random basis, s just above the support cut at 1e-10 * lam_max.  Each
        # is purified minimally and with one more, unused, environment
        # dimension.
        rhos = [random_density_matrix(dim, rng) for dim in (2, 3, 4)]
        for s in (2e-10, 1.2e-10):
            w = random_unitary(3, rng)
            rhos.append(w @ np.diag([0.7 - s, 0.3, s]) @ w.conj().T)
        for rho in rhos:
            dim = rho.shape[0]
            pur = purify(QuantumState(rho))
            m = doubleket_to_mat(pur.state_vector, dim, pur.dim_b)
            for env in (pur.dim_b, pur.dim_b + 1):
                padded = np.zeros((dim, env), dtype=complex)
                padded[:, : pur.dim_b] = m
                p1 = Purification(mat_to_doubleket(padded), dim, env)
                v = random_unitary(env, rng)
                psi2 = tensor(np.eye(dim, dtype=complex), v) @ p1.state_vector
                p2 = Purification(psi2, dim, env)
                u = connecting_unitary(p1, p2)
                moved = tensor(np.eye(dim, dtype=complex), u) @ p1.state_vector
                assert np.linalg.norm(moved - psi2) <= 1e-8
                assert np.max(np.abs(u.conj().T @ u - np.eye(env))) <= 1e-9

    def test_different_marginals_rejected(self):
        p1 = purify(QuantumState(np.diag([0.3, 0.7])))
        p2 = purify(QuantumState(np.diag([0.6, 0.4])))
        with pytest.raises(PurificationMismatchError):
            connecting_unitary(p1, p2)

    def test_mismatched_environments_rejected(self):
        p1 = purify(QuantumState.pure([1.0, 0.0]))
        p2 = purify(QuantumState(np.diag([0.3, 0.7])))
        with pytest.raises(DimensionMismatchError):
            connecting_unitary(p1, p2)


class TestPerfectlyDiscriminable:
    def test_orthogonal_basis_states(self):
        res = perfectly_discriminable(
            QuantumState.pure([1.0, 0.0]), QuantumState.pure([0.0, 1.0])
        )
        assert res.discriminable
        np.testing.assert_allclose(
            res.falsifier_rho.matrix, np.diag([0.0, 1.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            res.falsifier_nu.matrix, np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_same_state_not_discriminable(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        assert not perfectly_discriminable(rho, rho).discriminable

    def test_full_rank_state_has_no_falsifier(self, rng):
        rho = QuantumState(random_density_matrix(2, rng))
        nu = QuantumState.pure([1.0, 0.0])
        res = perfectly_discriminable(rho, nu)
        assert not res.discriminable
        assert res.falsifier_rho is None
        assert res.falsifier_nu is not None

    def test_falsifier_captures_other_state(self, rng):
        rho = QuantumState.pure(random_unit_vector(3, rng))
        # nu supported in the orthogonal complement of rho
        kernel = np.eye(3) - rho.matrix
        g = random_complex_matrix(3, 3, rng)
        m = kernel @ g @ g.conj().T @ kernel
        nu = QuantumState(m / np.trace(m).real)
        res = perfectly_discriminable(rho, nu)
        assert res.discriminable
        assert born_probability(nu, res.falsifier_rho) == pytest.approx(
            1.0, abs=1e-8
        )


class TestCompress:
    def test_plane_supported_state(self):
        comp = compress(QuantumState(np.diag([0.5, 0.5, 0.0])))
        assert comp.isometry.shape == (2, 3)
        np.testing.assert_allclose(
            comp.state.matrix, np.diag([0.5, 0.5]), atol=1e-12
        )
        np.testing.assert_allclose(
            comp.decode().matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-12
        )

    def test_round_trip(self, rng):
        rho = QuantumState(random_density_matrix(4, rng, rank=2))
        comp = compress(rho)
        assert comp.isometry.shape == (2, 4)
        v = comp.isometry
        assert np.max(np.abs(v @ v.conj().T - np.eye(2))) <= 1e-10
        assert np.max(np.abs(comp.decode().matrix - rho.matrix)) <= 1e-9

    def test_full_rank_rejected(self, rng):
        with pytest.raises(NotCompressibleError):
            compress(QuantumState(random_density_matrix(3, rng)))


class TestCanonicalForm:
    def test_maximally_mixed_two_qubits(self):
        # I4/4 decomposes into the four matrix units scaled by 1/2, each
        # with weight 1/4.
        cf = canonical_form(QuantumState(np.eye(4, dtype=complex) / 4))
        assert len(cf.operators) == 4
        np.testing.assert_allclose(cf.weights, [0.25] * 4, atol=1e-15)
        for a in cf.operators:
            assert np.count_nonzero(np.abs(a) > 1e-12) == 1
            assert np.max(np.abs(a)) == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(
            cf.reconstruction(), np.eye(4) / 4, atol=1e-12
        )

    def test_bell_state_single_operator(self):
        s = 1 / np.sqrt(2)
        bell = QuantumState.pure([s, 0, 0, s])
        cf = canonical_form(bell)
        assert len(cf.operators) == 1
        assert cf.weights[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            np.abs(cf.operators[0]), np.eye(2) / np.sqrt(2), atol=1e-12
        )

    def test_orthogonality_and_reconstruction(self, rng):
        r = QuantumState(random_density_matrix(9, rng, rank=4))
        cf = canonical_form(r)
        assert np.max(np.abs(cf.reconstruction() - r.matrix)) <= 1e-9
        for i, a_i in enumerate(cf.operators):
            for j, a_j in enumerate(cf.operators):
                expected = cf.weights[j] if i == j else 0.0
                got = np.trace(a_i.conj().T @ a_j)
                assert abs(got - expected) <= 1e-9

    def test_non_square_dimension_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            canonical_form(QuantumState(random_density_matrix(6, rng)))

    def test_weights_are_kept_eigenvalues(self, rng):
        # Independent of Tr(A_j^dag A_j), which the orthogonality check
        # compares them against.
        for d, rank in ((2, 4), (2, 3), (3, 9), (3, 5), (4, 16)):
            r = QuantumState(random_density_matrix(d * d, rng, rank=rank))
            kept = r.spectrum.values[support_mask(r.spectrum.values)]
            assert canonical_form(r).weights.tobytes() == kept.tobytes()


class TestLocalFalsifier:
    def test_identity_operator_by_hand(self):
        # A = I, a = |0>: (A^dag a)* = |0>, so b = |1> (least-aligned
        # canonical direction, already orthogonal).
        lf = local_falsifier(np.eye(2), [1.0, 0.0])
        assert not lf.degenerate
        np.testing.assert_allclose(lf.vector_b, [0.0, 1.0], atol=1e-15)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |0><0| (x) |1><1|
        np.testing.assert_allclose(lf.effect.matrix, expected, atol=1e-15)

    def test_annihilated_direction_flagged(self):
        lf = local_falsifier(np.diag([1.0, 0.0]), [0.0, 1.0])
        assert lf.degenerate
        np.testing.assert_allclose(lf.vector_b, [1.0, 0.0], atol=1e-15)

    def test_never_fires_on_double_ket(self, rng):
        for dim in (2, 3):
            a_op = random_complex_matrix(dim, dim, rng)
            psi = QuantumState.pure(mat_to_doubleket(a_op))
            lf = local_falsifier(a_op, random_unit_vector(dim, rng))
            assert born_probability(psi, lf.effect) <= 1e-10

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionMismatchError):
            local_falsifier(np.eye(1), [1.0])

    def test_zero_operator_rejected(self):
        with pytest.raises(OutOfRangeError):
            local_falsifier(np.zeros((2, 2)), [1.0, 0.0])

    def test_non_unit_vector_rejected(self):
        with pytest.raises(OutOfRangeError):
            local_falsifier(np.eye(2), [1.0, 1.0])

    def test_vector_within_unit_norm_tol_is_normalized(self):
        # |a| = 1 + 5e-9 passes the unit-norm check, so a is normalized
        # before |a><a| enters the effect, whose top eigenvalue is then one.
        lf = local_falsifier(np.eye(2), [1 + 5e-9, 0])
        assert np.array_equal(lf.vector_b, local_falsifier(np.eye(2), [1, 0]).vector_b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale", [1e154, 1e-160, 1e-200], ids=["overflow", "subnormal", "underflow"]
    )
    def test_norm_out_of_float_range(self, scale):
        # |A|_F^2 overflows, is subnormal or underflows to 0 although every
        # entry is in range; the falsifier must still be the one of I, and
        # never fire on |I>>/sqrt(2).
        for a in ([0.6, 0.8], [1.0, 0.0]):
            lf = local_falsifier(np.eye(2) * scale, a)
            assert not lf.degenerate
            unit = local_falsifier(np.eye(2), a)
            assert np.array_equal(lf.effect.matrix, unit.effect.matrix)
        psi = QuantumState.pure(mat_to_doubleket(np.eye(2)))
        assert born_probability(psi, lf.effect) == 0.0

    def test_ordinary_operator_bits_unchanged(self, rng):
        # Operators whose norm is in range are used as given: b follows the
        # unscaled formula bit for bit, on a divided by its norm.
        for dim, mag in ((2, 1.0), (2, 1e-3), (3, 1e5), (3, 1.0), (4, 1e-7)):
            a_op = random_complex_matrix(dim, dim, rng) * mag
            a = random_unit_vector(dim, rng)
            unit = a / np.linalg.norm(a)
            c = np.conj(a_op.conj().T @ unit)
            j = int(np.argmin(np.abs(c)))
            b = np.zeros(dim, dtype=complex)
            b[j] = 1.0
            b = b - c * (np.conj(c[j]) / float(np.vdot(c, c).real))
            b = b / np.linalg.norm(b)
            lf = local_falsifier(a_op, a)
            assert np.array_equal(lf.vector_b, b)
            expected = Effect(tensor(np.outer(unit, unit.conj()), np.outer(b, b.conj())))
            assert np.array_equal(lf.effect.matrix, expected.matrix)


class TestDilate:
    def test_dephasing_unitary_by_hand(self):
        # Kraus {|0><0|, |1><1|}: the isometry V sends |j>|0> to |j>|j>, so
        # columns 0 and 2 are |00> and |11>, and I - V V^dag = diag(0, 1, 1, 0).
        # LAPACK sorts that diagonal ascending by selection sort, which swaps
        # |01> and |11> into (|00>, |11>, |10>, |01>); the stable descending
        # sort then puts |10> before |01> in the free columns 1 and 3.
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        dil = dilate(KrausChannel((p0, p1)))
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(dil.unitary, expected)
        assert dil.dim_env == 2

    def test_branches_match_kraus_terms(self, rng):
        for dim, n_kraus in ((2, 2), (3, 3), (2, 4)):
            ch = KrausChannel(tuple(random_kraus_tp(dim, n_kraus, rng)))
            dil = dilate(ch)
            rho = QuantumState(random_density_matrix(dim, rng))
            for k in range(n_kraus):
                expected = ch.kraus[k] @ rho.matrix @ ch.kraus[k].conj().T
                assert np.max(np.abs(dil.branch(rho, k) - expected)) <= 1e-9
            total = sum(dil.branch(rho, k) for k in range(dil.dim_env))
            np.testing.assert_allclose(
                total, apply_channel(ch, rho).matrix, atol=1e-9
            )

    def test_completion_extends_isometry(self, rng):
        for dim, n_kraus in ((2, 1), (2, 3), (3, 2), (4, 4)):
            ch = KrausChannel(tuple(random_kraus_tp(dim, n_kraus, rng)))
            u = dilate(ch).unitary
            n_env = max(n_kraus, 2)
            for k, a in enumerate(ch.kraus):
                assert np.array_equal(u[k::n_env, ::n_env], a)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(dim * n_env), atol=1e-12
            )

    def test_deterministic(self, rng):
        kraus = random_kraus_tp(3, 2, rng)
        assert np.array_equal(
            dilate(KrausChannel(tuple(kraus))).unitary,
            dilate(KrausChannel(tuple(a.copy() for a in kraus))).unitary,
        )

    def test_unitary_channel_padded_environment(self, rng):
        dil = dilate(KrausChannel((random_unitary(2, rng),)))
        assert dil.dim_env == 2
        rho = QuantumState(random_density_matrix(2, rng))
        assert np.max(np.abs(dil.branch(rho, 1))) <= 1e-12

    def test_requires_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            dilate(KrausChannel((np.eye(2) * 0.5,)))

    def test_rectangular_rejected(self, rng):
        iso = random_kraus_tp(2, 1, rng)[0]  # 2x2 fine; build 3x2 by hand
        tall = np.zeros((3, 2), dtype=complex)
        tall[:2, :] = iso
        with pytest.raises(DimensionMismatchError):
            dilate(KrausChannel((tall,)))

    def test_branch_index_validated(self, rng):
        dil = dilate(KrausChannel((random_unitary(2, rng),)))
        with pytest.raises(OutOfRangeError):
            dil.branch(QuantumState.maximally_mixed(2), 5)

    def test_keeps_no_derived_data(self, rng):
        dil = dilate(KrausChannel(tuple(random_kraus_tp(2, 3, rng))))
        fields = {f.name for f in dataclasses.fields(dil)}
        assert fields == {"unitary", "dim_sys", "dim_env"}
        rho = QuantumState.maximally_mixed(2)
        assert dil.branch(rho, dil.dim_env - 1).shape == (2, 2)
        for k in (-1, dil.dim_env):
            with pytest.raises(OutOfRangeError):
                dil.branch(rho, k)


class TestMismatchedInputs:
    """Mismatched dimensions and a non-unitary dilation raise typed errors."""

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: QuantumState.maximally_mixed(0), DimensionMismatchError, "positive"),
            (
                lambda: connecting_unitary(
                    purify(QuantumState.pure([1.0, 0.0])),
                    purify(QuantumState.pure([1.0, 0.0, 0.0])),
                ),
                DimensionMismatchError,
                "system dims differ",
            ),
            (
                lambda: perfectly_discriminable(
                    QuantumState.maximally_mixed(2), QuantumState.maximally_mixed(3)
                ),
                DimensionMismatchError,
                "state dims differ",
            ),
            (
                lambda: local_falsifier(np.eye(2), [1.0, 0.0, 0.0]),
                DimensionMismatchError,
                "does not match operator dim",
            ),
            (lambda: Dilation(np.eye(4), 2, 3), DimensionMismatchError, "!= 2x3"),
            (lambda: Dilation(2.0 * np.eye(4), 2, 2), OutOfRangeError, "deviates from unitary"),
            (
                lambda: Dilation(np.eye(4), 2, 2).branch(QuantumState.maximally_mixed(3), 0),
                DimensionMismatchError,
                "!= system dim",
            ),
        ],
        ids=[
            "maximally_mixed",
            "connecting_unitary",
            "perfectly_discriminable",
            "local_falsifier",
            "dilation-dims",
            "dilation-unitarity",
            "dilation-branch",
        ],
    )
    def test_typed_error(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


# Each call is valid when d = 2; every dimension it is given must be a
# Python or numpy integer of at least 1, and never a bool.
DIMENSION_CALLS = {
    "purification-system": lambda d: Purification([1.0, 0.0], d, 1).marginal(),
    "purification-environment": lambda d: Purification([1.0, 0.0], 1, d).marginal(),
    "dilation-system": lambda d: Dilation(np.eye(2), d, 1),
    "dilation-environment": lambda d: Dilation(np.eye(2), 1, d),
    "maximally_mixed": lambda d: QuantumState.maximally_mixed(d),
    "partial_trace": lambda d: partial_trace(np.eye(4), d, 2),
    "doubleket_to_mat": lambda d: doubleket_to_mat(np.ones(4), d, 2),
}


@pytest.mark.parametrize("site", DIMENSION_CALLS)
class TestDimensionArguments:
    @pytest.mark.parametrize("d", [2, np.int64(2)], ids=["int", "np.int64"])
    def test_integer_accepted(self, site, d):
        DIMENSION_CALLS[site](d)

    @pytest.mark.parametrize(
        "d", [2.0, True, 0, np.True_], ids=["float", "bool", "zero", "np.bool_"]
    )
    def test_non_integer_rejected(self, site, d):
        with pytest.raises(DimensionMismatchError, match="is not a positive integer"):
            DIMENSION_CALLS[site](d)


class TestCachedSpectrum:
    """A validated state keeps the eigendecomposition its validation made,
    and every consumer of the state's spectrum reads it."""

    @staticmethod
    def _corpus(rng):
        states = [QuantumState(np.eye(d, dtype=complex) / d) for d in range(1, 10)]
        for dim in range(1, 10):
            for rank in range(1, dim + 1):
                states.append(QuantumState(random_density_matrix(dim, rng, rank=rank)))
        # Hermitian only within tolerance: validation symmetrizes it first.
        m = random_density_matrix(4, rng)
        m[0, 1] += 1e-12
        states.append(QuantumState(m))
        return states

    def test_bit_equal_to_fresh_decomposition(self, rng):
        for rho in self._corpus(rng):
            fresh = hermitian_eig(rho.matrix)
            assert rho.spectrum.values.tobytes() == fresh.values.tobytes()
            assert rho.spectrum.vectors.tobytes() == fresh.vectors.tobytes()
            assert rho.spectrum.values.shape == fresh.values.shape
            assert rho.spectrum.vectors.shape == fresh.vectors.shape

    def test_read_only(self, rng):
        for rho in self._corpus(rng):
            assert not rho.spectrum.values.flags.writeable
            assert not rho.spectrum.vectors.flags.writeable
        with pytest.raises(ValueError):
            rho.spectrum.values[0] = 2.0
        with pytest.raises(ValueError):
            rho.spectrum.vectors[0, 0] = 2.0

    def test_not_a_field(self):
        rho = QuantumState.maximally_mixed(2)
        assert [f.name for f in dataclasses.fields(rho)] == ["matrix"]
        assert "spectrum" not in repr(rho)

    def test_consumers_do_not_decompose_again(self, rng, lapack_calls):
        mixed = QuantumState(random_density_matrix(4, rng, rank=2))
        pure = QuantumState.pure([1.0, 0.0, 0.0, 0.0])
        other = QuantumState.pure([0.0, 1.0, 0.0, 0.0])
        # Each consumer paired with the LAPACK calls (eigh, eigvalsh) that
        # validate the new objects it builds: compress decomposes the
        # compressed state, and perfectly_discriminable builds no effect
        # until a falsifier is read, which it then decomposes.
        calls = [
            (lambda: mixed.rank(), (0, 0)),
            (lambda: purify(mixed), (0, 0)),
            (lambda: compress(mixed), (1, 0)),
            (lambda: canonical_form(mixed), (0, 0)),
            (lambda: support_projector(mixed.spectrum), (0, 0)),
            (lambda: perfectly_discriminable(pure, other), (0, 0)),
            (lambda: perfectly_discriminable(pure, other).falsifier_rho, (1, 0)),
            (lambda: SupportHypothesis.from_state(mixed), (0, 0)),
        ]
        built = [s.matrix.tobytes() for s in (mixed, pure, other)]
        for call, expected in calls:
            for seen in lapack_calls.values():
                seen.clear()
            call()
            assert (len(lapack_calls["eigh"]), len(lapack_calls["eigvalsh"])) == expected
            inputs = lapack_calls["eigh"] + lapack_calls["eigvalsh"]
            assert not any(m.tobytes() in built for m in inputs)

    def test_projectors_match_matrix_route(self, rng):
        for rho in self._corpus(rng):
            cached = support_projector(rho.spectrum)
            assert cached.tobytes() == support_projector(rho.matrix).tobytes()
            assert (
                kernel_projector(rho.spectrum).tobytes()
                == kernel_projector(rho.matrix).tobytes()
            )

    def test_results_own_their_arrays(self, rng):
        rho = QuantumState(random_density_matrix(4, rng, rank=2))
        isometry = compress(rho).isometry
        operators = canonical_form(rho).operators
        for a in (isometry, *operators):
            assert a.flags.writeable
            assert not np.shares_memory(a, rho.spectrum.vectors)
        assert not np.shares_memory(purify(rho).state_vector, rho.spectrum.vectors)
