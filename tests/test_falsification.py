import dataclasses

import numpy as np
import pytest

from optfalsify import TestOutcome as Outcome
from optfalsify import (
    Effect,
    FalsificationTest,
    QuantumState,
    SupportHypothesis,
    falsification_probability,
    run_test,
    support_falsification_test,
)
from optfalsify.errors import (
    DimensionMismatchError,
    NotDeterministicError,
    NotHermitianError,
    OutOfRangeError,
    UnfalsifiableHypothesisError,
)
from optfalsify.random_ops import random_density_matrix, random_projector


class TestSupportHypothesis:
    def test_from_state_rank(self):
        hyp = SupportHypothesis.from_state(QuantumState(np.diag([0.5, 0.5, 0.0])))
        assert (hyp.dim, hyp.rank) == (3, 2)
        np.testing.assert_allclose(hyp.projector, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_full_space_unfalsifiable(self):
        with pytest.raises(UnfalsifiableHypothesisError):
            SupportHypothesis(np.eye(3))

    def test_full_rank_state_unfalsifiable(self, rng):
        with pytest.raises(UnfalsifiableHypothesisError):
            SupportHypothesis.from_state(QuantumState(random_density_matrix(3, rng)))

    def test_not_idempotent(self):
        with pytest.raises(OutOfRangeError):
            SupportHypothesis(np.diag([0.5, 0.0]))

    def test_not_hermitian(self):
        m = np.array([[1.0, 0.3], [0.0, 0.0]])
        with pytest.raises(NotHermitianError, match="hypothesis projector is not Hermitian"):
            SupportHypothesis(m)

    def test_dimension_floor(self):
        with pytest.raises(DimensionMismatchError):
            SupportHypothesis(np.zeros((1, 1)))


class TestSupportFalsificationTest:
    def test_basis_state_complement(self):
        # K = span{|0>}: F is the projector onto |1>.
        hyp = SupportHypothesis(np.diag([1.0, 0.0]))
        test = support_falsification_test(hyp)
        np.testing.assert_allclose(test.falsifier.matrix, np.diag([0.0, 1.0]), atol=0)
        np.testing.assert_allclose(
            test.inconclusive.matrix, np.diag([1.0, 0.0]), atol=0
        )

    def test_efficiency_scales_falsifier(self):
        hyp = SupportHypothesis(np.diag([1.0, 1.0, 0.0]))
        test = support_falsification_test(hyp, efficiency=0.5)
        np.testing.assert_allclose(
            test.falsifier.matrix, np.diag([0.0, 0.0, 0.5]), atol=0
        )

    def test_efficiency_range(self):
        hyp = SupportHypothesis(np.diag([1.0, 0.0]))
        for bad in (0.0, -0.3, 1.5):
            with pytest.raises(OutOfRangeError):
                support_falsification_test(hyp, efficiency=bad)

    def test_soundness_on_supported_states(self, rng):
        # States inside K never trigger the falsifier.
        for dim in (2, 3, 4):
            p = random_projector(dim, dim - 1, rng)
            hyp = SupportHypothesis(p)
            test = support_falsification_test(hyp)
            m = p @ random_density_matrix(dim, rng) @ p
            rho = QuantumState(m / np.trace(m).real)
            assert falsification_probability(test, rho) <= 1e-10

    def test_linearity_in_efficiency(self, rng):
        p = random_projector(3, 1, rng)
        hyp = SupportHypothesis(p)
        rho = QuantumState(random_density_matrix(3, rng))
        p_full = falsification_probability(support_falsification_test(hyp), rho)
        for eta in (0.25, 0.5, 0.75):
            p_eta = falsification_probability(
                support_falsification_test(hyp, efficiency=eta), rho
            )
            assert abs(p_eta - eta * p_full) <= 1e-12

    def test_full_efficiency_is_most_efficient(self, rng):
        p = random_projector(4, 2, rng)
        hyp = SupportHypothesis(p)
        rho = QuantumState(random_density_matrix(4, rng))
        p_full = falsification_probability(support_falsification_test(hyp), rho)
        p_half = falsification_probability(
            support_falsification_test(hyp, efficiency=0.5), rho
        )
        assert p_half <= p_full + 1e-15


class TestFalsificationTestType:
    def test_inconclusive_is_derived(self):
        assert [f.name for f in dataclasses.fields(FalsificationTest)] == ["falsifier"]
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            hyp = SupportHypothesis(random_projector(d, 1, rng))
            for efficiency in (1.0, 0.37):
                test = support_falsification_test(hyp, efficiency)
                expected = np.eye(d, dtype=complex) - test.falsifier.matrix
                assert test.inconclusive.matrix.tobytes() == expected.tobytes()

    def test_zero_falsifier_rejected_by_default(self):
        with pytest.raises(OutOfRangeError, match="zero falsifier"):
            FalsificationTest(Effect(np.zeros((2, 2))))

    def test_near_zero_counts_as_inconclusive(self):
        with pytest.raises(OutOfRangeError, match="zero falsifier"):
            FalsificationTest(Effect(np.eye(2) * 1e-14))

    def test_genuine_test_not_inconclusive(self):
        test = FalsificationTest(Effect(np.diag([0.0, 1.0])))
        assert not test.falsifier.is_zero


class TestRunTest:
    def test_never_fires_at_probability_zero(self):
        test = support_falsification_test(SupportHypothesis(np.diag([1.0, 0.0])))
        rho = QuantumState.pure([1.0, 0.0])
        rng = np.random.default_rng(0)
        assert all(
            run_test(test, rho, rng) is Outcome.INCONCLUSIVE for _ in range(200)
        )

    def test_always_fires_at_probability_one(self):
        test = support_falsification_test(SupportHypothesis(np.diag([1.0, 0.0])))
        rho = QuantumState.pure([0.0, 1.0])
        rng = np.random.default_rng(0)
        assert all(
            run_test(test, rho, rng) is Outcome.FALSIFIED for _ in range(200)
        )

    def test_requires_normalized_state(self):
        test = support_falsification_test(SupportHypothesis(np.diag([1.0, 0.0])))
        with pytest.raises(NotDeterministicError):
            run_test(
                test, QuantumState(np.diag([0.25, 0.25])), np.random.default_rng(0)
            )
