import dataclasses

import numpy as np
import pytest

from optfalsify import (
    ClassicalState,
    MarkovMap,
    apply_markov,
    classical_falsifier_exists,
    classical_probability,
    embed_classical,
    permutation_map,
)
from optfalsify.errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from optfalsify.coins import (
    classical_verdict,
    count_classical_coin,
    count_generator,
    falsify_campaign,
    make_coin,
    make_nary,
)
from optfalsify.falsification import SupportHypothesis, support_falsification_test
from optfalsify.linalg import support_projector
from optfalsify.postulates import run_postulate_checks
from optfalsify.quantum import Dilation, Effect, KrausChannel, QuantumState, born_probability

MIXED = QuantumState.maximally_mixed(2)
TRIALS = "n_trials must be an integer of at least 1"
SEED = "seed must be a non-negative integer"
HYPOTHESIS = SupportHypothesis(np.diag([1.0, 0.0]))


class TestClassicalState:
    def test_negative_entry_rejected(self):
        with pytest.raises(OutOfRangeError):
            ClassicalState([0.5, -0.2, 0.7])

    def test_tiny_negative_clamped(self):
        st = ClassicalState([1.0, -5e-11])
        assert st.probs[1] == 0.0

    def test_mass_bounds(self):
        with pytest.raises(OutOfRangeError):
            ClassicalState([0.8, 0.4])
        with pytest.raises(OutOfRangeError):
            ClassicalState([0.0, 0.0])

    def test_empty_or_non_finite_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ClassicalState([])
        for bad in (np.nan, np.inf):
            with pytest.raises(OutOfRangeError, match="finite"):
                ClassicalState([bad, 0.5])

    def test_deterministic_flag(self):
        assert ClassicalState([0.3, 0.7]).deterministic
        assert not ClassicalState([0.3, 0.3]).deterministic

    def test_immutable(self):
        st = ClassicalState([0.5, 0.5])
        with pytest.raises(ValueError):
            st.probs[0] = 2.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClassicalState([10**400]),
        lambda: ClassicalState(["a"]),
        lambda: MarkovMap([["a"]]),
        lambda: MarkovMap([[10**400]]),
        lambda: make_coin("x"),
        lambda: make_nary([10**400, 0]),
    ],
    ids=["state-integer", "state-text", "map-text", "map-integer", "coin-text", "nary-integer"],
)
def test_non_numbers_rejected(build):
    # Text, or an integer beyond float range, is an out-of-range parameter.
    with pytest.raises(OutOfRangeError, match="must be"):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: KrausChannel(5), DimensionMismatchError, "nonempty Kraus list"),
        (lambda: KrausChannel(None), DimensionMismatchError, "nonempty Kraus list"),
        (lambda: make_nary(5), OutOfRangeError, "must be finite numbers"),
        (lambda: make_nary([0.5, 0.5], 3), OutOfRangeError, "must be finite numbers"),
        (
            lambda: classical_verdict("x", 0, 0),
            OutOfRangeError,
            "declared_p: entries must be finite",
        ),
        (
            lambda: classical_verdict(None, 0, 0),
            OutOfRangeError,
            "declared_p: entries must be finite",
        ),
        (lambda: classical_verdict(1.0, 0, "3"), OutOfRangeError, "outcome counts"),
        (lambda: classical_verdict(1.0, 0, -3), OutOfRangeError, "outcome counts"),
        (lambda: support_falsification_test(HYPOTHESIS, "a"), OutOfRangeError, "efficiency"),
        (lambda: support_falsification_test(HYPOTHESIS, None), OutOfRangeError, "efficiency"),
        # Integer arguments: an integer of at least the minimum, never a bool.
        (lambda: falsify_campaign(make_coin(0.5), MIXED, 2.5, 0), OutOfRangeError, "n_trials"),
        (lambda: count_generator(make_coin(0.5), "10", 0), OutOfRangeError, "n_trials"),
        (lambda: count_classical_coin(0.5, True, 0), OutOfRangeError, "n_trials"),
        (
            lambda: falsify_campaign(make_coin(0.5), MIXED, 10, 1.5),
            OutOfRangeError,
            "seed must be a non-negative integer",
        ),
        (lambda: run_postulate_checks(seed=1.5), OutOfRangeError, "seed must be a non-negative"),
        (lambda: run_postulate_checks(seed="1"), OutOfRangeError, "seed must be a non-negative"),
        (lambda: run_postulate_checks(dims=["a"]), OutOfRangeError, "dims must all be integers"),
        (lambda: run_postulate_checks(dims=None), OutOfRangeError, "dims must be a nonempty"),
        (
            lambda: run_postulate_checks(dims=[2.5, 3]),
            OutOfRangeError,
            "dims must all be integers",
        ),
        (lambda: Dilation(np.eye(2), 2, 1).branch(MIXED, 0.5), OutOfRangeError, "branch index"),
        (lambda: permutation_map([0.0, 1.0]), OutOfRangeError, "not a permutation"),
        (lambda: permutation_map(None), OutOfRangeError, "not a permutation"),
        (
            lambda: count_classical_coin("x", 10, 0),
            OutOfRangeError,
            "true_p: entries must be finite",
        ),
        (
            lambda: count_classical_coin(10**400, 10, 0),
            OutOfRangeError,
            "true_p: entries must be finite",
        ),
        # One below each minimum, and a bool, at every integer site.
        (lambda: falsify_campaign(make_coin(0.5), MIXED, 0, 0), OutOfRangeError, TRIALS),
        (lambda: count_generator(make_coin(0.5), 0, 0), OutOfRangeError, TRIALS),
        (lambda: count_classical_coin(0.5, 0, 0), OutOfRangeError, TRIALS),
        (lambda: falsify_campaign(make_coin(0.5), MIXED, True, 0), OutOfRangeError, TRIALS),
        (lambda: falsify_campaign(make_coin(0.5), MIXED, 10, -1), OutOfRangeError, SEED),
        (lambda: count_generator(make_coin(0.5), 10, -1), OutOfRangeError, SEED),
        (lambda: count_classical_coin(0.5, 10, -1), OutOfRangeError, SEED),
        (lambda: falsify_campaign(make_coin(0.5), MIXED, 10, False), OutOfRangeError, SEED),
        (lambda: count_generator(make_coin(0.5), 10, True), OutOfRangeError, SEED),
        (lambda: count_classical_coin(0.5, 10, False), OutOfRangeError, SEED),
        (lambda: run_postulate_checks(seed=-1), OutOfRangeError, SEED),
        (lambda: run_postulate_checks(seed=False), OutOfRangeError, SEED),
        (lambda: run_postulate_checks(dims=[1]), OutOfRangeError, "dims must all be integers"),
        (lambda: run_postulate_checks(dims=[True]), OutOfRangeError, "dims must all be integers"),
        (lambda: run_postulate_checks(dims=[2, 9]), OutOfRangeError, "dims above 8"),
        (lambda: classical_verdict(1.0, True, 0), OutOfRangeError, "outcome counts"),
        (lambda: Dilation(np.eye(2), 2, 1).branch(MIXED, True), OutOfRangeError, "branch index"),
        (lambda: permutation_map([True, False]), OutOfRangeError, "not a permutation"),
        (
            lambda: KrausChannel(np.zeros((0, 2, 2))),
            DimensionMismatchError,
            "nonempty Kraus list",
        ),
    ],
    ids=["kraus-int", "kraus-none", "nary-int", "nary-phases-int", "verdict-text",
         "verdict-none", "verdict-count-text", "verdict-count-negative", "efficiency-text",
         "efficiency-none", "campaign-trials-float", "sample-trials-text",
         "coin-trials-bool", "campaign-seed-float", "postulates-seed-float",
         "postulates-seed-text", "postulates-dims-text", "postulates-dims-none",
         "postulates-dims-float", "branch-float", "permutation-floats", "permutation-none",
         "coin-p-text", "coin-p-huge", "campaign-trials-zero", "sample-trials-zero",
         "coin-trials-zero", "campaign-trials-bool", "campaign-seed-negative",
         "sample-seed-negative", "coin-seed-negative", "campaign-seed-bool", "sample-seed-bool",
         "coin-seed-bool", "postulates-seed-negative", "postulates-seed-bool",
         "postulates-dims-one", "postulates-dims-bool", "postulates-dims-nine",
         "verdict-count-bool", "branch-bool", "permutation-bool", "kraus-empty-stack"],
)
def test_non_sequences_and_non_numbers_raise_typed_errors(build, error, message):
    # Library callers only: the CLI's JSON schema rejects these first.
    with pytest.raises(error, match=message):
        build()


# Each counter's result as a flat list, so that the types of its entries
# can be compared.
COUNTERS = {
    "coin": lambda n, seed: list(count_classical_coin(0.5, n, seed)),
    "campaign": lambda n, seed: list(
        dataclasses.astuple(falsify_campaign(make_coin(0.5), MIXED, n, seed))
    ),
    "sample": lambda n, seed: [
        x for a in count_generator(make_nary([0.2, 0.8]), n, seed) for x in a.tolist()
    ],
}


@pytest.mark.parametrize("counter", sorted(COUNTERS))
@pytest.mark.parametrize("n_trials, seed", [(1, 0), (10, 1)])
def test_counters_read_numpy_integers_as_python_ints(counter, n_trials, seed):
    # The minimum of each integer is accepted, and a numpy integer gives the
    # result of the Python int, in Python types.
    expected = COUNTERS[counter](n_trials, seed)
    got = COUNTERS[counter](np.int64(n_trials), np.int64(seed))
    assert got == expected
    assert [type(x) for x in got] == [type(x) for x in expected]
    assert all(type(x) is not np.int64 for x in got)


def test_integer_sites_accept_numpy_integers():
    # Postulate seed and dims, branch index, permutation entries and
    # outcome counts: a numpy integer at the minimum reads as the Python int.
    assert run_postulate_checks(dims=[np.int64(2)], seed=np.int64(0)) == run_postulate_checks(
        dims=(2,), seed=0
    )
    dil = Dilation(np.eye(2), 2, 1)
    assert np.array_equal(dil.branch(MIXED, np.int64(0)), dil.branch(MIXED, 0))
    assert np.array_equal(
        permutation_map([np.int64(1), np.int64(0)]).matrix, permutation_map([1, 0]).matrix
    )
    assert classical_verdict(1.0, np.int64(0), np.int64(0)).value == "NOT_FALSIFIED"


def test_long_dims_range_fails_at_its_first_dim_above_8():
    # The dims are read one at a time, so a range too long to hold is never
    # built.
    with pytest.raises(OutOfRangeError, match="dims above 8 exceed the intended regime"):
        run_postulate_checks(dims=range(2, 10**12))


class TestMarkovMap:
    def test_column_over_unity_rejected(self):
        with pytest.raises(OutOfRangeError):
            MarkovMap([[0.8, 0.0], [0.4, 1.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(OutOfRangeError):
            MarkovMap([[1.2, 0.0], [-0.2, 1.0]])

    def test_not_2d_or_non_finite_rejected(self):
        for shape in ((2,), (1, 1, 1), (0, 2)):
            with pytest.raises(DimensionMismatchError, match="2-D"):
                MarkovMap(np.ones(shape))
        with pytest.raises(OutOfRangeError, match="finite"):
            MarkovMap([[np.nan, 0.0], [1.0, 1.0]])

    def test_deterministic_flag(self):
        assert MarkovMap([[0.5, 0.0], [0.5, 1.0]]).deterministic
        assert not MarkovMap([[0.5, 0.0], [0.25, 1.0]]).deterministic

    def test_apply_preserves_simplex(self):
        m = MarkovMap([[0.5, 0.1], [0.5, 0.9]])
        out = apply_markov(m, ClassicalState([0.2, 0.8]))
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.probs, [0.18, 0.82], atol=1e-15)

    def test_apply_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_markov(MarkovMap(np.eye(3)), ClassicalState([0.5, 0.5]))


class TestEffectsAndProbability:
    def test_deterministic_effect_is_total_mass(self):
        st = ClassicalState([0.25, 0.25])
        p = classical_probability(MarkovMap(np.ones((1, 2))), st)
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_indicator_row(self):
        eff = MarkovMap([[0.0, 1.0, 0.0]])
        assert classical_probability(
            eff, ClassicalState([0.2, 0.3, 0.5])
        ) == pytest.approx(0.3, abs=1e-15)

    def test_effect_must_be_single_row(self):
        with pytest.raises(DimensionMismatchError):
            classical_probability(MarkovMap(np.eye(2)), ClassicalState([0.5, 0.5]))

    def test_effect_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            classical_probability(MarkovMap(np.ones((1, 3))), ClassicalState([0.5, 0.5]))


class TestPermutation:
    def test_reversible(self):
        perm = permutation_map([2, 0, 1])
        inv = permutation_map([1, 2, 0])
        st = ClassicalState([0.2, 0.3, 0.5])
        out = apply_markov(inv, apply_markov(perm, st))
        np.testing.assert_allclose(out.probs, st.probs, atol=0)

    def test_invalid_permutation(self):
        with pytest.raises(OutOfRangeError):
            permutation_map([0, 0, 1])


class TestEmbedding:
    def test_diagonal_state_matches(self):
        st = ClassicalState([0.2, 0.3, 0.5])
        rho = embed_classical(st)
        assert np.array_equal(rho.matrix, np.diag([0.2, 0.3, 0.5]).astype(complex))

    def test_born_rule_agreement(self):
        st = ClassicalState([0.1, 0.6, 0.3])
        rho = embed_classical(st)
        for i in range(3):
            row = np.zeros((1, 3))
            row[0, i] = 1.0
            proj = np.zeros((3, 3))
            proj[i, i] = 1.0
            assert classical_probability(MarkovMap(row), st) == pytest.approx(
                born_probability(rho, Effect(proj)), abs=1e-12
            )

    def test_support_projector_is_indicator(self):
        rho = embed_classical(ClassicalState([0.5, 0.0, 0.5]))
        np.testing.assert_allclose(
            support_projector(rho.spectrum), np.diag([1.0, 0.0, 1.0]), atol=1e-12
        )


class TestClassicalFalsifier:
    def test_point_mass_has_falsifier(self):
        assert classical_falsifier_exists(ClassicalState([1.0, 0.0])) == (1,)

    def test_interior_distribution_has_none(self):
        assert classical_falsifier_exists(ClassicalState([0.3, 0.7])) is None

    def test_partial_support(self):
        idx = classical_falsifier_exists(ClassicalState([0.5, 0.0, 0.5, 0.0]))
        assert idx == (1, 3)

    def test_requires_normalized(self):
        with pytest.raises(NotDeterministicError):
            classical_falsifier_exists(ClassicalState([0.25, 0.25]))


class TestSampling:
    """A classical distribution is sampled as the zero-phase generator with
    its weights."""

    def test_frequencies(self):
        probs = ClassicalState([0.2, 0.5, 0.3]).probs
        n = 200_000
        counts = count_generator(make_nary(probs), n, 7)[1]
        assert counts.sum() == n
        # 4 sigma on each cell
        for k in range(3):
            sigma = np.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(counts[k] / n - probs[k]) <= 4 * sigma

    def test_requires_normalized(self):
        with pytest.raises(OutOfRangeError):
            count_generator(make_nary(ClassicalState([0.4, 0.4]).probs), 5, 0)
