"""Both sides of every cutoff shared between validating constructors, and
of the single-site cutoff of connecting_unitary.

Each case builds an input that strays eps past one boundary: it is
accepted at eps = 0.5 x the cutoff and rejected with a typed error at
eps = 2 x the cutoff.  The state cutoffs are also crossed inside a stack
validated by quantum._states, whose errors name the failing index.  The
fixed cuts that decide rather than reject (the snap of a falsification
probability, the classical endpoint rule, a state's rank) give one
decision at 0.5 x DEFAULT_RANK_TOL and the other at 2 x.
"""

import numpy as np
import pytest

from optfalsify import (
    BaselineVerdict,
    ClassicalState,
    Effect,
    MarkovMap,
    Purification,
    QuantumState,
    classical_verdict,
    coin_falsification_test,
    falsification_probability,
    hermitian_eig,
    linalg,
    make_coin,
    make_nary,
    quantum,
)
from optfalsify.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
    PurificationMismatchError,
)
from optfalsify.falsification import SupportHypothesis
from optfalsify.linalg import DEFAULT_RANK_TOL, HERM_TOL, MAX_ENTRY, SPECTRUM_TOL, TRACE_TOL


def test_shared_cutoffs_pinned():
    pinned = (linalg.HERM_TOL, linalg.TRACE_TOL, linalg.SPECTRUM_TOL, linalg.DEFAULT_RANK_TOL)
    assert pinned == (1e-10,) * 4


def _skewed(eps):
    """Trace-one qubit matrix with max|m - m^dag| = eps."""
    return [[0.5, eps], [0.0, 0.5]]


# name: (cutoff, error raised at 2x, build(eps))
CASES = {
    "state-hermiticity": (HERM_TOL, NotHermitianError, lambda e: QuantumState(_skewed(e))),
    "effect-hermiticity": (HERM_TOL, NotHermitianError, lambda e: Effect(_skewed(e))),
    "effect-below-zero": (SPECTRUM_TOL, NotPSDError, lambda e: Effect(np.diag([0.5, -e]))),
    "effect-above-one": (
        SPECTRUM_TOL,
        OutOfRangeError,
        lambda e: Effect(np.diag([1.0 + e, 0.5])),
    ),
    "hermitian_eig-hermiticity": (
        HERM_TOL,
        NotHermitianError,
        lambda e: hermitian_eig(_skewed(e)),
    ),
    # [[1, e], [0, 0]] is exactly idempotent, so only Hermiticity is at stake.
    "hypothesis-hermiticity": (
        HERM_TOL,
        NotHermitianError,
        lambda e: SupportHypothesis([[1.0, e], [0.0, 0.0]]),
    ),
    "state-trace": (
        TRACE_TOL,
        OutOfRangeError,
        lambda e: QuantumState(np.diag([0.5 + e, 0.5])),
    ),
    # lam_max = 1, so the PSD cut sits at -DEFAULT_RANK_TOL.
    "state-psd": (DEFAULT_RANK_TOL, NotPSDError, lambda e: QuantumState(np.diag([1.0, -e]))),
    # A raw matrix, checked by support_projector itself rather than by a state.
    "support_projector-psd": (
        DEFAULT_RANK_TOL,
        NotPSDError,
        lambda e: linalg.support_projector(np.diag([1.0, -e])),
    ),
    "cstate-total": (TRACE_TOL, OutOfRangeError, lambda e: ClassicalState([0.5 + e, 0.5])),
    "generator-weight-sum": (TRACE_TOL, OutOfRangeError, lambda e: make_nary([0.5 + e, 0.5])),
    "purification-norm": (
        TRACE_TOL,
        OutOfRangeError,
        lambda e: Purification(np.array([1.0 + e, 0.0]), 2, 1),
    ),
    "cstate-negative-entry": (SPECTRUM_TOL, OutOfRangeError, lambda e: ClassicalState([-e, 1.0])),
    "markov-negative-entry": (
        SPECTRUM_TOL,
        OutOfRangeError,
        lambda e: MarkovMap([[-e, 0.0], [1.0, 1.0]]),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_both_sides_of_shared_cutoff(case):
    tol, error, build = CASES[case]
    build(0.5 * tol)
    with pytest.raises(error):
        build(2.0 * tol)


def _rotated_rate(rate):
    """falsification_probability of the declared fair coin on the pure state
    rotated from it by arcsin(sqrt(rate)), whose Born probability is rate."""
    theta = np.pi / 4 + np.arcsin(np.sqrt(rate))
    state = QuantumState.pure([np.cos(theta), np.sin(theta)])
    return falsification_probability(coin_falsification_test(make_coin(0.5)), state)


FALSIFIED, NOT_FALSIFIABLE = BaselineVerdict.FALSIFIED, BaselineVerdict.NOT_FALSIFIABLE

# name: (decide(eps), decision at eps = 0.5 x DEFAULT_RANK_TOL, decision at 2 x)
DECISIONS = {
    "falsification-snap": (lambda e: _rotated_rate(e) > 0.0, False, True),
    "classical-verdict-near-0": (lambda e: classical_verdict(e, 1, 0), FALSIFIED, NOT_FALSIFIABLE),
    "classical-verdict-near-1": (
        lambda e: classical_verdict(1.0 - e, 0, 1),
        FALSIFIED,
        NOT_FALSIFIABLE,
    ),
    # lam_max = 1 - eps, so the support cut sits at DEFAULT_RANK_TOL * (1 - eps).
    "state-rank": (lambda e: QuantumState(np.diag([1.0 - e, e])).rank(), 1, 2),
}


@pytest.mark.parametrize("case", DECISIONS)
def test_both_sides_of_decision_cutoff(case):
    decide, below, above = DECISIONS[case]
    assert decide(0.5 * DEFAULT_RANK_TOL) == below
    assert decide(2.0 * DEFAULT_RANK_TOL) == above


def test_classical_endpoint_cut_between_neighbours():
    # 1 - 0.9999999999 is 1.0000000827e-10, above the cut; one float higher,
    # 1 - p is 1.1e-16 smaller and at most DEFAULT_RANK_TOL.
    p = 0.9999999999
    assert 1.0 - p > DEFAULT_RANK_TOL >= 1.0 - np.nextafter(p, 2.0)
    assert classical_verdict(p, 0, 1) is NOT_FALSIFIABLE
    assert classical_verdict(np.nextafter(p, 2.0), 0, 1) is FALSIFIED


def test_single_site_cutoffs_pinned():
    pinned = (quantum._MARGINAL_TOL, quantum._ORTHOGONALITY_TOL)
    assert pinned == (1e-8, 1e-8)


def _purifications(eps):
    """Two purifications on 2 x 2 whose marginals differ by diag(eps, -eps)."""
    return (
        Purification(np.sqrt([0.6, 0.0, 0.0, 0.4]).astype(complex), 2, 2),
        Purification(np.sqrt([0.6 + eps, 0.0, 0.0, 0.4 - eps]).astype(complex), 2, 2),
    )


# name: (cutoff, error raised at 2x, build(eps))
SINGLE_SITE_CASES = {
    "connecting-unitary-marginals": (
        quantum._MARGINAL_TOL,
        PurificationMismatchError,
        lambda e: quantum.connecting_unitary(*_purifications(e)),
    ),
}


@pytest.mark.parametrize("case", SINGLE_SITE_CASES)
def test_both_sides_of_single_site_cutoff(case):
    tol, error, build = SINGLE_SITE_CASES[case]
    build(0.5 * tol)
    with pytest.raises(error):
        build(2.0 * tol)


# name: (cutoff, error raised at 2x, state matrix straying eps past the cutoff)
STATE_CUTOFFS = {
    "hermiticity": (HERM_TOL, NotHermitianError, _skewed),
    "psd": (DEFAULT_RANK_TOL, NotPSDError, lambda e: np.diag([1.0, -e])),
    "trace": (TRACE_TOL, OutOfRangeError, lambda e: np.diag([0.5 + e, 0.5])),
}


def _stack_with(m, at=3, n=7):
    """n valid qubit states with m in place of the one at index `at`."""
    stack = np.stack([np.diag([0.25, 0.75]).astype(complex)] * n)
    stack[at] = m
    return stack


@pytest.mark.parametrize("case", STATE_CUTOFFS)
def test_both_sides_of_state_cutoff_in_a_stack(case):
    tol, error, matrix = STATE_CUTOFFS[case]
    states = quantum._states(_stack_with(matrix(0.5 * tol)))
    assert states[3].matrix.tobytes() == QuantumState(matrix(0.5 * tol)).matrix.tobytes()
    with pytest.raises(error) as per_object:
        QuantumState(matrix(2.0 * tol))
    assert "[" not in str(per_object.value)
    # The index is named only when the stack holds more than one matrix; a
    # failing stack of one reads exactly as the single object does.
    for at, n in ((3, 7), (1, 2), (0, 1)):
        with pytest.raises(error) as stacked:
            quantum._states(_stack_with(matrix(2.0 * tol), at=at, n=n))
        assert type(stacked.value) is type(per_object.value)
        index = f" [{at}]" if n > 1 else ""
        assert index in str(stacked.value)
        assert str(stacked.value).replace(index, "", 1) == str(per_object.value)


@pytest.mark.parametrize("k", [0, 3, 6])
@pytest.mark.parametrize("entry", [np.nan, np.inf, 2.0 * MAX_ENTRY])
def test_unbounded_entry_in_a_stack(k, entry):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = entry
    with pytest.raises(OutOfRangeError, match=rf"state matrix \[{k}\]: entries must be finite"):
        quantum._states(_stack_with(m, at=k))


def test_integer_beyond_float_range_in_a_stack():
    with pytest.raises(OutOfRangeError, match="state matrix: entries must be finite"):
        quantum._states([[[1.0, 0.0], [0.0, 0.0]], [[10**400, 0], [0, 0]]])


@pytest.mark.parametrize(
    "shape", [(7, 2, 3), (0, 2, 2), (7, 0, 0), (2, 2), (1, 7, 2, 2), ()]
)
def test_stack_shape_rejected(shape):
    with pytest.raises(DimensionMismatchError, match="expected a stack of square matrices"):
        quantum._states(np.zeros(shape, dtype=complex))


def test_stacked_states_are_read_only():
    for state in quantum._states(_stack_with(np.eye(2) / 2)):
        for a in (state.matrix, state.spectrum.values, state.spectrum.vectors):
            assert not a.flags.writeable
