"""Both sides of every cutoff that linalg names: the shared cutoffs of the
validating constructors and the single-site cutoffs.

Each case builds an input that strays eps past one boundary: it is
accepted at eps = 0.5 x the cutoff and rejected with a typed error at
eps = 2 x the cutoff.  The state cutoffs are also crossed inside a stack
validated by quantum._states, whose errors name the failing index.  The
fixed cuts that decide rather than reject (the snap of a falsification
probability, the classical endpoint rule, a state's rank) give one
decision at 0.5 x DEFAULT_RANK_TOL and the other at 2 x.  Each helper that
compares a shared cutoff is also held at the cut itself, where its
documented side must win, and at the next double past it.  Two lint tests
keep every comparison with a shared cutoff, and every tolerance literal,
in linalg.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from optfalsify import (
    BaselineVerdict,
    ClassicalState,
    Dilation,
    Effect,
    KrausChannel,
    MarkovMap,
    Purification,
    QuantumState,
    born_probability,
    classical_falsifier_exists,
    classical_verdict,
    coin_falsification_test,
    falsification_probability,
    hermitian_eig,
    linalg,
    local_falsifier,
    make_coin,
    make_nary,
    perfectly_discriminable,
    quantum,
)
from optfalsify.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NumericalContaminationError,
    OptFalsifyError,
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
    pinned = (linalg._MARGINAL_TOL, linalg._ORTHOGONALITY_TOL)
    assert pinned == (1e-8, 1e-8)
    pinned = (linalg._IMAG_TOL, linalg._UNIT_NORM_TOL, linalg._UNITARY_TOL, linalg._WEIGHT_TOL)
    assert pinned == (1e-8, 1e-8, 1e-9, 1e-12)


def _purifications(eps):
    """Two purifications on 2 x 2 whose marginals differ by diag(eps, -eps)."""
    return (
        Purification(np.sqrt([0.6, 0.0, 0.0, 0.4]).astype(complex), 2, 2),
        Purification(np.sqrt([0.6 + eps, 0.0, 0.0, 0.4 - eps]).astype(complex), 2, 2),
    )


def _raised(build, *args):
    """The type of the OptFalsifyError that build(*args) raises, or None."""
    try:
        build(*args)
    except OptFalsifyError as exc:
        return type(exc)
    return None


def _forged(cls, matrix):
    """An instance of cls holding matrix without validation."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "matrix", np.array(matrix, dtype=complex))
    return obj


def _born_with_imaginary_part(e):
    """born_probability of forged operands whose trace is exactly 1j * e.
    Validated operands are exactly Hermitian, so their trace carries at most
    a rounding-level imaginary part, and _IMAG_TOL cannot be reached."""
    rho = _forged(QuantumState, [[0.5, 1j * e], [0.0, 0.5]])
    return born_probability(rho, _forged(Effect, [[0.0, 0.0], [1.0, 0.0]]))


def _overlapping_pair(e):
    """|0> and a pure state whose overlap max|P_rho P_nu| is about e."""
    return QuantumState.pure([1.0, 0.0]), QuantumState.pure([e, np.sqrt(1.0 - e * e)])


# name: (cutoff name in linalg, decide(eps), result at eps = 0.5 x the cutoff,
# at 2 x), where a result is the error type raised or the decision made.
SINGLE_SITE_CASES = {
    "connecting-unitary-marginals": (
        "_MARGINAL_TOL",
        lambda e: _raised(quantum.connecting_unitary, *_purifications(e)),
        None,
        PurificationMismatchError,
    ),
    "discrimination-overlap": (
        "_ORTHOGONALITY_TOL",
        lambda e: perfectly_discriminable(*_overlapping_pair(e)).discriminable,
        True,
        False,
    ),
    "local-falsifier-unit-norm": (
        "_UNIT_NORM_TOL",
        lambda e: _raised(local_falsifier, np.eye(2), [1.0 - e, 0.0]),
        None,
        OutOfRangeError,
    ),
}


@pytest.mark.parametrize("case", SINGLE_SITE_CASES)
def test_both_sides_of_single_site_cutoff(case):
    name, decide, below, above = SINGLE_SITE_CASES[case]
    tol = getattr(linalg, name)
    assert decide(0.5 * tol) == below
    assert decide(2.0 * tol) == above


def _declared_one_rate(x):
    """falsification_probability of the declared |0> (make_coin(1.0)) on
    diag(1 - x, x), whose computed Born rate is exactly x."""
    test = coin_falsification_test(make_coin(1.0))
    return falsification_probability(test, QuantumState(np.diag([1.0 - x, x])))


# Every helper that compares a shared cutoff, held at the cut, where the side
# its docstring states must win, and at the next double past it.
# name: (cutoff name in linalg, cut(tol), decide(x), result at x = the cut,
# at the next double above it).  Where x is the depth of a negative value,
# decide(x) negates it.
AT_THE_CUT = {
    # _negligible: a value at the cut is negligible.
    "snap": ("DEFAULT_RANK_TOL", float, lambda x: _declared_one_rate(x) > 0.0, False, True),
    "classical-endpoint": (
        "DEFAULT_RANK_TOL",
        float,
        lambda x: classical_falsifier_exists(ClassicalState([x, 1.0 - x])),
        (0,),
        None,
    ),
    # support_mask: lam_max = 0.5, so the cut is DEFAULT_RANK_TOL * 0.5.
    "support": (
        "DEFAULT_RANK_TOL",
        lambda t: t * 0.5,
        lambda x: QuantumState(np.diag([0.5, x])).rank(),
        1,
        2,
    ),
    "psd": (
        "DEFAULT_RANK_TOL",
        float,
        lambda x: _raised(QuantumState, np.diag([1.0, -x])),
        None,
        NotPSDError,
    ),
    # |A|_F rounds to 1.0, and |A^dag a| = x.
    "local-falsifier-degenerate": (
        "DEFAULT_RANK_TOL",
        float,
        lambda x: local_falsifier(np.diag([1.0, x]), [0.0, 1.0]).degenerate,
        True,
        False,
    ),
    # _subnormalized: a trace, total or column sum of 1 + TRACE_TOL passes.
    "subnormalized": ("TRACE_TOL", lambda t: 1.0 + t, linalg._subnormalized, True, False),
    "state-trace": (
        "TRACE_TOL",
        lambda t: 1.0 + t,
        lambda x: _raised(QuantumState, [[x]]),
        None,
        OutOfRangeError,
    ),
    "cstate-total": (
        "TRACE_TOL",
        lambda t: 1.0 + t,
        lambda x: _raised(ClassicalState, [x]),
        None,
        OutOfRangeError,
    ),
    "markov-column-sum": (
        "TRACE_TOL",
        lambda t: 1.0 + t,
        lambda x: _raised(MarkovMap, [[x]]),
        None,
        OutOfRangeError,
    ),
    # _normalized: a deviation from one of TRACE_TOL is normalized.  A
    # trace's deviation |tr - 1| is a multiple of 2^-53 and cannot equal
    # TRACE_TOL, but an off-diagonal entry of a channel's gram can.
    "normalized": ("TRACE_TOL", float, linalg._normalized, True, False),
    "channel-deterministic": (
        "TRACE_TOL",
        float,
        lambda x: KrausChannel((np.array([[1.0, x], [0.0, 1.0]]),)).deterministic,
        True,
        False,
    ),
    # _is_zero and _unit_spectrum: a value SPECTRUM_TOL past 0 or 1 passes.
    "zero-effect": (
        "SPECTRUM_TOL",
        float,
        lambda x: Effect(np.diag([x, 0.0])).is_zero,
        True,
        False,
    ),
    "effect-below-zero": (
        "SPECTRUM_TOL",
        float,
        lambda x: _raised(Effect, np.diag([0.5, -x])),
        None,
        NotPSDError,
    ),
    "effect-above-one": (
        "SPECTRUM_TOL",
        lambda t: 1.0 + t,
        lambda x: _raised(Effect, np.diag([x, 0.5])),
        None,
        OutOfRangeError,
    ),
    "cstate-negative-entry": (
        "SPECTRUM_TOL",
        float,
        lambda x: _raised(ClassicalState, [-x, 1.0]),
        None,
        OutOfRangeError,
    ),
    # _hermitian: max|m - m^dag| = HERM_TOL is Hermitian.
    "hermiticity": (
        "HERM_TOL",
        float,
        lambda x: _raised(QuantumState, _skewed(x)),
        None,
        NotHermitianError,
    ),
    # Single-site cutoffs whose quantity can be set exactly.  The overlap of
    # _ORTHOGONALITY_TOL and the marginal gap of _MARGINAL_TOL come out of
    # products of computed projectors and vectors, and |nrm - 1| under
    # _UNIT_NORM_TOL is a multiple of 2^-53, so those three are held at 0.5x
    # and 2x only (SINGLE_SITE_CASES).
    "generator-negative-weight": (
        "_WEIGHT_TOL",
        float,
        lambda x: _raised(make_nary, [-x, 1.0 + x]),
        None,
        OutOfRangeError,
    ),
    "born-imaginary-part": (
        "_IMAG_TOL",
        float,
        lambda x: _raised(_born_with_imaginary_part, x),
        None,
        NumericalContaminationError,
    ),
    # U^dag U - I = [[x^2, x], [x, 0]], and x^2 vanishes against 1.
    "dilation-unitarity": (
        "_UNITARY_TOL",
        float,
        lambda x: _raised(Dilation, np.array([[1.0, 0.0], [x, 1.0]]), 2, 1),
        None,
        OutOfRangeError,
    ),
}


@pytest.mark.parametrize("case", AT_THE_CUT)
def test_at_the_cut(case):
    name, cut, decide, at, above = AT_THE_CUT[case]
    x = cut(getattr(linalg, name))
    assert decide(x) == at
    assert decide(float(np.nextafter(x, np.inf))) == above


def test_every_cutoff_has_a_case():
    named = {name for name in vars(linalg) if name.endswith("_TOL")}
    cased = {case[0] for case in (*SINGLE_SITE_CASES.values(), *AT_THE_CUT.values())}
    assert named == cased


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


SRC = Path(linalg.__file__).parent
SHARED = {"HERM_TOL", "TRACE_TOL", "SPECTRUM_TOL", "DEFAULT_RANK_TOL"}


def _report_bounds(tree):
    """The bound arguments of the postulates._result calls in tree."""
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_result":
            yield from call.args[3:4]
            yield from (k.value for k in call.keywords if k.arg == "bound")


def _bare_tolerances(tree):
    """Line numbers of the float literals below 1e-6 in tree, other than
    report bounds."""
    bounds = {id(node) for node in _report_bounds(tree)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
        and id(node) not in bounds
    ]


def _shared_comparisons(tree):
    """Line numbers of the comparisons in tree that name a shared cutoff."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            getattr(n, "id", getattr(n, "attr", None)) in SHARED for n in ast.walk(node)
        )
    ]


def _source_lines(find, exempt):
    return {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name not in exempt and (lines := find(ast.parse(path.read_text())))
    }


def test_lint_finds_what_it_forbids():
    tree = ast.parse(
        "a = x < 1e-9\n_result('r', 1, w, 1e-12)\nb = y <= 1.0 + TRACE_TOL\n"
        "c = linalg.HERM_TOL > z\nd = DEFAULT_RANK_TOL * 2\n"
    )
    assert _bare_tolerances(tree) == [1]
    assert sorted(_shared_comparisons(tree)) == [3, 4]


def test_no_tolerance_literal_outside_linalg():
    assert _source_lines(_bare_tolerances, {"linalg.py"}) == {}


def test_shared_cutoffs_compared_only_in_linalg():
    # The postulate suites keep comparisons of their own: they are the
    # independent routes that the library is checked against.
    assert _source_lines(_shared_comparisons, {"linalg.py", "postulates.py"}) == {}
