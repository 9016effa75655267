"""Exact-rational oracle for the soundness of the falsification rate.

Declared generators here have Gaussian-rational amplitudes: rational
magnitudes whose squares are the outcome weights, times phases from
Pythagorean triples.  For any rational density matrix rho, the rate
Tr(rho F) of the falsifier F = I - psi psi^dag is then an exact rational
number, computed below with fractions.Fraction and no optfalsify code.  The
library's float rate is checked against it.
"""

from fractions import Fraction

import numpy as np
import pytest

from optfalsify import (
    DEFAULT_RANK_TOL,
    QuantumState,
    born_probability,
    coin_falsification_test,
    falsification_probability,
    falsify_campaign,
    local_falsifier,
    make_nary,
    mat_to_doubleket,
    perfectly_discriminable,
)

# e^{i phi} as exact (re, im) pairs: 1 and three Pythagorean phases.
PHASES = {
    "1": (Fraction(1), Fraction(0)),
    "3+4i": (Fraction(3, 5), Fraction(4, 5)),
    "5+12i": (Fraction(5, 13), Fraction(12, 13)),
    "7+24i": (Fraction(7, 25), Fraction(24, 25)),
}
THIRDS = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
FIFTHS = (Fraction(3, 5), Fraction(4, 5))
# (amplitude magnitudes, phase names) of each declared generator.
GENERATORS = [
    (FIFTHS, ("1", "3+4i")),
    (FIFTHS[::-1], ("5+12i", "7+24i")),
    (THIRDS, ("1", "1", "1")),
    (THIRDS, ("1", "5+12i", "7+24i")),
    (THIRDS[::-1], ("3+4i", "7+24i", "1")),
]
# Rounding of a rate Tr(rho F) with F <= I and tr rho = 1 is on the scale of
# one, so the float rate is held to a few ulps of one.
ULPS = 4 * np.finfo(float).eps


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _conj(a):
    return (a[0], -a[1])


def _amplitudes(mags, phases):
    return [_mul((m, Fraction(0)), PHASES[p]) for m, p in zip(mags, phases)]


def _declared(mags, phases):
    """The float generator: weights m^2 and the phases' angles."""
    angles = [np.arctan2(float(PHASES[p][1]), float(PHASES[p][0])) for p in phases]
    return make_nary([float(m * m) for m in mags], angles)


def _mixture(weights, vectors):
    """sum_k w_k |v_k><v_k| with exact entries."""
    d = len(vectors[0])
    rho = [[(Fraction(0), Fraction(0))] * d for _ in range(d)]
    for w, v in zip(weights, vectors):
        for i in range(d):
            for j in range(d):
                t = _mul(v[i], _conj(v[j]))
                rho[i][j] = (rho[i][j][0] + w * t[0], rho[i][j][1] + w * t[1])
    return rho


def _exact_rate(amps, rho):
    """Tr(rho (I - psi psi^dag)) = tr rho - psi^dag rho psi, for unit psi."""
    d = len(amps)
    quad = (Fraction(0), Fraction(0))
    for i in range(d):
        for j in range(d):
            t = _mul(_mul(_conj(amps[i]), rho[i][j]), amps[j])
            quad = (quad[0] + t[0], quad[1] + t[1])
    assert quad[1] == 0
    return sum(rho[i][i][0] for i in range(d)) - quad[0]


def _state(rho):
    return QuantumState(
        np.array([[complex(float(re), float(im)) for re, im in row] for row in rho])
    )


def _recount(seed, n_trials, rate):
    """Trials whose keyed uniform falls below rate, by numpy alone."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return int(np.count_nonzero(gen.random(n_trials) < rate))


@pytest.mark.parametrize("mags, phases", GENERATORS)
def test_honest_source_rate_is_exactly_zero(mags, phases):
    amps = _amplitudes(mags, phases)
    declared = _declared(mags, phases)
    test = coin_falsification_test(declared)
    rho = _mixture([Fraction(1)], [amps])
    assert _exact_rate(amps, rho) == 0
    # The declared state as the generator builds it, and the exact matrix
    # rounded entry by entry: both leave rounding residue in Tr(rho F)
    # (up to ~2e-16 for the three-outcome generators), which the
    # DEFAULT_RANK_TOL snap turns into exactly 0.0.
    for state in (declared.state(), _state(rho)):
        assert falsification_probability(test, state) == 0.0
        report = falsify_campaign(declared, state, 1_000_000, 2024)
        assert (report.n_falsified, report.verdict) == (0, "NOT_FALSIFIED")


def _dishonest(amps, mags):
    """Rational states other than the declared pure state amps: pure states
    with its magnitudes rotated and other phases, a mixture of two of them,
    and the maximally mixed state."""
    d = len(mags)
    names = list(PHASES)
    rotated = (
        _amplitudes(mags[s % d :] + mags[: s % d], [names[(i + s) % 4] for i in range(d)])
        for s in range(1, 5)
    )
    others = [v for v in rotated if v != amps][:3]
    eye = [[(Fraction(int(i == j), d), Fraction(0)) for j in range(d)] for i in range(d)]
    return [_mixture([Fraction(1)], [v]) for v in others] + [
        _mixture([Fraction(1, 4), Fraction(3, 4)], others[:2]),
        eye,
    ]


@pytest.mark.parametrize("mags, phases", GENERATORS)
def test_dishonest_rate_matches_exact_rate(mags, phases):
    amps = _amplitudes(mags, phases)
    declared = _declared(mags, phases)
    test = coin_falsification_test(declared)
    n_trials, seed = 200_000, 7
    for rho in _dishonest(amps, mags):
        exact = _exact_rate(amps, rho)
        assert exact > 0
        state = _state(rho)
        rate = falsification_probability(test, state)
        assert abs(Fraction(rate) - exact) <= ULPS
        assert (rate > 0.0) == (exact > DEFAULT_RANK_TOL)
        report = falsify_campaign(declared, state, n_trials, seed)
        assert report.theoretical_rate == rate
        assert report.n_falsified == _recount(seed, n_trials, rate)
        assert report.n_falsified == _recount(seed, n_trials, float(exact))


def test_rate_at_or_below_rank_tol_is_reported_as_zero():
    # The documented completeness gap: the snap that makes honest rates
    # exactly 0.0 also reports a dishonest source whose exact rate lies in
    # (0, DEFAULT_RANK_TOL] at 0.0, so no campaign can catch it.
    a0, a1 = _amplitudes(FIFTHS, ("1", "3+4i"))
    orthogonal = [(-a1[0], a1[1]), (a0[0], -a0[1])]  # (-conj(a1), conj(a0))
    leak = Fraction(5, 10**11)
    rho = _mixture([1 - leak, leak], [[a0, a1], orthogonal])
    assert _exact_rate([a0, a1], rho) == leak
    declared = _declared(FIFTHS, ("1", "3+4i"))
    assert falsification_probability(coin_falsification_test(declared), _state(rho)) == 0.0
    report = falsify_campaign(declared, _state(rho), 1_000_000, 2024)
    assert (report.theoretical_rate, report.verdict) == (0.0, "NOT_FALSIFIED")


# The route extends to the two structure theorems that build falsifiers:
# local_falsifier and perfectly_discriminable.  Operators and states below
# have Gaussian-rational entries, so the amplitude and overlaps the theorems
# rest on are exact rationals.


def _q(re, im=0):
    return (Fraction(re), Fraction(im))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _floats(m):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in m])


def _vector(v):
    return _floats([v])[0]


# (operator A, unit vector a) on a d x d bipartite space.
A_FIFTHS = _amplitudes(FIFTHS, ("1", "3+4i"))
A_PERP = [_mul(_q(-1), _conj(A_FIFTHS[1])), _conj(A_FIFTHS[0])]  # orthogonal to it
LOCAL_CASES = {
    "d2": (
        [[_q(1), _q(2, 1)], [_q(-3), _q(Fraction(1, 2), -1)]],
        A_FIFTHS,
    ),
    "d3": (
        [
            [_q(1), _q(0), _q(2)],
            [_q(Fraction(1, 3), 1), _q(-1), _q(0)],
            [_q(2), _q(Fraction(1, 2)), _q(0, -1)],
        ],
        _amplitudes(THIRDS, ("1", "5+12i", "7+24i")),
    ),
    # A = a_perp x^T with a_perp orthogonal to a, so A^dag a = 0 exactly and
    # every b is a falsifier: the degenerate fallback.
    "d2-degenerate": (
        [[_mul(p, x) for x in (_q(1), _q(2, -1))] for p in A_PERP],
        A_FIFTHS,
    ),
}


@pytest.mark.parametrize("case", LOCAL_CASES)
def test_local_falsifier_amplitude_is_exactly_zero(case):
    a_op, a = LOCAL_CASES[case]
    d = len(a)
    # c = (A^dag a)*, whose complement b is drawn from, and the library's
    # unnormalized b = e_j - c conj(c_j) / |c|^2 for the smallest |c_j|.
    c = []
    for k in range(d):
        ck = _q(0)
        for i in range(d):
            ck = _add(ck, _mul(a_op[i][k], _conj(a[i])))
        c.append(ck)
    norm2 = sum(_abs2(ck) for ck in c)
    if norm2 == 0:
        b = [_q(int(k == 0)) for k in range(d)]
    else:
        sizes = [_abs2(ck) for ck in c]
        j = sizes.index(min(sizes))
        assert sizes.count(min(sizes)) == 1
        scale = _conj(c[j])
        b = [
            _add(_q(int(k == j)), _mul(c[k], (-scale[0] / norm2, -scale[1] / norm2)))
            for k in range(d)
        ]
    amplitude = _q(0)
    for i in range(d):
        for k in range(d):
            amplitude = _add(amplitude, _mul(_mul(_conj(a[i]), _conj(b[k])), a_op[i][k]))
    assert amplitude == _q(0)
    lf = local_falsifier(_floats(a_op), _vector(a))
    assert lf.degenerate == (norm2 == 0) == case.endswith("degenerate")
    want = _vector(b) / np.linalg.norm(_vector(b))
    assert np.abs(lf.vector_b - want).max() <= ULPS
    doubleket = QuantumState.pure(mat_to_doubleket(_floats(a_op)))
    assert born_probability(doubleket, lf.effect) <= ULPS


def _trace_product(rho, nu):
    """Tr(rho nu) with exact entries."""
    d = len(rho)
    total = _q(0)
    for i in range(d):
        for j in range(d):
            total = _add(total, _mul(rho[i][j], nu[j][i]))
    assert total[1] == 0
    return total[0]


def _phased_basis(rows, phases):
    """The rational orthonormal rows, each entry k times the phase phases[k]."""
    return [
        [_mul(_q(x), PHASES[p]) for x, p in zip(row, phases)] for row in rows
    ]


BASES = {
    2: _phased_basis(
        [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]],
        ("1", "7+24i"),
    ),
    3: _phased_basis(
        [[Fraction(x, 3) for x in row] for row in ([1, 2, 2], [2, 1, -2], [2, -2, 1])],
        ("3+4i", "1", "5+12i"),
    ),
    4: _phased_basis(
        [
            [Fraction(x, 2) for x in row]
            for row in ([1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1])
        ],
        ("1", "5+12i", "3+4i", "7+24i"),
    ),
}
# (dimension, (weight, basis row) terms of rho, the same for nu).
PAIRS = [
    (2, [(1, 0)], [(1, 1)]),
    (3, [(1, 0)], [(Fraction(1, 3), 1), (Fraction(2, 3), 2)]),
    (3, [(Fraction(1, 4), 0), (Fraction(3, 4), 2)], [(1, 1)]),
    (4, [(Fraction(2, 5), 0), (Fraction(3, 5), 3)], [(Fraction(1, 2), 1), (Fraction(1, 2), 2)]),
    (4, [(1, 1)], [(Fraction(1, 7), 0), (Fraction(2, 7), 2), (Fraction(4, 7), 3)]),
    # Supports that overlap: never discriminable.
    (3, [(1, 0)], [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]),
    (4, [(Fraction(1, 2), 0), (Fraction(1, 2), 1)], [(Fraction(1, 3), 1), (Fraction(2, 3), 3)]),
]


def _pair_state(d, terms):
    return _mixture([Fraction(w) for w, _ in terms], [BASES[d][k] for _, k in terms])


@pytest.mark.parametrize("d, rho_terms, nu_terms", PAIRS)
def test_discrimination_matches_exact_orthogonality(d, rho_terms, nu_terms):
    rho, nu = _pair_state(d, rho_terms), _pair_state(d, nu_terms)
    orthogonal = _trace_product(rho, nu) == 0
    assert orthogonal == (not {k for _, k in rho_terms} & {k for _, k in nu_terms})
    rho_f, nu_f = _state(rho), _state(nu)
    res = perfectly_discriminable(rho_f, nu_f)
    assert res.discriminable == orthogonal
    if orthogonal:
        # Each falsifier captures the other state with certainty and never
        # fires on its own.
        assert abs(born_probability(nu_f, res.falsifier_rho) - 1.0) <= ULPS
        assert abs(born_probability(rho_f, res.falsifier_nu) - 1.0) <= ULPS
        assert born_probability(rho_f, res.falsifier_rho) <= ULPS
        assert born_probability(nu_f, res.falsifier_nu) <= ULPS
