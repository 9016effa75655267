"""Stacked draws, validation and discrimination give the bits of
per-object construction.

quantum._states validates a whole stack of matrices through the code that
QuantumState(m) runs on a stack of one; linalg._support_projectors and
theorems._discriminate likewise build the projectors and kernels of many
states at once, and so do the other stacked routes of quantum (_marginals,
_purifications, _purification_stack, _effects, _born_probabilities,
_pure_matrices, _ranks) and of theorems (_compress, _decoded, _channels,
_apply_channels, _local_falsifiers, _connecting_unitaries, _canonical_forms,
_reconstructions, _dilations, _branches, _falsifiers),
classical._embedded, linalg._norms and the builders of
random_ops (random_density_matrices, _densities, _unitaries, _kraus_families,
_contractions, _unit_vectors).  That a stacked LAPACK or
BLAS call returns the same bits as one call per matrix is a fact about the
platform and its BLAS, so these tests check it rather than assume it.
"""

import numpy as np
import pytest

from optfalsify import (
    ClassicalState,
    Effect,
    KrausChannel,
    QuantumState,
    apply_channel,
    born_probability,
    canonical_form,
    classical,
    compress,
    connecting_unitary,
    dilate,
    embed_classical,
    hermitian_eig,
    local_falsifier,
    perfectly_discriminable,
    postulates,
    purify,
    quantum,
    run_postulate_checks,
    support_projector,
    theorems,
)
from optfalsify.errors import (
    DimensionMismatchError,
    NotDeterministicError,
    NotTracePreservingError,
    OutOfRangeError,
)
from optfalsify.linalg import (
    DEFAULT_RANK_TOL,
    SPECTRUM_TOL,
    HermitianEig,
    _eig_core,
    _hermitian,
    _is_zero,
    _norms,
    _support_projectors,
    partial_trace,
    support_mask,
    tensor,
)
from optfalsify import random_ops
from optfalsify.random_ops import (
    random_complex_matrix,
    random_contraction,
    random_density_matrices,
    random_density_matrix,
    random_kraus_tp,
    random_unit_vector,
    random_unitary,
)


def _corpus(d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random states of every rank 1..d, plus states with repeated and zero
    eigenvalues, whose ties the stable sort keeps in LAPACK's order."""
    mats = [random_density_matrix(d, rng, rank=1 + k % d) for k in range(3 * d)]
    mats.append(np.eye(d, dtype=complex) / d)
    if d > 2:
        mats.append(np.diag([0.5] + [0.5 / (d - 2)] * (d - 2) + [0.0]))
    if d > 1:
        mats.append(np.diag([1.0] + [0.0] * (d - 1)))
    return mats


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_stack_sizes_give_per_object_bits(d):
    rng = np.random.default_rng(100 + d)
    mats = _corpus(d, rng)
    singles = [QuantumState(m) for m in mats]
    stack = np.stack(mats)
    # Leading slices hold random states only (no ties); trailing slices end
    # with the tied spectra.
    cases = [slice(None, size) for size in (1, 7)] + [slice(-7, None), slice(None)]
    for part in cases:
        for got, want in zip(quantum._states(stack[part]), singles[part]):
            assert np.array_equal(got.matrix, want.matrix)
            assert np.array_equal(got.spectrum.values, want.spectrum.values)
            assert np.array_equal(got.spectrum.vectors, want.spectrum.vectors)
            assert got.rank() == want.rank()


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_eig_core_stack_matches_hermitian_eig(d):
    # Not states: np.eye(d) itself and Hermitian matrices with negative
    # eigenvalues go through the same core.
    rng = np.random.default_rng(200 + d)
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    mats = list(g + g.conj().swapaxes(1, 2)) + [np.eye(d, dtype=complex)]
    values, vectors = _eig_core(_hermitian(np.stack(mats), "stack"))
    for k, m in enumerate(mats):
        eig = hermitian_eig(m)
        assert np.array_equal(values[k], eig.values)
        assert np.array_equal(vectors[k], eig.vectors)
    assert np.array_equal(vectors[-1], np.eye(d))


def _per_object(stack):
    return [QuantumState(m) for m in stack]


def _per_pair(rhos, nus):
    return [perfectly_discriminable(rho, nu) for rho, nu in zip(rhos, nus)]


# Each stacked route of quantum and theorems that the suites call, as one
# public call per case.
PER_CASE = {
    "_marginals": lambda purs: [p.marginal() for p in purs],
    "_compress": lambda rhos: [compress(rho) for rho in rhos],
    "_decoded": lambda comps: [c.decode() for c in comps],
    "_channels": lambda families: [KrausChannel(f) for f in families],
    "_apply_channels": lambda chs, rhos: [apply_channel(c, r) for c, r in zip(chs, rhos)],
    "_local_falsifiers": lambda ops, vecs: [local_falsifier(a, v) for a, v in zip(ops, vecs)],
    "_purifications": lambda rhos: [purify(rho) for rho in rhos],
    "_connecting_unitaries": lambda p1s, p2s: [connecting_unitary(a, b) for a, b in zip(p1s, p2s)],
    "_canonical_forms": lambda rs: [canonical_form(r) for r in rs],
    "_dilations": lambda chs: [dilate(c) for c in chs],
    "_embedded": lambda xs: [embed_classical(x) for x in xs],
    "_effects": lambda mats: [Effect(m) for m in mats],
    "_falsifiers": lambda kernels: [None if _is_zero(k) else Effect(k) for k in kernels],
    "_born_probabilities": lambda rhos, es: [born_probability(r, e) for r, e in zip(rhos, es)],
    "_purification_stack": lambda psi, a, b: [quantum.Purification(p, a, b) for p in psi],
    "_reconstructions": lambda cfs: [cf.reconstruction() for cf in cfs],
    "_branches": lambda dils, rhos: np.array(
        [[dil.branch(rho, k) for k in range(dil.dim_env)] for dil, rho in zip(dils, rhos)]
    ),
    "_pure_matrices": lambda vs: np.array([quantum._pure_matrices([v])[0] for v in vs]),
    "_ranks": lambda states: [s.rank() for s in states],
    "_support_projectors": lambda values, vectors: np.array(
        [support_projector(HermitianEig(w, v)) for w, v in zip(values, vectors)]
    ),
    "_norms": lambda v: np.array([np.linalg.norm(x) for x in v]),
}


@pytest.mark.parametrize("dims, seed", [((2, 3, 4), 1), (tuple(range(2, 9)), 3)])
def test_suites_match_per_object_validation(monkeypatch, dims, seed):
    stacked = run_postulate_checks(dims, seed=seed)
    monkeypatch.setattr(quantum, "_states", _per_object)
    monkeypatch.setattr(postulates, "_discriminate", _per_pair)
    for name, per_case in PER_CASE.items():
        monkeypatch.setattr(postulates, name, per_case)
    per_object = run_postulate_checks(dims, seed=seed)
    # repr of a float round-trips, so equal reprs mean equal bits.
    assert repr(stacked) == repr(per_object)


DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]


def _reference_projector(eig):
    """The support projector of one spectrum, product over the kept columns
    and symmetrized, as support_projector computed it per matrix."""
    cols = eig.vectors[:, support_mask(eig.values)]
    p = cols @ cols.conj().T
    return (p + p.conj().T) / 2.0


def _pairs(d, rng):
    """Pairs of the corpus states: each with itself, with its neighbour, and
    pairs with exactly orthogonal supports.  The corpus holds pure,
    full-rank (no falsifier) and tied spectra."""
    states = [QuantumState(m) for m in _corpus(d, rng)]
    pairs = list(zip(states, states)) + list(zip(states, states[1:] + states[:1]))
    if d > 1:
        for rank in range(1, d):
            (rho, nu), = postulates._orthogonal_pairs([rng.standard_normal((3, 2, d, d))], [rank])
            pairs.append((QuantumState(rho), QuantumState(nu)))
        e = np.eye(d, dtype=complex)
        pairs.append((QuantumState(np.diag(e[0])), QuantumState(np.diag(e[-1]))))
    return pairs


@pytest.mark.parametrize("d", DIMS)
def test_support_projector_stack_gives_per_object_bits(d):
    states = [QuantumState(m) for m in _corpus(d, np.random.default_rng(300 + d))]
    values = np.stack([s.spectrum.values for s in states])
    vectors = np.stack([s.spectrum.vectors for s in states])
    stacked = _support_projectors(values, vectors)
    for state, p in zip(states, stacked):
        assert np.array_equal(p, support_projector(state.spectrum))
        assert np.array_equal(p, _reference_projector(state.spectrum))


@pytest.mark.parametrize("d", DIMS)
def test_discriminate_gives_per_object_bits(d):
    pairs = _pairs(d, np.random.default_rng(400 + d))
    rhos, nus = [rho for rho, _ in pairs], [nu for _, nu in pairs]
    stacked = theorems._discriminate(rhos, nus)
    eye = np.eye(d, dtype=complex)
    seen = set()
    for (rho, nu), got in zip(pairs, stacked):
        want = perfectly_discriminable(rho, nu)
        p_rho = _reference_projector(rho.spectrum)
        p_nu = _reference_projector(nu.spectrum)
        assert got.overlap == want.overlap == float(np.abs(p_rho @ p_nu).max())
        assert got.discriminable == want.discriminable
        for p, f, g in ((p_rho, got.falsifier_rho, want.falsifier_rho),
                        (p_nu, got.falsifier_nu, want.falsifier_nu)):
            k = eye - p
            if np.abs(k).max() <= SPECTRUM_TOL:
                assert f is None and g is None
                seen.add("none")
                continue
            assert np.array_equal(f.matrix, g.matrix)
            assert np.array_equal(f.matrix, (k + k.conj().T) / 2.0)
            assert not f.matrix.flags.writeable
            seen.add("falsifier")
        seen.add(got.discriminable)
    # Full-rank states give no falsifier; pure ones do (none at d = 1).
    assert seen == ({"none", False} if d == 1 else {"none", "falsifier", True, False})


def _reference_bruteforce(m):
    """The SVD support projector of one matrix."""
    u, s, _ = np.linalg.svd(m)
    cols = u[:, s > DEFAULT_RANK_TOL * s[0]]
    return cols @ cols.conj().T


@pytest.mark.parametrize("d", DIMS)
def test_bruteforce_stack_gives_per_object_bits(d):
    pairs = _pairs(d, np.random.default_rng(600 + d))
    n = len(pairs)
    mats = [rho.matrix for rho, _ in pairs] + [nu.matrix for _, nu in pairs]
    stacked = postulates._support_bruteforce(np.stack(mats))
    for m, p in zip(mats, stacked):
        assert np.array_equal(p, _reference_bruteforce(m))
    # The suite's stacked trace Tr(P_rho P_nu), pair by pair.
    traces = np.trace(stacked[:n] @ stacked[n:], axis1=1, axis2=2).real
    for k, (rho, nu) in enumerate(pairs):
        want = np.trace(_reference_bruteforce(rho.matrix) @ _reference_bruteforce(nu.matrix))
        assert traces[k] == want.real


def _reference_density(dim, rank, rng):
    """random_density_matrix as it was drawn one case at a time."""
    g = random_complex_matrix(dim, rank, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_batched_draws_give_per_case_bits(d):
    # Every rank, repeated and out of order; a one-case list; no cases.
    ranks = [1 + (5 * k) % d for k in range(4 * d)] + [d, d, 1]
    for case in (ranks, [1 + d // 2], []):
        batched, single = np.random.default_rng(700 + d), np.random.default_rng(700 + d)
        got = random_density_matrices(d, case, batched)
        want = [_reference_density(d, r, single) for r in case]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        # The generator is where the per-case draws leave it.
        assert batched.standard_normal(3).tobytes() == single.standard_normal(3).tobytes()


def test_batched_draws_of_mixed_dims():
    dims = [2, 3, 4, 9, 2, 4, 3, 2]
    ranks = [1, 3, 2, 5, 2, 4, 1, 1]
    batched, single = np.random.default_rng(710), np.random.default_rng(710)
    got = random_density_matrices(dims, ranks, batched)
    for g, d, r in zip(got, dims, ranks):
        assert g.tobytes() == _reference_density(d, r, single).tobytes()
    assert batched.standard_normal() == single.standard_normal()


def _same_states(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.matrix.tobytes() == w.matrix.tobytes()
        assert g.spectrum.values.tobytes() == w.spectrum.values.tobytes()
        assert g.spectrum.vectors.tobytes() == w.spectrum.vectors.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_stacked_routes_give_per_object_bits(d):
    rng = np.random.default_rng(800 + d)
    # States of one rank below d, so they purify alike and compress.
    rank = max(1, d // 2)
    rhos = [QuantumState(random_density_matrix(d, rng, rank=rank)) for _ in range(9)]
    purs = [purify(rho) for rho in rhos]
    _same_states(quantum._marginals(purs), [p.marginal() for p in purs])
    # The reference routes of one state at a time, with the operand layouts
    # that dagger gives.
    for p, m in zip(purs, quantum._marginals(purs)):
        mat = p.state_vector.reshape(d, p.dim_b)
        assert m.matrix.tobytes() == QuantumState(mat @ mat.conj().T).matrix.tobytes()
    comps = theorems._compress(rhos)
    for rho, comp in zip(rhos, comps):
        one = compress(rho)
        v = rho.spectrum.vectors[:, :rank].conj().T
        assert comp.isometry.tobytes() == one.isometry.tobytes() == v.tobytes()
        _same_states([comp.state], [one.state])
        want = QuantumState(v @ rho.matrix @ v.conj().T)
        assert comp.state.matrix.tobytes() == want.matrix.tobytes()
    _same_states(theorems._decoded(comps), [c.decode() for c in comps])
    for comp, back in zip(comps, theorems._decoded(comps)):
        v = comp.isometry
        want = QuantumState(v.conj().T @ comp.state.matrix @ v)
        assert back.matrix.tobytes() == want.matrix.tobytes()
    ops = [random_contraction(d, rng) for _ in rhos]
    channels = theorems._channels([(a,) for a in ops])
    for channel, a in zip(channels, ops):
        assert channel.kraus[0].tobytes() == KrausChannel((a,)).kraus[0].tobytes()
        assert not channel.kraus[0].flags.writeable
    _same_states(
        theorems._apply_channels(channels, rhos),
        [apply_channel(c, rho) for c, rho in zip(channels, rhos)],
    )
    for a, rho, out in zip(ops, rhos, theorems._apply_channels(channels, rhos)):
        assert out.matrix.tobytes() == QuantumState(a @ rho.matrix @ a.conj().T).matrix.tobytes()
    a_ops = [random_complex_matrix(d, d, rng) for _ in range(9)]
    a_vecs = [random_unit_vector(d, rng) for _ in range(9)]
    for got, a_op, a_vec in zip(theorems._local_falsifiers(a_ops, a_vecs), a_ops, a_vecs):
        want = local_falsifier(a_op, a_vec)
        assert got.vector_b.tobytes() == want.vector_b.tobytes()
        assert got.effect.matrix.tobytes() == want.effect.matrix.tobytes()
        assert got.degenerate == want.degenerate
        assert not got.effect.matrix.flags.writeable


def test_stacked_effects_and_channels_fail_as_single_objects():
    # A failing stack raises the error of the failing object on its own.
    ok = np.eye(2, dtype=complex) / 2
    with pytest.raises(OutOfRangeError, match=r"^channel is not trace-nonincreasing: .* exceeds"):
        theorems._channels([(ok,), (2 * np.eye(2),), (ok,)])
    with pytest.raises(OutOfRangeError, match=r"^channel is not trace-nonincreasing: .* exceeds"):
        KrausChannel((2 * np.eye(2),))
    stack = np.stack([ok, ok, 2 * np.eye(2, dtype=complex)])
    with pytest.raises(OutOfRangeError, match=r"^effect has eigenvalue 2\.000e\+00 above one"):
        quantum._effects(stack)
    with pytest.raises(OutOfRangeError, match=r"^effect has eigenvalue 2\.000e\+00 above one"):
        Effect(2 * np.eye(2))


def _by_rank(states):
    """The states grouped by dimension and rank, as the stacked routes take them."""
    groups = {}
    for s in states:
        groups.setdefault((s.dim, s.rank()), []).append(s)
    return list(groups.values())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_purification_routes_give_per_object_bits(d):
    rng = np.random.default_rng(900 + d)
    for group in _by_rank([QuantumState(m) for m in _corpus(d, rng)]):
        p1s = quantum._purifications(group)
        for rho, got in zip(group, p1s):
            want = purify(rho)
            assert (got.dim_a, got.dim_b) == (want.dim_a, want.dim_b)
            assert got.state_vector.tobytes() == want.state_vector.tobytes()
        # Each purification moved by a random unitary on its environment,
        # and once unmoved, whose connecting unitary is exactly I.
        eye = np.eye(d, dtype=complex)
        p2s = [
            quantum.Purification(tensor(eye, random_unitary(p.dim_b, rng)) @ p.state_vector, d, p.dim_b)
            for p in p1s
        ] + p1s[:1]
        got = theorems._connecting_unitaries(p1s + p1s[:1], p2s)
        for u, p1, p2 in zip(got, p1s + p1s[:1], p2s):
            assert u.tobytes() == connecting_unitary(p1, p2).tobytes()
        assert np.array_equal(got[-1], np.eye(p1s[0].dim_b))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_canonical_forms_give_per_object_bits(d):
    # canonical_form takes a d x d bipartite space, so the corpus is drawn
    # at dimension d * d.
    for group in _by_rank([QuantumState(m) for m in _corpus(d * d, np.random.default_rng(910 + d))]):
        for r, got in zip(group, theorems._canonical_forms(group)):
            want = canonical_form(r)
            assert got.weights.tobytes() == want.weights.tobytes()
            assert len(got.operators) == len(want.operators)
            for a, b in zip(got.operators, want.operators):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dilations_give_per_object_bits(d):
    rng = np.random.default_rng(920 + d)
    for n_kraus in (1, 2, 3, 4):
        channels = [KrausChannel(tuple(random_kraus_tp(d, n_kraus, rng))) for _ in range(5)]
        for channel, got in zip(channels, theorems._dilations(channels)):
            want = dilate(channel)
            assert (got.dim_sys, got.dim_env) == (want.dim_sys, want.dim_env)
            assert got.unitary.tobytes() == want.unitary.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_effect_and_born_routes_give_per_object_bits(d):
    rng = np.random.default_rng(930 + d)
    states = [QuantumState(m) for m in _corpus(d, rng)]
    # The kernels of pure, mixed and full-rank states: zero or not.
    kernels = [res.kernel_rho for res in theorems._discriminate(states, states)]
    found = theorems._falsifiers(kernels)
    for kernel, got in zip(kernels, found):
        want = None if _is_zero(kernel) else Effect(kernel)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.matrix.tobytes() == want.matrix.tobytes()
    assert {f is None for f in found} == {True, False}
    mats = [np.eye(d) * w for w in (0.0, 0.5, 1.0)] + [m for m in _corpus(d, rng)]
    for m, got in zip(mats, quantum._effects(mats)):
        assert got.matrix.tobytes() == Effect(m).matrix.tobytes()
    effects = [f for f in found if f is not None] + quantum._effects(mats)
    rhos = [states[k % len(states)] for k in range(len(effects))]
    got = quantum._born_probabilities(rhos, effects)
    assert got == [born_probability(rho, e) for rho, e in zip(rhos, effects)]
    xs = [ClassicalState(np.diag(m).real) for m in _corpus(d, rng)]
    for x, got in zip(xs, classical._embedded(xs)):
        want = embed_classical(x)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.spectrum.vectors.tobytes() == want.spectrum.vectors.tobytes()


def test_failing_stacks_raise_the_single_objects_error():
    ok = QuantumState(np.eye(2) / 2)
    sub = QuantumState(np.eye(2) / 4)
    with pytest.raises(NotDeterministicError, match=r"^only trace-one states are purified$"):
        quantum._purifications([ok, sub, ok])
    with pytest.raises(NotDeterministicError, match=r"^only trace-one states are purified$"):
        purify(sub)
    # The kraus-norm fault: a trace-preserving family with its last
    # operator scaled by 0.95.
    rng = np.random.default_rng(940)
    kraus = random_kraus_tp(2, 2, rng)
    kraus[-1] *= 0.95
    faulty = KrausChannel(tuple(kraus))
    fine = KrausChannel(tuple(random_kraus_tp(2, 2, rng)))
    message = r"^dilation requires a trace-preserving channel$"
    with pytest.raises(NotTracePreservingError, match=message):
        theorems._dilations([fine, faulty, fine])
    with pytest.raises(NotTracePreservingError, match=message):
        dilate(faulty)


def test_norms_give_np_linalg_norm_bits():
    rng = np.random.default_rng(950)
    for m in (1, 2, 3, 4, 8, 9, 16, 17, 64):
        v = rng.standard_normal((12, m)) + 1j * rng.standard_normal((12, m))
        v[::4] *= 1e-160
        v[1::4] *= 1e150
        v[2] = 0.0
        for x, got in zip(v, _norms(v)):
            assert got == np.linalg.norm(x)
    with np.errstate(over="ignore"):
        assert _norms(np.full((1, 2), 1e200 + 0j))[0] == np.inf == np.linalg.norm([1e200, 1e200])


def _old_local_falsifier(a_op, a):
    """local_falsifier's vector b and effect matrix as one case computed
    them, for an operator whose norm is in range."""
    unit = a / np.linalg.norm(a)
    c = np.conj(a_op.conj().T @ unit)
    b = np.zeros(len(a), dtype=complex)
    if np.linalg.norm(c) <= DEFAULT_RANK_TOL * np.linalg.norm(a_op):
        b[0] = 1.0
        return b, tensor(np.outer(unit, unit.conj()), np.outer(b, b.conj()))
    j = int(np.argmin(np.abs(c)))
    b[j] = 1.0
    b = b - c * (np.conj(c[j]) / float(np.vdot(c, c).real))
    b = b / np.linalg.norm(b)
    return b, tensor(np.outer(unit, unit.conj()), np.outer(b, b.conj()))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_local_falsifier_stack_mixes_every_branch(d):
    # Ordinary rows, rows scaled to 1e-160 and 1e150 (whose squared norms
    # underflow or overflow, so the row is rescaled), degenerate rows
    # (A^dag a = 0) and a degenerate row at a tiny scale, in one stack.
    rng = np.random.default_rng(960 + d)
    ops, vecs = [], []
    for k in range(12):
        a_op = random_complex_matrix(d, d, rng)
        a = random_unit_vector(d, rng)
        if k % 4 == 1:
            a_op = a_op * (1e-160 if k % 8 == 1 else 1e150)
        if k % 4 == 2:
            perp = random_unit_vector(d, rng)
            perp = perp - a * np.vdot(a, perp)
            row = random_complex_matrix(1, d, rng)[0]
            a_op = np.outer(perp, row) * (1e-160 if k == 10 else 1.0)
        ops.append(a_op)
        vecs.append(a)
    stacked = theorems._local_falsifiers(ops, vecs)
    assert {lf.degenerate for lf in stacked} == {True, False}
    for k, (got, a_op, a) in enumerate(zip(stacked, ops, vecs)):
        want = local_falsifier(a_op, a)
        assert got.degenerate == want.degenerate == (k % 4 == 2)
        if got.degenerate:
            assert np.array_equal(got.vector_b, np.eye(d)[0])
        assert got.vector_b.tobytes() == want.vector_b.tobytes()
        assert got.effect.matrix.tobytes() == want.effect.matrix.tobytes()
        if k % 4 == 0:
            b, effect = _old_local_falsifier(a_op, a)
            assert got.vector_b.tobytes() == b.tobytes()
            assert got.effect.matrix.tobytes() == Effect(effect).matrix.tobytes()


def test_failing_local_falsifier_stack_raises_the_single_cases_error():
    ok_op, ok_vec = np.eye(2), np.array([1.0, 0.0])
    cases = [
        (np.zeros((2, 2)), ok_vec, OutOfRangeError, r"^local_falsifier: operator must be nonzero$"),
        (np.eye(2), [1.0, 1.0], OutOfRangeError, r"^local_falsifier: vector a must have unit"),
        (np.eye(2), [1.0, 0.0, 0.0], DimensionMismatchError,
         r"^vector length 3 does not match operator dim 2$"),
    ]
    for a_op, a_vec, error, message in cases:
        with pytest.raises(error, match=message):
            local_falsifier(a_op, a_vec)
        with pytest.raises(error, match=message):
            if len(a_vec) == 2:
                theorems._local_falsifiers([ok_op, a_op, ok_op], [ok_vec, a_vec, ok_vec])
            else:
                theorems._local_falsifiers([ok_op, a_op], [a_vec, a_vec])
    message = r"^local falsifier needs local dimension >= 2$"
    with pytest.raises(DimensionMismatchError, match=message):
        local_falsifier(np.eye(1), [1.0])
    with pytest.raises(DimensionMismatchError, match=message):
        theorems._local_falsifiers([np.eye(1), 2 * np.eye(1)], [[1.0], [1.0]])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_state_routes_give_per_object_bits(d):
    rng = np.random.default_rng(970 + d)
    vecs = [random_unit_vector(d, rng) * s for s in (1.0, 3.0, 1e-5, 1e5, 1.0)]
    for v, m in zip(vecs, quantum._pure_matrices(vecs)):
        unit = v / np.linalg.norm(v)
        assert m.tobytes() == np.outer(unit, unit.conj()).tobytes()
        assert m.tobytes() == quantum._pure_matrices([v])[0].tobytes()
        assert QuantumState.pure(v).matrix.tobytes() == QuantumState(m).matrix.tobytes()
    states = [QuantumState(m) for m in _corpus(d, rng)]
    assert quantum._ranks(states) == [s.rank() for s in states]
    masks = [support_mask(s.spectrum.values) for s in states]
    assert quantum._ranks(states) == [int(np.count_nonzero(m)) for m in masks]
    z = rng.standard_normal((6, 2, d))
    for row, got in zip(z, random_ops._unit_vectors(z)):
        v = row[0] + 1j * row[1]
        assert got.tobytes() == (v / np.linalg.norm(v)).tobytes()
    for group in _by_rank(states):
        purs = quantum._purifications(group)
        psi = np.array([p.state_vector for p in purs])
        for p, got in zip(purs, quantum._purification_stack(psi.copy(), d, purs[0].dim_b)):
            want = quantum.Purification(p.state_vector, d, p.dim_b)
            assert got.state_vector.tobytes() == want.state_vector.tobytes()
            assert (got.dim_a, got.dim_b) == (d, p.dim_b)
            assert not got.state_vector.flags.writeable
    with pytest.raises(OutOfRangeError, match=r"^purification vector must have unit norm$"):
        quantum._purification_stack(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex), 2, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_reconstructions_give_per_object_bits(d):
    rng = np.random.default_rng(980 + d)
    for group in _by_rank([QuantumState(m) for m in _corpus(d * d, rng)]):
        cfs = theorems._canonical_forms(group)
        for cf, got in zip(cfs, theorems._reconstructions(cfs)):
            want = np.zeros((d * d, d * d), dtype=complex)
            for a in cf.operators:
                want += np.outer(a.reshape(-1), a.reshape(-1).conj())
            assert got.tobytes() == want.tobytes() == cf.reconstruction().tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_branches_give_the_circuits_values(d):
    # The dilation circuit computed as it is written: the joint state
    # rho (x) |0><0|, evolved by U, times I (x) |k><k|, with the environment
    # traced out.  The 0/1 factors and the trace add only exact zeros, so
    # every entry equals the slice the stacked route reads.
    rng = np.random.default_rng(990 + d)
    for n_kraus in (1, 2, 3):
        channels = [KrausChannel(tuple(random_kraus_tp(d, n_kraus, rng))) for _ in range(4)]
        dils = theorems._dilations(channels)
        rhos = [QuantumState(random_density_matrix(d, rng, rank=1 + k % d)) for k in range(4)]
        stacked = theorems._branches(dils, rhos)
        n_env = dils[0].dim_env
        env = np.eye(n_env, dtype=complex)
        for dil, rho, got in zip(dils, rhos, stacked):
            joint = tensor(rho.matrix, np.outer(env[0], env[0]))
            evolved = dil.unitary @ joint @ dil.unitary.conj().T
            for k in range(n_env):
                picked = evolved @ tensor(np.eye(d), np.outer(env[k], env[k]))
                assert np.array_equal(got[k], partial_trace(picked, d, n_env))
                assert got[k].tobytes() == dil.branch(rho, k).tobytes()

