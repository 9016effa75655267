"""Dual-route property suites for the structural theorems.

Each check exercises a library construction against an independent route
(a brute-force formula, a closed form, or an exact integer fact) over
seeded random instances, and reports the worst deviation seen against the
tolerance it must stay under.  The CLI surfaces these as check-postulates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import quantum, random_ops
from .classical import ClassicalState, _embedded, classical_falsifier_exists
from .errors import OptFalsifyError, OutOfRangeError
from .linalg import (
    _ORTHOGONALITY_TOL,
    BAD_SEED,
    DEFAULT_RANK_TOL,
    _check_int,
    _is_zero,
    _kron,
    _negligible,
    _norms,
    _read_dims,
    _support_projectors,
)
from .quantum import (
    KrausChannel,
    QuantumState,
    _apply_channels,
    _born_probabilities,
    _branches,
    _canonical_forms,
    _channels,
    _compress,
    _connecting_unitaries,
    _decoded,
    _dilations,
    _discriminate,
    _effects,
    _falsifiers,
    _local_falsifiers,
    _marginals,
    _pure_matrices,
    _purification_stack,
    _purifications,
    _ranks,
    _reconstructions,
    apply_channel,
    dilate,
)

# The faults the suite can inject on request (run_postulate_checks).
KNOWN_FAULTS = ("kraus-norm",)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    worst: float
    bound: float
    passed: bool
    note: str = ""


def _result(
    name: str, cases: int, worst: float, bound: float, note: str = ""
) -> PropertyResult:
    worst = float(worst)
    return PropertyResult(name, cases, worst, float(bound), worst <= bound, note)


def _sub_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _grouped(stacked, keys: list, *columns: list) -> list:
    """stacked(*columns) on the cases of one key at a time, its results in
    case order: a route that takes cases of one shape, run on several."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    out = [None] * len(keys)
    for ks in groups.values():
        for k, result in zip(ks, stacked(*([col[k] for k in ks] for col in columns))):
            out[k] = result
    return out


def _validated(mats: list) -> list[QuantumState]:
    """The state of each drawn matrix, in draw order.  All cases are drawn
    first, then those of each dimension validated as one stack."""
    return _grouped(quantum._states, [m.shape for m in mats], mats)


def _by_rank(route, rhos: list) -> list:
    """route on the states of each dimension and rank as one stack."""
    dims = [rho.dim for rho in rhos]
    return _grouped(route, list(zip(dims, _grouped(_ranks, dims, rhos))), rhos)


def _entry_gaps(xs: list, ys: list) -> np.ndarray:
    """max|x.matrix - y.matrix| for each pair, all of one dimension."""
    x, y = (np.array([m.matrix for m in ms]) for ms in (xs, ys))
    return np.abs(x - y).max(axis=(1, 2))


def check_doubleket_identity(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """No rule, the numerical floor: (A (x) B)|C>> = |A C B^T>> for random triples."""
    n_cases = 100
    shapes = [(dims[i % len(dims)], dims[(i // len(dims)) % len(dims)]) for i in range(n_cases)]
    draws = [
        [rng.standard_normal((2, r, c)) for r, c in ((m, m), (n, n), (m, n))]
        for m, n in shapes
    ]
    gaps = _grouped(_doubleket_gaps, shapes, *zip(*draws))
    return _result("doubleket-identity", n_cases, np.max(gaps), 1e-12)


def _doubleket_gaps(*draws: list) -> list[float]:
    """|(A (x) B)|C>> - |A C B^T>>| for each drawn triple of one shape."""
    a, b, c = (random_ops._ginibre(z) for z in draws)
    lhs = _kron(a, b) @ c.reshape(len(c), -1, 1)
    rhs = (a @ c @ b.swapaxes(1, 2)).reshape(len(c), -1, 1)
    return list(_norms((lhs - rhs)[..., 0]))


def check_purification_recovery(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """Purification: tracing out the environment of purify(rho) returns
    rho, with the environment exactly as large as the rank."""
    devs, note = [], ""
    for d in dims:
        ranks = [1 + i % d for i in range(50)]
        rhos = _validated(random_ops.random_density_matrices(d, ranks, rng))
        purs = _by_rank(_purifications, rhos)
        devs.append(_entry_gaps(_grouped(_marginals, [p.dim_b for p in purs], purs), rhos))
        bad = [(p.dim_b, rank) for p, rank in zip(purs, ranks) if p.dim_b != rank]
        if bad:
            devs.append([np.inf])
            note = "environment dim {} != rank {} at dim {}".format(*bad[-1], d)
    worst = np.max(np.concatenate(devs))
    return _result("purification-recovery", 50 * len(dims), worst, 1e-9, note)


def _env_moved(us, purs: list) -> np.ndarray:
    """(I (x) U) psi for each unitary U on the environment of a purification
    psi, all of one shape."""
    eye = np.eye(purs[0].dim_a, dtype=complex)
    psi = np.array([p.state_vector for p in purs])[..., None]
    return (_kron(eye, np.array(us)) @ psi)[..., 0]


def _uniqueness_gaps(zv: list, p1s: list) -> list[tuple]:
    """Per purification psi1 of one shape, moved to psi2 = (I (x) V) psi1 by
    the unitary V of normals zv: |(I (x) U) psi1 - psi2| and max|U^dag U - I|
    for U = connecting_unitary."""
    psi2 = _env_moved(random_ops._unitaries(np.array(zv)), p1s)
    us = _connecting_unitaries(p1s, _purification_stack(psi2, p1s[0].dim_a, p1s[0].dim_b))
    u = np.array(us)
    gaps = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[1])).max(axis=(1, 2))
    return list(zip(_norms(_env_moved(u, p1s) - psi2), gaps))


def check_purification_uniqueness(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Purification, uniqueness: purifications of the same state with equal
    environments are linked by a unitary on the environment alone."""
    n_cases = 50
    note = ""
    cases = [(d, 1 + i % d) for i, d in zip(range(n_cases), itertools.cycle(dims))]
    draws = [(rng.standard_normal((2, d, r)), rng.standard_normal((2, r, r))) for d, r in cases]
    zr, zv = zip(*draws)
    rhos = _validated(_grouped(random_ops._densities, cases, zr))
    p1s = _by_rank(_purifications, rhos)
    # The environment of purify(rho) is as large as the drawn rank
    # (purification-recovery checks this).
    bad = [(p.dim_b, r, d) for p, (d, r) in zip(p1s, cases) if p.dim_b != r]
    if bad:
        note = "environment dim {} != rank {} at dim {}".format(*bad[-1])
        recon = unitarity = [np.inf]
    else:
        recon, unitarity = zip(*_grouped(_uniqueness_gaps, cases, zv, p1s))
    return [
        _result("purification-uniqueness-reconstruction", n_cases, np.max(recon), 1e-8, note),
        _result("purification-uniqueness-unitarity", n_cases, np.max(unitarity), 1e-9, note),
    ]


def _support_bruteforce(m: np.ndarray) -> np.ndarray:
    """Support projectors of an (n, d, d) stack of PSD matrices by an
    independent route for cross-checking the library projectors: an SVD,
    not the eigendecomposition the library uses.  For a PSD matrix the
    singular values are the eigenvalues, so the cutoff is the same.  They
    come out descending, so each support is a column prefix of u; rows of
    equal rank share one product over it."""
    u, s, _ = np.linalg.svd(m)
    ranks = (s > DEFAULT_RANK_TOL * s[:, :1]).sum(axis=1)
    p = np.empty_like(u)
    for r in set(ranks.tolist()):
        rows = ranks == r
        cols = u[rows, :, :r]
        p[rows] = cols @ cols.conj().swapaxes(1, 2)
    return p


def _orthogonal_pairs(draws: list, ranks: list) -> list[np.ndarray]:
    """For the normals of each case, shaped (3, 2, d, d), two trace-one
    matrices: supported on the first `rank` columns of a random unitary,
    and on their orthogonal complement.  The cases share d and rank."""
    z = np.asarray(draws)
    cols = random_ops._unitaries(z[:, 0])[:, :, : ranks[0]]
    p = cols @ cols.conj().swapaxes(1, 2)
    pq = np.stack([p, np.eye(p.shape[1]) - p], axis=1)
    g = random_ops._ginibre(z[:, 1:])
    m = pq @ g @ g.conj().swapaxes(2, 3) @ pq
    return list(m / np.trace(m, axis1=2, axis2=3).real[..., None, None])


def check_discrimination(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """Perfect discriminability: perfectly_discriminable agrees with the
    brute-force criterion Tr(P_rho P_nu) <= _ORTHOGONALITY_TOL on random
    pairs and on pairs built with orthogonal supports.  The pairs of each
    dimension are decided as one stack."""
    disagreements = 0
    cases = 0
    note = ""
    for d in dims:
        ranks = [1 + j % d for i in range(200) for j in (i, i // 2)]
        states = _validated(random_ops.random_density_matrices(d, ranks, rng))
        rhos, nus = states[::2], states[1::2]
        n = len(rhos)
        p = _support_bruteforce(np.array([s.matrix for s in rhos + nus]))
        overlaps = np.trace(p[:n] @ p[n:], axis1=1, axis2=2).real
        for res, overlap in zip(_discriminate(rhos, nus), overlaps.tolist()):
            cases += 1
            if res.discriminable != (abs(overlap) <= _ORTHOGONALITY_TOL):
                disagreements += 1
                note = f"random pair disagreement at dim {d}"
    d = max(dims)
    ranks = [1 + i % (d - 1) for i in range(50)]
    draws = [rng.standard_normal((3, 2, d, d)) for _ in ranks]
    pairs = _grouped(_orthogonal_pairs, ranks, draws, ranks)
    states = _validated([m for pair in pairs for m in pair])
    rhos, nus = states[::2], states[1::2]
    # The rho-falsifier, built on each discriminable read, must capture nu
    # with certainty, to within the orthogonality cut.
    results = _discriminate(rhos, nus)
    read = [k for k, res in enumerate(results) if res.discriminable]
    found = _falsifiers([results[k].kernel_rho for k in read])
    held = [(nus[k], f) for k, f in zip(read, found) if f is not None]
    born = _grouped(_born_probabilities, [nu.dim for nu, _ in held], *zip(*held))
    misses = len(results) - len(read) + sum(not abs(b - 1.0) <= _ORTHOGONALITY_TOL for b in born)
    if misses:
        note = "constructed orthogonal pair not discriminated"
    cases += len(results)
    return _result("orthogonal-support-discrimination", cases, disagreements + misses, 0.0, note)


def check_local_falsifier(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """Local discriminability: the product falsifier a (x) b never fires
    on the bipartite pure state |A>>."""
    n_cases = 100
    ds = [d for _, d in zip(range(n_cases), itertools.cycle(dims))]
    # Each case draws random_complex_matrix(d, d), then random_unit_vector(d).
    sizes = [2 * d * (d + 1) for d in ds]
    z = np.split(rng.standard_normal(sum(sizes)), np.cumsum(sizes)[:-1])
    born, degenerate = zip(*_grouped(_falsifier_borns, ds, ds, z))
    hits = sum(degenerate)
    note = f"{hits} degenerate directions" if hits else ""
    return _result("local-falsifier-born-zero", n_cases, np.max(born), 1e-10, note)


def _falsifier_borns(ds: list, zs: list) -> list[tuple]:
    """Per case of one d, drawn A and a: the Born probability of
    local_falsifier(A, a) on QuantumState.pure(mat_to_doubleket(A)), and
    whether it degenerated."""
    z, n, d = np.array(zs), len(zs), ds[0]
    ops = random_ops._ginibre(z[:, : 2 * d * d].reshape(n, 2, d, d))
    found = _local_falsifiers(ops, random_ops._unit_vectors(z[:, 2 * d * d :].reshape(n, 2, d)))
    psis = quantum._states(_pure_matrices(ops.reshape(n, -1)))
    born = _born_probabilities(psis, [lf.effect for lf in found])
    return list(zip(born, [lf.degenerate for lf in found]))


def _canonical_gaps(cfs: list, rs: list) -> list[tuple]:
    """Per canonical form of a state r, all of one shape: max|reconstruction
    - r|, and max|Tr(A_i^dag A_j) - diag(weights)| from one stacked gram."""
    recon = np.abs(_reconstructions(cfs) - np.array([r.matrix for r in rs])).max(axis=(1, 2))
    ops = np.array([cf.operators for cf in cfs])
    gram = np.trace(ops.conj().swapaxes(2, 3)[:, :, None] @ ops[:, None], axis1=3, axis2=4)
    gap = gram - np.array([np.diag(cf.weights) for cf in cfs])
    # hypot, as Python's abs(complex): numpy's complex abs can differ in the last bit.
    return list(zip(recon, np.hypot(gap.real, gap.imag).max(axis=(1, 2))))


def check_canonical_form(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Purification, canonical form: the double-ket decomposition rebuilds
    the state and its operators are trace-orthogonal with the stated weights."""
    n_cases = 50
    sizes = [d * d for _, d in zip(range(n_cases), itertools.cycle(dims))]
    ranks = [1 + i % n for i, n in enumerate(sizes)]
    rs = _validated(random_ops.random_density_matrices(sizes, ranks, rng))
    cfs = _by_rank(_canonical_forms, rs)
    keys = [(r.dim, len(cf.weights)) for r, cf in zip(rs, cfs)]
    recon, orth = zip(*_grouped(_canonical_gaps, keys, cfs, rs))
    return [
        _result("canonical-form-reconstruction", n_cases, np.max(recon), 1e-9),
        _result("canonical-form-orthogonality", n_cases, np.max(orth), 1e-9),
    ]


def _isometry_gaps(comps: list) -> np.ndarray:
    """max|V V^dag - I| per isometry V of comps, of one shape."""
    v = np.array([c.isometry for c in comps])
    return np.abs(v @ v.conj().swapaxes(1, 2) - np.eye(v.shape[1])).max(axis=(1, 2))


def check_compression(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Ideal compression: rank-deficient states restrict losslessly to their support."""
    n_cases = 100
    ds = [d for _, d in zip(range(n_cases), itertools.cycle(dims))]
    ranks = [1 + i % (d - 1) if d > 2 else 1 for i, d in enumerate(ds)]
    rhos = _validated(random_ops.random_density_matrices(ds, ranks, rng))
    comps = _by_rank(_compress, rhos)
    keys = [c.isometry.shape for c in comps]
    iso = _grouped(_isometry_gaps, keys, comps)
    recon = _grouped(_entry_gaps, ds, _grouped(_decoded, keys, comps), rhos)
    return [
        _result("compression-isometry", n_cases, np.max(iso), 1e-10),
        _result("compression-reconstruction", n_cases, np.max(recon), 1e-9),
    ]


def check_atomic_rank(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Atomicity of composition: atomic channels never raise rank; a non-atomic one can."""
    n_cases = 100
    cases = [(d, 1 + i % d) for i, d in zip(range(n_cases), itertools.cycle(dims))]
    draws = [
        (rng.standard_normal((2, d, r)), rng.standard_normal((2, d, d)), rng.uniform(0.2, 1.0))
        for d, r in cases
    ]
    zr, za, scales = zip(*draws)
    rhos = _validated(_grouped(random_ops._densities, cases, zr))
    ops = _grouped(random_ops._contractions, [z.shape for z in za], za, scales)
    channels = _grouped(_channels, [a.shape for a in ops], [(a,) for a in ops])
    dims = [rho.dim for rho in rhos]
    outs = _grouped(_apply_channels, dims, channels, rhos)
    before, after = (_grouped(_ranks, dims, states) for states in (rhos, outs))
    violations = np.count_nonzero(np.greater(after, before))
    atomic = _result("atomic-rank-never-increases", n_cases, violations, 0.0)
    # Dephasing the maximally coherent pure qubit doubles the rank: the
    # canonical witness that non-atomic channels escape the monotone.  All
    # entries are exact binary fractions, so the comparison is float-exact.
    plus = QuantumState(np.full((2, 2), 0.5, dtype=complex))
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    dephased = apply_channel(KrausChannel((p0, p1)), plus)
    rank_jump = 1.0 if _ranks([plus, dephased]) != [1, 2] else 0.0
    worst = np.maximum(np.max(np.abs(dephased.matrix - np.eye(2) / 2)), rank_jump)
    note = "dephasing a pure qubit: rank 1 -> 2, output exactly I/2"
    return [atomic, _result("nonatomic-rank-counterexample", 1, worst, 0.0, note)]


def check_dilation(rng: np.random.Generator, dims: tuple[int, ...]) -> PropertyResult:
    """Purification, dilation: every branch of the circuit matches its Kraus term."""
    n_cases = 20
    draws = [
        (rng.standard_normal((2, d * (1 + i % 4), d)), rng.standard_normal((2, d, d)))
        for i, d in zip(range(n_cases), itertools.cycle(dims))
    ]
    zk, zr = zip(*draws)
    keys = [z.shape for z in zk]
    channels = _grouped(_channels, keys, _grouped(random_ops._kraus_families, keys, zk))
    rhos = _validated(_grouped(random_ops._densities, [z.shape for z in zr], zr))
    gaps = _grouped(_branch_gaps, keys, channels, rhos, _grouped(_dilations, keys, channels))
    return _result("dilation-branch-agreement", n_cases, np.max(gaps), 1e-9)


def _branch_gaps(channels: list, rhos: list, dilations: list) -> np.ndarray:
    """Per channel of one shape, max|branch k - A_k rho A_k^dag| over k, with
    0 for A_k when k >= n_kraus."""
    a = np.array([ch.kraus for ch in channels])
    r = np.array([rho.matrix for rho in rhos])[:, None]
    gap = _branches(dilations, rhos)
    gap[:, : a.shape[1]] -= a @ r @ a.conj().swapaxes(2, 3)
    return np.abs(gap).max(axis=(1, 2, 3))


def check_kraus_norm_fault(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """No rule, the injected fault: a deliberately mis-normalized Kraus
    family, which the library must refuse to dilate; the row is always red."""
    kraus = random_ops.random_kraus_tp(dims[0], 2, rng)
    kraus[-1] *= 0.95
    try:
        dilate(KrausChannel(tuple(kraus)))
        note = "mis-normalized Kraus family was not rejected"
    except OptFalsifyError as exc:
        note = f"injected fault surfaced as expected: {exc}"
    return _result("injected-fault-kraus-norm", 1, np.inf, 0.0, note)


def _support_gaps(states: list, rhos: list) -> list[tuple]:
    """Per classical state and its embedding rho, of one dimension: max|P -
    indicator of the nonnegligible probabilities| for rho's support
    projector P, and whether its kernel projector is nonzero."""
    p = _support_projectors(
        np.array([rho.spectrum.values for rho in rhos]),
        np.array([rho.spectrum.vectors for rho in rhos]),
    )
    eye = np.eye(p.shape[1])
    gap = p - eye * ~_negligible(np.array([s.probs for s in states]))[:, None]
    return list(zip(np.abs(gap).max(axis=(1, 2)), (~_is_zero(eye - p)).tolist()))


def check_classical_embedding(rng: np.random.Generator) -> list[PropertyResult]:
    """No rule, the classical contrast: diagonal embedding preserves outcome
    probabilities and support, and falsifier existence matches a nonzero
    kernel of the embedding.  The permutation row checks that a permutation
    and its transpose give a validated ClassicalState back exactly; it
    serves no rule and stays only because perfbench/checks.py names it.
    Both rows draw d = 2..6 whatever dims the other suites run on."""
    n_cases = 50
    # The POVM of 0/1 diagonal effects, one per outcome, for every dimension
    # drawn below.
    outcome_povms = {
        d: _effects([np.diag(row) for row in np.eye(d, dtype=complex)]) for d in range(2, 7)
    }
    draws = []
    for i in range(n_cases):
        d = 2 + i % 5
        x = rng.dirichlet(np.ones(d))
        if i % 3 == 0 and d > 2:
            x[: 1 + i % (d - 1)] = 0.0
            x = x / x.sum()
        draws.append(x)
    lens = [len(x) for x in draws]
    states = [ClassicalState(x) for x in draws]
    embedded = _grouped(_embedded, lens, states)
    rhos = [rho for rho in embedded for _ in range(rho.dim)]
    effects = [e for rho in embedded for e in outcome_povms[rho.dim]]
    born = _grouped(_born_probabilities, [rho.dim for rho in rhos], rhos, effects)
    gaps = list(np.abs(np.subtract(born, np.concatenate([s.probs for s in states]))))
    support = _grouped(_support_gaps, lens, states, embedded)
    gaps.extend(gap for gap, _ in support)
    has_falsifier = [classical_falsifier_exists(state) is not None for state in states]
    mismatches = np.count_nonzero(np.not_equal(has_falsifier, [kernel for _, kernel in support]))
    perms = [(rng.permutation(2 + i % 5), rng.dirichlet(np.ones(2 + i % 5))) for i in range(n_cases)]
    perm_gaps = []
    for order, x in perms:
        fwd = np.eye(len(x))[:, order]
        probs = ClassicalState(x).probs
        perm_gaps.append(np.max(np.abs(fwd.T @ (fwd @ probs) - probs)))
    worst = np.maximum(np.max(gaps), mismatches)
    return [
        _result("classical-embedding-agreement", n_cases, worst, 1e-12),
        _result("classical-permutation-reversibility", n_cases, np.max(perm_gaps), 1e-12),
    ]


def run_postulate_checks(
    dims: tuple[int, ...] = (2, 3, 4), seed: int = 0, fault: str | None = None
) -> list[PropertyResult]:
    """Full dual-route suite; deterministic for a given seed and dims."""
    if fault is not None and fault not in KNOWN_FAULTS:
        raise OutOfRangeError(
            f"unknown fault {fault!r}; known faults: {', '.join(KNOWN_FAULTS)}"
        )
    dims = _read_dims(dims)
    _check_int(seed, 0, OutOfRangeError, BAD_SEED)
    small = tuple(d for d in dims if d <= 3) or (dims[0],)
    results: list[PropertyResult] = []
    results.append(check_doubleket_identity(_sub_rng(seed, 0), dims))
    results.append(check_purification_recovery(_sub_rng(seed, 1), dims))
    results.extend(check_purification_uniqueness(_sub_rng(seed, 2), dims))
    results.append(check_discrimination(_sub_rng(seed, 3), dims))
    results.append(check_local_falsifier(_sub_rng(seed, 4), small))
    results.extend(check_canonical_form(_sub_rng(seed, 5), small))
    results.extend(check_compression(_sub_rng(seed, 6), dims))
    results.extend(check_atomic_rank(_sub_rng(seed, 7), dims))
    results.append(check_dilation(_sub_rng(seed, 8), small))
    if fault is not None:
        results.append(check_kraus_norm_fault(_sub_rng(seed, 10), small))
    results.extend(check_classical_embedding(_sub_rng(seed, 9)))
    return results
