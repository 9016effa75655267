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

from . import quantum
from .classical import ClassicalState, classical_falsifier_exists, embed_classical
from .errors import OptFalsifyError, OutOfRangeError
from .linalg import (
    _ORTHOGONALITY_TOL,
    BAD_SEED,
    DEFAULT_RANK_TOL,
    SPECTRUM_TOL,
    _check_int,
    _read_dims,
    dagger,
    kernel_projector,
    mat_to_doubleket,
    support_projector,
    tensor,
)
from .quantum import (
    Effect,
    KrausChannel,
    QuantumState,
    _apply_channels,
    _channels,
    _compress,
    _decoded,
    _discriminate,
    _local_falsifiers,
    _marginals,
    _pure_matrix,
    apply_channel,
    born_probability,
    canonical_form,
    connecting_unitary,
    dilate,
    purify,
)
from .random_ops import (
    random_complex_matrix,
    random_contraction,
    random_density_matrices,
    random_density_matrix,
    random_kraus_tp,
    random_projector,
    random_unit_vector,
    random_unitary,
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
    return PropertyResult(
        name=name,
        cases=cases,
        worst=worst,
        bound=float(bound),
        passed=worst <= bound,
        note=note,
    )


def _sub_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _grouped(stacked, keys: list, *columns: list) -> list:
    """stacked(*columns) on the cases of one key at a time, its results in
    case order: a route that takes cases of one shape, run on several."""
    out = [None] * len(keys)
    for key in dict.fromkeys(keys):
        ks = [k for k, other in enumerate(keys) if other == key]
        for k, result in zip(ks, stacked(*([col[k] for k in ks] for col in columns))):
            out[k] = result
    return out


def _validated(mats: list) -> list[QuantumState]:
    """The state of each drawn matrix, in draw order.  All cases are drawn
    first, then those of each dimension validated as one stack."""
    return _grouped(quantum._states, [len(m) for m in mats], mats)


def check_doubleket_identity(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """No rule, the numerical floor: (A (x) B)|C>> = |A C B^T>> for random triples."""
    n_cases = 100
    worst = 0.0
    for i in range(n_cases):
        m = dims[i % len(dims)]
        n = dims[(i // len(dims)) % len(dims)]
        a = random_complex_matrix(m, m, rng)
        b = random_complex_matrix(n, n, rng)
        c = random_complex_matrix(m, n, rng)
        lhs = tensor(a, b) @ mat_to_doubleket(c)
        rhs = mat_to_doubleket(a @ c @ b.T)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return _result("doubleket-identity", n_cases, worst, 1e-12)


def check_purification_recovery(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """Purification: tracing out the environment of purify(rho) returns
    rho, with the environment exactly as large as the rank."""
    worst = 0.0
    cases = 0
    note = ""
    for d in dims:
        ranks = [1 + i % d for i in range(50)]
        rhos = _validated(random_density_matrices(d, ranks, rng))
        purs = [purify(rho) for rho in rhos]
        marginals = _grouped(_marginals, [p.dim_b for p in purs], purs)
        for rho, rank, pur, marginal in zip(rhos, ranks, purs, marginals):
            cases += 1
            if pur.dim_b != rank:
                worst = np.inf
                note = f"environment dim {pur.dim_b} != rank {rank} at dim {d}"
                continue
            diff = float(np.max(np.abs(marginal.matrix - rho.matrix)))
            worst = max(worst, diff)
    return _result("purification-recovery", cases, worst, 1e-9, note)


def check_purification_uniqueness(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Purification, uniqueness: purifications of the same state with equal
    environments are linked by a unitary on the environment alone."""
    n_cases = 50
    worst_recon = 0.0
    worst_unitary = 0.0
    note = ""

    # The environment of purify(rho) is as large as the drawn rank
    # (purification-recovery checks this).
    draws = [
        (random_density_matrix(d, rng, rank=1 + i % d), random_unitary(1 + i % d, rng))
        for i, d in zip(range(n_cases), itertools.cycle(dims))
    ]
    mats, unitaries = zip(*draws)
    for rho, v in zip(_validated(mats), unitaries):
        d = rho.dim
        p1 = purify(rho)
        if p1.dim_b != v.shape[0]:
            worst_recon = worst_unitary = np.inf
            note = f"environment dim {p1.dim_b} != rank {v.shape[0]} at dim {d}"
            continue
        psi2 = tensor(np.eye(d, dtype=complex), v) @ p1.state_vector
        p2 = type(p1)(state_vector=psi2, dim_a=d, dim_b=p1.dim_b)
        u = connecting_unitary(p1, p2)
        moved = tensor(np.eye(d, dtype=complex), u) @ p1.state_vector
        worst_recon = max(worst_recon, float(np.linalg.norm(moved - p2.state_vector)))
        dev = np.max(np.abs(dagger(u) @ u - np.eye(p1.dim_b)))
        worst_unitary = max(worst_unitary, float(dev))
    return [
        _result(
            "purification-uniqueness-reconstruction", n_cases, worst_recon, 1e-8, note
        ),
        _result(
            "purification-uniqueness-unitarity", n_cases, worst_unitary, 1e-9, note
        ),
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


def _orthogonal_pair(
    d: int, rank: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two trace-one matrices supported on a random rank-`rank` subspace and
    on its orthogonal complement."""
    p = random_projector(d, rank, rng)
    q = np.eye(d, dtype=complex) - p
    g1 = random_complex_matrix(d, d, rng)
    g2 = random_complex_matrix(d, d, rng)
    m1 = p @ g1 @ g1.conj().T @ p
    m2 = q @ g2 @ g2.conj().T @ q
    return m1 / np.trace(m1).real, m2 / np.trace(m2).real


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
        states = _validated(random_density_matrices(d, ranks, rng))
        rhos, nus = states[::2], states[1::2]
        n = len(rhos)
        p = _support_bruteforce(np.stack([s.matrix for s in rhos + nus]))
        overlaps = np.trace(p[:n] @ p[n:], axis1=1, axis2=2).real
        for res, overlap in zip(_discriminate(rhos, nus), overlaps.tolist()):
            cases += 1
            if res.discriminable != (abs(overlap) <= _ORTHOGONALITY_TOL):
                disagreements += 1
                note = f"random pair disagreement at dim {d}"
    d = max(dims)
    states = _validated(
        [m for i in range(50) for m in _orthogonal_pair(d, 1 + i % (d - 1), rng)]
    )
    rhos, nus = states[::2], states[1::2]
    for nu, res in zip(nus, _discriminate(rhos, nus)):
        cases += 1
        ok = res.discriminable
        # The rho-falsifier, built on this read, must capture nu with
        # certainty, to within the orthogonality cut.
        falsifier = res.falsifier_rho if ok else None
        if falsifier is not None:
            ok = abs(born_probability(nu, falsifier) - 1.0) <= _ORTHOGONALITY_TOL
        if not ok:
            disagreements += 1
            note = "constructed orthogonal pair not discriminated"
    return _result(
        "orthogonal-support-discrimination", cases, float(disagreements), 0.0, note
    )


def check_local_falsifier(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """Local discriminability: the product falsifier a (x) b never fires
    on the bipartite pure state |A>>."""
    n_cases = 100
    worst = 0.0
    degenerate_hits = 0

    draws = [
        (random_complex_matrix(d, d, rng), random_unit_vector(d, rng))
        for _, d in zip(range(n_cases), itertools.cycle(dims))
    ]
    ops, vecs = zip(*draws)
    # The states that QuantumState.pure(mat_to_doubleket(a_op)) builds.
    psis = _validated([_pure_matrix(mat_to_doubleket(a_op)) for a_op in ops])
    found = _grouped(_local_falsifiers, [len(v) for v in vecs], ops, vecs)
    for psi, lf in zip(psis, found):
        if lf.degenerate:
            degenerate_hits += 1
        worst = max(worst, born_probability(psi, lf.effect))
    note = f"{degenerate_hits} degenerate directions" if degenerate_hits else ""
    return _result("local-falsifier-born-zero", n_cases, worst, 1e-10, note)


def check_canonical_form(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Purification, canonical form: the double-ket decomposition rebuilds
    the state and its operators are trace-orthogonal with the stated weights."""
    n_cases = 50
    worst_recon = 0.0
    worst_orth = 0.0
    sizes = [d * d for _, d in zip(range(n_cases), itertools.cycle(dims))]
    ranks = [1 + i % n for i, n in enumerate(sizes)]
    for r in _validated(random_density_matrices(sizes, ranks, rng)):
        cf = canonical_form(r)
        worst_recon = max(
            worst_recon, float(np.max(np.abs(cf.reconstruction() - r.matrix)))
        )
        for row, a_i in enumerate(cf.operators):
            for col, a_j in enumerate(cf.operators):
                target = cf.weights[col] if row == col else 0.0
                dev = abs(complex(np.trace(dagger(a_i) @ a_j)) - target)
                worst_orth = max(worst_orth, float(dev))
    return [
        _result("canonical-form-reconstruction", n_cases, worst_recon, 1e-9),
        _result("canonical-form-orthogonality", n_cases, worst_orth, 1e-9),
    ]


def check_compression(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Ideal compression: rank-deficient states restrict losslessly to their support."""
    n_cases = 100
    worst_iso = 0.0
    worst_recon = 0.0
    ds = [d for _, d in zip(range(n_cases), itertools.cycle(dims))]
    ranks = [1 + i % (d - 1) if d > 2 else 1 for i, d in enumerate(ds)]
    rhos = _validated(random_density_matrices(ds, ranks, rng))
    comps = _grouped(_compress, [(rho.dim, rho.rank()) for rho in rhos], rhos)
    decoded = _grouped(_decoded, [c.isometry.shape for c in comps], comps)
    for rho, comp, back in zip(rhos, comps, decoded):
        v = comp.isometry
        worst_iso = max(
            worst_iso,
            float(np.max(np.abs(v @ dagger(v) - np.eye(v.shape[0])))),
        )
        worst_recon = max(
            worst_recon,
            float(np.max(np.abs(back.matrix - rho.matrix))),
        )
    return [
        _result("compression-isometry", n_cases, worst_iso, 1e-10),
        _result("compression-reconstruction", n_cases, worst_recon, 1e-9),
    ]


def check_atomic_rank(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> list[PropertyResult]:
    """Atomicity of composition: atomic channels never raise rank; a non-atomic one can."""
    n_cases = 100
    violations = 0
    draws = [
        (random_density_matrix(d, rng, rank=1 + i % d), random_contraction(d, rng))
        for i, d in zip(range(n_cases), itertools.cycle(dims))
    ]
    mats, ops = zip(*draws)
    rhos = _validated(mats)
    channels = _grouped(_channels, [a.shape for a in ops], [(a,) for a in ops])
    outs = _grouped(_apply_channels, [rho.dim for rho in rhos], channels, rhos)
    for rho, out in zip(rhos, outs):
        if out.rank() > rho.rank():
            violations += 1
    atomic = _result(
        "atomic-rank-never-increases", n_cases, float(violations), 0.0
    )
    # Dephasing the maximally coherent pure qubit doubles the rank: the
    # canonical witness that non-atomic channels escape the monotone.  All
    # entries are exact binary fractions, so the comparison is float-exact.
    plus = QuantumState(np.full((2, 2), 0.5, dtype=complex))
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    dephased = apply_channel(KrausChannel((p0, p1)), plus)
    exact = float(np.max(np.abs(dephased.matrix - np.eye(2) / 2)))
    rank_jump = 1.0 if (plus.rank(), dephased.rank()) != (1, 2) else 0.0
    counter = _result(
        "nonatomic-rank-counterexample",
        1,
        max(exact, rank_jump),
        0.0,
        "dephasing a pure qubit: rank 1 -> 2, output exactly I/2",
    )
    return [atomic, counter]


def check_dilation(rng: np.random.Generator, dims: tuple[int, ...]) -> PropertyResult:
    """Purification, dilation: every branch of the circuit matches its Kraus term."""
    n_cases = 20
    worst = 0.0
    draws = [
        (random_kraus_tp(d, 1 + i % 4, rng), random_density_matrix(d, rng))
        for i, d in zip(range(n_cases), itertools.cycle(dims))
    ]
    families, mats = zip(*draws)
    channels = _grouped(_channels, [(len(f), len(f[0])) for f in families], families)
    for rho, ch in zip(_validated(mats), channels):
        d = rho.dim
        dil = dilate(ch)
        for k in range(dil.dim_env):
            branch = dil.branch(rho, k)
            expected = (
                ch.kraus[k] @ rho.matrix @ dagger(ch.kraus[k])
                if k < ch.n_kraus
                else np.zeros((d, d), dtype=complex)
            )
            worst = max(worst, float(np.max(np.abs(branch - expected))))
    return _result("dilation-branch-agreement", n_cases, worst, 1e-9)


def check_kraus_norm_fault(
    rng: np.random.Generator, dims: tuple[int, ...]
) -> PropertyResult:
    """No rule, the injected fault: a deliberately mis-normalized Kraus
    family, which the library must refuse to dilate; the row is always red."""
    kraus = random_kraus_tp(dims[0], 2, rng)
    kraus[-1] *= 0.95
    try:
        dilate(KrausChannel(tuple(kraus)))
        note = "mis-normalized Kraus family was not rejected"
    except OptFalsifyError as exc:
        note = f"injected fault surfaced as expected: {exc}"
    return _result("injected-fault-kraus-norm", 1, np.inf, 0.0, note)


def check_classical_embedding(rng: np.random.Generator) -> list[PropertyResult]:
    """No rule, the classical contrast: diagonal embedding preserves outcome
    probabilities and support, and falsifier existence matches a nonzero
    kernel of the embedding.  The permutation row checks that a permutation
    and its transpose give a validated ClassicalState back exactly; it
    serves no rule and stays only because perfbench/checks.py names it.
    Both rows draw d = 2..6 whatever dims the other suites run on."""
    n_cases = 50
    worst = 0.0
    mismatches = 0
    # The POVM of 0/1 diagonal effects, one per outcome, for every dimension
    # drawn below.
    outcome_povms = {
        d: [Effect(np.diag(row)) for row in np.eye(d, dtype=complex)]
        for d in range(2, 7)
    }
    for i in range(n_cases):
        d = 2 + i % 5
        x = rng.dirichlet(np.ones(d))
        if i % 3 == 0 and d > 2:
            x[: 1 + i % (d - 1)] = 0.0
            x = x / x.sum()
        state = ClassicalState(x)
        embedded = embed_classical(state)
        for k, e in enumerate(outcome_povms[d]):
            dev = abs(born_probability(embedded, e) - state.probs[k])
            worst = max(worst, float(dev))
        indicator = np.diag((state.probs > DEFAULT_RANK_TOL).astype(complex))
        worst = max(
            worst,
            float(np.max(np.abs(support_projector(embedded.spectrum) - indicator))),
        )
        has_falsifier = classical_falsifier_exists(state) is not None
        kernel_nonzero = (
            float(np.max(np.abs(kernel_projector(embedded.spectrum)))) > SPECTRUM_TOL
        )
        if has_falsifier != kernel_nonzero:
            mismatches += 1
    worst_perm = 0.0
    for i in range(n_cases):
        d = 2 + i % 5
        fwd = np.eye(d)[:, rng.permutation(d)]
        x = ClassicalState(rng.dirichlet(np.ones(d)))
        back = fwd.T @ (fwd @ x.probs)
        worst_perm = max(worst_perm, float(np.max(np.abs(back - x.probs))))
    return [
        _result(
            "classical-embedding-agreement",
            n_cases,
            max(worst, float(mismatches)),
            1e-12,
        ),
        _result("classical-permutation-reversibility", n_cases, worst_perm, 1e-12),
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
