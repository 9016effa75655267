"""Dual-route property suites for the structural theorems.

Each check exercises a library construction against an independent route
(a brute-force formula, a closed form, or an exact integer fact) over
seeded random instances, and reports the worst deviation seen against the
tolerance it must stay under.  The CLI surfaces these as check-postulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import (
    ClassicalState,
    apply_markov,
    classical_falsifier_exists,
    embed_classical,
    permutation_map,
)
from .errors import OptFalsifyError, OutOfRangeError
from .linalg import (
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
    apply_channel,
    born_probability,
    canonical_form,
    compress,
    connecting_unitary,
    dilate,
    local_falsifier,
    perfectly_discriminable,
    purify,
)
from .random_ops import (
    random_complex_matrix,
    random_contraction,
    random_density_matrix,
    random_kraus_tp,
    random_projector,
    random_unit_vector,
    random_unitary,
)

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


def check_doubleket_identity(
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 100
) -> PropertyResult:
    """(A (x) B)|C>> = |A C B^T>> for random triples."""
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
    rng: np.random.Generator, dims: tuple[int, ...], n_per_dim: int = 50
) -> PropertyResult:
    """Tracing out the environment of purify(rho) returns rho, with the
    environment exactly as large as the rank."""
    worst = 0.0
    cases = 0
    note = ""
    for d in dims:
        for i in range(n_per_dim):
            rank = 1 + i % d
            rho = QuantumState(random_density_matrix(d, rng, rank=rank))
            pur = purify(rho)
            cases += 1
            if pur.dim_b != rank:
                worst = np.inf
                note = f"environment dim {pur.dim_b} != rank {rank} at dim {d}"
                continue
            diff = float(np.max(np.abs(pur.marginal().matrix - rho.matrix)))
            worst = max(worst, diff)
    return _result("purification-recovery", cases, worst, 1e-9, note)


def check_purification_uniqueness(
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 50
) -> list[PropertyResult]:
    """Purifications of the same state with equal environments are linked by
    a unitary on the environment alone."""
    worst_recon = 0.0
    worst_unitary = 0.0
    for i in range(n_cases):
        d = dims[i % len(dims)]
        rank = 1 + i % d
        rho = QuantumState(random_density_matrix(d, rng, rank=rank))
        p1 = purify(rho)
        v = random_unitary(p1.dim_b, rng)
        psi2 = tensor(np.eye(d, dtype=complex), v) @ p1.state_vector
        p2 = type(p1)(state_vector=psi2, dim_a=d, dim_b=p1.dim_b)
        u = connecting_unitary(p1, p2)
        moved = tensor(np.eye(d, dtype=complex), u) @ p1.state_vector
        worst_recon = max(worst_recon, float(np.linalg.norm(moved - p2.state_vector)))
        dev = np.max(np.abs(dagger(u) @ u - np.eye(p1.dim_b)))
        worst_unitary = max(worst_unitary, float(dev))
    return [
        _result("purification-uniqueness-reconstruction", n_cases, worst_recon, 1e-8),
        _result("purification-uniqueness-unitarity", n_cases, worst_unitary, 1e-9),
    ]


def _support_bruteforce(m: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    # Independent route for cross-checking the library projectors: an SVD,
    # not the eigendecomposition the library uses.  For a PSD matrix the
    # singular values are the eigenvalues, so the cutoff is the same.
    u, s, _ = np.linalg.svd(m)
    cols = u[:, s > rank_tol * s[0]]
    return cols @ cols.conj().T


def check_discrimination(
    rng: np.random.Generator,
    dims: tuple[int, ...],
    n_random_per_dim: int = 200,
    n_orthogonal: int = 50,
) -> PropertyResult:
    """perfectly_discriminable agrees with the brute-force criterion
    Tr(P_rho P_nu) <= 1e-8 on random pairs and on pairs built with
    orthogonal supports."""
    disagreements = 0
    cases = 0
    note = ""
    for d in dims:
        for i in range(n_random_per_dim):
            rho = QuantumState(random_density_matrix(d, rng, rank=1 + i % d))
            nu = QuantumState(random_density_matrix(d, rng, rank=1 + (i // 2) % d))
            cases += 1
            got = perfectly_discriminable(rho, nu).discriminable
            overlap = np.trace(
                _support_bruteforce(rho.matrix) @ _support_bruteforce(nu.matrix)
            ).real
            if got != bool(abs(overlap) <= 1e-8):
                disagreements += 1
                note = f"random pair disagreement at dim {d}"
    for i in range(n_orthogonal):
        d = max(dims)
        rank = 1 + i % (d - 1)
        p = random_projector(d, rank, rng)
        q = np.eye(d, dtype=complex) - p
        g1 = random_complex_matrix(d, d, rng)
        g2 = random_complex_matrix(d, d, rng)
        m1 = p @ g1 @ g1.conj().T @ p
        m2 = q @ g2 @ g2.conj().T @ q
        rho = QuantumState(m1 / np.trace(m1).real)
        nu = QuantumState(m2 / np.trace(m2).real)
        cases += 1
        res = perfectly_discriminable(rho, nu)
        ok = res.discriminable
        if ok and res.falsifier_rho is not None:
            # The rho-falsifier must capture nu with certainty.
            ok = abs(born_probability(nu, res.falsifier_rho) - 1.0) <= 1e-8
        if not ok:
            disagreements += 1
            note = "constructed orthogonal pair not discriminated"
    return _result(
        "orthogonal-support-discrimination", cases, float(disagreements), 0.0, note
    )


def check_local_falsifier(
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 100
) -> PropertyResult:
    """The product falsifier a (x) b never fires on the bipartite pure
    state |A>>."""
    worst = 0.0
    degenerate_hits = 0
    for i in range(n_cases):
        d = dims[i % len(dims)]
        a_op = random_complex_matrix(d, d, rng)
        psi = QuantumState.pure(mat_to_doubleket(a_op))
        a_vec = random_unit_vector(d, rng)
        lf = local_falsifier(a_op, a_vec)
        if lf.degenerate:
            degenerate_hits += 1
        worst = max(worst, born_probability(psi, lf.effect))
    note = f"{degenerate_hits} degenerate directions" if degenerate_hits else ""
    return _result("local-falsifier-born-zero", n_cases, worst, 1e-10, note)


def check_canonical_form(
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 50
) -> list[PropertyResult]:
    """Canonical double-ket decomposition reconstructs the state and its
    operators are trace-orthogonal with the stated weights."""
    worst_recon = 0.0
    worst_orth = 0.0
    for i in range(n_cases):
        d = dims[i % len(dims)]
        rank = 1 + i % (d * d)
        r = QuantumState(random_density_matrix(d * d, rng, rank=rank))
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
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 100
) -> list[PropertyResult]:
    """Rank-deficient states restrict losslessly to their support."""
    worst_iso = 0.0
    worst_recon = 0.0
    for i in range(n_cases):
        d = dims[i % len(dims)]
        rank = 1 + i % (d - 1) if d > 2 else 1
        rho = QuantumState(random_density_matrix(d, rng, rank=rank))
        comp = compress(rho)
        v = comp.isometry
        worst_iso = max(
            worst_iso,
            float(np.max(np.abs(v @ dagger(v) - np.eye(v.shape[0])))),
        )
        worst_recon = max(
            worst_recon,
            float(np.max(np.abs(comp.decode().matrix - rho.matrix))),
        )
    return [
        _result("compression-isometry", n_cases, worst_iso, 1e-10),
        _result("compression-reconstruction", n_cases, worst_recon, 1e-9),
    ]


def check_atomic_rank(
    rng: np.random.Generator, dims: tuple[int, ...], n_cases: int = 100
) -> list[PropertyResult]:
    """Atomic channels never increase rank; a non-atomic one can."""
    violations = 0
    for i in range(n_cases):
        d = dims[i % len(dims)]
        rho = QuantumState(random_density_matrix(d, rng, rank=1 + i % d))
        ch = KrausChannel((random_contraction(d, rng),))
        out = apply_channel(ch, rho)
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


def check_dilation(
    rng: np.random.Generator,
    dims: tuple[int, ...],
    n_cases: int = 20,
    fault: str | None = None,
) -> list[PropertyResult]:
    """Every branch of the dilation circuit matches its Kraus term."""
    worst = 0.0
    cases = 0
    results = []
    for i in range(n_cases):
        d = dims[i % len(dims)]
        n_kraus = 1 + i % 4
        kraus = random_kraus_tp(d, n_kraus, rng)
        if fault == "kraus-norm" and i == n_cases // 2:
            # Deliberately mis-normalized family: the library must refuse
            # to treat it as deterministic, and this suite must go red.
            kraus = [k.copy() for k in kraus]
            kraus[-1] *= 0.95
            try:
                dilate(KrausChannel(tuple(kraus)))
                note = "mis-normalized Kraus family was not rejected"
            except OptFalsifyError as exc:
                note = f"injected fault surfaced as expected: {exc}"
            results.append(_result("injected-fault-kraus-norm", 1, np.inf, 0.0, note))
            continue
        ch = KrausChannel(tuple(kraus))
        dil = dilate(ch)
        rho = QuantumState(random_density_matrix(d, rng))
        cases += 1
        for k in range(dil.dim_env):
            branch = dil.branch(rho, k)
            expected = (
                ch.kraus[k] @ rho.matrix @ dagger(ch.kraus[k])
                if k < ch.n_kraus
                else np.zeros((d, d), dtype=complex)
            )
            worst = max(worst, float(np.max(np.abs(branch - expected))))
    results.insert(0, _result("dilation-branch-agreement", cases, worst, 1e-9))
    return results


def check_classical_embedding(
    rng: np.random.Generator, n_cases: int = 50
) -> list[PropertyResult]:
    """Diagonal embedding preserves outcome probabilities and support, and
    falsifier existence matches a nonzero kernel of the embedding."""
    worst = 0.0
    mismatches = 0
    # The 0/1 diagonal effect of each outcome, for every dimension drawn below.
    outcome_effects = {
        d: [Effect(np.diag(row)) for row in np.eye(d, dtype=complex)]
        for d in range(2, 2 + min(n_cases, 5))
    }
    for i in range(n_cases):
        d = 2 + i % 5
        x = rng.dirichlet(np.ones(d))
        if i % 3 == 0 and d > 2:
            x[: 1 + i % (d - 1)] = 0.0
            x = x / x.sum()
        state = ClassicalState(x)
        embedded = embed_classical(state)
        for k, e in enumerate(outcome_effects[d]):
            dev = abs(born_probability(embedded, e) - state.probs[k])
            worst = max(worst, float(dev))
        indicator = np.diag((state.probs > 1e-10).astype(complex))
        worst = max(
            worst,
            float(np.max(np.abs(support_projector(embedded.spectrum) - indicator))),
        )
        has_falsifier = classical_falsifier_exists(state) is not None
        kernel_nonzero = (
            float(np.max(np.abs(kernel_projector(embedded.spectrum)))) > 1e-10
        )
        if has_falsifier != kernel_nonzero:
            mismatches += 1
    worst_perm = 0.0
    for i in range(n_cases):
        d = 2 + i % 5
        perm = list(rng.permutation(d))
        fwd = permutation_map(perm)
        rev = permutation_map(list(np.argsort(perm)))
        x = ClassicalState(rng.dirichlet(np.ones(d)))
        back = apply_markov(rev, apply_markov(fwd, x))
        worst_perm = max(worst_perm, float(np.max(np.abs(back.probs - x.probs))))
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
    dims = tuple(sorted({int(d) for d in dims}))
    if not dims or dims[0] < 2:
        raise OutOfRangeError("dims must all be >= 2")
    if dims[-1] > 8:
        raise OutOfRangeError("dims above 8 exceed the intended regime")
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
    results.extend(check_dilation(_sub_rng(seed, 8), small, fault=fault))
    results.extend(check_classical_embedding(_sub_rng(seed, 9)))
    return results
