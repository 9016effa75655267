"""End-to-end acceptance checks.

One test per advertised numerical contract, each printing a single
PASS/FAIL line with the measured figure next to its bound.  Tolerances are
pinned here on purpose: loosening one is an API change, not a test fix.
"""

import time

import numpy as np

from optfalsify import (
    QuantumState,
    apply_channel,
    born_probability,
    canonical_form,
    coin_falsification_test,
    compress,
    connecting_unitary,
    falsification_probability,
    falsify_campaign,
    make_coin,
    mat_to_doubleket,
    perfectly_discriminable,
    purify,
    tensor,
)
from optfalsify.cli import main as cli_main
from optfalsify.coins import BaselineVerdict, classical_verdict, count_classical_coin
from optfalsify.theorems import KrausChannel, dilate, local_falsifier
from optfalsify.random_ops import (
    random_complex_matrix,
    random_contraction,
    random_density_matrix,
    random_kraus_tp,
    random_projector,
    random_unit_vector,
    random_unitary,
)
from optfalsify.serialize import state_to_json, write_json


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {index:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {index:02d} {name}: {detail}"


def test_criterion_01_coin_rate_law():
    start = time.perf_counter()
    report = falsify_campaign(
        make_coin(0.5), QuantumState.maximally_mixed(2), 100_000, 42
    )
    elapsed = time.perf_counter() - start
    dev = abs(report.empirical_rate - 0.5)
    ok = dev <= 0.0063 and elapsed < 5.0
    _report(
        1,
        "coin-rate-law",
        ok,
        f"empirical={report.empirical_rate:.5f} within 0.5+/-0.0063, "
        f"runtime={elapsed:.2f}s < 5s",
    )


def test_criterion_02_soundness_exact_zero():
    coin = make_coin(0.3, 0.8)
    start = time.perf_counter()
    report = falsify_campaign(coin, coin.state(), 1_000_000, 123)
    elapsed = time.perf_counter() - start
    ok = report.n_falsified == 0 and elapsed < 10.0
    _report(
        2,
        "soundness",
        ok,
        f"n_falsified={report.n_falsified} over 1e6 trials, "
        f"runtime={elapsed:.2f}s < 10s",
    )


def test_criterion_03_quantum_classical_contrast():
    theta = 0.2
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    all_unfalsifiable = True
    min_rate = float("inf")
    for i in range(1, 10):
        p = i / 10
        verdict = classical_verdict(p, *count_classical_coin(p, 500, 1000 + i))
        all_unfalsifiable &= verdict is BaselineVerdict.NOT_FALSIFIABLE
        coin = make_coin(p)
        perturbed = QuantumState.pure(rot @ coin.state_vector)
        rate = falsification_probability(coin_falsification_test(coin), perturbed)
        min_rate = min(min_rate, rate)
    ok = all_unfalsifiable and min_rate >= 0.01
    _report(
        3,
        "quantum-classical-contrast",
        ok,
        f"classical NOT_FALSIFIABLE for all p, quantum min rate "
        f"{min_rate:.4f} >= 0.01",
    )


def test_criterion_04_purification_recovery():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(50):
            rho = QuantumState(random_density_matrix(dim, rng))
            gap = np.max(np.abs(purify(rho).marginal().matrix - rho.matrix))
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    _report(
        4,
        "purification-recovery",
        ok,
        f"worst marginal gap {worst:.3e} <= 1e-9, runtime={elapsed:.2f}s < 2s",
    )


def test_criterion_05_purification_uniqueness():
    rng = np.random.default_rng(5)
    worst_recon = 0.0
    worst_unitarity = 0.0
    for i in range(50):
        dim = 2 + i % 3
        p1 = purify(QuantumState(random_density_matrix(dim, rng)))
        v = random_unitary(p1.dim_b, rng)
        psi2 = tensor(np.eye(dim, dtype=complex), v) @ p1.state_vector
        p2 = type(p1)(psi2, dim, p1.dim_b)
        u = connecting_unitary(p1, p2)
        moved = tensor(np.eye(dim, dtype=complex), u) @ p1.state_vector
        worst_recon = max(worst_recon, float(np.linalg.norm(moved - psi2)))
        worst_unitarity = max(
            worst_unitarity,
            float(np.max(np.abs(u.conj().T @ u - np.eye(p1.dim_b)))),
        )
    ok = worst_recon <= 1e-8 and worst_unitarity <= 1e-9
    _report(
        5,
        "purification-uniqueness",
        ok,
        f"worst |(I(x)U)psi1 - psi2| {worst_recon:.3e} <= 1e-8, "
        f"worst unitarity gap {worst_unitarity:.3e} <= 1e-9",
    )


def _oracle_support(m: np.ndarray) -> np.ndarray:
    # Independent support route: numpy's eigensolver, not the library's.
    vals, vecs = np.linalg.eigh(m)
    keep = vals > 1e-10 * max(float(vals.max()), 1e-300)
    v = vecs[:, keep]
    return v @ v.conj().T


def _orthogonal_pair(dim: int, rank: int, rng) -> tuple[QuantumState, QuantumState]:
    p = random_projector(dim, rank, rng)
    states = []
    for proj in (p, np.eye(dim) - p):
        while True:
            g = random_complex_matrix(dim, dim, rng)
            m = proj @ g @ g.conj().T @ proj
            tr = float(np.trace(m).real)
            if tr > 1e-8:
                states.append(QuantumState(m / tr))
                break
    return states[0], states[1]


def test_criterion_06_discrimination_agreement():
    # Supports count as orthogonal when max|P_rho P_nu| <= 1e-8, the
    # quantity perfectly_discriminable documents.  Tr(P_rho P_nu) is its
    # square in effect, so against the same 1e-8 it would call supports
    # turned by up to about 1e-4 orthogonal, where the library does not.
    # These pairs all sit far from the cut; test_cutoffs.py and
    # test_postulates.py's band walk take pairs across it.
    rng = np.random.default_rng(6)
    disagreements = 0
    cases = 0
    for dim in (2, 3, 4):
        for i in range(200):
            rho = QuantumState(
                random_density_matrix(dim, rng, rank=1 + i % dim)
            )
            nu = QuantumState(
                random_density_matrix(dim, rng, rank=1 + (i // 2) % dim)
            )
            overlap = float(
                np.abs(
                    _oracle_support(rho.matrix) @ _oracle_support(nu.matrix)
                ).max()
            )
            expected = overlap <= 1e-8
            got = perfectly_discriminable(rho, nu).discriminable
            disagreements += got != expected
            cases += 1
    for i in range(50):
        dim = 2 + i % 3
        rho, nu = _orthogonal_pair(dim, 1 + i % (dim - 1), rng)
        res = perfectly_discriminable(rho, nu)
        disagreements += not res.discriminable
        cases += 1
    ok = disagreements == 0
    _report(
        6,
        "discrimination-agreement",
        ok,
        f"{disagreements}/{cases} disagreements with the brute-force "
        f"support-overlap route",
    )


def test_criterion_07_local_falsifier_and_canonical_form():
    rng = np.random.default_rng(7)
    worst_born = 0.0
    for i in range(100):
        dim = 2 + i % 2
        a_op = random_complex_matrix(dim, dim, rng)
        psi = QuantumState.pure(mat_to_doubleket(a_op))
        lf = local_falsifier(a_op, random_unit_vector(dim, rng))
        worst_born = max(worst_born, born_probability(psi, lf.effect))
    worst_recon = 0.0
    for i in range(50):
        dim = 2 + i % 2
        rho = QuantumState(random_density_matrix(dim * dim, rng))
        cf = canonical_form(rho)
        worst_recon = max(
            worst_recon, float(np.max(np.abs(cf.reconstruction() - rho.matrix)))
        )
    ok = worst_born <= 1e-10 and worst_recon <= 1e-9
    _report(
        7,
        "local-falsifier",
        ok,
        f"worst falsifier Born probability {worst_born:.3e} <= 1e-10, "
        f"worst canonical reconstruction {worst_recon:.3e} <= 1e-9",
    )


def test_criterion_08_compression():
    rng = np.random.default_rng(8)
    worst_isometry = 0.0
    worst_recon = 0.0
    for i in range(100):
        dim = 2 + i % 4
        rank = 1 + i % (dim - 1) if dim > 1 else 1
        rho = QuantumState(random_density_matrix(dim, rng, rank=rank))
        comp = compress(rho)
        v = comp.isometry
        worst_isometry = max(
            worst_isometry,
            float(np.max(np.abs(v @ v.conj().T - np.eye(v.shape[0])))),
        )
        worst_recon = max(
            worst_recon, float(np.max(np.abs(comp.decode().matrix - rho.matrix)))
        )
    ok = worst_isometry <= 1e-10 and worst_recon <= 1e-9
    _report(
        8,
        "compression",
        ok,
        f"worst V V^dag deviation {worst_isometry:.3e} <= 1e-10, "
        f"worst reconstruction {worst_recon:.3e} <= 1e-9",
    )


def test_criterion_09_atomic_rank_monotonicity():
    rng = np.random.default_rng(9)
    violations = 0
    for i in range(100):
        dim = 2 + i % 3
        rho = QuantumState(random_density_matrix(dim, rng, rank=1 + i % dim))
        while True:
            a = random_contraction(dim, rng)
            out = a @ rho.matrix @ a.conj().T
            if float(np.trace(out).real) > 1e-10:
                break
        ch = KrausChannel((a,))
        sigma = apply_channel(ch, rho)
        violations += sigma.rank() > rho.rank()
    # Non-atomic counterexample: dephasing a pure superposition doubles the
    # rank.  Entries are exact binary fractions, so the check is exact.
    plus = QuantumState(np.full((2, 2), 0.5, dtype=complex))
    dephasing = KrausChannel(
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    out = apply_channel(dephasing, plus)
    rank_before = plus.rank()
    rank_after = out.rank()
    ok = violations == 0 and rank_before == 1 and rank_after == 2
    _report(
        9,
        "atomic-rank-monotonicity",
        ok,
        f"{violations}/100 atomic rank increases, dephasing counterexample "
        f"rank {rank_before} -> {rank_after}",
    )


def test_criterion_10_dilation_branches():
    rng = np.random.default_rng(10)
    worst = 0.0
    for i in range(20):
        dim = 2 + i % 2
        n_kraus = 2 + i % 3
        ch = KrausChannel(tuple(random_kraus_tp(dim, n_kraus, rng)))
        dil = dilate(ch)
        rho = QuantumState(random_density_matrix(dim, rng))
        for k in range(n_kraus):
            expected = ch.kraus[k] @ rho.matrix @ ch.kraus[k].conj().T
            worst = max(
                worst, float(np.max(np.abs(dil.branch(rho, k) - expected)))
            )
    ok = worst <= 1e-9
    _report(
        10,
        "dilation-branches",
        ok,
        f"worst branch deviation {worst:.3e} <= 1e-9 over 20 channels",
    )


def test_criterion_11_doubleket_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(100):
        m = 2 + i % 3
        n = 2 + (i // 3) % 3
        a = random_complex_matrix(m, m, rng)
        b = random_complex_matrix(n, n, rng)
        c = random_complex_matrix(m, n, rng)
        lhs = tensor(a, b) @ mat_to_doubleket(c)
        rhs = mat_to_doubleket(a @ c @ b.T)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    ok = worst <= 1e-12
    _report(
        11,
        "doubleket-identity",
        ok,
        f"worst |(A(x)B)|C>> - |ACB^T>>| = {worst:.3e} <= 1e-12",
    )


def test_criterion_12_deterministic_reports(tmp_path):
    config = tmp_path / "campaign.json"
    write_json(
        str(config),
        {
            "declared": {"p": 0.5, "phi": 0.0},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 5000,
            "seed": 42,
        },
    )
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["falsify-coin", "--config", str(config), "--out", str(out_a)])
    code_b = cli_main(["falsify-coin", "--config", str(config), "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(
        12,
        "deterministic-reports",
        ok,
        f"two runs byte-identical={identical}, exit codes ({code_a}, {code_b})",
    )
