import dataclasses
import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import blas_build

from optfalsify import linalg, postulates
from optfalsify.classical import classical_falsifier_exists
from optfalsify.cli import main
from optfalsify.errors import OutOfRangeError
from optfalsify.linalg import partial_trace, tensor
from optfalsify.postulates import KNOWN_FAULTS, run_postulate_checks
from optfalsify.quantum import Effect, Purification, QuantumState, _purifications
from optfalsify.theorems import (
    CanonicalForm,
    CompressionResult,
    Dilation,
    _apply_channels,
    _branches,
    _canonical_forms,
    _compress,
    _connecting_unitaries,
    _discriminate,
    _local_falsifiers,
    dilate,
    perfectly_discriminable,
)


class TestRunPostulateChecks:
    def test_all_pass_on_small_dims(self):
        results = run_postulate_checks(dims=(2, 3), seed=0)
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        names = [r.name for r in results]
        assert len(names) == len(set(names))

    def test_worst_values_within_bounds(self):
        for r in run_postulate_checks(dims=(2, 3), seed=1):
            assert r.worst <= r.bound

    def test_deterministic_given_seed(self):
        a = run_postulate_checks(dims=(2, 3), seed=5)
        b = run_postulate_checks(dims=(2, 3), seed=5)
        assert [(r.name, r.worst) for r in a] == [(r.name, r.worst) for r in b]

    def test_injected_fault_detected(self):
        results = run_postulate_checks(dims=(2, 3), seed=0, fault="kraus-norm")
        failed = [r for r in results if not r.passed]
        assert len(failed) == 1
        assert "fault" in failed[0].note

    def test_fault_is_a_row_of_its_own(self):
        # The fault draws from its own stream: every other row keeps its
        # cases and bits, and the fault row follows the dilation row.
        clean = run_postulate_checks(dims=(2, 3), seed=4)
        faulty = run_postulate_checks(dims=(2, 3), seed=4, fault="kraus-norm")
        at = [r.name for r in clean].index("dilation-branch-agreement") + 1
        assert faulty[:at] + faulty[at + 1 :] == clean
        assert faulty[at].name == "injected-fault-kraus-norm"

    def test_unknown_fault_rejected(self):
        with pytest.raises(OutOfRangeError):
            run_postulate_checks(dims=(2,), seed=0, fault="phase-flip")

    def test_dims_validated(self):
        with pytest.raises(OutOfRangeError):
            run_postulate_checks(dims=(1, 2), seed=0)
        with pytest.raises(OutOfRangeError):
            run_postulate_checks(dims=(2, 16), seed=0)

    def test_seed_validated(self):
        with pytest.raises(OutOfRangeError, match="seed must be a non-negative integer"):
            run_postulate_checks(dims=(2,), seed=-1)

    def test_known_faults_registry(self):
        assert "kraus-norm" in KNOWN_FAULTS

    def test_every_spectrum_through_eigh(self, lapack_calls):
        # One LAPACK route feeds every spectral decision: at these dims and
        # seed, 1297 state and projector matrices and 291 effect and gram
        # matrices, all through eigh.  They go in 69 calls because every
        # suite runs its library routes a stack at a time; a route put back
        # to one call per case raises the count.  The discrimination suite
        # validates one pool of 35 states per dimension and indexes its 200
        # pairs into it; two fresh states per pair would add 1095 matrices.
        run_postulate_checks(dims=(2, 3, 4), seed=1)
        assert len(lapack_calls["eigh"]) == 1297 + 291
        assert lapack_calls["eigh"].calls == 69
        assert lapack_calls["eigvalsh"] == []

    def test_rows_and_case_counts_pinned(self):
        # Every row name with its case count; two rows scale with the
        # number of dims.  The permutation row's 0/1 products add each
        # probability to zeros only, so its worst is exactly 0.0.
        def rows(k):
            return {
                ("doubleket-identity", 100),
                ("purification-recovery", 50 * k),
                ("purification-uniqueness-reconstruction", 50),
                ("purification-uniqueness-unitarity", 50),
                ("orthogonal-support-discrimination", 200 * k + 50),
                ("local-falsifier-born-zero", 100),
                ("canonical-form-reconstruction", 50),
                ("canonical-form-orthogonality", 50),
                ("compression-isometry", 100),
                ("compression-reconstruction", 100),
                ("atomic-rank-never-increases", 100),
                ("nonatomic-rank-counterexample", 1),
                ("dilation-branch-agreement", 20),
                ("classical-embedding-agreement", 50),
                ("classical-permutation-reversibility", 50),
            }

        runs = [((2, 3, 4), 0)] + [((2,), seed) for seed in range(5)]
        for dims, seed in runs:
            results = run_postulate_checks(dims=dims, seed=seed)
            assert len(results) == 15
            assert {(r.name, r.cases) for r in results} == rows(len(dims))
            worst = {r.name: r.worst for r in results}
            assert worst["classical-permutation-reversibility"] == 0.0


def _padded_purifications(rhos):
    """_purifications, each with one more, unoccupied, environment dimension."""
    padded = []
    for pur in _purifications(rhos):
        psi = np.zeros((pur.dim_a, pur.dim_b + 1), dtype=complex)
        psi[:, :-1] = pur.state_vector.reshape(pur.dim_a, pur.dim_b)
        padded.append(Purification(psi.reshape(-1), pur.dim_a, pur.dim_b + 1))
    return padded


def _transposed_unitaries(p1s, p2s):
    """_connecting_unitaries without the final transpose: U^T for U."""
    return [u.T for u in _connecting_unitaries(p1s, p2s)]


def _column_major_forms(rs):
    """_canonical_forms with each operator unvectorized column-major, i.e.
    transposed: the gram Tr(A_i^dag A_j) is unchanged, the rebuilt state is
    not."""
    return [
        dataclasses.replace(cf, operators=tuple(a.T for a in cf.operators))
        for cf in _canonical_forms(rs)
    ]


def _short_isometries(rhos):
    """_compress with each isometry scaled by 0.999, so V V^dag misses I."""
    return [
        CompressionResult(isometry=0.999 * c.isometry, state=c.state) for c in _compress(rhos)
    ]


def _transposed_decodes(comps):
    """CompressionResult.decode as V^T s V*, in place of V^dag s V."""
    return [QuantumState(c.isometry.T @ c.state.matrix @ c.isometry.conj()) for c in comps]


def _conjugated_falsifiers(a_ops, a_vecs):
    """_local_falsifiers with b conjugated in the effect |a><a| (x) |b><b|, a
    phase-convention slip: the effect then fires on |A>>."""
    found = []
    for lf in _local_falsifiers(a_ops, a_vecs):
        d = len(lf.vector_b)
        b = lf.vector_b.conj()
        ket_a = partial_trace(lf.effect.matrix, d, d)
        effect = Effect(tensor(ket_a, np.outer(b, b.conj())))
        found.append(dataclasses.replace(lf, vector_b=b, effect=effect))
    return found


def _flipped_discrimination(rhos, nus):
    return [
        dataclasses.replace(res, discriminable=not res.discriminable)
        for res in _discriminate(rhos, nus)
    ]


def _rank_raising_channels(channels, rhos):
    """_apply_channels with each output mixed half and half with I/d at the
    same trace.  The counterexample's dephased qubit goes through
    apply_channel, which is left as it is."""
    return [
        QuantumState(0.5 * out.matrix + 0.5 * out.trace * np.eye(out.dim) / out.dim)
        for out in _apply_channels(channels, rhos)
    ]


def _conjugated_branches(dilations, rhos):
    """_branches through conj(U) in place of U, a conjugation slip: each
    branch is then read from conj(U) (rho (x) |0><0|) U^T."""
    return _branches([dataclasses.replace(d, unitary=d.unitary.conj()) for d in dilations], rhos)


def _lenient_dilate(channel):
    """dilate, except that a channel that is not trace-preserving is let
    through (with no dilation) instead of rejected."""
    return dilate(channel) if channel.deterministic else None


def _negated_falsifier(state):
    return None if classical_falsifier_exists(state) is not None else (0,)


_ENV_NOTE = r"environment dim \d+ != rank \d+ at dim \d+"

# Library name the suites import: (a replacement that disagrees with the
# suite's independent route, injected fault, {failing result: its note}).
WRONG_ROUTES = {
    "_purifications": (
        _padded_purifications,
        None,
        {
            "purification-recovery": _ENV_NOTE,
            "purification-uniqueness-reconstruction": _ENV_NOTE,
            "purification-uniqueness-unitarity": _ENV_NOTE,
        },
    ),
    "_discriminate": (
        _flipped_discrimination,
        None,
        {"orthogonal-support-discrimination": "constructed orthogonal pair not discriminated"},
    ),
    "_connecting_unitaries": (
        _transposed_unitaries,
        None,
        {"purification-uniqueness-reconstruction": ""},
    ),
    "_canonical_forms": (_column_major_forms, None, {"canonical-form-reconstruction": ""}),
    "_compress": (
        _short_isometries,
        None,
        {"compression-isometry": "", "compression-reconstruction": ""},
    ),
    "_decoded": (_transposed_decodes, None, {"compression-reconstruction": ""}),
    "_local_falsifiers": (_conjugated_falsifiers, None, {"local-falsifier-born-zero": ""}),
    "_apply_channels": (_rank_raising_channels, None, {"atomic-rank-never-increases": ""}),
    "_branches": (_conjugated_branches, None, {"dilation-branch-agreement": ""}),
    "dilate": (
        _lenient_dilate,
        "kraus-norm",
        {"injected-fault-kraus-norm": "mis-normalized Kraus family was not rejected"},
    ),
    "classical_falsifier_exists": (
        _negated_falsifier,
        None,
        {"classical-embedding-agreement": ""},
    ),
}


@pytest.mark.parametrize("name", WRONG_ROUTES)
def test_each_suite_goes_red(monkeypatch, name):
    replacement, fault, notes = WRONG_ROUTES[name]
    monkeypatch.setattr(postulates, name, replacement)
    results = run_postulate_checks(dims=(2, 3), seed=0, fault=fault)
    failed = {r.name: r for r in results if not r.passed}
    assert set(failed) == set(notes)
    for result_name, note in notes.items():
        assert re.fullmatch(note, failed[result_name].note)
    if name == "_discriminate":
        # Every random and every constructed pair disagrees.
        r = failed["orthogonal-support-discrimination"]
        assert r.worst == r.cases


def test_discrimination_decides_pairs_of_a_pool(monkeypatch):
    # The random half validates at most 40 states per dimension, not two
    # per pair, and still decides 200 pairs per dimension by both routes:
    # with every library verdict flipped, each random pair disagrees with
    # the SVD route and each constructed pair is a miss.
    validated, decided = [], []
    real_validated = postulates._validated

    def counted(mats):
        validated.append(len(mats))
        return real_validated(mats)

    def flipped(rhos, nus):
        decided.append(len(rhos))
        return _flipped_discrimination(rhos, nus)

    monkeypatch.setattr(postulates, "_validated", counted)
    monkeypatch.setattr(postulates, "_discriminate", flipped)
    dims = (2, 3, 4, 8)
    row = postulates.check_discrimination(np.random.default_rng(0), dims)
    assert len(validated) == len(dims) + 1
    assert max(validated[:-1]) <= 40
    assert decided == [200] * len(dims) + [50]
    assert row.cases == row.worst == 200 * len(dims) + 50


@pytest.mark.parametrize("dims", [(2, 3, 4), (5, 6, 7, 8)])
def test_discrimination_routes_agree_across_the_cut(monkeypatch, dims):
    # Orthogonal pairs turned by eps from 1e-10 to 1e-3, a quarter decade
    # apart, cross the orthogonality cut at every d.  The library and the
    # suite's SVD route must agree at every point: both decide by
    # max|P_rho P_nu|.  Tr(P_rho P_nu), the square of the turn, would put
    # the SVD route's cut near eps = 1e-4, and the row would fail.
    walk = tuple(10.0 ** (k / 4) for k in range(-40, -11))
    monkeypatch.setattr(postulates, "_BAND", walk)
    for d in dims:
        states = [QuantumState(m) for m in postulates._band_states(d, np.random.default_rng(d))]
        read = [perfectly_discriminable(states[0], nu).discriminable for nu in states[1:]]
        assert read[0] and not read[-1] and read == sorted(read, reverse=True)
    row = postulates.check_discrimination(np.random.default_rng(1), dims)
    assert row.cases == (190 + 2 * len(walk)) * len(dims) + 50
    assert row.passed and row.worst == 0.0


def test_degenerate_directions_noted(monkeypatch):
    def always_degenerate(a_ops, a_vecs):
        found = _local_falsifiers(a_ops, a_vecs)
        return [dataclasses.replace(lf, degenerate=True) for lf in found]

    monkeypatch.setattr(postulates, "_local_falsifiers", always_degenerate)
    results = run_postulate_checks(dims=(2, 3), seed=0)
    assert all(r.passed for r in results)
    (r,) = [r for r in results if r.name == "local-falsifier-born-zero"]
    assert r.note == f"{r.cases} degenerate directions"


def _nan_marginals(purs):
    """Stand-ins for _marginals whose matrices are all NaN."""
    return [SimpleNamespace(matrix=np.full((p.dim_a, p.dim_a), np.nan)) for p in purs]


def _nan_decodes(comps):
    """Stand-ins for _decoded whose matrices are all NaN."""
    return [SimpleNamespace(matrix=np.full((c.isometry.shape[1],) * 2, np.nan)) for c in comps]


def test_nan_deviation_fails_its_row(monkeypatch, tmp_path):
    # A NaN deviation must not fold away as it does under Python's max:
    # each row fails, the CLI exits 1 and the report's worst is null.
    monkeypatch.setattr(postulates, "_marginals", _nan_marginals)
    monkeypatch.setattr(postulates, "_decoded", _nan_decodes)
    nan_rows = {"purification-recovery", "compression-reconstruction"}
    results = run_postulate_checks(dims=(2, 3), seed=0)
    failed = {r.name: r for r in results if not r.passed}
    assert set(failed) == nan_rows
    assert all(np.isnan(r.worst) for r in failed.values())
    out = tmp_path / "report.json"
    assert main(["check-postulates", "--dims", "2..3", "--out", str(out)]) == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())["results"]}
    assert all(rows[name]["worst"] is None and not rows[name]["passed"] for name in nan_rows)


def test_no_per_case_route_runs(monkeypatch):
    # After its draws, every suite runs stacked routes only: with the
    # per-object constructors and methods below made to raise, every row
    # still passes.
    def refuse(*args, **kwargs):
        raise AssertionError("a per-case route ran")

    for owner, name in (
        (Purification, "__post_init__"),
        (Dilation, "branch"),
        (CanonicalForm, "reconstruction"),
        (QuantumState, "rank"),
        (linalg, "support_projector"),
        (linalg, "kernel_projector"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert not hasattr(postulates, "support_projector")
    assert not hasattr(postulates, "kernel_projector")
    results = run_postulate_checks(dims=(2, 3, 4), seed=1)
    assert [r.name for r in results if not r.passed] == []


# SHA-256 of `check-postulates --out` for (dims, seed).  Report floats move
# with the BLAS kernels, so the pin holds for one numpy, one OpenBLAS build
# and one runtime core (conftest.blas_build); elsewhere it is skipped.
PINNED_REPORTS = {
    ("2..4", 1): "85a6245c081a282979486a5d8da78a2ec19087e04082d8c8a7e1b7e269b4ea3f",
    ("2..3", 0): "b1c947da578b45a5292e004e0e1200c9c7a971720348a82f32f8fa52ca0a6c67",
}
PINNED_BUILD = ("2.4.6", "0.3.31.188.0", "SkylakeX")


@pytest.mark.parametrize("dims, seed", PINNED_REPORTS)
def test_report_bits_pinned(tmp_path, dims, seed):
    build = blas_build()
    if build != PINNED_BUILD:
        pytest.skip(f"report bits pinned for numpy, OpenBLAS, core {PINNED_BUILD}, not {build}")
    out = tmp_path / "report.json"
    assert main(["check-postulates", "--dims", dims, "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[dims, seed]
