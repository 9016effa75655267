import dataclasses
import re

import numpy as np
import pytest

from optfalsify import postulates
from optfalsify.classical import classical_falsifier_exists
from optfalsify.errors import OutOfRangeError
from optfalsify.postulates import KNOWN_FAULTS, run_postulate_checks
from optfalsify.quantum import (
    Purification,
    QuantumState,
    _apply_channels,
    _discriminate,
    _local_falsifiers,
    dilate,
    purify,
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
        # seed, 2392 state and projector matrices and 291 effect and gram
        # matrices, all through eigh.  They go in 194 calls because the
        # suites validate stacks; validating case by case raises the count.
        run_postulate_checks(dims=(2, 3, 4), seed=1)
        assert len(lapack_calls["eigh"]) == 2392 + 291
        assert lapack_calls["eigh"].calls == 194
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


def _padded_purify(rho):
    """purify(rho) with one more, unoccupied, environment dimension."""
    pur = purify(rho)
    psi = np.zeros((pur.dim_a, pur.dim_b + 1), dtype=complex)
    psi[:, :-1] = pur.state_vector.reshape(pur.dim_a, pur.dim_b)
    return Purification(psi.reshape(-1), pur.dim_a, pur.dim_b + 1)


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
    "purify": (
        _padded_purify,
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
    "_apply_channels": (_rank_raising_channels, None, {"atomic-rank-never-increases": ""}),
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


def test_degenerate_directions_noted(monkeypatch):
    def always_degenerate(a_ops, a_vecs):
        found = _local_falsifiers(a_ops, a_vecs)
        return [dataclasses.replace(lf, degenerate=True) for lf in found]

    monkeypatch.setattr(postulates, "_local_falsifiers", always_degenerate)
    results = run_postulate_checks(dims=(2, 3), seed=0)
    assert all(r.passed for r in results)
    (r,) = [r for r in results if r.name == "local-falsifier-born-zero"]
    assert r.note == f"{r.cases} degenerate directions"
