"""The four benchmark workloads.

Each workload turns the benchmark seed into input files in a work
directory and returns a Job: the opt-falsify arguments, the files the
invocation writes, and the check its outputs must pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Job:
    args: list[str]
    stdout: Path
    outputs: list[Path]
    check_outputs: Callable[["Job"], list[str]]
    n_trials: int = 0
    csv_rows: int = 0
    cases: int = 0
    reference: bytes | None = field(default=None, repr=False)

    def clear(self) -> None:
        for path in [self.stdout, *self.outputs]:
            path.unlink(missing_ok=True)

    def bytes_out(self) -> int:
        return sum(p.stat().st_size for p in [self.stdout, *self.outputs] if p.exists())

    def check(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        missing = [p.name for p in self.outputs if not p.exists()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        return self.check_outputs(self)


def campaign_job(seed: int, work: Path, n_trials: int, with_csv: bool) -> Job:
    """Declared fair coin (p = 0.5, phi = 0) against the maximally mixed qubit."""
    psi = np.array([np.sqrt(0.5), np.sqrt(0.5)], dtype=complex)
    rho = np.eye(2, dtype=complex) / 2
    rate = float(1.0 - np.vdot(psi, rho @ psi).real)
    config = work / "campaign.json"
    config.write_text(
        json.dumps(
            {
                "declared": {"p": 0.5, "phi": 0.0},
                "true_state": {
                    "kind": "state",
                    "rows": 2,
                    "cols": 2,
                    "re": [float(x) for x in rho.real.ravel()],
                    "im": [float(x) for x in rho.imag.ravel()],
                },
                "n_trials": n_trials,
                "seed": seed,
            }
        )
    )
    n_falsified = checks.count_falsified(seed, n_trials, rate)
    csv = work / "trace.csv"

    def check_outputs(job: Job) -> list[str]:
        report = job.stdout.read_bytes()
        problems = checks.check_campaign_report(
            report, n_trials=n_trials, seed=seed, rate=rate, n_falsified=n_falsified
        )
        if job.reference is None:
            job.reference = report
        elif report != job.reference:
            problems.append("report bytes differ from the first invocation's")
        if with_csv:
            problems += checks.check_trace_csv(
                csv.read_bytes(), n_trials=n_trials, n_falsified=n_falsified, seed=seed
            )
        return problems

    args = ["falsify-coin", "--config", str(config)]
    if with_csv:
        args += ["--csv", str(csv)]
    return Job(
        args=args,
        stdout=work / "stdout.txt",
        outputs=[csv] if with_csv else [],
        check_outputs=check_outputs,
        n_trials=n_trials,
        csv_rows=n_trials if with_csv else 0,
    )


def campaign(seed: int, work: Path) -> Job:
    return campaign_job(seed, work, 50_000_000, with_csv=False)


def campaign_trace(seed: int, work: Path) -> Job:
    return campaign_job(seed, work, 1_000_000, with_csv=True)


POSTULATE_DIMS = tuple(range(2, 5))


def postulates(seed: int, work: Path) -> Job:
    out = work / "postulates.json"

    def check_outputs(job: Job) -> list[str]:
        return checks.check_postulates_report(out.read_bytes(), seed=seed, dims=POSTULATE_DIMS)

    return Job(
        args=[
            "check-postulates",
            "--dims",
            f"{POSTULATE_DIMS[0]}..{POSTULATE_DIMS[-1]}",
            "--seed",
            str(seed),
            "--out",
            str(out),
        ],
        stdout=work / "stdout.txt",
        outputs=[out],
        check_outputs=check_outputs,
        cases=sum(checks.expected_postulate_cases(POSTULATE_DIMS).values()),
    )


def random_full_rank_state(seed: int, dim: int) -> np.ndarray:
    """Density matrix with a Haar-random eigenbasis drawn from the seed and
    the fixed spectrum 1, 2, ..., dim (normalized).  The fixed spectrum keeps
    it full rank and gives every seed the same eigensolver work (8 Jacobi
    sweeps at dim 64); Wishart matrices need 8 or 9 depending on the seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rho = (u * np.arange(1.0, dim + 1.0)) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def purify_d64(seed: int, work: Path) -> Job:
    rho = random_full_rank_state(seed, 64)
    config = work / "state.json"
    config.write_text(
        json.dumps(
            {
                "kind": "state",
                "rows": 64,
                "cols": 64,
                "re": [float(x) for x in rho.real.ravel()],
                "im": [float(x) for x in rho.imag.ravel()],
            }
        )
    )
    out = work / "purification.json"

    def check_outputs(job: Job) -> list[str]:
        return checks.check_purification(out.read_bytes(), rho)

    return Job(
        args=["purify", "--config", str(config), "--out", str(out)],
        stdout=work / "stdout.txt",
        outputs=[out],
        check_outputs=check_outputs,
    )


WORKLOADS = {
    "campaign": campaign,
    "campaign-trace": campaign_trace,
    "postulates": postulates,
    "purify-d64": purify_d64,
}
