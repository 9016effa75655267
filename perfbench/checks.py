"""Output checks, independent of the optfalsify package.

Each check takes the bytes an opt-falsify invocation wrote and what the
benchmark knows about its inputs, and returns a list of problems (empty when
the output is correct).  Expected values are recomputed here with numpy
alone, outside any timed region.
"""

from __future__ import annotations

import json

import numpy as np

CSV_HEADER = b"trial,outcome,p_theoretical,seed"


def count_falsified(seed: int, n_trials: int, rate: float, chunk: int = 1 << 22) -> int:
    """Trials whose keyed uniform falls below rate, drawn in chunks from
    Philox(SeedSequence(seed)) so memory stays small at any trial count."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    total = 0
    for start in range(0, n_trials, chunk):
        total += int(np.count_nonzero(gen.random(min(chunk, n_trials - start)) < rate))
    return total


def _json(data: bytes, what: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return None, [f"{what} is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, [f"{what} is not a JSON object"]
    return doc, []


def check_campaign_report(
    data: bytes, *, n_trials: int, seed: int, rate: float, n_falsified: int
) -> list[str]:
    """falsify-coin report: trial count, seed, the recomputed falsification
    count, the theoretical rate and the verdict."""
    doc, problems = _json(data, "campaign report")
    if doc is None:
        return problems
    expected = {
        "n_trials": n_trials,
        "n_falsified": n_falsified,
        "seed": seed,
        "verdict": "FALSIFIED" if n_falsified else "NOT_FALSIFIED",
    }
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"report {key} = {doc.get(key)!r}, expected {value!r}")
    got_rate = doc.get("theoretical_rate")
    if not isinstance(got_rate, float) or abs(got_rate - rate) > 1e-12:
        problems.append(f"report theoretical_rate = {got_rate!r}, expected {rate!r}")
    if doc.get("empirical_rate") != n_falsified / n_trials:
        problems.append(f"report empirical_rate = {doc.get('empirical_rate')!r}")
    return problems


def check_trace_csv(data: bytes, *, n_trials: int, n_falsified: int, seed: int) -> list[str]:
    """Per-trial CSV: exact header, one row per trial in order, and as many
    FALSIFIED rows as the report counts."""
    lines = data.split(b"\n")
    problems = []
    if lines[-1] != b"":
        problems.append("CSV does not end with a newline")
    if lines[0] != CSV_HEADER:
        problems.append(f"CSV header {lines[0][:80]!r}")
    if len(lines) - 1 != n_trials + 1:
        problems.append(f"CSV has {len(lines) - 1} lines, expected {n_trials + 1}")
    fired = data.count(b",FALSIFIED,")
    if fired != n_falsified:
        problems.append(f"CSV has {fired} FALSIFIED rows, report says {n_falsified}")
    if data.count(b",INCONCLUSIVE,") != n_trials - n_falsified:
        problems.append("CSV INCONCLUSIVE rows do not make up the rest")
    last = lines[-2] if len(lines) > 1 else b""
    if not (last.startswith(b"%d," % (n_trials - 1)) and last.endswith(b",%d" % seed)):
        problems.append(f"CSV last row {last[:80]!r}")
    return problems


def expected_postulate_cases(dims: tuple[int, ...]) -> dict[str, int]:
    """Property names and case counts of check-postulates over dims."""
    k = len(dims)
    return {
        "doubleket-identity": 100,
        "purification-recovery": 50 * k,
        "purification-uniqueness-reconstruction": 50,
        "purification-uniqueness-unitarity": 50,
        "orthogonal-support-discrimination": 200 * k + 50,
        "local-falsifier-born-zero": 100,
        "canonical-form-reconstruction": 50,
        "canonical-form-orthogonality": 50,
        "compression-isometry": 100,
        "compression-reconstruction": 100,
        "atomic-rank-never-increases": 100,
        "nonatomic-rank-counterexample": 1,
        "dilation-branch-agreement": 20,
        "classical-embedding-agreement": 50,
        "classical-permutation-reversibility": 50,
    }


def check_postulates_report(data: bytes, *, seed: int, dims: tuple[int, ...]) -> list[str]:
    """check-postulates --out document: every expected property present with
    its case count, and every one passed."""
    doc, problems = _json(data, "postulates report")
    if doc is None:
        return problems
    if doc.get("seed") != seed or doc.get("dims") != list(dims):
        problems.append(f"report seed/dims {doc.get('seed')!r}/{doc.get('dims')!r}")
    if doc.get("all_passed") is not True:
        problems.append("report all_passed is not true")
    results = doc.get("results")
    if not isinstance(results, list):
        return problems + ["report has no results list"]
    got = {}
    for r in results:
        got[r.get("name")] = r.get("cases")
        if r.get("passed") is not True:
            problems.append(f"property {r.get('name')!r} failed")
    if got != expected_postulate_cases(dims):
        problems.append(f"property names or case counts differ: {got}")
    return problems


def check_purification(data: bytes, rho: np.ndarray) -> list[str]:
    """purify --out document: a full-rank input gets an environment as large
    as the system, and the vector's marginal reproduces the input."""
    doc, problems = _json(data, "purification")
    if doc is None:
        return problems
    d = rho.shape[0]
    if doc.get("kind") != "purification" or doc.get("dim_a") != d or doc.get("dim_b") != d:
        return problems + [
            f"purification kind/dims {doc.get('kind')!r} "
            f"{doc.get('dim_a')!r}x{doc.get('dim_b')!r}, expected {d}x{d}"
        ]
    vec = doc.get("state_vector", {})
    try:
        psi = np.array(vec["re"], dtype=float) + 1j * np.array(vec["im"], dtype=float)
        m = psi.reshape(d, d)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"purification vector unreadable: {exc}"]
    # einsum's own loops rather than a threaded BLAS product, whose idle
    # workers spin for a while and would take a CPU from the next timed child.
    dev = float(np.max(np.abs(np.einsum("ik,jk->ij", m, m.conj()) - rho)))
    if not dev <= 1e-9:
        problems.append(f"marginal deviates from the input by {dev:.3e}")
    return problems
