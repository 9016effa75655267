"""Self-test of the benchmark: its checks pass genuine outputs and flag
tampered ones, the per-layer split adds up, and BENCHMARK.json names the
metrics and workloads the code reports.

    python3 perfbench/selftest.py

Runs small real invocations of opt-falsify from ``src/`` (about 5 s).
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from layers import UNITS, attribution_gap, layer_metrics
from run import ROOT, Spawner

FAILURES: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def invoke(job: workloads.Job, spawner: Spawner, work: Path) -> list[str]:
    job.clear()
    rc, _, _ = spawner.run(["-m", "optfalsify", *job.args], job.stdout, work / "stderr.txt")
    return job.check(rc)


def check_campaign(spawner: Spawner, work: Path) -> None:
    seed, n = 11, 20_000
    job = workloads.campaign_job(seed, work, n, with_csv=True)
    expect("genuine campaign report and CSV pass", invoke(job, spawner, work) == [])
    expect("a repeated invocation gives identical report bytes", invoke(job, spawner, work) == [])
    report = json.loads(job.stdout.read_bytes())
    tampered = dict(report, n_falsified=report["n_falsified"] + 1)
    expect(
        "report with n_falsified + 1 is flagged",
        checks.check_campaign_report(
            json.dumps(tampered).encode(),
            n_trials=n,
            seed=seed,
            rate=0.5,
            n_falsified=report["n_falsified"],
        )
        != [],
    )
    csv = job.outputs[0].read_bytes()
    truncated = csv[: csv.rindex(b"\n", 0, len(csv) - 1) + 1]
    expect(
        "CSV missing its last row is flagged",
        checks.check_trace_csv(
            truncated, n_trials=n, n_falsified=report["n_falsified"], seed=seed
        )
        != [],
    )
    job.outputs[0].write_bytes(truncated)
    expect("the job flags the truncated CSV", job.check(0) != [])


def check_purify(spawner: Spawner, work: Path) -> None:
    seed = 5
    job = workloads.purify_d64(seed, work)
    expect("genuine purification passes", invoke(job, spawner, work) == [])
    doc = json.loads(job.outputs[0].read_bytes())
    doc["state_vector"]["re"][7] += 1e-6
    rho = workloads.random_full_rank_state(seed, 64)
    expect(
        "purification vector perturbed by 1e-6 is flagged",
        checks.check_purification(json.dumps(doc).encode(), rho) != [],
    )


def check_postulates(spawner: Spawner, work: Path) -> None:
    dims = (2, 3)
    out = work / "postulates.json"
    args = ["-m", "optfalsify", "check-postulates", "--dims", "2..3", "--seed", "3"]
    args += ["--out", str(out)]
    rc, _, _ = spawner.run(args, work / "stdout.txt", work / "stderr.txt")
    data = out.read_bytes()
    expect(
        "genuine postulate report passes",
        rc == 0 and checks.check_postulates_report(data, seed=3, dims=dims) == [],
    )
    doc = json.loads(data)
    doc["results"][1]["cases"] -= 1
    expect(
        "postulate report with a missing case is flagged",
        checks.check_postulates_report(json.dumps(doc).encode(), seed=3, dims=dims) != [],
    )
    args += ["--inject-fault", "kraus-norm"]
    rc, _, _ = spawner.run(args, work / "stdout.txt", work / "stderr.txt")
    expect(
        "postulate run with an injected fault is flagged",
        rc != 0 and checks.check_postulates_report(out.read_bytes(), seed=3, dims=dims) != [],
    )


def check_layer_split() -> None:
    # cli.main [0, 10] > linalg.hermitian_eig [1, 4] > linalg.dagger [2, 3];
    # the traced call took 10.5 s, so 0.5 s is unattributed.
    record = {
        "names": ["cli.main", "linalg.hermitian_eig", "linalg.dagger"],
        "spans": [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0]],
        "wall_s": 10.5,
        "eig_dims": [2],
        "eig_repeats": 0,
        "draws": 0,
    }
    m = layer_metrics(record, 10.0, n_trials=0, csv_rows=0, bytes_out=0, cases=0)
    expect(
        "self times split a nested span tree",
        (m["cli.self_s"], m["linalg.eig_s"], m["linalg.other_s"], m["trace.unattributed_s"])
        == (7.0, 2.0, 1.0, 0.5)
        and attribution_gap(m) == 0.0
        and abs(m["trace.overhead_frac"] - 0.05) < 1e-12,
    )
    record["spans"][2] = [2, 1, 0.0, 5.0]
    try:
        layer_metrics(record, 10.0, n_trials=0, csv_rows=0, bytes_out=0, cases=0)
        flagged = False
    except ValueError:
        flagged = True
    expect("a child span longer than its parent is flagged", flagged)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        "BENCHMARK.json lists the workloads run.py accepts",
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
    )
    expect(
        "BENCHMARK.json lists the end-to-end metrics run.py reports",
        [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"],
    )
    expect(
        "BENCHMARK.json lists the per-layer metrics and units layers.py reports",
        {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS,
    )


def main() -> int:
    check_layer_split()
    check_benchmark_json()
    scratch = Path(__file__).resolve().parent / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        with Spawner(time.monotonic() + 120.0) as spawner:
            check_campaign(spawner, work)
            check_purify(spawner, work)
            check_postulates(spawner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
