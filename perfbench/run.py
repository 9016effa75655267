"""Benchmark of the opt-falsify command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the source tree in
``src/``; every invocation is a fresh ``python -m optfalsify`` child with
``PYTHONPATH`` pointing there, spawned one at a time.

``--trace 0`` measures for about S seconds and reports the end-to-end
metrics: ``wall_s`` (median spawn-to-exit time of one invocation),
``peak_rss_mb`` (median of the children's maximum resident set size, from
``os.wait4``) and ``setup_s`` (median time of a fresh
``python -c "import optfalsify.cli"``).  Times are in reference seconds:
each sample is scaled by the times of the fixed program reference.py, run
just before and just after it, so that the drift of a shared machine's speed
cancels out.  ``--trace 1`` runs the workload in-process (tracer.py),
untraced and traced in turn for about S seconds, and reports the per-layer
metrics (layers.py).  Every output is checked (checks.py); an
unexpected exit code or a failed check counts as a failed invocation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
machine and code context and every sample goes to ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import UNITS, attribution_gap, layer_metrics
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
# Nominal figures of reference.py.  Invocations are scaled by the geometric
# mean of its whole-process time and the time of its compute loops, set-up
# samples by its import time: end-to-end times are reported in seconds on a
# machine where the figures read these (README, "Steadiness").
REF_S = 0.42
REF_IMPORT_S = 0.11
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Spawner:
    """Runs one child at a time through launcher.py, which reaps it with
    os.wait4.  A child still running at the run's deadline is killed."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, args: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
        """Runs python with args; returns (exit code, wall seconds, peak RSS in MiB)."""
        request = {
            "argv": [sys.executable, *args],
            "stdout": str(stdout),
            "stderr": str(stderr),
            "timeout": max(self.deadline - time.monotonic(), 0.0),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        result = json.loads(reply)
        return result["rc"], result["wall_s"], result["peak_rss_mib"]


def context() -> dict:
    """Machine and code the result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((SRC / "optfalsify").rglob("*.py"))
        ),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(job: Job, spawner: Spawner, work: Path, seconds: float) -> tuple[dict, dict]:
    """End-to-end run for about `seconds`.  Each round runs the reference
    program, one fresh import of optfalsify.cli (set-up) and one invocation
    of the workload; a reference run closes the run.  Every set-up and
    invocation sample is scaled by the reference runs just before and just
    after it, which takes out the machine's drift in speed."""
    err = work / "stderr.txt"
    probe = work / "probe.txt"
    rc, _, _ = spawner.run(
        ["-c", "import optfalsify, optfalsify.cli; print(optfalsify.__file__)"], probe, err
    )
    origin = Path(probe.read_text().strip()) if rc == 0 else None
    if origin is None or SRC not in origin.parents:
        raise RuntimeError(f"optfalsify did not import from {SRC}: {err.read_text()[-500:]}")

    # Reference runs as (start, whole-process seconds, {"import_s", "compute_s"}).
    refs: list[tuple[float, float, dict]] = []
    setups, walls, rss, failures = [], [], [], []

    def reference() -> None:
        start = time.perf_counter()
        rc, wall, _ = spawner.run([str(HERE / "reference.py")], probe, err)
        if rc != 0:
            raise RuntimeError(f"reference program failed: {err.read_text()[-500:]}")
        refs.append((start, wall, json.loads(probe.read_text())))

    def setup() -> None:
        start = time.perf_counter()
        setups.append((start, spawner.run(["-c", "import optfalsify.cli"], probe, err)[1]))

    def speed(process: float, inner: dict) -> float:
        return math.sqrt(process * inner["compute_s"])

    def import_speed(process: float, inner: dict) -> float:
        return inner["import_s"]

    def scaled(sample: tuple[float, float], figure, nominal: float) -> float:
        """nominal times the sample over the mean figure of the reference
        runs just before and just after it."""
        start, wall = sample
        before = max((r for r in refs if r[0] < start), key=lambda r: r[0])
        after = min((r for r in refs if r[0] > start), key=lambda r: r[0])
        return nominal * wall / statistics.fmean(figure(r[1], r[2]) for r in (before, after))

    start = time.perf_counter()
    reference()  # warm-up
    refs.clear()
    while True:
        reference()
        setup()
        job.clear()
        invoked = time.perf_counter()
        rc, wall, mb = spawner.run(["-m", "optfalsify", *job.args], job.stdout, err)
        problems = job.check(rc)
        walls.append((invoked, wall))
        rss.append(mb)
        if problems:
            failures.append(problems + [err.read_text()[-500:]])
        elapsed = time.perf_counter() - start
        median_wall = statistics.median(w for _, w in walls)
        if elapsed + refs[-1][1] + setups[-1][1] + median_wall > seconds:
            break
    reference()
    while len(setups) < MIN_SETUP_SAMPLES:
        setup()
        reference()
    wall_s = [scaled(s, speed, REF_S) for s in walls]
    setup_s = [scaled(s, import_speed, REF_IMPORT_S) for s in setups]
    metrics = {
        "wall_s": {"value": statistics.median(wall_s), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }
    samples = {
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
        "raw_wall_s": [w for _, w in walls],
        "raw_setup_s": [w for _, w in setups],
        "reference_s": [r[1] for r in refs],
        "reference_compute_s": [r[2]["compute_s"] for r in refs],
        "reference_import_s": [r[2]["import_s"] for r in refs],
        "failures": failures,
    }
    return metrics, samples


def trace(job: Job, spawner: Spawner, work: Path, seconds: float) -> tuple[dict, dict]:
    """Per-layer run: pairs of in-process runs, one untraced and one traced,
    repeated for about `seconds` (at least one pair).  The layer metrics come
    from the traced run with the median wall time, so its parts still add up;
    trace.overhead_frac compares it with the median untraced run."""
    err = work / "stderr.txt"
    failures, plain, traced = [], [], []
    start = time.perf_counter()
    while not failures:
        for mode, records in ((["--plain"], plain), ([], traced)):
            job.clear()
            record = work / "record.json"
            record.unlink(missing_ok=True)
            rc, _, _ = spawner.run(
                [str(HERE / "tracer.py"), "--record", str(record), *mode, "--", *job.args],
                job.stdout,
                err,
            )
            doc = json.loads(record.read_text()) if rc == 0 else {"rc": rc}
            problems = job.check(doc["rc"])
            if problems:
                failures.append(problems + [err.read_text()[-500:]])
            records.append(doc)
        elapsed = time.perf_counter() - start
        if elapsed / len(traced) * (len(traced) + 1) > seconds:
            break
    samples = {"pairs": len(traced), "failures": failures}
    if failures:
        return {}, samples
    plain_walls = [doc["wall_s"] for doc in plain]
    median_run = sorted(traced, key=lambda doc: doc["wall_s"])[(len(traced) - 1) // 2]
    values = layer_metrics(
        median_run,
        statistics.median(plain_walls),
        n_trials=job.n_trials,
        csv_rows=job.csv_rows,
        bytes_out=job.bytes_out(),
        cases=job.cases,
    )
    gap = attribution_gap(values)
    if abs(gap) > 1e-6:
        failures.append([f"layer self times miss the traced wall time by {gap:.3e} s"])
    samples.update(
        untraced_wall_s=plain_walls,
        traced_wall_s=[doc["wall_s"] for doc in traced],
        spans=len(median_run["spans"]),
    )
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()
    if ns.seed < 0 or ns.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "optfalsify" / "cli.py").is_file():
        print(f"error: no optfalsify source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / ".work" / f"{ns.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        job = WORKLOADS[ns.workload](ns.seed, work)
        with Spawner(deadline) as spawner:
            if ns.trace:
                metrics, samples = trace(job, spawner, work, ns.seconds)
                attempted = 2 * samples["pairs"]
            else:
                metrics, samples = measure(job, spawner, work, ns.seconds)
                attempted = len(samples["wall_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(samples["failures"])
    ctx = context()
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "context": ctx,
        "metrics": metrics,
        "samples": samples,
    }
    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {ns.workload} seed {ns.seed} trace {ns.trace}")
    print("context " + json.dumps(ctx))
    for problems in samples["failures"]:
        print("FAILED " + "; ".join(problems), file=sys.stderr)
    for name, m in metrics.items():
        extra = ""
        if name in samples and not ns.trace:
            values = samples[name]
            extra = f"  (median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{extra}")
    if not ns.trace:
        for name in ("raw_wall_s", "raw_setup_s", "reference_s", "reference_compute_s",
                     "reference_import_s"):
            values = samples[name]
            print(f"{name:28s} median {statistics.median(values):.6g} s of {len(values)}")
    print(f"failed_frac {failed}/{attempted}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
