"""Paired benchmark runs of a parent revision and a change.

    python3 tools/pairs.py --parent REV --tag TAG --claim WORKLOAD
        --first-seed N [--controls W ...] [--change REV]

Run from the repository root.  Both sides are exported to a temporary
directory: the parent by ``git archive REV``, the change by ``git archive``
of --change, or, by default, as the working tree's files that ``git add -A``
would commit.  Each side runs its own, unchanged ``perfbench/run.py --trace 0``
for the run_seconds of BENCHMARK.json; a run's result is the last line of its
standard output.

Every workload runs PAIRS = 10 pairs, fixed here before any run; every pair
is run, and nothing stops early or adds pairs after a look.
Pair i of a workload runs both sides on seed first_seed + i, the parent first
when i is even and the change first when it is odd.  The claim workload takes
seeds from --first-seed on, and each control the next unused block.

The gain rule, applied to each end-to-end metric of the claim workload: the
change gains when it wins at least 9 of every 10 pairs (ties count for
neither side) and its median beats the parent's median by more than the
parent's interquartile range.  Quartiles are the "inclusive" method of
statistics.quantiles, which is numpy.percentile's linear one.

The record goes to BENCH_<TAG>.json in the form of BENCH_pr22.json: each
metric's quartiles on both sides, the pairs won, the median change and the gap
in parent IQRs, with the machine, whether the children compiled src/ from
source (PYTHONDONTWRITEBYTECODE), the BLAS thread variables the runs
inherited, the src/ line count of each side, and every run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PAIRS = 10


def quartiles(values: list[float]) -> list[float]:
    """[q25, median, q75] of values."""
    q25, median, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return [q25, median, q75]


def compare(parent: list[float], change: list[float], lower_is_better: bool = True) -> dict:
    """The paired comparison of one metric: parent[i] and change[i] are pair i.
    "gain" applies the rule in the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    qp, qc = quartiles(parent), quartiles(change)
    iqr = qp[2] - qp[0]
    lead = sign * (qp[1] - qc[1])
    return {
        "parent_q25_median_q75": [round(q, 4) for q in qp],
        "change_q25_median_q75": [round(q, 4) for q in qc],
        "pairs": len(parent),
        "change_better_pairs": won,
        "median_change_frac": round((qc[1] - qp[1]) / qp[1], 4) if qp[1] else None,
        "median_gap_over_parent_iqr": round(lead / iqr, 2) if iqr else None,
        "gain": 10 * won >= 9 * len(parent) and lead > iqr,
    }


def summarize(runs: list[dict], workload: str, metrics: dict[str, bool]) -> dict:
    """Per-metric comparisons of one workload's runs; metrics maps each
    end-to-end metric to whether lower is better."""
    sides = {tree: [r for r in runs if r["workload"] == workload and r["tree"] == tree]
             for tree in ("parent", "change")}
    seeds = [r["seed"] for r in sides["parent"]]
    if seeds != [r["seed"] for r in sides["change"]]:
        raise ValueError(f"{workload}: the two sides ran different seeds")
    out = {}
    for name, lower in metrics.items():
        values = {tree: [r["result"]["metrics"][name]["value"] for r in rs]
                  for tree, rs in sides.items()}
        out[name] = compare(values["parent"], values["change"], lower)
    for key in ("failed", "attempted"):
        out[key] = {tree: sum(r["result"][key] for r in rs) for tree, rs in sides.items()}
    out["correct"] = all(r["result"]["correct"] for rs in sides.values() for r in rs)
    out["seeds"] = seeds
    return out


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], check=True, capture_output=True, **kwargs)


def export(rev: str | None, dest: Path) -> str:
    """Write rev's tree (None: the working tree's files that git add -A would
    commit) to dest; returns the commit, with "+working tree" for None."""
    dest.mkdir(parents=True)
    if rev is None:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
        for name in filter(None, listed.decode().split("\0")):
            if Path(name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(name, dest / name)
        return _git("rev-parse", "HEAD", text=True).stdout.strip() + "+working tree"
    archive = _git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return _git("rev-parse", rev, text=True).stdout.strip()


def src_lines(tree: Path) -> int:
    """Lines of src/optfalsify/*.py, as `cat src/optfalsify/*.py | wc -l`."""
    return sum(len(p.read_bytes().splitlines()) for p in (tree / "src/optfalsify").glob("*.py"))


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one run.py run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )  # fmt: skip
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", help="revision of the change (default: the working tree)")
    parser.add_argument("--tag", required=True, help="the record goes to BENCH_<TAG>.json")
    parser.add_argument("--claim", required=True, help="workload whose gain is judged")
    parser.add_argument("--controls", nargs="*", default=[], help="workloads that must not move")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="first seed; use seeds not run while writing the change")
    ns = parser.parse_args()

    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    plan = [
        (workload, list(range(ns.first_seed + k * PAIRS, ns.first_seed + (k + 1) * PAIRS)))
        for k, workload in enumerate([ns.claim, *ns.controls])
    ]

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        commits = {"parent": export(ns.parent, trees["parent"]),
                   "change": export(ns.change, trees["change"])}
        lines = {tree: src_lines(path) for tree, path in trees.items()}
        for workload, seeds in plan:
            for i, s in enumerate(seeds):
                for tree in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = bench(trees[tree], workload, s, seconds)
                    runs.append({"tree": tree, "workload": workload, "seed": s,
                                 "trace": 0, "result": result})
                    print(f"{workload} seed {s} {tree}: "
                          + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                          file=sys.stderr, flush=True)

    tables = {w: summarize(runs, w, metrics) for w, _ in plan}
    record = {
        "what": (
            f"perfbench/run.py on {commits['parent']} (parent) and {commits['change']} "
            f"(change), each run from its own export, alternating which side runs first "
            f"pair by pair, at --seconds {seconds} --trace 0; {PAIRS} pairs per workload, "
            "fixed before the first run. A pair is won when the change reads better; the gap is "
            "(parent median - change median) / parent IQR. Gain rule (tools/pairs.py): at "
            "least 9 of 10 pairs won and a median gap above the parent's IQR"
        ),
        "command": COMMAND.replace(" S ", f" {seconds} "),
        "machine": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpus": os.cpu_count(),
            "note": "shared machine; run.py scales times by perfbench/reference.py",
        },
        "bytecode": (
            "compiled from source in every child (PYTHONDONTWRITEBYTECODE is set)"
            if os.environ.get("PYTHONDONTWRITEBYTECODE")
            else "cached after each export's first run"
        ),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "commits": commits,
        "src_lines": lines,
        "claim": {ns.claim: tables[ns.claim]},
        "controls": {w: tables[w] for w, _ in plan[1:]},
        "runs": runs,
    }
    out = Path(f"BENCH_{ns.tag}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    gains = [m for m in metrics if tables[ns.claim][m]["gain"]]
    print(f"{out}: gain on {', '.join(gains) if gains else 'no metric'} of {ns.claim}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
