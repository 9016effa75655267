"""Named source mutants, each of which the tier-1 tests must kill.

    python3 tests/mutants.py [--rev REV] [--tests PATH ...]

Run from the repository root.  The tree of REV (default HEAD) is exported by
``git archive`` to a temporary directory, and the tier-1 command runs there,
first on the tree as it is, which must pass, and then once per mutant with
that mutant's edits applied to a fresh copy.  A mutant is killed when the
run fails; it survives when the run passes.  --tests runs only the named
test paths (pytest node ids) instead of the whole suite.  The repository's
own files are never edited.

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when the
unmutated tree fails or a mutant's text is not found exactly once.

To try uncommitted work, stage it and pass ``--rev "$(git stash create)"``.

Each mutant is a name, what it breaks, and its edits: (file, exact text,
replacement).  pytest does not collect this file and CI does not run it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]  # fmt: skip

MUTANTS = [
    (
        "suite-trace-criterion",
        "the discrimination suite's SVD route decides by Tr(P_rho P_nu), which calls "
        "supports turned by up to about 1e-4 orthogonal where the library does not",
        [(
            "src/optfalsify/postulates.py",
            "overlaps = np.abs(p[a] @ p[b]).max(axis=(1, 2))",
            "overlaps = np.abs(np.trace(p[a] @ p[b], axis1=1, axis2=2))",
        )],
    ),
    (
        "zero-kernels-given-effects",
        "_falsifiers validates every kernel as an Effect, so a full-rank state's "
        "zero kernel becomes a falsifier instead of None",
        [(
            "src/optfalsify/theorems.py",
            "    found = iter(_effects([k for k in kernels if not _is_zero(k)]))\n"
            "    return [None if _is_zero(k) else next(found) for k in kernels]\n",
            "    return _effects(kernels)\n",
        )],
    ),
    (
        "no-identity-for-identical-purifications",
        "_connecting_unitaries returns the SVD's polar factor, not I, when the two "
        "purifications are the same vector",
        [("src/optfalsify/theorems.py", "    u[same] = np.eye(shape[2])\n", "")],
    ),
    (
        "missing-freeze",
        "cli.entry exits without gc.freeze(), so shutdown tears down the module graph",
        [("src/optfalsify/cli.py", "    finally:\n        gc.freeze()\n", "    finally:\n        pass\n")],
    ),
    (
        "freeze-inside-main",
        "the freeze moves from cli.entry into cli.main, which in-process callers run",
        [
            ("src/optfalsify/cli.py", "    finally:\n        gc.freeze()\n", "    finally:\n        pass\n"),
            (
                "src/optfalsify/cli.py",
                "    ns = _build_parser().parse_args(argv)\n",
                "    gc.freeze()\n    ns = _build_parser().parse_args(argv)\n",
            ),
        ],
    ),
]


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout  # fmt: skip
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def mutate(tree: Path, edits: list) -> str | None:
    """Apply edits in tree; the error when a text is not found exactly once."""
    for name, old, new in edits:
        path = tree / name
        text = path.read_text()
        if text.count(old) != 1:
            return f"{name}: the text to replace occurs {text.count(old)} times, not once"
        path.write_text(text.replace(old, new))
    return None


def passes(tree: Path, tests: list[str]) -> bool:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(TIER1 + tests, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in [line for line in lines if line.startswith("FAILED")] + lines[-1:]:
        print(f"    {line}", flush=True)
    return proc.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="revision to mutate (default HEAD)")
    parser.add_argument("--tests", nargs="*", default=[], help="test paths instead of tier-1")
    ns = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        export(ns.rev, clean)
        print("unmutated tree", flush=True)
        if not passes(clean, ns.tests):
            print("the unmutated tree fails; no mutant can be judged")
            return 2
        survivors, stale = [], []
        for name, what, edits in MUTANTS:
            tree = Path(tmp, name)
            shutil.copytree(clean, tree)
            print(f"{name}: {what}", flush=True)
            error = mutate(tree, edits)
            if error:
                print(f"    stale: {error}")
                stale.append(name)
            elif passes(tree, ns.tests):
                survivors.append(name)
            shutil.rmtree(tree)
    killed = len(MUTANTS) - len(survivors) - len(stale)
    print(f"{killed} of {len(MUTANTS)} killed; survivors: {', '.join(survivors) or 'none'}"
          + (f"; stale: {', '.join(stale)}" if stale else ""))
    return 2 if stale else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
