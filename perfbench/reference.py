"""Fixed reference program, timed next to every measured invocation.

    python3 perfbench/reference.py

It uses nothing of ``optfalsify``, so no change to the program under test
can move it.  It does a little of each kind of work the workloads do:
interpreter start and ``import numpy``; Python loops around many tiny numpy
operations (the kind of work the Jacobi eigensolver does) and around string
formatting (the kind the CSV writer does); and drawing and counting a large
block of numpy uniforms (the kind the campaign does).

It prints one JSON line, ``{"import_s": ..., "compute_s": ...}``: the time
of ``import numpy`` and of the two loops, measured inside the process.  The
harness also times the whole process.  It divides each invocation's time by
the geometric mean of the whole-process and loop times, and each set-up
sample by the import time (see README, "Steadiness").
"""

import json
import time

_start = time.perf_counter()
import numpy as np  # noqa: E402  (timed)

IMPORT_S = time.perf_counter() - _start

N_ROT = 20_000
N_ROWS = 200_000
N_UNIFORMS = 8_000_000


def rotations(n: int) -> complex:
    """Unitary plane rotations of the columns of a small complex matrix, one
    2x2 block product at a time: interpreter work around many tiny numpy
    operations.  The rotations keep the entries' scale, so no value drifts
    towards subnormal numbers."""
    d = 8
    idx = np.arange(d * d).reshape(d, d)
    a = (idx % 7 + 1j * (idx % 5)).astype(complex)
    c, s = 0.8, 0.6
    acc = 0j
    for k in range(n):
        p, q = k % d, (k * 3 + 1) % d
        if p == q:
            continue
        mag = abs(a[p, q])
        phase = a[p, q] / mag if mag > 0.0 else 1.0
        g = np.array([[c, s], [-s * np.conj(phase), c * np.conj(phase)]], dtype=complex)
        cols = a[:, (p, q)] @ g
        a[:, p] = cols[:, 0]
        a[:, q] = cols[:, 1]
        acc += np.sqrt(abs(a[p, p]))
    return acc


def rows(n: int) -> int:
    """Formats n comma-separated rows in memory."""
    size = 0
    for i in range(n):
        size += len(",".join([str(i), "FALSIFIED" if i % 3 else "passed", repr(0.5), "7"]))
    return size


def uniforms(n: int) -> int:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    return int(np.count_nonzero(rng.random(n) < 0.5))


if __name__ == "__main__":
    start = time.perf_counter()
    rotations(N_ROT)
    rows(N_ROWS)
    compute_s = time.perf_counter() - start
    uniforms(N_UNIFORMS)
    print(json.dumps({"import_s": IMPORT_S, "compute_s": compute_s}))
