"""Spawns and reaps the benchmark's children on behalf of run.py.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout": PATH,
"stderr": PATH, "timeout": SECONDS}``, runs that command to completion and
answers with one JSON line ``{"rc": ..., "wall_s": ..., "peak_rss_mib": ...}``.
Exits at end of input.

This process exists because Linux counts the spawning process's peak RSS in
the child's ``ru_maxrss``: the child starts in the spawner's memory until it
calls exec.  run.py holds numpy and whole output files, so it would inflate
the children's figures; this launcher imports only the standard library and
stays far smaller than any child.  A child still running at its timeout is
killed and reported with the signal's negative exit code.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    lock = threading.Lock()
    running: list[int] = []

    def kill() -> None:
        with lock:
            if running:
                os.kill(running[0], signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        with lock:
            running.append(pid)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        with lock:
            running.clear()
    finally:
        timer.cancel()
        timer.join()
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
