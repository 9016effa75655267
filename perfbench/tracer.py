"""One in-process run of the opt-falsify CLI, optionally traced.

    python3 perfbench/tracer.py --record PATH [--plain] -- <opt-falsify args>

Imports optfalsify, then times a single call of ``optfalsify.cli.main(argv)``.
Without ``--plain`` it first wraps the public functions and the validating
constructors of the package's layer modules (see ``layers.LAYERS``), so that
each call into a layer records a span.  Modules import names directly
(``from .linalg import hermitian_eig``), so a function is replaced at every
module binding that refers to it, its home module included.  A call from
inside the function's own module records no span and counts as the caller's
own work, except for ``hermitian_eig`` and ``campaign_uniforms``, which
carry counts and are traced wherever they are called.  Constructors are
wrapped at the class.  The timed call of ``cli.main`` is the root span.
Spans (name, parent span, start, end) stay in memory and are written to
PATH as JSON when the call returns, with the call's wall time and exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

from layers import LAYERS


class Tracer:
    """Span recorder.  Span i is ``[name_index, parent_index, start, end]``;
    the root call has parent -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.eig_dims: list[int] = []
        self.eig_repeats = 0
        self.eig_seen: set[tuple] = set()
        self.draws = 0

    def wrap(self, name: str, fn, before=None, skip_from=None):
        """Span-recording wrapper; calls whose caller runs with globals
        ``skip_from`` pass straight through."""
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_from is not None and sys._getframe(1).f_globals is skip_from:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = [index, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _eig_input(self, args, kwargs) -> None:
        a = np.asarray(args[0] if args else kwargs["m"], dtype=complex)
        key = (a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
        self.eig_dims.append(int(a.shape[0]) if a.ndim else 0)
        if key in self.eig_seen:
            self.eig_repeats += 1
        else:
            self.eig_seen.add(key)

    def _uniform_draws(self, args, kwargs) -> None:
        self.draws += int(args[1] if len(args) > 1 else kwargs["n_trials"])

    def install(self) -> None:
        """Wrap the layer modules' public functions and validating constructors."""
        package = importlib.import_module("optfalsify")
        modules = [package] + [
            importlib.import_module(f"optfalsify.{m}")
            for m in ("errors",) + LAYERS
        ]
        hooks = {
            "linalg.hermitian_eig": self._eig_input,
            "coins.campaign_uniforms": self._uniform_draws,
        }
        for layer in LAYERS:
            home = importlib.import_module(f"optfalsify.{layer}")
            for attr, obj in list(vars(home).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != home.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    skip = None if name in hooks else vars(home)
                    wrapped = self.wrap(name, obj, hooks.get(name), skip)
                    for module in modules:
                        _rebind(module, obj, wrapped)
                elif dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                    obj.__init__ = self.wrap(name, obj.__init__)

    def record(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "eig_dims": self.eig_dims,
            "eig_repeats": self.eig_repeats,
            "draws": self.draws,
        }


def _rebind(module, original, replacement) -> None:
    """Point every name in module that refers to original at replacement."""
    for attr, value in list(vars(module).items()):
        if value is original:
            setattr(module, attr, replacement)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="JSON file to write")
    parser.add_argument("--plain", action="store_true", help="time without tracing")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.argv[1:] if ns.argv[:1] == ["--"] else ns.argv

    import optfalsify.cli as cli

    tracer = None if ns.plain else Tracer()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    doc = {"rc": rc, "wall_s": wall}
    if tracer is not None:
        doc.update(tracer.record())
    with open(ns.record, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
