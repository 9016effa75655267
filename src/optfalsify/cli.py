"""Command line interface.

Exit codes: 0 on completed runs (falsification verdicts are results, not
errors), 1 when the postulate suite reports failures, 2 on validation or
configuration errors.

Each subcommand's handler imports the modules it runs, so that a subcommand
loads no module it does not use.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict, dataclass

from . import serialize
from .errors import OptFalsifyError, OutOfRangeError, SchemaError
from .linalg import BAD_SEED, BAD_TRIALS, _check_int, _read_dims


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by the subcommands.

    master_seed is the seed given on the command line, or None when the
    caller left it to the config file (then 0); dims is read by
    linalg._read_dims.
    """

    command: str
    config_path: str | None = None
    master_seed: int | None = None
    n_trials: int | None = None
    out_path: str | None = None
    csv_path: str | None = None
    dims: tuple[int, ...] = (2, 3, 4)
    inject_fault: str | None = None

    def __post_init__(self) -> None:
        if self.master_seed is not None:
            _check_int(self.master_seed, 0, OutOfRangeError, BAD_SEED)
        if self.n_trials is not None:
            _check_int(self.n_trials, 1, OutOfRangeError, BAD_TRIALS)
        object.__setattr__(self, "dims", _read_dims(self.dims))


def _parse_dims(text: str) -> range:
    # A bounded prefix, so that a long value cannot flood stderr.
    quoted = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected a range like 2..4, got {quoted}")
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:  # a bound beyond Python's integer digit limit
        raise argparse.ArgumentTypeError("dimension bound too long to read") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad dimension range {quoted}")
    return range(lo, hi + 1)


def _trials_and_seed(cfg: RunConfig, doc: dict) -> tuple[int, int]:
    """The trial count (--trials, else the config value, then required) and
    the seed (--seed, else the config value, else 0) of a run that draws.
    The config values are validated even when the flags override them."""
    n_trials = serialize.config_int(doc, "n_trials", 1)
    seed = serialize.config_int(doc, "seed", 0) or 0
    if cfg.n_trials is not None:
        n_trials = cfg.n_trials
    elif n_trials is None:
        raise SchemaError("config: missing key 'n_trials'")
    return n_trials, seed if cfg.master_seed is None else cfg.master_seed


def _emit_doc(cfg: RunConfig, doc: dict) -> None:
    if cfg.out_path:
        serialize.write_json(cfg.out_path, doc)
    else:
        print(serialize.json_dumps(doc))


def _load_config_doc(cfg: RunConfig) -> dict:
    if not cfg.config_path:
        raise SchemaError(f"{cfg.command} requires --config")
    doc = serialize.read_json(cfg.config_path)
    if not isinstance(doc, dict):
        raise SchemaError("config file must contain a JSON object")
    return doc


def cmd_purify(cfg: RunConfig) -> int:
    from .quantum import purify

    # The config dict is not kept: at d = 64 it holds thousands of boxed
    # floats that would otherwise stay alive through the eigendecomposition.
    rho = serialize.object_from_json(_load_config_doc(cfg), "config")
    pur = purify(rho)
    _emit_doc(cfg, serialize.purification_to_json(pur))
    print(
        f"purified dim-{pur.dim_a} state into environment dim {pur.dim_b}",
        file=sys.stderr,
    )
    return 0


def cmd_falsify_coin(cfg: RunConfig) -> int:
    from .coins import falsify_campaign

    doc = _load_config_doc(cfg)
    declared = serialize.declared_from_json(
        serialize.require_key(doc, "declared", dict, "config")
    )
    true_state = serialize.object_from_json(
        serialize.require_key(doc, "true_state", dict, "config"), "config.true_state"
    )
    n_trials, seed = _trials_and_seed(cfg, doc)
    trace = functools.partial(serialize.write_trace_csv, cfg.csv_path) if cfg.csv_path else None
    report = falsify_campaign(declared, true_state, n_trials, seed, trace=trace)
    _emit_doc(cfg, asdict(report))
    print(
        f"verdict {report.verdict}: {report.n_falsified}/{report.n_trials} "
        f"falsifying outcomes (theoretical rate {report.theoretical_rate:.6g})",
        file=sys.stderr,
    )
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    from .coins import count_generator

    doc = _load_config_doc(cfg)
    declared = serialize.declared_from_json(
        serialize.require_key(doc, "declared", dict, "config")
    )
    n_trials, seed = _trials_and_seed(cfg, doc)
    trace = functools.partial(serialize.write_trace_csv, cfg.csv_path) if cfg.csv_path else None
    probs, counts = count_generator(declared, n_trials, seed, trace=trace)
    report = {
        "n_trials": n_trials,
        "seed": seed,
        "probs": [float(p) for p in probs],
        "counts": [int(c) for c in counts],
        "frequencies": [float(c / n_trials) for c in counts],
    }
    _emit_doc(cfg, report)
    print(
        f"sampled {n_trials} outcomes from the declared generator (seed {seed})",
        file=sys.stderr,
    )
    return 0


def cmd_check_postulates(cfg: RunConfig) -> int:
    from .postulates import run_postulate_checks

    seed = cfg.master_seed or 0
    results = run_postulate_checks(dims=cfg.dims, seed=seed, fault=cfg.inject_fault)
    all_passed = all(r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        worst = "inf" if math.isinf(r.worst) else f"{r.worst:.3e}"
        line = (
            f"{status} {r.name} (cases={r.cases}, worst={worst}, "
            f"bound={r.bound:.1e})"
        )
        if r.note:
            line += f" -- {r.note}"
        print(line)
    if cfg.out_path:
        doc = {
            "seed": seed,
            "dims": list(cfg.dims),
            "fault": cfg.inject_fault,
            "all_passed": all_passed,
            "results": [
                {**asdict(r), "worst": r.worst if math.isfinite(r.worst) else None}
                for r in results
            ],
        }
        serialize.write_json(cfg.out_path, doc)
    print(
        f"{sum(r.passed for r in results)}/{len(results)} properties passed",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def _outcome_counts(doc: dict) -> tuple[int, int]:
    """(n_zero, n_one) of the config's outcome list."""
    seq = serialize.require_key(doc, "outcomes", list, "config")
    for i, v in enumerate(seq):
        message = f"config: outcomes[{i}] must be 0 or 1"
        if _check_int(v, 0, SchemaError, message) > 1:
            raise SchemaError(message)
    n_one = sum(seq)
    return len(seq) - n_one, n_one


def cmd_classical_baseline(cfg: RunConfig) -> int:
    from .coins import classical_verdict, count_classical_coin

    doc = _load_config_doc(cfg)
    declared_p = serialize.require_key(doc, "declared_p", float, "config")
    seed = None
    extra = {}
    if "outcomes" in doc:
        n_zero, n_one = _outcome_counts(doc)
    else:
        true_p = (
            serialize.require_key(doc, "true_p", float, "config")
            if "true_p" in doc
            else declared_p
        )
        n_trials, seed = _trials_and_seed(cfg, doc)
        n_zero, n_one = count_classical_coin(true_p, n_trials, seed)
        extra = {"true_p": float(true_p)}
    verdict = classical_verdict(declared_p, n_zero, n_one)
    report = {
        "declared_p": float(declared_p),
        **extra,
        "n_trials": n_zero + n_one,
        "n_zero": n_zero,
        "n_one": n_one,
        "seed": seed,
        "verdict": verdict.value,
    }
    _emit_doc(cfg, report)
    print(f"verdict {verdict.value}", file=sys.stderr)
    return 0


# Every RunConfig option: its flag and add_argument spec, in --help order.
# The defaults live in RunConfig alone: an option left off the command line
# is absent from the namespace, so RunConfig(**vars(ns)) fills it in.
_OPTIONS = {
    "config_path": ("--config", dict(required=True, metavar="PATH",
                                     help="JSON input document")),
    "master_seed": ("--seed", dict(type=int, metavar="N",
                                   help="master seed (fallback: the config's seed, then 0)")),
    "n_trials": ("--trials", dict(type=int, metavar="N",
                                  help="override the configured trial count")),
    "out_path": ("--out", dict(metavar="PATH",
                               help="write the JSON report here instead of stdout")),
    "csv_path": ("--csv", dict(metavar="PATH", help="write a per-trial CSV trace")),
    "dims": ("--dims", dict(type=_parse_dims, metavar="A..B",
                            help="dimension range to exercise")),
    "inject_fault": ("--inject-fault", dict(metavar="NAME",
                                            help="deliberately break one check (self-test)")),
}

# Subcommand name: (handler, help text, the RunConfig options it takes).
_SUBCOMMANDS = {
    "purify": (cmd_purify, "purify a density matrix into a minimal pure dilation",
               {"config_path", "out_path"}),
    "falsify-coin": (cmd_falsify_coin, "run a Monte Carlo falsification campaign",
                     {"config_path", "master_seed", "n_trials", "out_path",
                      "csv_path"}),
    "sample": (cmd_sample, "draw outcomes from a declared generator",
               {"config_path", "master_seed", "n_trials", "out_path", "csv_path"}),
    "check-postulates": (cmd_check_postulates, "re-run the dual-route property suites",
                         {"master_seed", "out_path", "dims", "inject_fault"}),
    "classical-baseline": (cmd_classical_baseline,
                           "judge falsifiability of a classical coin",
                           {"config_path", "master_seed", "n_trials", "out_path"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opt-falsify",
        description=(
            "Simulate falsification tests on quantum and classical random "
            "generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for field, (flag, spec) in _OPTIONS.items():
            if field in options:
                sp.add_argument(flag, dest=field, default=argparse.SUPPRESS, **spec)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[ns.command][0](RunConfig(**vars(ns)))
    except (OptFalsifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
