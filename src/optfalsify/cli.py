"""Command line interface.

Exit codes: 0 on completed runs (falsification verdicts are results, not
errors), 1 when the postulate suite reports failures, 2 on validation or
configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

from . import linalg, serialize
from .coins import (
    classical_verdict,
    count_classical_coin,
    count_generator,
    falsify_campaign,
)
from .errors import OptFalsifyError, OutOfRangeError, SchemaError
from .postulates import KNOWN_FAULTS, run_postulate_checks
from .quantum import purify

ENV_SEED = "OPT_FALSIFY_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by the subcommands.

    master_seed is the seed given on the command line, or None when the
    caller left it to the config file / environment fallback.
    """

    command: str
    config_path: str | None = None
    master_seed: int | None = None
    rank_tol: float = linalg.DEFAULT_RANK_TOL
    n_trials: int | None = None
    out_path: str | None = None
    csv_path: str | None = None
    dims: tuple[int, ...] = (2, 3, 4)
    inject_fault: str | None = None

    def __post_init__(self) -> None:
        if self.master_seed is not None and self.master_seed < 0:
            raise OutOfRangeError("seed must be a non-negative integer")
        if not 0.0 < self.rank_tol < 1e-4:
            raise OutOfRangeError(
                f"rank tolerance {self.rank_tol!r} outside (0, 1e-4)"
            )
        if self.n_trials is not None and self.n_trials < 1:
            raise OutOfRangeError("trial count must be at least 1")


def _parse_dims(text: str) -> tuple[int, ...]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..4, got {text!r}"
        )
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad dimension range {text!r}")
    return tuple(range(lo, hi + 1))


def _resolve_seed(cli_seed: int | None, config_seed: int | None) -> int:
    """Priority: --seed flag, then config value, then $OPT_FALSIFY_SEED, then 0."""
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise OutOfRangeError(f"{ENV_SEED} must be an integer, got {env!r}")
        if seed < 0:
            raise OutOfRangeError(f"{ENV_SEED} must be non-negative")
        return seed
    return 0


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
    # The config dict is not kept: at d = 64 it holds thousands of boxed
    # floats that would otherwise stay alive through the eigendecomposition.
    rho = serialize.object_from_json(_load_config_doc(cfg), "config")
    pur = purify(rho, rank_tol=cfg.rank_tol)
    _emit_doc(cfg, serialize.purification_to_json(pur))
    print(
        f"purified dim-{pur.dim_a} state into environment dim {pur.dim_b}",
        file=sys.stderr,
    )
    return 0


def cmd_falsify_coin(cfg: RunConfig) -> int:
    doc = _load_config_doc(cfg)
    declared, true_state, n_trials, config_seed = serialize.campaign_config_from_json(
        doc
    )
    if cfg.n_trials is not None:
        n_trials = cfg.n_trials
    seed = _resolve_seed(cfg.master_seed, config_seed)
    trace = None
    if cfg.csv_path:

        def trace(rate, fired_chunks):
            serialize.write_trace_csv(
                cfg.csv_path, ("INCONCLUSIVE", "FALSIFIED"), rate, seed,
                codes=fired_chunks,
            )

    report = falsify_campaign(
        declared, true_state, n_trials, seed, rank_tol=cfg.rank_tol, trace=trace
    )
    _emit_doc(cfg, serialize.report_to_json(report))
    print(
        f"verdict {report.verdict}: {report.n_falsified}/{report.n_trials} "
        f"falsifying outcomes (theoretical rate {report.theoretical_rate:.6g})",
        file=sys.stderr,
    )
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    doc = _load_config_doc(cfg)
    declared = serialize.declared_from_json(
        serialize.require_key(doc, "declared", dict, "config")
    )
    n_trials = cfg.n_trials
    if n_trials is None:
        n_trials = serialize.require_key(doc, "n_trials", int, "config")
    seed = _resolve_seed(cfg.master_seed, serialize.config_seed(doc))
    trace = None
    if cfg.csv_path:

        def trace(probs, code_chunks):
            serialize.write_trace_csv(
                cfg.csv_path, range(len(probs)), probs, seed, codes=code_chunks
            )

    probs, counts = count_generator(declared, n_trials, seed, trace=trace)
    report = {
        "n_trials": int(n_trials),
        "seed": int(seed),
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
    seed = _resolve_seed(cfg.master_seed, None)
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
            "seed": int(seed),
            "dims": [int(d) for d in cfg.dims],
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
        if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1):
            raise SchemaError(f"config: outcomes[{i}] must be 0 or 1")
    n_one = sum(seq)
    return len(seq) - n_one, n_one


def cmd_classical_baseline(cfg: RunConfig) -> int:
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
        n_trials = cfg.n_trials
        if n_trials is None:
            n_trials = serialize.require_key(doc, "n_trials", int, "config")
        seed = _resolve_seed(cfg.master_seed, serialize.config_seed(doc))
        n_zero, n_one = count_classical_coin(true_p, n_trials, seed)
        extra = {"true_p": float(true_p)}
    verdict = classical_verdict(declared_p, n_zero, n_one, bias_tol=cfg.rank_tol)
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
                                   help=f"master seed (fallback: config, then ${ENV_SEED})")),
    "n_trials": ("--trials", dict(type=int, metavar="N",
                                  help="override the configured trial count")),
    "rank_tol": ("--rank-tol", dict(type=float, metavar="X",
                                    help="relative eigenvalue cutoff for supports")),
    "out_path": ("--out", dict(metavar="PATH",
                               help="write the JSON report here instead of stdout")),
    "csv_path": ("--csv", dict(metavar="PATH", help="write a per-trial CSV trace")),
    "dims": ("--dims", dict(type=_parse_dims, metavar="A..B",
                            help="dimension range to exercise")),
    "inject_fault": ("--inject-fault", dict(choices=KNOWN_FAULTS, metavar="NAME",
                                            help="deliberately break one check (self-test)")),
}

# Subcommand name: (handler, help text, the RunConfig options it takes).
_SUBCOMMANDS = {
    "purify": (cmd_purify, "purify a density matrix into a minimal pure dilation",
               {"config_path", "rank_tol", "out_path"}),
    "falsify-coin": (cmd_falsify_coin, "run a Monte Carlo falsification campaign",
                     {"config_path", "master_seed", "n_trials", "rank_tol",
                      "out_path", "csv_path"}),
    "sample": (cmd_sample, "draw outcomes from a declared generator",
               {"config_path", "master_seed", "n_trials", "out_path", "csv_path"}),
    "check-postulates": (cmd_check_postulates, "re-run the dual-route property suites",
                         {"master_seed", "out_path", "dims", "inject_fault"}),
    "classical-baseline": (cmd_classical_baseline,
                           "judge falsifiability of a classical coin",
                           {"config_path", "master_seed", "n_trials", "rank_tol",
                            "out_path"}),
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
