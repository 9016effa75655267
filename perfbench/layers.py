"""Per-layer metrics from one traced run (see tracer.py).

A layer is one module of the optfalsify package.  Span names are
``<layer>.<function>`` for public functions and ``<layer>.<Class>`` for
validating constructors.  A span's self time is its duration minus the
durations of its child spans; each span's self time goes to exactly one
self-time bucket below, so the buckets plus ``trace.unattributed_s`` (the
part of the traced call no top-level span covers) add up to
``trace.wall_s``.
"""

from __future__ import annotations

LAYERS = (
    "linalg",
    "quantum",
    "falsification",
    "coins",
    "classical",
    "postulates",
    "random_ops",
    "serialize",
    "cli",
)

# Dimensions whose eigendecomposition count is reported on its own; any
# other dimension is counted in linalg.eig_calls.d_other.
EIG_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 64)

_JSON_IN = {
    "read_json",
    "json_loads",
    "require_key",
    "number_list",
    "matrix_from_json",
    "object_from_json",
    "declared_from_json",
    "campaign_config_from_json",
}

SELF_TIME_BUCKETS = (
    "linalg.eig_s",
    "linalg.other_s",
    "quantum.construct_s",
    "quantum.theorem_s",
    "falsification.s",
    "coins.sample_s",
    "coins.other_s",
    "classical.s",
    "postulates.self_s",
    "random_ops.s",
    "serialize.csv_s",
    "serialize.json_in_s",
    "serialize.json_out_s",
    "cli.self_s",
)

# Every per-layer metric with its unit, in report order.
UNITS = {
    "linalg.eig_calls": "count",
    **{f"linalg.eig_calls.d{d}": "count" for d in EIG_DIMS},
    "linalg.eig_calls.d_other": "count",
    "linalg.eig_repeat_frac": "ratio",
    "quantum.construct_calls": "count",
    **dict.fromkeys(SELF_TIME_BUCKETS, "s"),
    "coins.draws_per_trial": "draws",
    "coins.trials_per_s": "1/s",
    "serialize.csv_rows_per_s": "1/s",
    "serialize.bytes_out": "B",
    "postulates.cases": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def bucket(name: str) -> str:
    """Self-time bucket of a span name."""
    layer, member = name.split(".", 1)
    if layer == "linalg":
        return "linalg.eig_s" if member == "hermitian_eig" else "linalg.other_s"
    if layer == "quantum":
        return "quantum.construct_s" if member[0].isupper() else "quantum.theorem_s"
    if layer == "coins":
        return "coins.sample_s" if member == "campaign_uniforms" else "coins.other_s"
    if layer == "serialize":
        if member == "write_trace_csv":
            return "serialize.csv_s"
        return "serialize.json_in_s" if member in _JSON_IN else "serialize.json_out_s"
    if layer in ("postulates", "cli"):
        return f"{layer}.self_s"
    if layer in LAYERS:
        return f"{layer}.s"
    raise ValueError(f"span {name!r} belongs to no layer")


def layer_metrics(
    record: dict,
    plain_wall_s: float,
    *,
    n_trials: int,
    csv_rows: int,
    bytes_out: int,
    cases: int,
) -> dict[str, float]:
    """Reduce a tracer record to the per-layer metrics.

    The keyword arguments carry what the trace cannot know: the campaign's
    trial count (0 when the workload runs no campaign), the CSV rows and
    output bytes written, and the postulate cases the check confirmed.
    """
    names, spans = record["names"], record["spans"]
    wall = record["wall_s"]
    child_time = [0.0] * len(spans)
    covered = 0.0
    for _, parent, start, end in spans:
        if parent < 0:
            covered += end - start
        else:
            child_time[parent] += end - start
    buckets = dict.fromkeys(SELF_TIME_BUCKETS, 0.0)
    construct_calls = 0
    campaign_s = 0.0
    for (index, _, start, end), children in zip(spans, child_time):
        name = names[index]
        self_time = (end - start) - children
        if self_time < -1e-9:
            raise ValueError(f"span {name!r} is shorter than its children")
        buckets[bucket(name)] += self_time
        if name.startswith("quantum.") and name[8].isupper():
            construct_calls += 1
        if name == "coins.falsify_campaign":
            campaign_s += end - start

    dims = record["eig_dims"]
    eig_calls = len(dims)
    metrics: dict[str, float] = {
        "linalg.eig_calls": eig_calls,
        **{f"linalg.eig_calls.d{d}": dims.count(d) for d in EIG_DIMS},
        "linalg.eig_calls.d_other": sum(d not in EIG_DIMS for d in dims),
        "linalg.eig_repeat_frac": record["eig_repeats"] / eig_calls if eig_calls else 0.0,
        "quantum.construct_calls": construct_calls,
        **buckets,
        "coins.draws_per_trial": record["draws"] / n_trials if n_trials else 0.0,
        "coins.trials_per_s": n_trials / campaign_s if campaign_s else 0.0,
        "serialize.csv_rows_per_s": (
            csv_rows / buckets["serialize.csv_s"] if csv_rows else 0.0
        ),
        "serialize.bytes_out": bytes_out,
        "postulates.cases": cases,
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / plain_wall_s - 1.0,
        "trace.unattributed_s": wall - covered,
    }
    return metrics


def attribution_gap(metrics: dict[str, float]) -> float:
    """Traced wall time minus the self-time buckets and the unattributed part;
    zero up to rounding when the span tree is consistent."""
    parts = sum(metrics[b] for b in SELF_TIME_BUCKETS) + metrics["trace.unattributed_s"]
    return metrics["trace.wall_s"] - parts
