"""Property-based checks.  Every property runs derandomized, so each run
draws the same examples."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from optfalsify import Effect, QuantumState, hermitian_eig
from optfalsify.cli import main as cli_main
from optfalsify.errors import NotPSDError, OutOfRangeError
from optfalsify.random_ops import random_density_matrix, random_unitary
from optfalsify.serialize import state_to_json

SPECTRUM_TOL = 1e-10

# Signed distance from a cutoff, in steps of 1e-14, so that the drawn
# extreme eigenvalues land near it.  Effect and hermitian_eig read their
# eigenvalues from the same eigh call, so they see the same bits at any
# distance.
offsets = st.integers(-1000, 1000).filter(bool).map(lambda k: k * 1e-14)


def _verdict(matrix):
    try:
        Effect(matrix)
    except (NotPSDError, OutOfRangeError) as exc:
        return type(exc)
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    above_one=offsets,
    below_zero=offsets,
)
def test_effect_verdict_matches_hermitian_eig(dim, seed, above_one, below_zero):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, dim)
    w[0] = 1.0 + SPECTRUM_TOL + above_one
    w[-1] = -SPECTRUM_TOL + below_zero
    u = random_unitary(dim, rng)
    m = (u * w) @ u.conj().T
    values = hermitian_eig(m).values
    if values[-1] < -SPECTRUM_TOL:
        expected = NotPSDError
    elif values[0] > 1.0 + SPECTRUM_TOL:
        expected = OutOfRangeError
    else:
        expected = None
    assert _verdict(m) is expected


# Malformed CLI configs: one mutation of a valid config must end in exit 0
# (still valid) or 2 (typed error), never an untyped exception or exit 1.
BIG = 10**400
REPLACEMENTS = ("x", True, False, float("nan"), float("inf"), -float("inf"), BIG,
                -3, -0.5, [], [1.0], [[0.5, 0.5]])


def _state_doc(dim, seed):
    return state_to_json(QuantumState(random_density_matrix(dim, np.random.default_rng(seed))))


CONFIGS = [
    ("sample", {"declared": {"probs": [0.2, 0.3, 0.5], "phases": [0.1, 0.2, 0.3]},
                "n_trials": 500, "seed": 3}),
    ("sample", {"declared": {"p": 0.3, "phi": 0.7}, "n_trials": 200, "seed": 1}),
    ("classical-baseline", {"declared_p": 0.3, "true_p": 0.5, "n_trials": 400, "seed": 2}),
    ("classical-baseline", {"declared_p": 1.0, "outcomes": [0, 1, 1]}),
    ("falsify-coin", {"declared": {"p": 0.5, "phi": 0.0}, "true_state": _state_doc(2, 5),
                      "n_trials": 300, "seed": 4}),
    *(("purify", _state_doc(dim, dim)) for dim in (1, 2, 3, 4)),
]
CSV_COMMANDS = ("sample", "falsify-coin")


def _paths(doc, prefix=()):
    """Every node of a JSON document, as a key/index path from the root."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, replacement):
    """Copy of doc with the node at path dropped (replacement None) or replaced."""
    doc = copy.deepcopy(doc)
    if not path:
        return {} if replacement is None else replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def _run(tmp_path, command, text):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    args = [command, "--config", str(config), "--out", str(tmp_path / "out.json")]
    if command in CSV_COMMANDS:
        args += ["--csv", str(tmp_path / "trace.csv")]
    return cli_main(args)


@st.composite
def malformed_configs(draw):
    command, doc = draw(st.sampled_from(CONFIGS))
    path = draw(st.sampled_from(list(_paths(doc))))
    replacement = draw(st.sampled_from((None,) + REPLACEMENTS))
    # A valid trial count stays small: 10^400 trials would never finish.
    assume(not (path[-1:] == ("n_trials",) and replacement == BIG))
    return command, _mutated(doc, path, replacement)


@settings(derandomize=True, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed_configs())
def test_malformed_config_exits_zero_or_two(case, tmp_path):
    command, doc = case
    assert _run(tmp_path, command, json.dumps(doc).encode("ascii")) in (0, 2)


@pytest.mark.parametrize("command", sorted({c for c, _ in CONFIGS}))
def test_non_utf8_config_exits_two(command, tmp_path, capsys):
    assert _run(tmp_path, command, b'{"seed": "\xff"}') == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"[1" + b"0" * 5000 + b"]", b"[" * 200_000])
def test_unparsable_config_exits_two(text, tmp_path, capsys):
    # An integer beyond Python's digit limit, and nesting beyond its
    # recursion limit.
    assert _run(tmp_path, "purify", text) == 2
    assert "invalid JSON" in capsys.readouterr().err
