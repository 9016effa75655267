"""JSON and CSV interchange.

Matrix literal: {"rows": r, "cols": c, "re": [...], "im": [...]} with
row-major entry lists.  Typed objects extend the literal with a "kind"
discriminator: "state" is read and written, "purification" only written.
Floats are always emitted with 17 significant digits so that emit/parse
round-trips are exact and identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Any, Iterator

import numpy as np

from .coins import CampaignReport, NaryGenerator, make_coin, make_nary
from .errors import OutOfRangeError, SchemaError
from .quantum import Purification, QuantumState


def float_literal(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise OutOfRangeError("non-finite float cannot be serialized")
    return format(x, ".17g")


def _emit(obj: Any) -> Iterator[str]:
    """Text pieces of obj's deterministic JSON, in order."""
    if obj is None:
        yield "null"
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, str):
        yield json.dumps(obj, ensure_ascii=True)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield float_literal(float(obj))
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            if i:
                yield ", "
            yield json.dumps(str(k), ensure_ascii=True) + ": "
            yield from _emit(v)
        yield "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ", "
            yield from _emit(v)
        yield "]"
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def json_dumps(obj: Any) -> str:
    """Deterministic JSON text (17-significant-digit floats)."""
    return "".join(_emit(obj))


def write_json(path: str, obj: Any) -> None:
    """Write json_dumps(obj) and a newline, streamed piece by piece."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(_emit(obj))
        fh.write("\n")


def require_key(doc: dict, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise SchemaError(
                f"{where}: key {key!r} is an integer beyond float range"
            ) from None
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise SchemaError(
            f"{where}: key {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def number_list(doc: dict, key: str, length: int, where: str) -> np.ndarray:
    seq = require_key(doc, key, list, where)
    if len(seq) != length:
        raise SchemaError(f"{where}: {key!r} has length {len(seq)}, expected {length}")
    out = np.empty(length, dtype=float)
    for i, v in enumerate(seq):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{where}: {key}[{i}] is not a number")
        try:
            x = float(v)
        except OverflowError:
            raise SchemaError(
                f"{where}: {key}[{i}] is an integer beyond float range"
            ) from None
        if not math.isfinite(x):
            raise SchemaError(f"{where}: {key}[{i}] is not finite")
        out[i] = x
    return out


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def matrix_from_json(doc: dict, where: str = "matrix") -> np.ndarray:
    rows = require_key(doc, "rows", int, where)
    cols = require_key(doc, "cols", int, where)
    if rows < 1 or cols < 1:
        raise SchemaError(f"{where}: rows/cols must be positive")
    re = number_list(doc, "re", rows * cols, where)
    im = number_list(doc, "im", rows * cols, where)
    return (re + 1j * im).reshape(rows, cols)


def state_to_json(rho: QuantumState) -> dict:
    return {"kind": "state", **matrix_to_json(rho.matrix)}


def purification_to_json(p: Purification) -> dict:
    return {
        "kind": "purification",
        "dim_a": int(p.dim_a),
        "dim_b": int(p.dim_b),
        "state_vector": matrix_to_json(p.state_vector.reshape(-1, 1)),
    }


def object_from_json(doc: dict, where: str = "object") -> QuantumState:
    """The validated object of a kind-discriminated document; "state" is the
    one kind read."""
    kind = require_key(doc, "kind", str, where)
    if kind != "state":
        raise SchemaError(f"{where}: unknown kind {kind!r}")
    return QuantumState(matrix_from_json(doc, where))


def declared_from_json(doc: dict, where: str = "declared") -> NaryGenerator:
    """Coin document {p, phi} or N-ary document {probs, phases}."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if "p" in doc:
        p = require_key(doc, "p", float, where)
        phi = require_key(doc, "phi", float, where) if "phi" in doc else 0.0
        return make_coin(p, phi)
    if "probs" in doc:
        probs = number_list(doc, "probs", len(require_key(doc, "probs", list, where)), where)
        phases = None
        if "phases" in doc:
            phases = number_list(doc, "phases", len(probs), where)
        return make_nary(probs, phases)
    raise SchemaError(f"{where}: need either p/phi or probs/phases")


def campaign_config_from_json(doc: dict):
    """Returns (declared, true_state, n_trials, seed-or-None)."""
    declared = declared_from_json(require_key(doc, "declared", dict, "config"))
    true_state = object_from_json(
        require_key(doc, "true_state", dict, "config"), "config.true_state"
    )
    n_trials = require_key(doc, "n_trials", int, "config")
    if n_trials < 1:
        raise SchemaError(f"config: n_trials must be >= 1, got {n_trials}")
    return declared, true_state, n_trials, config_seed(doc)


def config_seed(doc: dict) -> int | None:
    """The config's optional "seed", a non-negative integer; None if absent."""
    if "seed" not in doc:
        return None
    seed = require_key(doc, "seed", int, "config")
    if seed < 0:
        raise SchemaError("config: seed must be non-negative")
    return seed


def report_to_json(report: CampaignReport) -> dict:
    return asdict(report)


# The trace is encoded at most this many rows at a time, in blocks whose
# trial indices share one decimal width (blocks also end at each power of
# ten), so no Python code runs per row and memory does not grow with
# n_trials.  The bytes are the same at any block size.
_BLOCK = 8192


def write_trace_csv(path: str, outcomes, p_theoretical, seed: int, codes) -> None:
    """Per-trial trace with columns trial,outcome,p_theoretical,seed.

    A trial with outcome code c gets the row outcomes[c], p_theoretical[c],
    seed; p_theoretical may instead be a single probability shared by every
    code.  codes yields the trials' codes as consecutive integer (or boolean)
    arrays, in trial order.  The row text after the trial index is encoded
    once per code, NUL-padded to a common width; each block of rows is
    assembled as uint8 bytes (index digits, then the code's text) and
    written without its padding; no byte of a row's text is NUL.
    """
    if isinstance(p_theoretical, (int, float, np.floating, np.integer)):
        p_theoretical = [p_theoretical] * len(outcomes)
    tails = [
        f",{label},{float_literal(p)},{seed}\n".encode("ascii")
        for label, p in zip(outcomes, p_theoretical, strict=True)
    ]
    width = max(map(len, tails))
    table = np.zeros((len(tails), width), dtype=np.uint8)
    for row, tail in zip(table, tails):
        row[: len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"trial,outcome,p_theoretical,seed\n")
        start = 0
        for chunk in codes:
            chunk = np.asarray(chunk)
            lo = 0
            while lo < len(chunk):
                first = start + lo
                nd = len(str(first))
                hi = min(len(chunk), lo + _BLOCK, 10**nd - start)
                rows = np.empty((hi - lo, nd + width), dtype=np.uint8)
                rows[:, :nd] = _digits(first, hi - lo, nd).T
                np.take(table, chunk[lo:hi], axis=0, out=rows[:, nd:])
                fh.write(rows[rows != 0])
                lo = hi
            start += len(chunk)


def _digits(first: int, m: int, nd: int) -> np.ndarray:
    """(nd, m) ASCII decimal digits of first, ..., first + m - 1, most
    significant first; each index must have exactly nd digits."""
    out = np.empty((nd, m), dtype=np.uint8)
    idx = np.arange(first, first + m, dtype=np.uint64)
    ten = np.uint64(10)
    for k in range(nd - 1, -1, -1):
        idx, out[k] = np.divmod(idx, ten)
    out += ord("0")
    return out


def json_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Malformed text, an integer literal beyond Python's digit limit, or
        # nesting deeper than the recursion limit.
        raise SchemaError(f"invalid JSON: {exc}") from None


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    return json_loads(text)
