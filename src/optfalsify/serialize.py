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
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from .errors import OutOfRangeError, SchemaError
from .linalg import _check_int
from .quantum import Purification, QuantumState

if TYPE_CHECKING:
    from .coins import NaryGenerator


def float_literal(x: float) -> str:
    return _float_literals((float(x),))


def _float_literals(values) -> str:
    """The 17-significant-digit literals of the floats in values, joined by
    ", " in one formatting call; OutOfRangeError if any is not finite."""
    text = ", ".join(["%.17g"] * len(values)) % tuple(values)
    # A finite float's "%.17g" text is digits, sign, point and exponent;
    # "inf" and "nan" are the only texts with the letter n.
    if "n" in text:
        raise OutOfRangeError("non-finite float cannot be serialized")
    return text


# A list is emitted this many items at a time: as one piece when all of them
# are floats, so a long float list costs one formatting call per run rather
# than a generator per item, and no piece grows with the list.
_RUN = 512


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
        for start in range(0, len(obj), _RUN):
            run = obj[start : start + _RUN]
            if start:
                yield ", "
            if all(isinstance(v, float) for v in run):  # np.float64 is a float
                yield _float_literals(run)
                continue
            for i, v in enumerate(run):
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


def _int_key(doc: dict, key: str, minimum: int, where: str) -> int:
    """doc[key] read by _check_int: an int of at least minimum, else SchemaError."""
    message = f"{where}: {key} must be an integer of at least {minimum}"
    return _check_int(require_key(doc, key, object, where), minimum, SchemaError, message)


def matrix_from_json(doc: dict, where: str = "matrix") -> np.ndarray:
    rows = _int_key(doc, "rows", 1, where)
    cols = _int_key(doc, "cols", 1, where)
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
    from .coins import make_coin, make_nary

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


def config_int(doc: dict, key: str, minimum: int) -> int | None:
    """The config's optional integer key, at least minimum; None if absent."""
    return _int_key(doc, key, minimum, "config") if key in doc else None


# The trace is encoded at most this many rows at a time, in blocks that also
# end at each multiple of _LOW and, below _LOW, at each power of ten, so every
# index in a block has the same digits above its last four and shows the same
# number of digits; no Python code runs per row, and a block's buffers are
# freed once it is written.  The bytes are the same at any block size.
_BLOCK = 5000
_LOW = 10**4


def write_trace_csv(path: str, outcomes, p_theoretical, seed: int, codes) -> None:
    """Per-trial trace with columns trial,outcome,p_theoretical,seed.

    A trial with outcome code c gets the row outcomes[c], p_theoretical[c],
    seed.  codes yields the trials' codes as consecutive integer (or boolean)
    arrays, in trial order.  Trial i = q * _LOW + low is written as str(q),
    omitted when q = 0, and then the digits of low: all four when q > 0,
    else str(low).  Each block of rows is gathered by code from a uint8
    template with one row per code: str(q), a slot as wide as the digits
    shown, and the code's text, NUL-padded to the longest text.  One store
    of a void item per row copies the digits into the slot from a table of
    "0000" ... "9999", and the rows are placed at their running offsets in
    the block's bytes (see _placed).  A label holding `,`, `"`, CR or LF is
    quoted as the csv module quotes it.  A label whose text holds a NUL or a
    non-ASCII character cannot be written as itself: OutOfRangeError, before
    the file is opened.
    """
    labels = [str(label) for label in outcomes]
    for k, label in enumerate(labels):
        if "\0" in label or not label.isascii():
            raise OutOfRangeError(f"outcome label {label!r} is not ASCII text without NUL")
        if any(c in label for c in ',"\r\n'):
            labels[k] = '"' + label.replace('"', '""') + '"'
    tails = [
        f",{label},{float_literal(p)},{seed}\n".encode("ascii")
        for label, p in zip(labels, p_theoretical, strict=True)
    ]
    width = max(map(len, tails))
    table = np.zeros((len(tails), width), dtype=np.uint8)
    for row, tail in zip(table, tails):
        row[: len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    tail_lengths = np.array([len(tail) for tail in tails], dtype=np.intp)
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = np.arange(_LOW, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    digits = digits.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"trial,outcome,p_theoretical,seed\n")
        start = 0
        for chunk in codes:
            chunk = np.asarray(chunk)
            lo = 0
            while lo < len(chunk):
                q, low = divmod(start + lo, _LOW)
                shown = 4 if q else len(str(low))
                hi = min(len(chunk), lo + _BLOCK, lo + 10**shown - low)  # 10**4 = _LOW
                head = np.frombuffer(str(q).encode("ascii") if q else b"", dtype=np.uint8)
                template = np.zeros((len(tails), len(head) + shown + width), dtype=np.uint8)
                template[:, : len(head)] = head
                template[:, len(head) + shown :] = table
                lengths = tail_lengths + (len(head) + shown)
                rest = digits[low : low + hi - lo, 4 - shown :]
                fh.write(_placed(template, lengths, chunk[lo:hi], len(head), rest))
                lo = hi
            start += len(chunk)


def _placed(template, lengths, block, slot, digits) -> np.ndarray:
    """A block's bytes: for the i-th code c of block, row c of template with
    row i of digits stored from column slot on and cut to its first
    lengths[c] bytes, in the order of block.

    The full-width rows are stored in one advanced assignment through a view
    of void items with a byte stride of 1, each at its running offset.  A
    row's NUL tail lands where the next rows start, and they overwrite it
    when the stores run in index order, which numpy's indexing guide does not
    promise for targets that overlap.  No byte of a row's text is NUL, so any
    other order leaves a NUL among the block's bytes: RuntimeError then, and
    nothing of the block is returned.  Nothing of a block outlives its write,
    so no block's buffers are held while the next block's are allocated.
    """
    rows = np.take(template, block, axis=0)
    item = f"V{digits.shape[1]}"
    rows[:, slot : slot + digits.shape[1]].view(item)[:, 0] = digits.view(item)[:, 0]
    starts = np.zeros(len(block) + 1, dtype=np.intp)
    np.cumsum(np.take(lengths, block), out=starts[1:])
    total = int(starts[-1])
    out = np.empty(starts[-2] + rows.shape[1], dtype=np.uint8)
    item = f"V{rows.shape[1]}"
    windows = np.ndarray(len(out) - rows.shape[1] + 1, item, out, strides=(1,))
    windows[starts[:-1]] = rows.view(item)[:, 0]
    out = out[:total]
    if np.count_nonzero(out) != total:
        raise RuntimeError("trace rows were not stored in index order")
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
