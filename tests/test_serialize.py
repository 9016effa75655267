import csv
import io
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optfalsify import QuantumState, make_coin, purify, serialize
from optfalsify.errors import OutOfRangeError, SchemaError
from optfalsify.random_ops import random_density_matrix
from optfalsify.serialize import (
    config_int,
    declared_from_json,
    float_literal,
    json_dumps,
    json_loads,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    purification_to_json,
    read_json,
    state_to_json,
    write_json,
    write_trace_csv,
)


class TestFloatLiteral:
    def test_bit_exact_round_trip(self):
        for x in (0.1, 1 / 3, np.pi, 2**-52, 1e300, -0.0, 49936 / 1e5):
            assert float(float_literal(x)) == x

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(OutOfRangeError):
                float_literal(bad)


class TestJsonDumps:
    def test_deterministic(self):
        doc = {"a": 0.1, "b": [1, 2.5, True, None], "c": {"d": "x"}}
        assert json_dumps(doc) == json_dumps(doc)

    def test_parses_back(self):
        doc = {"x": 1 / 3, "flag": False, "items": [1, 2, 3]}
        assert json_loads(json_dumps(doc)) == doc

    def test_bool_not_emitted_as_int(self):
        assert json_dumps({"f": True}) == '{"f": true}'

    def test_invalid_json_raises_schema_error(self):
        for text in ("{not json", "[1" + "0" * 5000 + "]", "[" * 200_000):
            with pytest.raises(SchemaError, match="invalid JSON"):
                json_loads(text)


def reference_dumps(obj) -> str:
    """Deterministic JSON built item by item, with format(x, ".17g") for
    every float: the bytes the emitter must give."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        assert math.isfinite(obj)
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_dumps(v)}" for k, v in obj.items()) + "}"
    return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"


class TestListEmitter:
    """Lists are emitted serialize._RUN items at a time, a run of floats as one
    piece; the bytes and the errors are those of the item-by-item reference."""

    def test_exact_bytes_of_edge_values(self):
        floats = [-0.0, 5e-324, 0.1, 1.7976931348623157e308, np.float64(0.1)]
        text = "-0, 4.9406564584124654e-324, 0.10000000000000001, 1.7976931348623157e+308"
        assert json_dumps(floats) == f"[{text}, 0.10000000000000001]"
        mixed = floats[:4] + [7, True, np.float64(0.1), None]
        assert json_dumps(mixed) == f"[{text}, 7, true, 0.10000000000000001, null]"

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), np.float64("nan")])
    @pytest.mark.parametrize("at", [0, serialize._RUN - 1, serialize._RUN, 3 * serialize._RUN + 5])
    def test_non_finite_anywhere_is_rejected(self, tmp_path, bad, at):
        values = [0.5] * (4 * serialize._RUN)
        values[at] = bad
        with pytest.raises(OutOfRangeError):
            json_dumps({"re": values})
        with pytest.raises(OutOfRangeError):
            write_json(str(tmp_path / "doc.json"), {"re": values})
        values[at] = 1
        values[at - 1] = bad
        with pytest.raises(OutOfRangeError):
            json_dumps(values)

    @pytest.mark.parametrize(
        "n", [0, 1, serialize._RUN - 1, serialize._RUN, serialize._RUN + 1, 3 * serialize._RUN]
    )
    def test_run_boundaries_keep_bytes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = [float(x) for x in rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)]
        mixed = [v if i % 97 else int(i) for i, v in enumerate(floats)]
        doc = {
            "floats": floats,
            "mixed": mixed,
            "tuple": tuple(floats),
            "array": np.array(floats),
            "float32": rng.standard_normal(50).astype(np.float32),
            "nested": [floats, [mixed, []], np.array(floats).reshape(-1, 1)],
        }
        assert json_dumps(doc) == reference_dumps(doc)
        write_json(str(tmp_path / "doc.json"), doc)
        assert (tmp_path / "doc.json").read_text() == reference_dumps(doc) + "\n"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=1200))
    def test_any_float_list_keeps_its_bytes(self, floats):
        assert json_dumps(floats) == reference_dumps(floats)

    def test_unknown_type_in_a_float_run_is_a_type_error(self):
        with pytest.raises(TypeError, match="complex"):
            json_dumps([0.5] * serialize._RUN + [0.5, 1j])


class TestMatrixLiteral:
    def test_round_trip_complex(self, rng):
        m = random_density_matrix(3, rng)
        doc = json_loads(json_dumps(matrix_to_json(m)))
        assert np.array_equal(matrix_from_json(doc), m)

    def test_row_major_layout(self):
        doc = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert doc["re"] == [1.0, 2.0, 3.0, 4.0]

    def test_vector_becomes_column(self):
        doc = matrix_to_json(np.array([1.0, 2.0j]))
        assert (doc["rows"], doc["cols"]) == (2, 1)

    def test_wrong_length_rejected(self):
        doc = matrix_to_json(np.eye(2))
        doc["re"] = [1.0, 0.0, 0.0]
        with pytest.raises(SchemaError):
            matrix_from_json(doc)

    def test_missing_key_rejected(self):
        doc = matrix_to_json(np.eye(2))
        del doc["im"]
        with pytest.raises(SchemaError):
            matrix_from_json(doc)

    def test_non_finite_entry_rejected(self):
        doc = matrix_to_json(np.eye(2))
        doc["re"][0] = float("nan")
        with pytest.raises(ValueError):
            json_dumps(doc)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_size_at_the_cut(self, key):
        doc = matrix_to_json(np.array([[2.5 - 1j]]))
        assert matrix_from_json(doc).tolist() == [[2.5 - 1j]]
        assert matrix_from_json({**doc, key: np.int64(1)}).tolist() == [[2.5 - 1j]]
        for bad in (0, -1, True, 1.0, "1", None):
            with pytest.raises(SchemaError, match=f"matrix: {key} must be an integer of at least 1"):
                matrix_from_json({**doc, key: bad})

    def test_integer_beyond_float_range_rejected(self):
        doc = matrix_to_json(np.eye(2))
        doc["re"][0] = 10**400
        with pytest.raises(SchemaError, match="beyond float range"):
            matrix_from_json(doc)
        with pytest.raises(SchemaError, match="beyond float range"):
            declared_from_json({"p": 10**400})


class TestTypedObjects:
    def test_state_round_trip(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        out = object_from_json(json_loads(json_dumps(state_to_json(rho))))
        assert isinstance(out, QuantumState)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_purification_doc_shape(self):
        pur = purify(QuantumState(np.diag([0.3, 0.7])))
        doc = purification_to_json(pur)
        assert doc["kind"] == "purification"
        assert (doc["dim_a"], doc["dim_b"]) == (2, 2)
        assert doc["state_vector"]["rows"] == 4

    def test_unknown_kind_rejected(self):
        # "state" is the one kind read; "purification" is only written.
        for kind in ("wormhole", "effect", "channel", "cstate", "markov", "ftest", "purification"):
            with pytest.raises(SchemaError, match=f"unknown kind '{kind}'"):
                object_from_json({**matrix_to_json(np.eye(2) / 2), "kind": kind})

    def test_missing_kind_rejected(self):
        with pytest.raises(SchemaError):
            object_from_json({"rows": 1})
        for doc in ([1.0], "state", None):
            with pytest.raises(SchemaError, match="object: expected a JSON object, got"):
                object_from_json(doc)

    def test_invalid_payload_propagates_validation(self):
        doc = state_to_json(QuantumState.maximally_mixed(2))
        doc["re"] = [1.0, 0.0, 0.0, 1.0]  # trace 2
        with pytest.raises(OutOfRangeError):
            object_from_json(doc)


class TestDeclaredGenerator:
    def test_coin_document(self):
        out = declared_from_json({"p": 0.3, "phi": 1.7})
        assert (out.probs, out.phases) == ((0.3, 0.7), (0.0, 1.7))
        assert out.state_vector.tobytes() == make_coin(0.3, 1.7).state_vector.tobytes()

    def test_phi_defaults_to_zero(self):
        assert declared_from_json({"p": 0.5}).phases == (0.0, 0.0)

    def test_nary_document(self):
        out = declared_from_json({"probs": [0.25, 0.25, 0.5], "phases": [0.0, 1.0, -1.0]})
        assert out.probs == (0.25, 0.25, 0.5)
        assert out.phases == (0.0, 1.0, -1.0)

    def test_unrecognized_shape_rejected(self):
        with pytest.raises(SchemaError):
            declared_from_json({"bias": 0.5})
        with pytest.raises(SchemaError, match="declared: expected a JSON object"):
            declared_from_json([0.5, 0.5])


class TestFiles:
    def test_write_json_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"x": 0.1})
        text = path.read_bytes()
        assert text == b'{"x": 0.10000000000000001}\n'
        assert read_json(str(path)) == {"x": 0.1}

    def test_write_json_matches_json_dumps(self, tmp_path):
        doc = {
            "nested": {"a": [1, 2.5, None], "b": {"c": True, "d": False}},
            "array": np.array([[0.1, -2.0], [3.0, 1e-300]]),
            "ints": np.arange(3),
            "scalars": [np.float64(0.1), np.int64(-7), np.bool_(True)],
            "tuple": (1, "two"),
            "empty": [{}, []],
        }
        path = tmp_path / "doc.json"
        write_json(str(path), doc)
        assert path.read_bytes() == (json_dumps(doc) + "\n").encode("ascii")

    def test_unsupported_type_rejected(self, tmp_path):
        doc = {"x": [1, {"y": object()}]}
        with pytest.raises(TypeError):
            json_dumps(doc)
        with pytest.raises(TypeError):
            write_json(str(tmp_path / "doc.json"), doc)

    def test_report_doc_key_order(self):
        from optfalsify import QuantumState, falsify_campaign

        report = falsify_campaign(
            make_coin(0.5), QuantumState.maximally_mixed(2), 100, 0
        )
        doc = asdict(report)
        assert list(doc) == [
            "n_trials",
            "n_falsified",
            "empirical_rate",
            "theoretical_rate",
            "z_score",
            "z_degenerate",
            "seed",
            "verdict",
        ]

    def test_trace_csv_shared_probability(self, tmp_path):
        # falsify-coin writes its one rate against both outcomes.
        path = tmp_path / "trace.csv"
        codes = [np.array([0, 1])]
        write_trace_csv(str(path), ["INCONCLUSIVE", "FALSIFIED"], (0.5, 0.5), 9, codes)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,outcome,p_theoretical,seed"
        assert lines[1] == "0,INCONCLUSIVE,0.5,9"
        assert lines[2] == "1,FALSIFIED,0.5,9"

    def test_trace_csv_per_trial_probability(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), [0, 1], [0.25, 0.75], 3, [np.array([0, 1])])
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0,0.25,3"
        assert lines[2] == "1,1,0.75,3"


def reference_trace(outcomes, probs, seed, chunks) -> bytes:
    """The trace CSV written row by row with the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "outcome", "p_theoretical", "seed"])
    codes = np.concatenate(chunks).astype(int).tolist() if chunks else []
    writer.writerows(
        [i, outcomes[c], format(probs[c], ".17g"), seed] for i, c in enumerate(codes)
    )
    return buf.getvalue().encode("ascii")


def split(codes, size):
    return [codes[lo : lo + size] for lo in range(0, len(codes), size)]


class TestTraceEncoder:
    """write_trace_csv's bytes against a row-by-row reference, across the
    decimal widths of the trial index, code types, tail lengths and chunk
    and block sizes."""

    COIN = ("INCONCLUSIVE", "FALSIFIED")
    # Tails of different lengths: 0.1 is written with 17 digits.
    PROBS = [0.25, 0.1, 0.65]

    def _check(self, tmp_path, outcomes, p, seed, chunks):
        path = tmp_path / "trace.csv"
        probs = [p] * len(outcomes) if isinstance(p, float) else p
        write_trace_csv(str(path), outcomes, probs, seed, iter(chunks))
        assert path.read_bytes() == reference_trace(outcomes, probs, seed, chunks)

    def test_tail_literals(self, tmp_path):
        self._check(tmp_path, range(3), self.PROBS, 5, [np.array([0, 1, 2])])
        text = (tmp_path / "trace.csv").read_text()
        assert text.splitlines()[1:] == [
            "0,0,0.25,5",
            "1,1,0.10000000000000001,5",
            "2,2,0.65000000000000002,5",
        ]

    @pytest.mark.parametrize("block", [1, 5, 8192])
    @pytest.mark.parametrize("size", [1, 3, 7])
    def test_chunk_and_block_sizes(self, tmp_path, monkeypatch, size, block):
        # 1234 trials cross the index widths 1 -> 2 -> 3 -> 4 inside chunks
        # and blocks of every size here.
        monkeypatch.setattr(serialize, "_BLOCK", block)
        rng = np.random.default_rng(size)
        fired = rng.random(1234) < 0.3
        self._check(tmp_path, self.COIN, 0.3, 17, split(fired, size))
        codes = rng.integers(0, 3, 1234)
        self._check(tmp_path, range(3), self.PROBS, 0, split(codes, size))

    def test_million_boundary(self, tmp_path):
        # The 6- to 7-digit boundary falls inside the chunk of trials
        # 983040..1048575, in chunks of the campaigns' 2^16 trials.
        fired = np.random.default_rng(1).random(1_000_037) < 0.5
        self._check(tmp_path, self.COIN, 0.5, 123456789, split(fired, 1 << 16))

    def test_no_trials(self, tmp_path):
        self._check(tmp_path, self.COIN, 0.5, 1, [])

    def test_trial_zero(self, tmp_path):
        for code in (1, 0):
            self._check(tmp_path, self.COIN, 0.5, 2, [np.array([code])])
        assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
            "0,INCONCLUSIVE,0.5,2"
        ]

    # Code tables: the coin with boolean codes; three tails of three lengths,
    # 9, 26 and 36 bytes, so the shorter two carry different NUL padding in
    # a block's template; and 256 codes, as in sample's wide case.
    TABLES = {
        "coin": (COIN, 0.5, lambda rng, n: rng.random(n) < 0.5),
        "three-lengths": (
            ("0", "10", "INCONCLUSIVE"),
            [0.5, 0.1, 0.39999999999999997],
            lambda rng, n: rng.integers(0, 3, n),
        ),
        "256-codes": (range(256), 1 / 256, lambda rng, n: rng.integers(0, 256, n)),
    }

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("on_edge", [False, True], ids=["inside", "on-edge"])
    def test_low_digit_edges(self, tmp_path, table, on_edge):
        # The digits above the last four of the trial index appear at 10^4
        # (9999 -> 10000), change at 2 * 10^4 (19999 -> 20000) and gain a
        # digit at 10^5 (99999 -> 100000); each edge falls either inside a
        # chunk or on the first trial of one.
        outcomes, p, draw = self.TABLES[table]
        codes = draw(np.random.default_rng(4), 100_003)
        cuts = [10_000, 20_000, 100_000] if on_edge else [9_990, 19_995, 99_998]
        self._check(tmp_path, outcomes, p, 8, np.split(codes, cuts))

    @pytest.mark.parametrize("block", [1, 7, 3333, 5000])
    def test_block_sizes_across_edges(self, tmp_path, monkeypatch, block):
        # 20011 trials cross 10^4 and 2 * 10^4 in chunks of 4099 trials, whose
        # edges fall inside blocks, and in one chunk.
        monkeypatch.setattr(serialize, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for outcomes, p, draw in self.TABLES.values():
            codes = draw(rng, 20_011)
            for size in (4099, 1 << 16):
                self._check(tmp_path, outcomes, p, 6, split(codes, size))

    @pytest.mark.parametrize("block", [1, 7, 5000])
    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_tail_longer_than_a_row(self, tmp_path, monkeypatch, n, block):
        # The short row's NUL padding (60 bytes) is longer than a whole short
        # row, so where short rows follow each other it spans the rows after
        # them, which must still overwrite it.
        monkeypatch.setattr(serialize, "_BLOCK", block)
        codes = np.random.default_rng(n + block).integers(0, 2, n)
        self._check(tmp_path, ("a", "b" * 60), 0.5, 3, split(codes, 4099))

    def test_overlapping_stores_follow_index_order(self):
        # The encoder relies on this: an advanced assignment through
        # overlapping stride-1 void windows stores the rows in index order,
        # so a later row's bytes replace an earlier row's NUL tail.
        rows = np.array([list(b"ab\0\0\0"), list(b"cdef\0"), list(b"g\0\0\0\0")], dtype=np.uint8)
        starts = np.array([0, 2, 6])
        out = np.zeros(starts[-1] + 5, dtype=np.uint8)
        windows = np.ndarray(starts[-1] + 1, "V5", out, strides=(1,))
        windows[starts] = rows.view("V5")[:, 0]
        assert out[:7].tobytes() == b"abcdefg"
        # In the reverse order the earlier rows' tails land last, and a NUL
        # is left among the text: the encoder's nonzero count would catch it.
        out[:] = 0
        windows[starts[::-1].copy()] = rows[::-1].copy().view("V5")[:, 0]
        assert np.count_nonzero(out[:7]) < 7

    def test_printable_ascii_label(self, tmp_path):
        # The label holds a comma and a double quote, so it is quoted.
        label = bytes(range(0x20, 0x7F)).decode("ascii")
        chunks = [np.array([0, 1])]
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), [label, "C"], [0.5, 0.5], 1, iter(chunks))
        assert path.read_bytes() == reference_trace([label, "C"], [0.5, 0.5], 1, chunks)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert [len(row) for row in rows] == [4, 4, 4]
        assert rows[1][1] == label

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', '"', "a\nb", "a\rb", "a\r\nb"])
    def test_label_quoted_for_a_csv_reader(self, tmp_path, label):
        chunks = [np.array([1, 0, 1])]
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), ["C", label], [0.5, 0.5], 1, iter(chunks))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] for row in rows] == ["outcome", label, "C", label]
        assert {len(row) for row in rows} == {4}
        if "\r" not in label:
            # The csv module of Python 3.11 leaves a lone CR unquoted when
            # its line terminator is "\n"; the trace quotes it.
            assert path.read_bytes() == reference_trace(["C", label], [0.5, 0.5], 1, chunks)

    @pytest.mark.parametrize("label", ["A\0B", "caf\u00e9"])
    def test_label_not_written_as_itself(self, tmp_path, label):
        path = tmp_path / "trace.csv"
        with pytest.raises(OutOfRangeError, match=re.escape(repr(label))):
            write_trace_csv(str(path), [label, "C"], [0.5, 0.5], 1, iter([np.array([0, 1])]))
        assert not path.exists()


class TestConfigInt:
    """The config's optional integers: the rule of linalg._check_int, with
    SchemaError."""

    @pytest.mark.parametrize("minimum", [0, 1])
    def test_cut(self, minimum):
        assert config_int({}, "k", minimum) is None
        for good in (minimum, np.int64(minimum), 10**30):
            value = config_int({"k": good}, "k", minimum)
            assert value == good
            assert type(value) is int
        for bad in (minimum - 1, True, False, 1.5, "1", None):
            with pytest.raises(SchemaError, match=f"config: k must be an integer of at least {minimum}"):
                config_int({"k": bad}, "k", minimum)
