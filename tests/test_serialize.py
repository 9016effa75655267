import csv
import io

import numpy as np
import pytest

from optfalsify import QuantumState, make_coin, purify, serialize
from optfalsify.errors import OutOfRangeError, SchemaError
from optfalsify.random_ops import random_density_matrix
from optfalsify.serialize import (
    campaign_config_from_json,
    declared_from_json,
    float_literal,
    json_dumps,
    json_loads,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    purification_to_json,
    read_json,
    report_to_json,
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


class TestCampaignConfig:
    def _config(self, **overrides):
        doc = {
            "declared": {"p": 0.5, "phi": 0.0},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 100,
            "seed": 4,
        }
        doc.update(overrides)
        return doc

    def test_parses(self):
        declared, true_state, n_trials, seed = campaign_config_from_json(
            self._config()
        )
        assert declared.probs == (0.5, 0.5)
        assert true_state.dim == 2
        assert (n_trials, seed) == (100, 4)

    def test_seed_optional(self):
        doc = self._config()
        del doc["seed"]
        assert campaign_config_from_json(doc)[3] is None

    def test_bad_trials(self):
        with pytest.raises(SchemaError):
            campaign_config_from_json(self._config(n_trials=0))

    def test_negative_seed(self):
        with pytest.raises(SchemaError):
            campaign_config_from_json(self._config(seed=-1))

    def test_true_state_must_be_state_kind(self):
        doc = self._config()
        doc["true_state"] = {**doc["true_state"], "kind": "effect"}
        with pytest.raises(SchemaError, match="unknown kind 'effect'"):
            campaign_config_from_json(doc)

    def test_missing_declared(self):
        doc = self._config()
        del doc["declared"]
        with pytest.raises(SchemaError):
            campaign_config_from_json(doc)


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
        doc = report_to_json(report)
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

    def test_trace_csv_scalar_probability(self, tmp_path):
        path = tmp_path / "trace.csv"
        codes = [np.array([0, 1])]
        write_trace_csv(str(path), ["INCONCLUSIVE", "FALSIFIED"], 0.5, 9, codes)
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
        write_trace_csv(str(path), outcomes, p, seed, iter(chunks))
        probs = [p] * len(outcomes) if isinstance(p, float) else p
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
