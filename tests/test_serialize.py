import numpy as np
import pytest

from optfalsify import (
    ClassicalState,
    Effect,
    FalsificationTest,
    KrausChannel,
    MarkovMap,
    QuantumState,
    make_coin,
    make_nary,
    purify,
)
from optfalsify.errors import SchemaError
from optfalsify.falsification import is_inconclusive_test
from optfalsify.random_ops import random_density_matrix, random_kraus_tp
from optfalsify.serialize import (
    campaign_config_from_json,
    channel_to_json,
    cstate_to_json,
    declared_from_json,
    declared_to_json,
    effect_to_json,
    float_literal,
    ftest_to_json,
    json_dumps,
    json_loads,
    markov_to_json,
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
            with pytest.raises(ValueError):
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
        with pytest.raises(SchemaError):
            json_loads("{not json")


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

    def test_effect_round_trip(self):
        eff = Effect(np.diag([1.0, 0.25, 0.0]))
        out = object_from_json(json_loads(json_dumps(effect_to_json(eff))))
        assert isinstance(out, Effect)
        assert np.array_equal(out.matrix, eff.matrix)

    def test_channel_round_trip(self, rng):
        ch = KrausChannel(tuple(random_kraus_tp(2, 3, rng)))
        out = object_from_json(json_loads(json_dumps(channel_to_json(ch))))
        assert isinstance(out, KrausChannel)
        assert len(out.kraus) == 3
        for a, b in zip(out.kraus, ch.kraus):
            assert np.array_equal(a, b)

    def test_cstate_round_trip(self):
        x = ClassicalState([0.2, 0.3, 0.5])
        out = object_from_json(json_loads(json_dumps(cstate_to_json(x))))
        assert isinstance(out, ClassicalState)
        assert np.array_equal(out.probs, x.probs)

    def test_markov_round_trip(self):
        m = MarkovMap([[0.5, 0.1], [0.5, 0.9]])
        out = object_from_json(json_loads(json_dumps(markov_to_json(m))))
        assert isinstance(out, MarkovMap)
        assert np.array_equal(out.matrix, m.matrix)

    def test_ftest_round_trip(self):
        test = FalsificationTest.from_falsifier(
            Effect(np.diag([0.0, 1.0])), hypothesis_label="basis-zero support"
        )
        out = object_from_json(json_loads(json_dumps(ftest_to_json(test))))
        assert isinstance(out, FalsificationTest)
        assert out.hypothesis_label == "basis-zero support"
        assert np.array_equal(out.falsifier.matrix, test.falsifier.matrix)

    def test_ftest_zero_falsifier_deserializes(self):
        # External data may carry the degenerate never-falsifying test.
        doc = {
            "kind": "ftest",
            "hypothesis": "",
            "F": matrix_to_json(np.zeros((2, 2))),
        }
        out = object_from_json(doc)
        assert is_inconclusive_test(out)

    def test_purification_doc_shape(self):
        pur = purify(QuantumState(np.diag([0.3, 0.7])))
        doc = purification_to_json(pur)
        assert doc["kind"] == "purification"
        assert (doc["dim_a"], doc["dim_b"]) == (2, 2)
        assert doc["state_vector"]["rows"] == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            object_from_json({"kind": "wormhole"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SchemaError):
            object_from_json({"rows": 1})

    def test_invalid_payload_propagates_validation(self):
        doc = state_to_json(QuantumState.maximally_mixed(2))
        doc["re"] = [1.0, 0.0, 0.0, 1.0]  # trace 2
        from optfalsify.errors import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            object_from_json(doc)


class TestDeclaredGenerator:
    def test_coin_round_trip(self):
        coin = make_coin(0.3, 1.7)
        out = declared_from_json(declared_to_json(coin))
        assert (out.p, out.phi) == (0.3, 1.7)

    def test_phi_defaults_to_zero(self):
        assert declared_from_json({"p": 0.5}).phi == 0.0

    def test_nary_round_trip(self):
        gen = make_nary([0.25, 0.25, 0.5], [0.0, 1.0, -1.0])
        out = declared_from_json(declared_to_json(gen))
        assert out.probs == gen.probs
        assert out.phases == gen.phases

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
        assert declared.p == 0.5
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
        doc["true_state"] = effect_to_json(Effect.identity(2))
        with pytest.raises(SchemaError):
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
        write_trace_csv(str(path), ["INCONCLUSIVE", "FALSIFIED"], 0.5, 9)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,outcome,p_theoretical,seed"
        assert lines[1] == "0,INCONCLUSIVE,0.5,9"
        assert lines[2] == "1,FALSIFIED,0.5,9"

    def test_trace_csv_per_trial_probability(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), [0, 1], [0.25, 0.75], 3)
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0,0.25,3"
        assert lines[2] == "1,1,0.75,3"
