import argparse
import dataclasses
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from optfalsify.cli import RunConfig, _build_parser, main
from optfalsify.coins import generator_probs, make_nary
from optfalsify.errors import OutOfRangeError
from optfalsify.quantum import QuantumState
from optfalsify.serialize import json_dumps, read_json, state_to_json, write_json

from conftest import reference_stream


def run_cli(args):
    return main(list(args))


@pytest.fixture
def coin_config(tmp_path):
    path = tmp_path / "campaign.json"
    write_json(
        str(path),
        {
            "declared": {"p": 0.5, "phi": 0.0},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 2000,
            "seed": 42,
        },
    )
    return str(path)


class TestFalsifyCoin:
    def test_report_written(self, coin_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["falsify-coin", "--config", coin_config, "--out", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "FALSIFIED"
        assert doc["seed"] == 42
        assert doc["n_trials"] == 2000
        assert "verdict FALSIFIED" in capsys.readouterr().err

    def test_byte_identical_reports(self, coin_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["falsify-coin", "--config", coin_config, "--out", str(a)])
        run_cli(["falsify-coin", "--config", coin_config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_config(self, coin_config, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["falsify-coin", "--config", coin_config, "--seed", "7", "--out", str(out)])
        assert read_json(str(out))["seed"] == 7

    def test_trials_flag_overrides_config(self, coin_config, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["falsify-coin", "--config", coin_config, "--trials", "50", "--out", str(out)])
        assert read_json(str(out))["n_trials"] == 50

    def test_csv_trace(self, coin_config, tmp_path):
        out, csv_path = tmp_path / "r.json", tmp_path / "t.csv"
        run_cli(
            [
                "falsify-coin",
                "--config",
                coin_config,
                "--trials",
                "10",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,outcome,p_theoretical,seed"
        assert len(lines) == 11
        fired = sum("FALSIFIED" == row.split(",")[1] for row in lines[1:])
        assert fired == read_json(str(out))["n_falsified"]

    def _report(self, tmp_path, declared, true_state):
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        write_json(
            str(config),
            {"declared": declared, "true_state": state_to_json(true_state), "n_trials": 100},
        )
        assert run_cli(["falsify-coin", "--config", str(config), "--out", str(out)]) == 0
        return read_json(str(out))

    def test_rank_tol_sets_zero_rate_cutoff(self, tmp_path):
        # Declared balanced coin vs a state rotated by delta: rate sin^2 delta,
        # reported as 0.0 at or below DEFAULT_RANK_TOL = 1e-10.
        rates = []
        for rate in (5e-11, 2e-10):
            theta = np.pi / 4 + np.arcsin(np.sqrt(rate))
            state = QuantumState.pure([np.cos(theta), np.sin(theta)])
            rates.append(self._report(tmp_path, {"p": 0.5}, state)["theoretical_rate"])
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(2e-10, rel=1e-5)

    def test_honest_three_outcome_rate_exactly_zero(self, tmp_path):
        # Unsnapped, this generator's rate is a rounding residue of 3.2e-17.
        declared = {"probs": [1 / 9, 4 / 9, 4 / 9], "phases": [0.0, 0.0, 0.0]}
        state = make_nary(declared["probs"], declared["phases"]).state()
        doc = self._report(tmp_path, declared, state)
        assert doc["theoretical_rate"] == 0.0
        assert doc["z_degenerate"] is True
        assert doc["verdict"] == "NOT_FALSIFIED"

    def test_report_to_stdout_without_out(self, coin_config, capsys):
        assert run_cli(["falsify-coin", "--config", coin_config]) == 0
        out = capsys.readouterr().out
        assert '"verdict": "FALSIFIED"' in out


class TestPurify:
    def test_frozen_vector(self, tmp_path, capsys):
        config = tmp_path / "state.json"
        write_json(str(config), state_to_json(QuantumState(np.diag([0.3, 0.7]))))
        out = tmp_path / "p.json"
        assert run_cli(["purify", "--config", str(config), "--out", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["kind"] == "purification"
        assert (doc["dim_a"], doc["dim_b"]) == (2, 2)
        re = doc["state_vector"]["re"]
        assert re[1] == pytest.approx(np.sqrt(0.3), abs=1e-15)
        assert re[2] == pytest.approx(np.sqrt(0.7), abs=1e-15)
        assert "environment dim 2" in capsys.readouterr().err

    def test_rejects_non_state_document(self, tmp_path, capsys):
        config = tmp_path / "eff.json"
        write_json(str(config), {"kind": "effect", "rows": 1, "cols": 1, "re": [1.0], "im": [0.0]})
        assert run_cli(["purify", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_counts_and_csv(self, tmp_path):
        config = tmp_path / "gen.json"
        write_json(
            str(config),
            {"declared": {"probs": [0.25, 0.75], "phases": [0.0, 0.0]}, "n_trials": 400, "seed": 3},
        )
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        assert (
            run_cli(["sample", "--config", str(config), "--out", str(out), "--csv", str(csv_path)])
            == 0
        )
        doc = read_json(str(out))
        assert doc["n_trials"] == 400
        assert doc["seed"] == 3
        assert sum(doc["counts"]) == 400
        assert doc["probs"] == [pytest.approx(0.25), pytest.approx(0.75)]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 401
        # per-trial p column carries the probability of the drawn outcome
        first = lines[1].split(",")
        assert min(abs(float(first[2]) - q) for q in (0.25, 0.75)) < 1e-12

    def test_unwritable_csv_exits_before_report(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        write_json(str(config), {"declared": {"p": 0.5}, "n_trials": 10})
        csv_path = tmp_path / "missing" / "s.csv"
        assert run_cli(["sample", "--config", str(config), "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_report_matches_library_sampler(self, tmp_path):
        config = tmp_path / "gen.json"
        declared = {"probs": [0.2, 0.3, 0.5], "phases": [0.1, 0.2, 0.3]}
        write_json(str(config), {"declared": declared, "n_trials": 5000, "seed": 11})
        out = tmp_path / "s.json"
        assert run_cli(["sample", "--config", str(config), "--out", str(out)]) == 0
        doc = read_json(str(out))
        probs = generator_probs(make_nary(declared["probs"], declared["phases"]))
        edges = np.cumsum(probs)
        edges[-1] = 1.0
        draws = np.searchsorted(edges, reference_stream(11).random(5000), side="right")
        assert doc["counts"] == np.bincount(draws, minlength=3).tolist()
        assert doc["probs"] == probs.tolist()


class TestCheckPostulates:
    def test_pass_lines_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "props.json"
        code = run_cli(["check-postulates", "--dims", "2..2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        lines = [l for l in captured.out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        doc = read_json(str(out))
        assert doc["all_passed"] is True
        assert doc["dims"] == [2]

    def test_environment_seed_ignored(self, tmp_path, monkeypatch, capsys):
        # The seed is --seed, else 0: no environment variable re-keys a run.
        monkeypatch.setenv("OPT_FALSIFY_SEED", "31")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["check-postulates", "--dims", "2..2", "--out", str(a)]) == 0
        assert run_cli(["check-postulates", "--dims", "2..2", "--seed", "0", "--out", str(b)]) == 0
        capsys.readouterr()
        assert read_json(str(a))["seed"] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_long_dims_range_exits_2_unbuilt(self, capsys):
        # --dims is read one dim at a time, so this range is never built.
        assert run_cli(["check-postulates", "--dims", "2..1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: dims above 8 exceed the intended regime" in captured.err

    def test_injected_fault_exits_one(self, capsys):
        code = run_cli(["check-postulates", "--dims", "2..2", "--inject-fault", "kraus-norm"])
        captured = capsys.readouterr()
        assert code == 1
        assert any(l.startswith("FAIL") for l in captured.out.splitlines())

    def test_unknown_fault_exits_2(self, capsys):
        # The suite makes the one check of the name, so a bad one is a typed
        # error, not an argparse exit.
        assert run_cli(["check-postulates", "--dims", "2..2", "--inject-fault", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown fault 'x'; known faults: kraus-norm\n"

    def test_injected_fault_document(self, tmp_path, capsys):
        out = tmp_path / "props.json"
        args = ["check-postulates", "--dims", "2..2", "--inject-fault", "kraus-norm"]
        assert run_cli([*args, "--out", str(out)]) == 1
        capsys.readouterr()
        results = read_json(str(out))["results"]
        for r in results:
            assert list(r) == ["name", "cases", "worst", "bound", "passed", "note"]
        injected = [r for r in results if r["name"] == "injected-fault-kraus-norm"]
        assert len(injected) == 1
        assert injected[0]["worst"] is None
        assert injected[0]["passed"] is False


class TestClassicalBaseline:
    def test_outcomes_given(self, tmp_path):
        config = tmp_path / "c.json"
        write_json(str(config), {"declared_p": 0.5, "outcomes": [0, 1, 1, 0]})
        out = tmp_path / "r.json"
        assert run_cli(["classical-baseline", "--config", str(config), "--out", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "NOT_FALSIFIABLE"
        assert doc["seed"] is None
        assert (doc["n_zero"], doc["n_one"]) == (2, 2)

    def test_sampled_endpoint_falsified(self, tmp_path):
        config = tmp_path / "c.json"
        write_json(str(config), {"declared_p": 1.0, "true_p": 0.5, "n_trials": 200, "seed": 0})
        out = tmp_path / "r.json"
        run_cli(["classical-baseline", "--config", str(config), "--out", str(out)])
        doc = read_json(str(out))
        assert doc["verdict"] == "FALSIFIED"
        assert doc["true_p"] == 0.5
        assert doc["seed"] == 0

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--seed", "-1"], "error: seed must be a non-negative integer"),
            (["--trials", "0"], "error: n_trials must be an integer of at least 1"),
        ],
    )
    def test_outcomes_form_refuses_bad_flags(self, flag, message, tmp_path, capsys):
        # This form draws nothing, but the flags are still checked.
        config = tmp_path / "c.json"
        write_json(str(config), {"declared_p": 0.5, "outcomes": [0, 1]})
        assert run_cli(["classical-baseline", "--config", str(config), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_outcome_value(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        write_json(str(config), {"declared_p": 0.5, "outcomes": [0, 2]})
        assert run_cli(["classical-baseline", "--config", str(config)]) == 2
        assert "outcomes[1]" in capsys.readouterr().err


class TestParser:
    FLAGS = {
        "purify": {"--config", "--out"},
        "falsify-coin": {"--config", "--seed", "--trials", "--out", "--csv"},
        "sample": {"--config", "--seed", "--trials", "--out", "--csv"},
        "check-postulates": {"--seed", "--out", "--dims", "--inject-fault"},
        "classical-baseline": {"--config", "--seed", "--trials", "--out"},
    }

    @staticmethod
    def _config(argv) -> RunConfig:
        return RunConfig(**vars(_build_parser().parse_args(argv)))

    def test_flags_per_subcommand(self):
        sub = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(self.FLAGS)
        for name, parser in sub.choices.items():
            flags = {f for a in parser._actions for f in a.option_strings}
            assert flags - {"-h", "--help"} == self.FLAGS[name]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_required_flags_only_give_defaults(self, command):
        needs_config = "--config" in self.FLAGS[command]
        extra = ["--config", "c.json"] if needs_config else []
        expected = RunConfig(command=command, config_path="c.json" if needs_config else None)
        assert dataclasses.asdict(self._config([command, *extra])) == dataclasses.asdict(
            expected
        )

    def test_each_flag_sets_its_field(self):
        cfg = self._config(
            ["falsify-coin", "--config", "c.json", "--seed", "5", "--trials", "9",
             "--out", "o.json", "--csv", "t.csv"]
        )
        assert (cfg.config_path, cfg.master_seed, cfg.n_trials) == ("c.json", 5, 9)
        assert (cfg.out_path, cfg.csv_path) == ("o.json", "t.csv")
        cfg = self._config(["check-postulates", "--dims", "3..5", "--inject-fault", "kraus-norm"])
        assert (cfg.dims, cfg.inject_fault) == ((3, 4, 5), "kraus-norm")


class TestConfigSeed:
    """Every subcommand that reads a config seed validates it the same way."""

    CONFIGS = {
        "falsify-coin": {
            "declared": {"p": 0.5},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 10,
        },
        "sample": {"declared": {"p": 0.5}, "n_trials": 10},
        "classical-baseline": {"declared_p": 0.5, "n_trials": 10},
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", ["7", 7.5, True, -1])
    def test_malformed_seed_exits_2(self, command, seed, tmp_path, capsys):
        config = tmp_path / "c.json"
        write_json(str(config), {**self.CONFIGS[command], "seed": seed})
        assert run_cli([command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_malformed_seed_exits_2_despite_flag(self, command, tmp_path, capsys):
        config = tmp_path / "c.json"
        write_json(str(config), {**self.CONFIGS[command], "seed": "7"})
        assert run_cli([command, "--config", str(config), "--seed", "3"]) == 2
        assert "seed" in capsys.readouterr().err


class TestIntegerCut:
    """--trials, --seed and the config's n_trials and seed on each side of
    the integer rule's cut: the minimum runs, one below it exits 2 naming
    the key."""

    MESSAGES = {
        ("flag", "n_trials"): "error: n_trials must be an integer of at least 1",
        ("flag", "seed"): "error: seed must be a non-negative integer",
        ("config", "n_trials"): "error: config: n_trials must be an integer of at least 1",
        ("config", "seed"): "error: config: seed must be an integer of at least 0",
    }

    @pytest.mark.parametrize("command", sorted(TestConfigSeed.CONFIGS))
    @pytest.mark.parametrize("key, flag, minimum", [("n_trials", "--trials", 1), ("seed", "--seed", 0)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("below", [False, True])
    def test_cut(self, command, key, flag, minimum, source, below, tmp_path, capsys):
        value = minimum - 1 if below else minimum
        doc = dict(TestConfigSeed.CONFIGS[command])
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        argv = [command, "--config", str(config), "--out", str(out)]
        if source == "flag":
            argv += [flag, str(value)]
        else:
            doc[key] = value
        write_json(str(config), doc)
        code = run_cli(argv)
        captured = capsys.readouterr()
        if below:
            assert code == 2
            assert captured.out == ""
            assert self.MESSAGES[source, key] in captured.err
        else:
            assert code == 0
            assert read_json(str(out))[key] == value

    @pytest.mark.parametrize(
        "field, minimum, message",
        [("master_seed", 0, "seed must be a non-negative"), ("n_trials", 1, "n_trials must be")],
    )
    def test_run_config_rule(self, field, minimum, message):
        # A bool is refused, a numpy integer at the minimum accepted.
        assert getattr(RunConfig(command="sample", **{field: np.int64(minimum)}), field) == minimum
        for bad in (True, False, minimum - 1):
            with pytest.raises(OutOfRangeError, match=message):
                RunConfig(command="sample", **{field: bad})


class TestConfiguredTrials:
    """A config n_trials follows the seed's rule on every subcommand that
    samples: it must be an integer >= 1 even when --trials overrides it, and
    it is required only when --trials is absent."""

    @pytest.mark.parametrize("command", sorted(TestConfigSeed.CONFIGS))
    @pytest.mark.parametrize("n_trials", ["absent", 0, "10", True, 10])
    @pytest.mark.parametrize("flag", [False, True])
    def test_one_rule(self, command, n_trials, flag, tmp_path, capsys):
        doc = dict(TestConfigSeed.CONFIGS[command])
        del doc["n_trials"]
        if n_trials != "absent":
            doc["n_trials"] = n_trials
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        write_json(str(config), doc)
        argv = [command, "--config", str(config), "--out", str(out)]
        code = run_cli(argv + ["--trials", "5"] if flag else argv)
        valid = n_trials == "absent" or n_trials == 10
        if valid and (flag or n_trials != "absent"):
            assert code == 0
            assert read_json(str(out))["n_trials"] == (5 if flag else 10)
        else:
            assert code == 2
            assert "n_trials" in capsys.readouterr().err


class TestCampaignConfig:
    """The falsify-coin config: declared, true_state, n_trials and an
    optional seed."""

    def _run(self, tmp_path, capsys, drop=None, **overrides):
        doc = {
            "declared": {"p": 0.5, "phi": 0.0},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 100,
            "seed": 4,
            **overrides,
        }
        doc.pop(drop, None)
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        write_json(str(config), doc)
        code = run_cli(["falsify-coin", "--config", str(config), "--out", str(out)])
        report = read_json(str(out)) if code == 0 else None
        return code, report, capsys.readouterr().err

    def test_parses(self, tmp_path, capsys):
        code, report, _ = self._run(tmp_path, capsys)
        assert code == 0
        assert (report["n_trials"], report["seed"]) == (100, 4)
        # The fair coin against I/2: 1 - <psi|I/2|psi>.
        assert report["theoretical_rate"] == pytest.approx(0.5, abs=1e-15)

    def test_seed_optional(self, tmp_path, capsys):
        code, report, _ = self._run(tmp_path, capsys, drop="seed")
        assert code == 0
        assert report["seed"] == 0

    def test_bad_trials(self, tmp_path, capsys):
        code, _, err = self._run(tmp_path, capsys, n_trials=0)
        assert code == 2
        assert "config: n_trials must be an integer of at least 1" in err

    def test_negative_seed(self, tmp_path, capsys):
        code, _, err = self._run(tmp_path, capsys, seed=-1)
        assert code == 2
        assert "config: seed must be an integer of at least 0" in err

    def test_true_state_must_be_state_kind(self, tmp_path, capsys):
        kind_effect = {**state_to_json(QuantumState.maximally_mixed(2)), "kind": "effect"}
        code, _, err = self._run(tmp_path, capsys, true_state=kind_effect)
        assert code == 2
        assert "unknown kind 'effect'" in err

    def test_missing_declared(self, tmp_path, capsys):
        code, _, err = self._run(tmp_path, capsys, drop="declared")
        assert code == 2
        assert "missing key 'declared'" in err


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert run_cli(["falsify-coin", "--config", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["falsify-coin", "--config", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_negative_seed(self, coin_config, capsys):
        assert run_cli(["falsify-coin", "--config", coin_config, "--seed", "-3"]) == 2
        capsys.readouterr()

    def test_zero_trials(self, coin_config, capsys):
        assert run_cli(["falsify-coin", "--config", coin_config, "--trials", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["purify", "falsify-coin", "classical-baseline"])
    def test_rank_tol_flag_rejected(self, command, coin_config, capsys):
        # The support cutoff is fixed at DEFAULT_RANK_TOL; no flag sets it.
        with pytest.raises(SystemExit) as exited:
            run_cli([command, "--config", coin_config, "--rank-tol", "1e-17"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims, message",
        [
            ("x", "expected a range like 2..4"),
            ("4..2", "bad dimension range"),
            pytest.param("x" * 4000, "expected a range like 2..4", id="long-not-a-range"),
            pytest.param("9" * 4000 + "..2", "bad dimension range", id="long-reversed"),
        ],
    )
    def test_bad_dims_exit_2(self, dims, message, capsys):
        # The message quotes at most a short prefix of a long value.
        with pytest.raises(SystemExit) as exited:
            run_cli(["check-postulates", "--dims", dims])
        captured = capsys.readouterr()
        assert exited.value.code == 2
        assert captured.out == ""
        line = captured.err.splitlines()[-1]
        assert message in line and len(line.encode()) < 200

    @pytest.mark.parametrize(
        "dims", ["2..1" + "0" * 5000, "1" + "0" * 5000 + "..2"], ids=["upper", "lower"]
    )
    def test_dims_bound_past_digit_limit(self, dims, capsys):
        # A bound too long for int() is refused in a line that neither names
        # the parser nor echoes the value.
        with pytest.raises(SystemExit) as exited:
            run_cli(["check-postulates", "--dims", dims])
        captured = capsys.readouterr()
        assert exited.value.code == 2
        assert captured.out == ""
        assert "argument --dims: dimension bound too long to read" in captured.err
        assert "_parse_dims" not in captured.err and "0" * 100 not in captured.err

    def test_empty_config_path(self, capsys):
        assert run_cli(["falsify-coin", "--config", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "falsify-coin requires --config" in captured.err


class TestOutOfRangeEntries:
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        config = tmp_path / "state.json"
        config.write_text(
            '{"kind": "state", "rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0]}'
        )
        assert run_cli(["purify", "--config", str(config)]) == 2
        assert "config: re[0] is an integer beyond float range" in capsys.readouterr().err

    def test_huge_entries_exit_2_without_warnings(self, tmp_path):
        config = tmp_path / "state.json"
        write_json(
            str(config),
            {"kind": "state", "rows": 2, "cols": 2, "re": [1e308, 0, 0, 1e308], "im": [0] * 4},
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "optfalsify", "purify", "--config", str(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: state matrix: entries must be finite")
        assert "Warning" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        config = tmp_path / "c.json"
        write_json(
            str(config),
            {
                "declared": {"p": 0.5, "phi": 0.0},
                "true_state": state_to_json(QuantumState.maximally_mixed(2)),
                "n_trials": 100,
                "seed": 1,
            },
        )
        proc = subprocess.run(
            [sys.executable, "-m", "optfalsify", "falsify-coin", "--config", str(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert '"verdict"' in proc.stdout
        assert "verdict" in proc.stderr


class TestGatedDigests:
    """The two digests CI gates, at CI's configs.  The workflow's comments
    say why no numpy build can move either file, so a change of digest is a
    changed program."""

    @pytest.mark.parametrize(
        "command, config, output, digest",
        [
            pytest.param(
                "falsify-coin",
                '{"declared": {"p": 0.5, "phi": 0.0}, "true_state": {"kind": "state", '
                '"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.5], '
                '"im": [0.0, 0.0, 0.0, 0.0]}, "n_trials": 120000, "seed": 1}',
                "--csv",
                "a28ce24694983e177ad7f4d0f6855ffc7230cb68871a761be0ec1da38d13a935",
                id="falsify-coin-trace",
            ),
            pytest.param(
                "classical-baseline",
                '{"declared_p": 0.0, "true_p": 0.999, "n_trials": 200003, "seed": 3}',
                "--out",
                "2748dd76f80e427f6cc4be1960d2cd26caaaa71bedcdc017017b274a30a90508",
                id="classical-baseline-report",
            ),
        ],
    )
    def test_digest(self, command, config, output, digest, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(config)
        out = tmp_path / "gated"
        args = [command, "--config", str(path), output, str(out)]
        if output == "--csv":
            args += ["--out", str(tmp_path / "report.json")]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
