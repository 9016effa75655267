import argparse
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from optfalsify.cli import ENV_SEED, RunConfig, _build_parser, main
from optfalsify.coins import generator_probs, make_nary, sample_generator, seeded_stream
from optfalsify.quantum import QuantumState
from optfalsify.serialize import json_dumps, read_json, state_to_json, write_json


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


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


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

    def test_env_seed_used_as_fallback(self, tmp_path, monkeypatch):
        config = tmp_path / "c.json"
        write_json(
            str(config),
            {
                "declared": {"p": 0.5},
                "true_state": state_to_json(QuantumState.maximally_mixed(2)),
                "n_trials": 100,
            },
        )
        out = tmp_path / "r.json"
        monkeypatch.setenv(ENV_SEED, "31")
        run_cli(["falsify-coin", "--config", str(config), "--out", str(out)])
        assert read_json(str(out))["seed"] == 31

    def test_config_seed_beats_env(self, coin_config, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(ENV_SEED, "31")
        run_cli(["falsify-coin", "--config", coin_config, "--out", str(out)])
        assert read_json(str(out))["seed"] == 42

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

    def test_rank_tol_sets_zero_rate_cutoff(self, tmp_path):
        # Declared balanced coin vs a state rotated by 1e-3: rate about 1e-6.
        theta = np.pi / 4 + 1e-3
        config = tmp_path / "c.json"
        write_json(
            str(config),
            {
                "declared": {"p": 0.5},
                "true_state": state_to_json(
                    QuantumState.pure([np.cos(theta), np.sin(theta)])
                ),
                "n_trials": 100,
            },
        )
        rates = []
        for tol in ("1e-10", "1e-5"):
            out = tmp_path / f"r{tol}.json"
            args = ["falsify-coin", "--config", str(config), "--out", str(out)]
            assert run_cli(args + ["--rank-tol", tol]) == 0
            rates.append(read_json(str(out))["theoretical_rate"])
        assert rates[0] == pytest.approx(1e-6, rel=1e-3)
        assert rates[1] == 0.0

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

    def test_report_matches_library_sampler(self, tmp_path):
        config = tmp_path / "gen.json"
        declared = {"probs": [0.2, 0.3, 0.5], "phases": [0.1, 0.2, 0.3]}
        write_json(str(config), {"declared": declared, "n_trials": 5000, "seed": 11})
        out = tmp_path / "s.json"
        assert run_cli(["sample", "--config", str(config), "--out", str(out)]) == 0
        doc = read_json(str(out))
        gen = make_nary(declared["probs"], declared["phases"])
        draws = sample_generator(gen, 5000, seeded_stream(11))
        assert doc["counts"] == np.bincount(draws, minlength=3).tolist()
        assert doc["probs"] == generator_probs(gen).tolist()


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

    def test_injected_fault_exits_one(self, capsys):
        code = run_cli(["check-postulates", "--dims", "2..2", "--inject-fault", "kraus-norm"])
        captured = capsys.readouterr()
        assert code == 1
        assert any(l.startswith("FAIL") for l in captured.out.splitlines())

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

    def test_bad_outcome_value(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        write_json(str(config), {"declared_p": 0.5, "outcomes": [0, 2]})
        assert run_cli(["classical-baseline", "--config", str(config)]) == 2
        assert "outcomes[1]" in capsys.readouterr().err


class TestParser:
    FLAGS = {
        "purify": {"--config", "--rank-tol", "--out"},
        "falsify-coin": {"--config", "--seed", "--trials", "--rank-tol", "--out", "--csv"},
        "sample": {"--config", "--seed", "--trials", "--out", "--csv"},
        "check-postulates": {"--seed", "--out", "--dims", "--inject-fault"},
        "classical-baseline": {"--config", "--seed", "--trials", "--rank-tol", "--out"},
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
             "--rank-tol", "1e-8", "--out", "o.json", "--csv", "t.csv"]
        )
        assert (cfg.config_path, cfg.master_seed, cfg.n_trials, cfg.rank_tol) == (
            "c.json", 5, 9, 1e-8
        )
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

    def test_bad_rank_tol(self, coin_config, capsys):
        assert run_cli(["falsify-coin", "--config", coin_config, "--rank-tol", "0.5"]) == 2
        capsys.readouterr()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "c.json"
        write_json(
            str(config),
            {
                "declared": {"p": 0.5},
                "true_state": state_to_json(QuantumState.maximally_mixed(2)),
                "n_trials": 10,
            },
        )
        monkeypatch.setenv(ENV_SEED, "noise")
        assert run_cli(["falsify-coin", "--config", str(config)]) == 2
        capsys.readouterr()


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
