import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from optfalsify import coins
from optfalsify import (
    BaselineVerdict,
    QuantumState,
    born_probability,
    campaign_uniforms,
    classical_baseline,
    coin_falsification_test,
    count_classical_coin,
    falsification_probability,
    falsify_campaign,
    make_coin,
    make_nary,
    sample_classical_coin,
    sample_generator,
    seeded_stream,
)
from optfalsify.cli import main as cli_main
from optfalsify.errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from optfalsify.serialize import float_literal, state_to_json, write_json

SQRT_HALF = 0.7071067811865476


class TestCoinSetup:
    def test_amplitudes_by_hand(self):
        # p = 0.25, phi = pi/3: amplitudes (0.5, sqrt(0.75) e^{i pi/3}).
        coin = make_coin(0.25, np.pi / 3)
        v = coin.state_vector
        assert v[0] == pytest.approx(0.5, abs=1e-15)
        assert v[1] == pytest.approx(
            0.8660254037844386 * (0.5 + 0.8660254037844386j), abs=1e-15
        )

    def test_observation_statistics(self):
        coin = make_coin(0.3, 1.2)
        rho = coin.state()
        e0, e1 = coin.observation_test()
        assert born_probability(rho, e0) == pytest.approx(0.3, abs=1e-12)
        assert born_probability(rho, e1) == pytest.approx(0.7, abs=1e-12)

    def test_bias_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(OutOfRangeError):
                make_coin(bad)

    def test_phase_must_be_finite(self):
        with pytest.raises(OutOfRangeError):
            make_coin(0.5, float("inf"))


class TestNaryGenerator:
    def test_defaults_to_zero_phases(self):
        gen = make_nary([0.2, 0.3, 0.5])
        assert gen.phases == (0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            np.abs(gen.state_vector) ** 2, [0.2, 0.3, 0.5], atol=1e-15
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(OutOfRangeError):
            make_nary([0.2, 0.3])

    def test_phase_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            make_nary([0.5, 0.5], [0.0])

    def test_needs_two_outcomes(self):
        with pytest.raises(DimensionMismatchError):
            make_nary([1.0])

    def test_sampling_frequencies(self):
        gen = make_nary([0.1, 0.2, 0.3, 0.4])
        n = 100_000
        draws = sample_generator(gen, n, seeded_stream(5))
        counts = np.bincount(draws, minlength=4) / n
        for k, p in enumerate(gen.probs):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[k] - p) <= 4 * sigma


class TestCoinFalsificationTest:
    def test_balanced_coin_falsifier_by_hand(self):
        # p = 1/2, phi = 0: psi = (|0>+|1>)/sqrt2, F = I - |psi><psi|.
        test = coin_falsification_test(make_coin(0.5))
        np.testing.assert_allclose(
            test.falsifier.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12
        )

    def test_rate_is_one_minus_fidelity(self, rng):
        # Dual route: Born probability of the complement projector equals
        # 1 - <psi|rho|psi> computed directly.
        from optfalsify.random_ops import random_density_matrix

        for p, phi in ((0.3, 0.7), (0.5, 0.0), (0.9, -2.0)):
            coin = make_coin(p, phi)
            test = coin_falsification_test(coin)
            rho = QuantumState(random_density_matrix(2, rng))
            psi = coin.state_vector
            direct = 1.0 - float(np.real(psi.conj() @ rho.matrix @ psi))
            assert falsification_probability(test, rho) == pytest.approx(
                direct, abs=1e-12
            )

    def test_declared_state_never_falsified(self):
        coin = make_coin(0.37, 0.9)
        test = coin_falsification_test(coin)
        assert falsification_probability(test, coin.state()) <= 1e-12


class TestCampaignStream:
    def test_negative_seed_rejected(self):
        with pytest.raises(OutOfRangeError):
            seeded_stream(-1)

    def test_prefix_property(self):
        # Trial i's uniform depends only on (seed, i), not on n_trials.
        short = campaign_uniforms(99, 5)
        long = campaign_uniforms(99, 10)
        assert np.array_equal(short, long[:5])

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(campaign_uniforms(0, 8), campaign_uniforms(1, 8))

    def test_needs_trials(self):
        with pytest.raises(OutOfRangeError):
            campaign_uniforms(0, 0)


class TestFalsifyCampaign:
    def test_honest_source_never_falsified(self):
        coin = make_coin(0.42, 1.1)
        report = falsify_campaign(coin, coin.state(), 10_000, 7)
        assert report.n_falsified == 0
        assert report.verdict == "NOT_FALSIFIED"
        assert report.z_degenerate  # rate is exactly zero

    def test_honest_grid_rate_exactly_zero(self):
        # Unsnapped, 633 of these 1353 honest coins get a rate of up to
        # 2.7e-16 from rounding in 1 - <psi|rho|psi>.
        for p in np.linspace(0.0, 1.0, 41):
            for phi in np.linspace(0.0, 2 * np.pi, 33):
                coin = make_coin(p, phi)
                report = falsify_campaign(coin, coin.state(), 100, 0)
                assert report.theoretical_rate == 0.0, (p, phi)
                assert report.n_falsified == 0
                assert report.verdict == "NOT_FALSIFIED"
                assert report.z_degenerate

    def test_rate_at_rank_tol_snaps_to_zero(self):
        # Declared balanced coin vs a state rotated by delta: rate sin^2 delta.
        delta = 1e-3
        rho = QuantumState.pure([np.cos(np.pi / 4 + delta), np.sin(np.pi / 4 + delta)])
        coin = make_coin(0.5)
        rate = falsification_probability(coin_falsification_test(coin), rho)
        assert rate == pytest.approx(np.sin(delta) ** 2, rel=1e-6)
        assert falsify_campaign(coin, rho, 10, 0).theoretical_rate == rate
        snapped = falsify_campaign(coin, rho, 10, 0, rank_tol=2 * rate)
        assert snapped.theoretical_rate == 0.0
        assert snapped.z_degenerate

    def test_dishonest_source_regression(self):
        # Declared balanced coin vs maximally mixed emission: rate 1/2.
        # Frozen count for the keyed stream at seed 42.
        report = falsify_campaign(
            make_coin(0.5), QuantumState.maximally_mixed(2), 100_000, 42
        )
        assert report.n_falsified == 49936
        assert report.verdict == "FALSIFIED"
        assert report.theoretical_rate == pytest.approx(0.5, abs=1e-12)
        assert report.empirical_rate == pytest.approx(0.49936, abs=1e-15)

    def test_z_score_formula(self):
        report = falsify_campaign(
            make_coin(0.5), QuantumState.maximally_mixed(2), 100_000, 42
        )
        expected = (report.empirical_rate - report.theoretical_rate) / np.sqrt(
            report.theoretical_rate * (1 - report.theoretical_rate) / 100_000
        )
        assert report.z_score == pytest.approx(expected, abs=1e-12)
        assert not report.z_degenerate

    def test_deterministic_given_seed(self):
        a = falsify_campaign(make_coin(0.3), QuantumState.maximally_mixed(2), 5000, 11)
        b = falsify_campaign(make_coin(0.3), QuantumState.maximally_mixed(2), 5000, 11)
        assert (a.n_falsified, a.z_score) == (b.n_falsified, b.z_score)

    def test_orthogonal_source_always_fires(self):
        report = falsify_campaign(
            make_coin(1.0), QuantumState.pure([0.0, 1.0]), 1000, 3
        )
        assert report.n_falsified == 1000
        assert report.z_degenerate

    def test_mixing_is_affine(self):
        # Falsification rate is affine in the emitted state: check the
        # midpoint of two sources lands halfway between their rates.
        test = coin_falsification_test(make_coin(0.5))
        rho_a = QuantumState.pure([1.0, 0.0])
        rho_b = QuantumState.pure([0.0, 1.0])
        mid = QuantumState((rho_a.matrix + rho_b.matrix) / 2)
        pa = falsification_probability(test, rho_a)
        pb = falsification_probability(test, rho_b)
        pm = falsification_probability(test, mid)
        assert abs(pm - (pa + pb) / 2) <= 1e-12

    def test_one_decomposition_per_campaign(self, lapack_calls):
        # Only the falsifier F is validated, by its extreme eigenvalues; the
        # inconclusive I - F is not built.
        true_state = QuantumState.maximally_mixed(2)
        lapack_calls["eigh"].clear()
        falsify_campaign(make_coin(0.5), true_state, 100, 0)
        assert len(lapack_calls["eigh"]) == 0
        assert len(lapack_calls["eigvalsh"]) == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            falsify_campaign(
                make_nary([0.5, 0.25, 0.25]),
                QuantumState.maximally_mixed(2),
                10,
                0,
            )

    def test_subnormalized_true_state_rejected(self):
        with pytest.raises(NotDeterministicError):
            falsify_campaign(
                make_coin(0.5), QuantumState(np.diag([0.25, 0.25])), 10, 0
            )


class TestStreamedCampaign:
    SEED, N_TRIALS = 42, 100_000

    @staticmethod
    def _config(tmp_path, n_trials, seed):
        path = tmp_path / "campaign.json"
        write_json(
            str(path),
            {
                "declared": {"p": 0.5, "phi": 0.0},
                "true_state": state_to_json(QuantumState.maximally_mixed(2)),
                "n_trials": n_trials,
                "seed": seed,
            },
        )
        return str(path)

    def test_chunk_size_changes_nothing(self, tmp_path, monkeypatch):
        config = self._config(tmp_path, self.N_TRIALS, self.SEED)
        bulk = campaign_uniforms(self.SEED, self.N_TRIALS)
        outputs = set()
        # 3 does not divide the trial count, so the last chunk is short.
        for size in (1, 7, 1 << 16, 3):
            monkeypatch.setattr(coins, "_CHUNK", size)
            drawn = np.concatenate(
                [u.copy() for u in coins._uniform_chunks(self.SEED, self.N_TRIALS)]
            )
            assert drawn.tobytes() == bulk.tobytes()
            out, trace = tmp_path / f"r{size}.json", tmp_path / f"t{size}.csv"
            args = ["falsify-coin", "--config", config, "--out", str(out)]
            assert cli_main(args + ["--csv", str(trace)]) == 0
            outputs.add((out.read_bytes(), trace.read_bytes()))
        assert len(outputs) == 1
        report_bytes, csv_bytes = outputs.pop()
        report = json.loads(report_bytes)
        assert report["n_falsified"] == 49936
        # Reference trace in the per-row csv.writer format.
        rate = report["theoretical_rate"]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["trial", "outcome", "p_theoretical", "seed"])
        for i, u in enumerate(bulk):
            label = "FALSIFIED" if u < rate else "INCONCLUSIVE"
            writer.writerow([i, label, float_literal(rate), self.SEED])
        assert csv_bytes == expected.getvalue().encode("ascii")

    @staticmethod
    def _traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_campaign_memory_bounded(self):
        coin, rho = make_coin(0.5), QuantumState.maximally_mixed(2)
        falsify_campaign(coin, rho, 10, 0)
        # A bulk draw of 4e6 uniforms alone holds 32 MB.
        peak = self._traced_peak(falsify_campaign, coin, rho, 4_000_000, 0)
        assert peak < 4 * 2**20

    def test_cli_trace_memory_bounded(self, tmp_path):
        config = self._config(tmp_path, 1_000_000, 7)
        args = ["falsify-coin", "--config", config, "--out", str(tmp_path / "r.json"),
                "--csv", str(tmp_path / "t.csv")]
        cli_main(args)
        # The row text of one 2^16-trial chunk traces at about 10 MiB; a
        # bulk draw of 1e6 uniforms would add 8 MB on top of it.
        peak = self._traced_peak(cli_main, args)
        assert peak < 12 * 2**20


class TestClassicalBaseline:
    def test_interior_bias_not_falsifiable(self):
        outcomes = [0, 1, 1, 0, 1]
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert classical_baseline(p, outcomes) is BaselineVerdict.NOT_FALSIFIABLE

    def test_endpoint_falsified(self):
        assert classical_baseline(1.0, [0, 0, 1]) is BaselineVerdict.FALSIFIED
        assert classical_baseline(0.0, [1, 1, 0]) is BaselineVerdict.FALSIFIED

    def test_endpoint_survives_consistent_data(self):
        assert classical_baseline(1.0, [0, 0, 0]) is BaselineVerdict.NOT_FALSIFIED
        assert classical_baseline(0.0, [1, 1]) is BaselineVerdict.NOT_FALSIFIED

    def test_bad_bias(self):
        with pytest.raises(OutOfRangeError):
            classical_baseline(1.5, [0])

    def test_bad_outcomes(self):
        with pytest.raises(OutOfRangeError):
            classical_baseline(0.5, [0, 2])

    def test_sampler_matches_bias(self):
        outcomes = sample_classical_coin(0.8, 50_000, 13)
        # mean outcome is P(outcome 1) = 1 - true_p
        assert abs(outcomes.mean() - 0.2) <= 4 * np.sqrt(0.2 * 0.8 / 50_000)

    def test_sampler_shares_campaign_stream(self):
        u = campaign_uniforms(21, 100)
        np.testing.assert_array_equal(
            sample_classical_coin(0.6, 100, 21), (u >= 0.6).astype(np.int64)
        )

    def test_counts_match_bulk_sample(self, monkeypatch):
        outcomes = sample_classical_coin(0.3, 100_000, 5)
        n_one = int(np.count_nonzero(outcomes == 1))
        # 7 does not divide the trial count, so the last chunk is short.
        for size in (1 << 16, 7):
            monkeypatch.setattr(coins, "_CHUNK", size)
            assert count_classical_coin(0.3, 100_000, 5) == (100_000 - n_one, n_one)

    def test_counts_validate_like_sampler(self):
        for args in ((1.5, 10, 0), (0.5, 0, 0)):
            with pytest.raises(OutOfRangeError):
                sample_classical_coin(*args)
            with pytest.raises(OutOfRangeError):
                count_classical_coin(*args)

    @staticmethod
    def _config(tmp_path, **doc):
        path = tmp_path / "baseline.json"
        write_json(str(path), doc)
        return str(path)

    def test_cli_report_matches_bulk_sample(self, tmp_path):
        config = self._config(
            tmp_path, declared_p=0.0, true_p=0.999, n_trials=200_003, seed=9
        )
        out = tmp_path / "r.json"
        assert cli_main(["classical-baseline", "--config", config, "--out", str(out)]) == 0
        outcomes = sample_classical_coin(0.999, 200_003, 9)
        expected = {
            "declared_p": 0.0,
            "true_p": 0.999,
            "n_trials": 200_003,
            "n_zero": int(np.count_nonzero(outcomes == 0)),
            "n_one": int(np.count_nonzero(outcomes == 1)),
            "seed": 9,
            "verdict": classical_baseline(0.0, outcomes).value,
        }
        doc = json.loads(out.read_bytes())
        assert list(doc.items()) == list(expected.items())
        assert doc["verdict"] == "FALSIFIED"

    def test_cli_memory_bounded(self, tmp_path):
        config = self._config(
            tmp_path, declared_p=0.5, true_p=0.5, n_trials=4_000_000, seed=3
        )
        args = ["classical-baseline", "--config", config, "--out", str(tmp_path / "r.json")]
        cli_main(args)
        # A bulk draw of 4e6 uniforms alone holds 32 MB.
        peak = TestStreamedCampaign._traced_peak(cli_main, args)
        assert peak < 4 * 2**20
