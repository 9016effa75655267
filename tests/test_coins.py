import csv
import io
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from optfalsify import coins
from optfalsify import (
    BaselineVerdict,
    QuantumState,
    classical_verdict,
    coin_falsification_test,
    count_classical_coin,
    count_generator,
    falsification_probability,
    falsify_campaign,
    make_coin,
    make_nary,
    seeded_stream,
)
from optfalsify.cli import main as cli_main
from optfalsify.coins import generator_probs
from optfalsify.errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from optfalsify.serialize import float_literal, state_to_json, write_json

SQRT_HALF = 0.7071067811865476

# Worker counts and chunk sizes the counts must not depend on.  5 workers is
# more than the machine's CPUs; 3 and 7 do not divide the trial counts.
WORKERS = (1, 2, 3, 5)
CHUNKS = (1, 3, 7, 1 << 16)


def cli_outputs(tmp_path, tag, *args):
    """(report, trace) bytes of the CLI run args --csv, after checking that
    the run without --csv writes the same report."""
    plain, out, trace = (tmp_path / f"{name}{tag}" for name in ("p", "r", "t"))
    assert cli_main([*args, "--out", str(plain)]) == 0
    assert cli_main([*args, "--out", str(out), "--csv", str(trace)]) == 0
    assert plain.read_bytes() == out.read_bytes()
    return out.read_bytes(), trace.read_bytes()


def splits(monkeypatch):
    """Yield each (workers, chunk size) pair with coins forced to it; the
    worker count is still capped at the number of chunks."""
    for workers in WORKERS:
        for size in CHUNKS:
            monkeypatch.setattr(coins, "_cpus", lambda workers=workers: workers)
            monkeypatch.setattr(coins, "_CHUNK", size)
            yield workers, size


def born_reference(rho: np.ndarray) -> np.ndarray:
    """Tr(rho E_k) for the canonical projectors E_k = diag(e_k), clamped to
    [0, 1] like born_probability."""
    dim = rho.shape[0]
    return np.array(
        [min(1.0, max(0.0, np.trace(rho @ np.diag(np.eye(dim)[k])).real))
         for k in range(dim)]
    )


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
        probs = generator_probs(coin)
        assert probs[0] == pytest.approx(0.3, abs=1e-12)
        assert probs[1] == pytest.approx(0.7, abs=1e-12)
        # Bit-equal to the Born rule read through the canonical projectors.
        gens = [make_coin(p, phi) for p in np.linspace(0, 1, 11) for phi in (0.0, 0.7, 3.0)]
        rng = np.random.default_rng(8)
        for dim in (3, 5, 16, 64):
            gens.append(make_nary(rng.dirichlet(np.ones(dim)), rng.uniform(0, 7, dim)))
        for gen in gens:
            ref = born_reference(gen.state().matrix)
            assert generator_probs(gen).tobytes() == ref.tobytes()

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
        counts = count_generator(gen, n, 5)[1] / n
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

    @staticmethod
    def _drawn(seed, n_trials):
        chunks = coins._stripe(seed, 0, n_trials, coins._CHUNK)
        return np.concatenate([u.copy() for u in chunks])

    def test_prefix_property(self, monkeypatch):
        # Trial i's uniform depends only on (seed, i), not on n_trials.
        monkeypatch.setattr(coins, "_CHUNK", 3)
        short, long = self._drawn(99, 5), self._drawn(99, 10)
        assert np.array_equal(short, long[:5])
        assert long.tobytes() == seeded_stream(99).random(10).tobytes()

    def test_positioned_reads_match_bulk(self):
        # Philox yields four draws per counter step; offsets 0..67 cover
        # every phase of it, and stripe ends that are not multiples of 4.
        bulk = seeded_stream(31).random(80)
        for start in range(68):
            for stop in (start, start + 1, start + 6, 80):
                for size in (1, 3, 64):
                    chunks = [u.copy() for u in coins._stripe(31, start, stop, size)]
                    assert all(0 < len(u) <= size for u in chunks)
                    drawn = np.concatenate(chunks) if chunks else np.empty(0)
                    assert drawn.tobytes() == bulk[start:stop].tobytes()

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(self._drawn(0, 8), self._drawn(1, 8))

    def test_needs_trials(self):
        with pytest.raises(OutOfRangeError):
            count_classical_coin(0.5, 0, 0)
        with pytest.raises(OutOfRangeError):
            count_generator(make_coin(0.5), 0, 0)


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
        bulk = seeded_stream(self.SEED).random(self.N_TRIALS)
        outputs = set()
        for workers, size in splits(monkeypatch):
            chunks = coins._stripe(self.SEED, 0, self.N_TRIALS, size)
            assert np.concatenate([u.copy() for u in chunks]).tobytes() == bulk.tobytes()
            tag = f"{workers}_{size}"
            outputs.add(cli_outputs(tmp_path, tag, "falsify-coin", "--config", config))
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

    @pytest.mark.parametrize(
        "count",
        [
            lambda n: falsify_campaign(make_coin(0.5), QuantumState.maximally_mixed(2), n, 0),
            lambda n: count_generator(make_nary([0.2, 0.3, 0.5]), n, 0),
            lambda n: count_classical_coin(0.5, n, 0),
        ],
        ids=["falsify_campaign", "count_generator", "count_classical_coin"],
    )
    def test_campaign_memory_bounded(self, count, monkeypatch):
        # More workers than CPUs share the one _CHUNK-sized buffer budget.
        monkeypatch.setattr(coins, "_cpus", lambda: 5)
        count(10)
        # A bulk draw of 4e6 uniforms alone holds 32 MB.
        peak = self._traced_peak(count, 4_000_000)
        assert peak < 4 * 2**20

    def test_cli_trace_memory_bounded(self, tmp_path):
        config = self._config(tmp_path, 1_000_000, 7)
        args = ["falsify-coin", "--config", config, "--out", str(tmp_path / "r.json"),
                "--csv", str(tmp_path / "t.csv")]
        cli_main(args)
        # One 2^16-trial chunk and one encoded block of rows trace at about
        # 1.6 MiB; a bulk draw of 1e6 uniforms would add 8 MB, and one
        # chunk's rows held as Python strings about 8 MiB.
        peak = self._traced_peak(cli_main, args)
        assert peak < 4 * 2**20



class TestStreamedSample:
    SEED, N_TRIALS = 3, 20_003
    DECLARED = {"probs": [0.2, 0.3, 0.5], "phases": [0.1, 0.2, 0.3]}

    def _config(self, tmp_path, n_trials):
        path = tmp_path / "sample.json"
        write_json(
            str(path), {"declared": self.DECLARED, "n_trials": n_trials, "seed": self.SEED}
        )
        return str(path)

    def test_point_mass_constant(self):
        assert count_generator(make_nary([0.0, 1.0]), 100, 0)[1].tolist() == [0, 100]
        assert count_generator(make_coin(1.0), 100, 0)[1].tolist() == [100, 0]

    def test_chunk_size_changes_nothing(self, tmp_path, monkeypatch):
        config = self._config(tmp_path, self.N_TRIALS)
        outputs = set()
        for workers, size in splits(monkeypatch):
            outputs.add(cli_outputs(tmp_path, f"{workers}_{size}", "sample", "--config", config))
        assert len(outputs) == 1
        report_bytes, csv_bytes = outputs.pop()
        # Reference: inverse-CDF codes of the bulk keyed stream.
        gen = make_nary(self.DECLARED["probs"], self.DECLARED["phases"])
        probs = born_reference(gen.state().matrix)
        edges = np.cumsum(probs)
        edges[-1] = 1.0
        bulk = seeded_stream(self.SEED).random(self.N_TRIALS)
        codes = np.searchsorted(edges, bulk, side="right")
        report = json.loads(report_bytes)
        assert report["counts"] == np.bincount(codes, minlength=3).tolist()
        assert report["probs"] == probs.tolist()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["trial", "outcome", "p_theoretical", "seed"])
        for i, c in enumerate(codes):
            writer.writerow([i, c, float_literal(probs[c]), self.SEED])
        assert csv_bytes == expected.getvalue().encode("ascii")

    def _args(self, tmp_path, n_trials):
        config = self._config(tmp_path, n_trials)
        return ["sample", "--config", config, "--out", str(tmp_path / "r.json")]

    def test_memory_bounded(self, tmp_path):
        args = self._args(tmp_path, 4_000_000)
        cli_main(args)
        # A bulk draw of 4e6 uniforms alone holds 32 MB.
        assert TestStreamedCampaign._traced_peak(cli_main, args) < 4 * 2**20

    def test_cli_trace_memory_bounded(self, tmp_path):
        args = self._args(tmp_path, 1_000_000) + ["--csv", os.devnull]
        cli_main(args)
        # One 2^16-trial chunk and one encoded block of rows trace at about
        # 1.8 MiB; a bulk draw of 1e6 uniforms and their codes would add
        # 16 MB, and one chunk's rows held as Python strings about 7 MiB.
        assert TestStreamedCampaign._traced_peak(cli_main, args) < 4 * 2**20

    def test_many_outcomes_memory_bounded(self, tmp_path):
        config = tmp_path / "wide.json"
        write_json(str(config), {"declared": {"probs": [1 / 256] * 256}, "n_trials": 1000})
        args = ["sample", "--config", str(config), "--out", str(tmp_path / "r.json")]
        cli_main(args)
        # The declared 256 x 256 state and its validation trace at about
        # 5 MiB; one dense 256 x 256 projector per outcome would hold 256 MiB.
        assert TestStreamedCampaign._traced_peak(cli_main, args) < 8 * 2**20


class TestStripedCount:
    """Untraced counts run contiguous stripes of the keyed stream on
    threads (coins._tally)."""

    def test_stress_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(coins, "_cpus", lambda: 5)
        monkeypatch.setattr(coins, "_CHUNK", 7)
        n, seed = 20_003, 17
        bulk = seeded_stream(seed).random(n)
        gen = make_nary([0.2, 0.3, 0.5])
        edges = np.cumsum(generator_probs(gen))
        edges[-1] = 1.0
        codes = np.bincount(np.searchsorted(edges, bulk, side="right"), minlength=3)
        n_one = int(np.count_nonzero(bulk >= 0.4))
        n_fired = int(np.count_nonzero(bulk < 0.5))
        coin, rho = make_coin(0.5), QuantumState.maximally_mixed(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rounds, deadline = 0, time.monotonic() + 2.0
            while rounds == 0 or time.monotonic() < deadline:
                assert count_generator(gen, n, seed)[1].tolist() == codes.tolist()
                assert count_classical_coin(0.4, n, seed) == (n - n_one, n_one)
                assert falsify_campaign(coin, rho, n, seed).n_falsified == n_fired
                rounds += 1
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(coins, "_cpus", lambda: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(coins.threading, "Thread", no_thread)
        assert count_classical_coin(0.5, 200_000, 1) == TestClassicalBaseline._tosses(
            0.5, 200_000, 1
        )

    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(coins, "_cpus", lambda: 3)
        monkeypatch.setattr(coins, "_CHUNK", 3)
        caller, error = threading.get_ident(), ValueError("stripe failed")

        def label(u):
            if threading.get_ident() != caller:
                raise error
            return u < 0.5

        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            coins._tally(0, 300, label, np.count_nonzero)
        assert info.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_caller_error_stops_workers(self, monkeypatch, error):
        # Three stripes of 1000 one-trial chunks; a worker's full stripe
        # would take at least a second.
        monkeypatch.setattr(coins, "_cpus", lambda: 3)
        monkeypatch.setattr(coins, "_CHUNK", 3)
        caller = threading.get_ident()
        counted: dict[int, int] = {}  # chunks per worker thread
        both_counting = threading.Event()

        def label(u):
            me = threading.get_ident()
            if me == caller:
                if not both_counting.wait(timeout=10):
                    raise AssertionError("workers never counted a chunk")
                raise error
            counted[me] = counted.get(me, 0) + 1
            if len(counted) == 2:
                both_counting.set()
            time.sleep(1e-3)
            return u < 0.5

        before = threading.active_count()
        with pytest.raises(error):
            coins._tally(0, 3000, label, np.count_nonzero)
        assert threading.active_count() == before
        assert len(counted) == 2
        assert all(chunks < 100 for chunks in counted.values()), counted


class TestClassicalBaseline:
    @staticmethod
    def _tosses(true_p, n_trials, seed):
        """Reference (n_zero, n_one): outcome 1 iff the keyed uniform >= true_p."""
        n_one = int(np.count_nonzero(seeded_stream(seed).random(n_trials) >= true_p))
        return n_trials - n_one, n_one

    def test_interior_bias_not_falsifiable(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert classical_verdict(p, 2, 3) is BaselineVerdict.NOT_FALSIFIABLE

    def test_endpoint_falsified(self):
        assert classical_verdict(1.0, 2, 1) is BaselineVerdict.FALSIFIED
        assert classical_verdict(0.0, 1, 2) is BaselineVerdict.FALSIFIED

    def test_endpoint_survives_consistent_data(self):
        assert classical_verdict(1.0, 3, 0) is BaselineVerdict.NOT_FALSIFIED
        assert classical_verdict(0.0, 0, 2) is BaselineVerdict.NOT_FALSIFIED

    def test_bad_bias(self):
        with pytest.raises(OutOfRangeError):
            classical_verdict(1.5, 1, 0)

    def test_bad_outcomes(self, tmp_path, capsys):
        # Only the integers 0 and 1 are outcomes: not 2, -1, 0.5 or true.
        for bad in (2, -1, 0.5, True):
            config = self._config(tmp_path, declared_p=0.5, outcomes=[0, 1, bad])
            assert cli_main(["classical-baseline", "--config", config]) == 2
            assert "outcomes[2] must be 0 or 1" in capsys.readouterr().err

    def test_sampler_matches_bias(self):
        n_zero, n_one = count_classical_coin(0.8, 50_000, 13)
        # the frequency of outcome 1 estimates 1 - true_p
        assert abs(n_one / 50_000 - 0.2) <= 4 * np.sqrt(0.2 * 0.8 / 50_000)
        assert n_zero + n_one == 50_000

    def test_sampler_shares_campaign_stream(self):
        assert count_classical_coin(0.6, 100, 21) == self._tosses(0.6, 100, 21)

    def test_counts_match_bulk_sample(self, tmp_path, monkeypatch):
        expected = self._tosses(0.3, 100_000, 5)
        config = self._config(
            tmp_path, declared_p=0.3, true_p=0.3, n_trials=100_000, seed=5
        )
        reports = set()
        for workers, size in splits(monkeypatch):
            out = tmp_path / f"r{workers}_{size}.json"
            assert cli_main(["classical-baseline", "--config", config, "--out", str(out)]) == 0
            reports.add(out.read_bytes())
        assert len(reports) == 1
        doc = json.loads(reports.pop())
        assert (doc["n_zero"], doc["n_one"]) == expected

    def test_counts_validate_like_sampler(self):
        for args in ((1.5, 10, 0), (0.5, 0, 0)):
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
        n_zero, n_one = self._tosses(0.999, 200_003, 9)
        expected = {
            "declared_p": 0.0,
            "true_p": 0.999,
            "n_trials": 200_003,
            "n_zero": n_zero,
            "n_one": n_one,
            "seed": 9,
            "verdict": classical_verdict(0.0, n_zero, n_one).value,
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
