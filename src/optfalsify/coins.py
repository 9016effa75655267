"""Falsification of random generators.

A declared generator is a pure state plus a canonical-basis observation:
the biased coin sqrt(p)|0> + sqrt(1-p) e^{i phi}|1>, or its N-ary
generalization.  Declaring the full state makes the generator falsifiable:
the projector onto the complement of the declared vector fires with
positive probability exactly when the source emits something else.  A
classical non-deterministic coin admits no such test: every outcome has
positive probability unless p is 0 or 1.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from .falsification import (
    FalsificationTest,
    SupportHypothesis,
    falsification_probability,
    support_falsification_test,
)
from .linalg import DEFAULT_RANK_TOL, TRACE_TOL
from .quantum import QuantumState

# Campaign trials consume variates of Philox, a counter-based stream keyed by
# the master seed: trial i's uniform is a keyed hash of i, so any stretch of
# trials can be read on its own, bit for bit, by positioning a fresh stream
# at its first trial.  Untraced counts split the trials into contiguous
# stripes, one per CPU this process may run on (_cpus), and count each
# stripe on its own thread; the counts are exact integers, so their sum does
# not depend on the split.  A trace sees the trials in one ordered pass.

# Campaigns draw their uniforms this many at a time into reused buffers
# (split evenly between the stripes), so their memory does not grow with
# n_trials.  The stream is the same at any chunk size.
_CHUNK = 1 << 16


def _philox(master_seed: int) -> np.random.Philox:
    if master_seed < 0:
        raise OutOfRangeError("seed must be a non-negative integer")
    return np.random.Philox(np.random.SeedSequence(master_seed))


def seeded_stream(master_seed: int) -> np.random.Generator:
    return np.random.Generator(_philox(master_seed))


def _stripe(master_seed: int, start: int, stop: int, size: int) -> Iterator[np.ndarray]:
    """seeded_stream(master_seed).random(stop)[start:] as consecutive chunks
    of at most size values.  Each chunk is a view of one reused buffer and
    holds its values only until the next chunk is drawn."""
    bits = _philox(master_seed)
    # Each Philox counter step yields four 64-bit draws, one per uniform.
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    gen = np.random.Generator(bits)
    buf = np.empty(min(stop - start, size))
    for lo in range(start, stop, size):
        chunk = buf[: min(size, stop - lo)]
        gen.random(out=chunk)
        yield chunk


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tally(
    master_seed: int,
    n_trials: int,
    label: Callable[[np.ndarray], np.ndarray],
    count: Callable[[np.ndarray], Any],
    trace: Callable[[Any, Iterator[np.ndarray]], None] | None = None,
    head: Any = None,
) -> Any:
    """Sum of count(label(u)) over the chunks u of the first n_trials keyed
    uniforms, where label maps uniforms to per-trial outcomes and count
    maps outcomes to an exact integer total.

    Contiguous stripes of the trials are counted on min(_cpus(), chunks)
    threads, the caller's among them, with buffers of _CHUNK values in all.
    An exception in any stripe stops the others at their next chunk and
    reaches the caller; every thread is joined before _tally returns or
    raises.  Given a trace, the one stripe is stripe 0, and trace(head,
    label_chunks) gets its chunks' outcomes in trial order (each valid until
    the next is drawn); the chunks it leaves unread are still counted.
    """
    workers = 1 if trace is not None else min(_cpus(), -(-n_trials // _CHUNK))
    size = max(1, _CHUNK // workers)
    bounds = [n_trials * k // workers for k in range(workers + 1)]
    totals: list[Any] = [0] * workers
    errors: list[BaseException] = []
    stop = threading.Event()

    def label_chunks(k: int) -> Iterator[np.ndarray]:
        for u in _stripe(master_seed, bounds[k], bounds[k + 1], size):
            if stop.is_set():
                return
            outcomes = label(u)
            totals[k] = totals[k] + count(outcomes)
            yield outcomes

    def run(k: int) -> None:
        chunks = label_chunks(k)
        if trace is not None:
            trace(head, chunks)
        for _ in chunks:
            pass

    def work(k: int) -> None:
        try:
            run(k)
        except BaseException as exc:  # raised again by the caller's thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=work, args=(k,), name=f"stripe-{k}")
            thread.start()
            threads.append(thread)
        run(0)
        for thread in threads:
            thread.join()
    finally:
        # Reached with live workers only on an error, including an
        # interrupt while joining above: stop them at their next chunk.
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sum(totals)


@dataclass(frozen=True, eq=False)
class NaryGenerator:
    """N-outcome generator: sum_n sqrt(p_n) e^{i phi_n} |n>.  The biased
    coin sqrt(p)|0> + sqrt(1-p) e^{i phi}|1> is the case N = 2 (make_coin)."""

    probs: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(x) for x in self.probs)
        phases = tuple(float(x) for x in self.phases)
        if len(probs) < 2:
            raise DimensionMismatchError("generator needs at least two outcomes")
        if len(phases) != len(probs):
            raise DimensionMismatchError(
                f"{len(phases)} phases for {len(probs)} outcome weights"
            )
        if not all(np.isfinite(x) for x in probs + phases):
            raise OutOfRangeError("generator parameters must be finite")
        if min(probs) < -1e-12:
            raise OutOfRangeError("outcome weights must be non-negative")
        if abs(sum(probs) - 1.0) > TRACE_TOL:
            raise OutOfRangeError(
                f"outcome weights sum to {sum(probs)!r}, expected 1"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return len(self.probs)

    @property
    def state_vector(self) -> np.ndarray:
        amps = np.sqrt(np.maximum(np.asarray(self.probs), 0.0)).astype(complex)
        return amps * np.exp(1j * np.asarray(self.phases))

    def state(self) -> QuantumState:
        return QuantumState.pure(self.state_vector)


def make_coin(p: float, phi: float = 0.0) -> NaryGenerator:
    p, phi = float(p), float(phi)
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise OutOfRangeError(f"coin bias p={p!r} outside [0, 1]")
    if not np.isfinite(phi):
        raise OutOfRangeError("coin phase must be finite")
    return NaryGenerator((p, 1.0 - p), (0.0, phi))


def make_nary(probs, phases=None) -> NaryGenerator:
    probs = tuple(float(x) for x in probs)
    if phases is None:
        phases = (0.0,) * len(probs)
    return NaryGenerator(probs=probs, phases=tuple(float(x) for x in phases))


def generator_probs(declared: NaryGenerator) -> np.ndarray:
    """Born statistics of the declared state's canonical-basis outcomes:
    Tr(rho |k><k|) = rho[k, k], clamped to [0, 1]."""
    return np.clip(declared.state().matrix.diagonal().real, 0.0, 1.0)


def count_generator(
    declared: NaryGenerator,
    n_trials: int,
    master_seed: int,
    *,
    trace: Callable[[np.ndarray, Iterator[np.ndarray]], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, counts): generator_probs(declared) and how often each outcome
    occurs in n_trials draws from them.

    Trial i's outcome is the first whose cumulative probability exceeds the
    i-th keyed uniform.  The trials are counted in fixed-size chunks (see
    _tally), so memory does not grow with n_trials.  When trace is given,
    it is called once as trace(probs, code_chunks), where code_chunks yields
    each chunk's outcome indices in trial order (valid until the next is
    drawn); the chunks it leaves unread are still counted.
    """
    if n_trials < 1:
        raise OutOfRangeError("n_trials must be at least 1")
    probs = generator_probs(declared)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    counts = _tally(
        master_seed,
        n_trials,
        lambda u: np.searchsorted(edges, u, side="right"),
        lambda codes: np.bincount(codes, minlength=declared.dim),
        trace,
        probs,
    )
    return probs, counts


def coin_falsification_test(declared: NaryGenerator) -> FalsificationTest:
    """Most efficient test of "the source emits the declared state":
    falsifier = identity minus the declared pure-state projector."""
    psi = declared.state_vector
    hypothesis = SupportHypothesis(
        projector=np.outer(psi, psi.conj()),
        label="source emits the declared generator state",
    )
    return support_falsification_test(hypothesis, efficiency=1.0)


class BaselineVerdict(Enum):
    FALSIFIED = "FALSIFIED"
    NOT_FALSIFIABLE = "NOT_FALSIFIABLE"
    NOT_FALSIFIED = "NOT_FALSIFIED"


@dataclass(frozen=True, eq=False)
class CampaignReport:
    """Outcome summary of a Monte Carlo falsification campaign."""

    n_trials: int
    n_falsified: int
    empirical_rate: float
    theoretical_rate: float
    z_score: float
    z_degenerate: bool
    seed: int
    verdict: str


def falsify_campaign(
    declared: NaryGenerator,
    true_state: QuantumState,
    n_trials: int,
    master_seed: int,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    trace: Callable[[float, Iterator[np.ndarray]], None] | None = None,
) -> CampaignReport:
    """Repeat the declared-state falsification test on n_trials emissions of
    true_state.  One falsifying click settles the verdict (falsification is
    single-shot), but all trials run so the empirical rate can be compared
    with the theoretical rate 1 - <psi|rho|psi>, which is 0.0 at or below
    rank_tol (see falsification_probability).

    Trial i fires iff the i-th keyed uniform falls below the theoretical
    rate, which is exactly the single-trial Bernoulli sampling of run_test.
    The trials are counted in fixed-size chunks (see _tally), so memory
    does not grow with n_trials.  When trace is given, it is called once as
    trace(rate, fired_chunks), where fired_chunks yields each chunk's
    boolean mask of fired trials in trial order (valid until the next is
    drawn); the chunks it leaves unread are still counted.
    """
    if n_trials < 1:
        raise OutOfRangeError("n_trials must be at least 1")
    test = coin_falsification_test(declared)
    if true_state.dim != test.dim:
        raise DimensionMismatchError(
            f"true state dim {true_state.dim} vs declared dim {test.dim}"
        )
    if not true_state.deterministic:
        raise NotDeterministicError("campaign requires a trace-one true state")
    rate = falsification_probability(test, true_state, rank_tol)
    n_falsified = int(
        _tally(master_seed, n_trials, lambda u: u < rate, np.count_nonzero, trace, rate)
    )
    empirical = n_falsified / n_trials
    if 0.0 < rate < 1.0:
        z = (empirical - rate) / np.sqrt(rate * (1.0 - rate) / n_trials)
        z_degenerate = False
    else:
        z = 0.0
        z_degenerate = True
    return CampaignReport(
        n_trials=n_trials,
        n_falsified=n_falsified,
        empirical_rate=empirical,
        theoretical_rate=rate,
        z_score=float(z),
        z_degenerate=z_degenerate,
        seed=master_seed,
        verdict="FALSIFIED" if n_falsified >= 1 else "NOT_FALSIFIED",
    )


def classical_verdict(
    declared_p: float, n_zero: int, n_one: int, bias_tol: float = DEFAULT_RANK_TOL
) -> BaselineVerdict:
    """Logical falsifiability of a classical coin declaring P(outcome 0) = p,
    given how often each outcome occurred.

    For p strictly inside (0, 1) both outcomes have positive probability, so
    no outcome sequence can refute the declaration.  Only the deterministic
    endpoints (within the absolute bias_tol) are falsifiable: p = 1 is
    refuted by any outcome 1, p = 0 by any outcome 0.
    """
    if not (np.isfinite(declared_p) and 0.0 <= declared_p <= 1.0):
        raise OutOfRangeError(f"declared_p={declared_p!r} outside [0, 1]")
    if declared_p >= 1.0 - bias_tol:
        hit = n_one > 0
    elif declared_p <= bias_tol:
        hit = n_zero > 0
    else:
        return BaselineVerdict.NOT_FALSIFIABLE
    return BaselineVerdict.FALSIFIED if hit else BaselineVerdict.NOT_FALSIFIED


def count_classical_coin(
    true_p: float, n_trials: int, master_seed: int
) -> tuple[int, int]:
    """(n_zero, n_one) of n_trials tosses of a classical coin with
    P(outcome 0) = true_p: trial i gives outcome 1 iff the i-th keyed
    uniform is at least true_p.  The tosses are counted in fixed-size chunks
    (see _tally), so memory does not grow with n_trials."""
    if not (np.isfinite(true_p) and 0.0 <= true_p <= 1.0):
        raise OutOfRangeError(f"true_p={true_p!r} outside [0, 1]")
    if n_trials < 1:
        raise OutOfRangeError("n_trials must be at least 1")
    n_one = int(_tally(master_seed, n_trials, lambda u: u >= true_p, np.count_nonzero))
    return n_trials - n_one, n_one
