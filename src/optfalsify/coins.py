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

import functools
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

import numpy as np

from .classical import ClassicalState, classical_falsifier_exists
from .errors import (
    DimensionMismatchError,
    NotDeterministicError,
    OutOfRangeError,
)
from .falsification import (
    FalsificationTest,
    SupportHypothesis,
    TestOutcome,
    falsification_probability,
    support_falsification_test,
)
from .linalg import (
    _WEIGHT_TOL,
    BAD_SEED,
    BAD_TRIALS,
    _check_int,
    _check_probability,
    _normalized,
    _numbers,
)
from .quantum import QuantumState

# Campaign trials consume the raw 64-bit words of Philox, a counter-based
# stream keyed by np.random.SeedSequence(master_seed) (_stripe): trial i's
# word is a keyed hash of i, so any stretch of trials can be read on its
# own, bit for bit, by positioning a fresh stream at its first trial.
# Untraced counts split the trials into contiguous stripes, one per CPU this
# process may run on (_cpus), and count each stripe on its own thread; the
# counts are exact integers, so their sum does not depend on the split.  A
# trace sees the trials in one ordered pass.
#
# Trial i's uniform is numpy's Philox double u = (x >> 11) * 2^-53 of its
# word x, and for p in [0, 1] u < p holds exactly when x < ceil(p * 2^53) << 11
# (_cut).  So campaigns compare the words against integer thresholds computed
# once per call and never form the doubles; every count is the one the
# doubles give.
#
# A counter given a trace calls it once, in the ordered pass, as
# trace(outcomes, p_theoretical, seed, codes), the arguments of
# serialize.write_trace_csv after its path: seed is the checked master seed,
# codes yields each chunk's outcome codes in trial order (each valid until the
# next is drawn), and a trial of code c has outcomes[c] and p_theoretical[c].
# Unread chunks still count.

# Campaigns draw their words this many at a time (split evenly between the
# stripes), so their memory does not grow with n_trials.  The stream is the
# same at any chunk size.
_CHUNK = 1 << 16

# np.searchsorted returns int64 codes, so _outcome takes a chunk's words this
# many at a time, and its int64 result stays small beside the narrow codes.
_SLICE = 1 << 12

# ceil(p * 2^53) of p = 1.0: a cut this high passes every word.
_ALL = 1 << 53

# A campaign trace's outcome labels for a mask's False and True.
_MASK_OUTCOMES = (TestOutcome.INCONCLUSIVE.value, TestOutcome.FALSIFIED.value)


def _stripe(master_seed: int, start: int, stop: int, size: int) -> Iterator[np.ndarray]:
    """Words start to stop of the Philox stream keyed by master_seed (its
    random_raw(stop)[start:]) as consecutive new uint64 arrays of at most
    size words.  The caller has checked master_seed (_tally)."""
    bits = np.random.Philox(np.random.SeedSequence(master_seed))
    # Each Philox counter step yields four 64-bit words.
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    for lo in range(start, stop, size):
        yield bits.random_raw(min(size, stop - lo))


def _cut(p: float) -> int:
    """ceil(p * 2^53): the uniform (x >> 11) * 2^-53 of a word x is below
    p exactly when x >> 11 is below the cut, that is x < _cut(p) << 11.
    Scaling by 2^53 is exact, so no rounding enters."""
    return math.ceil(math.ldexp(p, 53))


def _below(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """Mask of the words whose uniform is below p, for p in [0, 1]."""
    cut = _cut(p)
    if cut >= _ALL:  # p = 1.0, whose threshold 2^64 is no uint64
        return lambda x: np.ones(len(x), dtype=bool)
    threshold = np.uint64(cut << 11)
    return lambda x: x < threshold


def _outcome(edges: np.ndarray, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Codes np.searchsorted(edges, u, side="right") of the words' uniforms
    u, for non-decreasing edges, in the narrowest unsigned type holding dim.
    The code counts the edges at or below u, and e <= u exactly when
    _cut(e) << 11 <= x; an edge at or above 1.0 is above every uniform and
    never counts, so it is dropped."""
    cuts = np.array([c << 11 for c in map(_cut, edges) if c < _ALL], dtype=np.uint64)
    dtype = np.min_scalar_type(dim)

    def codes(x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x), dtype=dtype)
        for lo in range(0, len(x), _SLICE):
            out[lo : lo + _SLICE] = np.searchsorted(cuts, x[lo : lo + _SLICE], side="right")
        return out

    return codes


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
    trace: Callable[[int, Iterator[np.ndarray]], None] | None = None,
) -> Any:
    """Sum of count(label(x)) over the chunks x of the first n_trials keyed
    raw words, where label maps words to per-trial outcome codes and count
    maps codes to an exact integer total.

    Contiguous stripes of the trials are counted on min(_cpus(), chunks)
    threads, the caller's among them, with chunks of _CHUNK words in all;
    each stripe drops its chunk once labelled.  An exception in any stripe
    stops the others at their next chunk and reaches the caller; every
    thread is joined before _tally returns or raises.  Given a trace, the
    one stripe is stripe 0, and trace(master_seed, code_chunks) gets its
    codes as the module comment describes, the counter having bound the
    trace's outcomes and p_theoretical.  n_trials must be an integer of at
    least 1 and master_seed a non-negative integer (else OutOfRangeError,
    raised before any stripe starts or trace is called).
    """
    n_trials = _check_int(n_trials, 1, OutOfRangeError, BAD_TRIALS)
    master_seed = _check_int(master_seed, 0, OutOfRangeError, BAD_SEED)
    workers = 1 if trace is not None else min(_cpus(), -(-n_trials // _CHUNK))
    size = max(1, _CHUNK // workers)
    bounds = [n_trials * k // workers for k in range(workers + 1)]
    totals: list[Any] = [0] * workers
    errors: list[BaseException] = []
    stop = threading.Event()

    def label_chunks(k: int) -> Iterator[np.ndarray]:
        for x in _stripe(master_seed, bounds[k], bounds[k + 1], size):
            if stop.is_set():
                return
            outcomes = label(x)
            del x  # so the next chunk is drawn with this one freed
            totals[k] = totals[k] + count(outcomes)
            yield outcomes

    def run(k: int) -> None:
        chunks = label_chunks(k)
        if trace is not None:
            trace(master_seed, chunks)
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
        probs = _numbers(self.probs, float, "generator outcome weights")
        phases = _numbers(self.phases, float, "generator phases")
        if probs.ndim != 1 or phases.ndim != 1:
            raise OutOfRangeError(
                "generator parameters must be finite numbers, one per outcome"
            )
        probs, phases = tuple(probs.tolist()), tuple(phases.tolist())
        if len(probs) < 2:
            raise DimensionMismatchError("generator needs at least two outcomes")
        if len(phases) != len(probs):
            raise DimensionMismatchError(
                f"{len(phases)} phases for {len(probs)} outcome weights"
            )
        if min(probs) < -_WEIGHT_TOL:
            raise OutOfRangeError("outcome weights must be non-negative")
        if not _normalized(abs(sum(probs) - 1.0)):
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
    p = _check_probability("coin bias p", p)
    return NaryGenerator((p, 1.0 - p), (0.0, phi))


def make_nary(probs, phases=None) -> NaryGenerator:
    probs = _numbers(probs, float, "generator outcome weights")
    return NaryGenerator(probs, np.zeros(probs.shape) if phases is None else phases)


def generator_probs(declared: NaryGenerator) -> np.ndarray:
    """Born statistics of the declared state's canonical-basis outcomes:
    Tr(rho |k><k|) = rho[k, k], clamped to [0, 1]."""
    return np.clip(declared.state().matrix.diagonal().real, 0.0, 1.0)


def count_generator(
    declared: NaryGenerator,
    n_trials: int,
    master_seed: int,
    *,
    trace: Callable[..., None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, counts): generator_probs(declared) and how often each outcome
    occurs in n_trials draws from them.

    Trial i's outcome is the first whose cumulative probability exceeds the
    i-th keyed uniform.  Each cumulative edge below 1.0 is compared as its
    integer threshold against the trials' raw words, which gives exactly
    the outcome of the uniforms (see _outcome); the last edge is 1.0 and
    never counts.  The trials are counted in fixed-size chunks (see
    _tally), so memory does not grow with n_trials.  A trace (see the module
    comment) gets outcomes range(dim), p_theoretical probs and each chunk's
    outcome indices, in the narrowest unsigned type that holds dim.
    """
    probs = generator_probs(declared)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    if trace is not None:
        trace = functools.partial(trace, range(declared.dim), probs)
    counts = _tally(
        master_seed,
        n_trials,
        _outcome(edges, declared.dim),
        lambda codes: np.bincount(codes, minlength=declared.dim),
        trace,
    )
    return probs, counts


def coin_falsification_test(declared: NaryGenerator) -> FalsificationTest:
    """Most efficient test of "the source emits the declared state":
    falsifier = identity minus the declared pure-state projector."""
    psi = declared.state_vector
    hypothesis = SupportHypothesis(np.outer(psi, psi.conj()))
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
    trace: Callable[..., None] | None = None,
) -> CampaignReport:
    """Repeat the declared-state falsification test on n_trials emissions of
    true_state.  One falsifying click settles the verdict (falsification is
    single-shot), but all trials run so the empirical rate can be compared
    with the theoretical rate 1 - <psi|rho|psi>, which is 0.0 at or below
    DEFAULT_RANK_TOL (see falsification_probability).

    Trial i fires iff the i-th keyed uniform falls below the theoretical
    rate, which is exactly the single-trial Bernoulli sampling of run_test.
    The uniforms are not formed: each trial's raw word is compared with the
    rate's integer threshold, which fires on exactly the same trials (see
    _below); at rate 1.0 every trial fires.  The trials are counted in
    fixed-size chunks (see _tally), so memory does not grow with n_trials.
    A trace (see the module comment) gets each chunk's boolean mask of fired
    trials, labelled by TestOutcome, INCONCLUSIVE for False and FALSIFIED
    for True, each with p_theoretical rate.
    """
    test = coin_falsification_test(declared)
    if true_state.dim != test.dim:
        raise DimensionMismatchError(
            f"true state dim {true_state.dim} vs declared dim {test.dim}"
        )
    if not true_state.deterministic:
        raise NotDeterministicError("campaign requires a trace-one true state")
    rate = falsification_probability(test, true_state)
    if trace is not None:
        trace = functools.partial(trace, _MASK_OUTCOMES, (rate, rate))
    n_falsified = int(
        _tally(
            master_seed,
            n_trials,
            _below(rate),
            np.count_nonzero,
            trace,
        )
    )
    n_trials, master_seed = int(n_trials), int(master_seed)  # checked by _tally
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


def classical_verdict(declared_p: float, n_zero: int, n_one: int) -> BaselineVerdict:
    """Logical falsifiability of a classical coin declaring P(outcome 0) = p,
    given how often each outcome occurred.

    For p strictly inside (0, 1) both outcomes have positive probability, so
    no outcome sequence can refute the declaration.  Only an outcome whose
    declared weight (p or 1 - p) is at most DEFAULT_RANK_TOL is falsifying
    (classical_falsifier_exists): a p near 1 is refuted by any outcome 1, a
    p near 0 by any outcome 0.
    """
    p = _check_probability("declared_p", declared_p)
    message = "outcome counts must be non-negative integers"
    counts = [_check_int(n, 0, OutOfRangeError, message) for n in (n_zero, n_one)]
    falsifying = classical_falsifier_exists(ClassicalState([p, 1.0 - p]))
    if falsifying is None:
        return BaselineVerdict.NOT_FALSIFIABLE
    hit = any(counts[i] > 0 for i in falsifying)
    return BaselineVerdict.FALSIFIED if hit else BaselineVerdict.NOT_FALSIFIED


def count_classical_coin(
    true_p: float, n_trials: int, master_seed: int
) -> tuple[int, int]:
    """(n_zero, n_one) of n_trials tosses of a classical coin with
    P(outcome 0) = true_p: trial i gives outcome 1 iff the i-th keyed
    uniform is at least true_p, decided by the integer threshold of true_p
    as in falsify_campaign (at true_p 1.0 every toss gives outcome 0).  The
    tosses are counted in fixed-size chunks (see _tally), so memory does
    not grow with n_trials."""
    true_p = _check_probability("true_p", true_p)
    n_zero = int(_tally(master_seed, n_trials, _below(true_p), np.count_nonzero))
    return n_zero, int(n_trials) - n_zero  # n_trials checked by _tally
