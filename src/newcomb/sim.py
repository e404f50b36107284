"""Oracle-frame simulation of the game, single plays and Monte Carlo.

A play cannot be simulated in C's or S's own event order without a
real oracle. It can be simulated in the oracle's order, its walk through
the game graph (OMEGA_ORDER, defined with the graph), which visits the
events as 1, 3, 5, 2, 6, 7: C's choice is resolved first, the
prediction is elaborated from it, S responds (faithfully to the
prediction with the profiled accuracy), and the copied events just
replay the entangled outcomes.

S's response is sampled from the conditional law: given C = Cj, S
plays S1 with probability P(S=S1|C=Cj), which is p1 when j=1 and
1-p2 when j=2. Each trial consumes exactly one uniform draw, taking
S1 when u < P(S=S1|C=Cj).

Randomness is counter-based: trial i of seed s draws from a SplitMix64
stream indexed by (s, i), so results do not depend on execution order
or worker count. A batch is split into contiguous spans of trial
indices, at most one per worker, with the workers capped by the cores
and by the number of kernel chunks. S1 outcomes are counted exactly,
so the split never changes a result: batch means are bit-identical at
any parallelism degree.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import repeat

from ._validate import MAX_TRIALS, UINT64_MAX, check_int, check_number, check_type, show
from .decision import CChoice, PredictorProfile, SChoice, UtilityMatrix, expected_utilities
from .errors import EntanglementViolationError, ValidationError

__all__ = [
    "TrialStream",
    "RngSpec",
    "TrialTrace",
    "SimulationReport",
    "ComparisonTable",
    "play_once",
    "monte_carlo",
    "standard_error",
    "compare",
]

_MASK64 = UINT64_MAX
_TRIAL_INCREMENT = 0x9E3779B97F4A7C15  # golden-ratio Weyl step between trials
_DRAW_INCREMENT = 0xC2B2AE3D27D4EB4F  # odd step between draws within a trial


def _mix64(x: int) -> int:
    # SplitMix64 output function
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TrialStream:
    """Uniform [0,1) draws for one trial, derived from (seed, trial)."""

    def __init__(self, seed: int, trial: int):
        check_int(seed, "seed", 0, _MASK64)
        check_int(trial, "trial", 0, _MASK64)
        self._base = (seed + (trial + 1) * _TRIAL_INCREMENT) & _MASK64
        self._draw = 0

    def uniform(self) -> float:
        z = _mix64(self._base + self._draw * _DRAW_INCREMENT)
        self._draw += 1
        return (z >> 11) * 2.0**-53


@dataclass(frozen=True)
class RngSpec:
    """Root seed; trial i's stream is a pure function of (seed, i)."""

    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.seed, "seed", 0, _MASK64)

    def stream(self, trial: int) -> TrialStream:
        return TrialStream(self.seed, trial)


@dataclass(frozen=True)
class TrialTrace:
    """One play resolved in the oracle's visit order.

    Node 3 fixes C's choice, node 5 the prediction, node 2 S's sampled
    response, node 6 the entangled copy of C's choice, and node 7 the
    payout. The copy is forced equal to the original.
    """

    c_choice: CChoice
    prediction: CChoice
    s_choice: SChoice
    entangled_c_choice: CChoice
    utility: float

    def __post_init__(self) -> None:
        if self.entangled_c_choice is not self.c_choice:
            raise EntanglementViolationError(
                "copied choice diverged from the original"
            )


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo batch result for one fixed choice of C."""

    c_choice: CChoice
    trials: int
    seed: int
    empirical_mean: float
    theoretical: float
    standard_error: float
    elapsed_seconds: float

    def __post_init__(self) -> None:
        check_int(self.trials, "trials", 1)
        check_number(self.standard_error, "standard_error", minimum=0)


@dataclass(frozen=True)
class ComparisonTable:
    """Theoretical vs empirical utilities for both of C's choices."""

    c1: SimulationReport
    c2: SimulationReport

    @property
    def theoretical(self) -> tuple[float, float]:
        return (self.c1.theoretical, self.c2.theoretical)

    @property
    def empirical(self) -> tuple[float, float]:
        return (self.c1.empirical_mean, self.c2.empirical_mean)


def play_once(
    v: UtilityMatrix,
    p: PredictorProfile,
    c_choice: CChoice,
    trial_stream: TrialStream,
) -> TrialTrace:
    """Resolve one play in the oracle's order, consuming one draw.

    The prediction always equals C's actual choice; predictor
    fallibility shows up in S's response, which follows the predicted
    row only with the profiled accuracy.
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    check_type(c_choice, "c_choice", CChoice)
    prediction = c_choice
    s1_prob = p.s1_probability(c_choice)
    s_choice = SChoice.S1 if trial_stream.uniform() < s1_prob else SChoice.S2
    entangled = c_choice
    utility = v.payoff(s_choice, entangled)
    return TrialTrace(
        c_choice=c_choice,
        prediction=prediction,
        s_choice=s_choice,
        entangled_c_choice=entangled,
        utility=utility,
    )


# Trials per kernel pass; it bounds the kernel's buffers (~1.6 MB).
_CHUNK = 1 << 16


def _count_s1(seed: int, start: int, stop: int, q: float) -> int:
    # Counts draw 0 of trials [start, stop) below q; matches TrialStream
    # exactly. A draw is u = (x >> 11) * 2^-53, and for an integer x,
    # u < q holds iff x < ceil(q * 2^53) << 11. At q >= 1 that threshold
    # would not fit in 64 bits, but then every draw is below q; at q <= 0
    # it is 0, and no draw is below it.
    if q >= 1.0:
        return stop - start
    if q <= 0.0:
        return 0
    # numpy is imported here, not at module level, so that importing the
    # package (and every command but simulate) does not pay for loading it.
    import numpy as np

    threshold = np.uint64(math.ceil(q * 2.0**53) << 11)
    size = min(_CHUNK, stop - start)
    steps = np.arange(size, dtype=np.uint64) * np.uint64(_TRIAL_INCREMENT)
    x = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    below = np.empty(size, dtype=bool)
    count = 0
    for lo in range(start, stop, _CHUNK):
        m = min(_CHUNK, stop - lo)
        xs, ts = x[:m], tmp[:m]
        offset = (seed + (lo + 1) * _TRIAL_INCREMENT) & _MASK64
        np.add(steps[:m], np.uint64(offset), out=xs)
        for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(xs, np.uint64(shift), out=ts)
            xs ^= ts
            xs *= np.uint64(multiplier)
        np.right_shift(xs, np.uint64(31), out=ts)
        xs ^= ts
        count += int(np.count_nonzero(np.less(xs, threshold, out=below[:m])))
    return count


def standard_error(
    v: UtilityMatrix, p: PredictorProfile, c_choice: CChoice, n: int
) -> float:
    """Exact standard error of the batch mean for a fixed choice.

    The per-trial utility is two-valued, so the mean's standard error
    is |v1j - v2j| * sqrt(q * (1 - q) / n) with q = P(S=S1|C=Cj).
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    check_int(n, "n", 1, 1 << 64)
    check_type(c_choice, "c_choice", CChoice)
    v1, v2 = v.column(c_choice)
    q = p.s1_probability(c_choice)
    return abs(v1 - v2) * math.sqrt(q * (1.0 - q) / n)


def monte_carlo(
    v: UtilityMatrix,
    p: PredictorProfile,
    c_choice: CChoice,
    n: int,
    rng: RngSpec = RngSpec(),
    parallelism: int = 1,
    first_trial: int = 0,
) -> SimulationReport:
    """Average the payout of n independent plays with C's choice fixed.

    Trial i uses the stream for index first_trial + i. The trials are
    split into contiguous spans, at most one per worker, with the
    workers capped by parallelism, the cores and the kernel's chunks.
    S1 outcomes are counted exactly, so the split never changes a
    result: the reported mean is bit-identical for any parallelism
    degree.
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    check_int(n, "n", 1)
    check_int(parallelism, "parallelism", 1)
    check_int(first_trial, "first_trial", 0)
    if first_trial + n > 1 << 64:
        raise ValidationError(
            f"trial indices must fit in 64 unsigned bits, got first_trial={show(first_trial)}, n={show(n)}"
        )
    check_type(c_choice, "c_choice", CChoice)
    check_type(rng, "rng", RngSpec)

    started = time.perf_counter()
    s1_prob = p.s1_probability(c_choice)
    workers = min(parallelism, os.cpu_count() or 1, -(-n // _CHUNK))
    if workers == 1:
        n_s1 = _count_s1(rng.seed, first_trial, first_trial + n, s1_prob)
    else:
        from concurrent.futures import ThreadPoolExecutor

        edges = [first_trial + n * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            spans = pool.map(_count_s1, repeat(rng.seed), edges[:-1], edges[1:], repeat(s1_prob))
            n_s1 = sum(spans)

    v1, v2 = v.column(c_choice)
    empirical_mean = (n_s1 * v1 + (n - n_s1) * v2) / n
    if not math.isfinite(empirical_mean):
        # The weighted sum overflowed, but the mean lies between v1 and v2:
        # evaluate it exactly and round once, which is always finite.
        from fractions import Fraction

        empirical_mean = float((n_s1 * Fraction(v1) + (n - n_s1) * Fraction(v2)) / n)
    u1, u2 = expected_utilities(v, p)
    return SimulationReport(
        c_choice=c_choice,
        trials=n,
        seed=rng.seed,
        empirical_mean=empirical_mean,
        theoretical=u1 if c_choice is CChoice.C1 else u2,
        standard_error=standard_error(v, p, c_choice, n),
        elapsed_seconds=time.perf_counter() - started,
    )


def compare(
    v: UtilityMatrix,
    p: PredictorProfile,
    n: int,
    rng: RngSpec = RngSpec(),
    parallelism: int = 1,
) -> ComparisonTable:
    """Run both choices, n trials each, on disjoint trial indices.

    The C1 batch uses trials [0, n) and the C2 batch [n, 2n), so the
    whole table is a pure function of (seed, n).
    """
    # Both batches' indices must fit in 64 unsigned bits; checking n here
    # rejects a too-large n before the C1 batch runs, not after it.
    check_int(n, "n", 1, MAX_TRIALS)
    return ComparisonTable(
        c1=monte_carlo(v, p, CChoice.C1, n, rng, parallelism, first_trial=0),
        c2=monte_carlo(v, p, CChoice.C2, n, rng, parallelism, first_trial=n),
    )
