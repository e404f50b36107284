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
1-p2 when j=2. A trial's TrialStream holds exactly one uniform draw,
and S plays S1 when u < P(S=S1|C=Cj).

Randomness is counter-based: trial i of seed s draws from a SplitMix64
stream indexed by (s, i), so no kernel, worker or execution order
changes a draw. S1 outcomes are counted exactly, and the batch mean is
the exact mean of their utilities, rounded once, so batch means are
bit-identical at any parallelism degree.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import repeat

from . import _PUBLIC
from ._record import Record, set_field
from ._validate import MAX_TRIALS, UINT64_MAX, check_int, check_number, check_type, show
from .decision import CChoice, PredictorProfile, SChoice, UtilityMatrix, expected_utilities
from .errors import ValidationError

__all__ = list(_PUBLIC["sim"])

_TRIAL_INCREMENT = 0x9E3779B97F4A7C15  # golden-ratio Weyl step between trials
# SplitMix64's output function: two (xor-shift, multiply) rounds, then a
# last xor-shift. _mix64 and both kernels, numpy's and the lanes', read these.
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_LAST_SHIFT = 31


def _mix64(x: int) -> int:
    x &= UINT64_MAX
    for shift, multiplier in _ROUNDS:
        x = ((x ^ (x >> shift)) * multiplier) & UINT64_MAX
    return x ^ (x >> _LAST_SHIFT)


def _trial_start(seed: int, trial: int) -> int:
    # The state that trial's stream starts from.
    return (seed + (trial + 1) * _TRIAL_INCREMENT) & UINT64_MAX


class TrialStream:
    """A trial's one uniform [0,1) draw, derived from (seed, trial); every call returns it."""

    def __init__(self, seed: int, trial: int):
        check_int(seed, "seed", 0, UINT64_MAX)
        check_int(trial, "trial", 0, UINT64_MAX)
        self._base = _trial_start(seed, trial)

    def uniform(self) -> float:
        return (_mix64(self._base) >> 11) * 2.0**-53


class RngSpec(Record):
    """Root seed; trial i's stream is a pure function of (seed, i)."""

    __slots__ = ("seed",)

    def __init__(self, seed: int = 0):
        set_field(self, "seed", check_int(seed, "seed", 0, UINT64_MAX))

    def stream(self, trial: int) -> TrialStream:
        return TrialStream(self.seed, trial)


class TrialTrace(Record):
    """One play resolved in the oracle's visit order.

    Node 3 fixes C's choice, node 2 S's sampled response and node 7 the
    payout. The prediction (node 5) and the entangled copy (node 6)
    replay C's choice, so they are read from it, not stored.
    """

    __slots__ = ("c_choice", "s_choice", "utility")

    def __init__(self, c_choice: CChoice, s_choice: SChoice, utility: float):
        set_field(self, "c_choice", check_type(c_choice, "c_choice", CChoice))
        set_field(self, "s_choice", check_type(s_choice, "s_choice", SChoice))
        set_field(self, "utility", check_number(utility, "utility", minimum=0))

    @property
    def prediction(self) -> CChoice:
        return self.c_choice

    @property
    def entangled_c_choice(self) -> CChoice:
        return self.c_choice


class SimulationReport(Record):
    """Monte Carlo batch result for one fixed choice of C."""

    __slots__ = ("c_choice", "trials", "seed", "empirical_mean", "theoretical", "standard_error")

    def __init__(
        self,
        c_choice: CChoice,
        trials: int,
        seed: int,
        empirical_mean: float,
        theoretical: float,
        standard_error: float,
    ):
        set_field(self, "c_choice", check_type(c_choice, "c_choice", CChoice))
        set_field(self, "trials", check_int(trials, "trials", 1))
        set_field(self, "seed", check_int(seed, "seed", 0, UINT64_MAX))
        set_field(self, "empirical_mean", check_number(empirical_mean, "empirical_mean"))
        set_field(self, "theoretical", check_number(theoretical, "theoretical"))
        set_field(self, "standard_error", check_number(standard_error, "standard_error", minimum=0))


class ComparisonTable(Record):
    """Theoretical vs empirical utilities for both of C's choices."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: SimulationReport, c2: SimulationReport):
        for name, report, choice in (("c1", c1, CChoice.C1), ("c2", c2, CChoice.C2)):
            got = check_type(report, name, SimulationReport).c_choice
            if got is not choice:
                raise ValidationError(f"{name} must report {choice.value}, got {got.value}")
        set_field(self, "c1", c1)
        set_field(self, "c2", c2)

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
    """Resolve one play in the oracle's order from the trial's one draw.

    The prediction always equals C's actual choice; predictor
    fallibility shows up in S's response, which follows the predicted
    row only with the profiled accuracy. The stream must be a
    TrialStream, such as RngSpec(seed).stream(i).
    """
    check_type(v, "v", UtilityMatrix)
    check_type(p, "p", PredictorProfile)
    check_type(c_choice, "c_choice", CChoice)
    check_type(trial_stream, "trial_stream", TrialStream)
    s_choice = SChoice.S1 if trial_stream.uniform() < p.s1_probability(c_choice) else SChoice.S2
    return TrialTrace(c_choice, s_choice, v.payoff(s_choice, c_choice))


# Trials per numpy-kernel pass; it bounds the kernel's arrays (~1.5 MB).
_CHUNK = 1 << 16
# Trials per lane-kernel pass. Interleaved on one host, passes of 2^9 to
# 2^13 lanes all took 66-67 ns per trial on 2^20 trials, and 2^10 lanes
# also keep the per-call set-up, one Python step per lane, near 0.25 ms.
_LANES = 1 << 10
# The largest batch that _count_s1 counts with _count_s1_lanes while numpy
# is not loaded. Past the crossover, numpy's import costs less than the
# lanes' extra time per trial. On a 2 vCPU Xeon (Python 3.11.7, numpy
# 2.4.6), seven interleaved runs in fresh interpreters read `import numpy`
# at 165-187 ms and, on 2^20 trials, 111-159 ns per trial for the lanes and
# 6.3-12.6 ns for numpy: crossovers of 1.1e6 to 1.7e6 trials (median
# 1.45e6). 2^20 = 1.05e6 stays below them all.
_LANE_MAX = 1 << 20


def _count_s1(seed: int, start: int, n: int, q: float, parallelism: int) -> int:
    # The number of trials in [start, start + n) whose TrialStream draw is
    # below q, the one rule every batch is counted by:
    # 1. At q <= 0 no draw is below q, and at q >= 1 every draw is.
    # 2. A draw is u = (x >> 11) * 2^-53, and for an integer x, u < q holds
    #    iff x < ceil(q * 2^53) << 11. For 0 < q < 1 that threshold lies in
    #    [2^11, 2^64 - 2^11], the range both kernels require.
    # 3. A batch of at most _LANE_MAX trials counts on Python ints when
    #    nothing has loaded numpy yet, so it skips numpy's import. Its
    #    big-int passes hold the GIL, so it runs on one worker.
    # 4. Any other batch counts with numpy, split into contiguous spans, at
    #    most one per worker, with the workers capped by parallelism, the
    #    cores and the kernel's chunks. A thread pool starts only for two or
    #    more workers. Counts are exact, so no split changes the total.
    if q <= 0.0:
        return 0
    if q >= 1.0:
        return n
    threshold = math.ceil(q * 2.0**53) << 11
    if n <= _LANE_MAX and "numpy" not in sys.modules:
        return _count_s1_lanes(seed, start, start + n, threshold)
    workers = min(parallelism, os.cpu_count() or 1, -(-n // _CHUNK))
    if workers == 1:
        return _count_s1_numpy(seed, start, start + n, threshold)
    from concurrent.futures import ThreadPoolExecutor

    edges = [start + n * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_s1_numpy, repeat(seed), edges[:-1], edges[1:], repeat(threshold)))


def _count_s1_numpy(seed: int, start: int, stop: int, threshold: int) -> int:
    # The trials in [start, stop) whose draw x is below threshold, which
    # must lie in [2^11, 2^64 - 2^11] (see _count_s1), in passes of _CHUNK.
    # numpy is imported here, not at module level, so that importing the
    # package, every command but simulate, and a batch that _count_s1
    # gives to _count_s1_lanes do not pay for loading it.
    import numpy as np

    steps = np.arange(min(_CHUNK, stop - start), dtype=np.uint64) * np.uint64(_TRIAL_INCREMENT)
    count = 0
    for lo in range(start, stop, _CHUNK):
        x = steps[: stop - lo] + np.uint64(_trial_start(seed, lo))
        for shift, multiplier in _ROUNDS:
            x ^= x >> np.uint64(shift)
            x *= np.uint64(multiplier)
        x ^= x >> np.uint64(_LAST_SHIFT)
        count += int(np.count_nonzero(x < np.uint64(threshold)))
    return count


def _count_s1_lanes(seed: int, start: int, stop: int, threshold: int) -> int:
    # The count of _count_s1_numpy, on Python ints alone, under the same
    # precondition on threshold: at 0, the padding lanes of a short last pass
    # would carry. A pass packs up to _LANES trials into one int, trial lo + i
    # in the 128-bit lane at bit 128 * i, and every shift, xor and mask acts
    # on all lanes at once. Each multiply takes lanes masked to 64 bits, and a
    # 64-bit lane times a 64-bit multiplier fits in 128 bits, so no lane
    # carries into the next.
    lanes = min(_LANES, stop - start)
    # Built by int.from_bytes in O(lanes); a sum of shifted ints is quadratic.
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low64 = UINT64_MAX * ones
    steps = int.from_bytes(
        b"".join((i * _TRIAL_INCREMENT & UINT64_MAX).to_bytes(16, "little") for i in range(lanes)),
        "little",
    )
    # A draw x is not below the threshold iff x + 2^64 - threshold carries
    # into its lane's bit 64. The last xor-shift leaves bits of the next lane
    # at bits 97-127 of each lane, which that carry never reaches.
    offset = ((1 << 64) - threshold) * ones
    carry = ones << 64
    not_below = 0
    for lo in range(start, stop, _LANES):
        # A last, shorter pass keeps its first stop - lo lanes. The others
        # hold x = 0, which SplitMix64 maps to 0, and 0 never carries.
        x = (steps + _trial_start(seed, lo) * ones) & (low64 >> 128 * (lanes - min(lanes, stop - lo)))
        for shift, multiplier in _ROUNDS:
            x = ((x ^ (x >> shift)) & low64) * multiplier & low64
        x ^= x >> _LAST_SHIFT
        not_below += ((x + offset) & carry).bit_count()
    return stop - start - not_below


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

    Trial i uses the stream for index first_trial + i, and parallelism
    caps the workers that count the draws. The mean is the exact mean
    of the n counted utilities, rounded once, so the whole report is a
    pure function of (v, p, c_choice, n, seed, first_trial), equal as a
    record for any parallelism degree.
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

    n_s1 = _count_s1(rng.seed, first_trial, n, p.s1_probability(c_choice), parallelism)
    # int / int rounds once; the mean lies between v1 and v2, so it is finite
    (a1, b1), (a2, b2) = (u.as_integer_ratio() for u in v.column(c_choice))
    empirical_mean = (n_s1 * a1 * b2 + (n - n_s1) * a2 * b1) / (n * b1 * b2)
    u1, u2 = expected_utilities(v, p)
    return SimulationReport(
        c_choice=c_choice,
        trials=n,
        seed=rng.seed,
        empirical_mean=empirical_mean,
        theoretical=u1 if c_choice is CChoice.C1 else u2,
        standard_error=standard_error(v, p, c_choice, n),
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
