"""Unit tests for the oracle-frame simulator."""

import concurrent.futures
import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newcomb import sim
from newcomb import (
    CChoice,
    ComparisonTable,
    OMEGA_ORDER,
    Player,
    PredictorProfile,
    RngSpec,
    SChoice,
    SimulationReport,
    TrialStream,
    TrialTrace,
    UtilityMatrix,
    ValidationError,
    choose,
    compare,
    decision_boundary,
    dominant_choice,
    expected_utilities,
    game_graph,
    monte_carlo,
    play_once,
    player_timeline,
    region_grid,
    standard_error,
)

CLASSIC = UtilityMatrix.classic()
# Non-integer entries, so a batch sum is not exact in double precision
NON_INTEGER = UtilityMatrix(443760.389071749, 301636.2352849764, 741462.8231411909, 605851.7327762253)
RANDOM_P = PredictorProfile(0.5, 0.5)
PERFECT_P = PredictorProfile(1.0, 1.0)


class StubStream(TrialStream):
    """Feeds prescribed draws and counts how many were consumed."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def uniform(self):
        self.calls += 1
        return self.values.pop(0)


def straight_line_utility(v, p, c_choice, stream):
    """Independent oracle: sample S's row directly from the conditional law."""
    u = stream.uniform()
    if c_choice is CChoice.C1:
        return v.v11 if u < p.p1 else v.v21
    return v.v12 if u < 1.0 - p.p2 else v.v22


# ── trial streams ──────────────────────────────────────────────────


def test_stream_is_deterministic_per_seed_and_trial():
    # a trial has one draw: every call on one stream returns a fresh stream's draw
    stream = RngSpec(9).stream(5)
    assert [stream.uniform() for _ in range(3)] == [RngSpec(9).stream(5).uniform()] * 3


def test_streams_differ_across_trials_and_seeds():
    u0 = RngSpec(0).stream(0).uniform()
    u1 = RngSpec(0).stream(1).uniform()
    u2 = RngSpec(1).stream(0).uniform()
    assert len({u0, u1, u2}) == 3


def test_stream_values_are_uniform_unit_interval():
    draws = [RngSpec(123).stream(i).uniform() for i in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_trial_streams_follow_the_published_splitmix64_sequence():
    # Seed 0's trials 0, 1 and 2 start where SplitMix64 seeded with 0 stands
    # after one, two and three Weyl steps, so they print its first outputs.
    outputs = [sim._mix64(sim._trial_start(0, i)) for i in range(3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert TrialStream(0, 0).uniform() == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


@pytest.mark.parametrize("bad", [-1, 1 << 64, 2.0, "7"])
def test_rng_spec_rejects_bad_seed(bad):
    with pytest.raises(ValidationError):
        RngSpec(bad)


@pytest.mark.parametrize("trial", [1 << 64, -1, 1.5])
def test_stream_rejects_trial_indices_outside_64_bits(trial):
    # 2**64 would wrap onto trial 0's draws
    with pytest.raises(ValidationError, match="trial"):
        RngSpec(3).stream(trial)


def _thresholds():
    """A draw's cut points k * 2^-53 and the floats just beside them, plus edges and random q."""
    cut = st.integers(0, 1 << 53).map(lambda k: k * 2.0**-53)
    beside = st.tuples(cut, st.sampled_from([-math.inf, math.inf])).map(lambda a: math.nextafter(*a))
    return st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), cut, beside, st.floats(0.0, 1.0))


def _threshold(q):
    """The draw threshold of 0 < q < 1: u = (x >> 11) * 2^-53 is below q iff x is below it."""
    return math.ceil(q * 2.0**53) << 11


# The lane kernel with the trials it handles in one pass, and the thresholds
# of the q a kernel is given: 0 < q < 1, which the dispatcher _count_s1 decides
# without a draw at q = 0 and 1. The other kernel's tests, in a module of their
# own, run the same two checks on it.
KERNELS = pytest.mark.parametrize("count, chunk", [(sim._count_s1_lanes, sim._LANES)], ids=["lanes"])
_DRAWN_QS = _thresholds().filter(lambda q: 0.0 < q < 1.0)
# Spans of up to 2^10 trials for a kernel to count, and a drawn q
_KERNEL_SPANS = dict(
    seed=st.integers(0, (1 << 64) - 1),
    n=st.integers(0, 1 << 10),
    at_top=st.booleans(),
    start=st.integers(0, (1 << 64) - (1 << 10)),
    q=_DRAWN_QS,
)


def _assert_kernel_counts_the_draws(count, seed, n, at_top, start, q):
    # at_top puts the span against 2^64, where the Weyl offset wraps
    start = (1 << 64) - n - start % 4 if at_top else start
    expected = sum(TrialStream(seed, i).uniform() < q for i in range(start, start + n))
    assert count(seed, start, start + n, _threshold(q)) == expected


def _assert_kernel_counts_the_draws_across_chunks(count, chunk, at_top):
    # two full passes of the kernel and three trials more; at_top ends the span at 2^64
    n = 2 * chunk + 3
    start = (1 << 64) - n if at_top else 0
    seed = 0x243F6A8885A308D3
    draws = [TrialStream(seed, i).uniform() for i in range(start, start + n)]
    # 0.3 lies between two cut points k * 2^-53; the second q is one
    for q in (0.3, 3602879701896397 * 2.0**-53):
        assert count(seed, start, start + n, _threshold(q)) == sum(u < q for u in draws)


@KERNELS
@settings(deadline=None)
@given(**_KERNEL_SPANS)
def test_kernel_counts_the_draws_of_trial_streams(count, chunk, seed, n, at_top, start, q):
    _assert_kernel_counts_the_draws(count, seed, n, at_top, start, q)


@settings(deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    n=st.integers(1, 1 << 10),
    at_top=st.booleans(),
    start=st.integers(0, (1 << 64) - (1 << 10)),
    q=_thresholds(),
)
def test_count_s1_counts_the_draws_of_trial_streams(seed, n, at_top, start, q):
    # every q, 0, 1 and 5e-324 included, through the dispatcher
    start = (1 << 64) - n - start % 4 if at_top else start
    expected = sum(TrialStream(seed, i).uniform() < q for i in range(start, start + n))
    assert sim._count_s1(seed, start, n, q, 1) == expected


@KERNELS
@pytest.mark.parametrize("at_top", [False, True], ids=["from-0", "to-2^64"])
def test_kernel_counts_the_draws_of_trial_streams_across_chunks(count, chunk, at_top):
    _assert_kernel_counts_the_draws_across_chunks(count, chunk, at_top)


# ── play_once ──────────────────────────────────────────────────────


def test_play_once_perfect_predictor_is_deterministic():
    for trial in range(20):
        stream = RngSpec(77).stream(trial)
        trace = play_once(CLASSIC, PERFECT_P, CChoice.C2, stream)
        assert trace.s_choice is SChoice.S2
        assert trace.utility == 1_000_000.0
        trace = play_once(CLASSIC, PERFECT_P, CChoice.C1, RngSpec(77).stream(trial))
        assert trace.utility == 10_000.0


def test_play_once_threshold_rule():
    low = play_once(CLASSIC, RANDOM_P, CChoice.C1, StubStream([0.3]))
    assert low.s_choice is SChoice.S1 and low.utility == 10_000.0
    high = play_once(CLASSIC, RANDOM_P, CChoice.C1, StubStream([0.7]))
    assert high.s_choice is SChoice.S2 and high.utility == 1_010_000.0
    c2_low = play_once(CLASSIC, RANDOM_P, CChoice.C2, StubStream([0.3]))
    assert c2_low.s_choice is SChoice.S1 and c2_low.utility == 0.0


def test_play_once_consumes_exactly_one_draw():
    stream = StubStream([0.4, 0.9])
    play_once(CLASSIC, RANDOM_P, CChoice.C2, stream)
    assert stream.calls == 1


def test_play_once_resolves_in_oracle_order():
    trace = play_once(CLASSIC, RANDOM_P, CChoice.C1, StubStream([0.1]))
    assert trace.c_choice is CChoice.C1  # node 3: C's choice
    assert trace.prediction is CChoice.C1  # node 5: prediction
    assert trace.s_choice is SChoice.S1  # node 2: S's response to the 0.1 draw
    assert trace.entangled_c_choice is CChoice.C1  # node 6: entangled copy
    assert trace.utility == CLASSIC.payoff(trace.s_choice, CChoice.C1)  # node 7


def test_omega_order_matches_the_graph_timeline():
    assert OMEGA_ORDER == player_timeline(game_graph(), Player.OMEGA) == (1, 3, 5, 2, 6, 7)


def test_trace_reads_prediction_and_copy_from_c_choice():
    # a prediction or copy that diverges from C's choice cannot be built
    for c in CChoice:
        trace = TrialTrace(c, SChoice.S1, 0.0)
        assert trace.prediction is trace.entangled_c_choice is trace.c_choice is c
    assert TrialTrace._fields == ("c_choice", "s_choice", "utility")


def test_play_once_rejects_bad_choice_or_stream():
    with pytest.raises(ValidationError, match="^c_choice"):
        play_once(CLASSIC, RANDOM_P, "C1", StubStream([0.5]))
    for stream in ("x", None):
        with pytest.raises(ValidationError, match="^trial_stream must be of type TrialStream"):
            play_once(CLASSIC, RANDOM_P, CChoice.C1, stream)


C1_REPORT = SimulationReport(CChoice.C1, 5, 0, 1.0, 1.0, 0.0)
C2_REPORT = C1_REPORT.replace(c_choice=CChoice.C2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ComparisonTable(1, 2), id="table-ints"),
        pytest.param(lambda: ComparisonTable(C1_REPORT, C1_REPORT), id="table-c2-reports-C1"),
        pytest.param(lambda: ComparisonTable(C2_REPORT, C2_REPORT), id="table-c1-reports-C2"),
        pytest.param(lambda: SimulationReport("C9", 5, -3, "a", None, "b"), id="report-all"),
        pytest.param(lambda: C1_REPORT.replace(trials=0), id="report-trials"),
        pytest.param(lambda: C1_REPORT.replace(seed=1 << 64), id="report-seed"),
        pytest.param(lambda: C1_REPORT.replace(empirical_mean=math.nan), id="report-mean"),
        pytest.param(lambda: C1_REPORT.replace(theoretical=math.inf), id="report-theory"),
        pytest.param(lambda: C1_REPORT.replace(standard_error=-1.0), id="report-se"),
        pytest.param(lambda: TrialTrace(1, 1, "x"), id="trace-all"),
        pytest.param(lambda: TrialTrace(CChoice.C1, CChoice.C1, 1.0), id="trace-s-choice"),
        pytest.param(lambda: TrialTrace(CChoice.C1, SChoice.S1, -1.0), id="trace-utility"),
    ],
)
def test_sim_records_reject_fields_of_the_wrong_kind(build):
    with pytest.raises(ValidationError):
        build()


def test_sim_records_store_their_numbers_as_floats():
    # as UtilityMatrix does: an int payoff or mean is stored as the float it checks
    utility = TrialTrace(CChoice.C1, SChoice.S1, 5).utility
    assert type(utility) is float and utility == 5.0
    report = SimulationReport(CChoice.C1, 5, 0, 1, 1, 0)
    numbers = (report.empirical_mean, report.theoretical, report.standard_error)
    assert [type(x) for x in numbers] == [float] * 3
    assert "empirical_mean=1.0," in repr(report)
    assert (report.trials, report.seed) == (5, 0)


# ── monte_carlo ────────────────────────────────────────────────────


def test_monte_carlo_perfect_predictor_exact():
    r1 = monte_carlo(CLASSIC, PERFECT_P, CChoice.C1, 50_000, RngSpec(0))
    r2 = monte_carlo(CLASSIC, PERFECT_P, CChoice.C2, 50_000, RngSpec(0))
    assert r1.empirical_mean == 10_000.0
    assert r2.empirical_mean == 1_000_000.0
    assert r1.standard_error == 0.0


def test_monte_carlo_single_trial_equals_that_play():
    for seed in (0, 1, 17):
        rng = RngSpec(seed)
        report = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 1, rng)
        replay = play_once(CLASSIC, RANDOM_P, CChoice.C1, rng.stream(0))
        assert report.empirical_mean == replay.utility


def test_monte_carlo_matches_scalar_replay():
    profile = PredictorProfile(0.25, 0.6)
    # (table, n, first_trial, profile, choice); C1 draws S1 with probability p1
    cases = [(CLASSIC, n, 0, profile, CChoice.C2) for n in (1, 3, 20, 2_500, 5_000)]
    cases += [
        (CLASSIC, 2_000, 0, PredictorProfile(q, 0.5), CChoice.C1)
        for q in (0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
    ]
    cases.append((CLASSIC, 3_000, (1 << 64) - 3_000, profile, CChoice.C2))  # the Weyl offset wraps
    cases.append((NON_INTEGER, 2_000, 0, profile, CChoice.C2))
    rng = RngSpec(5)
    for v, n, first, p, c in cases:
        report = monte_carlo(v, p, c, n, rng, first_trial=first)
        utilities = [play_once(v, p, c, rng.stream(first + i)).utility for i in range(n)]
        # the exact mean, rounded once
        assert report.empirical_mean == float(sum(map(Fraction, utilities)) / n)


def test_monte_carlo_respects_first_trial_offset():
    rng = RngSpec(3)
    shifted = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 100, rng, first_trial=100)
    utilities = [
        play_once(CLASSIC, RANDOM_P, CChoice.C1, rng.stream(100 + i)).utility
        for i in range(100)
    ]
    assert shifted.empirical_mean == sum(utilities) / 100


def test_monte_carlo_parallelism_is_bit_identical(monkeypatch):
    # the last two sizes span several kernel chunks and split unevenly;
    # the perfect predictor makes a lost or repeated trial change the mean.
    # Eight reported cores and a floor of 1 000 trials per worker let 2 and 8
    # workers split all but the first size on any host.
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sim, "_WORKER_MIN_TRIALS", 1_000)
    for n in (1, 4_096, 4_097, 50_000, 3 * sim._CHUNK + 1, 5 * sim._CHUNK - 7):
        for p in (RANDOM_P, PERFECT_P):
            base = monte_carlo(CLASSIC, p, CChoice.C1, n, RngSpec(13), parallelism=1)
            for workers in (2, 8):
                run = monte_carlo(CLASSIC, p, CChoice.C1, n, RngSpec(13), parallelism=workers)
                assert run == base

    # a degree far beyond the cores and the floor is capped to one serial span,
    # and a batch that needs no draws runs serially however many chunks it spans
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial batch started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    base = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 1_000, RngSpec(13), parallelism=1)
    run = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 1_000, RngSpec(13), parallelism=10**6)
    assert run == base
    run = monte_carlo(CLASSIC, PERFECT_P, CChoice.C1, 3 * sim._CHUNK + 1, RngSpec(13), parallelism=8)
    assert run.empirical_mean == 10_000.0


_PAYOFFS = st.one_of(st.floats(0, 1e6), st.floats(0, 1.7976931348623157e308))
_ACCURACIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@settings(deadline=None)
@given(
    table=st.lists(_PAYOFFS, min_size=4, max_size=4),
    one_payoff=st.booleans(),
    p=st.builds(PredictorProfile, _ACCURACIES, _ACCURACIES),
    c=st.sampled_from(CChoice),
    n=st.integers(1, 1 << 12),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_monte_carlo_mean_is_the_exact_mean_rounded_once(table, one_payoff, p, c, n, seed):
    column = 0 if c is CChoice.C1 else 1  # the table is (v11, v12, v21, v22)
    if one_payoff:  # v2j = v1j: every trial pays the same
        table[2 + column] = table[column]
    v = UtilityMatrix(*table)
    report = monte_carlo(v, p, c, n, RngSpec(seed))
    v1, v2 = v.column(c)
    k = sim._count_s1(seed, 0, n, p.s1_probability(c), 1)
    assert report.empirical_mean == float((k * Fraction(v1) + (n - k) * Fraction(v2)) / n)
    if v1 == v2:
        assert report.empirical_mean == v1 == report.theoretical


def test_monte_carlo_report_fields():
    report = monte_carlo(CLASSIC, RANDOM_P, CChoice.C2, 1_000, RngSpec(21))
    assert report.c_choice is CChoice.C2
    assert report.trials == 1_000
    assert report.seed == 21
    assert report.theoretical == expected_utilities(CLASSIC, RANDOM_P)[1]
    assert report.standard_error == standard_error(CLASSIC, RANDOM_P, CChoice.C2, 1_000)


@pytest.mark.parametrize(
    "n", [0, -5, 2.0, pytest.param(2**64 + 1, id="2**64+1"), pytest.param(10**400, id="10**400")]
)
def test_monte_carlo_rejects_bad_trial_count(n):
    with pytest.raises(ValidationError):
        monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, n, RngSpec(0))
    # standard_error bounds n by the same 2^64 trial indices, so a huge n
    # is rejected, not overflowed in the float division
    with pytest.raises(ValidationError):
        standard_error(CLASSIC, RANDOM_P, CChoice.C1, n)


@pytest.mark.parametrize("first_trial, n", [(1 << 64, 1), ((1 << 64) - 5, 10)])
def test_monte_carlo_rejects_trial_indices_past_64_bits(first_trial, n):
    with pytest.raises(ValidationError, match="64"):
        monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, n, RngSpec(0), first_trial=first_trial)


def test_monte_carlo_accepts_the_last_trial_indices():
    rng = RngSpec(9)
    first = (1 << 64) - 10
    report = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 10, rng, first_trial=first)
    utilities = [
        play_once(CLASSIC, RANDOM_P, CChoice.C1, rng.stream(first + i)).utility
        for i in range(10)
    ]
    assert report.empirical_mean == sum(utilities) / 10


def test_monte_carlo_rejects_bad_parallelism_and_rng():
    with pytest.raises(ValidationError):
        monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 10, RngSpec(0), parallelism=0)
    with pytest.raises(ValidationError):
        monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 10, rng=12345)


_TABLE_AND_PROFILE_CALLS = {
    "expected_utilities": (expected_utilities, "vp"),
    "choose": (choose, "vp"),
    "decision_boundary": (lambda v, p: decision_boundary(v), "v"),
    "region_grid": (lambda v, p: region_grid(v, 3), "v"),
    "dominant_choice": (lambda v, p: dominant_choice(v), "v"),
    "standard_error": (lambda v, p: standard_error(v, p, CChoice.C1, 10), "vp"),
    "play_once": (lambda v, p: play_once(v, p, CChoice.C1, StubStream([0.5])), "vp"),
    "monte_carlo": (lambda v, p: monte_carlo(v, p, CChoice.C1, 10), "vp"),
    "compare": (lambda v, p: compare(v, p, 10), "vp"),
}


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(call, field, id=f"{name}-{field}")
        for name, (call, fields) in _TABLE_AND_PROFILE_CALLS.items()
        for field in fields
    ],
)
def test_table_and_profile_arguments_must_have_their_types(call, field):
    args = {"v": CLASSIC, "p": RANDOM_P, field: None}
    kind = "UtilityMatrix" if field == "v" else "PredictorProfile"
    with pytest.raises(ValidationError, match=f"^{field} must be of type {kind}"):
        call(args["v"], args["p"])


def test_conditional_frequency_converges():
    """Empirical S1 frequency lands within 3 binomial SE of the target."""
    indicator = UtilityMatrix(1.0, 1.0, 0.0, 0.0)  # mean == frequency of S1
    cases = [
        (PredictorProfile(0.5, 0.5), CChoice.C1, 0.5),
        (PredictorProfile(0.5, 0.5), CChoice.C2, 0.5),
        (PredictorProfile(0.8, 0.3), CChoice.C1, 0.8),
        (PredictorProfile(0.8, 0.3), CChoice.C2, 0.7),
    ]
    n = 50_000
    for p, c, target in cases:
        freq = monte_carlo(indicator, p, c, n, RngSpec(0)).empirical_mean
        assert abs(freq - target) <= 3.0 * math.sqrt(target * (1.0 - target) / n)


def test_mean_converges_to_expected_utility():
    """At a million trials the batch mean sits within 4 SE of the theory."""
    gen = random.Random(3)
    n = 1_000_000
    for case in range(5):
        v = UtilityMatrix(*(gen.uniform(0, 1e6) for _ in range(4)))
        p = PredictorProfile(*(gen.uniform(0, 1) for _ in range(2)))
        c = CChoice.C1 if case % 2 == 0 else CChoice.C2
        report = monte_carlo(v, p, c, n, RngSpec(case), parallelism=4)
        tolerance = 4.0 * standard_error(v, p, c, n)
        assert abs(report.empirical_mean - report.theoretical) <= tolerance


# ── standard_error ─────────────────────────────────────────────────


def test_standard_error_classic_random_predictor():
    expected = 1_000_000.0 * math.sqrt(0.25 / 50_000)
    assert standard_error(CLASSIC, RANDOM_P, CChoice.C1, 50_000) == pytest.approx(expected)
    assert standard_error(CLASSIC, RANDOM_P, CChoice.C2, 50_000) == pytest.approx(expected)
    assert expected == pytest.approx(2236.0679, abs=1e-3)


def test_standard_error_zero_when_deterministic():
    assert standard_error(CLASSIC, PERFECT_P, CChoice.C1, 1_000) == 0.0
    assert standard_error(CLASSIC, PERFECT_P, CChoice.C2, 99) == 0.0


def test_standard_error_matches_sample_statistics():
    """Cross-check the closed form against the sample std of a big batch."""
    p = PredictorProfile(0.3, 0.8)
    n = 200_000
    rng = RngSpec(8)
    utilities = [play_once(CLASSIC, p, CChoice.C1, rng.stream(i)).utility for i in range(n)]
    sample_se = statistics.stdev(utilities) / math.sqrt(n)
    assert standard_error(CLASSIC, p, CChoice.C1, n) == pytest.approx(sample_se, rel=0.02)


# ── compare ────────────────────────────────────────────────────────


def test_compare_uses_disjoint_trial_ranges():
    n = 2_000
    rng = RngSpec(31)
    table = compare(CLASSIC, RANDOM_P, n, rng)
    c1 = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, n, rng, first_trial=0)
    c2 = monte_carlo(CLASSIC, RANDOM_P, CChoice.C2, n, rng, first_trial=n)
    assert table == ComparisonTable(c1, c2)


def test_compare_perfect_predictor_table_is_exact():
    table = compare(CLASSIC, PERFECT_P, 50_000, RngSpec(0))
    assert table.theoretical == (10_000.0, 1_000_000.0)
    assert table.empirical == (10_000.0, 1_000_000.0)
    # each batch pays one amount v on every trial; in floats, n * v / n can miss v
    table = compare(NON_INTEGER, PERFECT_P, 414_702_302)
    assert table.empirical == (NON_INTEGER.v11, NON_INTEGER.v22)


def test_compare_random_predictor_within_three_se():
    table = compare(CLASSIC, RANDOM_P, 50_000, RngSpec(0))
    assert table.theoretical == (510_000.0, 500_000.0)
    assert abs(table.c1.empirical_mean - 510_000.0) <= 3.0 * table.c1.standard_error
    assert abs(table.c2.empirical_mean - 500_000.0) <= 3.0 * table.c2.standard_error


def test_compare_total_mispredict_endpoints():
    table = compare(CLASSIC, PredictorProfile(0.0, 0.0), 1, RngSpec(4))
    assert table.empirical == (1_010_000.0, 0.0)


def test_compare_rejects_trials_past_64_bits_before_any_batch(monkeypatch):
    def no_kernel(*args):
        pytest.fail(f"the kernel ran on {args} for a too-large n")

    monkeypatch.setattr(sim, "_count_s1", no_kernel)
    with pytest.raises(ValidationError):
        compare(CLASSIC, RANDOM_P, 2**63 + 1)


# ── oracle equivalence ─────────────────────────────────────────────


def test_small_batches_match_straight_line_resampling():
    """The unfolded visit order changes nothing about the sampled outcomes."""
    p = PredictorProfile(0.6, 0.35)
    for seed in range(25):
        n = (seed % 20) + 1
        rng = RngSpec(seed)
        report = monte_carlo(CLASSIC, p, CChoice.C1, n, rng)
        naive = [
            straight_line_utility(CLASSIC, p, CChoice.C1, rng.stream(i))
            for i in range(n)
        ]
        assert report.empirical_mean == sum(naive) / n
        replay = [play_once(CLASSIC, p, CChoice.C1, rng.stream(i)).utility for i in range(n)]
        assert replay == naive
