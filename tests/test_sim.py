"""Unit tests for the oracle-frame simulator."""

import concurrent.futures
import math

import numpy as np
import pytest

from newcomb import sim
from newcomb import (
    CChoice,
    EntanglementViolationError,
    OMEGA_ORDER,
    Player,
    PredictorProfile,
    RngSpec,
    SChoice,
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
RANDOM_P = PredictorProfile(0.5, 0.5)
PERFECT_P = PredictorProfile(1.0, 1.0)


class StubStream:
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
    a = [RngSpec(9).stream(5).uniform() for _ in range(3)]
    b = [RngSpec(9).stream(5).uniform() for _ in range(3)]
    assert a == b


def test_streams_differ_across_trials_and_seeds():
    u0 = RngSpec(0).stream(0).uniform()
    u1 = RngSpec(0).stream(1).uniform()
    u2 = RngSpec(1).stream(0).uniform()
    assert len({u0, u1, u2}) == 3


def test_stream_values_are_uniform_unit_interval():
    draws = [RngSpec(123).stream(i).uniform() for i in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


@pytest.mark.parametrize("bad", [-1, 1 << 64, 2.0, "7"])
def test_rng_spec_rejects_bad_seed(bad):
    with pytest.raises(ValidationError):
        RngSpec(bad)


@pytest.mark.parametrize("trial", [1 << 64, -1, 1.5])
def test_stream_rejects_trial_indices_outside_64_bits(trial):
    # 2**64 would wrap onto trial 0's draws
    with pytest.raises(ValidationError, match="trial"):
        RngSpec(3).stream(trial)


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
    assert OMEGA_ORDER == player_timeline(game_graph(), Player.OMEGA).sequence


def test_trace_rejects_divergent_entangled_copy():
    with pytest.raises(EntanglementViolationError):
        TrialTrace(
            c_choice=CChoice.C1,
            prediction=CChoice.C1,
            s_choice=SChoice.S1,
            entangled_c_choice=CChoice.C2,
            utility=0.0,
        )


def test_play_once_rejects_bad_choice():
    with pytest.raises(ValidationError):
        play_once(CLASSIC, RANDOM_P, "C1", StubStream([0.5]))


def test_entanglement_invariants_hold_over_a_million_trials():
    rng = RngSpec(2)
    profiles = [
        PredictorProfile(0.5, 0.5),
        PredictorProfile(0.9, 0.2),
        PredictorProfile(0.0, 1.0),
        PredictorProfile(0.31, 0.77),
    ]
    for i in range(1_000_000):
        p = profiles[i & 3]
        c = CChoice.C1 if i & 4 else CChoice.C2
        trace = play_once(CLASSIC, p, c, rng.stream(i))
        assert trace.entangled_c_choice is trace.c_choice
        assert trace.utility == CLASSIC.payoff(trace.s_choice, trace.c_choice)


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
    # (n, first_trial, profile, choice); C1 draws S1 with probability p1
    cases = [(n, 0, profile, CChoice.C2) for n in (1, 3, 20, 2_500, 5_000)]
    cases += [
        (2_000, 0, PredictorProfile(q, 0.5), CChoice.C1)
        for q in (0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
    ]
    cases.append((3_000, (1 << 64) - 3_000, profile, CChoice.C2))  # the Weyl offset wraps
    rng = RngSpec(5)
    for n, first, p, c in cases:
        report = monte_carlo(CLASSIC, p, c, n, rng, first_trial=first)
        utilities = [play_once(CLASSIC, p, c, rng.stream(first + i)).utility for i in range(n)]
        assert report.empirical_mean == sum(utilities) / n


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
    # the perfect predictor makes a lost or repeated trial change the mean
    for n in (1, 4_096, 4_097, 50_000, 3 * sim._CHUNK + 1, 5 * sim._CHUNK - 7):
        for p in (RANDOM_P, PERFECT_P):
            base = monte_carlo(CLASSIC, p, CChoice.C1, n, RngSpec(13), parallelism=1)
            for workers in (2, 8):
                run = monte_carlo(CLASSIC, p, CChoice.C1, n, RngSpec(13), parallelism=workers)
                assert run.empirical_mean == base.empirical_mean

    # a degree far beyond the cores and chunks is capped to one serial span
    def no_pool(*args, **kwargs):
        raise AssertionError("a single-chunk batch started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    base = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 1_000, RngSpec(13), parallelism=1)
    run = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, 1_000, RngSpec(13), parallelism=10**6)
    assert run.empirical_mean == base.empirical_mean


def test_monte_carlo_report_fields():
    report = monte_carlo(CLASSIC, RANDOM_P, CChoice.C2, 1_000, RngSpec(21))
    assert report.c_choice is CChoice.C2
    assert report.trials == 1_000
    assert report.seed == 21
    assert report.theoretical == expected_utilities(CLASSIC, RANDOM_P)[1]
    assert report.standard_error == standard_error(CLASSIC, RANDOM_P, CChoice.C2, 1_000)
    assert report.elapsed_seconds >= 0.0


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
    gen = np.random.default_rng(3)
    n = 1_000_000
    for case in range(5):
        v = UtilityMatrix(*gen.uniform(0, 1e6, size=4))
        p = PredictorProfile(*gen.uniform(0, 1, size=2))
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
    utilities = np.array(
        [play_once(CLASSIC, p, CChoice.C1, rng.stream(i)).utility for i in range(n)]
    )
    sample_se = utilities.std(ddof=1) / math.sqrt(n)
    assert standard_error(CLASSIC, p, CChoice.C1, n) == pytest.approx(sample_se, rel=0.02)


# ── compare ────────────────────────────────────────────────────────


def test_compare_uses_disjoint_trial_ranges():
    n = 2_000
    rng = RngSpec(31)
    table = compare(CLASSIC, RANDOM_P, n, rng)
    c1 = monte_carlo(CLASSIC, RANDOM_P, CChoice.C1, n, rng, first_trial=0)
    c2 = monte_carlo(CLASSIC, RANDOM_P, CChoice.C2, n, rng, first_trial=n)
    assert table.c1.empirical_mean == c1.empirical_mean
    assert table.c2.empirical_mean == c2.empirical_mean


def test_compare_perfect_predictor_table_is_exact():
    table = compare(CLASSIC, PERFECT_P, 50_000, RngSpec(0))
    assert table.theoretical == (10_000.0, 1_000_000.0)
    assert table.empirical == (10_000.0, 1_000_000.0)


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
