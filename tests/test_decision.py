"""Unit tests for the closed-form decision analysis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from newcomb import (
    CChoice,
    DecisionBoundary,
    PredictorProfile,
    RegionGrid,
    SChoice,
    UtilityMatrix,
    ValidationError,
    choose,
    decision_boundary,
    dominant_choice,
    expected_utilities,
    region_grid,
)
from newcomb.decision import MAX_RESOLUTION

CLASSIC = UtilityMatrix.classic()
RTOL = 1e-9


# ── expected_utilities ─────────────────────────────────────────────


def test_expected_utilities_random_predictor():
    u1, u2 = expected_utilities(CLASSIC, PredictorProfile(0.5, 0.5))
    assert u1 == pytest.approx(510_000.0, rel=RTOL)
    assert u2 == pytest.approx(500_000.0, rel=RTOL)


def test_expected_utilities_perfect_predictor():
    u1, u2 = expected_utilities(CLASSIC, PredictorProfile(1.0, 1.0))
    assert u1 == pytest.approx(10_000.0, rel=RTOL)
    assert u2 == pytest.approx(1_000_000.0, rel=RTOL)


def test_expected_utilities_hopeless_predictor_hits_formula_endpoints():
    u1, u2 = expected_utilities(CLASSIC, PredictorProfile(0.0, 0.0))
    assert (u1, u2) == (1_010_000.0, 0.0)


def test_expected_utilities_flat_matrix_is_constant():
    flat = UtilityMatrix(7.0, 7.0, 7.0, 7.0)
    for p in (PredictorProfile(0, 0), PredictorProfile(0.3, 0.8), PredictorProfile(1, 1)):
        assert expected_utilities(flat, p) == (7.0, 7.0)


def test_affine_identity_against_direct_blend():
    """U_j must equal the probability blend of its column, v1j*q + v2j*(1-q)."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        v = UtilityMatrix(*rng.uniform(0, 1e6, size=4))
        p = PredictorProfile(*rng.uniform(0, 1, size=2))
        u1, u2 = expected_utilities(v, p)
        blend1 = v.v11 * p.p1 + v.v21 * (1.0 - p.p1)
        blend2 = v.v12 * (1.0 - p.p2) + v.v22 * p.p2
        assert u1 == pytest.approx(blend1, rel=RTOL, abs=1e-9)
        assert u2 == pytest.approx(blend2, rel=RTOL, abs=1e-9)


@pytest.mark.parametrize(
    "p1, p2",
    [(-0.1, 0.5), (0.5, 1.5), (float("nan"), 0.5), (0.5, float("inf"))],
)
def test_probability_validation(p1, p2):
    with pytest.raises(ValidationError):
        PredictorProfile(p1, p2)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), "10"])
def test_utility_validation(bad):
    with pytest.raises(ValidationError):
        UtilityMatrix(bad, 0.0, 1.0, 2.0)


def test_integers_too_large_for_a_float_raise_validation_error():
    with pytest.raises(ValidationError, match="v11"):
        UtilityMatrix(10**400, 0.0, 1.0, 2.0)
    with pytest.raises(ValidationError, match="p2"):
        PredictorProfile(0.5, 10**5000)


def test_payoff_lookup():
    assert CLASSIC.payoff(SChoice.S1, CChoice.C1) == 10_000.0
    assert CLASSIC.payoff(SChoice.S1, CChoice.C2) == 0.0
    assert CLASSIC.payoff(SChoice.S2, CChoice.C1) == 1_010_000.0
    assert CLASSIC.payoff(SChoice.S2, CChoice.C2) == 1_000_000.0


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: CLASSIC.payoff("S1", CChoice.C1), "s", id="payoff-s-string"),
        pytest.param(lambda: CLASSIC.payoff(SChoice.S1, "C1"), "c", id="payoff-c-string"),
        pytest.param(lambda: CLASSIC.payoff(SChoice.S1, SChoice.S1), "c", id="payoff-c-wrong-enum"),
        pytest.param(lambda: CLASSIC.column("C1"), "c", id="column-string"),
        pytest.param(lambda: PredictorProfile(0.9, 0.2).s1_probability("C1"), "c", id="s1-probability-string"),
    ],
)
def test_choice_arguments_must_be_the_enums(call, field):
    # Without the check, anything but the enum falls through to the other branch.
    with pytest.raises(ValidationError, match=f"^{field} must be of type"):
        call()


# ── choose ─────────────────────────────────────────────────────────


def test_choose_perfect_predictor_takes_one_box():
    assert choose(CLASSIC, PredictorProfile(1.0, 1.0)) is CChoice.C2


def test_choose_random_predictor_takes_both_boxes():
    assert choose(CLASSIC, PredictorProfile(0.5, 0.5)) is CChoice.C1


def test_choose_on_uncorrelated_line_is_constant_margin():
    """Along p2 = 1 - p1 the margin U1 - U2 is the dominance margin 10000."""
    for i in range(101):
        p1 = i / 100
        u1, u2 = expected_utilities(CLASSIC, PredictorProfile(p1, 1.0 - p1))
        assert u1 - u2 == pytest.approx(10_000.0, abs=1e-6)
        assert choose(CLASSIC, PredictorProfile(p1, 1.0 - p1)) is CChoice.C1


def test_choose_tie_goes_to_c1():
    flat = UtilityMatrix(3.0, 3.0, 3.0, 3.0)
    assert choose(flat, PredictorProfile(0.2, 0.9)) is CChoice.C1
    symmetric = UtilityMatrix(2.0, 0.0, 0.0, 2.0)
    assert choose(symmetric, PredictorProfile(0.4, 0.4)) is CChoice.C1


dyadic_probs = st.integers(0, 16).map(lambda i: i / 16)
int_utils = st.integers(0, 1_000_000).map(float)


@given(
    v=st.tuples(int_utils, int_utils, int_utils, int_utils),
    p1=dyadic_probs,
    p2=dyadic_probs,
    shift=st.integers(0, 1_000_000),
)
def test_choose_translation_invariant(v, p1, p2, shift):
    base = UtilityMatrix(*v)
    shifted = UtilityMatrix(*(x + shift for x in v))
    p = PredictorProfile(p1, p2)
    assert choose(base, p) is choose(shifted, p)


@given(
    v=st.tuples(int_utils, int_utils, int_utils, int_utils),
    p1=dyadic_probs,
    p2=dyadic_probs,
    scale=st.sampled_from([1, 2, 3, 4, 8, 16]),
)
def test_choose_positive_scaling_invariant(v, p1, p2, scale):
    base = UtilityMatrix(*v)
    scaled = UtilityMatrix(*(x * scale for x in v))
    p = PredictorProfile(p1, p2)
    assert choose(base, p) is choose(scaled, p)


def test_dominance_implies_c1_on_uncorrelated_line():
    rng = np.random.default_rng(7)
    found = 0
    while found < 50:
        v = UtilityMatrix(*rng.uniform(0, 1e6, size=4))
        if dominant_choice(v) is not CChoice.C1:
            continue
        found += 1
        for p1 in np.linspace(0.0, 1.0, 21):
            assert choose(v, PredictorProfile(p1, 1.0 - p1)) is CChoice.C1


# ── decision_boundary ──────────────────────────────────────────────


def test_boundary_classic_coefficients():
    b = decision_boundary(CLASSIC)
    assert (b.a1, b.a2, b.b) == (-1_000_000.0, -1_000_000.0, -1_010_000.0)


def test_boundary_classic_is_the_unit_price_line():
    """Exact-rational check: the half-plane is p1 + p2 <= 1.01."""
    b = decision_boundary(CLASSIC)
    a1, a2, rhs = Fraction(-1_000_000), Fraction(-1_000_000), Fraction(-1_010_000)
    assert (Fraction(int(b.a1)), Fraction(int(b.a2)), Fraction(int(b.b))) == (a1, a2, rhs)
    for i in range(0, 201, 7):
        for j in range(0, 201, 7):
            p1, p2 = Fraction(i, 200), Fraction(j, 200)
            affine = a1 * p1 + a2 * p2 >= rhs
            line = p1 + p2 <= Fraction(101, 100)
            assert affine == line


def test_boundary_all_zero_matrix_ties_everywhere():
    v = UtilityMatrix(0.0, 0.0, 0.0, 0.0)
    b = decision_boundary(v)
    assert (b.a1, b.a2, b.b) == (0.0, 0.0, 0.0)
    # a tie goes to C1
    assert choose(v, PredictorProfile(0.0, 0.0)) is CChoice.C1
    assert choose(v, PredictorProfile(1.0, 1.0)) is CChoice.C1


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: DecisionBoundary("x", None, []), id="untyped-coefficients"),
        pytest.param(lambda: DecisionBoundary(1.0, math.inf, 0.0), id="infinite-coefficient"),
    ],
)
def test_boundary_rejects_bad_coefficients(call):
    with pytest.raises(ValidationError):
        call()


def test_boundary_symmetric_matrix_brute_force():
    """For v = (2,0,0,2) the rule collapses to p1 >= p2; check an 11x11 grid.

    U1 = 2*p1 and U2 = 2*p2 are exact, so choose() must match i >= j.
    """
    v = UtilityMatrix(2.0, 0.0, 0.0, 2.0)
    b = decision_boundary(v)
    assert (b.a1, b.a2, b.b) == (2.0, -2.0, 0.0)
    for i in range(11):
        for j in range(11):
            p = PredictorProfile(i / 10, j / 10)
            assert (choose(v, p) is CChoice.C1) == (i >= j)


# ── region_grid ────────────────────────────────────────────────────


def test_region_grid_classic_landmarks():
    grid = region_grid(CLASSIC, 101)
    assert grid.choice_at(100, 100) is CChoice.C2  # perfect predictor corner
    assert grid.choice_at(50, 50) is CChoice.C1  # random predictor center
    assert grid.resolution == 101
    assert len(grid.c1_spans) == 101


def test_region_grid_minimal_resolution_corners():
    grid = region_grid(CLASSIC, 2)
    assert grid.choice_at(0, 0) is CChoice.C1
    assert grid.choice_at(1, 0) is CChoice.C1
    assert grid.choice_at(0, 1) is CChoice.C1
    assert grid.choice_at(1, 1) is CChoice.C2


def test_region_grid_all_zero_matrix_is_all_c1():
    grid = region_grid(UtilityMatrix(0.0, 0.0, 0.0, 0.0), 5)
    assert grid.c1_spans == ((0, 5),) * 5


def test_region_grid_matches_choose_pointwise():
    tables = (
        CLASSIC,
        UtilityMatrix(0.0, 0.0, 0.0, 0.0),
        UtilityMatrix(5.0, 5.0, 5.0, 5.0),  # U1 == U2 everywhere
        UtilityMatrix(1.0, 0.0, 0.0, 1.0),  # U1 == U2 on the diagonal
        UtilityMatrix(1.7e308, 0.0, 1e308, 1.7976931348623157e308),
    )
    for table in tables:
        for resolution in (2, 3, 11, 401):
            grid = region_grid(table, resolution)
            step = resolution - 1
            for i in range(resolution):
                for j in range(resolution):
                    want = choose(table, PredictorProfile(i / step, j / step))
                    assert grid.choice_at(i, j) is want, (table, resolution, i, j)


def test_region_grid_classic_c2_region_is_upward_closed():
    grid = region_grid(CLASSIC, 101)
    for i in range(101):
        for j in range(101):
            if grid.choice_at(i, j) is CChoice.C2:
                if i + 1 < 101:
                    assert grid.choice_at(i + 1, j) is CChoice.C2
                if j + 1 < 101:
                    assert grid.choice_at(i, j + 1) is CChoice.C2


# 10**10 used to exhaust memory before the bound was checked.
@pytest.mark.parametrize("bad", [1, 0, -3, 2.0, "4", MAX_RESOLUTION + 1, 10**10])
def test_region_grid_rejects_bad_resolution(bad):
    with pytest.raises(ValidationError):
        region_grid(CLASSIC, bad)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (5, 0), (0, 5), (1.0, 0), (0, True)])
def test_region_grid_choice_at_rejects_indices_off_the_grid(i, j):
    with pytest.raises(ValidationError):
        region_grid(CLASSIC, 5).choice_at(i, j)


@pytest.mark.parametrize(
    "resolution, spans",
    [
        (3, ((0.5, 2),) * 3),  # not an integer
        (3, ((0, True),) * 3),  # a bool is not an index
        (3, ((1, 2),) * 3),  # neither a prefix nor a suffix
        (3, ((2, 1),) * 3),  # lo > hi
        (3, ((0, 4),) * 3),  # past the row
        (3, ((0, 3),) * 2),  # one row short
        (3, ((0,),) * 3),  # not a pair
        (1, ((0, 1),)),  # resolution below 2
        (MAX_RESOLUTION + 1, ((0, 0),) * (MAX_RESOLUTION + 1)),  # resolution past the bound
        (2, 5),  # not iterable
        (2, ((0, 2) for _ in range(3))),  # a generator of one span too many
        (2, [(0, 2), 7]),  # a span that is not iterable
        (2, [(0, 2), {0: "lo", 2: "hi"}]),  # a dict span: a pair is a tuple or list
        (2, [(0, 2), {0, 2}]),  # a set span
        (2, [(0, 2), range(0, 2)]),  # a range span
    ],
)
def test_region_grid_rejects_malformed_spans(resolution, spans):
    with pytest.raises(ValidationError):
        RegionGrid(resolution, spans)


def test_region_grid_accepts_prefix_and_suffix_spans():
    grid = RegionGrid(3, ((0, 0), (0, 2), (1, 3)))
    assert tuple(tuple(grid.choice_at(i, j) for j in range(3)) for i in range(3)) == (
        (CChoice.C2, CChoice.C2, CChoice.C2),
        (CChoice.C1, CChoice.C1, CChoice.C2),
        (CChoice.C2, CChoice.C1, CChoice.C1),
    )
    # spans given as lists or by a generator are stored as tuples
    listed = RegionGrid(3, [[0, 0], [0, 2], [1, 3]])
    assert listed == grid and hash(listed) == hash(grid)
    assert listed.c1_spans == ((0, 0), (0, 2), (1, 3))
    assert RegionGrid(3, iter(grid.c1_spans)) == grid


def test_region_grid_axis_endpoints_inclusive():
    grid = region_grid(CLASSIC, 5)
    assert grid.axis_value(0) == 0.0
    assert grid.axis_value(4) == 1.0
    for index in (-1, 5, 99, 2.0, "a", True):
        with pytest.raises(ValidationError, match="index"):
            grid.axis_value(index)


# ── dominant_choice ────────────────────────────────────────────────


def test_dominant_choice_classic_margin():
    assert dominant_choice(CLASSIC) is CChoice.C1
    assert CLASSIC.v11 - CLASSIC.v12 == 10_000.0
    assert CLASSIC.v21 - CLASSIC.v22 == 10_000.0


def test_dominant_choice_equal_columns_has_none():
    assert dominant_choice(UtilityMatrix(5.0, 5.0, 9.0, 9.0)) is None


def test_dominant_choice_second_column():
    assert dominant_choice(UtilityMatrix(1.0, 2.0, 3.0, 4.0)) is CChoice.C2


def test_dominant_choice_matches_columnwise_comparison():
    rng = np.random.default_rng(99)
    for _ in range(200):
        entries = rng.integers(0, 5, size=4).astype(float)
        v = UtilityMatrix(*entries)
        expected = None
        if v.v11 > v.v12 and v.v21 > v.v22:
            expected = CChoice.C1
        elif v.v12 > v.v11 and v.v22 > v.v21:
            expected = CChoice.C2
        assert dominant_choice(v) is expected


def test_choose_rejects_invalid_inputs_like_expected_utilities():
    with pytest.raises(ValidationError):
        choose(UtilityMatrix(-1.0, 0.0, 0.0, 0.0), PredictorProfile(0.5, 0.5))
    with pytest.raises(ValidationError):
        expected_utilities(CLASSIC, PredictorProfile(0.5, math.inf))
