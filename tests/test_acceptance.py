"""Acceptance suite: one test per release criterion.

Each criterion asserts its stated tolerance and prints a single
PASS line with the measured values. The module also runs standalone:

    python tests/test_acceptance.py
"""

import itertools
import math
import time

import numpy as np

from newcomb import (
    CChoice,
    GAME_UNFOLD,
    Player,
    PredictorProfile,
    RngSpec,
    UnfoldSpec,
    UtilityMatrix,
    base_chain,
    choose,
    compare,
    decision_boundary,
    detect_twist,
    entanglement_closure,
    expected_utilities,
    game_graph,
    is_chain,
    monte_carlo,
    play_once,
    player_timeline,
    region_grid,
    unfold,
    validate_linearity,
)
from newcomb import sim

CLASSIC = UtilityMatrix.classic()


def _report(number: int, detail: str) -> None:
    print(f"criterion {number:02d} PASS: {detail}")


def test_criterion_01_expected_utility_exactness():
    started = time.perf_counter()
    random_case = expected_utilities(CLASSIC, PredictorProfile(0.5, 0.5))
    perfect_case = expected_utilities(CLASSIC, PredictorProfile(1.0, 1.0))
    elapsed = time.perf_counter() - started
    for got, want in zip(random_case + perfect_case, (510_000.0, 500_000.0, 10_000.0, 1_000_000.0)):
        assert abs(got - want) <= 1e-9 * want or got == want
    _report(1, f"U=(510000,500000) and (10000,1000000) exact, {elapsed * 1e6:.0f} us")


def test_criterion_02_boundary_reproduction():
    started = time.perf_counter()
    boundary = decision_boundary(CLASSIC)
    assert (boundary.a1, boundary.a2, boundary.b) == (-1e6, -1e6, -1.01e6)

    # choose() and the exact affine form, multiplied through by 200 so that
    # it stays in integers, must both agree with p1 + p2 <= 1.01
    a1, a2, b = (int(x) for x in (boundary.a1, boundary.a2, boundary.b))
    mismatches = 0
    for i in range(201):
        for j in range(201):
            line = i + j <= 202
            if (choose(CLASSIC, PredictorProfile(i / 200, j / 200)) is CChoice.C1) != line:
                mismatches += 1
            if (a1 * i + a2 * j >= 200 * b) != line:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 1.0
    _report(2, f"p1+p2<=1.01 reproduced, 0/40401 grid mismatches, {elapsed:.2f} s")


def test_criterion_03_region_landmarks():
    grid = region_grid(CLASSIC, 101)
    perfect = grid.choice_at(100, 100)
    random_center = grid.choice_at(50, 50)
    assert perfect is CChoice.C2
    assert random_center is CChoice.C1
    _report(3, "grid(1,1)=C2 (perfect predictor), grid(0.5,0.5)=C1 (random predictor)")


def test_criterion_04_perfect_predictor_determinism():
    started = time.perf_counter()
    two_box = monte_carlo(CLASSIC, PredictorProfile(1, 1), CChoice.C1, 50_000, RngSpec(0))
    one_box = monte_carlo(CLASSIC, PredictorProfile(1, 1), CChoice.C2, 50_000, RngSpec(0))
    elapsed = time.perf_counter() - started
    assert two_box.empirical_mean == 10_000.0
    assert one_box.empirical_mean == 1_000_000.0
    assert elapsed < 1.0
    _report(4, f"N=50000 means exactly (10000, 1000000), {elapsed:.2f} s")


def test_criterion_05_random_predictor_statistics():
    started = time.perf_counter()
    table = compare(CLASSIC, PredictorProfile(0.5, 0.5), 50_000, RngSpec(0))
    elapsed = time.perf_counter() - started
    tolerance = 3.0 * table.c1.standard_error  # = 6708.2 euros
    assert tolerance < 6709.0
    dev1 = table.c1.empirical_mean - 510_000.0
    dev2 = table.c2.empirical_mean - 500_000.0
    assert abs(dev1) <= tolerance and abs(dev2) <= tolerance
    assert elapsed < 2.0
    _report(
        5,
        f"empirical ({table.c1.empirical_mean:.0f}, {table.c2.empirical_mean:.0f})"
        f" within ±{tolerance:.0f} of (510000, 500000), {elapsed:.2f} s",
    )


def test_criterion_06_tlg_structure():
    graph = unfold(base_chain(4), GAME_UNFOLD)
    assert {n.id for n in graph.nodes} == {1, 2, 3, 4, 5, 6, 7}
    assert set(graph.edges) == {(1, 2), (2, 3), (3, 4), (3, 5), (5, 2), (2, 6), (6, 7)}
    assert {frozenset(c) for c in graph.entanglement} == {
        frozenset({3, 6}),
        frozenset({4, 7}),
    }
    _report(6, "7 nodes, 7 edges, entanglement {3,6} and {4,7}")


def test_criterion_07_linearity_principle():
    graph = game_graph()
    for player in Player:
        assert validate_linearity(player_timeline(graph, player), graph)
    assert not is_chain(graph)
    full_walks_valid = sum(
        validate_linearity(list(order), graph)
        for order in itertools.permutations(range(1, 8))
    )
    assert full_walks_valid == 0
    _report(7, "C, S, Omega walks all linear; no 7-node walk is (0/5040)")


def test_criterion_08_twist_detection():
    graph = game_graph()
    omega_twists = detect_twist(player_timeline(graph, Player.OMEGA), graph)
    assert (3, 2) in omega_twists
    assert detect_twist(player_timeline(graph, Player.C), graph) == []
    assert detect_twist(player_timeline(graph, Player.S), graph) == []
    _report(8, f"Omega sees inversion {omega_twists}; C and S see none")


def test_criterion_09_property_suite():
    # entanglement closure idempotence
    for seeded in (
        game_graph().with_entanglement([(3, 6)]),
        unfold(base_chain(6), UnfoldSpec(6, 2, 4)),
    ):
        once = entanglement_closure(seeded)
        assert entanglement_closure(once) == once

    # translation and positive-scaling invariance of choose
    gen = np.random.default_rng(1234)
    for _ in range(1000):
        entries = gen.uniform(0.0, 1e6, size=4)
        p = PredictorProfile(*gen.uniform(0.0, 1.0, size=2))
        shift = gen.uniform(0.0, 1e6)
        scale = gen.uniform(0.1, 10.0)
        picked = choose(UtilityMatrix(*entries), p)
        assert choose(UtilityMatrix(*(entries + shift)), p) is picked
        assert choose(UtilityMatrix(*(entries * scale)), p) is picked

    # parallel determinism
    # (the last size spans several chunks, so eight workers split it)
    for n in (4_097, 50_000, 3 * sim._CHUNK + 1):
        solo = monte_carlo(CLASSIC, PredictorProfile(0.5, 0.5), CChoice.C1, n, RngSpec(7), parallelism=1)
        eight = monte_carlo(CLASSIC, PredictorProfile(0.5, 0.5), CChoice.C1, n, RngSpec(7), parallelism=8)
        assert solo == eight

    # small-N equivalence with a straight-line conditional sampler
    p = PredictorProfile(0.5, 0.5)
    for seed in range(100):
        n = (seed % 20) + 1
        rng = RngSpec(seed)
        for c_choice in (CChoice.C1, CChoice.C2):
            report = monte_carlo(CLASSIC, p, c_choice, n, rng)
            total = 0.0
            for i in range(n):
                u = rng.stream(i).uniform()
                if c_choice is CChoice.C1:
                    total += CLASSIC.v11 if u < p.p1 else CLASSIC.v21
                else:
                    total += CLASSIC.v12 if u < 1.0 - p.p2 else CLASSIC.v22
            assert report.empirical_mean == total / n
    _report(9, "closure idempotent; choose invariances x1000; parallel 1==8; oracle replay x100 seeds")


def test_criterion_10_uncorrelated_line_dominance():
    worst = 0.0
    for i in range(101):
        p1 = i / 100
        u1, u2 = expected_utilities(CLASSIC, PredictorProfile(p1, 1.0 - p1))
        worst = max(worst, abs((u1 - u2) - 10_000.0))
    assert worst <= 1e-6
    _report(10, f"U1-U2 = 10000 on p2=1-p1 at 101 points, max |error| {worst:.2e}")


_CRITERIA = [
    test_criterion_01_expected_utility_exactness,
    test_criterion_02_boundary_reproduction,
    test_criterion_03_region_landmarks,
    test_criterion_04_perfect_predictor_determinism,
    test_criterion_05_random_predictor_statistics,
    test_criterion_06_tlg_structure,
    test_criterion_07_linearity_principle,
    test_criterion_08_twist_detection,
    test_criterion_09_property_suite,
    test_criterion_10_uncorrelated_line_dominance,
]


def main() -> int:
    failures = 0
    for number, criterion in enumerate(_CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {number:02d} FAIL: {exc}")
    print(f"{len(_CRITERIA) - failures}/{len(_CRITERIA)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
