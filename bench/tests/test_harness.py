"""Tests of the benchmark's own pieces: statistics, scaling, spans and checks.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import json
import math
import sys
import types

import pytest

import checks
import speed
import workloads
from spans import Span, Tracer, self_time_by_name, self_times_ns
from stats import quartile_spread, tail, tail_over_kinds


def test_tail_is_the_sample_with_ten_beyond_it():
    values = list(range(1000))
    assert tail(values) == (989, 99.0)
    value, percentile = tail(list(reversed(range(11))))
    assert value == 0 and percentile == pytest.approx(100 / 11)
    assert sum(v > value for v in range(11)) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_tail_over_kinds_lets_every_kind_feed_the_tail():
    fast = [1.0] * 30
    slow = [100.0] * 10 + [150.0]
    value, percentile = tail_over_kinds({"fast": fast, "slow": slow})
    # 41 ratios: 40 ones and one 1.5; rank 41 - 10 is a one.
    assert value == 100.0 and percentile == pytest.approx(100 * 31 / 41)
    # Pooled, rank 41 - 10 of the raw latencies is 100, below the slow kind's median.
    slower = [100.0] * 5 + [200.0] * 6
    assert tail_over_kinds({"fast": fast, "slow": slower})[0] == pytest.approx(200.0)
    single = [float(v) for v in range(40)]
    assert tail_over_kinds({"only": single}) == tail(single)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 9) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)


def test_scaled_time_reads_at_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # A host at half speed doubles the probe and the raw time alike.
    assert speed.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    # The probes on either side of the operation are averaged.
    assert speed.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert speed.probe() > 0


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 30, 0),
        Span("b", 40, 70, 0),
        Span("b.inner", 50, 60, 2),
        Span("late", 90, 120, 0),  # clipped to the parent's end
    ]
    assert self_times_ns(spans) == [100 - 20 - 30 - 10, 20, 20, 10, 30]
    assert self_time_by_name(spans + [Span("a", 200, 205, None)])["a"] == 25


def test_tracer_nests_wrapped_module_calls_and_restores_them():
    module = types.ModuleType("bench_fake_layer")
    exec("def leaf(x):\n    return x + 1\n\ndef outer(x):\n    return leaf(x) * 2\n", module.__dict__)
    sys.modules[module.__name__] = module
    original = module.leaf
    try:
        tracer = Tracer()
        with tracer.instrument({module.__name__: ("outer", "leaf", "missing")}):
            with tracer.span("op"):
                assert module.outer(1) == 4
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("op", None), ("bench_fake_layer.outer", 0), ("bench_fake_layer.leaf", 1)]
        assert all(s.end_ns >= s.start_ns for s in tracer.spans)
        assert module.leaf is original
    finally:
        del sys.modules[module.__name__]


def _corrupt(text: str, at: int) -> str:
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]


def test_digest_check_flags_one_corrupted_byte():
    from newcomb import cli, tlg

    config = cli.parse_config(json.dumps({"utilities": workloads.CLASSIC, "predictor": [0.5, 0.5]}))
    csv = cli.render_region_csv(config)
    dot = tlg.to_dot(tlg.game_graph())
    assert checks.check_digest(csv.encode(), checks.CLASSIC_CSV_R101_SHA256, "csv") == []
    assert checks.check_digest(dot.encode(), checks.GAME_DOT_SHA256, "dot") == []
    assert checks.check_digest(_corrupt(csv, len(csv) // 2).encode(), checks.CLASSIC_CSV_R101_SHA256, "csv")
    assert checks.check_digest(_corrupt(dot, 40).encode(), checks.GAME_DOT_SHA256, "dot")


def test_region_sample_check_flags_a_corrupted_cell_and_axis():
    from newcomb import cli

    utilities = [[5, 1], [2, 9]]
    config = cli.parse_config(json.dumps({"utilities": utilities, "predictor": [0.5, 0.5], "resolution": 21}))
    csv = cli.render_region_csv(config)
    cells = [(i, j) for i in range(21) for j in range(21)]
    assert checks.check_region_sample(csv, utilities, 21, cells) == []
    lines = csv.split("\n")
    flipped = lines[1 + 3 * 21 + 17].replace("C1", "C2") if "C1" in lines[1 + 3 * 21 + 17] \
        else lines[1 + 3 * 21 + 17].replace("C2", "C1")
    bad_cell = "\n".join(lines[:1 + 3 * 21 + 17] + [flipped] + lines[2 + 3 * 21 + 17:])
    assert checks.check_region_sample(bad_cell, utilities, 21, [(3, 17)])
    assert checks.check_region_sample(csv.replace("0.05,", "0.050,", 1), utilities, 21, [])


def test_unfolded_check_matches_the_library_and_flags_a_corrupted_dot():
    from newcomb import tlg

    n, k, m = 40, 7, 19
    graph = tlg.unfold(tlg.base_chain(n), tlg.UnfoldSpec(n, k, m))
    walk = checks.unfold_walk(n, k, m, 3)
    twists = tlg.detect_twist(walk, graph)
    linear = tlg.validate_linearity(walk, graph)
    dot = tlg.to_dot(graph)
    assert checks.check_unfolded(n, k, m, graph, twists, linear, dot) == []
    assert checks.check_unfolded(n, k, m, graph, twists, linear, _corrupt(dot, len(dot) - 20))
    assert checks.check_unfolded(n, k, m, graph, twists[1:], linear, dot)


def test_unfold_walk_generalises_the_oracle_walk_of_the_game():
    assert checks.unfold_walk(4, 2, 3, 1) == [1, 3, 5, 2, 6, 7]
    assert checks.expected_twists(4, 2, 3) == [(3, 2)]


def _simulate_output(predictor, trials=4000, seed=9, parallelism=1):
    from newcomb import cli

    config = cli.parse_config(json.dumps({
        "utilities": workloads.CLASSIC, "predictor": predictor, "trials": trials,
        "seed": seed, "parallelism": parallelism,
    }))
    return json.dumps(cli.cmd_simulate(config), indent=2)


def test_simulate_check_accepts_real_output_and_flags_non_strict_json():
    for predictor in ([0.5, 0.5], [1.0, 1.0], [0.3, 0.8]):
        text = _simulate_output(predictor)
        assert checks.check_simulate(text, workloads.CLASSIC, predictor, 4000, 9) == []
    text = _simulate_output([0.5, 0.5])
    document = json.loads(text)
    document["numerical"]["C1"] = float("inf")
    non_strict = json.dumps(document)
    assert "Infinity" in non_strict
    assert checks.check_simulate(non_strict, workloads.CLASSIC, [0.5, 0.5], 4000, 9)
    assert checks.check_simulate(text.replace('"seed": 9', '"seed": NaN', 1), workloads.CLASSIC,
                                 [0.5, 0.5], 4000, 9)


def test_simulate_check_flags_inexact_means_at_the_perfect_predictor():
    document = json.loads(_simulate_output([1.0, 1.0]))
    document["numerical"]["C2"] = 1000000.0000000001
    assert checks.check_simulate(json.dumps(document), workloads.CLASSIC, [1.0, 1.0], 4000, 9)


def test_same_means_check_flags_a_parallelism_mismatch():
    serial = _simulate_output([0.3, 0.8], trials=20000, parallelism=1)
    parallel = _simulate_output([0.3, 0.8], trials=20000, parallelism=2)
    assert checks.check_same_means(serial, parallel) == []
    document = json.loads(parallel)
    mean = document["numerical"]["C1"]
    document["numerical"]["C1"] = math.nextafter(mean, math.inf)  # one bit off
    assert checks.check_same_means(serial, json.dumps(document))


@pytest.mark.parametrize("name", ["cli-small", "sim-large", "region-large"])
def test_inputs_are_a_pure_function_of_the_seed(tmp_path, name):
    def inputs(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        workloads.make(name, seed, str(directory), 2).write_inputs()
        return {p.name: p.read_text() for p in directory.iterdir()}

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first != inputs(6, "c")


def test_tlg_rounds_are_a_pure_function_of_the_seed():
    def specs(seed):
        workload = workloads.make("tlg-large", seed, ".", 2)
        return [(op.kind, op.work) for i in range(4) for op in workload.round(i)]

    assert specs(3) == specs(3)
    assert specs(3) != specs(4)
