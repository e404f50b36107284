"""Per-layer timings, measured in process around public calls.

The same suite runs on every workload, so each traced run reports the
same names. Each timing is the median of several repeats; calls that
take microseconds are timed in loops and divided by the loop length.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from statistics import median

import checks
from spans import Tracer, self_times_ns

DEFAULT_CONFIG = json.dumps({"utilities": [[10000, 0], [1010000, 1000000]], "predictor": [0.5, 0.5]})

# Run in a fresh interpreter: time `import newcomb.cli`, then report
# whether numpy got loaded by the import plus `cmd_expected`.
_IMPORT_PROBE = """
import json, sys, time
started = time.perf_counter()
import newcomb.cli as cli
imported = time.perf_counter() - started
cli.cmd_expected(cli.parse_config(sys.argv[1]))
print(json.dumps({"import_s": imported, "numpy": "numpy" in sys.modules}))
"""


def _seconds(fn, repeats: int, calls: int = 1) -> float:
    """Median over repeats of the wall time of one call of fn."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - started) / calls)
    return median(times)


def cli_layer(env, work_dir: str, metrics: dict) -> None:
    from newcomb import cli, tlg

    interpreter = [sys.executable, "-c", "pass"]
    metrics["cli.interpreter_ms"] = (1e3 * _seconds(
        lambda: subprocess.run(interpreter, env=env, check=True, timeout=60), 7), "ms")
    probes = []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, DEFAULT_CONFIG], env=env,
                              check=True, capture_output=True, text=True, timeout=60)
        probes.append(json.loads(done.stdout))
    metrics["cli.import_ms"] = (1e3 * median(p["import_s"] for p in probes), "ms")
    metrics["cli.numpy_imported"] = (int(all(p["numpy"] for p in probes)), "0/1")

    config = cli.parse_config(DEFAULT_CONFIG)
    metrics["cli.parse_config_us"] = (1e6 * _seconds(lambda: cli.parse_config(DEFAULT_CONFIG), 5, 2000), "us")
    metrics["cli.cmd_expected_us"] = (1e6 * _seconds(lambda: cli.cmd_expected(config), 5, 2000), "us")
    metrics["cli.cmd_simulate_ms"] = (1e3 * _seconds(lambda: cli.cmd_simulate(config), 5), "ms")
    # Bytes written by expected, region and graph on the default config;
    # simulate is left out because its elapsed_seconds field varies.
    dot = tlg.to_dot(tlg.game_graph())
    output = json.dumps(cli.cmd_expected(config), indent=2) + "\n" + cli.render_region_csv(config) + dot
    metrics["cli.output_bytes"] = (len(output.encode()), "count")

    sized = {r: cli.parse_config(json.dumps({**json.loads(DEFAULT_CONFIG), "resolution": r})) for r in (101, 401)}
    for r, config_r in sized.items():
        metrics[f"cli.render_region_csv_ms.r{r}"] = (
            1e3 * _seconds(lambda: cli.render_region_csv(config_r), 3), "ms")
    # cmd_region's own time, the write, is its span minus the render span.
    tracer = Tracer()
    out = os.path.join(work_dir, "layers.csv")
    with tracer.instrument({"newcomb.cli": ("render_region_csv",)}):
        for _ in range(3):
            with tracer.span("cli.cmd_region"):
                cli.cmd_region(sized[401], out)
    own = [t for span, t in zip(tracer.spans, self_times_ns(tracer.spans)) if span.parent is None]
    metrics["cli.cmd_region_ms.r401"] = (median(own) / 1e6, "ms")


def decision_layer(metrics: dict) -> None:
    from newcomb import decision

    table = decision.UtilityMatrix.classic()
    profile = decision.PredictorProfile(0.5, 0.5)
    for r in (101, 401):
        metrics[f"decision.region_grid_ms.r{r}"] = (
            1e3 * _seconds(lambda: decision.region_grid(table, r), 3), "ms")
    metrics["decision.expected_utilities_ns"] = (
        1e9 * _seconds(lambda: decision.expected_utilities(table, profile), 5, 20000), "ns")
    metrics["decision.choose_ns"] = (1e9 * _seconds(lambda: decision.choose(table, profile), 5, 20000), "ns")


def sim_layer(seed: int, nproc: int, metrics: dict) -> None:
    from newcomb import decision, sim

    table = decision.UtilityMatrix.classic()
    profile = decision.PredictorProfile(0.5, 0.5)
    rng = sim.RngSpec(seed)
    for n, label, repeats in ((10**5, "1e5", 5), (10**6, "1e6", 5), (10**7, "1e7", 3)):
        for degree, suffix in ((1, "p1"), (nproc, "pN")):
            metrics[f"sim.monte_carlo_ms.n{label}.{suffix}"] = (1e3 * _seconds(
                lambda: sim.monte_carlo(table, profile, decision.CChoice.C1, n, rng, degree), repeats), "ms")
    serial = metrics["sim.monte_carlo_ms.n1e7.p1"][0]
    parallel = metrics["sim.monte_carlo_ms.n1e7.pN"][0]
    metrics["sim.ns_per_trial.p1"] = (serial * 1e6 / 10**7, "ns")
    metrics["sim.ns_per_trial.pN"] = (parallel * 1e6 / 10**7, "ns")
    metrics["sim.parallel_speedup"] = (serial / parallel, "x")
    tracemalloc.start()
    try:
        sim.monte_carlo(table, profile, decision.CChoice.C1, 10**7, rng, nproc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["sim.monte_carlo_peak_mb"] = (peak / 2**20, "MB")
    stream = rng.stream(0)  # each play takes the stream's next draw
    metrics["sim.play_once_us"] = (1e6 * _seconds(
        lambda: sim.play_once(table, profile, decision.CChoice.C1, stream), 5, 20000), "us")


def tlg_layer(metrics: dict) -> list[str]:
    from newcomb import tlg

    for n, repeats in ((64, 5), (128, 5), (256, 3), (512, 3)):
        spec = tlg.UnfoldSpec(n, n // 4, n // 2)
        metrics[f"tlg.unfold_ms.n{n}"] = (1e3 * _seconds(lambda: tlg.unfold(tlg.base_chain(n), spec), repeats), "ms")
    n, k, m = 256, 64, 128
    graph = tlg.unfold(tlg.base_chain(n), tlg.UnfoldSpec(n, k, m))
    # The graph unfold builds before it closes: copies paired with their
    # originals and nothing transmitted yet.
    seeded = tlg.TLGraph.build(graph.nodes, graph.edges,
                               [(node.copy_of, node.id) for node in graph.nodes if node.copy_of])
    metrics["tlg.entanglement_closure_ms.n256"] = (
        1e3 * _seconds(lambda: tlg.entanglement_closure(seeded), 3), "ms")
    metrics["tlg.to_dot_ms.n256"] = (1e3 * _seconds(lambda: tlg.to_dot(graph), 3), "ms")
    walk = checks.unfold_walk(n, k, m, k - 1)
    metrics["tlg.detect_twist_ms.n256"] = (1e3 * _seconds(lambda: tlg.detect_twist(walk, graph), 5), "ms")
    metrics["tlg.validate_linearity_ms.n256"] = (
        1e3 * _seconds(lambda: tlg.validate_linearity(walk, graph), 5), "ms")
    metrics["tlg.game_graph_us"] = (1e6 * _seconds(tlg.game_graph, 5, 200), "us")
    game = tlg.game_graph()
    metrics["tlg.player_timeline_us"] = (
        1e6 * _seconds(lambda: tlg.player_timeline(game, tlg.Player.OMEGA), 5, 200), "us")
    metrics["tlg.classes.n256"] = (len(graph.nontrivial_classes), "count")
    return checks.check_unfolded(n, k, m, graph, tlg.detect_twist(walk, graph),
                                 tlg.validate_linearity(walk, graph), tlg.to_dot(graph))


def measure(env, work_dir: str, seed: int, nproc: int) -> tuple[dict, list[str]]:
    """Every per-layer metric as name -> (value, unit), and any check problems."""
    metrics: dict = {}
    cli_layer(env, work_dir, metrics)
    decision_layer(metrics)
    sim_layer(seed, nproc, metrics)
    problems = tlg_layer(metrics)
    return metrics, problems
