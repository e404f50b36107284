"""Benchmark of the newcomb CLI and library; one workload per run.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is used from
`src/` without being installed. The load is a closed loop with one
client: each operation starts when the previous one has been checked.
CLI operations run `python -m newcomb` as a subprocess; tlg-large calls
the library in process. sim-large asks for at most nproc workers
(nproc = CPUs this process may run on); cli-small leaves parallelism to
the program's default, os.cpu_count().

With --trace 0 the run measures end to end and the last line of stdout
is a JSON object with the end-to-end metrics. Their times are scaled to
a reference host speed, sampled by a probe right before and after each
operation (see speed.py), so that the host's drift does not show as a
change of the program; the wall-clock median is printed next to them.
With --trace 1 it measures the per-layer suite, replays the workload's
operations in process with a span around every public call, and
reports per-layer metrics, self times and the tracing overhead, all
unscaled. Every run also writes its report, with the machine's
details, to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import layers
import speed
import workloads
from spans import Tracer, self_time_by_name
from statistics import median

from stats import TAIL_BEYOND, tail_over_kinds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5  # set-ups at least,
SETUP_SECONDS = 6.0  # and more until this long has passed
OP_TIMEOUT_S = 120

# Public functions wrapped in spans during a traced run, by the module
# whose globals the caller looks them up in. Per-cell choose() calls
# inside region_grid are not wrapped: a span per cell would cost more
# than the cell.
TRACED = {
    "newcomb.cli": (
        "parse_config", "cmd_expected", "cmd_region", "cmd_graph", "cmd_simulate",
        "render_region_csv", "expected_utilities", "choose", "decision_boundary",
        "region_grid", "compare", "base_chain", "game_graph", "to_dot",
    ),
    "newcomb.sim": ("monte_carlo", "standard_error"),
    "newcomb.tlg": (
        "unfold", "entanglement_closure", "base_chain", "game_graph",
        "detect_twist", "validate_linearity", "to_dot",
    ),
}


def machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_at_start": os.getloadavg(),
    }


class Runner:
    """Executes operations, checks them, and counts failures."""

    def __init__(self, env: dict, probe=None):
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe = probe  # a speed.py probe, or None to leave times unscaled
        self.probe_s = probe() if probe else None
        self.probes = [self.probe_s]

    def scale(self, seconds: float) -> float:
        """`seconds` just measured, at the reference speed of the probes on
        either side; unscaled if the runner does not probe."""
        if self.probe_s is None:
            return seconds
        before, self.probe_s = self.probe_s, self.probe()
        self.probes.append(self.probe_s)
        return speed.scaled(seconds, before, self.probe_s)

    def execute(self, op: workloads.Op, in_process: bool = False) -> tuple[float, float]:
        """Run and check one operation; returns its wall time and scaled time in seconds."""
        if op.out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(op.out)
        started = time.perf_counter()
        try:
            code, output = self._run(op, in_process)
        except Exception as exc:  # a crash fails the operation, not the run
            code, output = 1, repr(exc)
        elapsed = time.perf_counter() - started
        scaled = self.scale(elapsed)
        self.attempted += 1
        problems = op.check(code, output)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.kind}: {p}" for p in problems)
        return elapsed, scaled

    def _run(self, op: workloads.Op, in_process: bool):
        """(exit code, output): stdout or the call's result, or the error text on failure."""
        if op.call is not None:
            return 0, op.call()
        if in_process:
            from newcomb import cli

            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(op.argv)
            return code, stderr.getvalue() if code else stdout.getvalue()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "newcomb", *op.argv], env=self.env,
                capture_output=True, text=True, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {OP_TIMEOUT_S} s"
        return done.returncode, done.stderr if done.returncode else done.stdout


def import_seconds(env: dict) -> float:
    """Time `import newcomb.tlg` takes in a fresh interpreter, as measured inside it."""
    probe = "import time; t = time.perf_counter(); import newcomb.tlg; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    return float(done.stdout)


def setup(workload: workloads.Workload, runner: Runner) -> list[float]:
    """Scaled times to generate the inputs and warm up one op per kind.

    Set-up i warms up with the operations of round i, so the median
    covers several of the seed's inputs rather than the cost of the
    first; short set-ups are repeated more often. A set-up is the sum
    of its scaled parts: input generation, the warm-up operations and,
    for a library workload, importing the package. This process can
    import it only once, before the first set-up, so each set-up adds
    the import time of a fresh interpreter instead. Output checks are
    not timed.
    """
    if workload.in_process:
        import newcomb.tlg  # noqa: F401
    times = []
    first = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
        started = time.perf_counter()
        workload.write_inputs()
        warm = {}
        for op in workload.round(len(times)):
            warm.setdefault(op.kind, op)
        total = runner.scale(time.perf_counter() - started)
        for op in warm.values():
            total += runner.execute(op)[1]
        if workload.in_process:
            total += runner.scale(import_seconds(runner.env))
        times.append(total)
    return times


def measure(workload, runner: Runner, seconds: float) -> list[tuple[str, float, float, int]]:
    """(kind, wall s, scaled s, work) of whole rounds until `seconds` have
    passed and a tail percentile exists."""
    samples = []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or len(samples) <= TAIL_BEYOND:
        for op in workload.round(index):
            samples.append((op.kind, *runner.execute(op), op.work))
        index += 1
    return samples


def end_to_end(workload, runner: Runner, seconds: float, report: dict) -> dict:
    setups = setup(workload, runner)
    report["setup_s"] = setups
    setup_s = median(setups)
    samples = measure(workload, runner, seconds)
    kinds = sorted({kind for kind, *_ in samples})
    by_kind = {kind: [t for k, _, t, _ in samples if k == kind] for kind in kinds}
    wall_by_kind = {kind: [t for k, t, _, _ in samples if k == kind] for kind in kinds}
    tail_s, tail_pct = tail_over_kinds(by_kind)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    per_kind = {}
    for kind in kinds:
        work = sum(w for k, *_, w in samples if k == kind)
        per_kind[f"{kind}_ms_p50"] = (1e3 * median(by_kind[kind]), "ms")
        per_kind[f"{workload.unit}s_per_s.{kind}"] = (work / sum(by_kind[kind]), "1/s")
    per_kind["wall_latency_ms_p50"] = (1e3 * mean_of_medians(wall_by_kind), "ms")
    report["probe_ms_p50"] = 1e3 * median(runner.probes)
    report["samples"] = len(samples)
    report["latency_s"] = by_kind
    report["wall_latency_s"] = wall_by_kind
    report["tail_percentile"] = tail_pct
    report["per_kind"] = per_kind
    return {
        "latency_ms_p50": (1e3 * mean_of_medians(by_kind), "ms"),
        "latency_ms_tail": (1e3 * tail_s, "ms"),
        "work_per_s": (sum(w for *_, w in samples) / sum(t for _, _, t, _ in samples), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def mean_of_medians(by_kind: dict) -> float:
    """Kinds run equally often, so the mean of their medians is the
    typical op of a round; a pooled median of a mix of slow and fast
    kinds would jump between them from run to run."""
    return sum(median(v) for v in by_kind.values()) / len(by_kind)


def traced(workload, runner: Runner, seconds: float, env: dict, work_dir: str, report: dict) -> dict:
    workload.write_inputs()
    metrics, problems = layers.measure(env, work_dir, workload.seed, workload.nproc)
    runner.attempted += 1
    if problems:
        runner.failed += 1
        runner.problems.extend(problems)

    # Replay the workload's own operations in process, one root span each.
    tracer = Tracer()
    started = time.perf_counter()
    index = 0
    with tracer.instrument(TRACED):
        while index == 0 or time.perf_counter() - started < seconds / 2:
            for op in workload.round(index):
                with tracer.span(f"op.{op.kind}"):
                    runner.execute(op, in_process=True)
            index += 1
    total = sum(s.end_ns - s.start_ns for s in tracer.spans if s.parent is None)
    report["self_time_ms"] = {
        name: {"ms": own / 1e6, "share": own / total}
        for name, own in sorted(self_time_by_name(tracer.spans).items(), key=lambda kv: -kv[1])
    }
    metrics["trace.spans"] = (len(tracer.spans), "count")

    # Tracing overhead: the same tlg-large operations with and without spans.
    # Each operation runs both ways, in alternating order; the overhead is
    # the median of the paired differences.
    tlg_ops = workloads.make("tlg-large", workload.seed, work_dir, workload.nproc)
    differences, plain = [], []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < 3.0 or index < 2:
        for op in tlg_ops.round(index):
            times = {}
            for wrapped in ((False, True) if index % 2 else (True, False)):
                if wrapped:
                    overhead = Tracer()
                    with overhead.instrument(TRACED), overhead.span(f"op.{op.kind}"):
                        times[wrapped] = runner.execute(op)[1]
                else:
                    times[wrapped] = runner.execute(op)[1]
            differences.append(times[True] - times[False])
            plain.append(times[False])
        index += 1
    metrics["trace.overhead_ms"] = (1e3 * median(differences), "ms")
    report["trace_overhead_share"] = median(differences) / median(plain)
    return metrics


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "newcomb", "cli.py")):
        print(f"error: no newcomb package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    nproc = report["machine"]["nproc"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        workload = workloads.make(args.workload, args.seed, work_dir, nproc)
        # The traced pass reports raw times: a probe inside a span would
        # count as the span's own time.
        if args.trace:
            probe = None
        elif workload.in_process:
            probe = speed.probe
        else:
            probe = functools.partial(speed.fresh_probe, env)
        runner = Runner(env, probe)
        if args.trace:
            metrics = traced(workload, runner, args.seconds, env, work_dir, report)
        else:
            metrics = end_to_end(workload, runner, args.seconds, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: the metrics measured differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1

    for name, (value, unit) in {**metrics, **report.get("per_kind", {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, entry in report.get("self_time_ms", {}).items():
        print(f"self {name} = {entry['ms']:.6g} ms ({100 * entry['share']:.1f} %)")
    if "tail_percentile" in report:
        print(f"latency_ms_tail is p{report['tail_percentile']:.1f} of {report['samples']} samples, each "
              "divided by its kind's median, times the slowest kind's median")
    if "probe_ms_p50" in report:
        print(f"times are scaled to a host where the speed probe takes {1e3 * speed.REFERENCE_S:g} ms; "
              f"here it took {report['probe_ms_p50']:.4g} ms (median of {len(runner.probes)})")
    if "trace_overhead_share" in report:
        print(f"tracing overhead is {100 * report['trace_overhead_share']:.2f} % of a tlg-large op")
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    print(f"machine = {json.dumps(report['machine'])}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump({**report, "problems": runner.problems, "result": result}, handle, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
