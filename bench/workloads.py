"""The four workloads: their inputs, operations and checks.

Every input is a pure function of the workload seed: the seeded
`random.Random` below makes the config files and specs, and the program
only ever sees those files and arguments. Operations come in rounds
that hold one operation of each kind, so every kind is measured
equally often. The seed ranges were chosen to cover each input space
evenly (predictors over [0, 1]^2, tables with each dominance pattern,
every 1 <= k < m <= n); none was narrowed to keep a known defect of
the program from showing.

Why these four:

* cli-small is what users run: the four commands on the default
  configuration, about 90 % interpreter start and import, so it shows
  gains in the CLI process and should stay flat under kernel, grid and
  closure changes.
* sim-large spends most of each call in the Monte Carlo draw kernel and
  worker dispatch (N = 2e7 per choice), at parallelism 1 and nproc.
  Its predictors cover q in {0, 1/2, 1}, the edge cases of the kernel.
* region-large spends most of each call building, rendering and writing
  a 401 x 401 region grid, one table per dominance pattern.
* tlg-large runs the time-lines-graph layer in process on chains of 128
  to 384 events, which no CLI path reaches.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, ClassVar

import checks

CLASSIC = [[10000, 0], [1010000, 1000000]]


@dataclass
class Op:
    """One operation of a workload.

    A CLI operation has `argv` (the arguments after `python -m newcomb`);
    a library operation has `call` instead, returning its raw output.
    `check` turns (exit code, output) into a list of problems; on a
    non-zero exit code the output is the error text.
    """

    kind: str
    work: int
    check: Callable[[int, object], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    out: str | None = None  # file the operation writes; removed before it runs


@dataclass
class Workload:
    name: ClassVar[str]
    unit: ClassVar[str]  # what `work` counts
    in_process: ClassVar[bool] = False
    seed: int
    work_dir: str
    nproc: int

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def write_json(self, name: str, document) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def write_inputs(self) -> None:
        """Generate the input files from the seed; repeated calls give the same files."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError


def _exit_ok(check):
    """Wrap a check of the output so that a non-zero exit code fails first."""

    def run(code, output):
        return [f"exit code {code}: {str(output).strip()[-300:]}"] if code else check(output)

    return run


def _predictor(rng: random.Random, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    return [round(rng.uniform(lo, hi), 4), round(rng.uniform(lo, hi), 4)]


class CliSmall(Workload):
    """Round robin over expected, graph, region (r = 101) and simulate."""

    name, unit = "cli-small", "op"
    CONFIGS = 8

    def write_inputs(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        self.configs = []
        for i in range(self.CONFIGS):
            # Default trials, resolution and parallelism: the keys are left out.
            config = {"utilities": CLASSIC, "predictor": _predictor(rng), "seed": rng.getrandbits(64)}
            self.configs.append((self.write_json(f"cli-small-{i}.json", config), config))

    def round(self, index: int) -> list[Op]:
        path, config = self.configs[index % self.CONFIGS]
        utilities, predictor = config["utilities"], config["predictor"]
        dot, csv = self.path("cli-small.dot"), self.path("cli-small.csv")

        def file_digest(out, digest):
            def check(_stdout):
                with open(out, "rb") as handle:
                    return checks.check_digest(handle.read(), digest, os.path.basename(out))

            return _exit_ok(check)

        return [
            Op("expected", 1, _exit_ok(lambda out: checks.check_expected(out, utilities, predictor)),
               argv=["expected", "--config", path]),
            Op("graph", 1, file_digest(dot, checks.GAME_DOT_SHA256),
               argv=["graph", "--config", path, "--out", dot], out=dot),
            Op("region", 1, file_digest(csv, checks.CLASSIC_CSV_R101_SHA256),
               argv=["region", "--config", path, "--out", csv], out=csv),
            Op("simulate", 1, _exit_ok(
                lambda out: checks.check_simulate(out, utilities, predictor, 50_000, config["seed"])),
               argv=["simulate", "--config", path]),
        ]


class SimLarge(Workload):
    """simulate with N = 2e7 per choice at parallelism 1, then nproc."""

    name, unit = "sim-large", "trial"
    TRIALS = 20_000_000

    def write_inputs(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        profiles = ([0.5, 0.5], [1.0, 1.0], _predictor(rng, 0.05, 0.95))
        self.configs = []
        for i, predictor in enumerate(profiles):
            config = {
                "utilities": CLASSIC,
                "predictor": predictor,
                "trials": self.TRIALS,
                "seed": rng.getrandbits(64),
            }
            self.configs.append((self.write_json(f"sim-large-{i}.json", config), config))

    def round(self, index: int) -> list[Op]:
        path, config = self.configs[index % len(self.configs)]
        outputs = {}

        def check(kind):
            def run(out):
                outputs[kind] = out
                problems = checks.check_simulate(
                    out, config["utilities"], config["predictor"], self.TRIALS, config["seed"]
                )
                if kind == "pN":
                    if "p1" not in outputs:
                        return problems + ["no parallelism-1 result to compare with"]
                    problems += checks.check_same_means(outputs["p1"], out)
                return problems

            return _exit_ok(run)

        return [
            Op(kind, 2 * self.TRIALS, check(kind),
               argv=["simulate", "--config", path, "--parallelism", str(degree)])
            for kind, degree in (("p1", 1), ("pN", self.nproc))
        ]


class RegionLarge(Workload):
    """region at r = 401 over three seed-drawn tables, one per dominance pattern."""

    name, unit = "region-large", "cell"
    RESOLUTION = 401
    SAMPLED_CELLS = 256

    def write_inputs(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")

        def value():
            return rng.randrange(0, 2_000_001)

        def above(x):
            return x + rng.randrange(1, 1_000_001)

        a, b = value(), value()
        c1_dominant = [[above(a), a], [above(b), b]]  # v11 > v12 and v21 > v22
        a, b = value(), value()
        c2_dominant = [[a, above(a)], [b, above(b)]]
        a, b = value(), value()
        no_dominance = [[above(a), a], [b, above(b)]]  # the boundary crosses the grid
        self.tables = []
        for i, utilities in enumerate((c1_dominant, c2_dominant, no_dominance)):
            config = {"utilities": utilities, "predictor": [0.5, 0.5], "resolution": self.RESOLUTION}
            last = self.RESOLUTION - 1
            corners = [(0, 0), (0, last), (last, 0), (last, last)]
            cells = corners + [
                (rng.randrange(self.RESOLUTION), rng.randrange(self.RESOLUTION))
                for _ in range(self.SAMPLED_CELLS)
            ]
            self.tables.append((self.write_json(f"region-large-{i}.json", config), utilities, cells))

    def round(self, index: int) -> list[Op]:
        csv = self.path("region-large.csv")
        ops = []
        for path, utilities, cells in self.tables:
            def check(_stdout, utilities=utilities, cells=cells):
                with open(csv, "r", encoding="utf-8", newline="") as handle:
                    return checks.check_region_sample(handle.read(), utilities, self.RESOLUTION, cells)

            ops.append(Op("region", self.RESOLUTION**2, _exit_ok(check),
                          argv=["region", "--config", path, "--out", csv], out=csv))
        return ops


class TlgLarge(Workload):
    """unfold, detect_twist, validate_linearity and to_dot on long chains.

    The cost of an operation depends on k and m, so they follow a
    low-discrepancy sequence with a seed-drawn start: each run covers
    1 <= k < m <= n evenly, and the seed moves the points, not their
    spread.
    """

    name, unit, in_process = "tlg-large", "node", True
    SIZES = (128, 256, 384)
    STEPS = ((5**0.5 - 1) / 2, 2**0.5 - 1)  # irrational steps of the sequence

    def round(self, index: int) -> list[Op]:
        from newcomb import tlg

        ops = []
        for n in self.SIZES:
            start = random.Random(f"{self.name}/{self.seed}/{n}")
            u, v = ((start.random() + index * step) % 1.0 for step in self.STEPS)
            k = 1 + int(u * (n - 1))
            m = k + 1 + int(v * (n - k))
            rng = random.Random(f"{self.name}/{self.seed}/{index}/{n}")
            walk = checks.unfold_walk(n, k, m, rng.randrange(0, k))

            def call(n=n, k=k, m=m, walk=walk):
                graph = tlg.unfold(tlg.base_chain(n), tlg.UnfoldSpec(n, k, m))
                return (graph, tlg.detect_twist(walk, graph),
                        tlg.validate_linearity(walk, graph), tlg.to_dot(graph))

            def check(result, n=n, k=k, m=m):
                return checks.check_unfolded(n, k, m, *result)

            ops.append(Op(f"n{n}", 2 * n + 1 - k, _exit_ok(check), call=call))
        return ops


WORKLOADS = {cls.name: cls for cls in (CliSmall, SimLarge, RegionLarge, TlgLarge)}


def make(name: str, seed: int, work_dir: str, nproc: int) -> Workload:
    return WORKLOADS[name](seed, work_dir, nproc)
