"""Command-line front end: expected, region, graph, simulate.

Reads a JSON game configuration, dispatches to the library, and emits
JSON reports on stdout, CSV decision grids, and DOT graph files. All
output is deterministic for a fixed configuration except the wall
clock field in simulation reports.

Exit codes: 0 success, 2 validation/usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .decision import (
    PredictorProfile,
    UtilityMatrix,
    choose,
    decision_boundary,
    expected_utilities,
    region_grid,
)
from .errors import ConfigError, NewcombError
from .sim import RngSpec, compare
from .tlg import base_chain, game_graph, to_dot

__all__ = [
    "GameConfig",
    "parse_config",
    "cmd_expected",
    "cmd_region",
    "cmd_graph",
    "cmd_simulate",
    "main",
]

DEFAULT_TRIALS = 50_000
DEFAULT_RESOLUTION = 101

_CONFIG_KEYS = ("utilities", "predictor", "trials", "seed", "resolution", "parallelism")


@dataclass(frozen=True)
class GameConfig:
    """A fully validated run configuration with defaults applied."""

    utilities: UtilityMatrix
    predictor: PredictorProfile
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    resolution: int = DEFAULT_RESOLUTION
    parallelism: int = 0  # 0 means "use the machine's logical cores"

    def __post_init__(self) -> None:
        if self.parallelism == 0:
            object.__setattr__(self, "parallelism", os.cpu_count() or 1)

    def to_dict(self) -> dict:
        return {
            "utilities": self.utilities.as_rows(),
            "predictor": [self.predictor.p1, self.predictor.p2],
            "trials": self.trials,
            "seed": self.seed,
            "resolution": self.resolution,
            "parallelism": self.parallelism,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _require_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _require_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return value


def parse_config(text: str) -> GameConfig:
    """Parse and validate a JSON configuration document.

    Unknown keys are rejected; utilities and predictor are mandatory;
    the remaining fields default per GameConfig.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise ConfigError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    if "utilities" not in raw:
        raise ConfigError("utilities required")
    if "predictor" not in raw:
        raise ConfigError("predictor required")

    utilities = raw["utilities"]
    if (
        not isinstance(utilities, list)
        or len(utilities) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in utilities)
    ):
        raise ConfigError("utilities must be a 2x2 array [[v11, v12], [v21, v22]]")
    for i, row in enumerate(utilities):
        for j, entry in enumerate(row):
            value = _require_number(entry, f"utilities[{i}][{j}]")
            if value < 0.0:
                raise ConfigError(f"utilities[{i}][{j}] must be >= 0, got {entry!r}")

    predictor = raw["predictor"]
    if not isinstance(predictor, list) or len(predictor) != 2:
        raise ConfigError("predictor must be an array [p1, p2]")
    for idx, entry in enumerate(predictor):
        value = _require_number(entry, f"predictor[{idx}]")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"predictor[{idx}] must be in [0, 1], got {entry!r}")

    return GameConfig(
        utilities=UtilityMatrix.from_rows(utilities),
        predictor=PredictorProfile(predictor[0], predictor[1]),
        trials=_require_int(raw.get("trials", DEFAULT_TRIALS), "trials", 1),
        seed=_require_int(raw.get("seed", 0), "seed", 0, (1 << 64) - 1),
        resolution=_require_int(raw.get("resolution", DEFAULT_RESOLUTION), "resolution", 2),
        parallelism=_require_int(raw.get("parallelism", os.cpu_count() or 1), "parallelism", 1),
    )


def _format_probability(x: float) -> str:
    # up to 6 significant digits, trailing zeros trimmed
    return format(x, ".6g")


def cmd_expected(config: GameConfig) -> dict:
    """Expected utilities, the chosen action, and boundary coefficients."""
    u1, u2 = expected_utilities(config.utilities, config.predictor)
    boundary = decision_boundary(config.utilities)
    return {
        "config": config.to_dict(),
        "u1": u1,
        "u2": u2,
        "choice": choose(config.utilities, config.predictor).value,
        "boundary": {"a1": boundary.a1, "a2": boundary.a2, "b": boundary.b},
        "version": __version__,
    }


def render_region_csv(config: GameConfig) -> str:
    """CSV text of the decision region grid, p1 outer and ascending."""
    grid = region_grid(config.utilities, config.resolution)
    labels = [_format_probability(grid.axis_value(i)) for i in range(grid.resolution)]
    lines = ["p1,p2,choice"]
    for p1, row in zip(labels, grid.cells):
        lines.extend(f"{p1},{p2},{cell.value}" for p2, cell in zip(labels, row))
    return "\n".join(lines) + "\n"


def cmd_region(config: GameConfig, out_path: str) -> None:
    """Write the decision-region CSV to a file."""
    _write_text(out_path, render_region_csv(config))


def cmd_graph(out_path: str, base_chain_only: bool = False) -> None:
    """Write the game graph (or the bare 4-event chain) as DOT."""
    graph = base_chain(4) if base_chain_only else game_graph()
    _write_text(out_path, to_dot(graph))


def cmd_simulate(config: GameConfig) -> dict:
    """Run both-choice Monte Carlo and report theoretical vs numerical."""
    table = compare(
        config.utilities,
        config.predictor,
        config.trials,
        RngSpec(config.seed),
        parallelism=config.parallelism,
    )
    return {
        "config": config.to_dict(),
        "theoretical": {"C1": table.c1.theoretical, "C2": table.c2.theoretical},
        "numerical": {"C1": table.c1.empirical_mean, "C2": table.c2.empirical_mean},
        "standard_error": {"C1": table.c1.standard_error, "C2": table.c2.standard_error},
        "seed": config.seed,
        "trials": config.trials,
        "elapsed_seconds": table.c1.elapsed_seconds + table.c2.elapsed_seconds,
        "version": __version__,
    }


def _write_text(path: str, text: str) -> None:
    # The document is fully rendered before the file is opened, so a
    # failed open never leaves a partial file behind.
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _load_config(args: argparse.Namespace) -> GameConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {args.config} is not UTF-8: {exc}") from None
    config = parse_config(text)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = _require_int(args.seed, "seed", 0, (1 << 64) - 1)
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = _require_int(args.trials, "trials", 1)
    if getattr(args, "resolution", None) is not None:
        overrides["resolution"] = _require_int(args.resolution, "resolution", 2)
    if getattr(args, "parallelism", None) is not None:
        overrides["parallelism"] = _require_int(args.parallelism, "parallelism", 1)
    if overrides:
        merged = config.to_dict()
        merged.update(overrides)
        config = parse_config(json.dumps(merged))
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newcomb",
        description="Decision analysis and oracle-frame simulation of Newcomb's game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="path to a JSON game configuration")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--trials", type=int, default=None, help="override the configured trial count")
        p.add_argument("--resolution", type=int, default=None, help="override the grid resolution")
        p.add_argument("--parallelism", type=int, default=None, help="override the worker count")

    p_expected = sub.add_parser("expected", help="closed-form expected utilities and choice")
    add_common(p_expected)

    p_region = sub.add_parser("region", help="decision-region grid as CSV")
    add_common(p_region)
    p_region.add_argument("--out", required=True, help="output CSV path")

    p_graph = sub.add_parser("graph", help="time-lines graph as DOT")
    add_common(p_graph, config_required=False)
    p_graph.add_argument("--out", required=True, help="output DOT path")
    p_graph.add_argument(
        "--base-chain-only",
        action="store_true",
        help="emit the 4-event causal chain without the oracle branch",
    )

    p_simulate = sub.add_parser("simulate", help="Monte Carlo comparison report")
    add_common(p_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "expected":
            document = cmd_expected(_load_config(args))
            print(json.dumps(document, indent=2, allow_nan=False))
        elif args.command == "region":
            cmd_region(_load_config(args), args.out)
        elif args.command == "graph":
            if args.config is not None:
                _load_config(args)  # validate when given; content is not used
            cmd_graph(args.out, base_chain_only=args.base_chain_only)
        elif args.command == "simulate":
            document = cmd_simulate(_load_config(args))
            print(json.dumps(document, indent=2, allow_nan=False))
    except NewcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
