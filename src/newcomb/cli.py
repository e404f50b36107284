"""Command-line front end: expected, region, graph, simulate.

Reads a JSON game configuration, dispatches to the library, and emits
JSON reports on stdout, CSV decision grids, and DOT graph files. Every
output byte is a pure function of the configuration and the flags.

Exit codes: 0 success, 2 validation/usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

from . import __version__
from ._record import Record, set_field
from ._validate import MAX_TRIALS, UINT64_MAX, check_int, check_number, check_type, show
from .decision import (
    DEFAULT_RESOLUTION,
    MAX_RESOLUTION,
    PredictorProfile,
    UtilityMatrix,
    choose,
    decision_boundary,
    expected_utilities,
    region_grid,
)
from .errors import ConfigError, NewcombError, ValidationError

# tlg and sim are imported inside cmd_graph and cmd_simulate, so that
# expected and region start without loading either of them.

__all__ = [
    "GameConfig",
    "parse_config",
    "cmd_expected",
    "render_region_csv",
    "cmd_region",
    "cmd_graph",
    "cmd_simulate",
    "main",
]

DEFAULT_TRIALS = 50_000
# The largest grid render_region_csv builds in memory, about 335 MB of text;
# cmd_region streams any resolution up to MAX_RESOLUTION.
_MAX_RENDER_RESOLUTION = 1 << 12


class GameConfig(Record):
    """A run configuration; every instance, replaced ones included, is valid."""

    __slots__ = ("utilities", "predictor", "trials", "seed", "resolution", "parallelism")

    def __init__(
        self,
        utilities: UtilityMatrix,
        predictor: PredictorProfile,
        trials: int = DEFAULT_TRIALS,
        seed: int = 0,
        resolution: int = DEFAULT_RESOLUTION,
        parallelism: int = 1,
    ):
        set_field(self, "utilities", check_type(utilities, "utilities", UtilityMatrix))
        set_field(self, "predictor", check_type(predictor, "predictor", PredictorProfile))
        set_field(self, "trials", check_int(trials, "trials", 1, MAX_TRIALS))
        set_field(self, "seed", check_int(seed, "seed", 0, UINT64_MAX))
        set_field(self, "resolution", check_int(resolution, "resolution", 2, MAX_RESOLUTION))
        set_field(self, "parallelism", check_int(parallelism, "parallelism", 1))

    def to_dict(self) -> dict:
        # the fields in order, the two records as the arrays parse_config reads
        fields = dict(zip(self._fields, self._values()))
        return {**fields, "utilities": self.utilities.as_rows(), "predictor": list(self.predictor._values())}


def parse_config(text: str) -> GameConfig:
    """Parse and validate a JSON configuration document.

    Unknown keys are rejected; utilities and predictor are mandatory;
    the remaining fields default per GameConfig.
    """
    check_type(text, "text", str)
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
    unknown = sorted(set(raw) - set(GameConfig._fields))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    if "utilities" not in raw:
        raise ConfigError("utilities required")
    if "predictor" not in raw:
        raise ConfigError("predictor required")

    utilities = raw.pop("utilities")
    if (
        not isinstance(utilities, list)
        or len(utilities) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in utilities)
    ):
        raise ConfigError("utilities must be a 2x2 array [[v11, v12], [v21, v22]]")
    predictor = raw.pop("predictor")
    if not isinstance(predictor, list) or len(predictor) != 2:
        raise ConfigError("predictor must be an array [p1, p2]")

    try:
        rows = [
            [check_number(x, f"utilities[{i}][{j}]", minimum=0) for j, x in enumerate(row)]
            for i, row in enumerate(utilities)
        ]
        accuracies = [check_number(x, f"predictor[{i}]", 0, 1) for i, x in enumerate(predictor)]
        return GameConfig(UtilityMatrix(*rows[0], *rows[1]), PredictorProfile(*accuracies), **raw)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _format_probability(x: float) -> str:
    # up to 6 significant digits, trailing zeros trimmed
    return format(x, ".6g")


def cmd_expected(config: GameConfig) -> dict:
    """Expected utilities, the chosen action, and boundary coefficients."""
    check_type(config, "config", GameConfig)
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


def _region_lines(config: GameConfig) -> Iterator[str]:
    # The grid and the axis suffixes are built here, before the first
    # line is asked for, so every check runs before a caller opens a file.
    # Each row is then one join of preformatted ",p2,C1\n" / ",p2,C2\n"
    # suffixes separated by the row's p1 label, made only when iterated.
    grid = region_grid(config.utilities, config.resolution)
    labels = [_format_probability(grid.axis_value(i)) for i in range(grid.resolution)]
    c1 = [f",{p2},C1\n" for p2 in labels]
    c2 = [f",{p2},C2\n" for p2 in labels]
    rows = (
        p1 + p1.join(c2[:lo] + c1[lo:hi] + c2[hi:])
        for p1, (lo, hi) in zip(labels, grid.c1_spans)
    )
    return chain(("p1,p2,choice\n",), rows)


def render_region_csv(config: GameConfig) -> str:
    """CSV text of the decision region grid, p1 outer and ascending.

    The text is built in memory, so the resolution is at most 4096.
    """
    check_type(config, "config", GameConfig)
    check_int(config.resolution, "resolution", 2, _MAX_RENDER_RESOLUTION)
    return "".join(_region_lines(config))


def cmd_region(config: GameConfig, out_path: str) -> None:
    """Write the decision-region CSV to a file, one grid row at a time."""
    check_type(config, "config", GameConfig)
    _write_text(out_path, _region_lines(config))


def cmd_graph(out_path: str, base_chain_only: bool = False) -> None:
    """Write the game graph (or the bare 4-event chain) as DOT."""
    from .tlg import base_chain, game_graph, to_dot

    check_type(base_chain_only, "base_chain_only", bool)
    graph = base_chain(4) if base_chain_only else game_graph()
    _write_text(out_path, [to_dot(graph)])


def cmd_simulate(config: GameConfig) -> dict:
    """Run both-choice Monte Carlo and report theoretical vs numerical."""
    from .sim import RngSpec, compare

    check_type(config, "config", GameConfig)
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
        "version": __version__,
    }


def _write_text(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    # Callers build and check everything the chunks depend on before this
    # call, so a failed open never leaves a partial file behind. The
    # chunks may be produced lazily while they are written, which keeps
    # only one of them in memory at a time. open() would take an int as a
    # file descriptor and close it, so only a path is accepted.
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"out_path must be a str or os.PathLike path, got {show(path)}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(chunks)


def _load_config(args: argparse.Namespace) -> GameConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {args.config} is not UTF-8: {exc}") from None
    # Each subcommand defines an override flag only for the fields it reads.
    overrides = {k: v for k, v in vars(args).items() if k in GameConfig._fields and v is not None}
    return parse_config(text).replace(**overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newcomb",
        description="Decision analysis and oracle-frame simulation of Newcomb's game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "path to a JSON game configuration"

    p_expected = sub.add_parser("expected", help="closed-form expected utilities and choice")
    p_expected.add_argument("--config", required=True, help=config_help)

    p_region = sub.add_parser("region", help="decision-region grid as CSV")
    p_region.add_argument("--config", required=True, help=config_help)
    p_region.add_argument("--out", required=True, help="output CSV path")
    p_region.add_argument("--resolution", type=int, help="override the grid resolution")

    p_graph = sub.add_parser("graph", help="time-lines graph as DOT")
    p_graph.add_argument("--config", help=config_help + ", validated but not used")
    p_graph.add_argument("--out", required=True, help="output DOT path")
    p_graph.add_argument(
        "--base-chain-only",
        action="store_true",
        help="emit the 4-event causal chain without the oracle branch",
    )

    p_simulate = sub.add_parser("simulate", help="Monte Carlo comparison report")
    p_simulate.add_argument("--config", required=True, help=config_help)
    p_simulate.add_argument("--seed", type=int, help="override the configured seed")
    p_simulate.add_argument("--trials", type=int, help="override the configured trial count")
    p_simulate.add_argument("--parallelism", type=int, help="override the worker count")
    for command in sub.choices.values():
        # A flag the given command does not take is reported with its own usage.
        command.set_defaults(usage=command)
    return parser


def _flush_stdout() -> None:
    # Here, where main reports an OSError: at interpreter exit a failed flush
    # prints "Exception ignored" and exits 120. After a failure the process's
    # own stdout goes to /dev/null, so that the exit flush cannot fail again.
    try:
        sys.stdout.flush()
    except OSError:
        if sys.stdout is sys.__stdout__:  # not a stream a caller put in its place
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


_STDOUT_CLOSED = "cannot write the report: stdout is closed"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    closed = sys.stdout is None  # fd 1 was closed at start-up
    try:
        try:
            if closed:  # else argparse prints --version and --help on stderr
                sys.stdout = io.StringIO()
            args, unknown = parser.parse_known_args(argv)
        finally:  # --version and --help print and exit in there
            if closed:
                printed, sys.stdout = sys.stdout.getvalue(), None
                if printed:
                    raise OSError(_STDOUT_CLOSED)
            else:
                _flush_stdout()
        if unknown:
            args.usage.error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command in ("expected", "simulate"):
            report = cmd_expected if args.command == "expected" else cmd_simulate
            config = _load_config(args)
            # With fd 1 closed at start-up, sys.stdout is None and print writes
            # nothing, so the report is refused before any trial is drawn.
            if closed:
                raise OSError(_STDOUT_CLOSED)
            # One write, so that an unbuffered stdout never sends the newline
            # after a reader such as `grep -q` has already gone.
            sys.stdout.write(json.dumps(report(config), indent=2, allow_nan=False) + "\n")
            _flush_stdout()
        elif args.command == "region":
            cmd_region(_load_config(args), args.out)
        elif args.command == "graph":
            if args.config is not None:
                _load_config(args)  # validate when given; content is not used
            cmd_graph(args.out, base_chain_only=args.base_chain_only)
    except (NewcombError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NewcombError) else 3
    return 0
