"""Tests for the command-line front end and its file formats."""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import newcomb
from newcomb import ConfigError, PredictorProfile, UtilityMatrix, ValidationError, choose
from newcomb.cli import (
    GameConfig,
    _build_parser,
    _format_probability,
    cmd_expected,
    cmd_graph,
    cmd_region,
    cmd_simulate,
    main,
    parse_config,
    render_region_csv,
)
from newcomb._validate import MAX_TRIALS
from newcomb.decision import MAX_RESOLUTION

CHECKOUT = Path(__file__).resolve().parents[1]
README = CHECKOUT / "README.md"
CLASSIC_JSON = '{"utilities": [[10000, 0], [1010000, 1000000]], "predictor": [0.5, 0.5]}'
RANDOM_P = PredictorProfile(0.5, 0.5)

# ── child processes ────────────────────────────────────────────────
# Every child runs the package this process imported, from a working
# directory outside the checkout. If that is the checkout's source tree,
# the CLI is `python -m newcomb` with src on PYTHONPATH; if it is an
# installed copy, the CLI is the console script installed next to this
# interpreter, and PYTHONPATH is unset (README, "Tests and acceptance suite").
# PYTHONUNBUFFERED is dropped too, so a child's stdout is buffered as users
# get it, and the write that fails on a full disk is the flush.
CHILD_ENV = {name: value for name, value in os.environ.items() if name not in ("PYTHONPATH", "PYTHONUNBUFFERED")}
# pytest's filterwarnings does not reach child interpreters
CHILD_ENV["PYTHONWARNINGS"] = "error"
if Path(newcomb.__file__).resolve().is_relative_to(CHECKOUT / "src"):
    CLI = [sys.executable, "-m", "newcomb"]
    CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (str(CHECKOUT / "src"), os.environ.get("PYTHONPATH"))))
else:
    CLI = [os.path.join(os.path.dirname(sys.executable), "newcomb")]


def run_child(command, stdout=subprocess.PIPE):
    return subprocess.run(
        command, stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=tempfile.gettempdir(), env=CHILD_ENV
    )


def run_cli(*args):
    return run_child([*CLI, *args])


def run_python(script):
    return run_child([sys.executable, "-c", script])


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# ── parse_config ───────────────────────────────────────────────────


def test_parse_config_classic_defaults():
    config = parse_config(CLASSIC_JSON)
    assert config.utilities == UtilityMatrix.classic()
    assert config.predictor == PredictorProfile(0.5, 0.5)
    assert config.trials == 50_000
    assert config.seed == 0
    assert config.resolution == 101
    assert config.parallelism == 1


def test_parse_config_requires_utilities():
    with pytest.raises(ConfigError, match="utilities"):
        parse_config("{}")


def test_parse_config_names_the_offending_field():
    with pytest.raises(ConfigError, match=r"predictor\[0\]"):
        parse_config('{"utilities": [[1, 1], [1, 1]], "predictor": [1.5, 0]}')


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(
            '{"utilities": [[1, 1], [1, 1]], "predictor": [0, 0], "speed": 9}'
        )


def test_parse_config_reports_json_error_position():
    with pytest.raises(ConfigError, match=r"line 1, column"):
        parse_config('{"utilities": ')


@pytest.mark.parametrize(
    "fragment",
    [
        '"trials": 0',
        '"trials": 1.5',
        '"seed": -1',
        '"resolution": 1',
        '"parallelism": 0',
        '"utilities": [[1, 1], [1, -2]]',
        '"utilities": [[1, 1, 1], [1, 1]]',
        '"predictor": [0.5]',
    ],
)
def test_parse_config_field_validation(fragment):
    base = json.loads(CLASSIC_JSON)
    override = json.loads("{" + fragment + "}")
    base.update(override)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(base))


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 0),
        ("seed", -1),
        ("seed", 1 << 64),
        ("resolution", 1),
        ("resolution", MAX_RESOLUTION + 1),
        ("parallelism", 0),
        ("parallelism", True),
    ],
)
def test_game_config_validates_itself(field, value):
    with pytest.raises(ValidationError, match=field):
        GameConfig(UtilityMatrix.classic(), PredictorProfile(0.5, 0.5), **{field: value})
    with pytest.raises(ValidationError, match=field):
        parse_config(CLASSIC_JSON).replace(**{field: value})


def test_config_round_trips_through_json():
    config = parse_config(
        '{"utilities": [[1, 2], [3, 4]], "predictor": [0.25, 0.75],'
        ' "trials": 10, "seed": 7, "resolution": 4, "parallelism": 2}'
    )
    assert parse_config(json.dumps(config.to_dict())) == config


# ── documents ──────────────────────────────────────────────────────


def test_expected_document_classic():
    doc = cmd_expected(parse_config(CLASSIC_JSON))
    assert doc["u1"] == 510_000.0
    assert doc["u2"] == 500_000.0
    assert doc["choice"] == "C1"
    assert doc["boundary"] == {"a1": -1_000_000.0, "a2": -1_000_000.0, "b": -1_010_000.0}
    assert json.loads(json.dumps(doc)) == doc


def test_expected_document_perfect_predictor():
    doc = cmd_expected(
        parse_config('{"utilities": [[10000, 0], [1010000, 1000000]], "predictor": [1, 1]}')
    )
    assert doc["choice"] == "C2"


def test_expected_document_flat_matrix_ties_to_c1():
    doc = cmd_expected(parse_config('{"utilities": [[5, 5], [5, 5]], "predictor": [0.2, 0.9]}'))
    assert doc["u1"] == doc["u2"] == 5.0
    assert doc["choice"] == "C1"


def test_simulate_document_shape_and_determinism():
    config = parse_config(CLASSIC_JSON)
    doc = cmd_simulate(config)
    assert set(doc) == {
        "config",
        "theoretical",
        "numerical",
        "standard_error",
        "seed",
        "trials",
        "version",
    }
    assert doc["theoretical"] == {"C1": 510_000.0, "C2": 500_000.0}
    assert doc["seed"] == 0 and doc["trials"] == 50_000
    assert cmd_simulate(config) == doc
    assert json.loads(json.dumps(doc)) == doc


def test_simulate_document_perfect_predictor_exact():
    doc = cmd_simulate(
        parse_config('{"utilities": [[10000, 0], [1010000, 1000000]], "predictor": [1, 1]}')
    )
    assert doc["numerical"] == {"C1": 10_000.0, "C2": 1_000_000.0}


# ── region CSV ─────────────────────────────────────────────────────


def test_region_csv_classic_landmarks():
    config = parse_config(CLASSIC_JSON)
    text = render_region_csv(config)
    lines = text.splitlines()
    assert lines[0] == "p1,p2,choice"
    assert len(lines) == 1 + 101 * 101
    assert "1,1,C2" in lines
    assert "0.5,0.5,C1" in lines
    assert text.endswith("\n") and "\r" not in text


def test_region_csv_resolution_two_corner_split():
    base = json.loads(CLASSIC_JSON)
    base["resolution"] = 2
    rows = render_region_csv(parse_config(json.dumps(base))).splitlines()[1:]
    assert len(rows) == 4
    assert sum(row.endswith("C1") for row in rows) == 3
    assert rows == ["0,0,C1", "0,1,C1", "1,0,C1", "1,1,C2"]


def test_region_csv_all_zero_matrix_is_all_c1():
    config = parse_config('{"utilities": [[0, 0], [0, 0]], "predictor": [0.5, 0.5], "resolution": 3}')
    rows = render_region_csv(config).splitlines()[1:]
    assert all(row.endswith("C1") for row in rows)


def test_region_csv_is_byte_stable():
    config = parse_config(CLASSIC_JSON)
    assert render_region_csv(config) == render_region_csv(config)


def test_region_csv_probability_formatting():
    config = parse_config('{"utilities": [[1, 0], [2, 1]], "predictor": [0, 0], "resolution": 7}')
    rows = render_region_csv(config).splitlines()[1:]
    first_column = {row.split(",")[0] for row in rows}
    assert "0.166667" in first_column  # six significant digits
    assert "0.5" in first_column  # trailing zeros trimmed


def _naive_region_csv(config):
    """One choose() call and one formatted line per cell."""
    step = config.resolution - 1
    lines = ["p1,p2,choice"]
    for i in range(config.resolution):
        for j in range(config.resolution):
            choice = choose(config.utilities, PredictorProfile(i / step, j / step))
            lines.append(f"{_format_probability(i / step)},{_format_probability(j / step)},{choice.value}")
    return "".join(line + "\n" for line in lines)


# Few distinct values, so that draws repeat entries: v22 == v12 gives a
# flat u2, v22 < v12 a decreasing one, and equal rows give U1 == U2 ties.
_UTILITY_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 1e308, 1.7e308, 1.7976931348623157e308]),
    st.floats(min_value=0, max_value=1.7976931348623157e308),
)


@settings(max_examples=150, deadline=None)
@given(utilities=st.lists(_UTILITY_VALUES, min_size=4, max_size=4), resolution=st.integers(2, 64))
def test_region_csv_matches_a_per_cell_reference(utilities, resolution):
    config = GameConfig(UtilityMatrix(*utilities), RANDOM_P, resolution=resolution)
    # Compared as lists of lines, which join back to the same text, so a
    # failure names the first differing line.
    got = render_region_csv(config).splitlines(keepends=True)
    assert got == _naive_region_csv(config).splitlines(keepends=True)


def test_cmd_region_streams_in_bounded_memory(tmp_path):
    # The CSV at r = 1201 is about 28 MB; writing it row by row holds
    # only O(r) strings at a time.
    config = GameConfig(UtilityMatrix.classic(), RANDOM_P, resolution=1201)
    out = tmp_path / "region.csv"
    tracemalloc.start()
    try:
        cmd_region(config, str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == 1 + 1201 * 1201


def test_render_region_csv_refuses_a_grid_past_its_in_memory_bound():
    # cmd_region streams this grid; the whole text would be over 335 MB
    config = GameConfig(UtilityMatrix.classic(), RANDOM_P, resolution=(1 << 12) + 1)
    with pytest.raises(ValidationError, match=f"resolution must be <= {1 << 12}, got {(1 << 12) + 1}"):
        render_region_csv(config)


# ── files and processes ────────────────────────────────────────────


def test_cmd_graph_writes_game_dot(tmp_path):
    out = tmp_path / "game.dot"
    cmd_graph(str(out))
    text = out.read_text()
    assert text.startswith("digraph tlg {")
    assert text.count("->") == 9  # 7 causal + 2 entanglement statements
    assert text.count("dir=none") == 2


def test_cmd_graph_base_chain_only(tmp_path):
    out = tmp_path / "chain.dot"
    cmd_graph(str(out), base_chain_only=True)
    text = out.read_text()
    assert text.count("->") == 3
    assert "dashed" not in text


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda out: render_region_csv("x"), id="render_region_csv-config"),
        pytest.param(lambda out: cmd_expected("x"), id="cmd_expected-config"),
        pytest.param(lambda out: cmd_simulate("x"), id="cmd_simulate-config"),
        pytest.param(lambda out: cmd_region("x", out), id="cmd_region-config"),
        pytest.param(lambda out: parse_config(5), id="parse_config-text"),
        pytest.param(lambda out: cmd_graph(out, base_chain_only="no"), id="cmd_graph-flag"),
        pytest.param(lambda out: cmd_graph(5), id="cmd_graph-int-path"),
        pytest.param(lambda out: cmd_region(GameConfig(UtilityMatrix.classic(), RANDOM_P), 5),
                     id="cmd_region-int-path"),
    ],
)
def test_cli_functions_check_their_arguments(tmp_path, call):
    out = tmp_path / "out"
    with pytest.raises(ValidationError):
        call(out)
    assert not out.exists()


def test_cmd_graph_leaves_a_file_descriptor_open(tmp_path):
    # open() would write into the descriptor and then close it
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(ValidationError, match="out_path must be a str or os.PathLike path"):
            cmd_graph(write_end)
        os.fstat(write_end)  # still open
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):
            os.read(read_end, 1)  # and nothing was written
    finally:
        os.close(read_end)
        os.close(write_end)


def test_cli_expected_runs(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    result = run_cli("expected", "--config", str(config))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["choice"] == "C1"
    assert doc["u1"] == 510_000.0
    assert doc["config"]["parallelism"] == 1  # on any host, however many cores


def test_cli_simulate_is_deterministic(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    two_floors = str(2 * newcomb.sim._WORKER_MIN_TRIALS)
    # the lane kernel, then numpy's kernel with the batch split over a thread
    # pool on a host with two or more cores
    for flags in (["--trials", "2000", "--seed", "42"], ["--trials", two_floors, "--parallelism", "2"]):
        first = run_cli("simulate", "--config", str(config), *flags)
        second = run_cli("simulate", "--config", str(config), *flags)
        assert first.returncode == 0 and second.returncode == 0, (flags, first.stderr, second.stderr)
        assert first.stdout == second.stdout, flags


def test_cli_simulate_prints_the_pinned_classic_means(tmp_path):
    # Pins the draw rule end to end: a change to the SplitMix64 constants,
    # the trial indexing or the S1 threshold moves these means.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["simulate", "--config", str(config), "--seed", "0", "--trials", "50000"]) == 0
    assert json.loads(stdout.getvalue())["numerical"] == {"C1": 509_220.0, "C2": 499_080.0}


def test_cli_simulate_prints_strict_json_near_the_float_limit(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(
        '{"utilities": [[1.7e308, 0], [1.7e308, 1.7e308]], "predictor": [0.5, 0.5], "trials": 1000}'
    )
    result = run_cli("simulate", "--config", str(config))
    assert result.returncode == 0, result.stderr
    doc = strict_json(result.stdout)
    assert doc["numerical"]["C1"] == 1.7e308  # both outcomes pay 1.7e308
    assert 0.0 < doc["numerical"]["C2"] < 1.7e308


@pytest.mark.parametrize("blocked", [False, True], ids=["with_numpy", "without_numpy"])
def test_each_command_loads_only_its_layers(tmp_path, blocked):
    # Each case runs in a fresh interpreter, which must not load the modules
    # listed first with it: the layers the command does not run, the thread
    # pool of a one-worker batch, and numpy unless a batch has 0 < q < 1 and
    # more than sim._LANE_MAX trials. It must load the modules listed second.
    # A batch runs on one worker at q = 0 or 1, below two floors of
    # sim._WORKER_MIN_TRIALS, and on the lanes, which take every batch when
    # numpy is blocked. No case loads dataclasses, and only numpy loads
    # inspect: the records are built without either.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    perfect = tmp_path / "perfect.json"
    perfect.write_text(CLASSIC_JSON.replace("[0.5, 0.5]", "[1, 1]"))
    no_numpy = ["numpy", "dataclasses", "inspect"]
    closed_form_only = ["newcomb.sim", "newcomb.tlg", "concurrent.futures", *no_numpy]
    simulate_only = ["newcomb.tlg", "concurrent.futures", *no_numpy]
    past_lanes = ["--trials", str(newcomb.sim._LANE_MAX + 1), "--parallelism", "2"]
    if blocked:
        cases = [
            (["simulate", "--config", str(config)], simulate_only, []),
            (["simulate", "--config", str(config), *past_lanes], simulate_only, []),
        ]
    else:
        cases = [
            (None, ["newcomb.decision", "newcomb.sim", "newcomb.tlg", "newcomb.cli", *no_numpy], []),
            (["expected", "--config", str(config)], closed_form_only, []),
            (["region", "--config", str(config), "--out", str(tmp_path / "region.csv")], closed_form_only, []),
            (["graph", "--out", str(tmp_path / "tlg.dot")], ["newcomb.sim", *no_numpy], []),
            (["simulate", "--config", str(config), "--parallelism", "1"], simulate_only, []),
            (["simulate", "--config", str(config), "--trials", "200000"], simulate_only, []),
            (
                ["simulate", "--config", str(config), *past_lanes],
                ["newcomb.tlg", "concurrent.futures", "dataclasses"],
                ["numpy"],
            ),
            (
                ["simulate", "--config", str(perfect), "--trials", "200000", "--parallelism", "2"],
                ["concurrent.futures", *no_numpy],
                [],
            ),
        ]
    for argv, unloaded, needed in cases:
        script = f"""
import sys
if {blocked!r}:
    sys.modules["numpy"] = None
import newcomb
if {argv!r} is not None:
    from newcomb import cli
    assert cli.main({argv!r}) == 0
loaded = sorted(name for name in {unloaded!r} if sys.modules.get(name) is not None)
assert not loaded, loaded
missing = sorted(set({needed!r}) - set(sys.modules))
assert not missing, missing
"""
        result = run_python(script)
        assert result.returncode == 0, (argv, result.stderr)


def test_compare_without_numpy_matches_the_numpy_kernel():
    # A child with numpy blocked counts every batch on Python ints, the last
    # one past sim._LANE_MAX included. The means are pinned from numpy's
    # kernel, so this test needs no numpy of its own.
    pinned = {
        50_000: (509_220.0, 499_080.0),
        1 << 20: (509963.76037597656, 500520.7061767578),
        (1 << 20) + 1: (509964.2372472408, 500519.27517006383),
    }
    assert max(pinned) == newcomb.sim._LANE_MAX + 1
    script = f"""
import sys
sys.modules["numpy"] = None
from newcomb import PredictorProfile, UtilityMatrix, compare
for n in {list(pinned)!r}:
    print(repr(compare(UtilityMatrix.classic(), PredictorProfile(0.5, 0.5), n).empirical))
"""
    result = run_python(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [repr(means) for means in pinned.values()]


def test_cli_simulate_prints_the_same_bytes_without_numpy(tmp_path):
    # The default batch counts on the lanes either way; the batch past
    # sim._LANE_MAX counts with numpy's kernel where numpy can be imported,
    # and on the lanes in the child that blocks it.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    pinned = [
        ([], {"C1": 509_220.0, "C2": 499_080.0}),
        (
            ["--trials", str(newcomb.sim._LANE_MAX + 1), "--parallelism", "2"],
            {"C1": 509964.2372472408, "C2": 500519.27517006383},
        ),
    ]
    for flags, means in pinned:
        argv = ["simulate", "--config", str(config), *flags]
        with_numpy = run_cli(*argv)
        without_numpy = run_python(
            f"import sys\nsys.modules['numpy'] = None\nfrom newcomb import cli\nsys.exit(cli.main({argv!r}))"
        )
        assert with_numpy.returncode == 0 and without_numpy.returncode == 0, (flags, without_numpy.stderr)
        assert without_numpy.stdout == with_numpy.stdout, flags
        assert json.loads(without_numpy.stdout)["numerical"] == means, flags


def test_submodules_and_omega_order_resolve_after_a_bare_import():
    # A fresh interpreter, so that each name below resolves on first access.
    script = """
import sys
import newcomb
from newcomb.tlg import OMEGA_ORDER
assert newcomb.sim is sys.modules["newcomb.sim"]
assert newcomb.tlg is sys.modules["newcomb.tlg"]
assert newcomb.OMEGA_ORDER is OMEGA_ORDER
timeline = newcomb.tlg.player_timeline(newcomb.tlg.game_graph(), newcomb.tlg.Player.OMEGA)
assert OMEGA_ORDER == timeline == (1, 3, 5, 2, 6, 7), OMEGA_ORDER
for name in ("cli", "decision", "errors"):
    assert getattr(newcomb, name) is sys.modules["newcomb." + name], name
"""
    result = run_python(script)
    assert result.returncode == 0, result.stderr


def test_cli_region_bytes_are_reproducible(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("region", "--config", str(config), "--out", str(out1), "--resolution", "21").returncode == 0
    assert run_cli("region", "--config", str(config), "--out", str(out2), "--resolution", "21").returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 1 + 21 * 21


def test_cli_graph_subcommand_needs_no_config(tmp_path):
    out = tmp_path / "tlg.dot"
    result = run_cli("graph", "--out", str(out))
    assert result.returncode == 0
    assert out.read_text().startswith("digraph tlg {")


def test_cli_validation_error_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"utilities": [[1, 1], [1, 1]], "predictor": [1.5, 0]}')
    result = run_cli("expected", "--config", str(config))
    assert result.returncode == 2
    assert "predictor[0]" in result.stderr


@pytest.mark.parametrize(
    "config_bytes",
    [
        pytest.param(
            b'{"utilities": [[1' + b"0" * 400 + b', 0], [1, 1]], "predictor": [0.5, 0.5]}',
            id="utility-too-large-for-a-float",
        ),
        pytest.param(
            b'{"utilities": [[1, 0], [1, 1]], "predictor": [1' + b"0" * 400 + b', 0.5]}',
            id="probability-too-large-for-a-float",
        ),
        pytest.param(
            b'{"utilities": [[1' + b"0" * 5000 + b', 0], [1, 1]], "predictor": [0.5, 0.5]}',
            id="integer-past-the-digit-limit",
        ),
        pytest.param(b'\xff\xfe{"utilities": []}', id="not-utf-8"),
        pytest.param(b"[" * 100_000, id="nested-100000-deep"),
    ],
)
def test_cli_malformed_config_exits_2_without_traceback(tmp_path, config_bytes):
    config = tmp_path / "bad.json"
    config.write_bytes(config_bytes)
    result = run_cli("expected", "--config", str(config))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_cli_missing_config_file_exits_2(tmp_path):
    result = run_cli("expected", "--config", str(tmp_path / "nope.json"))
    assert result.returncode == 2


def test_cli_io_error_exits_3(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    result = run_cli("region", "--config", str(config), "--out", str(tmp_path))
    assert result.returncode == 3


def test_cli_io_error_leaves_no_partial_file(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    missing_dir = tmp_path / "not" / "here" / "grid.csv"
    result = run_cli("region", "--config", str(config), "--out", str(missing_dir))
    assert result.returncode == 3
    assert not missing_dir.exists()


def test_cli_report_to_a_closed_stdout_exits_3(tmp_path):
    # sh closes fd 1 before the interpreter starts, so sys.stdout is None.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    commands = [
        (["expected", "--config", str(config)], 3),
        (["simulate", "--config", str(config), "--trials", "100"], 3),
        (["region", "--config", str(config), "--out", str(tmp_path / "region.csv")], 0),
        (["graph", "--out", str(tmp_path / "tlg.dot")], 0),
        # argparse would print these two on stderr and exit 0
        (["--version"], 3),
        (["--help"], 3),
    ]
    for argv, code in commands:
        result = run_child(["sh", "-c", '"$0" "$@" >&-', *CLI, *argv])
        assert result.returncode == code, (argv, result.stderr)
        if code == 3:
            assert result.stderr == "error: cannot write the report: stdout is closed\n"


def test_cli_report_that_cannot_be_written_exits_3(tmp_path):
    # A pipe whose reader has gone and, where it exists, /dev/full. The
    # buffered write succeeds and the flush fails; left to interpreter exit,
    # that flush printed "Exception ignored" and exited 120.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    read_end, write_end = os.pipe()
    os.close(read_end)
    sinks = {"closed pipe": write_end}
    if os.path.exists("/dev/full"):
        sinks["/dev/full"] = os.open("/dev/full", os.O_WRONLY)
    commands = (
        ["expected", "--config", str(config)],
        ["simulate", "--config", str(config), "--trials", "100"],
        ["--version"],
    )
    try:
        for sink, fd in sinks.items():
            for argv in commands:
                result = run_child([*CLI, *argv], stdout=fd)
                # one error line, and no "Exception ignored" report after it
                outcome = (result.returncode, result.stderr[:7], result.stderr.count("\n"))
                assert outcome == (3, "error: ", 1), (sink, argv, result.stderr)
    finally:
        for fd in sinks.values():
            os.close(fd)


def test_cli_report_is_written_in_one_call(tmp_path):
    # On an unbuffered stdout each write is a system call, and a reader such
    # as `grep -q` may leave after the first one, so the newline goes with it.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    for argv in (["expected"], ["simulate", "--trials", "100"]):
        writes = []
        stdout = io.StringIO()
        stdout.write = writes.append
        with redirect_stdout(stdout):
            assert main([*argv, "--config", str(config)]) == 0
        assert len(writes) == 1 and writes[0].endswith("}\n"), writes
        strict_json(writes[0])


def test_cli_usage_error_exits_2():
    assert run_cli("region").returncode == 2  # --config and --out both missing
    assert run_cli("frobnicate").returncode == 2


def test_cli_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout == f"newcomb {newcomb.__version__}\n"


def test_child_interpreters_import_the_package_this_process_imported():
    # In either mode, so a child never tests another copy of the package.
    result = run_python("import newcomb; print(newcomb.__file__)")
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.rstrip("\n")).resolve() == Path(newcomb.__file__).resolve()


# ── per-command flags ──────────────────────────────────────────────

# Every flag each command accepts besides -h: 11 settable values in all.
COMMAND_FLAGS = {
    "expected": {"--config"},
    "region": {"--config", "--out", "--resolution"},
    "graph": {"--config", "--out", "--base-chain-only"},
    "simulate": {"--config", "--seed", "--trials", "--parallelism"},
}


def _parser_flags():
    parser = _build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for action in command._actions for s in action.option_strings} - {"-h", "--help"}
        for name, command in commands.items()
    }


def test_each_command_defines_only_the_flags_it_reads():
    flags = _parser_flags()
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 11


def test_readme_cli_lines_match_the_parser():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    readme = {}
    for line in block.splitlines():
        if line.startswith("newcomb "):
            words = [w.strip("[]") for w in line.split()]
            readme[words[1]] = {w for w in words if w.startswith("--")}
    assert readme == _parser_flags()


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--out", "{out}", "--seed", "-5"],
        ["graph", "--out", "{out}", "--seed", "-5", "--parallelism", "0", "--trials", "-1"],
        ["graph", "--config", "{config}", "--out", "{out}", "--resolution", "3"],
        ["region", "--config", "{config}", "--out", "{out}", "--trials", "5"],
        ["expected", "--config", "{config}", "--seed", "1"],
        ["simulate", "--config", "{config}", "--resolution", "3"],
    ],
)
def test_cli_flag_of_another_command_is_a_usage_error(tmp_path, argv):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    out = tmp_path / "out.txt"
    result = run_cli(*(arg.format(config=config, out=out) for arg in argv))
    assert result.returncode == 2
    assert f"usage: newcomb {argv[0]} " in result.stderr
    assert "unrecognized arguments" in result.stderr
    assert result.stdout == "" and not out.exists()


def test_every_override_flag_replaces_the_configured_value(tmp_path):
    config = tmp_path / "game.json"
    document = {**json.loads(CLASSIC_JSON), "trials": 7, "seed": 1, "resolution": 5, "parallelism": 1}
    config.write_text(json.dumps(document))
    for resolution in (None, 3):
        out = tmp_path / f"region-{resolution}.csv"
        override = [] if resolution is None else ["--resolution", str(resolution)]
        assert main(["region", "--config", str(config), "--out", str(out), *override]) == 0
        assert len(out.read_text().splitlines()) == 1 + (resolution or 5) ** 2

    stdout = io.StringIO()
    with redirect_stdout(stdout):
        argv = ["simulate", "--config", str(config), "--seed", "42", "--trials", "20", "--parallelism", "2"]
        assert main(argv) == 0
    doc = json.loads(stdout.getvalue())
    replaced = parse_config(json.dumps(document)).replace(seed=42, trials=20, parallelism=2)
    want = cmd_simulate(replaced)
    assert doc["config"] == {**document, "seed": 42, "trials": 20, "parallelism": 2}
    assert doc == want


def test_cli_graph_validates_an_optional_config_it_does_not_use(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    bad = tmp_path / "bad.json"
    bad.write_text('{"utilities": [[1, 1], [1, 1]], "predictor": [1.5, 0]}')
    plain, configured, rejected = (tmp_path / name for name in ("plain.dot", "configured.dot", "rejected.dot"))
    assert main(["graph", "--out", str(plain)]) == 0
    assert main(["graph", "--config", str(config), "--out", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()
    with redirect_stderr(io.StringIO()) as stderr:
        assert main(["graph", "--config", str(bad), "--out", str(rejected)]) == 2
    assert stderr.getvalue().startswith("error: predictor[0]")
    assert not rejected.exists()


def test_cli_region_past_the_resolution_bound_exits_2(tmp_path):
    # 10**10 used to end in a MemoryError traceback, or exhaust the host's memory.
    config = tmp_path / "game.json"
    config.write_text(json.dumps({**json.loads(CLASSIC_JSON), "resolution": 10**10}))
    out = tmp_path / "region.csv"
    result = run_cli("region", "--config", str(config), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr == f"error: resolution must be <= {MAX_RESOLUTION}, got {10**10}\n"
    assert not out.exists()
    config.write_text(CLASSIC_JSON)
    result = run_cli("region", "--config", str(config), "--out", str(out), "--resolution", str(MAX_RESOLUTION + 1))
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert not out.exists()


def test_cli_simulate_past_the_trials_bound_names_trials(tmp_path):
    # The two batches use trial indices [0, 2 * trials); compare's own
    # check used to report the value as n.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    result = run_cli("simulate", "--config", str(config), "--trials", str(MAX_TRIALS + 1))
    assert result.returncode == 2
    assert result.stderr == f"error: trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}\n"
    assert result.stdout == ""


# ── fuzz property ──────────────────────────────────────────────────

_PAST_64_BITS = st.integers(min_value=(1 << 64) + 1, max_value=1 << 80)
_WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_BAD_INTS = st.one_of(st.integers(max_value=-1), st.just(0), _PAST_64_BITS, _WRONG_TYPES)
_BAD_NUMBERS = st.one_of(_BAD_INTS, st.floats(max_value=-1e-300), st.just(10**400))


def _mostly(valid, invalid, one_in):
    """Draws from invalid about once in one_in draws, otherwise from valid."""
    return st.sampled_from(range(one_in)).flatmap(lambda i: invalid if i == one_in - 1 else valid)


def _array(leaf, shape):
    """An array of leaves of the given shape, now and then of another shape."""
    exact = st.lists(leaf, min_size=shape[-1], max_size=shape[-1])
    if len(shape) == 2:
        exact = st.lists(exact, min_size=shape[0], max_size=shape[0])
    return _mostly(exact, st.one_of(st.lists(leaf, max_size=3), leaf), 8)


# Valid trials stay <= 10**4 and valid resolutions <= 64 so every run is
# quick; a trial count past 2**64 is rejected before any trial runs.
_CONFIG_VALUES = {
    "utilities": _array(
        _mostly(st.one_of(st.floats(0, sys.float_info.max), st.integers(0, 10**7)), _BAD_NUMBERS, 16),
        (2, 2),
    ),
    "predictor": _array(_mostly(st.one_of(st.floats(0, 1), st.integers(0, 1)), _BAD_NUMBERS, 16), (2,)),
    "trials": _mostly(st.integers(1, 10**4), _BAD_INTS, 8),
    "seed": _mostly(st.integers(0, (1 << 64) - 1), _BAD_INTS, 8),
    "resolution": _mostly(st.integers(2, 64), _BAD_INTS, 8),
    "parallelism": _mostly(st.integers(1, 8), _BAD_INTS, 8),
}
_OVERRIDE_VALUES = {
    "trials": st.integers(-3, 10**4),
    "seed": st.one_of(st.integers(-3, (1 << 64) - 1), _PAST_64_BITS),
    "resolution": _mostly(st.integers(-3, 64), st.just(MAX_RESOLUTION + 1), 8),
    "parallelism": st.one_of(st.integers(-3, 8), _PAST_64_BITS),
}


@st.composite
def _config_documents(draw):
    required = ("utilities", "predictor")
    document = {
        key: draw(values)
        for key, values in _CONFIG_VALUES.items()
        if draw(_mostly(st.just(key in required), st.just(key not in required), 8))
    }
    document.update(draw(_mostly(st.just({}), st.dictionaries(st.text(max_size=4), st.integers()), 8)))
    return draw(_mostly(st.just(document), _WRONG_TYPES, 16))


@st.composite
def _argvs(draw, config_path, out_dir):
    command = draw(st.sampled_from(["expected", "region", "graph", "simulate"]))
    argv = [command]
    if draw(_mostly(st.just(command != "graph"), st.just(command == "graph"), 8)):
        config = _mostly(st.just(config_path), st.just(config_path + ".missing"), 8)
        argv += ["--config", draw(config)]
    if command in ("region", "graph"):
        # None leaves --out out; the directory itself cannot be opened for writing
        out = draw(_mostly(st.just(os.path.join(out_dir, "out.txt")), st.sampled_from([out_dir, None]), 8))
        argv += ["--out", out] if out is not None else []
    if command == "graph" and draw(st.booleans()):
        argv.append("--base-chain-only")
    for flag, values in _OVERRIDE_VALUES.items():
        # mostly the command's own override flags, another command's now and then
        one_in = 4 if f"--{flag}" in COMMAND_FLAGS[command] else 32
        if draw(_mostly(st.just(False), st.just(True), one_in)):
            value = _mostly(values.map(str), st.sampled_from(["", "x", "1.5"]), 8)
            argv += [f"--{flag}", draw(value)]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_main_on_arbitrary_configs_and_argv(fuzz_dir, data):
    config_path = os.path.join(fuzz_dir, "game.json")
    document = data.draw(_config_documents(), label="config")
    argv = data.draw(_argvs(config_path, fuzz_dir), label="argv")
    foreign = {arg for arg in argv[1:] if arg.startswith("--")} - COMMAND_FLAGS[argv[0]]
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document))

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse usage error
        assert exc.code == 2, (argv, stderr.getvalue())
        return
    assert not foreign, argv
    assert code in (0, 2, 3), (argv, code)
    resolution = document.get("resolution") if isinstance(document, dict) else None
    if "--config" in argv and type(resolution) is int and resolution > MAX_RESOLUTION:
        assert code == 2, argv
    if stdout.getvalue():
        strict_json(stdout.getvalue())
    if code != 0:
        assert stderr.getvalue().startswith("error: "), (argv, stderr.getvalue())


def test_default_parallelism_is_one():
    config = GameConfig(
        utilities=UtilityMatrix.classic(),
        predictor=PredictorProfile(0.5, 0.5),
    )
    assert config.parallelism == 1


def test_default_config_prints_the_same_bytes_on_any_host(tmp_path, monkeypatch):
    # Three chunks of trials: a default that followed the cores would
    # split the batch on a 64-core host and echo a different degree.
    config = tmp_path / "game.json"
    config.write_text(CLASSIC_JSON)
    for argv in (["expected"], ["simulate", "--trials", str(3 * 65_536 + 1)]):
        texts = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main([*argv, "--config", str(config)]) == 0
            texts.append(stdout.getvalue())
        assert texts[0] == texts[1]
        assert '"parallelism": 1\n' in texts[0]
