"""Tests for the package's public surface, whose exports load on first use."""

import inspect
import math
import os
import re
import tempfile
from enum import Enum
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newcomb
from newcomb import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SUBMODULES = [import_module(f"newcomb.{name}") for name in ("decision", "errors", "sim", "tlg")]


def test_every_export_is_the_object_its_submodule_defines():
    assert newcomb.__all__[0] == "__version__"
    assert len(set(newcomb.__all__)) == len(newcomb.__all__)
    for name in newcomb.__all__[1:]:
        owners = [m for m in SUBMODULES if name in m.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(newcomb, name) is getattr(owners[0], name), name


def test_the_readme_library_example_runs():
    # a renamed or deleted export that the example still uses fails here
    library = README.read_text().split("\n## Library\n", 1)[1]
    namespace = {}
    exec(library.split("```python\n", 1)[1].split("\n```", 1)[0], namespace)
    assert namespace["table"].theoretical == (510000.0, 500000.0)
    trace = namespace["trace"]
    assert (trace.s_choice, trace.utility) == (newcomb.SChoice.S2, 1010000.0)


@pytest.mark.parametrize(
    "module", ["newcomb", "newcomb.decision", "newcomb.tlg", "newcomb.sim", "newcomb.errors"]
)
def test_star_import_binds_exactly_all(module):
    # no helper such as check_int leaks out of a submodule
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(import_module(module).__all__)


@pytest.mark.parametrize("name", ["decision", "tlg", "sim", "errors", "cli"])
def test_every_public_definition_is_exported(name):
    module = import_module(f"newcomb.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__), defined - set(module.__all__)


@pytest.mark.parametrize("module", [newcomb, newcomb.sim], ids=["newcomb", "newcomb.sim"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")



def test_version_matches_pyproject():
    # a regex, as Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == newcomb.__version__


_HUGE = 10**5000  # past the interpreter's int-to-str digit limit, so it has no repr


def _two_nodes():
    return [newcomb.EventNode(i, newcomb.EventKind.GENERIC) for i in (1, 2)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: newcomb.region_grid(newcomb.UtilityMatrix.classic(), _HUGE), id="region_grid"),
        pytest.param(
            lambda: newcomb.expected_utilities(_HUGE, newcomb.PredictorProfile(0.5, 0.5)),
            id="expected_utilities",
        ),
        pytest.param(lambda: newcomb.TLGraph.build(_HUGE, []), id="build-nodes"),
        pytest.param(lambda: newcomb.TLGraph.build(_two_nodes(), [(1, _HUGE)]), id="build-edge"),
        pytest.param(lambda: newcomb.TLGraph.build(_two_nodes(), [], [(1, _HUGE)]), id="build-pair"),
        pytest.param(lambda: newcomb.RngSpec(_HUGE), id="RngSpec"),
        pytest.param(
            lambda: newcomb.monte_carlo(
                newcomb.UtilityMatrix.classic(),
                newcomb.PredictorProfile(0.5, 0.5),
                newcomb.CChoice.C1,
                _HUGE,
            ),
            id="monte_carlo",
        ),
        pytest.param(lambda: newcomb.detect_twist(_HUGE, newcomb.game_graph()), id="detect_twist"),
        pytest.param(lambda: newcomb.game_graph().node(_HUGE), id="TLGraph.node"),
        pytest.param(
            lambda: newcomb.validate_linearity([_HUGE], newcomb.game_graph()), id="validate_linearity"
        ),
        pytest.param(lambda: newcomb.RegionGrid(2, ((0, _HUGE), (0, 2))), id="RegionGrid-span"),
        pytest.param(lambda: newcomb.UnfoldSpec(_HUGE, 3, 2), id="UnfoldSpec"),
    ],
)
def test_an_int_too_large_to_print_raises_validation_error(call):
    with pytest.raises(newcomb.ValidationError) as caught:
        call()
    assert len(str(caught.value)) < 200


def _instances():
    """One value of each library type that is neither an exception nor an Enum."""
    table = newcomb.UtilityMatrix.classic()
    c1_report = newcomb.SimulationReport(newcomb.CChoice.C1, 5, 0, 1.0, 1.0, 0.0, 0.0)
    c2_report = newcomb.SimulationReport(newcomb.CChoice.C2, 5, 0, 1.0, 1.0, 0.0, 0.0)
    return [
        table,
        newcomb.PredictorProfile(0.5, 0.5),
        newcomb.decision_boundary(table),
        newcomb.region_grid(table, 5),
        newcomb.EventNode(1, newcomb.EventKind.GENERIC),
        newcomb.game_graph(),
        newcomb.base_chain(5),
        newcomb.GAME_UNFOLD,
        newcomb.TrialStream(0, 0),
        newcomb.RngSpec(1),
        newcomb.TrialTrace(newcomb.CChoice.C1, newcomb.SChoice.S1, 1.0),
        c1_report,
        newcomb.ComparisonTable(c1_report, c2_report),
        cli.GameConfig(table, newcomb.PredictorProfile(0.5, 0.5), trials=5, parallelism=1),
    ]


# main is left out: argparse reports a bad argv with SystemExit(2), and
# tests/test_cli.py fuzzes main's argv.
_CLI = [getattr(cli, name) for name in cli.__all__ if name != "main"]
# The two functions that write a file may raise OSError, which main maps to exit 3.
_WRITERS = (cli.cmd_region, cli.cmd_graph)


def _surface(instances):
    """Every exported callable of the package and of cli but main, except exception and
    Enum classes, and every public bound method."""
    exports = [getattr(newcomb, name) for name in newcomb.__all__[1:]] + _CLI
    methods = [
        getattr(obj, name)
        for obj in instances
        for name in dir(obj)
        if not name.startswith("_") and callable(getattr(obj, name))
    ]
    return [
        f
        for f in exports + methods
        if callable(f) and not (isinstance(f, type) and issubclass(f, (BaseException, Enum)))
    ]


_INSTANCES = _instances()
# Every int is far below or past every size bound: 2**63 trials would be
# accepted and run for ages.
_POOL = [
    -1, 0, 1, 2, 5, 10**400, True, 0.5, -0.0, math.nan, math.inf, "", "a", "12", None,
    (), (1, 2), [1, 2], [[1, 2]], {1: 2}, {1, 2},
    *newcomb.CChoice, *newcomb.SChoice, *newcomb.EventKind, *newcomb.Player,
    *_INSTANCES,
]


@settings(max_examples=1000, deadline=None)
@given(f=st.sampled_from(_surface(_INSTANCES)), args=st.lists(st.sampled_from(_POOL), max_size=4))
def test_every_public_call_returns_or_raises_a_newcomb_error(f, args):
    """Random arguments from _POOL give a result or a NewcombError.

    No call reaches detect_twist's MAX_TWISTS or render_region_csv's
    in-memory resolution bound: the pool's ints are too small or past
    every size bound, and its sequences hold at most two items. The
    writers get the pool's strings as paths, so each call runs in a
    fresh temporary directory. A manual chdir, as Python 3.10 has no
    contextlib.chdir.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            f(*args)
        except newcomb.NewcombError:
            pass
        except OSError:
            assert f in _WRITERS, f
        except TypeError:
            # only Python's own complaint about the number of arguments
            with pytest.raises(TypeError):
                inspect.signature(f).bind(*args)
        finally:
            os.chdir(cwd)
