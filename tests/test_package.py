"""Tests for the package's public surface, whose exports load on first use."""

import copy
import inspect
import math
import os
import pickle
import re
import tempfile
from enum import Enum
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newcomb
from newcomb import cli
from newcomb._record import Record

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


_C1 = newcomb.SimulationReport(newcomb.CChoice.C1, 5, 0, 1.0, 1.0, 0.0)
_C2 = newcomb.SimulationReport(newcomb.CChoice.C2, 5, 0, 1.0, 1.0, 0.0)
_REPORT_REPR = (
    "SimulationReport(c_choice=<CChoice.{0}: '{0}'>, trials=5, seed=0, empirical_mean=1.0,"
    " theoretical=1.0, standard_error=0.0)"
)
_TABLE_REPR = "UtilityMatrix(v11=10000.0, v12=0.0, v21=1010000.0, v22=1000000.0)"
_GENERIC = "kind=<EventKind.GENERIC: 'generic'>, copy_of=None"
# One instance of each record class; its repr as the frozen dataclasses printed
# it; a change that gives another valid record; a change that is refused.
_RECORDS = [
    (newcomb.UtilityMatrix.classic(), _TABLE_REPR, {"v12": 1.0}, {"v11": -1.0}),
    (newcomb.PredictorProfile(0.5, 0.25), "PredictorProfile(p1=0.5, p2=0.25)", {"p2": 1}, {"p1": 2.0}),
    (
        newcomb.decision_boundary(newcomb.UtilityMatrix.classic()),
        "DecisionBoundary(a1=-1000000.0, a2=-1000000.0, b=-1010000.0)",
        {"b": 0.0},
        {"b": math.nan},
    ),
    (
        newcomb.region_grid(newcomb.UtilityMatrix.classic(), 3),
        "RegionGrid(resolution=3, c1_spans=((0, 3), (0, 2), (0, 1)))",
        {"c1_spans": [(0, 3)] * 3},
        {"resolution": 1},
    ),
    (
        cli.GameConfig(newcomb.UtilityMatrix.classic(), newcomb.PredictorProfile(0.5, 0.25), trials=5),
        f"GameConfig(utilities={_TABLE_REPR}, predictor=PredictorProfile(p1=0.5, p2=0.25),"
        " trials=5, seed=0, resolution=101, parallelism=1)",
        {"seed": 7},
        {"trials": 0},
    ),
    (newcomb.RngSpec(7), "RngSpec(seed=7)", {"seed": 8}, {"seed": -1}),
    (
        newcomb.TrialTrace(newcomb.CChoice.C1, newcomb.SChoice.S2, 1.5),
        "TrialTrace(c_choice=<CChoice.C1: 'C1'>, s_choice=<SChoice.S2: 'S2'>, utility=1.5)",
        {"utility": 2.5},
        {"utility": -1.0},
    ),
    (_C1, _REPORT_REPR.format("C1"), {"trials": 6}, {"trials": 0}),
    (
        newcomb.ComparisonTable(_C1, _C2),
        f"ComparisonTable(c1={_REPORT_REPR.format('C1')}, c2={_REPORT_REPR.format('C2')})",
        {"c2": _C2.replace(seed=1)},
        {"c1": _C2},
    ),
    (
        newcomb.EventNode(6, newcomb.EventKind.C_CHOICE, copy_of=3),
        "EventNode(id=6, kind=<EventKind.C_CHOICE: 'c_choice'>, copy_of=3)",
        {"copy_of": None},
        {"id": 0},
    ),
    (
        newcomb.base_chain(2),
        f"TLGraph(nodes=(EventNode(id=1, {_GENERIC}), EventNode(id=2, {_GENERIC})),"
        " edges=frozenset({(1, 2)}), entanglement=())",
        {"edges": []},
        {"edges": [(1, 1)]},
    ),
    (newcomb.GAME_UNFOLD, "UnfoldSpec(n=4, k=2, m=3)", {"m": 4}, {"k": 3}),
]


@pytest.mark.parametrize(
    "record, text, change, bad_change", _RECORDS, ids=[type(r[0]).__name__ for r in _RECORDS]
)
def test_records_are_frozen_values(record, text, change, bad_change):
    name = next(iter(change))
    before = getattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign") as assigned:
        setattr(record, name, before)
    with pytest.raises(AttributeError, match="cannot delete") as deleted:
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.not_a_field = 1
    assert type(assigned.value) is type(deleted.value) is not AttributeError
    assert getattr(record, name) is before

    same = record.replace()
    assert same is not record and same == record and hash(same) == hash(record)
    assert record.replace(**change) != record
    # a subclass with the same fields, or a record of another class, is never equal
    subclass = type("Sub", (type(record),), {"__slots__": ()})
    assert subclass._fields == type(record)._fields
    assert subclass(*(getattr(record, f) for f in record._fields)) != record
    assert all(record != other for other, *_ in _RECORDS if other is not record)

    assert repr(record) == text
    with pytest.raises(newcomb.ValidationError):
        record.replace(**bad_change)
    for duplicate in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert duplicate == record and hash(duplicate) == hash(record)


def test_every_record_class_is_tested():
    # the package's records, not the subclasses made above
    records = {c for c in Record.__subclasses__() if c.__module__.startswith("newcomb.")}
    assert records == {type(record) for record, *_ in _RECORDS}


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
    c1_report = newcomb.SimulationReport(newcomb.CChoice.C1, 5, 0, 1.0, 1.0, 0.0)
    c2_report = newcomb.SimulationReport(newcomb.CChoice.C2, 5, 0, 1.0, 1.0, 0.0)
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
