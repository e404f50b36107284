"""Tests for the package's public surface, whose exports load on first use."""

from importlib import import_module

import pytest

import newcomb

SUBMODULES = [import_module(f"newcomb.{name}") for name in ("decision", "errors", "sim", "tlg")]


def test_every_export_is_the_object_its_submodule_defines():
    assert newcomb.__all__[0] == "__version__"
    assert len(set(newcomb.__all__)) == len(newcomb.__all__)
    for name in newcomb.__all__[1:]:
        owners = [m for m in SUBMODULES if name in getattr(m, "__all__", vars(m))]
        assert len(owners) == 1, (name, owners)
        assert getattr(newcomb, name) is getattr(owners[0], name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from newcomb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(newcomb.__all__)


@pytest.mark.parametrize("module", [newcomb, newcomb.sim], ids=["newcomb", "newcomb.sim"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")



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
