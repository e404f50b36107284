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

