"""Newcomb's problem toolkit.

Closed-form expected-utility analysis over predictor-accuracy space,
a time-lines-graph model of the game with retrocausal unfolding and
entanglement, and a reproducible oracle-frame Monte Carlo simulator.

Every export loads on first use: `import newcomb` imports none of the
submodules, and reading a name (or a submodule such as `newcomb.tlg`)
imports only the submodule that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("decision", (
            "CChoice", "SChoice", "UtilityMatrix", "PredictorProfile", "DecisionBoundary",
            "RegionGrid", "expected_utilities", "choose", "decision_boundary", "region_grid",
            "dominant_choice",
        )),
        ("tlg", (
            "EventKind", "Player", "EventNode", "TLGraph", "UnfoldSpec", "OMEGA_ORDER",
            "GAME_UNFOLD", "base_chain", "unfold", "game_graph", "player_timeline",
            "validate_linearity", "entanglement_closure", "detect_twist", "is_chain", "to_dot",
        )),
        ("sim", (
            "TrialStream", "RngSpec", "TrialTrace", "SimulationReport", "ComparisonTable",
            "play_once", "monte_carlo", "standard_error", "compare",
        )),
        ("errors", (
            "NewcombError", "ValidationError", "ConfigError", "GraphStructureError",
            "UnsupportedGraphError",
        )),
    )
    for name in names
}
_SUBMODULES = {"cli", *_EXPORTS.values()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # PEP 562: called only for names not yet in this module's globals.
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
