"""Newcomb's problem toolkit.

Closed-form expected-utility analysis over predictor-accuracy space,
a time-lines-graph model of the game with retrocausal unfolding and
entanglement, and a reproducible oracle-frame Monte Carlo simulator.

Every export loads on first use: `import newcomb` imports none of the
submodules, and reading a name (or a submodule such as `newcomb.tlg`)
imports only the submodule that defines it.

`_PUBLIC` is the one list of public names: `decision`, `tlg`, `sim`
and `errors` read their `__all__` from it, as this module imports no
submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_PUBLIC = {
    "decision": (
        "CChoice", "SChoice", "UtilityMatrix", "PredictorProfile", "DecisionBoundary",
        "RegionGrid", "expected_utilities", "choose", "decision_boundary", "region_grid",
        "dominant_choice",
    ),
    "tlg": (
        "EventKind", "Player", "EventNode", "TLGraph", "UnfoldSpec", "GAME_UNFOLD",
        "base_chain", "unfold", "game_graph", "player_timeline", "OMEGA_ORDER",
        "validate_linearity", "entanglement_closure", "detect_twist", "is_chain", "to_dot",
    ),
    "sim": (
        "TrialStream", "RngSpec", "TrialTrace", "SimulationReport", "ComparisonTable",
        "play_once", "monte_carlo", "standard_error", "compare",
    ),
    "errors": (
        "NewcombError", "ValidationError", "ConfigError", "GraphStructureError",
        "UnsupportedGraphError",
    ),
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}
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
