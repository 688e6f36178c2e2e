"""Pursuit-evasion engine and verification toolkit for cops-and-robbers
games on reflexive graphs."""

import importlib

from .errors import (
    CheckResult, EngineInvariantError, GeneratorContractError, GraphFormatError,
    GraphTooLargeError, InvalidOrderError, NontotalRetractionError, ProtectiveContradictionError,
    PursuitError, ScriptError, StrategyError, StrategyInapplicableError, StrategyUndefinedError,
    TranscriptFaultError,
)
from .graphs import (
    BallView, Graph, Induced, LazyGraph, ball, dominates, induced_subgraph, load_graph,
    save_graph,
)
from .orders import (
    Order, depth_table, find_dismantling_order, find_dominating_order, load_order,
    naturalize_order, save_order, verify_dismantling_order, verify_dominating_order,
)

__version__ = "0.1.0"

# Each of these modules is imported on first use of one of its names, so
# a process that uses none of them does not pay for its import: where no
# bytecode cache is written, about 5 ms for engine (which the CLI's
# generate, order, solve and timing runs skip) and 9 ms for the other
# three. Those three load numpy only inside the functions that run an
# array kernel or a table check; engine never loads it.
_LAZY = {
    "engine": ("GameConfig", "Outcome", "Transcript", "check_pursuit_invariants", "check_shadow",
               "default_horizon", "evaluate_classic", "evaluate_cweak", "evaluate_weak", "play",
               "replay"),
    "retractions": ("RetractionFamily", "check_family_retraction", "check_retraction",
                    "check_shifted_edge_property"),
    "strategies": ("ChainPursuitCop", "CycleEvaderRobber", "DismantlingPursuitCop",
                   "DistanceGreedyRobber", "PrefixRecursiveCop", "ProtectiveCop",
                   "RayRunnerRobber", "ScriptedRobber", "StationaryRobber", "TableCop",
                   "TableRobber", "chain_pursuit_move", "dismantling_pursuit_move",
                   "prefix_recursive_move", "protective_move"),
    "solver": ("GameTable", "SearchResult", "TimingProfile", "adversarial_search",
               "decide_cop_win", "estimate_timing", "order_from_protective"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f"{__name__}.{module}")
    return found if module == name else getattr(found, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})


__all__ = [name for name in __dir__() if not name.startswith("_") and name != "importlib"]
