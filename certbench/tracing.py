"""In-memory span tracer that wraps the public functions of each ``pursuit``
module from outside the package.

Every wrapped call records one span: layer name, start, end, parent span
and job id. Spans live in flat arrays until the run ends; self time is a
span's duration minus the durations of its direct children. Counters are
kept per job so that runs with the same seed can be compared exactly.

Each function is wrapped at the attribute its caller resolves at call
time: a module global for calls inside the defining module, the copy a
``from ... import`` left in another module (``pursuit.cli``,
``pursuit.solver``), or the class attribute for methods.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# Layer metrics a traced run reports, the unit of each, and the
# end-to-end metric (on the named workload) that the layer should move.
# Times are self wall seconds per round, counts are totals per round; a
# round is one pass over the workload's instance mix. ``generators.build_s``
# is the set-up build time, ``cli.import_s`` the CPU time of a fresh
# interpreter importing ``pursuit.cli``.
LAYER_METRICS = (
    ("generators.build_s", "s", "setup_s on every workload"),
    ("graphs.parse_s", "s", "certify_s_p50 on cli_pipeline"),
    ("graphs.neighbors_calls", "count", "certify_s_p50 on many_small"),
    ("orders.peel_s", "s", "certify_s_p50 on dense_random"),
    ("orders.peel_calls", "count", "certify_s_p50 on dense_random"),
    ("orders.verify_s", "s", "certify_s_p50 on dense_random"),
    ("orders.naturalize_s", "s", "certify_s_p50 on dense_random"),
    ("orders.io_s", "s", "certify_s_p50 on cli_pipeline"),
    ("kernels.tables_s", "s", "certify_per_s, certify_s_p50 on long_capture; peak_rss_mb on dense_random"),
    ("kernels.tables_states", "count", "certify_per_s, certify_s_p50 on long_capture"),
    ("kernels.tables_plies_max", "count", "certify_per_s, certify_s_p50 on long_capture"),
    ("kernels.survive_s", "s", "certify_per_s, peak_rss_mb on dense_random"),
    ("kernels.survive_cells", "count", "certify_per_s, peak_rss_mb on dense_random"),
    ("solver.decide_self_s", "s", "certify_s_p50 on many_small"),
    ("solver.memo_s", "s", "certify_s_tail on many_small"),
    ("solver.memo_states", "count", "certify_s_tail on many_small"),
    ("solver.memo_budget_hits", "count", "certify_s_tail on many_small"),
    ("solver.search_self_s", "s", "certify_s_p50 on many_small"),
    ("solver.timing_s", "s", "certify_per_s on long_capture"),
    ("solver.timing_truncated", "count", "certify_per_s on long_capture"),
    ("solver.recover_s", "s", "certify_per_s on long_capture"),
    ("retractions.check_s", "s", "certify_per_s on long_capture; certify_s_p50 on many_small"),
    ("strategies.cop_move_s", "s", "certify_s_p50 on many_small"),
    ("strategies.robber_move_s", "s", "certify_s_p50 on many_small"),
    ("strategies.moves", "count", "certify_s_p50 on many_small"),
    ("engine.play_self_s", "s", "certify_s_p50 on many_small"),
    ("engine.rounds", "count", "certify_s_p50 on many_small"),
    ("engine.evaluate_s", "s", "certify_s_p50 on many_small"),
    ("engine.serialize_s", "s", "certify_s_p50 on many_small"),
    ("cli.main_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.generate_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.order_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.solve_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.simulate_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.verify_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.timing_s", "s", "certify_s_p50 on cli_pipeline"),
    ("cli.import_s", "s", "certify_s_p50 on cli_pipeline"),
    ("bench.self_s", "s", "none: the benchmark's own oracle code"),
    ("trace.overhead_s", "s", "none: traced minus untraced time of the same jobs"),
)

# Counters that must repeat exactly for the same instance.
DETERMINISTIC_COUNTS = (
    "graphs.neighbors_calls",
    "orders.peel_calls",
    "kernels.tables_states",
    "kernels.tables_plies_max",
    "kernels.survive_cells",
    "solver.memo_states",
    "solver.memo_budget_hits",
    "solver.timing_truncated",
    "strategies.moves",
    "engine.rounds",
)

# Counters that keep a maximum instead of a sum.
MAX_COUNTS = frozenset({"kernels.tables_plies_max"})


def merge_counts(many) -> dict:
    """Combine per-job counter dicts into one."""
    out: dict = {}
    for counts in many:
        for key, value in counts.items():
            out[key] = max(out.get(key, 0), value) if key in MAX_COUNTS else out.get(key, 0) + value
    return out


class Tracer:
    """Span and counter store plus the list of attributes it patched."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_job = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def count(self, key: str, value: int = 1) -> None:
        if key in MAX_COUNTS:
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def spanned(self, fn, layer: str, on_result=None):
        lid = self.layer_id(layer)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; methods keep their
        classmethod/property wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, property):
            new = property(make(raw.fget))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def span(self, owner, attr: str, layer: str, on_result=None) -> None:
        self.patch(owner, attr, lambda fn: self.spanned(fn, layer, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------

    def self_times(self, jobs: bool):
        """Self seconds per layer over job spans (``jobs=True``) or set-up
        spans (job id -1), and the number of spans per layer."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children
        keep = job >= 0 if jobs else job < 0
        seconds = np.bincount(name[keep], weights=own[keep], minlength=len(self.layers))
        calls = np.bincount(name[keep], minlength=len(self.layers))
        top = keep & ~nested
        top_seconds = float(dur[top].sum())
        return (
            {layer: float(seconds[i]) for i, layer in enumerate(self.layers)},
            {layer: int(calls[i]) for i, layer in enumerate(self.layers)},
            top_seconds,
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# -- what gets wrapped ---------------------------------------------------


def _tables_done(tracer, args, result):
    n = args[0].shape[0]
    tracer.count("kernels.tables_states", 2 * n * n)
    dc, dr = result
    tracer.count("kernels.tables_plies_max", int(max(dc.max(), dr.max())))


def _survive_done(tracer, args, result):
    tracer.count("kernels.survive_cells", int(result.size))


def _memo_done(tracer, args, result):
    tracer.count("solver.memo_states", result.explored)
    if result.value is None:
        tracer.count("solver.memo_budget_hits")


def _timing_done(tracer, args, result):
    if result.truncated:
        tracer.count("solver.timing_truncated")


def _peel_done(tracer, args, result):
    tracer.count("orders.peel_calls")


def _play_done(tracer, args, result):
    tracer.count("engine.rounds", result.moves[-1][0])


def _move_done(tracer, args, result):
    tracer.count("strategies.moves")


def install(tracer: Tracer) -> None:
    """Wrap every public function of the ``pursuit`` modules the benchmark
    reaches, at each attribute through which it is called."""
    from pursuit import _kernels, cli, engine, generators, graphs, orders
    from pursuit import retractions, solver, strategies

    def span_all(owners, attr, layer, on_result=None):
        for owner in owners:
            if hasattr(owner, attr):
                tracer.span(owner, attr, layer, on_result)

    for attr in (
        "path_graph", "cycle_graph", "complete_graph", "star_graph",
        "petersen_graph", "double_wheel", "wheel_tree", "ray", "hubbed_path",
        "leafless_tree_ball", "random_constructible", "random_connected_graph",
        "make",
    ):
        tracer.span(generators, attr, "generators.build")
    tracer.span(graphs, "ball", "generators.build")

    tracer.span(graphs.Graph, "from_text", "graphs.parse")
    span_all((graphs, cli), "load_graph", "graphs.parse")
    tracer.patch(
        graphs.Graph, "neighbors", lambda fn: tracer.counted(fn, "graphs.neighbors_calls")
    )

    for attr in ("find_dominating_order", "find_dismantling_order"):
        span_all((orders, cli), attr, "orders.peel", _peel_done)
    tracer.span(orders, "_greedy_peel", "orders.peel")
    for attr in ("verify_dominating_order", "verify_dismantling_order"):
        span_all((orders, cli, solver), attr, "orders.verify")
    tracer.span(orders, "naturalize_order", "orders.naturalize")
    for attr in ("order_to_text", "order_from_text"):
        tracer.span(orders, attr, "orders.io")
    for attr in ("save_order", "load_order"):
        span_all((orders, cli), attr, "orders.io")

    tracer.span(_kernels, "game_distance_tables", "kernels.tables", _tables_done)
    tracer.span(_kernels, "survive_layers", "kernels.survive", _survive_done)

    span_all((solver, cli), "decide_cop_win", "solver.decide_self")
    tracer.span(solver.GameTable, "cop_win", "solver.decide_self")
    tracer.span(solver, "adversarial_search", "solver.search_self")
    tracer.span(solver._MemoSearch, "run", "solver.memo", _memo_done)
    span_all((solver, cli), "estimate_timing", "solver.timing", _timing_done)
    span_all((solver, cli), "order_from_protective", "solver.recover")

    for attr in ("check_family_retraction", "check_shifted_edge_property", "check_retraction"):
        span_all((retractions, cli), attr, "retractions.check")

    cops = ("ChainPursuitCop", "PrefixRecursiveCop", "ProtectiveCop",
            "DismantlingPursuitCop", "TableCop")
    robbers = ("StationaryRobber", "DistanceGreedyRobber", "RayRunnerRobber",
               "CycleEvaderRobber", "TableRobber", "ScriptedRobber")
    for names, layer in ((cops, "strategies.cop_move"), (robbers, "strategies.robber_move")):
        for cls_name in names:
            cls = getattr(strategies, cls_name)
            tracer.span(cls, "start", layer)
            tracer.span(cls, "move", layer, _move_done)

    span_all((engine, cli), "play", "engine.play_self", _play_done)
    for attr in ("evaluate_classic", "evaluate_weak", "evaluate_cweak",
                 "check_pursuit_invariants", "check_shadow"):
        span_all((engine, cli), attr, "engine.evaluate")
    for attr in ("transcript_to_text", "transcript_to_json", "transcript_from_json",
                 "save_transcript", "load_transcript"):
        span_all((engine, cli), attr, "engine.serialize")

    tracer.span(cli, "main", "cli.main")
    for sub in ("generate", "order", "solve", "simulate", "verify", "timing"):
        tracer.span(cli, f"_cmd_{sub}", f"cli.{sub}")
