"""Command-line front end: generation, ordering, solving, simulation,
verification, timing, and an interactive robber mode.

Every subcommand is deterministic given its files, flags, and seeds;
outputs carry no timestamps. numpy loads only where an array kernel
runs: ``solve``, and a game or timing walk with the ``optimal`` cop or
the ``adversarial`` or ``greedy`` robber. Every other run, the
protective timing walk and its order recovery included, starts without
it; ``engine``, ``retractions``, ``solver`` and ``strategies`` are
imported by the subcommands that use them.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest

from . import generators, graphs
from .errors import (
    CheckResult, GraphFormatError, GraphTooLargeError, PursuitError, parse_file, write_file,
)
from .graphs import Graph, load_graph, save_graph
from .orders import (
    _check_permutation,
    depth_table,
    find_dismantling_order,
    find_dominating_order,
    load_order,
    save_order,
    verify_dismantling_order,
    verify_dominating_order,
)


def _build_cop(kind: str, graph: Graph, order):
    if kind not in ("optimal", "recursive", "s_star", "protective", "dismantable"):
        raise PursuitError(f"unknown cop kind {kind!r}")
    from .retractions import RetractionFamily
    from .strategies import (
        ChainPursuitCop, DismantlingPursuitCop, PrefixRecursiveCop, ProtectiveCop, TableCop,
    )

    if order is not None:
        _check_permutation(graph, order.sequence)
    if kind == "optimal":
        from .solver import decide_cop_win

        return TableCop(decide_cop_win(graph))
    if order is None:
        find = find_dismantling_order if kind == "dismantable" else find_dominating_order
        order = find(graph)
        if order is None:
            raise PursuitError(f"--cop {kind} needs an order, and the graph is not constructible")
    if kind == "recursive":
        if order.flavor != "constructing":
            raise PursuitError("--cop recursive needs a dominating order")
        return PrefixRecursiveCop(order)
    family = RetractionFamily(graph, order)
    if kind == "s_star":
        stuck = "stay" if family.flavor == "dismantling" else "error"
        return ChainPursuitCop(family, when_stuck=stuck)
    if kind == "protective":
        return ProtectiveCop(family)
    if family.flavor != "dismantling":
        raise PursuitError("--cop dismantable needs a dismantling order")
    return DismantlingPursuitCop(family)


def _build_robber(kind: str, graph: Graph):
    from .strategies import (
        CycleEvaderRobber, DistanceGreedyRobber, RayRunnerRobber, ScriptedRobber,
        StationaryRobber, TableRobber,
    )

    if kind == "stationary":
        return StationaryRobber()
    if kind == "greedy":
        return DistanceGreedyRobber()
    if kind == "ray":
        return RayRunnerRobber(list(graph.vertices()))
    if kind == "h_evader":
        try:
            cycle = [graph.vertex_by_label(f"a_{i}") for i in range(5)]
            hub = graph.vertex_by_label("c")
        except (KeyError, ValueError):
            raise PursuitError("--robber h_evader needs a labelled wheel-block graph")
        return CycleEvaderRobber(cycle, hub)
    if kind == "adversarial":
        from .solver import decide_cop_win

        return TableRobber(decide_cop_win(graph))
    if kind.startswith("script:"):
        path = kind.split(":", 1)[1]
        script = parse_file(path, str.split)
        if not script:
            raise PursuitError(f"{path}: script must be nonempty")
        for tok in script:
            if not (tok.isdecimal() and int(tok) < graph.order):
                raise PursuitError(f"{path}: {tok!r} is not a vertex of the graph")
        return ScriptedRobber([int(tok) for tok in script])
    raise PursuitError(f"unknown robber kind {kind!r}")


def _cmd_generate(args) -> int:
    limit = graphs.MAX_FILE_ORDER
    if args.n is not None and args.n > limit:
        raise PursuitError(f"--n {args.n} is above {limit}, the largest graph file order")
    # Graph, ball and the tree generator refuse a graph above the limit
    # before they take its memory
    try:
        built = generators.make(args.family, n=args.n, degree=args.degree,
                                radius=args.radius, seed=args.seed)
    except GraphTooLargeError as err:
        raise PursuitError(f"--family {args.family} gives {err}") from None
    save_graph(f"{args.out}.graph", built.graph)
    print(f"{args.out}.graph: {built.graph.order} vertices, {built.graph.edge_count()} edges")
    order = built.dominating or built.dismantling
    if order is not None:
        save_order(f"{args.out}.order", order)
        print(f"{args.out}.order: {order.flavor}")
    if built.dominating is not None and built.dismantling is not None:
        save_order(f"{args.out}.dismantling.order", built.dismantling)
        print(f"{args.out}.dismantling.order: dismantling")
    if args.dot:
        write_file(f"{args.out}.dot", built.graph.to_dot())
    return 0


def _cmd_order(args) -> int:
    graph = load_graph(args.graph)
    find = find_dismantling_order if args.flavor == "dismantling" else find_dominating_order
    order = find(graph)
    if order is None:
        print("not constructible")
        return 0
    if args.out:
        save_order(args.out, order)
    print("order " + " ".join(str(v) for v in order.sequence))
    return 0


def _cmd_solve(args) -> int:
    from .solver import decide_cop_win

    graph = load_graph(args.graph)
    table = decide_cop_win(graph)
    print("cop-win" if table.cop_win else "robber-win")
    if args.table_out:
        cop_dist, robber_dist = table.cop_dist.tolist(), table.robber_dist.tolist()
        vertices = range(graph.order)
        write_file(args.table_out, "".join(
            f"{c} {r} {cop_dist[c][r]} {robber_dist[c][r]}\n" for c in vertices for r in vertices
        ))
    return 0


def _load(args, cop_kind=None):
    """The graph of ``--graph``, the order of ``--order`` (None without
    one) and, for a ``cop_kind``, that cop built on them (else None)."""
    graph = load_graph(args.graph)
    order = load_order(args.order) if args.order else None
    cop = None if cop_kind is None else _build_cop(cop_kind, graph, order)
    return graph, order, cop


def _cmd_simulate(args) -> int:
    from .engine import GameConfig, play, save_transcript, transcript_to_text

    graph, _, cop = _load(args, args.cop)
    robber = _build_robber(args.robber, graph)
    cfg = GameConfig(graph, cop, robber, max_rounds=args.horizon)
    transcript = play(cfg)
    if args.out:
        write_file(args.out, transcript_to_text(transcript))
    if args.json_out:
        save_transcript(args.json_out, transcript)
    out = transcript.outcome
    where = f" at round {out.round}" if out.round is not None else ""
    print(f"{out.kind}{where}")
    return 0


def _cmd_verify(args) -> int:
    if args.criterion and not args.transcript:
        raise PursuitError("--criterion needs --transcript")
    if args.bound is not None and args.criterion != "weak":
        raise PursuitError("--bound needs --criterion weak")
    graph, order, _ = _load(args)
    failures = []

    def report(name, result, fail_text, ok_text="ok"):
        print(f"{name}: {ok_text if result else fail_text}")
        if not result:
            failures.append(name)

    if order is not None:
        dismantling = order.flavor == "dismantling"
        res = (verify_dismantling_order if dismantling else verify_dominating_order)(graph, order)
        report("order", res, f"FAIL at rank {res.where}: {res.detail}")

    if args.retraction:
        from .retractions import check_retraction

        mapping = parse_file(args.retraction, lambda text: _parse_vertex_pairs(text, graph))
        fixed = {v for v in graph.vertices() if mapping.get(v) == v}
        res = check_retraction(graph, mapping, fixed)
        report("retraction", res, f"FAIL at {res.where}: {res.detail}",
               f"ok onto {len(fixed)} fixed vertices")

    if args.transcript:
        from .engine import (
            check_pursuit_invariants, evaluate_classic, evaluate_cweak, evaluate_weak,
            load_transcript, replay,
        )

        transcript = load_transcript(args.transcript)
        replay(graph, transcript.moves, transcript.outcome, transcript.visit_counts,
               transcript.horizon)
        # the stage/exponent invariants are chain-pursuit properties, and
        # only an order can tell the annotations from made-up ones
        inv = None
        if transcript.cop_kind == "chain" and order is not None:
            inv = _annotation_mismatch(order, transcript)
            if inv is None and transcript.stages:
                inv = check_pursuit_invariants(transcript)
        if inv is not None:
            report("pursuit invariants", inv, f"FAIL: {inv.detail}")
        if args.criterion == "classic":
            report("classic", evaluate_classic(transcript), "FAIL (no capture)")
        elif args.criterion == "weak":
            res = evaluate_weak(transcript, _resolve_bound(args, graph, order))
            report("weak", res, f"FAIL: {res.detail}")
        elif args.criterion == "cweak":
            res = evaluate_cweak(transcript)
            report("cweak", res, f"FAIL (revisit at round {res.where})")

    return 1 if failures else 0


def _annotation_mismatch(order, transcript):
    """A failed check at the first round where the transcript's chain
    annotations differ from the ones its moves give under ``order``; None
    when they agree."""
    from .engine import chain_annotations

    stages, events = chain_annotations(order, transcript.moves)
    got = zip_longest(transcript.stages, transcript.chain_events)
    for have, want in zip_longest(got, zip(stages, events)):
        if have != want:
            t = next(entry for entry in want or have if entry is not None)[0]
            detail = f"chain annotations differ from the moves at round {t}"
            return CheckResult(False, where=t, detail=detail)
    return None


def _resolve_bound(args, graph, order):
    if args.bound in (None, "default"):
        if order is None:
            raise PursuitError("--bound default needs --order to derive depths")
        depths = depth_table(order, strict=False)
        return [(d if d is not None else graph.order) + 1 for d in depths]
    try:
        return int(args.bound)
    except ValueError:
        pass
    bounds = parse_file(args.bound, lambda text: _parse_vertex_pairs(text, graph))
    for v in graph.vertices():
        if v not in bounds:
            raise GraphFormatError(f"{args.bound}: vertex {v} has no line")
    return [bounds[v] for v in graph.vertices()]


def _parse_vertex_pairs(text: str, graph) -> dict[int, int]:
    """``{u: x}`` from ``u x`` lines (blank and ``#`` lines skipped); each
    ``u`` must be a vertex of ``graph`` given once. Lines split at newlines
    only, as a file's lines do; ``splitlines`` also splits at U+0085 and the like."""
    pairs: dict[int, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            u, x = (int(tok) for tok in line.split())
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected two integers")
        if not 0 <= u < graph.order:
            raise GraphFormatError(f"line {lineno}: vertex {u} is not in the graph")
        if u in pairs:
            raise GraphFormatError(f"line {lineno}: vertex {u} is repeated")
        pairs[u] = x
    return pairs


def _cmd_timing(args) -> int:
    from .solver import estimate_timing, order_from_protective

    graph, _, cop = _load(args, args.cop)
    horizon = 4 * graph.order if args.horizon is None else args.horizon
    profile = estimate_timing(graph, cop, horizon)
    sys.stdout.write(profile.to_text())
    if args.recover_order:
        recovered = order_from_protective(graph, profile)
        print("recovered " + " ".join(str(v) for v in recovered.sequence))
    return 0


class _Quit(Exception):
    """The interactive robber asked to leave the game."""


class _InteractiveRobber:
    """Robber policy that shows the cop's moves and reads the robber's
    moves through ``input_fn``/``output_fn``; ``q``, ``quit`` or the end
    of the input leaves."""

    def __init__(self, input_fn, output_fn):
        self.input_fn = input_fn
        self.output_fn = output_fn

    def _read(self, prompt: str) -> str:
        try:
            raw = self.input_fn(prompt).strip()
        except EOFError:
            raise _Quit
        if raw in ("q", "quit"):
            raise _Quit
        return raw

    def start(self, G: Graph, c: int) -> int:
        self.output_fn(f"cop starts at {c} ({G.label(c)})")
        while True:
            raw = self._read("robber start> ")
            try:
                r = int(raw)
                G._check(r)
                return r
            except ValueError:
                self.output_fn("not a vertex; pick an id from the graph")

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        self.output_fn(f"round {round - 1}: cop -> {c} ({G.label(c)})")
        legal = sorted(G.neighbors(r))
        while True:
            raw = self._read(f"round {round}, robber at {r}, moves {legal}> ")
            try:
                cand = int(raw)
            except ValueError:
                self.output_fn("enter a vertex id")
                continue
            if cand in legal:
                return cand
            self.output_fn(f"illegal move {r} -> {cand}")


def _cmd_play(args, input_fn=input, output_fn=print) -> int:
    from .engine import GameConfig, play

    graph, _, cop = _load(args, args.cop)
    robber = _InteractiveRobber(input_fn, output_fn)
    try:
        transcript = play(GameConfig(graph, cop, robber, max_rounds=args.horizon))
    except _Quit:
        return 0
    out = transcript.outcome
    if out.kind == "fault":
        raise PursuitError(out.detail)
    # the robber shows each cop move when asked to reply; no reply follows the last
    t, player, v = transcript.moves[-1]
    if player == "cop":
        output_fn(f"round {t}: cop -> {v} ({graph.label(v)})")
    output_fn(f"captured at round {out.round}" if transcript.captured
              else "horizon reached; robber survives")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuit",
        description="Pursuit-evasion games on reflexive graphs: generate, order, solve, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a named family as graph (+ order) files")
    g.add_argument("--family", required=True, choices=generators.FAMILIES)
    g.add_argument("--n", type=int)
    g.add_argument("--degree", type=int)
    g.add_argument("--radius", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output path prefix")
    g.add_argument("--dot", action="store_true", help="also write a DOT file")
    g.set_defaults(fn=_cmd_generate)

    o = sub.add_parser("order", help="find a dominating/dismantling order")
    o.add_argument("--graph", required=True)
    o.add_argument("--flavor", choices=("dominating", "dismantling"), default="dominating")
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_order)

    s = sub.add_parser("solve", help="exact cop-win verdict")
    s.add_argument("--graph", required=True)
    s.add_argument("--table-out", dest="table_out")
    s.set_defaults(fn=_cmd_solve)

    m = sub.add_parser("simulate", help="play one game and record the transcript")
    m.add_argument("--graph", required=True)
    m.add_argument("--order")
    m.add_argument("--cop", required=True)
    m.add_argument("--robber", required=True)
    m.add_argument("--horizon", type=int)
    m.add_argument("--out", help="transcript text output")
    m.add_argument("--json-out", dest="json_out", help="structured transcript output")
    m.set_defaults(fn=_cmd_simulate)

    v = sub.add_parser("verify", help="check orders, retractions, transcripts, criteria")
    v.add_argument("--graph", required=True)
    v.add_argument("--order")
    v.add_argument("--retraction", help="file of 'u f(u)' lines")
    v.add_argument("--transcript")
    v.add_argument("--criterion", choices=("classic", "weak", "cweak"))
    v.add_argument("--bound", help="default | <int> | <path>; with --criterion weak only")
    v.set_defaults(fn=_cmd_verify)

    t = sub.add_parser("timing", help="timing profile of a strategy")
    t.add_argument("--graph", required=True)
    t.add_argument("--order")
    t.add_argument("--cop", default="protective")
    t.add_argument("--horizon", type=int)
    t.add_argument("--recover-order", action="store_true", dest="recover_order")
    t.set_defaults(fn=_cmd_timing)

    p = sub.add_parser("play", help="interactive robber against a chosen cop")
    p.add_argument("--graph", required=True)
    p.add_argument("--order")
    p.add_argument("--cop", default="optimal")
    p.add_argument("--horizon", type=int, default=200)
    p.set_defaults(fn=_cmd_play)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PursuitError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
