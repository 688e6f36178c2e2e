"""The certify job: one seeded graph through the toolkit's pipeline
(order, game tables, games, evaluators, timing, searches), with every
output cross-checked by an independent oracle.

Calls go through the ``pursuit`` module attributes (``orders.verify_...``)
so that a traced run, which replaces those attributes, sees them.
"""

from __future__ import annotations

import os

from pursuit import engine, graphs, orders, retractions, solver, strategies

MEMO_HORIZON = 10
MEMO_WINDOW = 3


class CheckFailed(Exception):
    """An oracle cross-check disagreed with the program's output."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _max_plies(table) -> int:
    return int(max(table.cop_dist.max(), table.robber_dist.max()))


def certify(inst, plan) -> None:
    """Library pipeline on one instance; raises CheckFailed on a mismatch."""
    G = graphs.Graph.from_text(inst.text)
    check(G == inst.graph, "graph text round-trip changed the graph")
    n = G.order
    order = orders.find_dominating_order(G)
    table = solver.decide_cop_win(G)
    cop_win = table.cop_win
    check((order is not None) == cop_win, "peel finds an order iff decide_cop_win says cop-win")
    plies = _max_plies(table)
    if cop_win:
        _certify_cop_win(G, order, table, plan)

    horizon = 2 * n if plan.horizon_2n else max(plies + 2, 2)
    survival = solver.adversarial_search(G, horizon, budget=None)
    check(
        survival.value is (not cop_win),
        f"survival search at horizon {horizon} says {survival.value} on a "
        f"{'cop' if cop_win else 'robber'}-win graph",
    )
    if n <= plan.memo_max_n:
        windowed = solver.adversarial_search(G, MEMO_HORIZON, revisit_window=MEMO_WINDOW)
        if windowed.value is True:
            plain = solver.adversarial_search(G, MEMO_HORIZON, budget=None)
            check(plain.value is True, "windowed memo search True but unwindowed DP not True")


def _certify_cop_win(G, order, table, plan) -> None:
    n = G.order
    check(orders.verify_dominating_order(G, order), "peel order fails verification")
    back = orders.order_from_text(orders.order_to_text(order))
    check(back == order, "order text round-trip changed the order")

    rounds = 2 * n if plan.horizon_2n else None
    family = retractions.RetractionFamily(G, order)
    chase = engine.play(engine.GameConfig(
        G, strategies.ChainPursuitCop(family), strategies.TableRobber(table), max_rounds=rounds,
    ))
    check(chase.captured, "chain pursuit did not capture the table robber")
    check(engine.check_pursuit_invariants(chase), "chain pursuit invariants fail")
    bound = [d + 1 for d in orders.depth_table(order)]
    check(engine.evaluate_weak(chase, bound), "weak criterion fails with bound depth + 1")
    back = engine.transcript_from_json(engine.transcript_to_json(chase))
    check(back == chase, "transcript JSON round-trip changed the transcript")

    duel = engine.play(engine.GameConfig(
        G, strategies.TableCop(table), strategies.TableRobber(table), max_rounds=rounds,
    ))
    c0 = table.best_cop_start()
    r0 = table.robber_start(c0)
    expected = 1 + int(table.cop_dist[c0, r0])
    check(
        duel.captured and duel.outcome.round == expected,
        f"table cop vs table robber: {duel.outcome.kind} at {duel.outcome.round}, "
        f"expected capture at {expected}",
    )
    if not plan.full:
        return

    natural, _ = orders.naturalize_order(G, order)
    check(orders.verify_dominating_order(G, natural), "naturalized order fails verification")
    natural_family = retractions.RetractionFamily(G, natural)
    profile = solver.estimate_timing(G, strategies.ProtectiveCop(natural_family), 4 * n)
    check(not profile.truncated, "protective timing profile truncated")
    recovered = solver.order_from_protective(G, profile)
    check(orders.verify_dominating_order(G, recovered), "recovered order fails verification")
    for cutoff in range(1, n + 1):
        res = retractions.check_family_retraction(G, family, cutoff)
        check(res, f"projection at cutoff {cutoff} is not a retraction: {res.detail}")
    res = retractions.check_shifted_edge_property(G, natural_family)
    check(res, f"shifted-edge property fails: {res.detail}")


# -- the README pipeline through the command line --------------------------


def certify_cli(inst, workdir: str, run_cli) -> None:
    """generate -> order -> solve -> simulate -> verify -> timing on one
    instance. ``run_cli(argv)`` returns (exit code, stdout)."""

    def step(*argv):
        code, out = run_cli([str(a) for a in argv])
        check(code == 0, f"'pursuit {argv[0]}' exited {code}")
        return out.strip()

    def path(name):
        return os.path.join(workdir, name)

    for name in os.listdir(workdir):  # no file may leak in from the previous job
        os.remove(path(name))
    graph = path("g.graph")
    step("generate", *inst.generate, "--out", path("g"))
    with open(graph, encoding="utf-8") as fh:
        check(fh.read() == inst.text, "generate wrote a graph other than the generator's")
    found = step("order", "--graph", graph, "--out", path("p.order"))
    constructible = found != "not constructible"
    verdict = step("solve", "--graph", graph, "--table-out", path("table.txt"))
    check(
        verdict == ("cop-win" if constructible else "robber-win"),
        f"solve says {verdict!r} but order says {found!r}",
    )
    _check_table_file(graph, path("table.txt"), constructible)

    n = inst.graph.order
    if not constructible:
        out = step("simulate", "--graph", graph, "--cop", "optimal", "--robber", "adversarial",
                   "--horizon", 2 * n, "--json-out", path("game.json"))
        check(out == "horizon", f"optimal cop vs table robber on a robber-win graph: {out!r}")
        return
    out = step("simulate", "--graph", graph, "--order", path("p.order"), "--cop", "s_star",
               "--robber", "adversarial", "--json-out", path("game.json"))
    check(out.startswith("capture"), f"chain pursuit vs table robber: {out!r}")
    step("verify", "--graph", graph, "--order", path("p.order"), "--transcript",
         path("game.json"), "--criterion", "weak")
    timing_order = path("g.order") if os.path.exists(path("g.order")) else path("p.order")
    out = step("timing", "--graph", graph, "--order", timing_order, "--cop", "protective",
               "--recover-order")
    check("\nrecovered " in out, "timing did not recover an order")


def _check_table_file(graph_path, table_path, cop_win) -> None:
    """The --table-out file covers every state, and survival search at its
    largest distance + 2 agrees with the verdict."""
    G = graphs.load_graph(graph_path)
    with open(table_path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh]
    check(len(rows) == G.order * G.order, "table file does not cover every state")
    plies = max(max(int(row[2]), int(row[3])) for row in rows)
    survival = solver.adversarial_search(G, max(plies + 2, 2), budget=None)
    check(survival.value is (not cop_win), "survival search disagrees with the table file")
