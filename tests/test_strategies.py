import pytest

from pursuit import (
    ChainPursuitCop,
    CycleEvaderRobber,
    DistanceGreedyRobber,
    Order,
    RetractionFamily,
    ScriptError,
    ScriptedRobber,
    StationaryRobber,
    StrategyInapplicableError,
    StrategyUndefinedError,
    TableRobber,
    chain_pursuit_move,
    decide_cop_win,
    dismantling_pursuit_move,
    find_dominating_order,
    prefix_recursive_move,
    protective_move,
)
from pursuit.graphs import Graph, ball
from pursuit.generators import (
    cycle_graph,
    double_wheel,
    path_graph,
    random_constructible,
    ray,
)


def p3_family():
    P3 = path_graph(3)
    order = Order((0, 1, 2), {1: 0, 2: 1}, "constructing")
    return P3, order, RetractionFamily(P3, order)


def test_chain_move_adjacent_is_capture():
    P3, _, fam = p3_family()
    assert chain_pursuit_move(fam, 1, 2) == 2
    assert chain_pursuit_move(fam, 0, 1) == 1


def test_chain_move_walks_the_chain():
    _, _, fam = p3_family()
    assert chain_pursuit_move(fam, 0, 2) == 1


def test_chain_move_on_block():
    G, order = double_wheel()
    fam = RetractionFamily(G, order)
    a0, a2, b1 = (G.vertex_by_label(x) for x in ("a_0", "a_2", "b_1"))
    assert chain_pursuit_move(fam, a0, a2) == b1


def test_chain_move_stuck_errors_or_stays():
    view = ball(ray(), 6)
    fam = RetractionFamily(view.graph, view.dismantling_order())
    with pytest.raises(StrategyInapplicableError):
        chain_pursuit_move(fam, 0, 4)
    assert chain_pursuit_move(fam, 0, 4, when_stuck="stay") == 0


def test_recursive_single_vertex():
    G = Graph(1)
    order = Order((0,), {}, "constructing")
    assert prefix_recursive_move(G, order, 0, 0) == 0


def test_recursive_top_adjacent_captures():
    P3, order, _ = p3_family()
    assert prefix_recursive_move(P3, order, 1, 2) == 2


def test_recursive_matches_chain_on_p3():
    P3, order, fam = p3_family()
    assert prefix_recursive_move(P3, order, 0, 2) == chain_pursuit_move(fam, 0, 2) == 1


def test_recursive_matches_chain_on_samples():
    for seed in range(6):
        G, order = random_constructible(10, 300 + seed)
        fam = RetractionFamily(G, order)
        start = order.sequence[0]
        # configurations reachable from the standard start all agree
        table = decide_cop_win(G)
        robber = TableRobber(table)
        c = start
        r = robber.start(G, c)
        for t in range(2, 402, 2):
            m1 = chain_pursuit_move(fam, c, r)
            m2 = prefix_recursive_move(G, order, c, r)
            assert m1 == m2
            c = m1
            if c == r:
                break
            r = robber.move(G, c, r, t + 1)
            if r == c:
                break


def test_recursive_undefined_configuration():
    # cop parked outside the reachable prefix bottoms out
    G = path_graph(4)
    order = find_dominating_order(G)
    bottom = order.sequence[0]
    far = order.sequence[-1]
    if not G.adjacent(far, bottom):
        with pytest.raises(StrategyUndefinedError):
            prefix_recursive_move(G, order, far, bottom)


def test_protective_round_zero_collapses():
    _, _, fam = p3_family()
    for r in range(3):
        assert protective_move(fam, r, 0) == 0
    with pytest.raises(ValueError):
        protective_move(fam, 2, 3)


def test_dismantling_pursuit_moves():
    view = ball(ray(), 10)
    fam = RetractionFamily(view.graph, view.dismantling_order())
    assert dismantling_pursuit_move(fam, 4, 5) == 5  # adjacent: capture
    assert dismantling_pursuit_move(fam, 0, 5) == 1  # drift along own chain


def test_stationary_robber():
    P5 = path_graph(5)
    pol = StationaryRobber()
    assert pol.start(P5, 0) == 4
    assert pol.move(P5, 0, 4, 3) == 4


def test_distance_greedy_on_p5():
    P5 = path_graph(5)
    pol = DistanceGreedyRobber()
    assert pol.move(P5, 0, 2, 3) == 3


def test_evader_stays_under_the_hub():
    G, _ = double_wheel()
    hub = G.vertex_by_label("c")
    cycle = [G.vertex_by_label(f"a_{i}") for i in range(5)]
    pol = CycleEvaderRobber(cycle, hub)
    pol.start(G, hub)
    assert pol.move(G, hub, cycle[0], 3) == cycle[0]


def test_evader_keeps_maximal_cycle_distance():
    G, _ = double_wheel()
    hub = G.vertex_by_label("c")
    cycle = [G.vertex_by_label(f"a_{i}") for i in range(5)]
    pol = CycleEvaderRobber(cycle, hub)
    pol.start(G, cycle[0])
    # cop on a_0, robber on a_1: step to a_2 (distance 2 beats 1)
    assert pol.move(G, cycle[0], cycle[1], 3) == cycle[2]


def test_scripted_robber_checks_legality():
    P3 = path_graph(3)
    pol = ScriptedRobber([2, 1, 0])
    assert pol.start(P3, 0) == 2
    assert pol.move(P3, 0, 2, 3) == 1
    bad = ScriptedRobber([2, 0])
    bad.start(P3, 0)
    with pytest.raises(ScriptError):
        bad.move(P3, 0, 2, 3)


def test_scripted_robber_reads_the_entry_of_its_round():
    # round 7 is the robber's third move, so it plays entry 3, on every call
    P3 = path_graph(3)
    pol = ScriptedRobber([2, 1, 0, 1])
    assert pol.move(P3, 2, 0, 7) == 1
    assert pol.move(P3, 2, 0, 7) == 1


def test_scripted_robber_stays_when_exhausted():
    P3 = path_graph(3)
    pol = ScriptedRobber([2])
    pol.start(P3, 0)
    assert pol.move(P3, 0, 2, 3) == 2


def test_table_robber_safe_on_c4():
    C4 = cycle_graph(4)
    table = decide_cop_win(C4)
    pol = TableRobber(table)
    r0 = pol.start(C4, 0)
    assert table.cop_dist[0, r0] < 0  # safe start exists on a robber-win graph


def test_cop_strategy_start_is_rank_zero():
    G, order = double_wheel()
    cop = ChainPursuitCop(RetractionFamily(G, order))
    assert cop.start(G) == order.sequence[0]
