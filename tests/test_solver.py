import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    ChainPursuitCop,
    DismantlingPursuitCop,
    InvalidOrderError,
    Order,
    PrefixRecursiveCop,
    ProtectiveCop,
    ProtectiveContradictionError,
    PursuitError,
    RetractionFamily,
    StrategyInapplicableError,
    TableCop,
    TimingProfile,
    adversarial_search,
    decide_cop_win,
    estimate_timing,
    find_dismantling_order,
    find_dominating_order,
    naturalize_order,
    order_from_protective,
    protective_move,
    verify_dominating_order,
)
from pursuit.graphs import Graph, ball
from pursuit.generators import (
    complete_graph,
    cycle_graph,
    double_wheel,
    leafless_tree_ball,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_constructible,
    star_graph,
    wheel_tree,
)


def _witness_start(w, c0):
    """The lowest allowed robber start the witness survives from against a
    cop on ``c0``; layer 2 has a false diagonal, so it is never ``c0``."""
    safe = np.flatnonzero(w.layer(2)[c0] & w.allowed)
    return int(safe[0]) if len(safe) else None


def test_paths_are_cop_win():
    for n in (1, 2, 5, 9):
        assert decide_cop_win(path_graph(n)).cop_win


def test_c4_robber_win_block_cop_win():
    assert not decide_cop_win(cycle_graph(4)).cop_win
    G, _ = double_wheel()
    assert decide_cop_win(G).cop_win


def test_table_consistency_winning_states_step_down():
    for seed in range(6):
        G = random_connected_graph(7, 500 + seed)
        table = decide_cop_win(G)
        n = G.order
        for c in range(n):
            for r in range(n):
                if c == r or table.cop_dist[c, r] < 0:
                    continue
                vals = []
                for cp in G.neighbors(c):
                    if cp == r:
                        vals.append(0)
                    elif table.robber_dist[cp, r] >= 0:
                        vals.append(int(table.robber_dist[cp, r]))
                assert vals and min(vals) == table.cop_dist[c, r] - 1


def test_optimal_cop_capture_time_matches_table():
    from pursuit import GameConfig, TableRobber, play

    for seed in range(6):
        G, _ = random_constructible(9, 600 + seed)
        table = decide_cop_win(G)
        assert table.cop_win
        c0 = table.best_cop_start()
        r0 = table.robber_start(c0)
        T = play(GameConfig(G, TableCop(table), TableRobber(table)))
        expect = 1 + int(table.cop_dist[c0, r0])
        assert T.outcome.round == expect


def test_survive_agrees_with_solver():
    for seed in range(12):
        G = random_connected_graph(2 + seed % 8, 700 + seed)
        res = adversarial_search(G, 2 * G.order * G.order)
        assert res.value == (not decide_cop_win(G).cop_win)


def test_survive_edge_cases():
    assert adversarial_search(path_graph(2), 4).value is False
    assert adversarial_search(cycle_graph(4), 100).value is True
    assert adversarial_search(cycle_graph(4), 100, budget=10).value is None


def test_survive_witness_replays():
    C5 = cycle_graph(5)
    res = adversarial_search(C5, 60)
    assert res.value and res.witness is not None
    w = res.witness
    c = 0
    r = _witness_start(w, c)
    table = decide_cop_win(C5)
    t = 2
    while t <= 60:
        if t % 2 == 0:
            c = table.cop_move(c, r)
            assert c != r
        else:
            r = w.move(t, c, r)
            assert r != c
        t += 1


def _witness_cases():
    G, _ = double_wheel()
    hub = G.vertex_by_label("c")
    outer = [G.vertex_by_label(f"b_{i}") for i in range(5)] + [hub]
    return {
        "C5": (cycle_graph(5), 60, [], []),
        "double_wheel_hub_avoiding": (G, 50, outer, [hub]),
        "random12": (random_connected_graph(12, 17), 24, [], []),
    }


@pytest.mark.parametrize("name", ["C5", "double_wheel_hub_avoiding", "random12"])
def test_witness_survives_every_cop_past_the_fixpoint(name):
    G, h, forbidden, cop_forbidden = _witness_cases()[name]
    res = adversarial_search(G, h, forbidden=forbidden, cop_forbidden=cop_forbidden)
    assert res.value is True
    w = res.witness
    assert len(w.layers) < h  # the lookup below the fixpoint is exercised
    bad = set(forbidden)

    def robber_step(t, c, r):
        rp = w.move(t, c, r)
        assert rp != c and rp not in bad and rp in G.neighbors(r)
        return rp

    # Every legal cop reply, branching exhaustively; the witness is
    # positional, so each (round, cop, robber) state is expanded once.
    seen = set()
    frontier = []
    for c0 in G.vertices():
        if c0 in cop_forbidden:
            continue
        r0 = _witness_start(w, c0)
        assert r0 is not None and r0 != c0 and r0 not in bad
        frontier.append((2, c0, r0))
    while frontier:
        t, c, r = frontier.pop()
        if t > h or (t, c, r) in seen:
            continue
        seen.add((t, c, r))
        if t % 2 == 0:
            for cp in G.neighbors(c):
                if cp not in cop_forbidden:
                    assert cp != r
                    frontier.append((t + 1, cp, r))
        else:
            frontier.append((t + 1, c, robber_step(t, c, r)))
    assert max(t for t, _, _ in seen) == h

    # The table cop, where it is one of the cops quantified over.
    if not cop_forbidden:
        table = decide_cop_win(G)
        c = table.best_cop_start()
        r = _witness_start(w, c)
        for t in range(2, h + 1):
            if t % 2 == 0:
                c = table.cop_move(c, r)
                assert c != r
            else:
                r = robber_step(t, c, r)


def test_survival_dp_stops_at_the_fixpoint():
    # Far below the (horizon + 2) n^2 cells of a full sweep, and the budget
    # pays only for the cells computed: any budget below them is
    # inconclusive, any budget at or above them gives the unbudgeted value.
    G = random_connected_graph(60, 3)
    h = 2 * G.order
    full = (h + 2) * G.order ** 2
    res = adversarial_search(G, h, budget=None)
    assert res.value is True
    assert res.explored == res.witness.layers.size <= full // 10
    layer = G.order ** 2
    for budget in (0, layer - 1, layer, res.explored - layer, res.explored - 1):
        cut = adversarial_search(G, h, budget=budget)
        assert cut.value is None and cut.explored == budget // layer * layer <= budget
    for budget in (res.explored, res.explored + layer, full - 1, full):
        again = adversarial_search(G, h, budget=budget)
        assert again.value is True and again.explored == res.explored


def test_default_budget_decides_large_horizons():
    # The default budget used to be charged the full sweep up front, so
    # this call gave None without computing a layer.
    G = random_connected_graph(300, 1)
    res = adversarial_search(G, 2 * G.order)
    assert res.value is True
    assert res.explored == adversarial_search(G, 2 * G.order, budget=None).explored


@pytest.mark.parametrize("seed", [1, 29], ids=["robber_win", "dense_cop_win"])
def test_survival_at_horizon_2n_is_fast(seed):
    # n = 300 at h = 2n: a sweep over all 602 layers takes seconds.
    G = random_connected_graph(300, seed)
    start = time.perf_counter()
    value = adversarial_search(G, 2 * G.order, budget=None).value
    elapsed = time.perf_counter() - start
    assert value == (not decide_cop_win(G).cop_win)
    assert elapsed < 1.0


def test_block_outer_cycle_unrestricted_cop_wins():
    # The hub re-phases the chase: sitting at the hub, the cop answers the
    # robber's landing a_j with b_j, whose closed cycle-coverage traps him.
    G, _ = double_wheel()
    forbidden = [G.vertex_by_label(f"b_{i}") for i in range(5)]
    forbidden.append(G.vertex_by_label("c"))
    assert adversarial_search(G, 50, forbidden=forbidden).value is False


def test_block_outer_cycle_survives_hub_avoiding_cops():
    G, _ = double_wheel()
    forbidden = [G.vertex_by_label(f"b_{i}") for i in range(5)]
    hub = G.vertex_by_label("c")
    forbidden.append(hub)
    res = adversarial_search(G, 50, forbidden=forbidden, cop_forbidden=[hub])
    assert res.value is True
    with_windows = adversarial_search(
        G, 50, forbidden=forbidden, cop_forbidden=[hub], revisit_window=5
    )
    assert with_windows.value is True


def test_revisit_window_binds_on_c4():
    # The opening flight on C4 takes up to three consecutive fresh moves
    # before every move becomes a revisit, so the objective flips at 4.
    C4 = cycle_graph(4)
    assert adversarial_search(C4, 40).value is True
    for window in (1, 2, 3):
        assert adversarial_search(C4, 40, revisit_window=window).value is False
    for window in (4, 5, 8):
        assert adversarial_search(C4, 40, revisit_window=window).value is True


def test_memo_and_dp_paths_agree_on_survive():
    # A window of h + 1 never binds: the robber makes at most h / 2 moves.
    # Small graphs run to h = 2n^2; seeded random and random constructible
    # graphs with n = 7..12 at h = 6 and 10.
    cases = []
    for seed in range(6):
        G = random_connected_graph(2 + seed % 5, 800 + seed)
        cases.append((G, 2 * G.order * G.order))
    for n in range(7, 13):
        for seed in range(3):
            for G in (random_connected_graph(n, 100 * n + seed),
                      random_constructible(n, 100 * n + seed)[0]):
                cases += [(G, 6), (G, 10)]
    values = []
    for G, h in cases:
        dp = adversarial_search(G, h, budget=None).value
        memo = adversarial_search(G, h, revisit_window=h + 1, budget=None).value
        assert memo == dp, (G, h)
        values.append(dp)
    assert True in values and False in values


class _RefMemoSearch:
    """The windowed search as it was first written, as a reference: visited
    sets as frozensets, neighbourhoods sorted on every visit, and every cop
    move explored in order, captures included. Exact; no budget."""

    def __init__(self, G, horizon, forbidden, cop_forbidden, window):
        self.G = G
        self.h = horizon
        self.allowed = [v not in forbidden for v in G.vertices()]
        self.cop_allowed = [v not in cop_forbidden for v in G.vertices()]
        self.window = window
        self.memo = {}

    def run(self):
        n = self.G.order
        return all(
            any(self._value(2, c0, r0, frozenset([r0]), 0)
                for r0 in range(n) if r0 != c0 and self.allowed[r0])
            for c0 in range(n) if self.cop_allowed[c0]
        )

    def _value(self, t, c, r, visited, streak):
        if t > self.h:
            return True
        key = (t, c, r, visited, streak)
        if key in self.memo:
            return self.memo[key]
        if t % 2 == 0:
            out = True
            for cp in sorted(self.G.neighbors(c)):
                if not self.cop_allowed[cp]:
                    continue
                if cp == r or not self._value(t + 1, cp, r, visited, streak):
                    out = False
                    break
        else:
            out = False
            for rp in sorted(self.G.neighbors(r)):
                if rp == c or not self.allowed[rp]:
                    continue
                if rp in visited:
                    nv, ns = visited, 0
                else:
                    ns = streak + 1
                    if ns >= self.window:
                        continue
                    nv = visited | {rp}
                if self._value(t + 1, c, rp, nv, ns):
                    out = True
                    break
        self.memo[key] = out
        return out


@st.composite
def _connected_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pairs = [(u, v) for v in range(n) for u in range(v)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph(n, [(p, v) for v, p in enumerate(parents, start=1)] + extra)


@settings(max_examples=80, deadline=None)
@given(_connected_graphs(), st.data())
def test_memo_search_matches_the_reference_search(G, data):
    subsets = st.sets(st.sampled_from(range(G.order)))
    horizon = data.draw(st.integers(0, 10), label="horizon")
    forbidden = data.draw(subsets, label="forbidden")
    cop_forbidden = data.draw(subsets, label="cop_forbidden")
    window = data.draw(st.integers(1, 4), label="window")
    expect = _RefMemoSearch(G, horizon, forbidden, cop_forbidden, window).run()
    got = adversarial_search(
        G, horizon, forbidden=sorted(forbidden), cop_forbidden=sorted(cop_forbidden),
        revisit_window=window, budget=None,
    )
    assert got.value is expect


@pytest.mark.parametrize("G", [cycle_graph(k) for k in (4, 5, 6, 7)] + [petersen_graph()],
                         ids=["C4", "C5", "C6", "C7", "petersen"])
def test_memo_search_matches_the_reference_search_on_cycles(G):
    # Flights around a cycle make the window bind after revisits, which
    # small random graphs rarely do.
    for h in range(2, 13):
        for window in (1, 2, 3, 4):
            expect = _RefMemoSearch(G, h, (), (), window).run()
            got = adversarial_search(G, h, revisit_window=window, budget=None)
            assert got.value is expect, (h, window)


@settings(max_examples=40, deadline=None)
@given(_connected_graphs(), st.data())
def test_survival_dp_matches_the_memo_search_at_small_horizons(G, data):
    # Below horizon 2 the game is the placement: every allowed cop start
    # must leave an allowed robber start elsewhere. A window of h + 1
    # never binds.
    subsets = st.sets(st.sampled_from(range(G.order)))
    forbidden = sorted(data.draw(subsets, label="forbidden"))
    cop_forbidden = sorted(data.draw(subsets, label="cop_forbidden"))
    for h in range(4):
        dp = adversarial_search(G, h, forbidden=forbidden, cop_forbidden=cop_forbidden, budget=None)
        memo = adversarial_search(G, h, forbidden=forbidden, cop_forbidden=cop_forbidden,
                                  revisit_window=h + 1, budget=None)
        assert dp.value is memo.value, h


def test_survival_dp_placement_rule_pinned():
    P3 = path_graph(3)
    for h in range(4):
        # the robber's only start, 2, is closed to the cop
        assert adversarial_search(P3, h, forbidden=[0, 1], cop_forbidden=[2]).value is True
        # a cop started at 2 leaves the robber nowhere to start
        assert adversarial_search(P3, h, forbidden=[0, 1]).value is False
        # with every cop start forbidden the robber wins by default
        assert adversarial_search(P3, h, forbidden=[0, 1, 2], cop_forbidden=[0, 1, 2]).value is True


@pytest.mark.parametrize("G, h, window", [(cycle_graph(5), 12, 3), (cycle_graph(6), 8, 3)],
                         ids=["C5_window3", "C6_window3"])
def test_memo_budget_counts_states_entered(G, h, window):
    full = adversarial_search(G, h, revisit_window=window, budget=None)
    assert full.value is not None and full.explored > 0
    assert adversarial_search(G, h, revisit_window=window, budget=0).value is None
    for budget in range(full.explored + 3):
        cut = adversarial_search(G, h, revisit_window=window, budget=budget)
        assert cut.explored <= budget
        if budget >= full.explored:
            assert (cut.value, cut.explored) == (full.value, full.explored)
        else:
            assert cut.value in (None, full.value)


def test_fixed_cop_search():
    # Some robber play survives a fixed cop through round h >= 2 exactly
    # when the profile has a robbed round h - 1. Against the optimal cop
    # on P5 the last one is round 2, whatever the horizon; on C4 the
    # robber lasts every horizon.
    P5 = path_graph(5)
    cop = TableCop(decide_cop_win(P5))
    for h in (59, 60):
        assert max(estimate_timing(P5, cop, h).rob_latest) == 2
    C4 = cycle_graph(4)
    cop4 = TableCop(decide_cop_win(C4))
    for h in (59, 60):
        assert max(estimate_timing(C4, cop4, h).rob_latest) == h - 1


def test_timing_single_vertex():
    G = Graph(1)
    order = find_dominating_order(G)
    cop = ProtectiveCop(RetractionFamily(G, order))
    prof = estimate_timing(G, cop, horizon=8)
    assert prof.cop_earliest == (0,)
    assert prof.rob_latest == (-1,)
    rec = order_from_protective(G, prof)
    assert rec.sequence == (0,)


def test_timing_rejects_a_negative_horizon():
    P3 = path_graph(3)
    cop = TableCop(decide_cop_win(P3))
    with pytest.raises(ValueError, match="horizon must be at least 0"):
        estimate_timing(P3, cop, -1)
    assert estimate_timing(P3, cop, 0).cop_earliest == (-1, 0, -1)


def test_timing_p3_protective_profile():
    P3 = path_graph(3)
    from pursuit import Order

    fam = RetractionFamily(P3, Order((0, 1, 2), {1: 0, 2: 1}, "constructing"))
    prof = estimate_timing(P3, ProtectiveCop(fam), horizon=12)
    assert prof.cop_earliest == (0, 2, 4)
    assert prof.rob_latest[0] == -1
    assert all(prof.rob_latest[v] <= 2 * v - 1 for v in (1, 2))
    rec = order_from_protective(P3, prof)
    assert rec.sequence == (0, 1, 2)


def test_truncated_profile_refused():
    P5 = path_graph(5)
    prof = _protective_profile(P5, find_dominating_order(P5), 20, budget=1)
    assert prof.truncated
    with pytest.raises(ProtectiveContradictionError, match="profile truncated: raise the budget"):
        order_from_protective(P5, prof)


def test_non_protective_profile_raises():
    C4 = cycle_graph(4)
    cop = TableCop(decide_cop_win(C4))
    prof = estimate_timing(C4, cop, horizon=40)
    with pytest.raises(ProtectiveContradictionError):
        order_from_protective(C4, prof)


def test_protective_roundtrip_on_samples():
    samples = [random_constructible(10, 900 + seed) for seed in range(8)]
    samples += [(G, find_dominating_order(G)) for G in (
        path_graph(200),
        random_constructible(120, 41)[0],
        leafless_tree_ball(3, 6).graph,
        ball(wheel_tree(), 5).graph,
    )]
    for G, shipped in samples:
        order, _ = naturalize_order(G, shipped)
        fam = RetractionFamily(G, order)
        prof = estimate_timing(G, ProtectiveCop(fam), horizon=4 * G.order)
        for rank, v in enumerate(order.sequence):
            assert prof.cop_earliest[v] == 2 * rank
            assert prof.rob_latest[v] < prof.cop_earliest[v]
        rec = order_from_protective(G, prof)
        assert verify_dominating_order(G, rec)


def test_star_and_complete_solver_sanity():
    assert decide_cop_win(star_graph(6)).cop_win
    assert decide_cop_win(complete_graph(5)).cop_win


def _protective_profile(G, order, horizon, **kw):
    return estimate_timing(G, ProtectiveCop(RetractionFamily(G, order)), horizon, **kw)


def test_timing_profiles_pinned():
    P5 = path_graph(5)
    prof = _protective_profile(P5, find_dominating_order(P5), 20)
    assert prof.rob_latest == (6, 4, 2, -1, -1)
    assert prof.cop_earliest == (8, 6, 4, 2, 0)
    assert not prof.truncated

    G, shipped = random_constructible(12, 5)
    order, _ = naturalize_order(G, shipped)
    prof = _protective_profile(G, order, 48)
    assert prof.rob_latest == (-1, -1, 4, 12, 2, 6, 8, 16, 18, 10, 14, 20)
    assert prof.cop_earliest == (0, 2, 6, 14, 4, 8, 10, 18, 20, 12, 16, 22)
    assert not prof.truncated

    # a horizon too short to reach every vertex, and a budget the first layer exceeds
    short = _protective_profile(G, order, 7)
    assert short.rob_latest == (-1, -1, 4, 6, 2, 6, 6, 6, 6, 6, 6, 6)
    assert short.cop_earliest == (0, 2, 6, -1, 4) + (-1,) * 7
    cut = _protective_profile(G, order, 48, budget=5)
    assert cut.truncated
    assert cut.rob_latest == (-1,) * 12 and cut.cop_earliest == (0,) + (-1,) * 11


# -- the per-state walk as a reference oracle for the timing walk -----------


def _ref_reach(G, cop, horizon, budget=None):
    """The timing walk as first written: the same set walk, calling
    ``cop.move`` once per state and cop round."""
    n = G.order
    rob_latest = [-1] * n
    cop_earliest = [-1] * n
    c0 = cop.start(G)
    cop_earliest[c0] = 0
    layer = {(c0, r0) for r0 in range(n) if r0 != c0}
    nbhds = G.closed_neighborhoods()
    truncated = False
    t = 1
    while t <= horizon and layer:
        if budget is not None and len(layer) > budget:
            truncated = True
            break
        if t == horizon:
            break
        nxt = set()
        if t % 2 == 1:
            for c, r in sorted(layer):
                m = cop.move(G, c, r, t + 1)
                if cop_earliest[m] < 0:
                    cop_earliest[m] = t + 1
                if m != r:
                    rob_latest[r] = t
                    nxt.add((m, r))
        else:
            for c, r in layer:
                rob_latest[r] = t
                nxt.update((c, rp) for rp in nbhds[r] if rp != c)
        layer = nxt
        t += 1
    return TimingProfile(tuple(rob_latest), tuple(cop_earliest), horizon, truncated)


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as err:  # noqa: BLE001 - the exception is the result
        return (type(err).__name__, str(err))


def _assert_timing_matches_the_reference(G, cop, horizon, budget=None):
    got = _outcome(estimate_timing, G, cop, horizon, budget=budget)
    assert got == _outcome(_ref_reach, G, cop, horizon, budget)
    return got


COP_KINDS = ("protective", "chain", "recursive", "dismantling", "table")


def _cop_of_kind(kind, G, order, when_stuck="error"):
    if kind == "table":
        return TableCop(decide_cop_win(G))
    if kind == "recursive":
        return PrefixRecursiveCop(order)
    family = RetractionFamily(G, order)
    if kind == "protective":
        return ProtectiveCop(family)
    if kind == "dismantling":
        return DismantlingPursuitCop(family)
    return ChainPursuitCop(family, when_stuck=when_stuck)


@st.composite
def _cycle_graphs(draw, max_n):
    """The Petersen graph, or a cycle C4..C7 with random chords and
    pendant trees up to ``max_n`` vertices: mostly robber-win graphs,
    which ``_connected_graphs`` rarely draws."""
    k = draw(st.sampled_from([4, 5, 6, 7, "petersen"]), label="cycle")
    if k == "petersen":
        return petersen_graph()
    n = draw(st.integers(k, max(k, max_n)), label="n")
    parents = [draw(st.integers(0, v - 1)) for v in range(k, n)]
    chords = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2))
    edges = [(v, (v + 1) % k) for v in range(k)] + chords
    return Graph(n, edges + [(p, v) for v, p in enumerate(parents, start=k)])


@st.composite
def _graphs_and_cops(draw, max_n):
    """A Hypothesis graph, cop-win or not, and a cop of every kind. Cops
    that need an order get the peel's order or a random one: a shuffled
    sequence with random dominator entries, which may break its chains."""
    G = draw(_connected_graphs(max_n) | _cycle_graphs(max_n))
    n = G.order
    kind = draw(st.sampled_from(COP_KINDS), label="kind")
    flavor = {"protective": "constructing", "dismantling": "dismantling"}.get(kind)
    if flavor is None:
        flavor = draw(st.sampled_from(["constructing", "dismantling"]), label="flavor")
    order = (find_dominating_order if flavor == "constructing" else find_dismantling_order)(G)
    if order is None or draw(st.booleans(), label="random order"):
        vertex = st.integers(0, n - 1)
        dom = dict(order.dominator) if order else {}
        dom.update(draw(st.dictionaries(vertex, vertex, max_size=n), label="dominators"))
        seq = draw(st.permutations(order.sequence if order else range(n)), label="sequence")
        order = Order(tuple(seq), dom, flavor)
    when_stuck = draw(st.sampled_from(["error", "stay"]), label="when_stuck")
    return G, _cop_of_kind(kind, G, order, when_stuck)


@settings(max_examples=40, deadline=None)
@given(_graphs_and_cops(max_n=10), st.data())
def test_timing_walk_matches_the_reference_walk(case, data):
    G, cop = case
    horizon = data.draw(st.integers(0, 3 * G.order), label="horizon")
    budget = data.draw(st.none() | st.integers(0, G.order ** 2), label="budget")
    _assert_timing_matches_the_reference(G, cop, horizon, budget)


class _MoveOnly:
    """A cop with only ``start`` and ``move``, all that ``play`` asks for."""

    def __init__(self, cop):
        self.start, self.move = cop.start, cop.move


@pytest.mark.parametrize("kind", COP_KINDS)
def test_timing_walk_matches_the_reference_walk_on_constructible_graphs(kind):
    for n, seed in ((12, 5), (24, 6), (40, 7)):
        G, shipped = random_constructible(n, seed)
        order, _ = naturalize_order(G, shipped)
        if kind == "dismantling":
            order = find_dismantling_order(G)
        cop = _cop_of_kind(kind, G, order)
        for budget in (None, n, 4 * n):
            got = _assert_timing_matches_the_reference(G, cop, 4 * n, budget)
            assert got[0] == "ok"
            assert _outcome(estimate_timing, G, _MoveOnly(cop), 4 * n, budget=budget) == got


def test_protective_row_cache_matches_protective_move():
    # the cop keeps the table row of the round it last moved in; every
    # call must still return or raise exactly what protective_move does;
    # on path(300) rounds and robbers pass 256, past CPython's cached ints
    P6, P300 = path_graph(6), path_graph(300)
    G12, shipped = random_constructible(12, 5)
    cases = [
        (P6, naturalize_order(P6, find_dominating_order(P6))[0]),
        (G12, naturalize_order(G12, shipped)[0]),
    ] + [  # the broken P4 orders of the test below
        (path_graph(4), Order((0, 1, 2, 3), dominator, "constructing"))
        for dominator in ({1: 0, 2: 3, 3: 2}, {1: 0, 3: 2})
    ] + [(P300, naturalize_order(P300, find_dominating_order(P300))[0])]
    rng = random.Random(24)
    for G, order in cases:
        family = RetractionFamily(G, order)
        cop = ProtectiveCop(family)
        n = G.order
        rounds = list(range(-2, 2 * n + 4))
        rng.shuffle(rounds)
        for round in rounds * 2:
            for r in rng.sample(range(-2, n + 2), min(n + 4, 24)):  # all robbers up to n = 20
                want = _outcome(protective_move, family, r, round)
                for _ in range(2):
                    assert _outcome(cop.move, G, 0, r, round) == want


def test_timing_walk_raises_what_the_reference_walk_raises():
    # broken chains leave -1 entries in the protective cop's table rows
    P4 = path_graph(4)
    for dominator, error in (
        ({1: 0, 2: 3, 3: 2}, "dominator cycle through vertex"),
        ({1: 0, 3: 2}, "never drops below rank"),
    ):
        cop = ProtectiveCop(RetractionFamily(P4, Order((0, 1, 2, 3), dominator, "constructing")))
        got = _assert_timing_matches_the_reference(P4, cop, 16)
        assert got[0] == InvalidOrderError.__name__ and error in got[1]
    # chain pursuit on a dismantling order, whose chains run upwards
    P5 = path_graph(5)
    cop = ChainPursuitCop(RetractionFamily(P5, find_dismantling_order(P5)))
    got = _assert_timing_matches_the_reference(P5, cop, 20)
    assert got[0] == StrategyInapplicableError.__name__


def test_timing_walk_raises_the_error_of_its_least_failing_state():
    # states (2, 1) and (2, 3) both fail in round 2, and (2, 1) comes first
    P4 = path_graph(4)
    cop = ProtectiveCop(RetractionFamily(P4, Order((2, 0, 1, 3), {}, "constructing")))
    with pytest.raises(InvalidOrderError) as err:
        estimate_timing(P4, cop, 2)
    assert str(err.value) == "chain of 1 never drops below rank 2: broken order"


def test_timing_walk_matches_the_reference_walk_at_benchmark_scale():
    # the largest long_capture trees; a budget of n cuts the wheel_tree
    # walks mid-walk and lets the tree walks finish
    tree, wheel = leafless_tree_ball(3, 6).graph, ball(wheel_tree(), 5).graph
    cases = [(wheel, TableCop(decide_cop_win(wheel)))]
    for G in (tree, wheel):
        order, _ = naturalize_order(G, find_dominating_order(G))
        cases.append((G, ProtectiveCop(RetractionFamily(G, order))))
    truncated = set()
    for G, cop in cases:
        for budget in (None, G.order):
            kind, profile = _assert_timing_matches_the_reference(G, cop, 4 * G.order, budget)
            assert kind == "ok" and max(profile.cop_earliest) > 0
            truncated.add(profile.truncated)
    assert truncated == {False, True}


@settings(max_examples=40, deadline=None)
@given(_graphs_and_cops(max_n=9))
def test_accepted_protective_profiles_come_from_cop_win_graphs(case):
    # Whatever cop made the profile, an order recovered from it is a
    # dominating order, so the graph is cop-win.
    G, cop = case
    try:
        profile = estimate_timing(G, cop, 4 * G.order)
        recovered = order_from_protective(G, profile)
    except PursuitError:  # a rule undefined on its order, or a profile refused
        return
    assert decide_cop_win(G).cop_win
    assert verify_dominating_order(G, recovered)


# -- checks from the game's theory at sizes the loop oracle cannot reach ----


def test_path_tables_match_closed_form():
    # On a path the robber runs to the far end and waits; with the cop to
    # move, an adjacent robber is caught at once. At n = 400 this also keeps
    # the table kernel away from per-ply n^3 work, which would take minutes.
    n = 400
    table = decide_cop_win(path_graph(n))
    c, r = np.indices((n, n))
    far = np.where(r > c, n - 1 - c, c)
    dr = np.where(r == c, 0, 2 * far)
    dc = np.where(r == c, 0, np.where(abs(r - c) == 1, 1, 2 * far - 1))
    assert np.array_equal(table.robber_dist, dr)
    assert np.array_equal(table.cop_dist, dc)
    assert table.cop_win and table.best_cop_start() == (n - 1) // 2


def _survival_threshold(table) -> float:
    """The smallest horizon by which the cop forces capture: min over cop
    starts of 1 + the worst robber start, a state the cop cannot force
    counting as infinite."""
    d = table.cop_dist.astype(float)
    d[d < 0] = np.inf
    np.fill_diagonal(d, -np.inf)
    return float((1 + d.max(axis=1)).min())


@pytest.mark.parametrize("G", [
    pytest.param(path_graph(30), id="path(30)"),
    pytest.param(random_constructible(40, 17)[0], id="random_constructible(40)"),
    pytest.param(random_connected_graph(30, 23), id="random_connected(30)"),
    pytest.param(leafless_tree_ball(3, 4).graph, id="tree(3,4)"),
    pytest.param(ball(wheel_tree(), 3).graph, id="wheel_tree(3)"),
    pytest.param(cycle_graph(9), id="C9"),
    pytest.param(petersen_graph(), id="petersen"),
])
def test_survival_threshold_matches_tables(G):
    threshold = _survival_threshold(decide_cop_win(G))
    for h in range(2, 2 * G.order + 4):
        assert adversarial_search(G, h, budget=None).value == (h < threshold), h


@pytest.mark.parametrize("G", [
    *(pytest.param(random_constructible(n, 40 + n)[0], id=f"random_constructible({n})")
      for n in (50, 120, 200)),
    *(pytest.param(random_connected_graph(n, 60 + n), id=f"random_connected({n})")
      for n in (40, 90, 150)),
    # edge density 0.99, cop-win; the three above are robber-win
    pytest.param(random_connected_graph(100, 17), id="random_connected(100,dense)"),
    pytest.param(leafless_tree_ball(3, 6).graph, id="tree(3,6)"),
    pytest.param(ball(wheel_tree(), 5).graph, id="wheel_tree(5)"),
])
def test_peel_finds_order_iff_cop_win(G):
    assert (find_dominating_order(G) is not None) == decide_cop_win(G).cop_win
