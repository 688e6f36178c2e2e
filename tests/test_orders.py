import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    Graph,
    Order,
    GraphFormatError,
    InvalidOrderError,
    ProtectiveContradictionError,
    ball,
    decide_cop_win,
    depth_table,
    dominates,
    find_dismantling_order,
    find_dominating_order,
    naturalize_order,
    order_from_protective,
    verify_dismantling_order,
    verify_dominating_order,
)
from pursuit.generators import (
    complete_graph,
    cycle_graph,
    double_wheel,
    hubbed_path,
    leafless_tree_ball,
    path_graph,
    random_connected_graph,
    random_constructible,
    star_graph,
    wheel_tree,
)
from pursuit import orders
from pursuit.orders import _greedy_peel, dominators_within, order_from_text, order_to_text
from pursuit.solver import TimingProfile


def test_single_vertex_order():
    order = find_dominating_order(Graph(1))
    assert order.sequence == (0,) and order.dominator == {}


def test_c4_has_no_order_and_oracle_agrees():
    C4 = cycle_graph(4)
    assert find_dominating_order(C4) is None
    assert find_dismantling_order(C4) is None
    assert not decide_cop_win(C4).cop_win


def test_block_shipped_order_verifies():
    G, order = double_wheel()
    assert verify_dominating_order(G, order)
    found = find_dominating_order(G)
    assert found is not None and verify_dominating_order(G, found)


def test_bad_path_order_fails_at_rank_one():
    P3 = path_graph(3)
    res = verify_dominating_order(P3, Order((0, 2, 1), {2: 0, 1: 0}, "constructing"))
    assert not res and res.where == 1 and res.detail == "0 does not dominate 2"


def test_verify_rejects_non_permutation():
    with pytest.raises(InvalidOrderError):
        verify_dominating_order(path_graph(3), Order((0, 1, 1), {1: 0}, "constructing"))


def test_verify_rejects_a_dominator_recorded_for_the_terminal():
    # Chain walks follow a terminal entry, so every chain would cycle
    # through it; verification must not pass such a map.
    P3 = path_graph(3)
    for order in (
        order_from_text("order 0 1 2\ndelta 0:0 1:0 2:1\n"),
        Order((0, 1, 2), {0: 1, 1: 0, 2: 1}, "constructing"),
    ):
        with pytest.raises(InvalidOrderError, match="terminal vertex 0 has a recorded dominator"):
            verify_dominating_order(P3, order)
    dismantling = Order((2, 1, 0), {2: 1, 1: 0, 0: 1}, "dismantling")
    with pytest.raises(InvalidOrderError, match="terminal vertex 0 has a recorded dominator 1"):
        verify_dismantling_order(P3, dismantling)
    # the same maps without the terminal entry verify
    assert verify_dominating_order(P3, Order((0, 1, 2), {1: 0, 2: 1}, "constructing"))
    assert verify_dismantling_order(P3, Order((2, 1, 0), {2: 1, 1: 0}, "dismantling"))


def test_dismantling_k3_present():
    order = find_dismantling_order(complete_graph(3))
    assert order is not None and verify_dismantling_order(complete_graph(3), order)


def test_hubbed_path_truncation_defect_is_exactly_the_last_path_vertex():
    # No finite instance admits a valid dismantling order (the graph
    # retracts onto a 4-cycle), and the truncated infinite order breaks
    # precisely where the path ends.
    built = hubbed_path(9)
    order = built.dismantling
    res = verify_dismantling_order(built.graph, order)
    assert not res and (res.where, res.detail) == (9, "vertex 9 has no dominator")
    # every other rank's recorded dominator dominates it inside its suffix
    masks = built.graph.closed_masks()
    region = (1 << len(order)) - 1
    for rank, v in enumerate(order.sequence[:-1]):
        if rank != 9:
            assert dominators_within(masks, region, v) >> order.dominator[v] & 1, rank
        region ^= 1 << v
    assert find_dismantling_order(built.graph) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_found_orders_verify_and_flavors_agree(n, seed):
    G = random_connected_graph(n, seed)
    dom = find_dominating_order(G)
    dis = find_dismantling_order(G)
    assert (dom is None) == (dis is None)
    if dom is not None:
        assert verify_dominating_order(G, dom)
        assert verify_dismantling_order(G, dis)


def test_depth_table_on_block():
    G, order = double_wheel()
    depth = depth_table(order)
    a = {i: G.vertex_by_label(f"a_{i}") for i in range(5)}
    b = {i: G.vertex_by_label(f"b_{i}") for i in range(5)}
    assert depth[a[0]] == 0
    assert depth[a[2]] == 5  # a_2 -> b_2 -> b_1 -> b_0 -> b_4 -> a_0
    assert depth[b[4]] == 1


def test_depth_table_on_chain_and_cycle_guard():
    order = Order((0, 1, 2, 3), {1: 0, 2: 1, 3: 2}, "constructing")
    assert depth_table(order) == (0, 1, 2, 3)
    looped = Order((0, 1, 2), {1: 2, 2: 1}, "constructing")
    with pytest.raises(InvalidOrderError):
        depth_table(looped)


def test_depth_table_stuck_chain():
    order = Order((0, 1, 2), {0: 1}, "dismantling")  # vertex 1 stuck, 2 terminal
    with pytest.raises(InvalidOrderError):
        depth_table(order)
    assert depth_table(order, strict=False) == (None, None, 0)


def test_naturalize_path_is_identity():
    P5 = path_graph(5)
    order = Order((0, 1, 2, 3, 4), {i: i - 1 for i in range(1, 5)}, "constructing")
    nat, levels = naturalize_order(P5, order)
    assert nat.sequence == order.sequence
    assert levels == (0, 1, 2, 3, 4)


def test_naturalize_star_all_leaves_level_one():
    S = star_graph(4)
    order = Order((0, 1, 2, 3, 4), {i: 0 for i in range(1, 5)}, "constructing")
    nat, levels = naturalize_order(S, order)
    assert nat.sequence == (0, 1, 2, 3, 4)
    assert levels == (0, 1, 1, 1, 1)


def test_naturalize_rejects_invalid_input():
    with pytest.raises(InvalidOrderError):
        naturalize_order(path_graph(3), Order((0, 2, 1), {2: 0, 1: 0}, "constructing"))


def test_order_file_roundtrip_both_flavors():
    G, order = double_wheel()
    again = order_from_text(order_to_text(order))
    assert again.flavor == "constructing"
    assert again.sequence == order.sequence and again.dominator == order.dominator

    built = hubbed_path(5)
    text = order_to_text(built.dismantling)
    parsed = order_from_text(text)
    assert parsed.flavor == "dismantling"
    assert parsed.sequence == built.dismantling.sequence


def test_order_file_roundtrip_keeps_flavor():
    G, _ = double_wheel()
    for order in (find_dominating_order(G), find_dismantling_order(G)):
        again = order_from_text(order_to_text(order))
        assert again == order and again.flavor == order.flavor
    # the dominators' direction alone gives the flavour
    assert order_from_text("order 0 1 2\ndelta 1:0 2:1\n").flavor == "constructing"
    assert order_from_text("order 0 1 2\ndelta 0:1 1:2\n").flavor == "dismantling"


@pytest.mark.parametrize("text", [
    "order 0 1 2\ndelta 2:99\n",   # dominator outside the sequence
    "order 0 1 2\ndelta 99:0\n",   # dominated vertex outside the sequence
    "order 0 1 x\n",                # non-integer vertex
    "order 0 1 2\ndelta 1-0\n",    # malformed pair
    "order 0 1 2\ndelta 1:y\n",    # non-integer dominator
    "order 0 1 2\norder 2 1 0\ndelta 1:2 0:1\n",  # a second order line
    "order 0 1 2\ndelta 1:0 2:0 2:1\n",            # a second dominator for 2
    "order 0 1 2\ndelta 2:1\ndelta 1:0 2:1\n",     # ... on another line
    "order 0 1 2\ndelta 1:0 0:2\n",              # dominators point both ways
], ids=["dominator_outside", "vertex_outside", "bad_vertex", "bad_pair", "bad_dominator",
        "two_orders", "two_dominators", "two_dominators_two_lines", "mixed_directions"])
def test_bad_order_files_rejected(text):
    with pytest.raises(GraphFormatError):
        order_from_text(text)


# -- differential tests of the bitmask domination test -----------------------
#
# The set-based peel, verifier and order-recovery loop that the bitmask
# test replaced, kept as reference oracles.


def _open_sets(G):
    return [set(G.neighbors(v) - {v}) for v in range(G.order)]


def _ref_peel(G):
    alive = set(range(G.order))
    nbrs = {v: set(G.neighbors(v) - {v}) for v in alive}
    removed = []
    dominator_of = {}
    while len(alive) > 1:
        found = None
        for v in sorted(alive):
            closed_v = (nbrs[v] & alive) | {v}
            for u in sorted(nbrs[v] & alive):
                if closed_v <= (nbrs[u] & alive) | {u}:
                    found = (v, u)
                    break
            if found:
                break
        if found is None:
            return None
        v, u = found
        removed.append(v)
        dominator_of[v] = u
        alive.remove(v)
        for w in nbrs[v]:
            nbrs[w].discard(v)
    return removed, dominator_of, alive.pop()


def _ref_dominates_within(nbrs, region, u, v):
    if u == v or u not in region or u not in nbrs[v]:
        return False
    return (nbrs[v] & region) - {u} <= nbrs[u]


def _ref_verify(G, sequence, dom, suffix):
    nbrs = _open_sets(G)
    n = len(sequence)
    ranks = range(0, n - 1) if suffix else range(1, n)
    region = set(sequence) if suffix else {sequence[0]}
    for rank in ranks:
        v = sequence[rank]
        if suffix:
            if rank > 0:
                region.discard(sequence[rank - 1])
        else:
            region.add(v)
        d = dom.get(v)
        if d is None:
            return (False, rank, f"vertex {v} has no dominator")
        if d not in region:
            side = "suffix" if suffix else "prefix"
            return (False, rank, f"dominator {d} of {v} outside its {side}")
        if not _ref_dominates_within(nbrs, region, d, v):
            return (False, rank, f"{d} does not dominate {v}")
    return (True, None, "")


def _ref_recovered_dominators(G, sequence):
    nbrs = _open_sets(G)
    region = {sequence[0]}
    dominator = {}
    for v in sequence[1:]:
        region.add(v)
        for u in sorted(region):
            if _ref_dominates_within(nbrs, region, u, v):
                dominator[v] = u
                break
        else:
            return f"vertex {v} undominated in its recovered prefix"
    return dominator


def _ref_dominates_table(G):
    nbrs = _open_sets(G)
    n = G.order
    return [[u != v and u in nbrs[v] and nbrs[v] - {u} <= nbrs[u] for v in range(n)]
            for u in range(n)]


def _assert_verify_matches(G, sequence, dom):
    for suffix, verify in ((False, verify_dominating_order), (True, verify_dismantling_order)):
        flavor = "dismantling" if suffix else "constructing"
        terminal = sequence[-1 if suffix else 0]
        if terminal in dom:
            # rejected before any rank is checked; the reference never looks
            # at the terminal, so compare the rest of the map
            with pytest.raises(InvalidOrderError, match=f"terminal vertex {terminal} has"):
                verify(G, Order(sequence, dom, flavor))
        rest = {v: d for v, d in dom.items() if v != terminal}
        got = verify(G, Order(sequence, rest, flavor))
        want = _ref_verify(G, tuple(sequence), rest, suffix)
        assert (got.ok, got.where, got.detail) == want, (sequence, rest, flavor)


def _assert_recovery_matches(G, rob_latest):
    # A profile whose cop arrives one round after the robber leaves, so the
    # protective requirements hold and only the dominator search decides.
    n = G.order
    profile = TimingProfile(tuple(rob_latest), tuple(t + 1 for t in rob_latest), 2 * n + 2)
    sequence = tuple(sorted(range(n), key=lambda v: (rob_latest[v], v)))
    want = _ref_recovered_dominators(G, sequence)
    if isinstance(want, str):
        with pytest.raises(ProtectiveContradictionError) as err:
            order_from_protective(G, profile)
        assert str(err.value) == want
        return
    order = order_from_protective(G, profile)
    assert (order.sequence, order.dominator) == (sequence, want)
    assert verify_dominating_order(G, order)


def _assert_domination_matches(G, rng, orders=3):
    n = G.order
    assert _greedy_peel(G) == _ref_peel(G)
    for _ in range(orders):
        sequence = list(range(n))
        rng.shuffle(sequence)
        # dominator maps that name vertices outside 0..n-1, or none at all
        dom = {v: rng.choice((rng.randrange(-2, n + 2), rng.randrange(n)))
               for v in sequence if rng.random() < 0.9}
        _assert_verify_matches(G, sequence, dom)
        _assert_recovery_matches(G, [rng.randrange(-1, n) for _ in range(n)])
    peeled = _ref_peel(G)
    if peeled is not None:
        removed, dominator_of, survivor = peeled
        _assert_verify_matches(G, [survivor, *reversed(removed)], dominator_of)
        _assert_verify_matches(G, [*removed, survivor], dominator_of)
        _assert_recovery_matches(G, [0] * n)


@st.composite
def _graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dense = draw(st.booleans())  # complement the draw for dense graphs
    return Graph(n, [p for p, k in zip(pairs, keep) if k != dense])


@settings(max_examples=150, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_bitmask_domination_matches_sets_on_hypothesis_graphs(G, rng):
    _assert_domination_matches(G, rng)
    n = G.order
    got = [[dominates(G, u, v) for v in range(n)] for u in range(n)]
    assert got == _ref_dominates_table(G)


def _dense_seed(n, lo):
    """Lowest seed whose ``random_connected_graph(n, seed)`` draws edge
    density p >= lo (it draws n - 1 tree parents, then p)."""
    for seed in range(100_000):
        rng = random.Random(seed)
        for v in range(1, n):
            rng.randrange(v)
        if rng.random() >= lo:
            return seed


def _relabelled(G, rng):
    perm = list(range(G.order))
    rng.shuffle(perm)
    return Graph(G.order, [(perm[u], perm[v]) for u, v in G.edges()])


@pytest.mark.parametrize("n, kind, seed", [
    (20, "random", 0), (60, "random", 1), (120, "random", 2), (200, "random", 3),
    (120, "random", "dense"), (200, "random", "dense"),
    (30, "constructible", 0), (90, "constructible", 1), (200, "constructible", 2),
    (120, "cocktail", 0),
])
def test_bitmask_domination_matches_sets_on_seeded_graphs(n, kind, seed):
    rng = random.Random(f"{n}-{kind}-{seed}")
    if kind == "random":
        seed = _dense_seed(n, 0.99) if seed == "dense" else seed
        graphs = [random_connected_graph(n, seed)]
    elif kind == "cocktail":
        # K_n minus a perfect matching: density above 0.99, and no vertex
        # is dominated, so the peel is stuck at once
        G = Graph(n, [(u, v) for v in range(n) for u in range(v) if v - u != n // 2])
        graphs = [_relabelled(G, rng)]
    else:
        G, _ = random_constructible(n, seed)
        graphs = [G, _relabelled(G, rng)]
    for G in graphs:
        _assert_domination_matches(G, rng, orders=1)


def test_dense_seeds_are_dense():
    for n in (120, 200):
        G = random_connected_graph(n, _dense_seed(n, 0.99))
        assert G.edge_count() >= 0.98 * n * (n - 1) / 2


@pytest.mark.parametrize("G", [
    pytest.param(_relabelled(path_graph(200), random.Random(0)), id="path(200)"),
    pytest.param(leafless_tree_ball(3, 5).graph, id="tree(3,5)"),
    pytest.param(ball(wheel_tree(), 5).graph, id="wheel_tree(5)"),
    # density 0.84: the peel removes two vertices, then gets stuck
    pytest.param(random_connected_graph(60, 39), id="dense(60)"),
])
def test_greedy_peel_retests_only_the_removed_vertex_neighbours(G, monkeypatch):
    # each vertex is tested once, then at most once more per removed
    # neighbour: n + m tests, where a rescan from vertex 0 after every
    # removal makes O(n^2)
    calls = []

    def counting(masks, region, v):
        calls.append(v)
        return dominators_within(masks, region, v)

    monkeypatch.setattr(orders, "dominators_within", counting)
    peeled = _greedy_peel(G)
    monkeypatch.undo()
    assert len(calls) <= G.order + G.edge_count()
    assert peeled == _ref_peel(G)
    order = find_dismantling_order(G)
    assert (order is None) == (peeled is None)
    assert order is None or verify_dismantling_order(G, order)


@pytest.mark.parametrize("d", [-1, -5, 4, 99, "x"])
def test_dominator_outside_the_graph_is_outside_its_prefix(d):
    G = path_graph(4)
    for flavor, verify, side in (("constructing", verify_dominating_order, "prefix"),
                                 ("dismantling", verify_dismantling_order, "suffix")):
        dom = {0: 1, 1: d, 2: 3, 3: 2}
        del dom[0 if flavor == "constructing" else 3]  # the terminal records none
        res = verify(G, Order((0, 1, 2, 3), dom, flavor))
        assert not res and res.where == 1
        assert res.detail == f"dominator {d} of 1 outside its {side}"


def test_dominators_within_respects_region_and_excludes_v():
    G = path_graph(4)
    masks = G.closed_masks()
    assert masks == (0b0011, 0b0111, 0b1110, 0b1100)
    everything = 0b1111
    assert dominators_within(masks, everything, 0) == 0b0010
    assert dominators_within(masks, everything, 1) == 0
    # inside {1, 2, 3}, vertex 1 is a leaf under 2; vertex 0 is not a candidate
    assert dominators_within(masks, 0b1110, 1) == 0b0100
    assert dominators_within(masks, 0b0010, 1) == 0


def test_numpy_integer_sequences_verify_like_ints():
    # each vertex's dominator is its predecessor (constructing) or its
    # successor (dismantling) in the sequence
    G = path_graph(70)
    for seq in (np.arange(70), np.arange(70)[::-1], np.array([69, *range(69)])):
        ints = [int(v) for v in seq]
        for flavor, verify, step in (("constructing", verify_dominating_order, -1),
                                     ("dismantling", verify_dismantling_order, 1)):
            pairs = [(i, i + step) for i in range(70) if 0 <= i + step < 70]
            got = verify(G, Order(seq, {seq[i]: seq[j] for i, j in pairs}, flavor))
            want = verify(G, Order(ints, {ints[i]: ints[j] for i, j in pairs}, flavor))
            assert (got.ok, got.where, got.detail) == (want.ok, want.where, want.detail)
    assert verify_dominating_order(G, Order(np.arange(70), {v: v - 1 for v in range(1, 70)},
                                            "constructing"))


# -- the memoised chase as a reference for depth_table ----------------------


def _ref_depth_table(order, strict=True):
    """Depths by chasing each dominator chain until a vertex whose depth is
    known, the terminal's (0) included."""
    terminal = order.terminal()
    depth = {terminal: 0}

    def chase(v):
        trail = []
        cur = v
        while cur not in depth:
            if cur in trail:
                raise InvalidOrderError(f"dominator cycle through vertex {cur}")
            trail.append(cur)
            nxt = order.dominator.get(cur)
            if nxt is None:
                for w in trail:
                    depth[w] = None
                return
            cur = nxt
        base = depth[cur]
        for i, w in enumerate(reversed(trail), start=1):
            depth[w] = None if base is None else base + i

    for v in order.sequence:
        chase(v)
    if strict and any(depth[v] is None for v in order.sequence):
        stuck = [v for v in order.sequence if depth[v] is None]
        raise InvalidOrderError(f"dominator chain stuck at vertices {stuck}")
    return tuple(depth[v] for v in range(len(order.sequence)))


def _depth_outcome(fn, order, strict):
    try:
        return ("ok", fn(order, strict=strict))
    except InvalidOrderError as err:
        return ("raises", str(err))


DEPTH_ORDER_KINDS = ("valid", "shuffled", "two_cycle", "stuck", "outside")


@st.composite
def _depth_orders(draw):
    """Orders from the peel with their flavour's terminal, broken one of
    several ways; the terminal never gets a dominator of its own."""
    n = draw(st.integers(1, 12))
    G, order = random_constructible(n, draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        order = find_dismantling_order(G)
    seq, dom = list(order.sequence), dict(order.dominator)
    kind = draw(st.sampled_from(DEPTH_ORDER_KINDS))
    if kind == "shuffled":
        seq = draw(st.permutations(seq))
    terminal = seq[0 if order.flavor == "constructing" else -1]
    others = [v for v in seq if v != terminal]
    if kind == "two_cycle" and len(others) >= 2:
        a, b = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        dom.update({a: b, b: a})
    elif kind == "stuck" and others:
        for v in draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
            dom.pop(v, None)
    elif kind == "outside" and others:
        for v in draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
            dom[v] = draw(st.sampled_from([-1, n, n + 5]))
    dom.pop(terminal, None)
    return Order(tuple(seq), dom, order.flavor)


@settings(max_examples=150, deadline=None)
@given(_depth_orders())
def test_depth_table_matches_the_memoised_chase(order):
    for strict in (True, False):
        got = _depth_outcome(depth_table, order, strict)
        assert got == _depth_outcome(_ref_depth_table, order, strict), (order, strict)


def test_depth_table_walks_on_past_a_terminal_with_its_own_dominator():
    # A dominator recorded for the terminal is followed like any other, so
    # a cycle through the terminal raises where the chase stopped at the
    # terminal. An order file can say this with a `t:t` entry.
    for order in (
        Order((0, 1, 2), {0: 0, 1: 0, 2: 1}, "constructing"),
        order_from_text("order 0 1 2\ndelta 0:0 1:0 2:1\n"),
        Order((0, 1, 2), {0: 2, 1: 0, 2: 1}, "constructing"),
    ):
        assert _ref_depth_table(order) == (0, 1, 2)
        with pytest.raises(InvalidOrderError, match="dominator cycle through vertex"):
            depth_table(order, strict=False)
    # without a cycle the terminal keeps its first index on every chain
    order = Order((1, 0, 2), {1: 0, 2: 1}, "constructing")
    assert depth_table(order, strict=False) == _ref_depth_table(order, strict=False) == (None, 0, 1)


def test_depth_table_raises_on_outside_chains_longer_than_the_order():
    # keys outside the graph can make a chain longer than the order; the
    # chase followed it to its end and found no terminal
    order = Order((0, 1, 2), {1: 0, 2: 7, 7: 8, 8: 9}, "constructing")
    assert _ref_depth_table(order, strict=False) == (0, 1, None)
    with pytest.raises(InvalidOrderError, match="dominator chain exceeds the graph order"):
        depth_table(order, strict=False)


def test_order_chain_is_cached_and_stops_at_the_first_sink():
    order = Order((0, 1, 2, 3), {1: 0, 2: 1, 3: 5}, "constructing")
    assert order.chain(2) == (2, 1, 0)
    assert order.chain(2) is order.chain(2)
    assert order.chain(3) == (3, 5)
    assert order.chain(9) == (9,)
    with pytest.raises(InvalidOrderError, match="dominator cycle through vertex 1"):
        Order((0, 1, 2), {1: 2, 2: 1}, "constructing").chain(1)
