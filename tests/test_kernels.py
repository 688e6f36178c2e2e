import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit import _kernels as K
from pursuit.generators import (
    complete_graph,
    cycle_graph,
    double_wheel,
    hubbed_path,
    leafless_tree_ball,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_constructible,
    star_graph,
    wheel_tree,
)
from pursuit.graphs import Graph, ball
from pursuit.solver import SurviveWitness

# -- reference oracles: the kernels as plain-Python loops over states --------


def _tables_loops(adj):
    n = adj.shape[0]
    inf = 4 * n * n + 16
    dc = np.full((n, n), inf, dtype=np.int32)
    dr = np.full((n, n), inf, dtype=np.int32)
    changed = True
    while changed:
        changed = False
        for c in range(n):
            for r in range(n):
                if c == r:
                    continue
                best = inf
                for cp in range(n):
                    if adj[c, cp]:
                        val = 0 if cp == r else dr[cp, r]
                        if val < best:
                            best = val
                if best < inf and best + 1 < dc[c, r]:
                    dc[c, r] = best + 1
                    changed = True
                worst = 0
                for rp in range(n):
                    if adj[r, rp]:
                        val = 0 if rp == c else dc[c, rp]
                        if val > worst:
                            worst = val
                if worst < inf and worst + 1 < dr[c, r]:
                    dr[c, r] = worst + 1
                    changed = True
    for v in range(n):
        dc[v, v] = 0
        dr[v, v] = 0
    return dc, dr


def _survive_loops(adj, allowed, cop_allowed, horizon):
    n = adj.shape[0]
    layers = np.zeros((horizon + 2, n, n), dtype=np.bool_)
    for c in range(n):
        for r in range(n):
            layers[horizon + 1, c, r] = True
    for t in range(horizon, 1, -1):
        if t % 2 == 1:
            for c in range(n):
                for r in range(n):
                    if c == r:
                        continue
                    ok = False
                    for rp in range(n):
                        if adj[r, rp] and allowed[rp] and rp != c and layers[t + 1, c, rp]:
                            ok = True
                            break
                    layers[t, c, r] = ok
        else:
            for c in range(n):
                for r in range(n):
                    if c == r:
                        continue
                    ok = True
                    for cp in range(n):
                        if adj[c, cp] and cop_allowed[cp] and (
                            cp == r or not layers[t + 1, cp, r]
                        ):
                            ok = False
                            break
                    layers[t, c, r] = ok
    return layers


def _norm(dist, n):
    inf = 4 * n * n + 16
    out = np.array(dist, dtype=np.int64)
    out[out >= inf] = -1
    return out


@pytest.mark.parametrize("seed", range(15))
def test_backends_agree_on_tables(seed):
    G = random_connected_graph(2 + seed % 9, 1000 + seed)
    adj = G.adjacency_matrix()
    n = G.order
    a = _tables_loops(adj)
    b = K.game_distance_tables(adj)
    assert np.array_equal(_norm(a[0], n), _norm(b[0], n))
    assert np.array_equal(_norm(a[1], n), _norm(b[1], n))


def _assert_tables_match_loops(G):
    adj = G.adjacency_matrix()
    dc, dr = K.game_distance_tables(adj)
    ref = _tables_loops(adj)
    assert dc.dtype == dr.dtype == np.int32
    assert np.array_equal(dc, _norm(ref[0], G.order))
    assert np.array_equal(dr, _norm(ref[1], G.order))


@pytest.mark.parametrize("n", range(1, 21))
def test_tables_match_loops_on_paths(n):
    _assert_tables_match_loops(path_graph(n))


@pytest.mark.parametrize("n", range(1, 21))
def test_tables_match_loops_on_random_constructible(n):
    _assert_tables_match_loops(random_constructible(n, 3000 + n)[0])


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_tables_match_loops_on_balls(radius):
    _assert_tables_match_loops(leafless_tree_ball(3, radius).graph)
    _assert_tables_match_loops(ball(wheel_tree(), radius).graph)


# many_small's named families, over the parameter ranges certbench draws
_NAMED = (
    [("double_wheel", double_wheel()[0]), ("petersen", petersen_graph())]
    + [(f"hubbed_path({m})", hubbed_path(m).graph) for m in range(2, 9)]
    + [(f"cycle({m})", cycle_graph(m)) for m in range(3, 17)]
    + [(f"star({m})", star_graph(m)) for m in range(1, 16)]
    + [(f"complete({m})", complete_graph(m)) for m in range(1, 17)]
)


@pytest.mark.parametrize("G", [G for _, G in _NAMED], ids=[name for name, _ in _NAMED])
def test_tables_match_loops_on_named_graphs(G):
    _assert_tables_match_loops(G)


@pytest.mark.parametrize("n, edges", [
    (2, []),
    (5, []),
    (5, [(0, 1), (1, 2)]),               # a path and two isolated vertices
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # two triangles
    (7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),          # C4, an edge, a point
])
def test_tables_match_loops_on_disconnected_graphs(n, edges):
    _assert_tables_match_loops(Graph(n, edges))


@st.composite
def _small_graphs(draw, max_n=10, connected=True):
    """A random spanning tree plus up to 2n random edges; without
    ``connected`` only the random edges, so components and isolated
    vertices come up."""
    n = draw(st.integers(1, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)] if connected else []
    pairs = [(u, v) for v in range(n) for u in range(v)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph(n, [(p, v) for v, p in enumerate(parents, start=1)] + extra)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_small_graphs(), _small_graphs(connected=False)))
def test_tables_match_loops_on_hypothesis_graphs(G):
    _assert_tables_match_loops(G)


def _assert_survival_matches_loops(G, allowed, cop_allowed, horizon):
    adj = G.adjacency_matrix()
    ref = _survive_loops(adj, allowed, cop_allowed, horizon)
    layers = K.survive_layers(adj, allowed, horizon, cop_allowed)
    assert layers.dtype == np.bool_ and 2 <= len(layers) <= horizon
    witness = SurviveWitness(G, layers, allowed, horizon)
    for t in range(2, horizon + 2):
        assert np.array_equal(ref[t], witness.layer(t)), t


@pytest.mark.parametrize("seed", range(10))
def test_backends_agree_on_survival(seed):
    G = random_connected_graph(2 + seed % 7, 2000 + seed)
    allowed = np.ones(G.order, dtype=np.bool_)
    cop_allowed = np.ones(G.order, dtype=np.bool_)
    if G.order > 2:
        allowed[seed % G.order] = False
        cop_allowed[(seed + 1) % G.order] = False
    _assert_survival_matches_loops(G, allowed, cop_allowed, 11)


def _random_masks(n, seed):
    rng = np.random.default_rng(seed)
    allowed = rng.random(n) < 0.8
    cop_allowed = rng.random(n) < 0.8
    return allowed, cop_allowed


def _long_horizons(n):
    return sorted({2, 3, n + 1, 2 * n, 4 * n + 5})


@pytest.mark.parametrize("n", range(1, 13))
def test_survival_matches_loops_at_long_horizons(n):
    for G in (random_connected_graph(n, 4000 + n), random_constructible(n, 4100 + n)[0]):
        for k, h in enumerate(_long_horizons(n)):
            full = np.ones(n, dtype=np.bool_)
            _assert_survival_matches_loops(G, full, full, h)
            _assert_survival_matches_loops(G, *_random_masks(n, 100 * n + k), h)


@pytest.mark.parametrize("name", ["C9", "petersen", "double_wheel"])
def test_survival_matches_loops_on_named_graphs(name):
    G = {"C9": lambda: cycle_graph(9), "petersen": petersen_graph,
         "double_wheel": lambda: double_wheel()[0]}[name]()
    n = G.order
    for k, h in enumerate(_long_horizons(n)):
        full = np.ones(n, dtype=np.bool_)
        _assert_survival_matches_loops(G, full, full, h)
        _assert_survival_matches_loops(G, *_random_masks(n, k), h)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(max_n=8), st.data())
def test_survival_matches_loops_on_hypothesis_graphs(G, data):
    n = G.order
    masks = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=np.bool_)
    )
    horizon = data.draw(st.integers(2, 4 * n + 5))
    _assert_survival_matches_loops(G, data.draw(masks), data.draw(masks), horizon)


def test_distance_parity():
    # cop-to-move distances are odd, robber-to-move distances even
    G, _ = double_wheel()
    dc, dr = K.game_distance_tables(G.adjacency_matrix())
    n = G.order
    for c in range(n):
        for r in range(n):
            if c == r:
                continue
            if dc[c, r] >= 0:
                assert dc[c, r] % 2 == 1
            if dr[c, r] >= 0:
                assert dr[c, r] % 2 == 0


def test_c4_state_values():
    C4 = cycle_graph(4)
    dc, dr = K.game_distance_tables(C4.adjacency_matrix())
    off = ~np.eye(4, dtype=bool)
    # with the move, an adjacent cop captures; antipodal states are safe
    for c in range(4):
        for r in range(4):
            if c == r:
                continue
            assert dc[c, r] == (1 if C4.adjacent(c, r) else -1)
    # with the robber to move, every state escapes forever
    assert (dr[off] == -1).all()


def test_numpy_path_end_to_end():
    from pursuit import decide_cop_win

    assert K.backend() == "numpy"
    G, _ = double_wheel()
    assert decide_cop_win(G).cop_win
    assert not decide_cop_win(cycle_graph(5)).cop_win
