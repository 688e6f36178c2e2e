from dataclasses import replace

import pytest

from pursuit import (
    Graph,
    GraphTooLargeError,
    ball,
    decide_cop_win,
    dominates,
    find_dominating_order,
    induced_subgraph,
    verify_dominating_order,
    verify_dismantling_order,
)
from pursuit import graphs
from pursuit.generators import (
    FAMILIES,
    cycle_graph,
    double_wheel,
    hubbed_path,
    leafless_tree_ball,
    make,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_constructible,
    ray,
    star_graph,
    wheel_tree,
)


def test_block_degrees():
    G, _ = double_wheel()
    assert G.order == 11
    for i in range(5):
        assert G.degree(G.vertex_by_label(f"a_{i}")) == 5
        assert G.degree(G.vertex_by_label(f"b_{i}")) == 6
    assert G.degree(G.vertex_by_label("c")) == 5


def test_block_shipped_order_and_solver():
    G, order = double_wheel()
    assert verify_dominating_order(G, order)
    assert decide_cop_win(G).cop_win


def test_hubbed_path_structure():
    built = hubbed_path(9)
    G = built.graph
    assert G.order == 13
    b0, b2 = G.vertex_by_label("b_0"), G.vertex_by_label("b_2")
    for i in range(10):
        a = G.vertex_by_label(f"a_{i}")
        assert G.adjacent(a, b0) and G.adjacent(a, b2)
    b1 = G.vertex_by_label("b_1")
    assert G.neighbors(b1) - {b1} == {b0, b2}
    res = verify_dismantling_order(G, built.dismantling)
    assert not res and res.where == 9  # truncation artifact, nowhere else
    sub, _ = induced_subgraph(G, built.cycle)
    assert sub.order == 4 and sub.edge_count() == 4  # the 4-cycle retract


def test_ray_balls_are_paths_with_valid_orders():
    for radius in (1, 3, 7):
        view = ball(ray(), radius)
        assert view.graph == path_graph(radius + 1)
        assert verify_dominating_order(view.graph, view.dominating_order())
        assert verify_dismantling_order(view.graph, view.dismantling_order())


def test_wheel_tree_ball_contains_induced_block():
    view = ball(wheel_tree(), 2)
    root_ids = [view.id_of[("", lab)] for lab in
                [f"a_{i}" for i in range(5)] + [f"b_{i}" for i in range(5)] + ["c"]]
    sub, back = induced_subgraph(view.graph, root_ids)
    block, _ = double_wheel()
    # same vertex count and edge multiset under the label identification
    assert sub.order == 11 and sub.edge_count() == block.edge_count()
    mapping = {}
    for new_id, ball_id in enumerate(back):
        label = view.keys[ball_id][1]
        mapping[new_id] = block.vertex_by_label(label)
    for u, v in sub.edges():
        assert block.adjacent(mapping[u], mapping[v])


def test_wheel_tree_orders_verify_on_balls():
    for radius in (1, 2, 3):
        view = ball(wheel_tree(), radius)
        assert verify_dominating_order(view.graph, view.dominating_order())


def test_wheel_tree_gateway_dominators():
    # with two complete copies in the ball, each non-root copy's entry
    # vertex is dominated by its unique neighbour outside its own copy
    view = ball(wheel_tree(), 3)
    complete_copies = set()
    for node, _ in view.keys:
        if all((node, lab) in view.id_of for lab in
               [f"a_{i}" for i in range(5)] + [f"b_{i}" for i in range(5)] + ["c"]):
            complete_copies.add(node)
    assert len(complete_copies) >= 2
    hints = view.dominator_hint
    for node in complete_copies:
        if node == "":
            continue
        entry = view.id_of[(node, "a_0")]
        target = hints[entry]
        t_node, t_label = view.keys[target]
        assert t_node == node[:-1] and t_label == f"a_{node[-1]}"
        outside = [
            w for w in view.graph.neighbors(entry) - {entry}
            if view.keys[w][0] != node
        ]
        assert outside == [target]


def test_leafless_tree_ball_counts():
    built = leafless_tree_ball(3, 2)
    assert built.graph.order == 10
    assert len(built.interior) == 4


def test_leafless_tree_interior_undominated_but_order_valid():
    for degree in (3, 4):
        built = leafless_tree_ball(degree, 2)
        G = built.graph
        for v in built.interior:
            assert not any(dominates(G, u, v) for u in G.vertices() if u != v)
        assert verify_dominating_order(G, built.order)


# constructions of a graph of the given order, each checked against a
# patched graphs.MAX_FILE_ORDER
CONSTRUCTIONS = {
    "graph": (12, lambda: Graph(12, [(0, 11)])),
    "ray_ball": (12, lambda: ball(ray(), 11).graph),
    "wheel_tree_ball": (19, lambda: ball(wheel_tree(), 2).graph),
    "tree_ball": (22, lambda: leafless_tree_ball(3, 3).graph),
}


def _never_built(*args, **kwargs):
    raise AssertionError("a Graph was built past the limit")


def _edges_never_read():
    raise AssertionError("Graph read its edges past the limit")
    yield


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_constructions_refuse_one_vertex_past_the_limit(monkeypatch, name):
    order, build = CONSTRUCTIONS[name]
    monkeypatch.setattr(graphs, "MAX_FILE_ORDER", order - 1)
    with monkeypatch.context() as patched:
        if name == "graph":  # refused before the edges are read into masks
            refused = lambda: Graph(order, _edges_never_read())
        else:  # refused by the function's own loop, before it makes a Graph
            patched.setattr(Graph, "__init__", _never_built)
            refused = build
        with pytest.raises(GraphTooLargeError) as err:
            refused()
    assert str(err.value) == f"more vertices than {order - 1}, the largest graph file order"
    monkeypatch.setattr(graphs, "MAX_FILE_ORDER", order)
    assert build().order == order


def test_ball_stops_asking_the_oracle_one_key_past_the_limit(monkeypatch):
    asked = []
    L = replace(ray(), neighbors=lambda k: asked.append(k) or ray().neighbors(k))
    monkeypatch.setattr(graphs, "MAX_FILE_ORDER", 11)
    with pytest.raises(GraphTooLargeError):
        ball(L, 1000)
    assert asked == list(range(11))  # keys 0..11 are known once key 10 is asked


def test_petersen_robber_win():
    P = petersen_graph()
    assert P.order == 10 and P.edge_count() == 15
    assert all(P.degree(v) == 3 for v in P.vertices())
    assert find_dominating_order(P) is None
    assert not decide_cop_win(P).cop_win


def test_random_constructible_certificates():
    for seed in range(10):
        G, order = random_constructible(2 + 3 * seed % 17, seed)
        assert verify_dominating_order(G, order)
        assert find_dominating_order(G) is not None
        assert decide_cop_win(G).cop_win


def test_random_connected_is_connected():
    for seed in range(20):
        G = random_connected_graph(2 + seed % 9, seed)
        assert G.is_connected()


def test_random_generators_are_seeded():
    a = random_connected_graph(8, 5)
    b = random_connected_graph(8, 5)
    c = random_connected_graph(8, 6)
    assert a == b
    assert a != c or a.edge_count() == c.edge_count()  # different seeds usually differ


def test_make_dispatcher_families():
    for family in FAMILIES:
        kwargs = {}
        if family in ("path", "cycle", "complete", "star", "hubbed_path"):
            kwargs["n"] = 5
        if family == "tree":
            kwargs.update(degree=3, radius=2)
        if family in ("ray", "wheel_tree"):
            kwargs["radius"] = 2
        if family in ("random_constructible", "random"):
            kwargs.update(n=6, seed=1)
        built = make(family, **kwargs)
        assert built.graph.order >= 1


def test_make_rejects_bad_params():
    with pytest.raises(ValueError):
        make("cycle")  # missing n
    with pytest.raises(ValueError):
        make("no_such_family", n=3)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(0)
