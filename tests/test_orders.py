import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    Order,
    GraphFormatError,
    InvalidOrderError,
    decide_cop_win,
    depth_table,
    find_dismantling_order,
    find_dominating_order,
    naturalize_order,
    verify_dismantling_order,
    verify_dominating_order,
)
from pursuit.generators import (
    complete_graph,
    cycle_graph,
    double_wheel,
    hubbed_path,
    path_graph,
    random_connected_graph,
    star_graph,
)
from pursuit.orders import order_from_text, order_to_text


def test_single_vertex_order():
    from pursuit import Graph

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
    res = verify_dominating_order(P3, [0, 2, 1])
    assert not res and res.where == 1


def test_verify_rejects_non_permutation():
    with pytest.raises(InvalidOrderError):
        verify_dominating_order(path_graph(3), [0, 1, 1])


def test_dismantling_k3_present():
    order = find_dismantling_order(complete_graph(3))
    assert order is not None and verify_dismantling_order(complete_graph(3), order)


def test_hubbed_path_truncation_defect_is_exactly_the_last_path_vertex():
    # No finite instance admits a valid dismantling order (the graph
    # retracts onto a 4-cycle), and the truncated infinite order breaks
    # precisely where the path ends.
    built = hubbed_path(9)
    res = verify_dismantling_order(built.graph, built.dismantling, collect=True)
    assert not res and res.where == 9
    assert "rank 9" in res.detail and res.detail.count("rank") == 1
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
    text = "order 0 1 2\ndelta 1:0 2:1\n"
    constructing = order_from_text(text, flavor="constructing")
    dismantling = order_from_text(text, flavor="dismantling")
    assert (constructing.flavor, dismantling.flavor) == ("constructing", "dismantling")
    assert constructing != dismantling
    assert order_from_text(order_to_text(dismantling), flavor="dismantling") == dismantling


@pytest.mark.parametrize("text", [
    "order 0 1 2\ndelta 2:99\n",   # dominator outside the sequence
    "order 0 1 2\ndelta 99:0\n",   # dominated vertex outside the sequence
    "order 0 1 x\n",                # non-integer vertex
    "order 0 1 2\ndelta 1-0\n",    # malformed pair
    "order 0 1 2\ndelta 1:y\n",    # non-integer dominator
], ids=["dominator_outside", "vertex_outside", "bad_vertex", "bad_pair", "bad_dominator"])
def test_bad_order_files_rejected(text):
    for flavor in ("auto", "constructing", "dismantling"):
        with pytest.raises(GraphFormatError):
            order_from_text(text, flavor=flavor)
