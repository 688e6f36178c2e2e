import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    Order,
    NontotalRetractionError,
    RetractionFamily,
    ball,
    check_family_retraction,
    check_retraction,
    check_shifted_edge_property,
    find_dominating_order,
    induced_subgraph,
)
from pursuit.generators import (
    cycle_graph,
    double_wheel,
    hubbed_path,
    path_graph,
    random_constructible,
    ray,
)


def p3_family():
    P3 = path_graph(3)
    order = Order((0, 1, 2), {1: 0, 2: 1}, "constructing")
    return P3, RetractionFamily(P3, order)


def test_cutoff_one_collapses_everything():
    G, order = double_wheel()
    fam = RetractionFamily(G, order)
    for v in G.vertices():
        assert fam.retract(1, v) == order.sequence[0]


def test_identity_below_cutoff():
    _, fam = p3_family()
    assert fam.retract(2, 1) == 1
    assert fam.retract(3, 2) == 2


def test_two_step_chain():
    _, fam = p3_family()
    assert fam.retract(1, 2) == 0
    assert fam.exponent(1, 2) == 2


def test_memoization_shares_results():
    _, fam = p3_family()
    assert fam.retract(1, 2) == 0
    assert (1, 2) in fam._memo


def test_constructing_family_is_retraction_at_every_cutoff():
    for seed in range(5):
        G, order = random_constructible(14, seed)
        fam = RetractionFamily(G, order)
        for cutoff in range(1, G.order + 1):
            assert check_family_retraction(G, fam, cutoff)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 5_000))
def test_prefix_compatibility(n, seed):
    # retract(k', retract(k, v)) == retract(k', v) for k' <= k
    G, order = random_constructible(n, seed)
    fam = RetractionFamily(G, order)
    for v in G.vertices():
        for k in range(1, n + 1):
            for kp in range(1, k + 1):
                assert fam.retract(kp, fam.retract(k, v)) == fam.retract(kp, v)


def test_constructing_shifted_edges():
    for seed in range(5):
        G, order = random_constructible(12, 100 + seed)
        fam = RetractionFamily(G, order)
        res = check_shifted_edge_property(G, fam)
        assert res and res.where == tuple(range(1, G.order))


def test_check_retraction_identity():
    G, _ = double_wheel()
    assert check_retraction(G, list(G.vertices()), set(G.vertices()))


def test_check_retraction_hubbed_path_onto_cycle():
    built = hubbed_path(9)
    res = check_retraction(built.graph, built.retraction, set(built.cycle))
    assert res
    sub, _ = induced_subgraph(built.graph, built.cycle)
    assert sub == cycle_graph(4) or (sub.order == 4 and sub.edge_count() == 4)


def test_check_retraction_broken_maps():
    # On C5, sending a vertex to its non-neighbour breaks an edge.
    C5 = cycle_graph(5)
    res = check_retraction(C5, {0: 2, 1: 1, 2: 2, 3: 3, 4: 4}, {1, 2, 3, 4})
    assert not res and "non-edge" in res.detail
    # On C4 the antipodal fold is a genuine retraction; folding onto a
    # neighbour is what breaks (the opposite edge tears).
    C4 = cycle_graph(4)
    assert check_retraction(C4, {0: 2, 1: 1, 2: 2, 3: 3}, {1, 2, 3})
    assert not check_retraction(C4, {0: 1, 1: 1, 2: 2, 3: 3}, {1, 2, 3})


def test_check_retraction_image_escape_reported():
    P3 = path_graph(3)
    res = check_retraction(P3, {0: 0, 1: 1, 2: 2}, {0, 1})
    assert not res and res.where == 2


def test_ray_ball_dismantling_shift_full_range():
    view = ball(ray(), 10)
    fam = RetractionFamily(view.graph, view.dismantling_order())
    assert fam.max_total_cutoff() == 10
    res = check_shifted_edge_property(view.graph, fam)
    assert res and res.where == tuple(range(10))


def test_ray_shift_example_single_edge():
    view = ball(ray(), 8)
    fam = RetractionFamily(view.graph, view.dismantling_order())
    # edge (3,4) at cutoff 4: project(5, 3) = 5, project(4, 4) = 4, adjacent
    assert fam.retract(5, 3) == 5
    assert fam.retract(4, 4) == 4
    assert view.graph.adjacent(5, 4)


def test_hubbed_path_nontotal_boundary():
    built = hubbed_path(9)
    fam = RetractionFamily(built.graph, built.dismantling)
    assert fam.max_total_cutoff() == 9
    with pytest.raises(NontotalRetractionError) as err:
        fam.retract(10, 0)
    assert err.value.cutoff == 10 and err.value.vertex == 0
    res = check_shifted_edge_property(built.graph, fam)
    assert res and res.where == tuple(range(9))


def test_finite_dismantling_shift_holds_everywhere():
    for seed in range(4):
        from pursuit import find_dismantling_order

        G, _ = random_constructible(10, 200 + seed)
        order = find_dismantling_order(G)
        fam = RetractionFamily(G, order)
        assert fam.max_total_cutoff() == G.order - 1
        assert check_shifted_edge_property(G, fam)


def test_dismantling_family_is_retraction_onto_suffixes():
    view = ball(ray(), 8)
    fam = RetractionFamily(view.graph, view.dismantling_order())
    for cutoff in range(0, 9):
        assert check_family_retraction(view.graph, fam, cutoff)
