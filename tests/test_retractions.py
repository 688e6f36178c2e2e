import functools
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    ChainPursuitCop,
    CheckResult,
    DistanceGreedyRobber,
    GameConfig,
    Graph,
    InvalidOrderError,
    Order,
    NontotalRetractionError,
    PursuitError,
    RetractionFamily,
    ball,
    check_family_retraction,
    check_retraction,
    check_shifted_edge_property,
    find_dismantling_order,
    find_dominating_order,
    induced_subgraph,
    naturalize_order,
    play,
)
from pursuit.generators import (
    cycle_graph,
    double_wheel,
    hubbed_path,
    leafless_tree_ball,
    path_graph,
    random_constructible,
    ray,
    wheel_tree,
)
from pursuit.retractions import _checked_table


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


def test_memoization_shares_results():
    _, fam = p3_family()
    first = [fam.retract(k, v) for k in range(1, 4) for v in range(3)]
    assert [fam.retract(k, v) for k in range(1, 4) for v in range(3)] == first
    assert all(type(w) is int for w in first)


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
    assert check_retraction(G, {v: v for v in G.vertices()}, set(G.vertices()))


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


def test_check_retraction_unfixed_target_reported():
    P3 = path_graph(3)
    res = check_retraction(P3, {0: 1, 1: 1, 2: 1}, {0, 1})
    assert not res and res.where == 0 and res.detail == "target vertex 0 not fixed"


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


# -- pinned errors and first violations --------------------------------------


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args))
    except Exception as err:  # noqa: BLE001 - the exception is the result
        return (type(err).__name__, str(err))


def _shuffled_constructing():
    # random_constructible(10, 3)'s dominator map over a shuffled sequence
    G, order = random_constructible(10, 3)
    seq = (6, 8, 9, 7, 5, 3, 0, 4, 1, 2)
    return G, RetractionFamily(G, Order(seq, order.dominator, "constructing"))


def test_hubbed_path_nontotal_errors_pinned():
    built = hubbed_path(9)
    G = built.graph
    fam = RetractionFamily(G, built.dismantling)
    for cutoff in (10, 11, 12):
        for v in range(10):
            with pytest.raises(NontotalRetractionError) as err:
                fam.retract(cutoff, v)
            assert (err.value.cutoff, err.value.vertex) == (cutoff, v)
            assert str(err.value) == f"projection onto ranks >= {cutoff} is undefined at vertex {v}"
        assert [fam.retract(cutoff, v) for v in (10, 11, 12)] == [
            max(cutoff, w) for w in (10, 11, 12)
        ]
        res = check_family_retraction(G, fam, cutoff)
        assert res == CheckResult(
            False, (cutoff, 0), f"projection onto ranks >= {cutoff} is undefined at vertex 0"
        )
    assert check_shifted_edge_property(G, fam) == CheckResult(True, tuple(range(9)))
    # a -1 written into a total row reaches the checker's nontotal branch
    table = array("i", fam.table)
    table[9 * G.order + 0] = -1
    fam.table = table
    assert check_shifted_edge_property(G, fam) == CheckResult(
        False, (8, 0, 1), "projection onto ranks >= 9 is undefined at vertex 0"
    )


def test_broken_chain_errors_pinned():
    G, fam = _shuffled_constructing()
    assert [_outcome(fam.retract, 3, v) for v in G.vertices()] == [
        ("ok", v) if v in (6, 8, 9)
        else ("InvalidOrderError", f"chain of {v} never drops below rank 3: broken order")
        for v in G.vertices()
    ]
    assert _outcome(check_family_retraction, G, fam, 3) == (
        "InvalidOrderError", "chain of 0 never drops below rank 3: broken order"
    )
    assert _outcome(check_shifted_edge_property, G, fam) == (
        "InvalidOrderError", "chain of 0 never drops below rank 2: broken order"
    )
    # a 2-cycle in the dominator map breaks only the chains through it
    two_cycle = RetractionFamily(path_graph(4), Order((0, 1, 2, 3), {1: 2, 2: 1, 3: 0}, "constructing"))
    assert [_outcome(two_cycle.retract, 2, v) for v in range(4)] == [
        ("ok", 0),
        ("InvalidOrderError", "dominator cycle through vertex 1"),
        ("InvalidOrderError", "dominator cycle through vertex 2"),
        ("ok", 0),
    ]
    with pytest.raises(InvalidOrderError, match="dominator cycle through vertex 1"):
        check_family_retraction(two_cycle.graph, two_cycle, 4)


def test_cutoff_and_vertex_range_errors_pinned():
    _, cons = p3_family()
    for cutoff in (0, -1):
        assert _outcome(cons.retract, cutoff, 0) == (
            "ValueError", "constructing projections need cutoff >= 1"
        )
    assert cons.retract(7, 2) == 2  # cutoffs above n clamp to n
    built = hubbed_path(9)
    G = built.graph
    dis = RetractionFamily(G, built.dismantling)
    for cutoff in (-1, 13):
        assert _outcome(dis.retract, cutoff, 0) == ("ValueError", f"cutoff {cutoff} out of range")
        assert _outcome(check_family_retraction, G, dis, cutoff) == (
            "ValueError", f"cutoff {cutoff} out of range"
        )
    for fam, n in ((cons, 3), (dis, 13)):
        for v in (-1, n):
            with pytest.raises(KeyError) as err:
                fam.retract(1, v)
            assert err.value.args == (v,)


def test_first_violations_pinned():
    G, fam = _shuffled_constructing()
    assert check_family_retraction(G, fam, 8) == CheckResult(
        False, (8, 1, 5), "cutoff 8: edge (1,5) maps to non-edge"
    )
    # random_constructible(9, 0) with its root kept first and the rest shuffled
    G, order = random_constructible(9, 0)
    fam = RetractionFamily(G, Order((0, 5, 2, 6, 3, 1, 4, 8, 7), order.dominator, "constructing"))
    assert check_shifted_edge_property(G, fam) == CheckResult(
        False, (1, 5, 1), "cutoff 1: edge (5,1) shifts to non-edge (5,0)"
    )
    assert [check_family_retraction(G, fam, k).where for k in range(1, 10)] == [
        None, (2, 1, 5), (3, 1, 5), (4, 1, 5), (5, 1, 5), (6, 4, 6), None, None, None
    ]
    G, _ = random_constructible(9, 0)
    dis = find_dismantling_order(G)
    fam = RetractionFamily(G, Order((7, 6, 1, 5, 2, 3, 0, 8, 4), dis.dominator, "dismantling"))
    assert check_shifted_edge_property(G, fam) == CheckResult(
        False, (4, 1, 0), "cutoff 4: edge (1,0) shifts to non-edge (4,0)"
    )


# -- the chain walk as a reference oracle -----------------------------------


def _reference_chain(order, n, v):
    out = [v]
    cur = v
    for _ in range(n):
        nxt = order.dominator.get(cur)
        if nxt is None:
            break
        if nxt in out:
            raise InvalidOrderError(f"dominator cycle through vertex {nxt}")
        out.append(nxt)
        cur = nxt
    else:
        raise InvalidOrderError("dominator chain exceeds the graph order")
    return out


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except (PursuitError, KeyError) as err:
        return err


def _reference_chains(fam):
    """v -> v's dominator chain, or the error walking it raised."""
    n = fam.graph.order
    return {v: _value_or_error(_reference_chain, fam.order, n, v) for v in range(n)}


def _reference_cutoff(fam, cutoff):
    """The cutoff a projection works at; ValueError when out of range."""
    n = fam.graph.order
    if fam.flavor == "constructing":
        if cutoff < 1:
            raise ValueError("constructing projections need cutoff >= 1")
        return min(cutoff, n)
    if not (0 <= cutoff <= n - 1):
        raise ValueError(f"cutoff {cutoff} out of range")
    return cutoff


def reference_retract(fam, cutoff, v):
    """Projection by walking v's dominator chain, one query at a time."""
    cutoff = _reference_cutoff(fam, cutoff)
    return _reference_project(fam.order, cutoff, v, _reference_chain(fam.order, fam.graph.order, v))


def _reference_project(order, cutoff, v, chain):
    """The first vertex of v's chain whose rank meets an in-range cutoff."""
    for w in chain:
        r = order.rank_of(w)
        if (order.flavor == "constructing" and r < cutoff) or (
            order.flavor == "dismantling" and r >= cutoff
        ):
            return w
    if order.flavor == "dismantling":
        raise NontotalRetractionError(cutoff, v)
    raise InvalidOrderError(f"chain of {v} never drops below rank {cutoff}: broken order")


def reference_family_check(G, fam, cutoff, chains=None):
    """The family check from dict and set lookups; ``chains`` from
    ``_reference_chains(fam)`` spares walking every chain on each call."""
    rank = fam.order.rank_of
    if fam.flavor == "constructing":
        target = {v for v in G.vertices() if rank(v) < cutoff}
    else:
        target = {v for v in G.vertices() if rank(v) >= cutoff}
    k = _reference_cutoff(fam, cutoff)
    chains = _reference_chains(fam) if chains is None else chains
    image = {}
    for v in G.vertices():
        if isinstance(chains[v], Exception):
            raise chains[v]
        try:
            image[v] = _reference_project(fam.order, k, v, chains[v])
        except NontotalRetractionError as err:
            return CheckResult(False, where=(cutoff, err.vertex), detail=str(err))
    for v in G.vertices():
        if image[v] not in target:
            return CheckResult(False, where=v, detail=f"image of {v} misses the target region")
    for h in target:
        if image[h] != h:
            return CheckResult(False, where=h, detail=f"target vertex {h} moved to {image[h]}")
    masks = G.closed_masks()
    for u, v in G.edges():
        if not masks[image[u]] >> image[v] & 1:
            return CheckResult(
                False, where=(cutoff, u, v), detail=f"cutoff {cutoff}: edge ({u},{v}) maps to non-edge"
            )
    return CheckResult(True)


def reference_shift_check(G, fam):
    n = G.order
    if fam.flavor == "constructing":
        cutoffs = range(1, n)
    else:
        top = min(
            max(fam.order.rank_of(w) for w in _reference_chain(fam.order, n, v))
            for v in range(n)
        )
        cutoffs = range(0, top)

    # each chain is walked once, and each projection made once
    chains = _reference_chains(fam)
    images = {}

    def image(k):
        if k not in images:
            images[k] = {
                v: c if isinstance(c, Exception)
                else _value_or_error(_reference_project, fam.order, k, v, c)
                for v, c in chains.items()
            }
        return images[k]

    pairs = [p for u, v in G.edges() for p in ((u, v), (v, u))]
    masks = G.closed_masks()
    for k in cutoffs:
        up, down = image(k + 1), image(k)
        for a, b in pairs:
            pa, pb = up[a], down[b]
            if type(pa) is type(pb) is int and masks[pa] >> pb & 1:
                continue
            for p in (pa, pb):  # a's error first: its walk ran first
                if isinstance(p, NontotalRetractionError):
                    return CheckResult(False, where=(k, a, b), detail=str(p))
                if isinstance(p, Exception):
                    raise p
            return CheckResult(
                False, where=(k, a, b),
                detail=f"cutoff {k}: edge ({a},{b}) shifts to non-edge ({pa},{pb})",
            )
    return CheckResult(True, where=tuple(cutoffs))


ORDER_KINDS = ("valid", "natural", "dismantling", "shuffled", "shuffled_dismantling", "two_cycle")


def _family_of_kind(n, seed, kind, rng):
    G, order = random_constructible(n, seed)
    if kind == "natural":
        order, _ = naturalize_order(G, order)
    elif kind in ("dismantling", "shuffled_dismantling"):
        order = find_dismantling_order(G)
    if kind.startswith("shuffled"):
        seq = list(order.sequence)
        rng.shuffle(seq)
        order = Order(tuple(seq), order.dominator, order.flavor)
    elif kind == "two_cycle" and n >= 2:
        a, b = rng.sample(range(n), 2)
        order = Order(order.sequence, {**order.dominator, a: b, b: a}, order.flavor)
    return G, RetractionFamily(G, order)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 14),
    st.integers(0, 10_000),
    st.sampled_from(ORDER_KINDS),
    st.randoms(use_true_random=False),
)
def test_table_matches_chain_walk(n, seed, kind, rng):
    _assert_matches_reference(*_family_of_kind(n, seed, kind, rng))


def _numpy_table(family):
    """The projection table as first built: columns as one int32 array,
    transposed, its rows reversed when dismantling."""
    n = family.graph.order
    flip = family.flavor == "dismantling"
    columns = [[-1] * (n + 1) for _ in range(n)]
    for v, col in enumerate(columns):
        try:
            chain = family.order.chain(v)
        except InvalidOrderError:
            continue
        low = n
        for w in chain:
            r = family.order._rank.get(w)
            if r is None:
                break
            r = n - 1 - r if flip else r
            if r < low:
                col[r + 1 : low + 1] = [w] * (low - r)
                low = r
    table = np.array(columns, dtype=np.int32).T
    return np.ascontiguousarray(table[::-1] if flip else table)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 14),
    st.integers(0, 10_000),
    st.sampled_from(ORDER_KINDS),
    st.lists(st.sampled_from((-3, -1, 15, 99)), max_size=3),
    st.randoms(use_true_random=False),
)
def test_table_rows_match_the_numpy_table(n, seed, kind, outside, rng):
    # (n + 1)·n ints in one row-major buffer, equal to the array the table
    # once was, also where chains break or a dominator lies outside the graph
    G, fam = _family_of_kind(n, seed, kind, rng)
    dominator = dict(fam.order.dominator)
    for w in outside:
        dominator[rng.randrange(n)] = w
    fam = RetractionFamily(G, Order(fam.order.sequence, dominator, fam.flavor))
    table = fam.table
    assert type(table) is array and table.typecode == "i" and len(table) == (n + 1) * n
    assert all(type(w) is int for w in table)
    assert table.tolist() == _numpy_table(fam).reshape(-1).tolist()


def test_table_matches_chain_walk_on_paper_families():
    built = hubbed_path(9)
    view = ball(ray(), 10)
    wheel, wheel_order = double_wheel()
    for G, order in (
        (built.graph, built.dismantling),
        (view.graph, view.dismantling_order()),
        (view.graph, view.dominating_order()),
        (wheel, wheel_order),
    ):
        _assert_matches_reference(G, RetractionFamily(G, order))


def _assert_matches_reference(G, fam):
    n = G.order
    for v in range(-1, n + 1):
        want = _outcome(lambda: tuple(_reference_chain(fam.order, n, v)))
        assert _outcome(fam.order.chain, v) == want, v
    for k in range(-1, n + 2):
        for v in range(-1, n + 1):
            got = _outcome(fam.retract, k, v)
            assert got == _outcome(reference_retract, fam, k, v), (k, v)
            if got[0] == "ok":
                assert type(got[1]) is int
        assert _outcome(check_family_retraction, G, fam, k) == _outcome(
            reference_family_check, G, fam, k
        ), k
    assert _outcome(check_shifted_edge_property, G, fam) == _outcome(
        reference_shift_check, G, fam
    )


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _table_array(family):
    n = family.graph.order
    return np.frombuffer(family.table, dtype=np.intc).reshape(n + 1, n)


def _rebuilt_family_check(G, family, cutoff):
    """check_family_retraction as first written: it rebuilt the edge and
    rank arrays on every call."""
    image = _table_array(family)[family._row(cutoff)]
    if (v := _first(image < 0)) is not None:
        try:
            family.retract(cutoff, v)
        except NontotalRetractionError as err:
            return CheckResult(False, where=(cutoff, err.vertex), detail=str(err))
    ranks = np.array([family.order.rank_of(v) for v in G.vertices()])
    in_target = ranks < cutoff if family.flavor == "constructing" else ranks >= cutoff
    if (v := _first(~in_target[image])) is not None:
        return CheckResult(False, where=v, detail=f"image of {v} misses the target region")
    if (h := _first(in_target & (image != np.arange(G.order)))) is not None:
        return CheckResult(False, where=h, detail=f"target vertex {h} moved to {image[h]}")
    edges = np.array(list(G.edges()), dtype=np.intp).reshape(-1, 2)
    if (i := _first(~G.adjacency_matrix()[image[edges[:, 0]], image[edges[:, 1]]])) is not None:
        u, v = edges[i].tolist()
        return CheckResult(
            False, where=(cutoff, u, v), detail=f"cutoff {cutoff}: edge ({u},{v}) maps to non-edge"
        )
    return CheckResult(True)


def _rebuilt_shift_check(G, family):
    """check_shifted_edge_property as first written: one cutoff at a time,
    rebuilding the edge array on every call."""
    cons = family.flavor == "constructing"
    cutoffs = range(1, G.order) if cons else range(0, family.max_total_cutoff())
    edges = np.array(list(G.edges()), dtype=np.intp).reshape(-1, 2)
    a, b = edges.reshape(-1), edges[:, ::-1].reshape(-1)
    adj = G.adjacency_matrix()
    table = _table_array(family)
    for k in cutoffs if len(a) else ():
        pa, pb = table[family._row(k + 1)][a], table[family._row(k)][b]
        i = _first((pa < 0) | (pb < 0) | ~adj[pa, pb])
        if i is None:
            continue
        u, v = int(a[i]), int(b[i])
        try:
            pu, pv = family.retract(k + 1, u), family.retract(k, v)
        except NontotalRetractionError as err:
            return CheckResult(False, where=(k, u, v), detail=str(err))
        detail = f"cutoff {k}: edge ({u},{v}) shifts to non-edge ({pu},{pv})"
        return CheckResult(False, where=(k, u, v), detail=detail)
    return CheckResult(True, where=tuple(cutoffs))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 10_000),
    st.sampled_from(ORDER_KINDS),
    st.randoms(use_true_random=False),
)
def test_checkers_match_the_rebuilt_arrays_on_mutated_tables(n, seed, kind, rng):
    # The checkers read the graph's cached edge array and the family's
    # cached ranks; the first failure they report, and every error, is
    # the one the per-call arrays gave, while the table changes between
    # calls.
    G, fam = _family_of_kind(n, seed, kind, rng)
    for _ in range(3):
        for k in range(-1, n + 2):
            got = _outcome(check_family_retraction, G, fam, k)
            assert got == _outcome(_rebuilt_family_check, G, fam, k), k
        got = _outcome(check_shifted_edge_property, G, fam)
        assert got == _outcome(_rebuilt_shift_check, G, fam)
        table = array("i", fam.table)
        for _ in range(rng.randrange(1, 4)):
            table[rng.randrange(n + 1) * n + rng.randrange(n)] = rng.randrange(-1, n)
        fam.table = table


@functools.cache
def _benchmark_orders():
    """The long_capture graphs of certbench, each with its natural order,
    that order shuffled with the root kept first (so every projection is
    defined) and a dismantling order; the Hypothesis cases stop at n = 14."""
    rng = random.Random(41)
    out = []
    for G in (
        random_constructible(60, 41)[0],
        random_constructible(120, 42)[0],
        leafless_tree_ball(3, 6).graph,
        ball(wheel_tree(), 4).graph,
    ):
        natural, _ = naturalize_order(G, find_dominating_order(G))
        rest = list(natural.sequence[1:])
        rng.shuffle(rest)
        shuffled = Order((natural.sequence[0], *rest), natural.dominator, "constructing")
        out += [(G, order) for order in (natural, shuffled, find_dismantling_order(G))]
    return out


def test_shift_check_matches_both_oracles_at_benchmark_scale():
    for G, order in _benchmark_orders():
        fam = RetractionFamily(G, order)
        got = _outcome(check_shifted_edge_property, G, fam)
        assert got == _outcome(_rebuilt_shift_check, G, fam), order.flavor
        assert got == _outcome(reference_shift_check, G, fam), order.flavor


def test_family_check_matches_both_oracles_at_benchmark_scale():
    for G, order in _benchmark_orders():
        fam = RetractionFamily(G, order)
        chains = _reference_chains(fam)
        for k in range(-1, G.order + 2):
            got = _outcome(check_family_retraction, G, fam, k)
            assert got == _outcome(_rebuilt_family_check, G, fam, k), (order.flavor, k)
            assert got == _outcome(reference_family_check, G, fam, k, chains), (order.flavor, k)


def test_family_check_follows_the_table_and_graph_objects():
    # each cutoff's result is cached for one graph object and one table
    # object; a new one of either is checked afresh
    G = path_graph(4)
    fam = RetractionFamily(G, Order((0, 1, 2, 3), {1: 0, 2: 1, 3: 2}, "constructing"))
    assert all(check_family_retraction(G, fam, k) for k in range(1, 5))
    table = fam.table
    fam.table = array("i", table)
    fam.table[2 * 4 + 3] = 2  # 3 -> 2 at cutoff 2, outside the prefix {0, 1}
    assert check_family_retraction(G, fam, 2) == CheckResult(
        False, 3, "image of 3 misses the target region"
    )
    fam.table = table
    assert check_family_retraction(G, fam, 2) == CheckResult(True)
    star = Graph(4, [(0, 2), (1, 2), (2, 3)])  # edge (0, 2) maps to (0, 1)
    assert check_family_retraction(star, fam, 2) == CheckResult(
        False, (2, 0, 2), "cutoff 2: edge (0,2) maps to non-edge"
    )
    assert check_family_retraction(G, fam, 2) == CheckResult(True)


def test_dominator_outside_the_graph_fails_only_past_it():
    fam = RetractionFamily(path_graph(3), Order((0, 1, 2), {1: 0, 2: 7}, "constructing"))
    assert [fam.retract(3, v) for v in range(3)] == [0, 1, 2]
    assert fam.retract(1, 1) == 0
    with pytest.raises(KeyError) as err:
        fam.retract(2, 2)
    assert err.value.args == (7,)
    _assert_matches_reference(fam.graph, fam)


def test_chain_pursuit_never_builds_the_table():
    G, order = random_constructible(12, 5)
    fam = RetractionFamily(G, order)
    T = play(GameConfig(G, ChainPursuitCop(fam), DistanceGreedyRobber()))
    assert T.captured and "table" not in vars(fam)
    assert fam.retract(1, 0) == order.sequence[0]
    assert "table" in vars(fam)


def test_table_build_walks_no_chain(monkeypatch):
    # the table is read off one walk of the dominator forest, each column
    # from its dominator's, never off a vertex's own chain
    calls = []
    chain = Order.chain
    monkeypatch.setattr(Order, "chain", lambda self, v: calls.append(v) or chain(self, v))
    for G in (path_graph(200), leafless_tree_ball(3, 6).graph, ball(wheel_tree(), 5).graph):
        order = find_dominating_order(G)
        for o in (order, naturalize_order(G, order)[0], find_dismantling_order(G)):
            RetractionFamily(G, o).table
    assert calls == []


def test_checkers_read_the_table_in_place():
    G = path_graph(5)
    for order in (find_dominating_order(G), find_dismantling_order(G)):
        fam = RetractionFamily(G, order)
        assert check_shifted_edge_property(G, fam)
        view = _checked_table(G, fam)[2]
        assert view.shape == (6, 5) and np.shares_memory(view, fam.table)
