"""Named graph families, finite and lazy-infinite, each shipped with its
known order (or order hint for lazy graphs)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import graphs
from .errors import GraphTooLargeError
from .graphs import Graph, LazyGraph, ball
from .orders import Order, find_dominating_order

# -- plain finite families ---------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Hub vertex 0 joined to ``leaves`` leaf vertices."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return Graph(10, edges)


# -- the 11-vertex double wheel and trees of copies ---------------------------
#
# Outer 5-cycle a_0..a_4, inner 5-cycle b_0..b_4 with a_i adjacent to
# b_{i-1}, b_i, b_{i+1} (mod 5), and a hub c adjacent to every b_i.

_BLOCK_LABELS = tuple(
    [f"a_{i}" for i in range(5)] + [f"b_{i}" for i in range(5)] + ["c"]
)
_BLOCK_ORDER_LABELS = ("a_0", "b_4", "c", "b_0", "b_1", "b_2", "b_3", "a_1", "a_2", "a_3", "a_4")
_BLOCK_DOMINATOR_LABELS = {
    "b_4": "a_0",
    "c": "b_4",
    "b_0": "b_4",
    "b_1": "b_0",
    "b_2": "b_1",
    "b_3": "c",
    "a_1": "b_1",
    "a_2": "b_2",
    "a_3": "b_3",
    "a_4": "b_4",
}


def _block_label_edges():
    edges = set()
    for i in range(5):
        edges.add(frozenset((f"a_{i}", f"a_{(i + 1) % 5}")))
        edges.add(frozenset((f"b_{i}", f"b_{(i + 1) % 5}")))
        for off in (-1, 0, 1):
            edges.add(frozenset((f"a_{i}", f"b_{(i + off) % 5}")))
        edges.add(frozenset(("c", f"b_{i}")))
    return edges


def double_wheel():
    """The 11-vertex block: two concentric 5-cycles plus a hub on the
    inner one. Ships its dominating order. Returns (graph, order)."""
    index = {lab: i for i, lab in enumerate(_BLOCK_LABELS)}
    edges = [tuple(sorted(index[x] for x in e)) for e in _block_label_edges()]
    G = Graph(11, edges, labels=_BLOCK_LABELS)
    sequence = tuple(index[lab] for lab in _BLOCK_ORDER_LABELS)
    dominator = {index[v]: index[d] for v, d in _BLOCK_DOMINATOR_LABELS.items()}
    return G, Order(sequence, dominator, "constructing")


def _tree_node_index(node: str) -> int:
    """BFS-with-lexicographic-ties index of a tree node addressed by its
    port string: root '', root children '0'..'4', deeper children append
    ports '1'..'4'."""
    depth = len(node)
    if depth == 0:
        return 0
    before = 1 + sum(5 * 4 ** (k - 1) for k in range(1, depth))
    pos = int(node[0]) * 4 ** (depth - 1)
    for i, ch in enumerate(node[1:], start=1):
        pos += (int(ch) - 1) * 4 ** (depth - 1 - i)
    return before + pos


_BLOCK_ADJ = {lab: set() for lab in _BLOCK_LABELS}
for _e in _block_label_edges():
    _x, _y = tuple(_e)
    _BLOCK_ADJ[_x].add(_y)
    _BLOCK_ADJ[_y].add(_x)

_BLOCK_RANK = {lab: i for i, lab in enumerate(_BLOCK_ORDER_LABELS)}


def wheel_tree() -> LazyGraph:
    """Lazy 5-regular tree of double-wheel blocks.

    Each tree node carries one block copy; a tree edge glues the parent's
    port vertex a_p to the child's a_0. The root uses ports 0..4 for its
    five children, every other node keeps a_0 for its parent and ports
    1..4 for children. Keys are (node, label) pairs.
    """

    def neighbors(key):
        node, lab = key
        out = {key}
        for other in _BLOCK_ADJ[lab]:
            out.add((node, other))
        if lab == "a_0" and node:
            out.add((node[:-1], f"a_{node[-1]}"))
        if lab.startswith("a_"):
            port = lab[2:]
            if node == "":
                out.add((port, "a_0"))
            elif port != "0":
                out.add((node + port, "a_0"))
        return out

    def canonical(key):
        node, lab = key
        return _tree_node_index(node) * 11 + _BLOCK_RANK[lab]

    def hint(key):
        node, lab = key
        if lab == "a_0":
            if node == "":
                return None
            return (node[:-1], f"a_{node[-1]}")
        return (node, _BLOCK_DOMINATOR_LABELS[lab])

    return LazyGraph(
        root=("", "a_0"),
        neighbors=neighbors,
        canonical_order=canonical,
        domination_hint=hint,
    )


# -- ray and the hubbed-path counterexample -----------------------------------


def ray() -> LazyGraph:
    """One-ended infinite path rooted at 0, with both order hints: the
    breadth-first dominating order (dominator = left neighbour) and the
    left-to-right dismantling order (dominator = right neighbour)."""
    return LazyGraph(
        root=0,
        neighbors=lambda k: {k, k + 1} | ({k - 1} if k > 0 else set()),
        canonical_order=lambda k: k,
        domination_hint=lambda k: k - 1 if k > 0 else None,
        dismantling_hint=lambda k: k + 1,
    )


@dataclass(frozen=True)
class HubbedPath:
    """Finite truncation of the path-with-hubs graph: path a_0..a_n plus
    hubs b_0 and b_2 joined to every a_i, bridged by b_1.

    ``dismantling`` truncates the infinite graph's left-to-right
    dismantling order: valid at every rank except the path's last vertex,
    whose dominator lives beyond the truncation (no finite instance can
    have a valid dismantling order: the graph retracts onto a 4-cycle).
    ``retraction`` collapses the path onto a_0; ``cycle`` is the retract.
    """

    graph: Graph
    dismantling: Order
    retraction: dict
    cycle: tuple


def hubbed_path(n: int) -> HubbedPath:
    if n < 2:
        raise ValueError("hubbed path needs n >= 2")
    b0, b1, b2 = n + 1, n + 2, n + 3
    edges = [(i, i + 1) for i in range(n)]
    edges += [(b0, b1), (b1, b2)]
    edges += [(i, b0) for i in range(n + 1)]
    edges += [(i, b2) for i in range(n + 1)]
    labels = tuple([f"a_{i}" for i in range(n + 1)] + ["b_0", "b_1", "b_2"])
    G = Graph(n + 4, edges, labels=labels)
    sequence = tuple(range(n + 4))
    dominator = {i: i + 1 for i in range(n)}  # a_n's dominator is truncated away
    dominator[b0] = b1
    dominator[b1] = b2
    order = Order(sequence, dominator, "dismantling")
    retraction = {v: (0 if v <= n else v) for v in range(n + 4)}
    return HubbedPath(G, order, retraction, (0, b0, b1, b2))


# -- trees ---------------------------------------------------------------


@dataclass(frozen=True)
class TreeBall:
    """Ball of the degree-d infinite leafless tree, with interior
    vertices (distance < radius) marked and the BFS dominating order."""

    graph: Graph
    order: Order
    interior: frozenset


def leafless_tree_ball(degree: int, radius: int) -> TreeBall:
    if degree < 2 or radius < 1:
        raise ValueError("need degree >= 2 and radius >= 1")
    limit = graphs.MAX_FILE_ORDER
    edges = []
    parent = {0: None}
    depth = {0: 0}
    frontier = [0]
    nxt = 1
    for d in range(radius):
        newer = []
        for u in frontier:
            kids = degree if u == 0 else degree - 1
            for _ in range(kids):
                if nxt >= limit:
                    raise GraphTooLargeError(limit)
                parent[nxt] = u
                depth[nxt] = d + 1
                edges.append((u, nxt))
                newer.append(nxt)
                nxt += 1
        frontier = newer
    G = Graph(nxt, edges)
    dominator = {v: p for v, p in parent.items() if p is not None}
    order = Order(tuple(range(nxt)), dominator, "constructing")
    interior = frozenset(v for v in range(nxt) if depth[v] < radius)
    return TreeBall(G, order, interior)


# -- random families -----------------------------------------------------


def random_constructible(n: int, seed: int):
    """Grow a graph one dominated vertex at a time: vertex v attaches to
    a uniformly random earlier vertex u plus a random subset of u's
    earlier closed neighbourhood, so u dominates v at insertion.
    Returns (graph, construction order)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    edges = []
    adj = {0: set()}
    dominator = {}
    for v in range(1, n):
        u = rng.randrange(v)
        pool = sorted(adj[u] | {u})
        extra = {w for w in pool if w != u and rng.random() < 0.5}
        nbrs = {u} | extra
        adj[v] = set(nbrs)
        for w in nbrs:
            adj[w].add(v)
            edges.append((w, v))
        dominator[v] = u
    return Graph(n, edges), Order(tuple(range(n)), dominator, "constructing")


def random_connected_graph(n: int, seed: int) -> Graph:
    """Random spanning tree plus density-p extra edges, p drawn per seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    p = rng.random()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


# -- CLI dispatcher -----------------------------------------------------------


@dataclass(frozen=True)
class Generated:
    graph: Graph
    dominating: Order | None = None
    dismantling: Order | None = None


def make(family: str, *, n: int | None = None, degree: int | None = None,
         radius: int | None = None, seed: int | None = None) -> Generated:
    """Build a named family instance; lazy families require ``radius``
    and are returned as that ball."""

    def need(value, name):
        if value is None:
            raise ValueError(f"family {family!r} requires --{name}")
        return value

    peeled = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph,
              "star": star_graph}
    if family in peeled:
        g = peeled[family](need(n, "n"))
        return Generated(g, find_dominating_order(g))
    if family == "petersen":
        return Generated(petersen_graph())
    if family == "double_wheel":
        return Generated(*double_wheel())
    if family == "hubbed_path":
        built = hubbed_path(need(n, "n"))
        return Generated(built.graph, None, built.dismantling)
    if family == "tree":
        built = leafless_tree_ball(need(degree, "degree"), need(radius, "radius"))
        return Generated(built.graph, built.order)
    if family == "ray":
        view = ball(ray(), need(radius, "radius"))
        return Generated(view.graph, view.dominating_order(), view.dismantling_order())
    if family == "wheel_tree":
        view = ball(wheel_tree(), need(radius, "radius"))
        return Generated(view.graph, view.dominating_order())
    if family == "random_constructible":
        return Generated(*random_constructible(need(n, "n"), need(seed, "seed")))
    if family == "random":
        return Generated(random_connected_graph(need(n, "n"), need(seed, "seed")))
    raise ValueError(f"unknown family {family!r}")


FAMILIES = (
    "path", "cycle", "complete", "star", "petersen", "double_wheel",
    "hubbed_path", "tree", "ray", "wheel_tree", "random_constructible", "random",
)
