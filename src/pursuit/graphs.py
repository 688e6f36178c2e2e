"""Finite reflexive graphs, lazy infinite graphs, and finite balls.

Every graph here is undirected and reflexive: each vertex carries an
implicit loop, so ``v in G.neighbors(v)`` always holds even though loops
are never given as edges and never written to disk.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import compress
from numbers import Integral
from operator import index
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    GeneratorContractError, GraphFormatError, GraphTooLargeError, parse_file, write_file,
)

# Hard cap on the size of a single neighbour set returned by a lazy oracle.
NEIGHBOR_CAP = 100_000
# Largest vertex count of any Graph, built or read from a file; its n^2-bit
# mask store still fits in memory. Code that checks it reads it when it runs.
MAX_FILE_ORDER = 2**16
# Turns the digits of bin() into the 0/1 selector bytes of compress().
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

if TYPE_CHECKING:  # numpy loads only with the array views, so that pure-Python callers skip it
    import numpy as np


class Graph:
    """Immutable undirected reflexive graph on vertices ``0 .. n-1``.

    The one adjacency store is :meth:`closed_masks`, a bitmask of N[v] per
    vertex with bit v always set; every other view is derived from it.
    """

    __slots__ = ("_n", "_masks", "_labels", "_matrix", "_dist", "_nbhds", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels=None):
        if n <= 0:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_FILE_ORDER:
            raise GraphTooLargeError(MAX_FILE_ORDER)
        bits = [1 << v for v in range(n)]
        masks = bits.copy()  # loops are implicit: bit v of N[v] is always set
        for u, v in edges:
            # index(), not int(): NumPy integers wrap in shifts; int(1.5) is vertex 1
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            masks[u] |= bits[v]
            masks[v] |= bits[u]
        self._store(masks, labels)

    def _store(self, masks: list[int], labels) -> None:
        """Finish the graph whose closed neighbourhoods are ``masks``."""
        self._n = len(masks)
        # Per-vertex tuples are built from lists, here and in the modules
        # that point to this note. CPython 3.11 builds a tuple from an
        # iterator without a length hint (a generator, or itertools such as
        # compress) by resizing a block that is not taken from the tuple
        # free list, yet frees the result into it, so a process that
        # handles many small graphs fills those free lists and its RSS
        # creeps up by megabytes.
        self._masks = tuple(masks)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != self._n:
                raise ValueError("labels must match vertex count")
        self._labels = labels
        self._matrix = None
        self._dist = None
        self._nbhds = None
        self._edges = None

    @property
    def order(self) -> int:
        return self._n

    @property
    def labels(self):
        return self._labels

    def label(self, v: int) -> str:
        self._check(v)
        return self._labels[v] if self._labels else str(v)

    def vertex_by_label(self, name: str) -> int:
        if self._labels is None:
            raise KeyError(name)
        return self._labels.index(name)

    def vertices(self) -> range:
        return range(self._n)

    def _check(self, v: int) -> None:
        # numpy registers its integer scalars as Integral; plain ints take the fast test
        if not ((isinstance(v, int) or isinstance(v, Integral)) and 0 <= v < self._n):
            raise ValueError(f"unknown vertex {v!r}")

    def adjacent(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return self._masks[u] >> index(v) & 1 == 1

    def neighbors(self, v: int) -> frozenset[int]:
        """Closed neighbourhood of ``v`` (always contains ``v``)."""
        self._check(v)
        return frozenset(self.closed_neighborhoods()[v])

    def degree(self, v: int) -> int:
        self._check(v)
        return self._masks[v].bit_count() - 1

    def edges(self):
        """Edges ``(u, v)`` with ``u < v``, in increasing order."""
        for u, row in enumerate(self.closed_neighborhoods()):
            for v in row:
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """Edges as a cached int (m, 2) array, rows in :meth:`edges` order."""
        if self._edges is None:
            import numpy as np

            self._edges = np.array(list(self.edges()), dtype=np.intp).reshape(-1, 2)
        return self._edges

    def edge_count(self) -> int:
        return (sum(m.bit_count() for m in self._masks) - self._n) // 2

    def is_connected(self) -> bool:
        masks = self._masks
        full = (1 << self._n) - 1
        seen = masks[0]
        todo = seen ^ 1  # reached, N[w] not yet ORed in
        while todo and seen != full:
            low = todo & -todo
            grown = masks[low.bit_length() - 1]
            todo = (todo ^ low) | (grown & ~seen)
            seen |= grown
        return seen == full

    def distances_from(self, source: int) -> list[int]:
        """BFS distances; unreachable vertices get -1."""
        self._check(source)
        nbhds = self.closed_neighborhoods()
        dist = [-1] * self._n
        dist[source] = 0
        todo = deque([source])
        while todo:
            u = todo.popleft()
            for v in nbhds[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    todo.append(v)
        return dist

    def distance_matrix(self) -> np.ndarray:
        if self._dist is None:
            import numpy as np

            self._dist = np.array([self.distances_from(v) for v in range(self._n)], dtype=np.int32)
        return self._dist

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean closed-adjacency matrix (diagonal is True)."""
        if self._matrix is None:
            import numpy as np

            width = (self._n + 7) // 8
            rows = b"".join([m.to_bytes(width, "little") for m in self._masks])
            packed = np.frombuffer(rows, dtype=np.uint8).reshape(self._n, width)
            self._matrix = np.unpackbits(packed, 1, count=self._n, bitorder="little").view(bool)
        return self._matrix

    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighbourhoods as int bitmasks: bit w of entry v is set iff w is in N[v]."""
        return self._masks

    def closed_neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """Closed neighbourhoods as sorted tuples: entry v lists N[v] in
        increasing order. Unchecked and cached, for hot loops; use
        :meth:`neighbors` for a checked lookup."""
        if self._nbhds is None:
            vertices = range(self._n)
            # bit w of the mask becomes byte w of the selector, in C
            self._nbhds = tuple([
                tuple([*compress(vertices, bin(m)[:1:-1].encode().translate(_BIT_BYTES))])
                for m in self._masks
            ])
        return self._nbhds

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self):
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={self.edge_count()})"

    # -- serialisation --------------------------------------------------

    def to_text(self) -> str:
        """Graph file text: ``n``, one ``# label <v> <name>`` line per vertex
        when the graph is labelled, then one ``u v`` line per edge."""
        lines = [str(self._n)]
        if self._labels is not None:
            lines.extend(f"# label {v} {_label_text(name)}" for v, name in enumerate(self._labels))
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse :meth:`to_text` output. ``# label`` lines must name every
        vertex once; other ``#`` lines are ignored. Lines end at ``"\n"``
        only, and each edge line is ORed into the closed masks as it is read."""
        n = None
        masks = bits = ids = None  # set by the header line
        named = {}  # vertex -> (line number, label)
        for lineno, raw in enumerate(text.split("\n"), start=1):
            parts = raw.split()
            # the common line first: an edge after the header
            if len(parts) == 2 and n is not None and parts[0][0] != "#":
                u, v = ids.get(parts[0]), ids.get(parts[1])
                if u is None or v is None:  # not written as str(id) of an id below n
                    try:
                        u, v = int(parts[0]), int(parts[1])
                    except ValueError:
                        raise GraphFormatError(f"line {lineno}: expected integers")
                if not 0 <= u < v < n:
                    raise GraphFormatError(
                        f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < n"
                    )
                masks[u] |= bits[v]
                masks[v] |= bits[u]
                continue
            line = raw.strip()
            if line.startswith("#"):
                words = line[1:].split(None, 2)
                if words[:1] == ["label"]:
                    v, name = _parse_label(words, lineno)
                    if v in named:
                        raise GraphFormatError(
                            f"line {lineno}: vertex {v} already labelled on line {named[v][0]}"
                        )
                    named[v] = (lineno, name)
                continue
            if not line:
                continue
            if n is not None:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected vertex count")
            if not 1 <= n <= MAX_FILE_ORDER:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {n} is not in 1..{MAX_FILE_ORDER}"
                )
            bits = [1 << v for v in range(n)]
            masks = bits.copy()
            ids = {str(v): v for v in range(n)}  # one int() per distinct id, not per token
        if n is None:
            raise GraphFormatError("empty graph file")
        labels = None
        if named:
            for v, (lineno, _) in named.items():
                if not 0 <= v < n:
                    raise GraphFormatError(f"line {lineno}: label for vertex {v} out of range")
            if len(named) != n:
                missing = min(set(range(n)) - named.keys())
                raise GraphFormatError(
                    f"labels name {len(named)} of {n} vertices; vertex {missing} has none"
                )
            labels = [named[v][1] for v in range(n)]
        graph = cls.__new__(cls)
        graph._store(masks, labels)
        return graph

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self._n):
            lines.append(f'  {v} [label="{self.label(v)}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _label_text(name) -> str:
    """``name`` as written on a ``# label`` line; refuses names that would
    not read back unchanged."""
    text = str(name)
    if not text or text != text.strip() or "\n" in text:
        raise ValueError(f"label {text!r} cannot be stored in a graph file")
    return text


def _parse_label(words: list[str], lineno: int) -> tuple[int, str]:
    """Vertex and name of a ``# label <v> <name>`` line split into at most
    three words; the name is the rest of the line and may hold spaces."""
    if len(words) != 3:
        raise GraphFormatError(f"line {lineno}: expected '# label <v> <name>'")
    try:
        v = int(words[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: label vertex must be an integer")
    return v, words[2]


def load_graph(path) -> Graph:
    return parse_file(path, Graph.from_text)


def save_graph(path, graph: Graph) -> None:
    write_file(path, graph.to_text())


def dominates(G: Graph, u: int, v: int) -> bool:
    """True iff ``u != v``, ``u ~ v``, and every neighbour of ``v`` is
    adjacent to ``u`` (closed neighbourhood containment)."""
    from .orders import dominates_within

    if u == v or not G.adjacent(u, v):
        return False
    return dominates_within(G.closed_masks(), (1 << G.order) - 1, int(u), int(v))


class Induced(NamedTuple):
    graph: Graph
    to_parent: tuple[int, ...]


def induced_subgraph(G: Graph, subset: Iterable[int]) -> Induced:
    """Subgraph induced on ``subset``, with dense re-indexed vertex ids.

    ``to_parent[new_id]`` recovers the original vertex id; new ids follow
    ascending original ids.
    """
    keep = sorted(set(subset))
    if not keep:
        raise ValueError("cannot induce on an empty vertex set")
    for v in keep:
        G._check(v)
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in G.edges()
        if u in index and v in index
    ]
    labels = None
    if G.labels is not None:
        labels = tuple(G.labels[v] for v in keep)
    return Induced(Graph(len(keep), edges, labels=labels), tuple(keep))


# -- lazy graphs and balls ----------------------------------------------


@dataclass(frozen=True)
class LazyGraph:
    """Countable reflexive graph given by a root and a neighbour oracle.

    The oracle must be pure, symmetric, include each key in its own
    neighbour set, and return finite sets. ``canonical_order`` injectively
    maps keys to naturals; the optional hints give the dominator of each
    key under the generator's known orders (``None`` marks the terminal).
    """

    root: object
    neighbors: Callable[[object], Iterable[object]]
    canonical_order: Callable[[object], int]
    domination_hint: Callable[[object], object] | None = None
    dismantling_hint: Callable[[object], object] | None = None

    def neighbor_set(self, key) -> frozenset:
        out = set()
        for i, nb in enumerate(self.neighbors(key)):
            if i >= NEIGHBOR_CAP:
                raise GeneratorContractError(
                    f"neighbour set of {key!r} exceeds {NEIGHBOR_CAP} entries"
                )
            out.add(nb)
        if key not in out:
            raise GeneratorContractError(f"{key!r} missing from its own neighbour set")
        return frozenset(out)


@dataclass(frozen=True)
class BallView:
    """Finite ball of a lazy graph with the key/id bijection and the
    generator's order hints restricted to the ball."""

    graph: Graph
    keys: tuple            # id -> key
    id_of: dict            # key -> id
    dominator_hint: dict   # id -> id, constructing flavour
    dismantling_dominator_hint: dict

    def dominating_order(self):
        from .orders import Order

        return Order(tuple(range(self.graph.order)), dict(self.dominator_hint), "constructing")

    def dismantling_order(self):
        from .orders import Order

        return Order(
            tuple(range(self.graph.order)), dict(self.dismantling_dominator_hint), "dismantling"
        )


def ball(L: LazyGraph, radius: int) -> BallView:
    """All keys within graph distance ``radius`` of the root, as a Graph.

    Vertex ids are assigned by ``canonical_order``, not by discovery
    order, so order hints stay valid after truncation. A ball of more than
    ``MAX_FILE_ORDER`` keys is refused once the search holds more keys than that.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dist = {L.root: 0}
    neigh = {}  # key -> its oracle neighbour set, asked once per key
    frontier = deque([L.root])
    while frontier:
        if len(dist) > MAX_FILE_ORDER:
            raise GraphTooLargeError(MAX_FILE_ORDER)
        key = frontier.popleft()
        if dist[key] == radius:
            continue
        neigh[key] = L.neighbor_set(key)
        for nb in neigh[key]:
            if nb not in dist:
                dist[nb] = dist[key] + 1
                frontier.append(nb)

    members = list(dist)
    ranks = {key: L.canonical_order(key) for key in members}
    if len(set(ranks.values())) != len(members):
        raise GeneratorContractError("canonical_order is not injective on the ball")
    members.sort(key=ranks.__getitem__)
    id_of = {key: i for i, key in enumerate(members)}

    # the boundary, at distance radius, in id order
    neigh.update([(key, L.neighbor_set(key)) for key in members if key not in neigh])
    edges = set()
    for key in members:
        for nb in neigh[key]:
            if nb in id_of and nb != key:
                if key not in neigh[nb]:
                    raise GeneratorContractError(
                        f"asymmetric oracle: {nb!r} lists {key!r} but not vice versa"
                    )
                a, b = id_of[key], id_of[nb]
                edges.add((min(a, b), max(a, b)))

    labels = tuple(str(key) for key in members)
    graph = Graph(len(members), edges, labels=labels)

    def restrict(hint):
        out = {}
        if hint is None:
            return out
        for key in members:
            target = hint(key)
            if target is not None and target in id_of:
                out[id_of[key]] = id_of[target]
        return out

    return BallView(
        graph=graph,
        keys=tuple(members),
        id_of=id_of,
        dominator_hint=restrict(L.domination_hint),
        dismantling_dominator_hint=restrict(L.dismantling_hint),
    )
