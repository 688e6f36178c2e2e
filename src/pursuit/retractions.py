"""Projection maps built from iterated dominators, and retraction checkers.

A constructing family projects any vertex onto the order's prefix below a
cutoff rank by following its dominator chain downward; a dismantling
family projects onto the suffix at-or-above a cutoff by following the
chain upward. Both are retractions where defined. A family keeps all its
projections in one flat ``array("i")`` table, built on first use, whose
layout only this module reads: a cutoff's row comes out as a list, so
projecting needs no numpy, and the two table checkers view the buffer in
place, the family check finding every cutoff's first fault in one pass.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .errors import CheckResult, InvalidOrderError, NontotalRetractionError
from .graphs import Graph
from .orders import Order, _check_permutation, chain_lengths


class RetractionFamily:
    """Iterated-dominator projections over an ordered graph.

    Pure; share freely across games. ``retract(cutoff, v)`` is the first
    vertex on v's dominator chain whose rank meets the cutoff: rank <
    cutoff for the constructing flavour, rank >= cutoff for the
    dismantling flavour. All of them sit in :attr:`table`, built on the
    first query.
    """

    def __init__(self, graph: Graph, order: Order):
        _check_permutation(graph, order.sequence)
        self.graph = graph
        self.order = order
        self.flavor = order.flavor
        self._faults = None  # (graph, table, faults) of _first_faults

    @cached_property
    def table(self) -> array:
        """``(n + 1)·n`` ints, row-major: ``table[k*n + v]`` = ``retract(k,
        v)`` for k = 0..n, or -1 where that raises. Built in one pass over
        the dominator forest: v's column is v on the rows whose target
        holds v (k > rank when constructing, k <= rank when dismantling)
        and its dominator's column on the others; a broken chain or a
        dominator outside the graph leaves -1."""
        n = self.graph.order
        rank, dom = self.order._rank, self.order.dominator
        table = array("i", [-1]) * ((n + 1) * n)
        for v, length in chain_lengths(self.order).items():  # each after its dominator
            r = rank.get(v)
            if length is None or r is None:
                continue
            d, s = dom.get(v), (r + 1) * n  # rows 0..r end at s
            if self.flavor == "constructing":
                table[v + s :: n] = array("i", [v]) * (n - r)
                if d in rank:
                    table[v:s:n] = table[d:s:n]
            else:
                table[v:s:n] = array("i", [v]) * (r + 1)
                if d in rank:
                    table[v + s :: n] = table[d + s :: n]
        return table

    def _row(self, cutoff: int) -> int:
        """Table row for ``cutoff``; raises ValueError when out of range."""
        n = self.graph.order
        if self.flavor == "constructing":
            if cutoff < 1:
                raise ValueError("constructing projections need cutoff >= 1")
            return min(cutoff, n)
        if not (0 <= cutoff <= n - 1):
            raise ValueError(f"cutoff {cutoff} out of range")
        return cutoff

    def row(self, cutoff: int) -> list[int]:
        """``retract(cutoff, v)`` for every vertex v, or -1 where that raises."""
        n, k = self.graph.order, self._row(cutoff)
        return self.table[k * n : (k + 1) * n].tolist()

    def retract(self, cutoff: int, v: int) -> int:
        n, k = self.graph.order, self._row(cutoff)
        w = self.table[k * n + v] if 0 <= v < n else -1
        if w >= 0:
            return w
        for u in self.order.chain(v):  # re-raises a broken chain's error
            self.order.rank_of(u)  # KeyError for a vertex outside the graph
        if self.flavor == "dismantling":
            raise NontotalRetractionError(k, v)
        raise InvalidOrderError(f"chain of {v} never drops below rank {k}: broken order")

    def max_total_cutoff(self) -> int:
        """Largest cutoff at which the dismantling projection is total.

        Totality is monotone: a chain serving a high cutoff serves every
        lower one. Constructing families are total at every legal cutoff.
        """
        n = self.graph.order
        if self.flavor == "constructing":
            return n
        rank, chain = self.order.rank_of, self.order.chain
        return min(max(rank(w) for w in chain(v)) for v in range(n))


def check_retraction(G: Graph, mapping: dict, fixed) -> CheckResult:
    """Is ``mapping`` a retraction of G onto the subgraph on ``fixed``?

    Requires: the image lies inside ``fixed``, every vertex of ``fixed``
    maps to itself, and every edge maps to an edge or collapses to a
    single vertex (legal, since all graphs are reflexive).
    """
    fixed = set(fixed)
    for v in G.vertices():
        if v not in mapping:
            return CheckResult(False, where=v, detail=f"map undefined at {v}")
        if mapping[v] not in fixed:
            return CheckResult(False, where=v, detail=f"image of {v} escapes the target")
    for h in fixed:
        if mapping[h] != h:
            return CheckResult(False, where=h, detail=f"target vertex {h} not fixed")
    for u, v in G.edges():
        if not G.adjacent(mapping[u], mapping[v]):
            detail = f"edge ({u},{v}) maps to non-edge ({mapping[u]},{mapping[v]})"
            return CheckResult(False, where=(u, v), detail=detail)
    return CheckResult(True)


def check_family_retraction(G: Graph, family: RetractionFamily, cutoff: int) -> CheckResult:
    """One projection of the family is a retraction onto its prefix/suffix:
    fixes the target region pointwise and maps edges to edges-or-equal.
    Every cutoff's first fault comes from one pass over the table."""
    k = family._row(cutoff)
    i = _first_faults(G, family)[k]
    n = G.order
    if i < 0:
        return CheckResult(True)
    if i < n:  # a -1 in the row
        try:
            family.retract(cutoff, i)  # raises the error behind the -1
        except NontotalRetractionError as err:
            return CheckResult(False, where=(cutoff, err.vertex), detail=str(err))
    if i < 2 * n:
        v = i - n
        return CheckResult(False, where=v, detail=f"image of {v} misses the target region")
    if i < 3 * n:
        h = i - 2 * n
        return CheckResult(
            False, where=h, detail=f"target vertex {h} moved to {family.retract(cutoff, h)}"
        )
    u, v = G.edge_array()[i - 3 * n].tolist()
    return CheckResult(
        False, where=(cutoff, u, v), detail=f"cutoff {cutoff}: edge ({u},{v}) maps to non-edge"
    )


def _table_view(family: RetractionFamily):
    """The family's table as an int32 ``(n + 1, n)`` numpy array, without a copy."""
    import numpy as np

    n = family.graph.order
    return np.frombuffer(family.table, dtype=np.intc).reshape(n + 1, n)


def _first_faults(G: Graph, family: RetractionFamily) -> list[int]:
    """Per table row k, the first True of the row's fault mask [image -1 |
    image off target | target vertex moved | edge -> non-edge], n, n, n and
    m entries long, or -1 when there is none. The target of row k is ranks
    < k when constructing, >= k when dismantling; kept per graph and table."""
    cached = family._faults
    if cached is not None and cached[0] is G and cached[1] is family.table:
        return cached[2]
    import numpy as np

    table = _table_view(family)
    n = G.order
    ks = np.arange(n + 1)[:, None]
    ranks = np.array([family.order.rank_of(v) for v in range(n)])
    in_target = ranks < ks if family.flavor == "constructing" else ranks >= ks
    edges = G.edge_array()
    mask = np.concatenate((
        table < 0,
        ~np.take_along_axis(in_target, table, axis=1),
        in_target & (table != np.arange(n)),
        ~G.adjacency_matrix()[table[:, edges[:, 0]], table[:, edges[:, 1]]],
    ), axis=1)
    first = mask.argmax(axis=1)
    faults = np.where(mask[np.arange(n + 1), first], first, -1).tolist()
    family._faults = (G, family.table, faults)
    return faults


def check_shifted_edge_property(G: Graph, family: RetractionFamily) -> CheckResult:
    """For every edge uv and cutoff k: ``retract(k+1, u)`` is adjacent (or
    equal) to ``retract(k, v)``, in both edge directions.

    The cutoffs are every k at which both projections involved are total:
    1..n-1 for a constructing family, 0..max_total_cutoff()-1 for a
    dismantling one. All of them are read from the table in one pass; the
    first failure in (cutoff, edge) order is reported, and the tested
    range sits in ``where`` on success.
    """
    import numpy as np

    cons = family.flavor == "constructing"
    lo, hi = (1, G.order) if cons else (0, family.max_total_cutoff())
    edges = G.edge_array()
    a, b = edges.reshape(-1), edges[:, ::-1].reshape(-1)  # (u, v) before (v, u)
    table = _table_view(family)
    pa, pb = table[lo + 1 : hi + 1][:, a], table[lo:hi][:, b]
    hits = np.flatnonzero((pa < 0) | (pb < 0) | ~G.adjacency_matrix()[pa, pb])
    if not hits.size:
        return CheckResult(True, where=tuple(range(lo, hi)))
    k, i = divmod(int(hits[0]), len(a))
    k, u, v = k + lo, int(a[i]), int(b[i])
    try:
        pu, pv = family.retract(k + 1, u), family.retract(k, v)
    except NontotalRetractionError as err:
        return CheckResult(False, where=(k, u, v), detail=str(err))
    detail = f"cutoff {k}: edge ({u},{v}) shifts to non-edge ({pu},{pv})"
    return CheckResult(False, where=(k, u, v), detail=detail)
