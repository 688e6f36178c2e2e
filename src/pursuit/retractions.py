"""Projection maps built from iterated dominators, and retraction checkers.

A constructing family projects any vertex onto the order's prefix below a
cutoff rank by following its dominator chain downward; a dismantling
family projects onto the suffix at-or-above a cutoff by following the
chain upward. Both are retractions where defined.
"""

from __future__ import annotations

from .errors import CheckResult, InvalidOrderError, NontotalRetractionError
from .graphs import Graph
from .orders import Order


class RetractionFamily:
    """Iterated-dominator projections over an ordered graph.

    Pure and memoized; share freely across games. ``retract(cutoff, v)``
    follows v's dominator chain until the rank condition first holds:
    rank < cutoff for the constructing flavour, rank >= cutoff for the
    dismantling flavour.
    """

    def __init__(self, graph: Graph, order: Order):
        if sorted(order.sequence) != list(range(graph.order)):
            raise InvalidOrderError("order does not cover the graph's vertex set")
        self.graph = graph
        self.order = order
        self.flavor = order.flavor
        self._chains: dict[int, tuple[int, ...]] = {}
        self._memo: dict[tuple[int, int], int] = {}
        self._depths = None

    def rank(self, v: int) -> int:
        return self.order.rank_of(v)

    def dominator(self, v: int):
        return self.order.dominator.get(v)

    def chain(self, v: int) -> tuple[int, ...]:
        """v, dominator(v), dominator^2(v), ... up to the terminal vertex
        or the first vertex without a recorded dominator."""
        cached = self._chains.get(v)
        if cached is not None:
            return cached
        bound = self.graph.order
        out = [v]
        cur = v
        for _ in range(bound):
            nxt = self.order.dominator.get(cur)
            if nxt is None:
                break
            if nxt in out:
                raise InvalidOrderError(f"dominator cycle through vertex {nxt}")
            out.append(nxt)
            cur = nxt
        else:
            raise InvalidOrderError("dominator chain exceeds the graph order")
        chain = tuple(out)
        self._chains[v] = chain
        return chain

    def depth(self, v: int):
        """Chain length to the terminal vertex, or None for stuck chains."""
        if self._depths is None:
            from .orders import depth_table

            self._depths = depth_table(self.order, strict=False)
        return self._depths[v]

    def max_depth(self) -> int:
        depths = [self.depth(v) for v in range(self.graph.order)]
        finite = [d for d in depths if d is not None]
        return max(finite) if finite else 0

    def retract(self, cutoff: int, v: int) -> int:
        n = self.graph.order
        if self.flavor == "constructing":
            if cutoff < 1:
                raise ValueError("constructing projections need cutoff >= 1")
            cutoff = min(cutoff, n)
        else:
            if not (0 <= cutoff <= n - 1):
                raise ValueError(f"cutoff {cutoff} out of range")
        key = (cutoff, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        for w in self.chain(v):
            r = self.rank(w)
            if (self.flavor == "constructing" and r < cutoff) or (
                self.flavor == "dismantling" and r >= cutoff
            ):
                self._memo[key] = w
                return w
        if self.flavor == "dismantling":
            raise NontotalRetractionError(cutoff, v)
        raise InvalidOrderError(
            f"chain of {v} never drops below rank {cutoff}: broken order"
        )

    def exponent(self, cutoff: int, v: int) -> int:
        """Number of dominator steps taken by ``retract(cutoff, v)``."""
        return self.chain(v).index(self.retract(cutoff, v))

    def is_total(self, cutoff: int) -> bool:
        try:
            for v in range(self.graph.order):
                self.retract(cutoff, v)
        except NontotalRetractionError:
            return False
        return True

    def max_total_cutoff(self) -> int:
        """Largest cutoff at which the dismantling projection is total.

        Totality is monotone: a chain serving a high cutoff serves every
        lower one. Constructing families are total at every legal cutoff.
        """
        n = self.graph.order
        if self.flavor == "constructing":
            return n
        return min(max(self.rank(w) for w in self.chain(v)) for v in range(n))


def check_retraction(G: Graph, mapping, fixed) -> CheckResult:
    """Is ``mapping`` a retraction of G onto the subgraph on ``fixed``?

    Requires: the image lies inside ``fixed``, every vertex of ``fixed``
    maps to itself, and every edge maps to an edge or collapses to a
    single vertex (legal, since all graphs are reflexive).
    """
    f = dict(enumerate(mapping)) if not isinstance(mapping, dict) else mapping
    fixed = set(fixed)
    for v in G.vertices():
        if v not in f:
            return CheckResult(False, where=v, detail=f"map undefined at {v}")
        if f[v] not in fixed:
            return CheckResult(False, where=v, detail=f"image of {v} escapes the target")
    for h in fixed:
        if f[h] != h:
            return CheckResult(False, where=h, detail=f"target vertex {h} not fixed")
    for u, v in G.edges():
        if not G.adjacent(f[u], f[v]):
            return CheckResult(
                False, where=(u, v), detail=f"edge ({u},{v}) maps to non-edge ({f[u]},{f[v]})"
            )
    return CheckResult(True)


def check_family_retraction(G: Graph, family: RetractionFamily, cutoff: int) -> CheckResult:
    """One projection of the family is a retraction onto its prefix/suffix:
    fixes the target region pointwise and maps edges to edges-or-equal."""
    n = G.order
    if family.flavor == "constructing":
        target = {v for v in G.vertices() if family.rank(v) < cutoff}
    else:
        target = {v for v in G.vertices() if family.rank(v) >= cutoff}
    try:
        image = {v: family.retract(cutoff, v) for v in G.vertices()}
    except NontotalRetractionError as err:
        return CheckResult(False, where=(cutoff, err.vertex), detail=str(err))
    for v in G.vertices():
        if image[v] not in target:
            return CheckResult(False, where=v, detail=f"image of {v} misses the target region")
    for h in target:
        if image[h] != h:
            return CheckResult(False, where=h, detail=f"target vertex {h} moved to {image[h]}")
    for u, v in G.edges():
        if not G.adjacent(image[u], image[v]):
            return CheckResult(
                False,
                where=(cutoff, u, v),
                detail=f"cutoff {cutoff}: edge ({u},{v}) maps to non-edge",
            )
    return CheckResult(True)


def check_shifted_edge_property(
    G: Graph, family: RetractionFamily, cutoffs=None
) -> CheckResult:
    """For every edge uv and tested cutoff k: ``retract(k+1, u)`` is
    adjacent (or equal) to ``retract(k, v)``, in both edge directions.

    Default cutoffs cover every k at which both projections involved are
    total; the result records the tested range in ``where`` on success.
    """
    n = G.order
    if cutoffs is None:
        if family.flavor == "constructing":
            cutoffs = range(1, n)
        else:
            cutoffs = range(0, family.max_total_cutoff())
    cutoffs = list(cutoffs)
    for k in cutoffs:
        for u, v in G.edges():
            for a, b in ((u, v), (v, u)):
                try:
                    pa = family.retract(k + 1, a)
                    pb = family.retract(k, b)
                except NontotalRetractionError as err:
                    return CheckResult(False, where=(k, a, b), detail=str(err))
                if not G.adjacent(pa, pb):
                    return CheckResult(
                        False,
                        where=(k, a, b),
                        detail=(
                            f"cutoff {k}: edge ({a},{b}) shifts to non-edge ({pa},{pb})"
                        ),
                    )
    return CheckResult(True, where=tuple(cutoffs))
