"""Dominating and dismantling orders: construction, verification, depth.

A dominating order builds the graph one dominated vertex at a time; a
dismantling order tears it down the same way. Both are one type,
:class:`Order`, told apart by its ``flavor``: ``"constructing"`` or
``"dismantling"``. Each order carries a dominator map: the witness vertex
that dominates each entry inside the relevant prefix (constructing
flavour) or suffix (dismantling flavour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckResult, GraphFormatError, InvalidOrderError, parse_file, write_file
from .graphs import Graph


@dataclass(frozen=True)
class Order:
    """Vertex permutation plus dominator map, in one of two flavours.

    A ``"constructing"`` (dominating) order's first vertex has no
    dominator; a ``"dismantling"`` order's last vertex has none. Truncations
    of infinite instances may leave further chain sinks without a
    dominator; verification reports those. Orders of different flavours
    never compare equal.
    """

    sequence: tuple[int, ...]
    dominator: dict[int, int]
    flavor: str
    _rank: dict = field(init=False, repr=False, compare=False)
    _chains: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in ("constructing", "dismantling"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "sequence", tuple(self.sequence))
        object.__setattr__(self, "_rank", {v: i for i, v in enumerate(self.sequence)})
        object.__setattr__(self, "_chains", {})

    def rank_of(self, v: int) -> int:
        return self._rank[v]

    def chain(self, v: int) -> tuple[int, ...]:
        """v, dominator(v), dominator^2(v), ... up to the first vertex
        without a recorded dominator; the walk does not stop at the
        terminal. Raises InvalidOrderError on a cycle or on a chain longer
        than the order."""
        cached = self._chains.get(v)
        if cached is not None:
            return cached
        out = [v]
        seen = {v}
        for _ in range(len(self.sequence)):
            nxt = self.dominator.get(out[-1])
            if nxt is None:
                break
            if nxt in seen:
                raise InvalidOrderError(f"dominator cycle through vertex {nxt}")
            out.append(nxt)
            seen.add(nxt)
        else:
            raise InvalidOrderError("dominator chain exceeds the graph order")
        self._chains[v] = chain = tuple(out)
        return chain

    def __len__(self) -> int:
        return len(self.sequence)

    def terminal(self) -> int:
        return self.sequence[0 if self.flavor == "constructing" else -1]


def _check_permutation(G: Graph, sequence) -> None:
    if sorted(sequence) != list(range(G.order)):
        raise InvalidOrderError("sequence is not a permutation of the vertex set")


def dominators_within(masks, region: int, v: int) -> int:
    """Bitmask of the u != v in ``region`` (a bitmask holding v) whose closed
    neighbourhood holds N[v] & region: the AND of N[w] over w in N[v] &
    region, stopped once empty. ``masks`` come from Graph.closed_masks."""
    found = region & ~(1 << v)
    rest = masks[v] & region
    while rest and found:
        w = rest & -rest
        found &= masks[w.bit_length() - 1]
        rest ^= w
    return found


def dominates_within(masks, region: int, u: int, v: int) -> bool:
    """True iff u dominates v inside ``region``, for a u the caller knows is
    in ``region``: u != v and N[v] & region lies inside N[u]."""
    return u != v and not masks[v] & region & ~masks[u]


def _greedy_peel(G: Graph):
    """Remove the lowest-id dominated vertex until stuck or one remains.

    Returns (removed, dominator_of, survivor) with dominator_of recording
    the lowest-id dominator alive at removal time, or None if peeling got
    stuck before reaching a single vertex.

    An undominated vertex stays so until a neighbour goes (the search reads
    only ``alive & N[v]``), so only those are tested again: n + m at most.
    """
    masks = G.closed_masks()
    alive = untested = (1 << G.order) - 1
    removed = []
    dominator_of = {}
    while alive & (alive - 1):  # two or more alive
        while untested:
            low = untested & -untested
            untested ^= low
            v = low.bit_length() - 1
            found = dominators_within(masks, alive, v)
            if found:
                break
        else:
            return None
        removed.append(v)
        dominator_of[v] = (found & -found).bit_length() - 1
        alive ^= low
        untested |= masks[v] & alive
    return removed, dominator_of, alive.bit_length() - 1


def find_dominating_order(G: Graph) -> Order | None:
    """Greedy peel-and-reverse; absent iff the graph is not constructible."""
    if not G.is_connected():
        raise ValueError("graph must be connected")
    peeled = _greedy_peel(G)
    if peeled is None:
        return None
    removed, dominator_of, survivor = peeled
    sequence = (survivor, *reversed(removed))
    return Order(sequence, dominator_of, "constructing")


def find_dismantling_order(G: Graph) -> Order | None:
    """Greedy removal sequence, first removed vertex at rank 0."""
    if not G.is_connected():
        raise ValueError("graph must be connected")
    peeled = _greedy_peel(G)
    if peeled is None:
        return None
    removed, dominator_of, survivor = peeled
    return Order((*removed, survivor), dominator_of, "dismantling")


def _verify(G: Graph, order: Order, suffix: bool) -> CheckResult:
    dom = order.dominator
    _check_permutation(G, order.sequence)
    sequence = [int(v) for v in order.sequence]  # a shift by a numpy integer wraps
    n = len(sequence)
    terminal = sequence[-1 if suffix else 0]
    if terminal in dom:
        # every chain ends at the terminal, so Order.chain would cycle
        raise InvalidOrderError(
            f"terminal vertex {terminal} has a recorded dominator {dom[terminal]}"
        )
    ranks = range(0, n - 1) if suffix else range(1, n)
    region = (1 << n) - 1 if suffix else 1 << sequence[0]

    for rank in ranks:
        v = sequence[rank]
        if suffix:
            if rank > 0:
                region ^= 1 << sequence[rank - 1]
        else:
            region |= 1 << v
        d = dom.get(v)
        if d is None:
            why = f"vertex {v} has no dominator"
        elif d not in range(n) or not region >> int(d) & 1:
            why = f"dominator {d} of {v} outside its {'suffix' if suffix else 'prefix'}"
        elif not dominates_within(G.closed_masks(), region, int(d), v):
            why = f"{d} does not dominate {v}"
        else:
            continue
        return CheckResult(False, where=rank, detail=why)
    return CheckResult(True)


def verify_dominating_order(G: Graph, order: Order) -> CheckResult:
    """Each rank's recorded dominator dominates it in its prefix; else the first failing rank."""
    return _verify(G, order, suffix=False)


def verify_dismantling_order(G: Graph, order: Order) -> CheckResult:
    """Each rank's recorded dominator dominates it in its suffix; else the first failing rank."""
    return _verify(G, order, suffix=True)


def chain_lengths(order: Order) -> dict:
    """The length of :meth:`Order.chain` for every vertex on a chain of the
    order (dominators outside the sequence too), or ``None`` where that
    call raises, with each vertex listed after its dominator.

    One walk over the dominator forest: each vertex's trail is followed
    only up to a settled vertex, whose length is the rest of it. A trail
    that meets itself is a cycle, and a chain longer than the order is
    broken from there down, exactly where :meth:`Order.chain` raises.
    """
    n = len(order.sequence)
    dom = order.dominator
    length, seen = {}, set()  # seen and not settled: on the current trail
    for v in order.sequence:
        trail, w = [], v
        while w not in seen and w is not None:
            seen.add(w)
            trail.append(w)
            w = dom.get(w)
        below = length.get(w, None if w in seen else 0)
        while trail:
            below = None if below is None or below >= n else below + 1
            length[trail.pop()] = below
    return length


def depth_table(order: Order, strict: bool = True) -> tuple:
    """Chain length from each vertex to the order's terminal vertex: its
    index in :meth:`Order.chain`, or ``None`` when the chain misses it.

    Vertex-indexed. With ``strict=False`` stuck chains yield ``None``
    instead of raising (truncated orders have such sinks).

    O(n), read off :func:`chain_lengths`. Where chains break,
    :meth:`Order.chain` of the first such vertex of the sequence raises
    the exact error.
    """
    terminal = order.terminal()
    length = chain_lengths(order)
    for v in order.sequence:
        if length[v] is None:
            order.chain(v)  # raises
    depth = {}
    for v in length:  # each after its dominator
        d = depth.get(order.dominator.get(v))
        depth[v] = 0 if v == terminal else None if d is None else d + 1
    stuck = [v for v in order.sequence if depth[v] is None]
    if strict and stuck:
        raise InvalidOrderError(f"dominator chain stuck at vertices {stuck}")
    return tuple([depth[v] for v in range(len(order.sequence))])  # see Graph.__init__


def naturalize_order(G: Graph, order: Order):
    """Re-sort a dominating order by levels so ties in level keep the
    original rank; the same dominator map stays valid.

    Levels: the first vertex gets 0; every other vertex gets one more than
    the largest level among its earlier neighbours. Returns the new order
    and the vertex-indexed level table.
    """
    check = verify_dominating_order(G, order)
    if not check:
        raise InvalidOrderError(f"input order invalid at rank {check.where}: {check.detail}")
    sequence = order.sequence
    level: dict[int, int] = {sequence[0]: 0}
    rank = {v: i for i, v in enumerate(sequence)}
    nbhds = G.closed_neighborhoods()
    for v in sequence[1:]:
        earlier = [u for u in nbhds[v] if rank[u] < rank[v]]  # leaves out v itself
        if not earlier:
            raise InvalidOrderError(f"vertex {v} has no earlier neighbour")
        level[v] = max(level[u] for u in earlier) + 1
    new_seq = tuple(sorted(sequence, key=lambda v: (level[v], rank[v])))
    return (
        Order(new_seq, dict(order.dominator), "constructing"),
        tuple([level[v] for v in range(G.order)]),  # see Graph.__init__
    )


# -- order file format ----------------------------------------------------
# line 1: `order v_0 v_1 ...`
# line 2: `delta v:d ...`   (omitted pairs mean "no dominator recorded")


def order_to_text(order: Order) -> str:
    head = "order " + " ".join(str(v) for v in order.sequence)
    pairs = " ".join(f"{v}:{d}" for v, d in sorted(order.dominator.items()))
    return f"{head}\ndelta {pairs}".rstrip() + "\n"


def order_from_text(text: str) -> Order:
    """Parse :func:`order_to_text` output: one ``order`` line, and at most
    one dominator per vertex, naming vertices of the sequence. Lines end
    at ``"\n"`` only; the dominator map's direction gives the flavour."""
    sequence = None
    dominator = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] not in ("order", "delta"):
            raise GraphFormatError(f"line {lineno}: unexpected line {line!r}")
        try:
            if parts[0] == "order":
                if sequence is not None:
                    raise GraphFormatError(f"line {lineno}: second 'order' line")
                sequence = tuple([int(x) for x in parts[1:]])  # see Graph.__init__
            else:
                for pair in parts[1:]:
                    v, d = (int(x) for x in pair.split(":"))
                    if v in dominator:
                        raise GraphFormatError(f"line {lineno}: vertex {v} has a second dominator")
                    dominator[v] = d
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected integers and 'v:d' pairs")
    if sequence is None:
        raise GraphFormatError("order file is missing its 'order' line")
    rank = {v: i for i, v in enumerate(sequence)}
    for v, d in sorted(dominator.items()):
        if v not in rank or d not in rank:
            raise GraphFormatError(f"dominator pair {v}:{d} names a vertex outside the order")
    ups = sum(1 for v, d in dominator.items() if rank[d] > rank[v])
    if ups and ups < len(dominator):
        raise GraphFormatError("mixed dominator directions")
    return Order(sequence, dominator, "dismantling" if ups else "constructing")


def load_order(path) -> Order:
    return parse_file(path, order_from_text)


def save_order(path, order: Order) -> None:
    write_file(path, order_to_text(order))
