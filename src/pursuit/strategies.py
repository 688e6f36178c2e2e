"""Cop move rules and robber policies.

Both players move through ``move(G, c, r, round)``, given the round by
``play`` (and, for cops, by ``estimate_timing``). Cops place with
``start(G)``, robbers with ``start(G, c)`` after seeing the cop; a cop's
``kind`` names its transcripts. Strategy context (orders, projection
families, solver tables) is immutable and shared, and so are the
players: ``ProtectiveCop`` keeps the family's row for the round it last
moved in, a pure function of its family and the round. Only
``RayRunnerRobber`` and ``CycleEvaderRobber`` keep a history (reset by
``start``), so each plays one game at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import (
    ScriptError,
    StrategyInapplicableError,
    StrategyUndefinedError,
)
from .graphs import Graph
from .orders import Order
from .retractions import RetractionFamily

if TYPE_CHECKING:  # annotations only: the table players are handed a built table
    from .solver import GameTable


# -- cop move rules --------------------------------------------------------


def chain_pursuit_move(family: RetractionFamily, c: int, r: int, when_stuck: str = "error") -> int:
    """Walk the robber's dominator chain and move to the first vertex
    adjacent to the cop; adjacency to the robber himself means capture.

    On a constructing family with the cop started at rank 0 a target
    always exists. ``when_stuck="stay"`` makes the rule stay put instead
    of failing, which keeps transcripts running on mismatched contexts
    (e.g. dismantling families) so their failure mode stays observable.
    """
    G = family.graph
    for v in family.order.chain(r):
        if G.adjacent(c, v):
            return v
    if when_stuck == "stay":
        return c
    raise StrategyInapplicableError(
        f"no vertex on the dominator chain of {r} is adjacent to {c}"
    )


def prefix_recursive_move(G: Graph, order: Order, c: int, r: int) -> int:
    """Recursive prefix strategy: capture the top-ranked vertex when
    adjacent, replace it by its dominator when not, and otherwise recurse
    into the graph one rank down."""
    seq = order.sequence
    level = len(seq)
    rr = r
    while level > 1:
        top = seq[level - 1]
        if rr == top:
            if G.adjacent(c, rr):
                return rr
            nxt = order.dominator.get(top)
            if nxt is None:
                raise StrategyUndefinedError(f"no dominator recorded for vertex {top}")
            rr = nxt
        level -= 1
    move = seq[0]
    if not G.adjacent(c, move):
        raise StrategyUndefinedError(
            f"recursion bottomed out with cop at {c}, unreachable configuration"
        )
    return move


def _protective_cutoff(round: int) -> int:
    """Round ``2k``'s cutoff ``k+1``; the protective rule moves on even rounds."""
    if round % 2 != 0:
        raise ValueError("protective moves happen on even rounds")
    return round // 2 + 1


def protective_move(family: RetractionFamily, r: int, round: int) -> int:
    """Time-dependent rule for even rounds ``2k``: project the robber
    onto the prefix below rank ``k+1``. Legal by the shifted-edge
    property of constructing families over natural orders."""
    return family.retract(_protective_cutoff(round), r)


def dismantling_pursuit_move(family: RetractionFamily, c: int, r: int) -> int:
    """Chain pursuit on a dismantling family, drifting along the cop's own
    dominator while no chain vertex of the robber is adjacent."""
    G = family.graph
    for v in family.order.chain(r):
        if G.adjacent(c, v):
            return v
    d = family.order.dominator.get(c)
    if d is None:
        raise StrategyInapplicableError(
            f"cop at chain sink {c} with no engaged chain vertex"
        )
    return d


class ChainPursuitCop:
    kind = "chain"

    def __init__(self, family: RetractionFamily, when_stuck: str = "error"):
        if when_stuck not in ("error", "stay"):
            raise ValueError("when_stuck must be 'error' or 'stay'")
        self.family = family
        self.when_stuck = when_stuck

    def start(self, G: Graph) -> int:
        return self.family.order.sequence[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return chain_pursuit_move(self.family, c, r, when_stuck=self.when_stuck)


class PrefixRecursiveCop:
    kind = "recursive"

    def __init__(self, order: Order):
        self.order = order

    def start(self, G: Graph) -> int:
        return self.order.sequence[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return prefix_recursive_move(G, self.order, c, r)


class ProtectiveCop:
    kind = "protective"

    def __init__(self, family: RetractionFamily):
        if family.flavor != "constructing":
            raise ValueError("protective play needs a constructing family")
        self.family = family
        self._last = (None, None)

    def start(self, G: Graph) -> int:
        return self.family.order.sequence[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        if round != self._last[0]:  # play asks once per round; the timing walk once per state
            self._last = (round, self.family.row(_protective_cutoff(round)))  # replaced whole
        row = self._last[1]
        m = row[r] if 0 <= r < len(row) else -1
        return m if m >= 0 else protective_move(self.family, r, round)  # the exact error


class DismantlingPursuitCop:
    kind = "dismantling"

    def __init__(self, family: RetractionFamily):
        if family.flavor != "dismantling":
            raise ValueError("this rule needs a dismantling family")
        self.family = family

    def start(self, G: Graph) -> int:
        return self.family.order.sequence[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return dismantling_pursuit_move(self.family, c, r)


class TableCop:
    kind = "table"

    def __init__(self, table: GameTable):
        self.table = table

    def start(self, G: Graph) -> int:
        return self.table.best_cop_start()

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return self.table.cop_move(c, r)


# -- robber policies --------------------------------------------------------


def _farthest_vertex(G: Graph, c: int) -> int:
    dist = G.distances_from(c)
    return max(G.vertices(), key=lambda v: (dist[v], -v))


class StationaryRobber:
    """Starts farthest from the cop and stays; ``ScriptedRobber([v])`` stays at v."""

    def start(self, G: Graph, c: int) -> int:
        return _farthest_vertex(G, c)

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return r


class DistanceGreedyRobber:
    """Moves to the closed neighbour maximising BFS distance to the cop,
    ties broken by lowest vertex id."""

    def start(self, G: Graph, c: int) -> int:
        return _farthest_vertex(G, c)

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        dm = G.distance_matrix()
        return max(G.closed_neighborhoods()[r], key=lambda v: (int(dm[v, c]), -v))


class RayRunnerRobber:
    """Walks a designated vertex path, staying put once it ends. Its
    place on the path advances only on a step it can take, so it is kept
    here: the round cannot give it back."""

    def __init__(self, path):
        if not path:
            raise ValueError("ray path must be nonempty")
        self.path = tuple(path)
        self._i = 0

    def start(self, G: Graph, c: int) -> int:
        self._i = 0
        return self.path[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        if self._i + 1 < len(self.path):
            nxt = self.path[self._i + 1]
            if G.adjacent(r, nxt):
                self._i += 1
                return nxt
        return r


class CycleEvaderRobber:
    """Lives on a 5-cycle inside a wheel block: keeps maximal cyclic
    distance to the cop's projection onto the cycle; when the cop stands
    at the hub, stays if already maximal and otherwise steps back to
    where it came from. The previous vertex and the cop's last
    projection are history, which ``start`` resets."""

    def __init__(self, cycle, hub: int):
        if len(cycle) != 5:
            raise ValueError("evader needs the 5 outer-cycle vertices in order")
        self.cycle = tuple(cycle)
        self.hub = hub
        self._index = {v: i for i, v in enumerate(self.cycle)}
        self._prev: int | None = None
        self._last_proj: int | None = None

    def start(self, G: Graph, c: int) -> int:
        self._prev = None
        self._last_proj = self._project(G, c)
        if self._last_proj is not None:
            return self.cycle[(self._last_proj + 2) % 5]
        return self.cycle[0]

    def _project(self, G: Graph, c: int) -> int | None:
        if c == self.hub:
            return None
        if c in self._index:
            return self._index[c]
        hits = {i for i, v in enumerate(self.cycle) if G.adjacent(c, v)}
        for i in hits:
            if (i - 1) % 5 in hits and (i + 1) % 5 in hits:
                return i
        return None

    @staticmethod
    def _cyc(a: int, b: int) -> int:
        d = abs(a - b) % 5
        return min(d, 5 - d)

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        i = self._index.get(r)
        if i is None:
            raise StrategyUndefinedError("evader strayed off its cycle")
        proj = self._project(G, c)
        if proj is None:
            if self._last_proj is None or self._cyc(i, self._last_proj) == 2:
                nxt = r
            elif self._prev is not None and G.adjacent(r, self._prev):
                nxt = self._prev
            else:
                nxt = r
        else:
            self._last_proj = proj
            options = (r, self.cycle[(i - 1) % 5], self.cycle[(i + 1) % 5])
            nxt = max(
                sorted(options), key=lambda v: (self._cyc(self._index[v], proj), -v)
            )
        self._prev = r
        return nxt


class TableRobber:
    """Optimal adversary from a solver table: safe moves when they exist,
    maximal capture delay otherwise."""

    def __init__(self, table: GameTable):
        self.table = table

    def start(self, G: Graph, c: int) -> int:
        return self.table.robber_start(c)

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        return self.table.robber_move(c, r)


class ScriptedRobber:
    """Replays a fixed move list (first entry is the start, entry i the
    move of round 2i + 1); stays put once the script runs out."""

    def __init__(self, script):
        if not script:
            raise ValueError("script must be nonempty")
        self.script = tuple(script)

    def start(self, G: Graph, c: int) -> int:
        return self.script[0]

    def move(self, G: Graph, c: int, r: int, round: int) -> int:
        i = (round - 1) // 2
        if i >= len(self.script):
            return r
        nxt = self.script[i]
        if not G.adjacent(r, nxt):
            raise ScriptError(f"scripted move {r} -> {nxt} is illegal")
        return nxt
