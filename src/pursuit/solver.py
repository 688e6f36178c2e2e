"""Independent game oracles: exact cop-win decision by backward induction,
bounded adversarial search, timing estimation against a fixed strategy,
and order recovery from protective timing profiles.

numpy and the kernels load inside the table and survival entry points
only, so that a timing walk or an order recovery runs without them."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ProtectiveContradictionError
from .graphs import Graph
from .orders import Order, dominators_within

if TYPE_CHECKING:
    import numpy as np

_INF = float("inf")


def _plies(d) -> float:
    """A table entry as a capture distance: -1 (no forced capture) is infinite."""
    return _INF if d < 0 else float(d)


class GameTable:
    """Backward-induction result: ply distances to capture from every
    (cop, robber, side-to-move) state; -1 marks states the cop cannot
    win. Write-once; safe to share. Both tables hold 0 on the diagonal
    (capture), and the move choices rely on that: they read no other case."""

    def __init__(self, graph: Graph, cop_dist: np.ndarray, robber_dist: np.ndarray):
        self.graph = graph
        self.cop_dist = cop_dist
        self.robber_dist = robber_dist

    @property
    def cop_win(self) -> bool:
        return bool((self.cop_dist >= 0).all(axis=1).any())

    def best_cop_start(self) -> int:
        """Deterministic start: fewest safe robber replies, then smallest
        worst-case capture distance, then lowest id."""
        import numpy as np

        d = self.cop_dist
        # lexsort is stable, so ties go to the lowest id; the row max is the
        # worst finite distance (0 on the diagonal when none is finite).
        return int(np.lexsort((d.max(axis=1), (d < 0).sum(axis=1)))[0])

    def cop_move(self, c: int, r: int) -> int:
        """Optimal cop move; on states with no forced capture, chase by
        BFS distance (deterministic fallback)."""
        options = self.graph.closed_neighborhoods()[c]
        vals = [(_plies(self.robber_dist[cp, r]), cp) for cp in options]
        best = min(vals)
        if best[0] < _INF:
            return best[1]
        dm = self.graph.distance_matrix()
        return min(options, key=lambda cp: (int(dm[cp, r]), cp))

    def robber_start(self, c0: int) -> int:
        """The lowest safe start, else the one with the longest capture delay."""
        others = (r for r in range(self.graph.order) if r != c0)
        # on one vertex the robber can only start on the cop
        return max(others, key=lambda r: (_plies(self.cop_dist[c0, r]), -r), default=c0)

    def robber_move(self, c: int, r: int) -> int:
        """Optimal robber move: safe if possible, else maximal delay."""
        options = self.graph.closed_neighborhoods()[r]
        return max(options, key=lambda rp: (_plies(self.cop_dist[c, rp]), -rp))


def decide_cop_win(G: Graph) -> GameTable:
    """Exact verdict by retrograde analysis: game states are settled ply
    by ply in order of distance from capture. The table exposes an
    optimal cop strategy and an optimal robber policy."""
    from . import _kernels

    if not G.is_connected():
        raise ValueError("graph must be connected")
    dc, dr = _kernels.game_distance_tables(G.adjacency_matrix())
    return GameTable(G, dc, dr)


# -- bounded adversarial search ---------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """value: True (robber guarantees the objective), False (cannot), or
    None (budget exceeded -- inconclusive, deliberately distinct from
    False). witness: a :class:`SurviveWitness` when the survival DP finds
    the robber surviving; the windowed memo search returns none.
    explored: states (memo search) or layer cells (survival DP) computed."""

    value: bool | None
    witness: object = None
    explored: int = 0

    def __bool__(self) -> bool:
        return self.value is True


@dataclass(frozen=True)
class SurviveWitness:
    """Replayable robber policy extracted from the survival DP layers,
    which hold layers t0..horizon+1 of the DP (see ``_kernels``)."""

    graph: Graph
    layers: np.ndarray
    allowed: np.ndarray
    horizon: int

    def layer(self, t: int) -> np.ndarray:
        """Survival layer t, for 2 <= t <= horizon + 1; below t0 the layers
        repeat with period 2."""
        t0 = self.horizon + 2 - len(self.layers)
        return self.layers[t - t0 if t >= t0 else (t - t0) % 2]

    def move(self, t: int, c: int, r: int) -> int:
        for rp in self.graph.closed_neighborhoods()[r]:
            if rp == c or not self.allowed[rp]:
                continue
            if t + 1 > self.horizon or self.layer(t + 1)[c, rp]:
                return rp
        raise LookupError(f"witness has no surviving move at round {t} from ({c}, {r})")


def _survive_search(
    G: Graph, horizon: int, allowed: np.ndarray, cop_allowed: np.ndarray, budget: int
):
    from . import _kernels

    n = G.order
    # The robber is placed in round 1: every allowed cop start must leave
    # him an allowed start elsewhere. Below horizon 2 that is the game.
    placed = bool((int(allowed.sum()) - allowed > 0)[cop_allowed].all())
    if horizon < 2 or not placed:
        return SearchResult(placed)
    layers = _kernels.survive_layers(G.adjacency_matrix(), allowed, horizon, cop_allowed, budget)
    if layers is None:
        # the sweep stopped after the whole layers the budget pays for
        return SearchResult(None, explored=budget // (n * n) * n * n)
    witness = SurviveWitness(G, layers, allowed, horizon)
    # Every cop start leaves the robber an allowed start in layer 2, whose
    # diagonal is false.
    ok = bool((witness.layer(2) & allowed)[cop_allowed].any(axis=1).all())
    return SearchResult(ok, witness=witness if ok else None, explored=int(layers.size))


class _MemoSearch:
    """Exact minimax with objective memory (visited set + fresh-move
    streak) for the revisit-window objective. Tri-state values: True,
    False, or None once the state budget is exhausted.

    ``visited`` is an int bitmask (bit v set once the robber has stood on
    v). Each player's options at a vertex are its sorted closed
    neighbourhood, filtered once by the vertices that player may use."""

    def __init__(self, G, horizon, allowed, cop_allowed, window, budget):
        nbhds = G.closed_neighborhoods()
        self.G = G
        self.h = horizon
        self.allowed = allowed
        self.cop_allowed = cop_allowed
        self.cop_options = [[x for x in N if cop_allowed[x]] for N in nbhds]
        self.robber_options = [[x for x in N if allowed[x]] for N in nbhds]
        self.window = window
        self.budget = budget
        self.memo = {}

    def run(self):
        n = self.G.order
        verdict = True
        for c0 in range(n):
            if not self.cop_allowed[c0]:
                continue
            got = False
            unknown = False
            for r0 in range(n):
                if r0 == c0 or not self.allowed[r0]:
                    continue
                v = self._value(2, c0, r0, 1 << r0, 0)
                if v is True:
                    got = True
                    break
                if v is None:
                    unknown = True
            if not got:
                verdict = None if unknown else False
                break
        return SearchResult(verdict, explored=len(self.memo))

    def _value(self, t, c, r, visited, streak):
        if t > self.h:
            return True
        key = (t, c, r, visited, streak)
        memo = self.memo
        hit = memo.get(key, "miss")
        if hit != "miss":
            return hit
        if self.budget is not None and len(memo) >= self.budget:
            return None
        memo[key] = None  # entered: the budget counts this state from here on
        last = t == self.h  # every child is past the horizon, so True
        if t % 2 == 0:
            if r in self.cop_options[c]:
                out = False  # capture: no other cop move can do better
            elif last:
                out = True
            else:
                out = True
                for cp in self.cop_options[c]:
                    v = self._value(t + 1, cp, r, visited, streak)
                    if v is False:
                        out = False
                        break
                    if v is None:
                        out = None
        else:
            out = False
            window = self.window
            for rp in self.robber_options[r]:
                if rp == c:
                    continue
                if visited >> rp & 1:
                    nv, ns = visited, 0
                else:
                    ns = streak + 1
                    if ns >= window:
                        continue  # w fresh moves in a row: window violated
                    nv = visited | 1 << rp
                v = True if last else self._value(t + 1, c, rp, nv, ns)
                if v is True:
                    out = True
                    break
                if v is None:
                    out = None
        memo[key] = out
        return out


def adversarial_search(
    G: Graph,
    horizon: int,
    *,
    forbidden=(),
    cop_forbidden=(),
    revisit_window: int | None = None,
    budget: int | None = 2_000_000,
) -> SearchResult:
    """Can the robber guarantee survival (optionally avoiding ``forbidden``
    vertices, optionally revisiting at least once in every window of
    ``revisit_window`` consecutive moves) up to ``horizon``, against every
    cop that never occupies a vertex of ``cop_forbidden``?

    Without a window this is the survival DP; with one, the memo search.
    Exact within the budget; exceeding it yields an inconclusive result.
    Survival against one fixed cop is read off its timing profile
    (:func:`estimate_timing`).
    """
    import numpy as np

    allowed = np.ones(G.order, dtype=np.bool_)
    for v in forbidden:
        allowed[v] = False
    cop_allowed = np.ones(G.order, dtype=np.bool_)
    for v in cop_forbidden:
        cop_allowed[v] = False
    if revisit_window is None:
        return _survive_search(G, horizon, allowed, cop_allowed, budget)
    return _MemoSearch(G, horizon, allowed, cop_allowed, revisit_window, budget).run()


# -- timing profiles ---------------------------------------------------------


@dataclass(frozen=True)
class TimingProfile:
    """Per-vertex timing against a fixed cop strategy, over every robber
    behaviour within the horizon.

    ``rob_latest[v]``: latest round at which the robber can occupy v,
    uncaptured, and survive the following round (-1: never observed).
    ``cop_earliest[v]``: earliest round the cop can be at v, minimised
    over robber behaviours (-1: unattained within the horizon).
    """

    rob_latest: tuple[int, ...]
    cop_earliest: tuple[int, ...]
    horizon: int
    truncated: bool = False

    def to_text(self) -> str:
        lines = [f"horizon {self.horizon}"]
        for v, (tr, tc) in enumerate(zip(self.rob_latest, self.cop_earliest)):
            lines.append(f"{v} {tr} {tc}")
        return "\n".join(lines) + "\n"


def estimate_timing(G: Graph, cop, horizon: int, *, budget: int | None = None) -> TimingProfile:
    """Exact forward reachability of (cop, robber) states against the
    fixed strategy ``cop``, branching over all robber behaviours.

    Walks the layers of uncaptured states, one per round up to
    ``horizon``, as ``{cop vertex: robber vertices}``. A cop round calls
    ``cop.move`` on every state in (c, r) order, so it walks any cop
    that ``play`` accepts and raises the error of the failing round's
    least failing state; a robber round unions each cop's robbers'
    neighbourhoods once. A layer of more than ``budget`` states stops
    the walk and marks the profile truncated."""
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    n = G.order
    rob_latest = [-1] * n
    cop_earliest = [-1] * n
    c0 = cop.start(G)
    cop_earliest[c0] = 0
    layer = {c0: [r0 for r0 in range(n) if r0 != c0]} if n > 1 else {}
    nbhds = G.closed_neighborhoods()
    move = cop.move
    truncated = False
    t = 1
    while t <= horizon and layer:
        if budget is not None and sum(map(len, layer.values())) > budget:
            truncated = True
            break
        if t == horizon:
            break
        nxt = defaultdict(set)
        if t % 2 == 1:  # the cop replies in round t + 1
            for c in sorted(layer):
                for r in layer[c]:
                    m = move(G, c, r, t + 1)
                    if cop_earliest[m] < 0:
                        cop_earliest[m] = t + 1
                    if m != r:
                        rob_latest[r] = t
                        nxt[m].add(r)
        else:  # the robber, not captured, survives round t + 1 by staying
            for c, robbers in layer.items():
                reach = set()
                for r in robbers:
                    rob_latest[r] = t
                    reach.update(nbhds[r])
                reach.discard(c)
                nxt[c] = sorted(reach)
        layer = nxt
        t += 1
    return TimingProfile(tuple(rob_latest), tuple(cop_earliest), horizon, truncated)


def order_from_protective(G: Graph, profile: TimingProfile) -> Order:
    """Sort vertices by their latest-robbed round (never-robbed first,
    ties by id) and attach greedy dominators.

    Raises when the profile contradicts the protective requirements
    (horizon too small, or the strategy is not protective)."""
    n = G.order
    if profile.truncated:
        raise ProtectiveContradictionError("profile truncated: raise the budget")
    for v in range(n):
        tc = profile.cop_earliest[v]
        tr = profile.rob_latest[v]
        if tc < 0:
            raise ProtectiveContradictionError(
                f"cop never reaches vertex {v} within horizon {profile.horizon}"
            )
        if tr >= tc:
            raise ProtectiveContradictionError(
                f"vertex {v} robbed at round {tr}, at or after cop arrival {tc}"
            )
    sequence = tuple(sorted(range(n), key=lambda v: (profile.rob_latest[v], v)))
    region = 1 << sequence[0]
    dominator = {}
    for v in sequence[1:]:
        region |= 1 << v
        found = dominators_within(G.closed_masks(), region, v)
        if not found:
            raise ProtectiveContradictionError(
                f"vertex {v} undominated in its recovered prefix"
            )
        dominator[v] = (found & -found).bit_length() - 1
    # it verifies: each dominator dominates v in the prefix verify_dominating_order tests
    return Order(sequence, dominator, "constructing")
