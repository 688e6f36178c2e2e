"""Hot numeric kernels: game-distance tables and survival DP layers.

The tables come from retrograde analysis: states are settled ply by ply
in order of distance from capture, each ply working only on the rows
that the previous ply settled, with O(n^2) memory and float32 BLAS
products for the neighbour counts. The survival DP is a backward sweep
of boolean layers, one float32 BLAS product per round, that stops once
the layers repeat with period 2 and returns only the layers it computed.
Both take the closed adjacency matrix of a reflexive graph, which must be
symmetric: the kernels read its rows where the neighbour sums need its
columns. ``tests/test_kernels.py`` keeps plain-Python loop versions of both
kernels as reference oracles and checks that these give identical tables
and survival layers.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend: numpy is the only one, named for run stamps."""
    return "numpy"


# -- game-distance tables -------------------------------------------------
#
# States are (cop position, robber position, side to move) on a reflexive
# graph given by its closed adjacency matrix. Distances count remaining
# moves (plies) until capture under optimal play; -1 marks states the cop
# cannot force. With 0 on the diagonal,
#   dc[c, r] = 1 + min over c' in N[c] of dr[c', r]
#   dr[c, r] = 1 + max over r' in N[r] of dc[c, r']
# so a cop-to-move state is settled in the ply after its first successor
# is, and a robber-to-move state in the ply after its last one is.


def _cop_step(A, dc, d, rows, block):
    # (c, r) with c' in N[c] among the new robber-to-move states (c', r).
    # A is symmetric, so the rows A[rows] are the columns A[:, rows].
    Ar = A[rows]
    near = np.logical_or.reduce(Ar, axis=0).nonzero()[0]
    hit = (Ar[:, near].T @ block > 0) & (dc[near] < 0)
    return _settle(dc, d, near, hit)


def _robber_step(A, cnt, dr, d, rows, block):
    # (c, r) whose last unsettled reply (c, r') is among the new states.
    left = cnt[rows] - block @ A
    cnt[rows] = left
    hit = (left == 0) & (dr[rows] < 0)
    return _settle(dr, d, rows, hit)


def _settle(dist, d, rows, hit):
    """Give the states in ``hit`` distance d; return them as the next
    frontier: the rows holding one, and those rows of ``hit`` as floats."""
    keep = np.logical_or.reduce(hit, axis=1)
    rows, hit = rows[keep], hit[keep]
    settled = dist[rows]
    settled[hit] = d
    dist[rows] = settled
    return rows, hit.astype(np.float32)


def game_distance_tables(adj: np.ndarray):
    """Ply-distance tables (cop to move, robber to move); -1 = no forced
    capture from that state. Ply d settles exactly the states at distance
    d, so no state is visited twice."""
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    n = adj.shape[0]
    # float32 for BLAS: sums of 0/1 are exact in float32 below 2^24, and
    # no Graph has more than MAX_FILE_ORDER = 2^16 vertices.
    A = adj.astype(np.float32)
    dc = np.full((n, n), -1, dtype=np.int32)
    dr = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dc, 0)
    np.fill_diagonal(dr, 0)
    # cnt[c, r]: replies r' in N[r] whose state (c, r') is not settled yet.
    # np.tile, not broadcast_to: the counts are written in place.
    cnt = np.tile(A.sum(axis=0), (n, 1))
    # Ply 0 settles the captures, the diagonal, on both sides.
    cop_front = robber_front = (np.arange(n), np.eye(n, dtype=np.float32))
    d = 0
    while len(cop_front[0]) or len(robber_front[0]):
        d += 1
        cop_front, robber_front = (
            _cop_step(A, dc, d, *robber_front),
            _robber_step(A, cnt, dr, d, *cop_front),
        )
    return dc, dr


# -- bounded survival DP ----------------------------------------------------
#
# Layer t answers, for every (c, r): with positions (c, r) uncaptured and
# round t about to be played (robber on odd t, cop on even t), can the
# robber avoid capture through round `horizon` against every cop behaviour,
# moving only inside `allowed`? Layer horizon+1 is all-True (survived), and
# layer t is F_{t mod 2}(layer t+1):
#   odd t:  some r' in N[r], allowed, r' != c, has (c, r') in layer t+1
#   even t: no c' in N[c], cop-allowed, is r or has (c', r) outside layer t+1
# F depends only on the parity of t, so once layer t equals layer t+2 every
# lower layer repeats with period 2. The sweep stops at that t0 and returns
# layers t0..horizon+1 only; layer t < t0 is layers[(t - t0) % 2]. Layer t
# lies inside layer t+2 (two more rounds to survive), so the layers of each
# parity only shrink as t falls, and the stop comes a few layers after they
# reach the robber's winning region, or the empty set on a cop-win graph.


def survive_layers(
    adj: np.ndarray,
    allowed: np.ndarray,
    horizon: int,
    cop_allowed: np.ndarray,
    budget: int | None = None,
) -> np.ndarray | None:
    """Survival layers t0..horizon+1 as a (horizon + 2 - t0, n, n) bool
    array, where t0 >= 2 is where the layers start repeating with period 2
    (t0 = 2 if they never do). Every layer but the last has a false
    diagonal. None if the next layer would take the cells computed past
    ``budget``; the sweep stops there."""
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    allowed = np.ascontiguousarray(allowed, dtype=np.bool_)
    cop_allowed = np.ascontiguousarray(cop_allowed, dtype=np.bool_)
    if horizon < 2:
        raise ValueError("survival DP needs horizon >= 2")
    n = adj.shape[0]
    # layers the budget pays for; the sweep makes at most `horizon` of them
    fits = horizon if budget is None else budget // (n * n)
    if fits < 1:
        return None
    eye = np.eye(n, dtype=np.bool_)
    off = ~eye
    to = off & allowed  # robber moves (c, r') onto allowed r' != c
    # float32 for BLAS: sums of 0/1 are exact in float32 below 2^24, and
    # no Graph has more than MAX_FILE_ORDER = 2^16 vertices.
    A = adj.astype(np.float32)
    A_cop = (adj & cop_allowed).astype(np.float32)
    layers = [np.ones((n, n), dtype=np.bool_)]  # layer horizon+1, then downwards
    counts = [n * n]
    for t in range(horizon, 1, -1):
        if len(layers) == fits:
            return None
        nxt = layers[-1]
        if t % 2 == 1:
            layer = ((nxt & to).astype(np.float32) @ A) > 0  # any r' in N[r]
        else:
            bad = eye | ~nxt  # (c', r)
            layer = (A_cop @ bad.astype(np.float32)) == 0  # no bad c' in N[c]
        layer &= off
        layers.append(layer)
        counts.append(np.count_nonzero(layer))
        # layer t lies inside layer t+2, so equal counts mean equal layers
        if len(counts) > 2 and counts[-1] == counts[-3]:
            break
    return np.stack(layers[::-1])
