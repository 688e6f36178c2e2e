"""Hot numeric kernels: game-distance tables and survival DP layers.

Both are vectorised numpy sweeps. ``tests/test_kernels.py`` keeps
plain-Python loop versions of the two kernels as reference oracles and
checks that these give identical tables and survival layers.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend: numpy is the only one, named for run stamps."""
    return "numpy"


def _inf_for(n: int) -> int:
    return 4 * n * n + 16


# -- game-distance tables -------------------------------------------------
#
# States are (cop position, robber position, side to move) on a reflexive
# graph given by its closed adjacency matrix. Distances count remaining
# moves (plies) until capture under optimal play; INF marks states the cop
# cannot force.


def _tables_numpy(adj):
    n = adj.shape[0]
    inf = _inf_for(n)
    eye = np.eye(n, dtype=np.bool_)
    dc = np.full((n, n), inf, dtype=np.int64)
    dr = np.full((n, n), inf, dtype=np.int64)
    while True:
        # cop to move: 1 + min over c' in N[c] of (0 if c'==r else dr[c',r])
        val_r = np.where(eye, 0, dr)  # (c', r)
        m = np.where(adj[:, :, None], val_r[None, :, :], inf)  # (c, c', r)
        dc_new = np.minimum(m.min(axis=1) + 1, inf)
        # robber to move: 1 + max over r' in N[r] of (0 if r'==c else dc[c,r'])
        val_c = np.where(eye, 0, dc)  # (c, r')
        m2 = np.where(adj[None, :, :], val_c[:, None, :], -1)  # (c, r, r')
        worst = m2.max(axis=2)
        dr_new = np.where(worst >= inf, inf, worst + 1)
        dc_next = np.minimum(dc, dc_new)
        dr_next = np.minimum(dr, dr_new)
        if np.array_equal(dc_next, dc) and np.array_equal(dr_next, dr):
            break
        dc, dr = dc_next, dr_next
    np.fill_diagonal(dc, 0)
    np.fill_diagonal(dr, 0)
    return dc.astype(np.int32), dr.astype(np.int32)


def game_distance_tables(adj: np.ndarray):
    """Ply-distance tables (cop to move, robber to move); -1 = no forced
    capture from that state."""
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    dc, dr = _tables_numpy(adj)
    inf = _inf_for(adj.shape[0])
    dc[dc >= inf] = -1
    dr[dr >= inf] = -1
    return dc, dr


# -- bounded survival DP ----------------------------------------------------
#
# layers[t, c, r] answers: with positions (c, r) uncaptured and round t
# about to be played (robber on odd t, cop on even t), can the robber
# avoid capture through round `horizon` against every cop behaviour,
# moving only inside `allowed`? Layer horizon+1 is all-True (survived).


def _survive_numpy(adj, allowed, cop_allowed, horizon):
    n = adj.shape[0]
    eye = np.eye(n, dtype=np.bool_)
    adj16 = adj.astype(np.int16)
    adj_cop16 = (adj & cop_allowed[None, :]).astype(np.int16)
    layers = np.zeros((horizon + 2, n, n), dtype=np.bool_)
    layers[horizon + 1] = True
    for t in range(horizon, 1, -1):
        nxt = layers[t + 1]
        if t % 2 == 1:
            safe = nxt & ~eye & allowed[None, :]  # (c, r')
            layer = (safe.astype(np.int16) @ adj16) > 0  # any r' in N[r]
        else:
            bad = eye | ~nxt  # (c', r)
            layer = ~((adj_cop16 @ bad.astype(np.int16)) > 0)  # no bad c' in N[c]
        layer &= ~eye
        layers[t] = layer
    return layers


def survive_layers(
    adj: np.ndarray, allowed: np.ndarray, horizon: int, cop_allowed: np.ndarray | None = None
) -> np.ndarray:
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    allowed = np.ascontiguousarray(allowed, dtype=np.bool_)
    if cop_allowed is None:
        cop_allowed = np.ones(adj.shape[0], dtype=np.bool_)
    cop_allowed = np.ascontiguousarray(cop_allowed, dtype=np.bool_)
    if horizon < 2:
        raise ValueError("survival DP needs horizon >= 2")
    return _survive_numpy(adj, allowed, cop_allowed, horizon)
