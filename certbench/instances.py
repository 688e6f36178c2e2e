"""Seeded instance mixes of the four workloads.

A workload is a fixed list of slots (family and size); the seed chooses
the random structure inside each slot and, for families without
randomness, a vertex relabelling. Every seed therefore yields the same
mix of sizes, which keeps throughput comparable across seeds, while the
instances themselves differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pursuit import generators, graphs
from pursuit.graphs import Graph


@dataclass(frozen=True)
class Plan:
    """What a library certify job runs beyond peel, tables and survival."""

    full: bool                 # naturalize, protective timing, retraction checks
    horizon_2n: bool           # survival and games at 2n, not max plies + 2 and the default
    memo_max_n: int = 0        # windowed memo search on graphs up to this order


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph
    text: str                  # graph file text; each job parses a fresh graph
    generate: tuple = ()       # ``pursuit generate`` flags (cli_pipeline only)


PLANS = {
    "long_capture": Plan(full=True, horizon_2n=False),
    "dense_random": Plan(full=False, horizon_2n=True),
    "many_small": Plan(full=True, horizon_2n=False, memo_max_n=10),
}

WORKLOADS = ("long_capture", "dense_random", "many_small", "cli_pipeline")

MANY_SMALL_POOL = 500


def _instance(name, G, generate=()):
    return Instance(name, G, G.to_text(), tuple(str(x) for x in generate))


def _relabel(G: Graph, rng: random.Random) -> Graph:
    perm = list(range(G.order))
    rng.shuffle(perm)
    return Graph(G.order, [(perm[u], perm[v]) for u, v in G.edges()])


def _density_of_seed(n: int, seed: int) -> float:
    """Edge probability ``random_connected_graph(n, seed)`` draws: it makes
    n - 1 ``randrange`` calls for the spanning tree, then one ``random()``."""
    rng = random.Random(seed)
    for v in range(1, n):
        rng.randrange(v)
    return rng.random()


def _dense_random(n: int, lo: float, hi: float, rng: random.Random) -> tuple[Graph, int]:
    """``random_connected_graph`` on a seed whose edge density lies in
    [lo, hi), and that seed; the built graph's density is checked too."""
    for _ in range(100_000):
        seed = rng.randrange(2**31)
        if lo <= _density_of_seed(n, seed) < hi:
            G = generators.random_connected_graph(n, seed)
            density = G.edge_count() / (n * (n - 1) / 2)
            if lo - 0.05 <= density < hi + 0.05:
                return G, seed
    raise RuntimeError(f"no random_connected_graph({n}) seed with density in [{lo}, {hi})")


def long_capture(rng: random.Random) -> list[Instance]:
    """Cop-win sparse graphs whose optimal captures take 14 to 200 plies.
    The radius-6 wheel_tree ball (246 vertices, over 5 s of tables) and
    random_constructible beyond n = 120 are left out so that a round stays
    short enough for at least two rounds per run. The
    mix has an odd size with well-separated job times around its middle,
    so the median job is the same instance on every seed."""
    wheel = generators.wheel_tree()
    raw = [
        ("path(40)", generators.path_graph(40)),
        ("path(70)", generators.path_graph(70)),
        ("path(100)", generators.path_graph(100)),
        ("random_constructible(60)", generators.random_constructible(60, rng.randrange(2**31))[0]),
        ("random_constructible(120)", generators.random_constructible(120, rng.randrange(2**31))[0]),
        ("tree(3,5)", generators.leafless_tree_ball(3, 5).graph),
        ("tree(3,6)", generators.leafless_tree_ball(3, 6).graph),
        ("tree(4,4)", generators.leafless_tree_ball(4, 4).graph),
    ]
    raw += [(f"wheel_tree({r})", graphs.ball(wheel, r).graph) for r in (3, 4, 5)]
    return [_instance(name, _relabel(G, rng)) for name, G in raw]


def dense_random(rng: random.Random) -> list[Instance]:
    """Dense random graphs; the n = 170 slot is dense enough to be cop-win.
    Survival at horizon 2n costs O(n^4) in a matmul kernel whose speed
    varies much more between runs than the table sweeps do, so sizes stop
    at 170 to leave room for five or so rounds per run."""
    slots = [(150, 0.3, 0.9), (160, 0.3, 0.9), (170, 0.99, 1.0)]
    return [
        _instance(f"random({n}, p>={lo})", _dense_random(n, lo, hi, rng)[0])
        for n, lo, hi in slots
    ]


def _cycle(k: int, lo: int, hi: int) -> int:
    """The k-th value of lo, lo + 1, ..., hi, lo, ..."""
    return lo + k % (hi - lo + 1)


def _small_named(k: int) -> tuple[str, Graph]:
    kind, rep = k % 6, k // 6
    if kind == 0:
        return "double_wheel", generators.double_wheel()[0]
    if kind == 1:
        return "petersen", generators.petersen_graph()
    if kind == 2:
        m = _cycle(rep, 2, 8)
        return f"hubbed_path({m})", generators.hubbed_path(m).graph
    if kind == 3:
        m = _cycle(rep, 4, 16)
        return f"cycle({m})", generators.cycle_graph(m)
    if kind == 4:
        m = _cycle(rep, 3, 15)
        return f"star({m})", generators.star_graph(m)
    m = _cycle(rep, 4, 16)
    return f"complete({m})", generators.complete_graph(m)


def many_small(rng: random.Random) -> list[Instance]:
    """A pool of small graphs (n = 4..16): in every 10 slots, 4 random
    connected, 4 random constructible and 2 named families. Orders and
    family parameters cycle through their ranges, the same for every
    seed: the slowest 1% of jobs (windowed memo searches on n = 9..10)
    sets the tail, and drawing orders at random would change how many
    such jobs a pool holds."""
    out = []
    for i in range(MANY_SMALL_POOL):
        group, slot = divmod(i, 10)
        n = _cycle(group + slot, 4, 16)
        seed = rng.randrange(2**31)
        if slot < 4:
            name, G = f"random({n})", generators.random_connected_graph(n, seed)
        elif slot < 8:
            name, G = f"random_constructible({n})", generators.random_constructible(n, seed)[0]
        else:
            name, G = _small_named(group * 2 + slot - 8)
        out.append(_instance(name, _relabel(G, rng)))
    return out


def cli_pipeline(rng: random.Random) -> list[Instance]:
    """Mid-size instances, one per family, named by their ``generate``
    flags; few enough for three rounds per run."""
    path = generators.make("path", n=60)
    seed = rng.randrange(2**31)
    constructible = generators.make("random_constructible", n=80, seed=seed)
    tree = generators.make("tree", degree=3, radius=4)
    wheel = generators.make("wheel_tree", radius=4)
    G, dense_seed = _dense_random(50, 0.2, 0.6, rng)
    return [
        _instance("path(60)", path.graph, ("--family", "path", "--n", 60)),
        _instance("random_constructible(80)", constructible.graph,
                  ("--family", "random_constructible", "--n", 80, "--seed", seed)),
        _instance("tree(3,4)", tree.graph, ("--family", "tree", "--degree", 3, "--radius", 4)),
        _instance("wheel_tree(4)", wheel.graph, ("--family", "wheel_tree", "--radius", 4)),
        _instance("random(50)", G, ("--family", "random", "--n", 50, "--seed", dense_seed)),
    ]


MIXES = {
    "long_capture": long_capture,
    "dense_random": dense_random,
    "many_small": many_small,
    "cli_pipeline": cli_pipeline,
}


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instance mix for ``seed``; same seed, same instances."""
    return MIXES[workload](random.Random(f"{workload}/{seed}"))
