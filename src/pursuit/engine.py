"""Alternating-move game loop, transcripts, and winning-criterion
evaluators.

Round convention: the cop places in round 0, the robber places in round
1, and thereafter the cop moves on even rounds and the robber on odd
rounds. ``play`` owns the round and hands it to both players: each move
is ``move(G, c, r, round)``. Capture is checked after every move, so a
robber stepping onto the cop counts. A robber "visit" is recorded at his
placement and at every robber move, including moves along a loop
(staying put).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    CheckResult,
    EngineInvariantError,
    GraphFormatError,
    StrategyError,
    TranscriptFaultError,
    parse_file,
    write_file,
)
from .graphs import Graph
from .orders import depth_table


@dataclass(frozen=True)
class Outcome:
    kind: str  # capture | horizon | fault
    round: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class Transcript:
    """Full alternating move record of one play.

    ``stages`` holds, per cop move, the maximal cutoff k with
    ``retract(k, r) == c`` (only for constructing-family cops);
    ``chain_events`` holds (round, robber vertex, chain exponent) for the
    same moves.
    """

    moves: tuple  # (round, "cop" | "robber", vertex)
    outcome: Outcome
    visit_counts: tuple
    stages: tuple = ()
    chain_events: tuple = ()
    horizon: int = 0
    cop_kind: str = ""

    @property
    def captured(self) -> bool:
        return self.outcome.kind == "capture"


@dataclass
class GameConfig:
    arena: Graph
    cop: object
    robber: object
    max_rounds: int | None = None


def default_horizon(G: Graph, cop) -> int:
    family = getattr(cop, "family", None)
    depth = G.order
    if family is not None:
        depth = max([1] + [d for d in depth_table(family.order, strict=False) if d is not None])
    return 10 * G.order * depth


def _legal(G: Graph, here: int | None, v) -> bool:
    """The move rule of :func:`play` and :func:`replay`: ``v`` is a plain
    int (no bool or NumPy scalar, so transcripts write as JSON ints) naming
    a vertex of G, placed (``here`` None) or inside N[``here``]."""
    if type(v) is not int or not 0 <= v < G.order:
        return False
    return here is None or bool(G.closed_masks()[here] >> v & 1)


def play(cfg: GameConfig) -> Transcript:
    """Run one game to capture, horizon, or abort. Pure given the arena,
    the strategies, the starts, and the horizon."""
    G = cfg.arena
    if not G.is_connected():
        raise ValueError("arena must be connected")
    n = G.order
    horizon = cfg.max_rounds if cfg.max_rounds is not None else default_horizon(G, cfg.cop)
    if horizon < 2:
        raise ValueError("max_rounds must be at least 2")

    moves = []
    visits = [0] * n

    c = cfg.cop.start(G)
    if not _legal(G, None, c):
        raise ValueError(f"unknown vertex {c!r}")
    moves.append((0, "cop", c))

    r = cfg.robber.start(G, c)
    if not _legal(G, None, r):
        raise ValueError(f"unknown vertex {r!r}")
    moves.append((1, "robber", r))
    visits[r] += 1

    outcome = None
    if r == c:
        outcome = Outcome("capture", 1)

    t = 2
    while outcome is None and t <= horizon:
        mover, player, here = ("robber", cfg.robber, r) if t % 2 else ("cop", cfg.cop, c)
        try:
            m = player.move(G, c, r, t)
        except StrategyError as err:
            outcome = Outcome("fault", t, f"{mover}: {err}")
            break
        if not _legal(G, here, m):
            outcome = Outcome("fault", t, f"{mover}: illegal move {here} -> {m!r}")
            break
        moves.append((t, mover, m))
        if mover == "cop":
            c = m
        else:
            r = m
            visits[r] += 1
        if c == r:
            outcome = Outcome("capture", t)
        t += 1

    if outcome is None:
        outcome = Outcome("horizon")

    family = getattr(cfg.cop, "family", None)
    stages, chain_events = chain_annotations(None if family is None else family.order, moves)
    transcript = Transcript(
        tuple(moves),
        outcome,
        tuple(visits),
        stages,
        chain_events,
        horizon,
        getattr(cfg.cop, "kind", ""),
    )
    annotated = family is not None and family.flavor == "constructing"
    if annotated and transcript.cop_kind == "chain" and outcome.kind != "fault":
        check = check_pursuit_invariants(transcript)
        if not check:
            raise EngineInvariantError(check.detail)
    return transcript


def chain_annotations(order, moves) -> tuple[tuple, tuple]:
    """The ``stages`` and ``chain_events`` of a transcript's moves: for each
    cop move from round 2 on that lands on the robber's dominator chain at
    index k, the stage (n if k == 0, else the rank of the chain's vertex
    k - 1) and the event (round, robber vertex, k). Empty unless ``order``
    is a constructing order."""
    if order is None or order.flavor != "constructing":
        return (), ()
    n = len(order)
    stages = []
    chain_events = []
    r = None
    for t, player, v in moves:
        if player == "robber":
            r = v
        elif t >= 2:
            chain = order.chain(r)
            if v in chain:
                k = chain.index(v)
                stages.append((t, n if k == 0 else order.rank_of(chain[k - 1])))
                chain_events.append((t, r, k))
    return tuple(stages), tuple(chain_events)


def check_pursuit_invariants(T: Transcript) -> CheckResult:
    """Chain-pursuit transcript invariants: every cop move annotated, the
    stage sequence non-decreasing, and per-vertex chain exponents
    strictly decreasing."""
    cop_moves = [t for t, p, _ in T.moves if p == "cop" and t >= 2]
    if len(T.stages) != len(cop_moves):
        return CheckResult(False, detail="cop move without a chain annotation")
    last = None
    for t, stage in T.stages:
        if last is not None and stage < last:
            return CheckResult(False, where=t, detail=f"stage dropped to {stage} at round {t}")
        last = stage
    seen: dict[int, int] = {}
    for t, vertex, k in T.chain_events:
        if vertex in seen and k >= seen[vertex]:
            return CheckResult(
                False,
                where=t,
                detail=f"chain exponent at vertex {vertex} failed to decrease at round {t}",
            )
        seen[vertex] = k
    return CheckResult(True)


def replay(G: Graph, moves, outcome: Outcome, visit_counts) -> None:
    """Replay a transcript's moves on G for legality: rounds 0, 1, 2, ...
    with the cop first and the players alternating, every vertex in the
    graph, every move inside the closed neighbourhood of the mover's last
    vertex, and nothing after a capture. The outcome (kind and round) and
    the robber's visit counts must be the ones the moves give. Raises
    GraphFormatError at the first mismatch."""
    n = G.order
    at = {}
    visits = [0] * n
    captured = None
    for i, (t, player, v) in enumerate(moves):
        mover = ("cop", "robber")[i % 2]
        if (t, player) != (i, mover):
            raise GraphFormatError(
                f"transcript move {i} is round {t} {player}, expected round {i} {mover}"
            )
        if not _legal(G, None, v):
            raise GraphFormatError(
                f"transcript round {t}: {player} at vertex {v!r}, not in the {n}-vertex graph"
            )
        if captured is not None:
            raise GraphFormatError(
                f"transcript round {t}: move after the capture at round {captured}"
            )
        if player in at and not _legal(G, at[player], v):
            raise GraphFormatError(
                f"transcript round {t}: {player} moves {at[player]} -> {v}, not an edge"
            )
        at[player] = v
        if player == "robber":
            visits[v] += 1
        if at.get("cop") == at.get("robber"):
            captured = t
    if len(moves) < 2:
        raise GraphFormatError("transcript needs the cop's and the robber's placements")
    expect = {"capture": captured, "horizon": None, "fault": len(moves)}
    if (
        outcome.kind not in expect
        or (outcome.kind == "capture") != (captured is not None)
        or outcome.round != expect[outcome.kind]
    ):
        want = "no capture" if captured is None else f"capture at round {captured}"
        raise GraphFormatError(
            f"transcript outcome {outcome.kind} at round {outcome.round}, but the moves give {want}"
        )
    if tuple(visit_counts) != tuple(visits):
        raise GraphFormatError(
            f"transcript visit counts {list(visit_counts)} differ from the moves' {visits}"
        )


# -- winning-criterion evaluators -------------------------------------------


def _require_complete(T: Transcript) -> None:
    if T.outcome.kind == "fault":
        raise TranscriptFaultError(T.outcome.detail)


def evaluate_classic(T: Transcript) -> bool:
    """Capture happened."""
    _require_complete(T)
    return T.captured


def evaluate_weak(T: Transcript, bound) -> CheckResult:
    """Capture, or every vertex's robber visit count within its bound:
    ``bound`` is one int for every vertex or a vertex-indexed sequence.

    Reports the first vertex whose count crosses the bound, with the
    round at which it happened.
    """
    _require_complete(T)
    if T.captured:
        return CheckResult(True)
    n = len(T.visit_counts)
    limit = [bound] * n if isinstance(bound, int) else list(bound)
    if len(limit) != n:
        raise ValueError("bound table must cover every vertex")
    counts = [0] * n
    for t, p, v in T.moves:
        if p != "robber":
            continue
        counts[v] += 1
        if counts[v] > limit[v]:
            return CheckResult(
                False, where=v, detail=f"vertex {v} visited {counts[v]} times by round {t}"
            )
    return CheckResult(True)


def evaluate_cweak(T: Transcript) -> CheckResult:
    """Capture, or the play has entered its fresh-escape phase: the final
    robber move enters a never-before-visited vertex.

    Finite surrogate for "from some round on, every move is fresh":
    revisits at the end of the observed play refute it, a fresh tail is
    consistent with it. ``where`` carries the last revisit round.
    """
    _require_complete(T)
    last_revisit = None
    visited = set()
    last_fresh = True
    for t, p, v in T.moves:
        if p != "robber":
            continue
        if visited:
            last_fresh = v not in visited
            if not last_fresh:
                last_revisit = t
        visited.add(v)
    if T.captured:
        return CheckResult(True, where=last_revisit)
    return CheckResult(last_fresh, where=last_revisit)


def check_shadow(T: Transcript, G: Graph, mapping: dict) -> CheckResult:
    """Replay a transcript through a retraction: the mapped cop positions
    must form a legal walk, the robber must already be fixed by the map,
    and a capture must shadow to a capture at the same round."""
    prev = None
    robber = None
    for t, p, v in T.moves:
        if p == "robber":
            if mapping[v] != v:
                return CheckResult(False, where=t, detail=f"robber at {v} not fixed by the map")
            robber = v
        else:
            img = mapping[v]
            if prev is not None and not G.adjacent(prev, img):
                return CheckResult(
                    False, where=t, detail=f"shadow step {prev} -> {img} is not an edge"
                )
            prev = img
    if T.captured:
        tc, _, cv = next(m for m in reversed(T.moves) if m[0] == T.outcome.round)
        if mapping[cv] != robber:
            return CheckResult(
                False, where=T.outcome.round, detail="capture does not shadow to a capture"
            )
    return CheckResult(True)


# -- serialisation -----------------------------------------------------------


def transcript_to_text(T: Transcript) -> str:
    return "\n".join(f"{t} {p} {v}" for t, p, v in T.moves) + "\n"


def transcript_to_json(T: Transcript) -> str:
    return json.dumps({**vars(T), "outcome": vars(T.outcome)}, indent=2, sort_keys=True) + "\n"


def _ints(xs) -> bool:
    return all(isinstance(x, int) and not isinstance(x, bool) for x in xs)


def _rows(rows, what: str, width: int, ok=_ints) -> tuple:
    """``rows`` as tuples of ``width`` entries that pass ``ok``."""
    out = tuple([tuple(row) for row in rows])  # see Graph.__init__
    for i, row in enumerate(out):
        if len(row) != width or not ok(row):
            raise TypeError(f"{what} entry {i} has the wrong length or types")
    return out


def transcript_from_json(text: str) -> Transcript:
    """Parse :func:`transcript_to_json` output; every field must have the
    type that function writes."""
    try:
        payload = json.loads(text)
        outcome = payload["outcome"]
        kind, round_, detail = outcome["kind"], outcome["round"], outcome.get("detail", "")
        horizon, cop_kind = payload.get("horizon", 0), payload.get("cop_kind", "")
        visit_counts = tuple(payload["visit_counts"])
        if not (
            all(isinstance(x, str) for x in (kind, detail, cop_kind))
            and _ints([horizon, *visit_counts]) and (round_ is None or _ints([round_]))
        ):
            raise TypeError("kind, detail and cop_kind must be strings; round, horizon "
                            "and visit_counts ints")
        return Transcript(
            moves=_rows(payload["moves"], "moves", 3,
                        lambda m: _ints(m[::2]) and m[1] in ("cop", "robber")),
            outcome=Outcome(kind, round_, detail),
            visit_counts=visit_counts,
            stages=_rows(payload.get("stages", []), "stages", 2),
            chain_events=_rows(payload.get("chain_events", []), "chain_events", 3),
            horizon=horizon,
            cop_kind=cop_kind,
        )
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise GraphFormatError(f"bad transcript file: {err}")


def load_transcript(path) -> Transcript:
    return parse_file(path, transcript_from_json)


def save_transcript(path, T: Transcript) -> None:
    write_file(path, transcript_to_json(T))
