import dataclasses
import json

import numpy as np
import pytest

from pursuit import (
    ChainPursuitCop,
    CycleEvaderRobber,
    DistanceGreedyRobber,
    GameConfig,
    GraphFormatError,
    RayRunnerRobber,
    RetractionFamily,
    ScriptedRobber,
    StationaryRobber,
    TableCop,
    TableRobber,
    TranscriptFaultError,
    check_pursuit_invariants,
    check_shadow,
    decide_cop_win,
    evaluate_classic,
    evaluate_cweak,
    evaluate_weak,
    find_dominating_order,
    play,
)
from pursuit.engine import (
    Outcome,
    Transcript,
    replay,
    transcript_from_json,
    transcript_to_json,
    transcript_to_text,
)
from pursuit.graphs import ball
from pursuit.generators import (
    cycle_graph,
    double_wheel,
    hubbed_path,
    path_graph,
    random_constructible,
    ray,
)


def chain_cop(G, order=None):
    order = order or find_dominating_order(G)
    return ChainPursuitCop(RetractionFamily(G, order))


def test_k2_capture_round_two():
    K2 = path_graph(2)
    T = play(GameConfig(K2, chain_cop(K2), StationaryRobber()))
    assert T.outcome == Outcome("capture", 2)
    assert evaluate_classic(T)


def test_c4_optimal_pair_reaches_horizon():
    C4 = cycle_graph(4)
    table = decide_cop_win(C4)
    T = play(GameConfig(C4, TableCop(table), TableRobber(table), max_rounds=100))
    assert T.outcome.kind == "horizon"
    assert not evaluate_classic(T)


def test_block_chain_pursuit_captures_greedy():
    G, order = double_wheel()
    T = play(GameConfig(G, chain_cop(G, order), DistanceGreedyRobber(), max_rounds=500))
    assert T.captured


def test_transcript_alternates_and_moves_are_legal():
    G, order = double_wheel()
    T = play(GameConfig(G, chain_cop(G, order), DistanceGreedyRobber(), max_rounds=500))
    last = {}
    for t, player, v in T.moves:
        assert (player == "cop") == (t % 2 == 0)
        if player in last:
            assert G.adjacent(last[player], v)
        last[player] = v


def test_play_is_deterministic():
    G, order = double_wheel()
    t1 = play(GameConfig(G, chain_cop(G, order), DistanceGreedyRobber(), max_rounds=500))
    t2 = play(GameConfig(G, chain_cop(G, order), DistanceGreedyRobber(), max_rounds=500))
    assert t1 == t2


def test_robber_start_override_and_instant_capture():
    K2 = path_graph(2)
    cop = chain_cop(K2)
    T = play(GameConfig(K2, cop, ScriptedRobber([cop.start(K2)])))
    assert T.outcome == Outcome("capture", 1)


def test_fault_on_illegal_scripted_move():
    P4 = path_graph(4)
    T = play(GameConfig(P4, chain_cop(P4), ScriptedRobber([0, 2]), max_rounds=20))
    assert T.outcome.kind == "fault" and "robber" in T.outcome.detail
    with pytest.raises(TranscriptFaultError):
        evaluate_classic(T)


class _Answer:
    """Starts on 2, then answers every cop move with ``vertex``, legal or
    not."""

    def __init__(self, vertex, start=2):
        self.vertex = vertex
        self.start_vertex = start

    def start(self, G, c):
        return self.start_vertex

    def move(self, G, c, r, round):
        return self.vertex


_C4 = cycle_graph(4)
_C4_TABLE = decide_cop_win(_C4)


# The table cop starts on 0 and steps to 1 in round 2, beside the robber on 2.
@pytest.mark.parametrize("robber, outcome", [
    (TableRobber(_C4_TABLE), ("horizon", None, "")),
    (_Answer(1), ("capture", 3, "")),
    (_Answer(0), ("fault", 3, "robber: illegal move 2 -> 0")),
    (_Answer(9), ("fault", 3, "robber: illegal move 2 -> 9")),
    (_Answer(np.int64(1)), ("fault", 3, f"robber: illegal move 2 -> {np.int64(1)!r}")),
    (_Answer(True), ("fault", 3, "robber: illegal move 2 -> True")),
    (ScriptedRobber([2, 0]), ("fault", 3, "robber: scripted move 2 -> 0 is illegal")),
], ids=["table", "legal_int", "illegal_int", "off_graph_int", "numpy_int", "bool",
        "script_error"])
def test_played_transcripts_survive_json_and_replay(robber, outcome):
    T = play(GameConfig(_C4, TableCop(_C4_TABLE), robber, max_rounds=12))
    assert (T.outcome.kind, T.outcome.round, T.outcome.detail) == outcome
    again = transcript_from_json(transcript_to_json(T))
    assert again == T
    replay(_C4, again.moves, again.outcome, again.visit_counts)


@pytest.mark.parametrize("start", [np.int64(2), True, 4])
def test_starts_must_be_plain_int_vertices(start):
    with pytest.raises(ValueError, match="unknown vertex"):
        play(GameConfig(_C4, TableCop(_C4_TABLE), _Answer(1, start=start), max_rounds=12))


class _RoundLog:
    """The table robber on C4, recording the round of each move it is asked for."""

    def __init__(self):
        self.robber = TableRobber(_C4_TABLE)
        self.rounds = []

    def start(self, G, c):
        return self.robber.start(G, c)

    def move(self, G, c, r, round):
        self.rounds.append(round)
        return self.robber.move(G, c, r, round)


@pytest.mark.parametrize("horizon", [12, 13])
def test_robber_moves_get_the_round_from_play(horizon):
    robber = _RoundLog()
    T = play(GameConfig(_C4, TableCop(_C4_TABLE), robber, max_rounds=horizon))
    assert T.outcome.kind == "horizon"
    assert robber.rounds == list(range(3, horizon + 1, 2))


def test_one_scripted_robber_plays_two_games_alike():
    # the script is read at the round, so nothing carries over between games
    robber = ScriptedRobber([2, 3, 2, 3, 2, 3])
    first, second = (play(GameConfig(_C4, TableCop(_C4_TABLE), robber, max_rounds=12))
                     for _ in range(2))
    assert first == second
    assert first.outcome.kind == "horizon"
    assert [v for _, p, v in first.moves if p == "robber"] == [2, 3, 2, 3, 2, 3]


def test_weak_oscillation_counted():
    moves = [(0, "cop", 0), (1, "robber", 2)]
    t, pos = 2, 2
    for i in range(50):
        moves.append((2 + 2 * i, "cop", 0))
        pos = 3 if pos == 2 else 2
        moves.append((3 + 2 * i, "robber", pos))
    counts = [0, 0, 26, 25]
    T = Transcript(tuple(moves), Outcome("horizon"), tuple(counts), horizon=101)
    res = evaluate_weak(T, 3)
    assert not res and res.where == 2
    assert evaluate_weak(T, 100)


def test_weak_capture_ignores_bound():
    K2 = path_graph(2)
    T = play(GameConfig(K2, chain_cop(K2), StationaryRobber()))
    assert evaluate_weak(T, 0)


def test_weak_accepts_int_and_table_bounds():
    moves = ((0, "cop", 0), (1, "robber", 2), (2, "cop", 1), (3, "robber", 2))
    T = Transcript(moves, Outcome("horizon"), (0, 0, 2), horizon=3)
    assert evaluate_weak(T, 5) and not evaluate_weak(T, 1)
    assert evaluate_weak(T, [5, 5, 5])
    assert not evaluate_weak(T, [5, 5, 1])
    with pytest.raises(ValueError):
        evaluate_weak(T, [5, 5])  # table must cover every vertex


def test_weak_default_bound_holds_for_chain_pursuit():
    from pursuit import depth_table

    for seed in range(8):
        G, order = random_constructible(12, 400 + seed)
        table = decide_cop_win(G)
        depths = depth_table(order)
        for robber in (TableRobber(table), DistanceGreedyRobber(), StationaryRobber()):
            T = play(GameConfig(G, chain_cop(G, order), robber))
            assert T.captured
            assert evaluate_weak(T, [d + 1 for d in depths])


def test_cweak_fresh_ray_true():
    view = ball(ray(), 60)
    cop = ChainPursuitCop(RetractionFamily(view.graph, view.dominating_order()))
    runner = RayRunnerRobber(list(range(20, 61)))  # starts ahead, runs outward
    T = play(GameConfig(view.graph, cop, runner, max_rounds=40))
    assert T.outcome.kind == "horizon"
    assert evaluate_cweak(T)


def test_cweak_rejects_late_oscillation():
    G, order = double_wheel()
    hub = G.vertex_by_label("c")
    cycle = [G.vertex_by_label(f"a_{i}") for i in range(5)]

    class PatrolCop:
        def start(self, G):
            return cycle[0]

        def move(self, G, c, r, round=0):
            return cycle[(cycle.index(c) + 1) % 5]

    T = play(GameConfig(G, PatrolCop(), CycleEvaderRobber(cycle, hub), max_rounds=200))
    assert T.outcome.kind == "horizon"
    res = evaluate_cweak(T)
    assert not res and res.where is not None


def test_cweak_capture_true():
    K2 = path_graph(2)
    T = play(GameConfig(K2, chain_cop(K2), StationaryRobber()))
    assert evaluate_cweak(T)


def test_pursuit_invariants_collected_and_checked():
    G, order = double_wheel()
    table = decide_cop_win(G)
    T = play(GameConfig(G, chain_cop(G, order), TableRobber(table)))
    assert T.captured
    assert len(T.stages) == len([m for m in T.moves if m[1] == "cop" and m[0] >= 2])
    assert check_pursuit_invariants(T)
    stages = [s for _, s in T.stages]
    assert stages == sorted(stages)


def test_shadow_replay_on_hubbed_path():
    built = hubbed_path(20)
    fam = RetractionFamily(built.graph, built.dismantling)
    cop = ChainPursuitCop(fam, when_stuck="stay")
    a0, b0, b1, b2 = built.cycle
    script = [b1, b0, a0, b2, b1, b0, a0, b2, b1]
    T = play(GameConfig(built.graph, cop, ScriptedRobber(script), max_rounds=30))
    assert check_shadow(T, built.graph, built.retraction)


def test_shadow_detects_illegal_walk():
    P4 = path_graph(4)
    moves = ((0, "cop", 0), (1, "robber", 3), (2, "cop", 2))
    T = Transcript(moves, Outcome("horizon"), (0, 0, 0, 1), horizon=2)
    res = check_shadow(T, P4, {0: 0, 1: 1, 2: 2, 3: 3})
    assert not res  # cop hop 0 -> 2 is not an edge


def _p5_chain_pursuit():
    P5 = path_graph(5)
    return P5, play(GameConfig(P5, chain_cop(P5), StationaryRobber()))


def test_pursuit_invariants_name_each_fault():
    _, T = _p5_chain_pursuit()
    assert T.captured and len(T.stages) == 4
    for edit, detail in (
        ({"stages": T.stages[::-1]}, "stage dropped to 4 at round 6"),
        ({"chain_events": T.chain_events + T.chain_events[-1:]}, "failed to decrease"),
        ({"stages": T.stages[1:]}, "cop move without a chain annotation"),
    ):
        res = check_pursuit_invariants(dataclasses.replace(T, **edit))
        assert not res and detail in res.detail


def test_shadow_names_each_fault():
    P5, T = _p5_chain_pursuit()  # the cop walks 4, 3, 2, 1, 0 onto the robber at 0
    identity = {v: v for v in P5.vertices()}
    for change, detail in (
        ({4: 0}, "shadow step 0 -> 3 is not an edge"),
        ({0: 1}, "robber at 0 not fixed by the map"),
    ):
        res = check_shadow(T, P5, {**identity, **change})
        assert not res and res.detail == detail
    # a capture claimed where the cop and the robber stand apart
    moves = ((0, "cop", 0), (1, "robber", 3), (2, "cop", 1))
    T = Transcript(moves, Outcome("capture", 2), (0, 0, 0, 1), horizon=2)
    res = check_shadow(T, P5, identity)
    assert not res and res.detail == "capture does not shadow to a capture"


def test_transcript_serialisation_roundtrip():
    G, order = double_wheel()
    T = play(GameConfig(G, chain_cop(G, order), DistanceGreedyRobber(), max_rounds=500))
    again = transcript_from_json(transcript_to_json(T))
    assert again == T
    text = transcript_to_text(T)
    assert text.splitlines()[0] == f"0 cop {T.moves[0][2]}"


_GOOD_PAYLOAD = {
    "horizon": 4, "cop_kind": "chain",
    "moves": [[0, "cop", 0], [1, "robber", 2], [2, "cop", 1]],
    "outcome": {"kind": "horizon", "round": None, "detail": ""},
    "visit_counts": [0, 0, 1], "stages": [[2, 3]], "chain_events": [[2, 2, 1]],
}


@pytest.mark.parametrize("field, value", [
    ("outcome", {"kind": [], "round": None, "detail": ""}),
    ("outcome", {"kind": "capture", "round": 2.0, "detail": ""}),
    ("outcome", {"kind": "capture", "round": True, "detail": ""}),
    ("outcome", {"kind": "horizon", "round": None, "detail": 0}),
    ("moves", [[0, "cop", 0], [1, "robber", True]]),
    ("moves", [[0, "cop", 0], [1, "thief", 2]]),
    ("moves", [[0, "cop", 0], [1, ["robber"], 2]]),
    ("moves", [[0, "cop", 0], [1, "robber"]]),
    ("moves", [[0, "cop", 0], [1.0, "robber", 2]]),
    ("visit_counts", [0, 0, 1.0]),
    ("visit_counts", [0, 0, False]),
    ("stages", [[2, "3"]]),
    ("stages", [[2, 3, 4]]),
    ("chain_events", [[2, 2, None]]),
    ("horizon", "4"),
    ("cop_kind", ["chain"]),
])
def test_transcript_fields_are_type_checked(field, value):
    assert transcript_from_json(json.dumps(_GOOD_PAYLOAD)).stages == ((2, 3),)
    with pytest.raises(GraphFormatError, match="^bad transcript file: "):
        transcript_from_json(json.dumps({**_GOOD_PAYLOAD, field: value}))


def test_deeply_nested_transcript_is_a_format_error():
    with pytest.raises(GraphFormatError, match="^bad transcript file: "):
        transcript_from_json("[" * 100_000)
