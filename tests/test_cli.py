import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pursuit
from pursuit.cli import _cmd_play, build_parser, main
from pursuit.graphs import load_graph
from pursuit.orders import load_order, verify_dismantling_order


def run(*argv):
    return main(list(argv))


def test_generate_order_solve_pipeline(tmp_path):
    prefix = str(tmp_path / "wheel")
    assert run("generate", "--family", "double_wheel", "--out", prefix) == 0
    assert (tmp_path / "wheel.graph").exists()
    assert (tmp_path / "wheel.order").exists()

    out = str(tmp_path / "found.order")
    assert run("order", "--graph", f"{prefix}.graph", "--out", out) == 0
    assert run("verify", "--graph", f"{prefix}.graph", "--order", out) == 0
    assert run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order") == 0


def test_generate_writes_dot_and_both_order_flavours(tmp_path, capsys):
    prefix = str(tmp_path / "ray")
    assert run("generate", "--family", "ray", "--radius", "3", "--out", prefix, "--dot") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{prefix}.order: constructing", f"{prefix}.dismantling.order: dismantling",
    ]
    graph = load_graph(f"{prefix}.graph")
    assert (tmp_path / "ray.dot").read_text(encoding="utf-8") == graph.to_dot()


def test_order_writes_a_dismantling_order(tmp_path, capsys):
    prefix, out = str(tmp_path / "wheel"), str(tmp_path / "found.order")
    run("generate", "--family", "double_wheel", "--out", prefix)
    argv = ("--graph", f"{prefix}.graph", "--flavor", "dismantling", "--out", out)
    assert run("order", *argv) == 0
    order = load_order(out)
    assert order.flavor == "dismantling"
    assert verify_dismantling_order(load_graph(f"{prefix}.graph"), order)
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--order", out) == 0
    assert capsys.readouterr().out == "order: ok\n"


def _refuse_builds(monkeypatch):
    from pursuit.graphs import Graph

    def store(*args, **kwargs):
        raise AssertionError("generate built a graph that no reader would take")

    monkeypatch.setattr(Graph, "_store", store)


def test_generate_refuses_orders_no_graph_file_holds(tmp_path, capsys, monkeypatch):
    from pursuit import graphs
    from pursuit.graphs import MAX_FILE_ORDER

    _refuse_builds(monkeypatch)
    prefix = tmp_path / "huge"
    for n in (MAX_FILE_ORDER + 1, 70000):
        assert run("generate", "--family", "path", "--n", str(n), "--out", str(prefix)) == 1
        assert capsys.readouterr() == (
            "", f"error: --n {n} is above {MAX_FILE_ORDER}, the largest graph file order\n"
        )
    # the tree generator stops its loop one vertex past the limit, before a
    # Graph is made, however far the radius reaches
    for flags in (("tree", "--degree", "10", "--radius", "8"),
                  ("tree", "--degree", "3", "--radius", "1000000000000")):
        assert run("generate", "--family", *flags, "--out", str(prefix)) == 1
        assert capsys.readouterr() == ("", f"error: --family {flags[0]} gives more vertices "
                                           f"than {MAX_FILE_ORDER}, the largest graph file order\n")
    # the ray's R + 1 and the path-like tree's 1 + 2R vertices, one past a
    # limit of 100, and searches that would reach far past it
    monkeypatch.setattr(graphs, "MAX_FILE_ORDER", 100)
    for flags in (("ray", "--radius", "100"), ("ray", "--radius", "70000"),
                  ("tree", "--degree", "2", "--radius", "50"), ("wheel_tree", "--radius", "5")):
        assert run("generate", "--family", *flags, "--out", str(prefix)) == 1
        assert capsys.readouterr() == ("", f"error: --family {flags[0]} gives more vertices "
                                           "than 100, the largest graph file order\n")
    # every other family is refused by Graph, before its masks are built
    monkeypatch.setattr(graphs, "MAX_FILE_ORDER", 9)
    assert run("generate", "--family", "petersen", "--out", str(prefix)) == 1
    assert capsys.readouterr() == (
        "", "error: --family petersen gives more vertices than 9, the largest graph file order\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_generate_refuses_n_plus_hubs_unbuilt(tmp_path, capsys, monkeypatch):
    # --n is within the limit, but the graph has n + 4 and n + 1 vertices
    from pursuit.graphs import MAX_FILE_ORDER

    _refuse_builds(monkeypatch)
    for family, n in (("hubbed_path", MAX_FILE_ORDER - 2), ("star", MAX_FILE_ORDER)):
        assert run("generate", "--family", family, "--n", str(n),
                   "--out", str(tmp_path / family)) == 1
        assert capsys.readouterr() == ("", f"error: --family {family} gives more vertices "
                                           f"than {MAX_FILE_ORDER}, the largest graph file order\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_counts_wheel_tree_balls_before_building(tmp_path, capsys, monkeypatch):
    from pursuit import generators, graphs
    from pursuit.graphs import MAX_FILE_ORDER, Graph, ball

    orders = {radius: ball(generators.wheel_tree(), radius).graph.order for radius in (0, 1, 3, 5)}
    store = Graph._store
    # a radius far past the limit is refused by a search that stops one key
    # past it, in well under a second
    _refuse_builds(monkeypatch)
    start = time.process_time()
    assert run("generate", "--family", "wheel_tree", "--radius", "30",
               "--out", str(tmp_path / "huge")) == 1
    assert time.process_time() - start < 5
    assert capsys.readouterr() == ("", f"error: --family wheel_tree gives more vertices "
                                       f"than {MAX_FILE_ORDER}, the largest graph file order\n")
    # a limit one below the ball's order refuses unbuilt, a limit at it builds
    for radius, order in orders.items():
        monkeypatch.setattr(graphs, "MAX_FILE_ORDER", order - 1)
        _refuse_builds(monkeypatch)
        assert run("generate", "--family", "wheel_tree", "--radius", str(radius),
                   "--out", str(tmp_path / "w")) == 1
        assert capsys.readouterr().err.startswith("error: --family wheel_tree gives more")
        monkeypatch.setattr(graphs, "MAX_FILE_ORDER", order)
        monkeypatch.setattr(Graph, "_store", store)
        assert run("generate", "--family", "wheel_tree", "--radius", str(radius),
                   "--out", str(tmp_path / "w")) == 0
        assert capsys.readouterr().out.startswith(f"{tmp_path / 'w'}.graph: {order} vertices")


def test_solve_c4_robber_win(tmp_path, capsys):
    prefix = str(tmp_path / "c4")
    run("generate", "--family", "cycle", "--n", "4", "--out", prefix)
    capsys.readouterr()
    assert run("solve", "--graph", f"{prefix}.graph") == 0
    assert "robber-win" in capsys.readouterr().out


def test_solve_writes_the_game_table(tmp_path):
    from pursuit.solver import decide_cop_win

    prefix, out = str(tmp_path / "p4"), tmp_path / "p4.table"
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    assert run("solve", "--graph", f"{prefix}.graph", "--table-out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "0 1 1 6"
    table = decide_cop_win(load_graph(f"{prefix}.graph"))
    assert lines == [f"{c} {r} {table.cop_dist[c, r]} {table.robber_dist[c, r]}"
                     for c in range(4) for r in range(4)]


def test_order_reports_not_constructible(tmp_path, capsys):
    prefix = str(tmp_path / "pet")
    run("generate", "--family", "petersen", "--out", prefix)
    capsys.readouterr()
    assert run("order", "--graph", f"{prefix}.graph") == 0
    assert "not constructible" in capsys.readouterr().out


def test_simulate_and_verify_transcript(tmp_path):
    prefix = str(tmp_path / "wheel")
    run("generate", "--family", "double_wheel", "--out", prefix)
    tj = str(tmp_path / "game.json")
    tt = str(tmp_path / "game.txt")
    assert run(
        "simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "s_star", "--robber", "greedy", "--horizon", "500",
        "--out", tt, "--json-out", tj,
    ) == 0
    lines = open(tt).read().splitlines()
    assert lines[0].startswith("0 cop ")
    assert run(
        "verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--transcript", tj, "--criterion", "classic",
    ) == 0
    assert run(
        "verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--transcript", tj, "--criterion", "weak", "--bound", "default",
    ) == 0


def test_verify_cweak_fails_on_oscillation(tmp_path):
    prefix = str(tmp_path / "wheel")
    run("generate", "--family", "double_wheel", "--out", prefix)
    # hand-made transcript: robber oscillates a_1 <-> a_2 (ids 1, 2) while
    # the cop sits on the hub's cycle far away
    moves = [[0, "cop", 5], [1, "robber", 1]]
    pos = 1
    for i in range(20):
        moves.append([2 + 2 * i, "cop", 5])
        pos = 2 if pos == 1 else 1
        moves.append([3 + 2 * i, "robber", pos])
    counts = [0] * 11
    counts[1], counts[2] = 11, 10
    payload = {
        "horizon": 43,
        "moves": moves,
        "outcome": {"kind": "horizon", "round": None, "detail": ""},
        "visit_counts": counts,
        "stages": [],
        "chain_events": [],
    }
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(payload))
    assert run(
        "verify", "--graph", f"{prefix}.graph", "--transcript", str(path),
        "--criterion", "cweak",
    ) == 1


def test_verify_prints_failed_criteria(tmp_path, capsys):
    prefix, game = str(tmp_path / "c4"), str(tmp_path / "game.json")
    run("generate", "--family", "cycle", "--n", "4", "--out", prefix)
    run("simulate", "--graph", f"{prefix}.graph", "--cop", "optimal", "--robber", "adversarial",
        "--horizon", "10", "--json-out", game)
    weak_line = "weak: FAIL: vertex 2 visited 2 times by round 5"
    for criterion, line in ((("classic",), "classic: FAIL (no capture)"),
                            (("weak", "--bound", "1"), weak_line)):
        capsys.readouterr()
        assert run("verify", "--graph", f"{prefix}.graph", "--transcript", game,
                   "--criterion", *criterion) == 1
        assert capsys.readouterr() == (line + "\n", "")


def test_scripted_and_evader_robbers_via_cli(tmp_path, capsys):
    prefix = str(tmp_path / "wheel")
    run("generate", "--family", "double_wheel", "--out", prefix)
    script = tmp_path / "moves.txt"
    script.write_text("2 3 4\n")
    capsys.readouterr()
    assert run(
        "simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "s_star", "--robber", f"script:{script}", "--horizon", "100",
    ) == 0
    assert "capture" in capsys.readouterr().out
    assert run(
        "simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "optimal", "--robber", "h_evader", "--horizon", "200",
    ) == 0
    assert "capture" in capsys.readouterr().out


def test_verify_reports_bad_order(tmp_path, capsys):
    prefix = str(tmp_path / "hub")
    run("generate", "--family", "hubbed_path", "--n", "9", "--out", prefix)
    capsys.readouterr()
    code = run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order")
    out = capsys.readouterr().out
    assert code == 1 and "rank 9" in out


def test_verify_reports_malformed_order_file(tmp_path, capsys):
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    bad = tmp_path / "bad.order"
    bad.write_text("order 0 1 2\ndelta 2:99\n")
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--order", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_refuses_ambiguous_order_files(tmp_path, capsys):
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    bad = tmp_path / "bad.order"
    for text, err in (
        ("order 0 1 2\norder 2 1 0\ndelta 1:2 0:1\n", "line 2: second 'order' line"),
        ("order 0 1 2\ndelta 1:0 2:0 2:1\n", "line 2: vertex 2 has a second dominator"),
    ):
        bad.write_text(text)
        capsys.readouterr()
        assert run("verify", "--graph", f"{prefix}.graph", "--order", str(bad)) == 1
        assert capsys.readouterr() == ("", f"error: {bad} {err}\n")
    # dominators pointing both ways fit neither flavour
    bad.write_text("order 0 1 2\ndelta 1:0 0:2\n")
    assert run("verify", "--graph", f"{prefix}.graph", "--order", str(bad)) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: mixed dominator directions\n")


def test_parse_errors_name_the_file_at_fault(tmp_path, capsys):
    # with a graph and an order file both given, the error names the bad one
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    graph, order = f"{prefix}.graph", f"{prefix}.order"
    bad_graph, bad_order = tmp_path / "bad.graph", tmp_path / "bad.order"
    bad_graph.write_text("3\n0 1\n1 x\n")
    bad_order.write_text("order 0 1 2\norder 2 1 0\n")
    for argv, err in (
        (("--graph", str(bad_graph), "--order", order), f"{bad_graph} line 3: expected integers"),
        (("--graph", graph, "--order", str(bad_order)), f"{bad_order} line 2: second 'order' line"),
        (("--graph", str(bad_graph), "--order", str(bad_order)),
         f"{bad_graph} line 3: expected integers"),
    ):
        capsys.readouterr()
        assert run("verify", *argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
    empty = tmp_path / "empty.order"
    empty.write_text("# no order line\n")
    capsys.readouterr()
    assert run("verify", "--graph", graph, "--order", str(empty)) == 1
    assert capsys.readouterr() == (
        "", f"error: {empty}: order file is missing its 'order' line\n"
    )
    # lines end at "\n" only: U+0085 inside a line does not end it
    bad_graph.write_text("3\n0 1\x851 x\n", encoding="utf-8")
    assert run("verify", "--graph", str(bad_graph), "--order", order) == 1
    assert capsys.readouterr() == ("", f"error: {bad_graph} line 2: expected 'u v'\n")
    bad_graph.write_bytes(b"3\r0 1\r\n")  # nor does a lone "\r": files are read untranslated
    assert run("verify", "--graph", str(bad_graph), "--order", order) == 1
    assert capsys.readouterr() == ("", f"error: {bad_graph} line 1: expected vertex count\n")
    bad_order.write_text("# a comment \x85 x\norder 0 1 2\ndelta 1:0 2:1\n", encoding="utf-8")
    assert run("verify", "--graph", graph, "--order", str(bad_order)) == 0
    assert capsys.readouterr() == ("order: ok\n", "")
    bad_graph.write_bytes(b"\xff3\n")
    capsys.readouterr()
    assert run("verify", "--graph", str(bad_graph), "--order", order) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad_graph}: 'utf-8' codec can't decode")
    # robber scripts and vertex-pair files
    script, rmap = tmp_path / "bad.script", tmp_path / "bad.map"
    for text, err in (("0 x\n", "'x' is not a vertex of the graph"),
                      ("9 1\n", "'9' is not a vertex of the graph"),
                      ("1 3\n", "'3' is not a vertex of the graph"),
                      ("-1\n", "'-1' is not a vertex of the graph")):
        script.write_text(text)
        assert run("simulate", "--graph", graph, "--cop", "optimal",
                   "--robber", f"script:{script}") == 1
        assert capsys.readouterr() == ("", f"error: {script}: {err}\n")
    script.write_text("")
    assert run("simulate", "--graph", graph, "--cop", "optimal",
               "--robber", f"script:{script}") == 1
    assert capsys.readouterr() == ("", f"error: {script}: script must be nonempty\n")
    script.write_bytes(b"0 \xff\n")
    rmap.write_bytes(b"0 0\n\xff\n")
    for path, argv in ((script, ("simulate", "--cop", "optimal", "--robber", f"script:{script}")),
                       (rmap, ("verify", "--retraction", str(rmap)))):
        assert run(*argv, "--graph", graph) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_verify_rejects_a_dominator_recorded_for_the_terminal(tmp_path, capsys):
    # The order used to verify, and `simulate --cop s_star` then failed on
    # a dominator cycle through the terminal.
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    bad = tmp_path / "bad.order"
    bad.write_text("order 0 1 2\ndelta 0:0 1:0 2:1\n")
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--order", str(bad)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: terminal vertex 0 has a recorded dominator 0\n"


def test_verify_rejects_transcript_off_the_graph(tmp_path, capsys):
    prefix = str(tmp_path / "pet")
    run("generate", "--family", "petersen", "--out", prefix)
    payload = {
        "horizon": 4,
        "moves": [[0, "cop", 0], [1, "robber", 5], [2, "cop", 1], [3, "robber", 57]],
        "outcome": {"kind": "horizon", "round": None, "detail": ""},
        "visit_counts": [0] * 10,
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(payload))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({**payload, "moves": payload["moves"][:3], "visit_counts": [0] * 3}))
    for transcript in (path, short):
        capsys.readouterr()
        assert run(
            "verify", "--graph", f"{prefix}.graph", "--transcript", str(transcript),
            "--criterion", "weak", "--bound", "3",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_retraction_verification(tmp_path):
    prefix = str(tmp_path / "hub")
    run("generate", "--family", "hubbed_path", "--n", "9", "--out", prefix)
    lines = []
    for v in range(10):
        lines.append(f"{v} 0")
    for v in (10, 11, 12):
        lines.append(f"{v} {v}")
    rmap = tmp_path / "fold.map"
    rmap.write_text("\n".join(lines) + "\n")
    assert run("verify", "--graph", f"{prefix}.graph", "--retraction", str(rmap)) == 0


def test_retraction_failure_names_the_least_failing_edge(tmp_path, capsys):
    # (0, 2) and (0, 9) both map to non-edges; edges are checked in increasing order
    graph = tmp_path / "g.graph"
    graph.write_text("10\n0 2\n0 9\n3 4\n")
    rmap = tmp_path / "fold.map"
    rmap.write_text("".join(f"{v} {5 if v == 0 else v}\n" for v in range(10)))
    capsys.readouterr()
    assert run("verify", "--graph", str(graph), "--retraction", str(rmap)) == 1
    out = capsys.readouterr().out
    assert out == "retraction: FAIL at (0, 2): edge (0,2) maps to non-edge (5,2)\n"


def test_timing_and_recovery(tmp_path, capsys):
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    capsys.readouterr()
    assert run(
        "timing", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "protective", "--horizon", "12", "--recover-order",
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("horizon 12")
    assert "recovered" in out


def test_timing_rejects_a_negative_horizon(tmp_path, capsys):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    capsys.readouterr()
    timing = ("timing", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
              "--cop", "protective")
    for extra in ((), ("--recover-order",)):
        assert run(*timing, "--horizon", "-3", *extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: horizon must be at least 0, got -3\n"
    assert run(*timing, "--horizon", "0") == 0  # 0 is a horizon, not the default 4n
    assert capsys.readouterr().out.startswith("horizon 0\n")


@pytest.mark.parametrize("command", ["simulate", "timing"])
@pytest.mark.parametrize("cop", ["s_star", "recursive", "protective", "dismantable", "optimal"])
def test_every_cop_refuses_an_order_off_the_vertex_set(tmp_path, capsys, command, cop):
    for n in (5, 7, 3):  # path(5) and the orders of path(7) and path(3)
        run("generate", "--family", "path", "--n", str(n), "--out", str(tmp_path / f"p{n}"))
    capsys.readouterr()
    extra = ("--robber", "greedy") if command == "simulate" else ()
    for n in (7, 3):
        assert run(command, "--graph", str(tmp_path / "p5.graph"),
                   "--order", str(tmp_path / f"p{n}.order"), "--cop", cop, *extra) == 1
        assert capsys.readouterr() == (
            "", "error: sequence is not a permutation of the vertex set\n")


def test_adversarial_robber_on_one_vertex(tmp_path, capsys):
    graph = tmp_path / "one.graph"
    graph.write_text("1\n")
    assert run("simulate", "--graph", str(graph), "--cop", "optimal",
               "--robber", "adversarial") == 0
    assert capsys.readouterr().out == "capture at round 1\n"


def test_dismantable_cop_finds_its_own_order(tmp_path, capsys):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    capsys.readouterr()
    assert run("simulate", "--graph", f"{prefix}.graph", "--cop", "dismantable",
               "--robber", "greedy") == 0
    assert capsys.readouterr().out.startswith("capture at round")
    assert run("timing", "--graph", f"{prefix}.graph", "--cop", "dismantable",
               "--horizon", "12") == 0
    assert capsys.readouterr().out.startswith("horizon 12")


def test_dismantable_cop_without_order_on_robber_win_graph(tmp_path, capsys):
    prefix = str(tmp_path / "pet")
    run("generate", "--family", "petersen", "--out", prefix)
    capsys.readouterr()
    for extra in (("simulate", "--robber", "greedy"), ("timing",)):
        assert run(*extra, "--graph", f"{prefix}.graph", "--cop", "dismantable") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --cop dismantable needs an order")
        # an unknown kind is refused before any order is looked for
        assert run(*extra, "--graph", f"{prefix}.graph", "--cop", "foo") == 1
        assert capsys.readouterr().err == "error: unknown cop kind 'foo'\n"


def test_outputs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        run("generate", "--family", "random_constructible", "--n", "9",
            "--seed", "13", "--out", prefix)
    assert open(f"{a}.graph").read() == open(f"{b}.graph").read()
    assert open(f"{a}.order").read() == open(f"{b}.order").read()


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "nonsense", "--out", "x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_missing_file_is_reported(capsys):
    assert run("solve", "--graph", "/nonexistent/g.graph") == 1
    assert "error:" in capsys.readouterr().err


def test_interactive_play_rejects_illegal_moves(tmp_path):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    parser = build_parser()
    args = parser.parse_args([
        "play", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "s_star", "--horizon", "20",
    ])
    feed = iter(["banana", "0", "7", "0", "1"])
    log = []
    code = _cmd_play(args, input_fn=lambda _: next(feed), output_fn=log.append)
    assert code == 0
    text = "\n".join(log)
    assert "not a vertex" in text
    assert "illegal move" in text
    assert "captured" in text


_P4_START = ["cop starts at 3 (3)", "robber start> "]
_P4_ROUND_3 = ["round 2: cop -> 2 (2)", "round 3, robber at 0, moves [0, 1]> "]


@pytest.mark.parametrize("horizon, feed, expected", [
    ("20", ["banana", "0", "7", "0", "1"], _P4_START + [
        "not a vertex; pick an id from the graph", "robber start> ",
        *_P4_ROUND_3, "illegal move 0 -> 7", "round 3, robber at 0, moves [0, 1]> ",
        "round 4: cop -> 1 (1)", "round 5, robber at 0, moves [0, 1]> ",
        "captured at round 5",
    ]),
    ("20", ["3"], _P4_START + ["captured at round 1"]),
    ("20", ["2"], _P4_START + ["round 2: cop -> 2 (2)", "captured at round 2"]),
    ("4", ["0", "0"], _P4_START + [*_P4_ROUND_3, "round 4: cop -> 1 (1)",
                                   "horizon reached; robber survives"]),
    ("5", ["0", "0", "0"], _P4_START + [
        *_P4_ROUND_3, "round 4: cop -> 1 (1)", "round 5, robber at 0, moves [0, 1]> ",
        "horizon reached; robber survives",
    ]),
    ("20", ["0", "q"], _P4_START + _P4_ROUND_3),
    ("20", ["quit"], _P4_START),
    ("20", ["0"], _P4_START + _P4_ROUND_3),
    ("20", [], _P4_START),
], ids=["illegal_moves", "start_on_cop", "cop_captures", "horizon_after_cop",
        "horizon_after_robber", "quit_mid_game", "quit_at_start", "input_ends_mid_game",
        "input_ends_at_start"])
def test_play_session_log(tmp_path, horizon, feed, expected):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    args = build_parser().parse_args([
        "play", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "s_star", "--horizon", horizon,
    ])
    feed = iter(feed)
    log = []

    def ask(prompt):
        log.append(prompt)
        for line in feed:
            return line
        raise EOFError  # as input() does once its stream has closed

    assert _cmd_play(args, input_fn=ask, output_fn=log.append) == 0
    assert log == expected


def test_simulate_protective_writes_json(tmp_path):
    prefix = str(tmp_path / "rc")
    run("generate", "--family", "random_constructible", "--n", "12", "--seed", "4", "--out", prefix)
    tj = tmp_path / "game.json"
    assert run(
        "simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "protective", "--robber", "greedy", "--json-out", str(tj),
    ) == 0
    payload = json.loads(tj.read_text())
    assert payload["cop_kind"] == "protective"
    assert payload["outcome"]["kind"] == "capture"
    assert all(type(v) is int for _, _, v in payload["moves"])


def _weak_verify(tmp_path, bound_text):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    tj = str(tmp_path / "game.json")
    run("simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
        "--cop", "s_star", "--robber", "greedy", "--json-out", tj)
    bound = tmp_path / "bound.txt"
    bound.write_text(bound_text)
    return run("verify", "--graph", f"{prefix}.graph", "--transcript", tj,
               "--criterion", "weak", "--bound", str(bound))


@pytest.mark.parametrize("text, message", [
    ("0 5\n1 5\n", "vertex 2 has no line"),
    ("0 5\n1 5\n2 5\n3 5\n9 5\n", "line 5: vertex 9 is not in the graph"),
    ("0 5\n1 5\n# comment\n1 6\n2 5\n3 5\n", "line 4: vertex 1 is repeated"),
    ("0 5\n1 5 7\n", "line 2: expected two integers"),
    ("0 x\n", "line 1: expected two integers"),
], ids=["missing", "outside", "repeated", "three_fields", "not_integer"])
def test_verify_rejects_bad_bound_file(tmp_path, capsys, text, message):
    capsys.readouterr()
    assert _weak_verify(tmp_path, text) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'bound.txt'}") and err.count("\n") == 1
    assert message in err


def test_verify_accepts_complete_bound_file(tmp_path, capsys):
    capsys.readouterr()
    assert _weak_verify(tmp_path, "# v bound\n0 5\n1 5\n\n2 5\n3 5\n") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "weak: ok"


@pytest.mark.parametrize("text, message", [
    ("0 0\n1 0\n1 1\n", "line 3: vertex 1 is repeated"),
    ("0 0\n-1 0\n", "line 2: vertex -1 is not in the graph"),
    ("0\n", "line 1: expected two integers"),
    # U+0085 ends a line for str.splitlines, not for a file read line by line
    ("# next line\x85\n0 x\n", "line 2: expected two integers"),
], ids=["repeated", "outside", "one_field", "next_line_char"])
def test_verify_rejects_bad_retraction_file(tmp_path, capsys, text, message):
    prefix = str(tmp_path / "p3")
    run("generate", "--family", "path", "--n", "3", "--out", prefix)
    rmap = tmp_path / "fold.map"
    rmap.write_text(text)
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--retraction", str(rmap)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rmap} ") and err.count("\n") == 1
    assert message in err


def _p4_transcript(moves, outcome=("capture", 2), visits=None):
    if visits is None:
        visits = [0] * 4
        for _, player, v in moves:
            if player == "robber":
                visits[v] += 1
    kind, rnd = outcome
    return {
        "horizon": 10,
        "moves": [list(m) for m in moves],
        "outcome": {"kind": kind, "round": rnd, "detail": ""},
        "visit_counts": visits,
    }


_P4_CAPTURE = [(0, "cop", 0), (1, "robber", 2), (2, "cop", 1), (3, "robber", 1)]


@pytest.mark.parametrize("payload, message", [
    (_p4_transcript([(0, "cop", 3), (1, "robber", 0), (2, "cop", 0)]),
     "round 2: cop moves 3 -> 0, not an edge"),
    (_p4_transcript([(0, "cop", 0), (1, "robber", 3), (2, "cop", 1), (3, "robber", 1)],
                    ("capture", 3)),
     "round 3: robber moves 3 -> 1, not an edge"),
    (_p4_transcript([(0, "cop", 0), (1, "robber", 2), (3, "cop", 1)], ("horizon", None)),
     "move 2 is round 3 cop, expected round 2 cop"),
    (_p4_transcript([(0, "cop", 0), (1, "robber", 2), (2, "robber", 3)], ("horizon", None)),
     "move 2 is round 2 robber, expected round 2 cop"),
    (_p4_transcript([(0, "robber", 0), (1, "cop", 2)], ("horizon", None)),
     "move 0 is round 0 robber, expected round 0 cop"),
    (_p4_transcript(_P4_CAPTURE + [(4, "cop", 2)], ("capture", 3)),
     "round 4: move after the capture at round 3"),
    (_p4_transcript(_P4_CAPTURE, ("capture", 2)),
     "outcome capture at round 2, but the moves give capture at round 3"),
    (_p4_transcript(_P4_CAPTURE, ("horizon", None)),
     "outcome horizon at round None, but the moves give capture at round 3"),
    (_p4_transcript(_P4_CAPTURE[:3], ("capture", 3)),
     "outcome capture at round 3, but the moves give no capture"),
    (_p4_transcript(_P4_CAPTURE[:3], ("fault", 5)),
     "outcome fault at round 5, but the moves give no capture"),
    (_p4_transcript(_P4_CAPTURE[:3], ("escape", None)),
     "outcome escape at round None"),
    (_p4_transcript(_P4_CAPTURE, ("capture", 3), [0, 2, 0, 0]),
     "visit counts [0, 2, 0, 0] differ from the moves' [0, 1, 1, 0]"),
    (_p4_transcript(_P4_CAPTURE[:1], ("horizon", None)),
     "needs the cop's and the robber's placements"),
], ids=["cop_jump", "robber_jump", "round_gap", "same_player_twice", "robber_first",
        "after_capture", "capture_round", "capture_hidden", "capture_invented",
        "fault_round", "unknown_outcome", "visit_counts", "no_placement"])
def test_verify_replays_transcript_moves(tmp_path, capsys, payload, message):
    prefix = str(tmp_path / "p4")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    for criterion in ("classic", "weak", "cweak"):
        capsys.readouterr()
        assert run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
                   "--transcript", str(path), "--criterion", criterion) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: transcript ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert "ok" not in captured.out.replace("order: ok\n", "")


@pytest.mark.parametrize("family, cop, robber", [
    ("path", "s_star", "greedy"),
    ("path", "dismantable", "ray"),
    ("double_wheel", "recursive", "h_evader"),
    ("double_wheel", "protective", "stationary"),
    ("cycle", "optimal", "adversarial"),
    ("random_constructible", "optimal", "greedy"),
    ("tree", "s_star", "greedy"),
    ("path", "optimal", "script"),
])
def test_simulated_transcripts_replay(tmp_path, family, cop, robber):
    from pursuit.engine import load_transcript, replay
    from pursuit.graphs import load_graph

    prefix = str(tmp_path / "g")
    run("generate", "--family", family, "--n", "6", "--degree", "2", "--radius", "2",
        "--seed", "3", "--out", prefix)
    if robber == "script":
        script = tmp_path / "moves.txt"
        script.write_text("5 3\n")  # 5 -> 3 is not an edge: a fault transcript
        robber = f"script:{script}"
    order = ["--order", f"{prefix}.order"] if cop in ("s_star", "recursive", "protective") else []
    tj = str(tmp_path / "game.json")
    assert run("simulate", "--graph", f"{prefix}.graph", *order, "--cop", cop,
               "--robber", robber, "--horizon", "40", "--json-out", tj) == 0
    T = load_transcript(tj)
    assert (T.outcome.kind == "fault") == robber.startswith("script:")
    replay(load_graph(f"{prefix}.graph"), T.moves, T.outcome, T.visit_counts)


def _made_up_annotations(tmp_path, stages):
    """path(5) files and a chain transcript whose moves give no chain
    annotation: the cop sits on 0 while the robber sits on the terminal
    vertex 4. The file claims ``stages`` anyway."""
    prefix = str(tmp_path / "p5")
    run("generate", "--family", "path", "--n", "5", "--out", prefix)
    moves = [[0, "cop", 0], [1, "robber", 4], [2, "cop", 0], [3, "robber", 4],
             [4, "cop", 0], [5, "robber", 4], [6, "cop", 0]]
    payload = {
        "horizon": 6, "cop_kind": "chain", "moves": moves,
        "outcome": {"kind": "horizon", "round": None, "detail": ""},
        "visit_counts": [0, 0, 0, 0, 3],
        "stages": stages, "chain_events": [],
    }
    path = tmp_path / "made_up.json"
    path.write_text(json.dumps(payload))
    return prefix, str(path)


def test_verify_recomputes_chain_annotations(tmp_path, capsys):
    prefix, path = _made_up_annotations(tmp_path, [[2, 5], [4, 5], [6, 5]])
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
               "--transcript", path) == 1
    assert capsys.readouterr().out == (
        "order: ok\npursuit invariants: FAIL: chain annotations differ from the moves at round 2\n"
    )


def test_verify_without_order_leaves_chain_annotations_unread(tmp_path, capsys):
    # Without an order nothing can recompute the annotations, so verify
    # neither trusts nor reports them; their types are still checked.
    prefix, path = _made_up_annotations(tmp_path, [[2, 5], [4, 5], [6, 5]])
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--transcript", path) == 0
    assert capsys.readouterr() == ("", "")
    prefix, path = _made_up_annotations(tmp_path, [[2, 5], [4, "x"]])
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--transcript", path) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: bad transcript file: stages entry 1 has the wrong length or types\n"
    )


@pytest.mark.parametrize("edit, where", [
    (lambda p: None, None),
    (lambda p: p["stages"][1].__setitem__(1, p["stages"][1][1] + 1), 1),
    (lambda p: p["chain_events"].pop(), -1),
    (lambda p: p["stages"].append([99, 0]), "99"),
    (lambda p: p.update(stages=[], chain_events=[]), 0),
], ids=["genuine", "stage_changed", "event_dropped", "stage_added", "annotations_removed"])
def test_verify_reports_first_differing_annotation(tmp_path, capsys, edit, where):
    prefix = str(tmp_path / "wheel")
    run("generate", "--family", "double_wheel", "--out", prefix)
    tj = tmp_path / "game.json"
    assert run("simulate", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
               "--cop", "s_star", "--robber", "greedy", "--horizon", "500",
               "--json-out", str(tj)) == 0
    payload = json.loads(tj.read_text())
    assert len(payload["stages"]) >= 3
    rounds = [t for t, _ in payload["stages"]]
    edit(payload)
    tj.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
               "--transcript", str(tj))
    line = capsys.readouterr().out.splitlines()[1]
    if where is None:
        assert (code, line) == (0, "pursuit invariants: ok")
    else:
        t = where if isinstance(where, str) else rounds[where]
        assert code == 1
        assert line == (
            f"pursuit invariants: FAIL: chain annotations differ from the moves at round {t}"
        )


@pytest.mark.parametrize("criterion", ["classic", "weak", "cweak"])
def test_verify_criterion_needs_a_transcript(tmp_path, capsys, criterion):
    # a requested check that never ran must not read as a pass
    prefix = str(tmp_path / "p")
    run("generate", "--family", "path", "--n", "4", "--out", prefix)
    capsys.readouterr()
    assert run("verify", "--graph", f"{prefix}.graph", "--order", f"{prefix}.order",
               "--criterion", criterion) == 1
    assert capsys.readouterr() == ("", "error: --criterion needs --transcript\n")


def _fresh_python(*argv, cwd):
    """``python *argv`` run in a new interpreter on this source tree, with
    its stdin closed."""
    src = str(Path(pursuit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)


def _fresh_line(code, cwd):
    """Last stdout line of ``python -c code`` run in a new interpreter."""
    done = _fresh_python("-c", code, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def path_game(tmp_path_factory):
    where = tmp_path_factory.mktemp("path_game")
    run("generate", "--family", "path", "--n", "6", "--out", str(where / "p"))
    assert run("simulate", "--graph", str(where / "p.graph"), "--order", str(where / "p.order"),
               "--cop", "s_star", "--robber", "greedy", "--json-out",
               str(where / "game.json")) == 0
    (where / "fold.map").write_text("0 0\n1 1\n2 2\n3 3\n4 3\n5 3\n", encoding="utf-8")
    return where


@pytest.mark.parametrize("argv, loads_numpy", [
    (["generate", "--family", "path", "--n", "6", "--out", "q"], False),
    (["order", "--graph", "p.graph", "--out", "q.order"], False),
    (["verify", "--graph", "p.graph", "--order", "p.order", "--transcript", "game.json",
      "--criterion", "weak"], False),
    (["verify", "--graph", "p.graph", "--retraction", "fold.map"], False),
    (["timing", "--graph", "p.graph", "--order", "p.order", "--cop", "protective",
      "--recover-order"], False),
    (["timing", "--graph", "p.graph", "--cop", "protective", "--recover-order"], False),
    (["timing", "--graph", "p.graph", "--order", "p.order", "--cop", "s_star"], False),
    (["timing", "--graph", "p.graph", "--order", "p.order", "--cop", "recursive"], False),
    (["simulate", "--graph", "p.graph", "--order", "p.order", "--cop", "s_star",
      "--robber", "stationary"], False),
    (["solve", "--graph", "p.graph"], True),
    (["simulate", "--graph", "p.graph", "--cop", "optimal", "--robber", "stationary"], True),
    (["simulate", "--graph", "p.graph", "--order", "p.order", "--cop", "s_star",
      "--robber", "adversarial"], True),
    (["simulate", "--graph", "p.graph", "--order", "p.order", "--cop", "s_star",
      "--robber", "greedy"], True),
], ids=["generate", "order", "verify", "verify_retraction", "timing_protective",
        "timing_protective_peeled", "timing_s_star", "timing_recursive", "simulate_s_star",
        "solve", "simulate_optimal", "simulate_adversarial", "simulate_greedy"])
def test_only_kernel_subcommands_load_numpy(path_game, argv, loads_numpy):
    code = f"import sys, pursuit.cli; assert pursuit.cli.main({argv!r}) == 0; " \
           "print('numpy' in sys.modules)"
    assert _fresh_line(code, path_game) == str(loads_numpy)


def test_strategy_modules_import_without_numpy(tmp_path):
    # numpy loads inside the kernel and checker calls, not with the modules
    code = ("import sys, pursuit.retractions, pursuit.strategies, pursuit.solver; "
            "print('numpy' in sys.modules)")
    assert _fresh_line(code, tmp_path) == "False"


@pytest.mark.parametrize("extra", [
    ["--bound", "/nonexistent/b.txt"],
    ["--transcript", "game.json", "--criterion", "classic", "--bound", "/nonexistent"],
    ["--transcript", "game.json", "--bound", "default"],
], ids=["no_criterion", "classic", "explicit_default"])
def test_verify_bound_needs_the_weak_criterion(path_game, capsys, extra):
    # a bound that no check reads must not be accepted silently
    extra = [str(path_game / a) if a == "game.json" else a for a in extra]
    capsys.readouterr()
    assert run("verify", "--graph", str(path_game / "p.graph"),
               "--order", str(path_game / "p.order"), *extra) == 1
    assert capsys.readouterr() == ("", "error: --bound needs --criterion weak\n")


def test_play_leaves_when_its_input_closes(path_game):
    done = _fresh_python("-m", "pursuit.cli", "play", "--graph", "p.graph", cwd=path_game)
    assert (done.returncode, done.stderr) == (0, "")


def test_play_refuses_horizon_zero(path_game, capsys):
    assert run("play", "--graph", str(path_game / "p.graph"), "--horizon", "0") == 1
    assert capsys.readouterr() == ("", "error: max_rounds must be at least 2\n")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--order", "dis.order", "--cop", "recursive", "--robber", "greedy"],
     "--cop recursive needs a dominating order"),
    (["simulate", "--order", "p.order", "--cop", "dismantable", "--robber", "greedy"],
     "--cop dismantable needs a dismantling order"),
    (["simulate", "--cop", "optimal", "--robber", "h_evader"],
     "--robber h_evader needs a labelled wheel-block graph"),
    (["simulate", "--cop", "optimal", "--robber", "nobody"], "unknown robber kind 'nobody'"),
    (["verify", "--transcript", "game.json", "--criterion", "weak"],
     "--bound default needs --order to derive depths"),
    (["timing", "--order", "dis.order", "--cop", "protective"],
     "protective play needs a constructing family"),
], ids=["recursive", "dismantable", "h_evader", "robber_kind", "weak_depths", "protective"])
def test_strategy_and_criterion_errors_are_one_line(path_game, tmp_path, capsys, argv, message):
    dis = tmp_path / "dis.order"
    assert run("order", "--graph", str(path_game / "p.graph"), "--flavor", "dismantling",
               "--out", str(dis)) == 0
    files = {"dis.order": dis, "p.order": path_game / "p.order",
             "game.json": path_game / "game.json"}
    argv = [str(files.get(a, a)) for a in argv]
    capsys.readouterr()
    assert run(argv[0], "--graph", str(path_game / "p.graph"), *argv[1:]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# every name the package exported when it imported all of its modules eagerly
PUBLIC = {
    "errors": "CheckResult EngineInvariantError GeneratorContractError GraphFormatError "
              "InvalidOrderError NontotalRetractionError ProtectiveContradictionError "
              "PursuitError ScriptError StrategyError StrategyInapplicableError "
              "StrategyUndefinedError TranscriptFaultError",
    "graphs": "BallView Graph Induced LazyGraph ball dominates induced_subgraph load_graph "
              "save_graph",
    "orders": "Order depth_table find_dismantling_order find_dominating_order load_order "
              "naturalize_order save_order verify_dismantling_order verify_dominating_order",
    "retractions": "RetractionFamily check_family_retraction check_retraction "
                   "check_shifted_edge_property",
    "strategies": "ChainPursuitCop CycleEvaderRobber DismantlingPursuitCop DistanceGreedyRobber "
                  "PrefixRecursiveCop ProtectiveCop RayRunnerRobber ScriptedRobber "
                  "StationaryRobber TableCop TableRobber chain_pursuit_move "
                  "dismantling_pursuit_move prefix_recursive_move protective_move",
    "engine": "GameConfig Outcome Transcript check_pursuit_invariants check_shadow "
              "default_horizon evaluate_classic evaluate_cweak evaluate_weak play replay",
    "solver": "GameTable SearchResult TimingProfile adversarial_search decide_cop_win "
              "estimate_timing order_from_protective",
}


def test_public_namespace_resolves_lazily(tmp_path):
    star = {}
    exec("from pursuit import *", star)  # binds the lazily loaded names too
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"pursuit.{module}")
        assert getattr(pursuit, module) is home
        for name in names.split():
            found = {}
            exec(f"from pursuit import {name}", found)
            assert getattr(pursuit, name) is found[name] is getattr(home, name) is star[name]
            assert name in dir(pursuit)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pursuit.no_such_name
    with pytest.raises(ImportError):
        exec("from pursuit import no_such_name", {})
    code = ("import sys, pursuit; dir(pursuit); "
            "print('numpy' in sys.modules, pursuit.solver.__name__)")
    assert _fresh_line(code, tmp_path) == "False pursuit.solver"
