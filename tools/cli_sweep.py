"""Byte-identity sweep of the ``pursuit`` command line.

    python tools/cli_sweep.py SRC OUT

Runs a fixed grid of commands in-process through ``pursuit.cli.main``,
with the ``pursuit`` package imported from SRC and OUT as the working
directory. ``play`` reads a fixed robber script from a replaced
``sys.stdin``. Every output file lands in OUT, and ``OUT/log.json`` records
each command's argv, stdin, exit code, stdout and stderr. Two trees, for
example a commit and its parent, behave alike on the grid when
``diff -r OUT_A OUT_B`` prints nothing.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

FAMILIES = (
    ("path", "--n", "6"), ("cycle", "--n", "5"), ("complete", "--n", "4"),
    ("star", "--n", "5"), ("petersen",), ("double_wheel",), ("hubbed_path", "--n", "5"),
    ("tree", "--degree", "3", "--radius", "2"), ("ray", "--radius", "3"),
    ("wheel_tree", "--radius", "1"), ("random_constructible", "--n", "10", "--seed", "3"),
    ("random", "--n", "8", "--seed", "2"),
    # graphs no graph file holds, refused before a file is written
    ("ray", "--radius", "70000"), ("tree", "--degree", "10", "--radius", "8"),
    ("wheel_tree", "--radius", "30"), ("hubbed_path", "--n", "65534"), ("path", "--n", "65537"),
)
COPS = ("optimal", "recursive", "s_star", "protective", "dismantable")
ROBBERS = ("stationary", "greedy", "ray", "h_evader", "adversarial", "script:walk.script")
# files that only a faulty reader accepts, or whose errors must name them
BAD_FILES = {
    "sep.graph": "3\n0 1\x851 x\n",
    "cr.graph": "3\r0 1\r\n1 2\r\n",
    "mixed.order": "order 0 1 2\ndelta 1:0 0:2\n",
    "sep.order": "# a comment \x85 x\norder 0 1 2 3 4 5\ndelta 1:0 2:1 3:2 4:3 5:4\n",
    "empty.script": "",
    "off.script": "1 9\n",
}
# a valid cop-win graph whose ids are written with tabs, leading zeros and "+"
ODD_IDS = "6\n0\t01\n+1 2\n002\t3\n3 +04\n04 005\n0 +2\n"
# P4 with an order whose chains break: two states of one timing round fail
P4 = ("4\n0 1\n1 2\n2 3\n", "order 2 0 1 3\ndelta\n")
# per-vertex bound files for P4: one well formed, then each way a line is refused
BOUNDS = {
    "p4.bound": "# one per vertex\n0 1\n1 1\n\n2 2\n3 1\n", "short.bound": "0 1\n",
    "word.bound": "0 x\n", "far.bound": "4 1\n", "twice.bound": "0 1\n0 2\n",
}


def main(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    Path(out).mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    from pursuit.cli import main as cli
    from pursuit.graphs import load_graph

    log = []

    def run(*argv, stdin=""):
        stdout, stderr = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli(list(argv))
        sys.stdin = sys.__stdin__
        log.append({"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()})
        return code

    for name, text in BAD_FILES.items():
        Path(name).write_text(text, encoding="utf-8")
    Path("walk.script").write_text("1 0 1 2 1\n", encoding="utf-8")
    run("solve", "--graph", "sep.graph")
    run("solve", "--graph", "cr.graph")
    run("simulate", "--graph", "sep.graph", "--cop", "optimal", "--robber", "greedy")
    Path("ids.graph").write_text(ODD_IDS, encoding="utf-8")
    run("solve", "--graph", "ids.graph")
    for flavor in ("dominating", "dismantling"):
        run("order", "--graph", "ids.graph", "--flavor", flavor, "--out", f"ids.{flavor}.order")
        run("verify", "--graph", "ids.graph", "--order", f"ids.{flavor}.order")
    Path("p4.graph").write_text(P4[0], encoding="utf-8")
    Path("p4.broken.order").write_text(P4[1], encoding="utf-8")
    run("timing", "--graph", "p4.graph", "--order", "p4.broken.order", "--cop", "protective")
    # the same -1 table entries reach the game loop's fault text
    for robber in ("stationary", "adversarial"):
        run("simulate", "--graph", "p4.graph", "--order", "p4.broken.order", "--cop", "protective",
            "--robber", robber, "--json-out", f"p4.broken.{robber}.json")
    for stdin in ("3\n2\nq\n", "0\n"):  # a -1 entry; the cop's illegal move 2 -> 0
        run("play", "--graph", "p4.graph", "--order", "p4.broken.order", "--cop", "protective",
            stdin=stdin)
    Path("p4.order").write_text("order 0 1 2 3\ndelta 1:0 2:1 3:2\n", encoding="utf-8")
    p4 = ("--graph", "p4.graph", "--order", "p4.order")
    run("play", *p4, "--cop", "s_star", "--horizon", "2", stdin="3\n")  # the horizon is reached
    run("simulate", *p4, "--cop", "s_star", "--robber", "stationary", "--json-out", "p4.json")
    for name, text in BOUNDS.items():
        Path(name).write_text(text, encoding="utf-8")
        run("verify", *p4, "--transcript", "p4.json", "--criterion", "weak", "--bound", name)
    # chain annotations that the moves do not give
    game = json.loads(Path("p4.json").read_text(encoding="utf-8"))
    game["stages"] = game["stages"][1:]
    Path("p4.edited.json").write_text(json.dumps(game), encoding="utf-8")
    run("verify", *p4, "--transcript", "p4.edited.json")
    # players and options refused before a game starts
    for argv in (("simulate", "--cop", "nobody", "--robber", "greedy"),
                 ("simulate", "--cop", "optimal", "--robber", "nobody"),
                 ("simulate", "--cop", "optimal", "--robber", "script:off.script"),
                 ("verify", "--criterion", "classic"), ("verify", "--bound", "1")):
        run(*argv, "--graph", "p4.graph")
    for family, *params in FAMILIES:
        if run("generate", "--family", family, *params, "--out", family, "--dot"):
            continue
        graph = f"{family}.graph"
        run("solve", "--graph", graph, "--table-out", f"{family}.table")
        run("order", "--graph", graph, "--flavor", "dominating", "--out", f"{family}.dom.order")
        run("order", "--graph", graph, "--flavor", "dismantling", "--out", f"{family}.dis.order")
        n = int(Path(graph).read_text(encoding="utf-8").split("\n", 1)[0])
        for name, image in (("id", lambda v: v), ("const", lambda v: 0),
                            ("shift", lambda v: (v + 1) % n)):
            Path(f"{family}.{name}.map").write_text(
                "".join(f"{v} {image(v)}\n" for v in range(n)), encoding="utf-8")
            run("verify", "--graph", graph, "--retraction", f"{family}.{name}.map")
        orders = sorted(p.name for p in Path().glob(f"{family}.*order"))
        for order in orders + ["mixed.order", "sep.order"]:
            run("verify", "--graph", graph, "--order", order)
        for order in [None, *orders, "mixed.order", "sep.order"]:
            with_order = ("--order", order) if order else ()
            for cop in COPS:
                for horizon in ((), ("--horizon", "7")):
                    run("timing", "--graph", graph, *with_order, "--cop", cop, *horizon,
                        "--recover-order")
        # the interactive robber: a non-number, an off-graph id, a start on the
        # last vertex, a non-number, a move off its neighbourhood, legal moves,
        # then q or EOF
        G = load_graph(graph)
        start = n - 1
        near = G.closed_neighborhoods()[start]
        step = next((v for v in near if v != start), start)
        far = next((v for v in range(n) if v not in near), n)
        feed = "".join(f"{x}\n" for x in ("x", n, start, "x", far, step, start, step))
        for order in [None, *orders]:
            with_order = ("--order", order) if order else ()
            for cop in COPS:
                for stdin in (feed + "q\n", feed):
                    run("play", "--graph", graph, *with_order, "--cop", cop,
                        "--horizon", "9", stdin=stdin)
        for order in [None, *orders]:
            with_order = ("--order", order) if order else ()
            for cop in COPS:
                for robber in ROBBERS + ("script:empty.script",) * (cop == "optimal"):
                    game = f"{family}.{order}.{cop}.{robber.replace(':', '_')}"
                    if run("simulate", "--graph", graph, *with_order, "--cop", cop,
                           "--robber", robber, "--horizon", "12",
                           "--out", f"{game}.txt", "--json-out", f"{game}.json"):
                        continue
                    for criterion in (("classic",), ("weak", "--bound", "default"),
                                      ("weak", "--bound", "1"), ("cweak",)):
                        run("verify", "--graph", graph, *with_order, "--transcript",
                            f"{game}.json", "--criterion", *criterion)
    Path("log.json").write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")
    print(f"{len(log)} commands, {sum(1 for _ in Path().iterdir())} files in {out}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
