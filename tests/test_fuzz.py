"""Hypothesis fuzzing of the graph, order, transcript, bound and
retraction file parsers: every input either parses or raises
GraphFormatError, and the CLI turns a bad file into exactly one
``error:`` line and exit status 1."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from pursuit import (
    ChainPursuitCop, DistanceGreedyRobber, GameConfig, GraphFormatError, RetractionFamily,
    ScriptedRobber, play,
)
from pursuit.cli import _parse_vertex_pairs, main
from pursuit.engine import replay, transcript_from_json, transcript_to_json
from pursuit.generators import double_wheel, path_graph, random_connected_graph
from pursuit.graphs import Graph
from pursuit.orders import (
    find_dismantling_order, find_dominating_order, order_from_text, order_to_text,
)

_WHEEL, _WHEEL_ORDER = double_wheel()
_RANDOM = random_connected_graph(7, 4)
_GRAPH_TEXTS = [path_graph(4).to_text(), _RANDOM.to_text(), _WHEEL.to_text()]
_ORDER_TEXTS = [
    order_to_text(_WHEEL_ORDER),
    order_to_text(find_dominating_order(path_graph(5))),
    order_to_text(find_dismantling_order(_WHEEL)),
]
# Characters that sit next to the formats' separators and number syntax.
_NOISE = st.sampled_from(
    [" ", "\t", "\n", "\r", "\x0b", " ", "#", ":", "-", "+", "_", "0", "1", "9", "x",
     "label", "order", "delta", "\x00", "١", "\xa0", "1" * 30, "99999999"]
)


@st.composite
def _mutated(draw, texts, noise=_NOISE):
    """A valid file with a few characters deleted, inserted or replaced,
    or with lines dropped, repeated or swapped."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        how = draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat", "swap"]))
        if how in ("drop", "repeat", "swap") and lines:
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if how == "drop":
                del lines[i]
            elif how == "repeat":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        cut = 0 if how == "insert" else draw(st.integers(0, 3))
        add = "" if how == "delete" else draw(noise)
        text = text[:i] + add + text[i + cut:]
    return text


def _parses_or_format_error(parse, text):
    try:
        parse(text)
    except GraphFormatError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=80), _mutated(_GRAPH_TEXTS)))
def test_graph_parser_parses_or_rejects(text):
    _parses_or_format_error(Graph.from_text, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=80), _mutated(_ORDER_TEXTS)))
def test_order_parser_parses_or_rejects(text):
    _parses_or_format_error(order_from_text, text)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.binary(max_size=40), _mutated(_GRAPH_TEXTS).map(str.encode)))
def test_cli_order_on_fuzzed_graph_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["order", "--graph", str(path)])
    try:
        parsed = _parses_or_format_error(Graph.from_text, data.decode("utf-8"))
    except UnicodeDecodeError:
        parsed = False
    if code == 0:
        assert parsed and err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        # a parsed graph fails only when it is not connected
        assert not parsed or err.getvalue() == "error: graph must be connected\n"


# -- transcripts, bound tables and retraction maps ---------------------------

_P5 = path_graph(5)
_P5_ORDER = find_dominating_order(_P5)
_GAMES = [  # (graph, transcript): a capture, a horizon and a wheel chase
    (_P5, play(GameConfig(_P5, ChainPursuitCop(RetractionFamily(_P5, _P5_ORDER)),
                          DistanceGreedyRobber()))),
    (_P5, play(GameConfig(_P5, ChainPursuitCop(RetractionFamily(_P5, _P5_ORDER)),
                          ScriptedRobber([4]), max_rounds=3))),
    (_WHEEL, play(GameConfig(_WHEEL, ChainPursuitCop(RetractionFamily(_WHEEL, _WHEEL_ORDER)),
                             DistanceGreedyRobber()))),
]
_TRANSCRIPT_TEXTS = [transcript_to_json(T) for _, T in _GAMES]
_JSON_NOISE = st.sampled_from(
    ["[", "]", "{", "}", ",", ":", '"', "0", "1", "-1", "1.5", "1e3", "null", "true",
     '"cop"', '"robber"', '"x"', " ", "\n", "\\", "99999999999999999999"]
)
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 7, 1.5, "", "x", "cop", "robber", "capture",
                     [], {}, [0], [0, "cop"], {"kind": "horizon"}]),
    st.recursive(st.none() | st.booleans() | st.integers(-2, 12) | st.text(max_size=3),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


def _slots(node, top=None):
    """Every (top-level key, container, key) of a JSON tree."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        here = key if top is None else top
        yield here, node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], here)


@st.composite
def _reshaped(draw, texts):
    """A valid JSON file with a few values replaced by arbitrary JSON or
    deleted; every top-level field is as likely to be hit as any other."""
    payload = json.loads(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(payload))
        if not slots:
            break
        top = draw(st.sampled_from(sorted({t for t, _, _ in slots}, key=str)))
        _, node, key = draw(st.sampled_from([s for s in slots if s[0] == top]))
        if draw(st.booleans()):
            node[key] = copy.deepcopy(draw(_JSON_VALUES))
        else:
            del node[key]
    return json.dumps(payload)


_TRANSCRIPTS = st.one_of(
    st.text(max_size=80), _mutated(_TRANSCRIPT_TEXTS, _JSON_NOISE), _reshaped(_TRANSCRIPT_TEXTS)
)
_PAIR_TEXTS = [  # a bound table for path(5) and a retraction of it onto {0, 1}
    "".join(f"{v} 3\n" for v in range(5)),
    "# fold\n0 0\n1 1\n2 0\n3 1\n4 0\n",
]


def _one_error_or_verdict(code, out, err):
    """Exit 0 with a clean report, or exit 1 with either exactly one
    ``error:`` line or a FAIL line of the report: never a traceback."""
    if err:
        assert code == 1 and out == "", (code, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == (1 if "FAIL" in out else 0), (code, out)


def _verify(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", *argv])
    return code, out.getvalue(), err.getvalue()


def _ints(xs):
    return all(type(x) is int for x in xs)  # bool is not int here


def _typed_as_written(T):
    """Every field has the type transcript_to_json writes."""
    out = T.outcome
    return (
        isinstance(out.kind, str) and (out.round is None or _ints([out.round]))
        and isinstance(out.detail, str) and isinstance(T.cop_kind, str) and _ints([T.horizon])
        and all(len(m) == 3 and _ints(m[::2]) and m[1] in ("cop", "robber") for m in T.moves)
        and _ints(T.visit_counts)
        and all(len(s) == 2 and _ints(s) for s in T.stages)
        and all(len(e) == 3 and _ints(e) for e in T.chain_events)
    )


@settings(max_examples=120, deadline=None)
@given(_TRANSCRIPTS)
def test_transcript_parser_parses_or_rejects(text):
    if _parses_or_format_error(transcript_from_json, text):
        T = transcript_from_json(text)
        assert _typed_as_written(T), T
        for G in (_P5, _WHEEL):  # a parsed transcript replays or is refused
            _parses_or_format_error(lambda G: replay(G, T.moves, T.outcome, T.visit_counts), G)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(_GAMES))),
       st.one_of(_TRANSCRIPTS.map(str.encode), st.binary(max_size=40)),
       st.sampled_from([[], ["--criterion", "classic"], ["--criterion", "cweak"],
                        ["--criterion", "weak", "--bound", "2"]]))
def test_cli_verify_on_fuzzed_transcript(tmp_path_factory, game, data, criterion):
    G = _GAMES[game][0]
    base = tmp_path_factory.mktemp("fuzz")
    (base / "g.graph").write_text(G.to_text())
    (base / "t.json").write_bytes(data)
    code, out, err = _verify(["--graph", str(base / "g.graph"),
                              "--transcript", str(base / "t.json"), *criterion])
    _one_error_or_verdict(code, out, err)
    if not criterion:
        assert out == ""  # no order, so no annotation verdict


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.text(max_size=80), _mutated(_PAIR_TEXTS)))
def test_bound_and_retraction_parser_parses_or_rejects(text):
    _parses_or_format_error(lambda text: _parse_vertex_pairs(text, _P5), text)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.binary(max_size=40), _mutated(_PAIR_TEXTS).map(str.encode)),
       st.sampled_from(["--bound", "--retraction"]))
def test_cli_verify_on_fuzzed_bound_or_retraction(tmp_path_factory, data, flag):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "g.graph").write_text(_P5.to_text())
    (base / "t.json").write_text(_TRANSCRIPT_TEXTS[1])  # a horizon game: the bound counts
    (base / "pairs.txt").write_bytes(data)
    argv = ["--graph", str(base / "g.graph"), flag, str(base / "pairs.txt")]
    if flag == "--bound":
        argv += ["--transcript", str(base / "t.json"), "--criterion", "weak"]
    _one_error_or_verdict(*_verify(argv))
