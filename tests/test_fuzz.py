"""Hypothesis fuzzing of the graph and order file parsers: every input
either parses or raises GraphFormatError, and the CLI turns a bad graph
file into exactly one ``error:`` line and exit status 1."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from pursuit import GraphFormatError
from pursuit.cli import main
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
def _mutated(draw, texts):
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
        add = "" if how == "delete" else draw(_NOISE)
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
@given(st.one_of(st.text(max_size=80), _mutated(_ORDER_TEXTS)),
       st.sampled_from(["auto", "constructing", "dismantling", "dominating"]))
def test_order_parser_parses_or_rejects(text, flavor):
    _parses_or_format_error(lambda t: order_from_text(t, flavor=flavor), text)


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
