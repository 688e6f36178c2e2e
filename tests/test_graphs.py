import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit import (
    GeneratorContractError,
    Graph,
    GraphFormatError,
    LazyGraph,
    ball,
    dominates,
    induced_subgraph,
)
from pursuit.cli import main
from pursuit.graphs import MAX_FILE_ORDER
from pursuit.generators import (
    complete_graph,
    cycle_graph,
    double_wheel,
    path_graph,
    random_connected_graph,
    ray,
    wheel_tree,
)


def test_neighbors_are_closed():
    P3 = path_graph(3)
    assert P3.neighbors(1) == {0, 1, 2}
    assert P3.neighbors(0) == {0, 1}
    single = Graph(1)
    assert single.neighbors(0) == {0}


def test_neighbors_unknown_vertex():
    with pytest.raises(ValueError):
        path_graph(3).neighbors(5)


def test_block_hub_neighbors():
    G, _ = double_wheel()
    hub = G.vertex_by_label("c")
    expected = {hub} | {G.vertex_by_label(f"b_{i}") for i in range(5)}
    assert G.neighbors(hub) == expected


def test_edge_array_is_cached_in_edge_order():
    # edges() ascends whatever order the edges were given in
    G = Graph(10, [(0, 9), (4, 3), (0, 2)])
    assert list(G.edges()) == [(0, 2), (0, 9), (3, 4)]
    assert G.edge_array().tolist() == [[0, 2], [0, 9], [3, 4]]
    assert G.edge_array() is G.edge_array()
    assert Graph(3).edge_array().shape == (0, 2)


def test_integer_like_endpoints_build_plain_int_graphs():
    plain = Graph(3, [(0, 1), (0, 2)])
    spellings = (
        [(0, True), (False, 2)],
        [(np.int64(0), np.int64(1)), (np.int32(2), np.uint8(0))],
    )
    for edges in spellings:
        G = Graph(3, edges)
        assert G == plain and hash(G) == hash(plain)
        assert [type(w) for e in G.edges() for w in e] == [int] * 4
        assert G.to_text() == "3\n0 1\n0 2\n"
        assert Graph.from_text(G.to_text()) == G
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            Graph(3, [(0, bad)])


# -- the mask store against the frozenset store it replaced -----------------


def _ref_store(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [frozenset(s) for s in adj]


def _ref_distances(adj, source):
    dist = [-1] * len(adj)
    dist[source] = 0
    todo = [source]
    for u in todo:
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                todo.append(v)
    return dist


def _spellings(v):
    return [v, np.int64(v), np.int32(v)] + ([bool(v)] if v < 2 else [])


@st.composite
def _edge_lists(draw):
    # n up to 70, so that a mask spans three 30-bit CPython digits
    n = draw(st.integers(1, 70))
    vertex = st.integers(0, n - 1).flatmap(lambda v: st.sampled_from(_spellings(v)))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges += draw(st.lists(vertex.map(lambda v: (v, v)), max_size=3))  # loops
    if edges:
        edges.append(edges[0][::-1])  # a duplicate, reversed
    return n, edges


@st.composite
def _dense_edge_lists(draw):
    # a complete graph less a few edges, so that rows are near full; a cut
    # between two blocks makes some of them disconnected
    n = draw(st.integers(1, 70))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cut = draw(st.integers(0, n - 1))  # 0: no cut
    if cut:
        pairs = [(u, v) for u, v in pairs if (u < cut) == (v < cut)]
    if pairs:
        gone = draw(st.sets(st.sampled_from(pairs), max_size=5))
        pairs = [e for e in pairs if e not in gone]
    return n, pairs


@settings(max_examples=60, deadline=None)
@given(st.one_of(_edge_lists(), _dense_edge_lists()), st.randoms(use_true_random=False))
def test_mask_store_matches_frozenset_reference(case, rng):
    n, edges = case
    G = Graph(n, edges)
    adj = _ref_store(n, edges)
    closed = [s | {v} for v, s in enumerate(adj)]
    assert [G.neighbors(v) for v in range(n)] == closed
    assert [G.neighbors(v) - {v} for v in range(n)] == adj
    assert [G.degree(v) for v in range(n)] == [len(s) for s in adj]
    assert G.edge_count() == sum(len(s) for s in adj) // 2
    assert list(G.edges()) == sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    assert G.closed_masks() == tuple(sum(1 << w for w in s) for s in closed)
    assert G.closed_neighborhoods() == tuple(tuple(sorted(s)) for s in closed)
    matrix = np.zeros((n, n), dtype=np.bool_)
    for v, s in enumerate(closed):
        matrix[v, list(s)] = True
    assert G.adjacency_matrix().dtype == np.bool_
    assert np.array_equal(G.adjacency_matrix(), matrix)
    for source in {0, n - 1, rng.randrange(n)}:
        assert G.distances_from(source) == _ref_distances(adj, source)
    assert G.is_connected() == (-1 not in _ref_distances(adj, 0))
    again = Graph.from_text(G.to_text())
    assert again == G and hash(again) == hash(G)
    coin = random.Random(rng.getrandbits(64))  # one draw, not one per edge of a dense list
    kept = [e for e in edges if coin.random() < 0.9]
    H = Graph(n, kept)
    assert (H == G) == (_ref_store(n, kept) == adj)
    if H == G:
        assert hash(H) == hash(G)


def test_dominates_complete_and_cycle():
    K3 = complete_graph(3)
    assert all(dominates(K3, u, v) for u in range(3) for v in range(3) if u != v)
    C4 = cycle_graph(4)
    assert not any(dominates(C4, u, v) for u in range(4) for v in range(4) if u != v)


def test_dominates_on_induced_pair():
    G, _ = double_wheel()
    a0, b4 = G.vertex_by_label("a_0"), G.vertex_by_label("b_4")
    sub, back = induced_subgraph(G, [a0, b4])
    local = {orig: i for i, orig in enumerate(back)}
    assert dominates(sub, local[a0], local[b4])


def test_dominates_never_reflexive():
    assert not dominates(path_graph(2), 0, 0)


def test_dominates_rejects_unknown_vertices():
    G = path_graph(70)
    assert not dominates(G, 99, 99)  # u == v is decided before the vertex check
    for u, v in ((0, 70), (70, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="unknown vertex"):
            dominates(G, u, v)
    # numpy integers name the same vertices, past the 64-bit range of a shift
    assert dominates(G, np.int64(68), np.int64(69))
    assert not dominates(G, np.int64(69), np.int64(68))


@pytest.mark.parametrize("v", [1, True, np.int64(1), np.int32(1)])
def test_vertex_check_accepts_integers(v):
    G = path_graph(3)
    assert G.neighbors(v) == {0, 1, 2}
    assert G.adjacent(v, 2) and G.label(v) == str(v)


@pytest.mark.parametrize("v", [1.0, np.float64(1), "1", None, -1, 3])
def test_vertex_check_refuses_everything_else(v):
    G = path_graph(3)
    for query in (G.neighbors, lambda v: G.adjacent(0, v), G.label):
        with pytest.raises(ValueError, match=r"^unknown vertex "):
            query(v)


def test_induced_identity_and_isolated():
    P3 = path_graph(3)
    whole, back = induced_subgraph(P3, range(3))
    assert whole == P3 and back == (0, 1, 2)
    iso, _ = induced_subgraph(P3, [0, 2])
    assert iso.edge_count() == 0 and iso.order == 2


def test_induced_block_prefix_is_path():
    G, order = double_wheel()
    sub, back = induced_subgraph(G, order.sequence[:3])
    # a_0 - b_4 - c in some local labelling: exactly two edges, a path
    assert sub.order == 3 and sub.edge_count() == 2
    labels = {sub.label(v) for v in sub.vertices()}
    assert labels == {"a_0", "b_4", "c"}
    assert not sub.adjacent(sub.vertex_by_label("a_0"), sub.vertex_by_label("c"))


def test_induced_empty_rejected():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_induced_functoriality(n, seed):
    # inducing on a superset then a subset equals inducing directly
    import random

    G = random_connected_graph(n, seed)
    rng = random.Random(seed + 1)
    big = sorted(rng.sample(range(n), k=max(2, n - 1)))
    small = sorted(rng.sample(big, k=max(1, len(big) - 1)))
    mid, back1 = induced_subgraph(G, big)
    small_local = [back1.index(v) for v in small]
    twice, _ = induced_subgraph(mid, small_local)
    direct, _ = induced_subgraph(G, small)
    assert twice == direct


# -- the line parser against the one it replaced --------------------------


def _ref_from_text(text):
    """The graph parser that collected an edge list and built the graph
    from it after the loop."""
    n = None
    edges = []
    named = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("#"):
            words = line[1:].split(None, 2)
            if words[:1] == ["label"]:
                if len(words) != 3:
                    raise GraphFormatError(f"line {lineno}: expected '# label <v> <name>'")
                try:
                    v = int(words[1])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: label vertex must be an integer")
                if v in named:
                    raise GraphFormatError(
                        f"line {lineno}: vertex {v} already labelled on line {named[v][0]}"
                    )
                named[v] = (lineno, words[2])
            continue
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected vertex count")
            if not 1 <= n <= MAX_FILE_ORDER:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {n} is not in 1..{MAX_FILE_ORDER}"
                )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected integers")
        if not (0 <= u < v < (n or 0)):
            raise GraphFormatError(f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < n")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty graph file")
    if named:
        for v, (lineno, _) in named.items():
            if not 0 <= v < n:
                raise GraphFormatError(f"line {lineno}: label for vertex {v} out of range")
        if len(named) != n:
            missing = min(set(range(n)) - named.keys())
            raise GraphFormatError(
                f"labels name {len(named)} of {n} vertices; vertex {missing} has none"
            )
    return Graph(n, edges, labels=tuple(named[v][1] for v in range(n)) if named else None)


_PARSER_TEXTS = [
    path_graph(4).to_text(),
    random_connected_graph(7, 4).to_text(),
    double_wheel()[0].to_text(),  # labelled
    "3\n# label 0 a\n#label 1 b c\n# label 2 d\n0 1\n0 1\n1 2\n",  # repeated edge
    "5\n",  # header only
    # ids not written as str(id): leading zeros, signs, other digits,
    # underscores, tabs and padding
    "12\n00 01\n+1 2\n\u0662 3\n1_0 11\n3\t4\n  4   5  \n",
    "7\n-0 006\n+5\t+6\n\u0664 \uff15\n",
]
# The file noise of the parser fuzz tests, and line breaks other than \n.
_PARSER_NOISE = st.sampled_from(
    [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028", "\xa0", "#",
     "# label ", "#label ", "label", ":", "-", "+", "_", "0", "1", "2", "9", "x", "\x00", "١",
     "1" * 30, "99999999", "0 1", "1 2\n"]
)


@st.composite
def _graph_file_texts(draw):
    """A graph file with a few characters deleted, inserted or replaced,
    or with lines dropped, repeated or swapped."""
    text = draw(st.sampled_from(_PARSER_TEXTS))
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat", "swap"]))
        lines = text.splitlines(keepends=True)
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
        add = "" if how == "delete" else draw(_PARSER_NOISE)
        text = text[:i] + add + text[i + cut:]
    return text


def _parsed(parse, text):
    try:
        G = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return G, G.labels


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), _graph_file_texts()))
def test_parser_matches_the_edge_list_parser(text):
    assert _parsed(Graph.from_text, text) == _parsed(_ref_from_text, text)


@pytest.mark.parametrize("text", [
    *_PARSER_TEXTS[-2:],
    "3\n1 3\n",  # a canonical id, but not below n
    "3\n0 \u0663\n",
    "3\n01 3\n",
    "3\n0x1 2\n",
    "3\n0 1\n1 2 \n 2\t1\n",
])
def test_parser_reads_ids_not_written_canonically_like_int(text):
    assert _parsed(Graph.from_text, text) == _parsed(_ref_from_text, text)


def test_text_roundtrip_and_comments():
    G = random_connected_graph(7, 42)
    text = G.to_text()
    again = Graph.from_text("# a comment\n" + text)
    assert again == G


def test_text_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        Graph.from_text("3\n2 1\n")  # u < v required
    with pytest.raises(GraphFormatError):
        Graph.from_text("3\n1 1\n")  # loops never listed
    with pytest.raises(GraphFormatError):
        Graph.from_text("")


@pytest.mark.parametrize(
    "text, where",
    [("0\n", "line 1"), ("-3\n", "line 1"), ("# header\n0\n", "line 2")],
    ids=["zero", "negative", "after_comment"],
)
def test_text_rejects_vertex_count_below_one(text, where):
    with pytest.raises(GraphFormatError, match=f"{where}: vertex count"):
        Graph.from_text(text)


def test_text_rejects_vertex_count_above_limit(tmp_path, capsys):
    # one above the limit: a missing check then costs one large mask store
    text = f"{MAX_FILE_ORDER + 1}\n0 1\n"
    with pytest.raises(GraphFormatError, match=f"line 1: vertex count {MAX_FILE_ORDER + 1} is not in 1"):
        Graph.from_text(text)
    path = tmp_path / "huge.graph"
    path.write_text(text)
    assert main(["order", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} line 1: vertex count") and err.count("\n") == 1


def test_unlabelled_text_unchanged():
    assert path_graph(4).to_text() == "4\n0 1\n1 2\n2 3\n"
    G = Graph.from_text(path_graph(4).to_text())
    assert G.labels is None


@pytest.mark.parametrize(
    "G",
    [double_wheel()[0], ball(wheel_tree(), 2).graph]
    # names that hold a line separator other than "\n", which the parser does not split at
    + [Graph(2, [(0, 1)], labels=(name, "ok"))
       for name in ("a\x85b", "a\u2028b", "a\x1cb", "a\rb")],
    ids=["double_wheel", "wheel_tree_ball", "nel", "line_sep", "file_sep", "cr"],
)
def test_labels_survive_text_roundtrip(G):
    text = G.to_text()
    assert f"# label 0 {G.label(0)}\n" in text
    again = Graph.from_text(text)
    assert again == G and again.labels == G.labels


def test_label_lines_are_comments_elsewhere():
    # names may hold spaces; other comments stay ignored
    text = "# made by hand\n2\n# label 1 ('', 'a_0')\n#label 0 hub\n0 1\n"
    assert Graph.from_text(text).labels == ("hub", "('', 'a_0')")


@pytest.mark.parametrize(
    "text, where",
    [
        ("2\n# label 0 a\n# label 2 b\n0 1\n", "line 3"),   # out of range
        ("2\n# label 0 a\n# label -1 b\n0 1\n", "line 3"),  # negative
        ("2\n# label 0 a\n# label 0 b\n0 1\n", "line 3"),   # repeated
        ("3\n# label 0 a\n# label 2 c\n0 1\n", "vertex 1"), # partial
        ("2\n# label 0\n# label 1 b\n", "line 2"),           # no name
        ("2\n# label zero a\n# label 1 b\n", "line 2"),      # not a vertex
    ],
)
def test_bad_label_lines_rejected(text, where):
    with pytest.raises(GraphFormatError, match=where):
        Graph.from_text(text)


def test_unstorable_label_refused():
    for name in ("", " lead", "two\nlines", "a\r\nb"):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], labels=("ok", name)).to_text()


def test_dot_export_mentions_labels():
    G, _ = double_wheel()
    dot = G.to_dot()
    assert 'label="a_0"' in dot and "--" in dot


def test_ball_radius_zero_and_path():
    view = ball(ray(), 0)
    assert view.graph.order == 1
    view3 = ball(ray(), 3)
    assert view3.graph == path_graph(4)


@pytest.mark.parametrize("lazy, radius", [(wheel_tree(), 5), (ray(), 6)],
                         ids=["wheel_tree", "ray"])
def test_ball_asks_the_oracle_once_per_key(lazy, radius):
    calls = Counter()

    def counted(key):
        calls[key] += 1
        return lazy.neighbors(key)

    view = ball(replace(lazy, neighbors=counted), radius)
    assert calls == Counter(view.keys)
    assert view.graph == ball(lazy, radius).graph


def test_ball_nesting():
    small = ball(ray(), 2)
    large = ball(ray(), 3)
    inner_ids = [large.id_of[k] for k in small.keys]
    sub, back = induced_subgraph(large.graph, inner_ids)
    assert sub == small.graph


def test_ball_rejects_asymmetric_oracle():
    bad = LazyGraph(
        root=0,
        neighbors=lambda k: {k, k + 1},  # k+1 never lists k back
        canonical_order=lambda k: k,
    )
    with pytest.raises(GeneratorContractError):
        ball(bad, 2)


def test_ball_rejects_missing_loop():
    bad = LazyGraph(root=0, neighbors=lambda k: {k + 1}, canonical_order=lambda k: k)
    with pytest.raises(GeneratorContractError):
        ball(bad, 1)


def test_ball_rejects_clashing_ranks():
    bad = LazyGraph(
        root=0,
        neighbors=lambda k: {max(k - 1, 0), k, k + 1},
        canonical_order=lambda k: k // 2,
    )
    with pytest.raises(GeneratorContractError):
        ball(bad, 2)
