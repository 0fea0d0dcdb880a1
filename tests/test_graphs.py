import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from sigdom.graphs import (
    Graph,
    GraphFormatError,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    girth,
    is_connected,
    is_regular,
    is_tree,
    max_degree,
    min_degree,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    stream_graph6,
    write_graph6,
)
from oracles import brute_clique


def test_graph_invariants():
    g = cycle_graph(5)
    assert g.n == 5 and g.m == 5
    assert sum(g.degrees()) == 2 * g.m
    assert g.has_edge(0, 4) and not g.has_edge(0, 2)
    assert list(g.neighbors(0)) == [1, 4]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1)


def test_graph6_known_encodings():
    assert write_graph6(path_graph(2)) == "A_"
    assert write_graph6(complete_graph(4)) == "C~"
    assert write_graph6(Graph(1)) == "@"
    k2 = parse_graph6("A_")
    assert (k2.n, k2.m) == (2, 1)
    assert parse_graph6("C~") == complete_graph(4)
    c4 = parse_graph6("Cl")
    assert sorted(c4.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert parse_graph6(">>graph6<<A_") == k2


def test_graph6_roundtrip_families():
    for g in (
        complete_graph(7),
        cycle_graph(9),
        path_graph(6),
        complete_bipartite_graph(3, 4),
        star_graph(8),
        Graph(5),
    ):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_random():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 14)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_malformed_records():
    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6("   ")
    with pytest.raises(GraphFormatError, match="alphabet"):
        parse_graph6("A!")
    with pytest.raises(GraphFormatError, match="payload for n=4 needs 1 bytes, got 0"):
        parse_graph6("C")  # n=4 needs one payload byte
    with pytest.raises(GraphFormatError, match="payload for n=2 needs 1 bytes, got 2"):
        parse_graph6("A__")
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph6("A~")  # n=2 uses 1 bit; the other 5 must be zero
    with pytest.raises(GraphFormatError, match="long-form"):
        parse_graph6("~??")
    with pytest.raises(GraphFormatError, match="62"):
        write_graph6(Graph(63))


@st.composite
def labelled_graphs(draw, max_n=62):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
def test_graph6_round_trip_against_networkx(g):
    line = write_graph6(g)
    assert parse_graph6(line) == g
    # == compares masks only; the tree fact reads m
    assert parse_graph6(line).m == g.m
    h = nx.from_graph6_bytes(line.encode("ascii"))
    assert h.number_of_nodes() == g.n and h.number_of_edges() == g.m
    assert sorted(tuple(sorted(e)) for e in h.edges()) == list(g.edges())


@settings(max_examples=100, deadline=None)
@given(labelled_graphs())
def test_graph6_record_text_is_the_graph_id(g):
    line = write_graph6(g)
    assert g.graph6 is None
    variants = [line, f">>graph6<<{line}", f"{line}\r\n", f">>graph6<<{line}\r\n",
                f"  {line} \t\n", f" >>graph6<<{line} \r\n"]
    records = list(stream_graph6(variants))
    assert [h.graph6 for _, h in records] == [line] * len(variants)
    assert all(h == g and h.m == g.m for _, h in records)


def test_stream_graph6_reports_line_numbers():
    lines = ["A_", "", "C~", "A!"]
    it = stream_graph6(lines, source="corpus.g6")
    where, g = next(it)
    assert where == "corpus.g6:1" and g.n == 2
    where, g = next(it)
    assert where == "corpus.g6:3" and g.n == 4
    with pytest.raises(GraphFormatError, match=r"corpus\.g6:4"):
        next(it)


def test_parse_edge_list():
    assert parse_edge_list("2\n0 1") == path_graph(2)
    assert parse_edge_list("4\n0 1\n1 2\n2 3\n3 0") == cycle_graph(4)
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_edge_list("3\n0 0")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_edge_list("3\n0 1 1 0")
    with pytest.raises(GraphFormatError, match="range"):
        parse_edge_list("3\n0 3")
    with pytest.raises(GraphFormatError, match="pairs"):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(GraphFormatError, match="integer"):
        parse_edge_list("x")
    assert parse_edge_list("62").n == 62
    with pytest.raises(GraphFormatError, match="graph6 limit 62"):
        parse_edge_list("63")


def test_family_canonical_numbering():
    c4 = cycle_graph(4)
    assert sorted(c4.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    k23 = complete_bipartite_graph(2, 3)
    assert all(k23.has_edge(i, j) for i in (0, 1) for j in (2, 3, 4))
    assert star_graph(4).degree(0) == 3
    for builder, params in (
        (complete_graph, (1,)), (cycle_graph, (2,)), (path_graph, (0,)),
        (complete_bipartite_graph, (0, 3)), (star_graph, (1,)),
    ):
        with pytest.raises(ValueError):
            builder(*params)


def test_degree_queries():
    c6 = cycle_graph(6)
    assert (min_degree(c6), max_degree(c6), is_regular(c6)) == (2, 2, 2)
    k23 = complete_bipartite_graph(2, 3)
    assert (min_degree(k23), max_degree(k23)) == (2, 3)
    assert is_regular(k23) is None
    s5 = star_graph(5)
    assert (min_degree(s5), max_degree(s5)) == (1, 4)
    k1 = Graph(1)
    assert (min_degree(k1), max_degree(k1)) == (0, 0)
    for degree in (min_degree, max_degree):
        with pytest.raises(ValueError, match="empty graph has no degrees"):
            degree(Graph(0))


def test_connectivity_and_trees():
    assert is_connected(path_graph(4)) and is_tree(path_graph(4))
    assert is_connected(cycle_graph(4)) and not is_tree(cycle_graph(4))
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_edges) and not is_tree(two_edges)
    assert is_connected(Graph(1))


def test_girth():
    assert girth(cycle_graph(5)) == 5
    assert girth(cycle_graph(6)) == 6
    assert girth(complete_graph(4)) == 3
    assert girth(path_graph(5)) is None
    assert girth(complete_bipartite_graph(3, 3)) == 4


def test_clique_number_examples():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(complete_bipartite_graph(3, 3)) == 2
    assert clique_number(Graph(3)) == 1


def test_clique_number_against_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random()]
        g = Graph(n, edges)
        assert clique_number(g) == brute_clique(g)


def test_clique_number_on_corpus(connected_upto8):
    # every connected graph through n=7, plus a deterministic slice of n=8
    for i, g in enumerate(connected_upto8):
        if g.n == 8 and i % 8:
            continue
        assert clique_number(g) == brute_clique(g)
