"""Sanity of the bundled corpora against the published censuses, and of the
generator that builds them."""

import importlib.util
from collections import Counter, defaultdict
from pathlib import Path

import networkx as nx
import pytest

from sigdom.graphs import is_connected, is_regular, parse_graph6, write_graph6

CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}
QUARTIC_COUNTS = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}


def test_connected_corpus_counts(connected_upto8):
    by_order = Counter(g.n for g in connected_upto8)
    assert dict(by_order) == CONNECTED_COUNTS
    assert len(connected_upto8) == 12112


def test_connected_corpus_graphs_are_connected(connected_upto8):
    assert all(is_connected(g) for g in connected_upto8)


# the warning concerns hashes across networkx versions; these are compared within one run
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
@pytest.mark.parametrize("corpus", ["connected_upto8", "cubic_upto10", "quartic_5to9"])
def test_corpus_has_no_isomorphic_pair(corpus, request):
    # networkx, not the generator's canonical form, decides isomorphism
    buckets = defaultdict(list)
    for g in request.getfixturevalue(corpus):
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        buckets[nx.weisfeiler_lehman_graph_hash(h)].append(h)
    pairs = [
        (a, b)
        for bucket in buckets.values()
        for i, a in enumerate(bucket)
        for b in bucket[i + 1:]
        if nx.is_isomorphic(a, b)
    ]
    assert pairs == []


def test_cubic_corpus(cubic_upto10):
    by_order = Counter(g.n for g in cubic_upto10)
    assert dict(by_order) == CUBIC_COUNTS
    assert all(is_regular(g) == 3 and is_connected(g) for g in cubic_upto10)


def test_quartic_corpus(quartic_5to9):
    by_order = Counter(g.n for g in quartic_5to9)
    assert dict(by_order) == QUARTIC_COUNTS
    assert all(is_regular(g) == 4 and is_connected(g) for g in quartic_5to9)


def test_corpus_roundtrip_and_handshake(connected_upto8):
    for g in connected_upto8:
        assert parse_graph6(write_graph6(g)) == g
        assert sum(g.degrees()) == 2 * g.m


@pytest.fixture(scope="module")
def make_corpus():
    path = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_form_self_test(make_corpus):
    make_corpus.self_test()


@pytest.mark.parametrize(
    ("corpus", "r", "n"),
    [("cubic_upto10", 3, n) for n in (4, 6, 8)]
    + [("quartic_5to9", 4, n) for n in (5, 6, 7, 8)],
)
def test_regular_corpus_reproduces_bundled_lines(make_corpus, request, corpus, r, n):
    bundled = [write_graph6(g) for g in request.getfixturevalue(corpus) if g.n == n]
    assert make_corpus.regular_corpus(n, r, len(bundled)) == bundled
