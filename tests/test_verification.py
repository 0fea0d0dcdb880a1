import decimal
import functools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from sigdom import solvers, verification
from sigdom.constructions import build_heawood, build_matched_multipartite
from sigdom.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from sigdom.verification import (
    CHECK_IDS,
    CheckReport,
    SuiteSummary,
    evaluate_check,
    is_heawood_certificate,
    run_suite,
)
from sigdom.trees import free_trees

from oracles import brute_lemma42


def test_t22_examples():
    rep = evaluate_check("t22", complete_graph(5))
    assert (rep.lhs, rep.rhs, rep.holds, rep.sharp) == (-1, -1, True, True)
    rep = evaluate_check("t22", cycle_graph(6))
    assert (rep.lhs, rep.rhs, rep.holds, rep.sharp) == (-2, -2, True, True)
    rep = evaluate_check("t22", complete_bipartite_graph(4, 4))
    assert (rep.lhs, rep.rhs, rep.holds, rep.sharp) == (0, 2, True, False)


def test_t22_inapplicable_on_disconnected():
    rep = evaluate_check("t22", Graph(4, [(0, 1), (2, 3)]))
    assert not rep.applicable and rep.holds


def test_clique_bound_exact_cases():
    rep = evaluate_check("turan", cycle_graph(4))
    assert rep.holds and rep.sharp and rep.rhs == 0 and "exact" in rep.notes
    h3 = build_matched_multipartite(3)
    rep = evaluate_check("turan", h3)
    assert rep.holds and rep.sharp and rep.rhs == 6 and "exact" in rep.notes


def test_clique_bound_float_case():
    rep = evaluate_check("turan", cycle_graph(5))
    assert rep.holds and not rep.sharp and rep.notes == "r=2 c=1 rhs rounded"
    assert rep.lhs == -1
    assert abs(rep.rhs - (5 - 2 * (-1 + 11 ** 0.5))) < 1e-12


#: Every Decimal in the clique-bound oracle is computed to 60 digits.
_SIXTY_DIGITS = decimal.Context(prec=60)


@functools.cache
def _turan_rhs(n: int, delta: int, r: int) -> decimal.Decimal:
    """The paper's bound n - r/(r-1) * (-c + sqrt(c^2 + 4(r-1)/r * c * n)),
    c = ceil(delta/2)."""
    with decimal.localcontext(_SIXTY_DIGITS):
        c = decimal.Decimal(-(-delta // 2))
        root = (c * c + 4 * (r - 1) * c * n / decimal.Decimal(r)).sqrt()
        return n - decimal.Decimal(r) / (r - 1) * (root - c)


def test_clique_bound_against_a_decimal_oracle(connected_upto8, cubic_upto10, quartic_5to9):
    # omega, delta and the bound come from networkx and decimal, not from the check
    corpus = connected_upto8 + cubic_upto10 + quartic_5to9
    corpus += [t for n in range(2, 13) for t in free_trees(n)]
    corpus += [build_matched_multipartite(r) for r in (2, 3, 4)]
    reports = []
    run_suite(corpus, ["turan"], on_report=reports.append)
    assert len(reports) == len(corpus)
    tiny = decimal.Decimal("1e-40")
    for g, rep in zip(corpus, reports):
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        r = max(2, max(map(len, nx.find_cliques(h))))
        delta = min(d for _, d in h.degree())
        rhs = _turan_rhs(g.n, delta, r)
        assert rep.applicable and f"r={r} " in rep.notes, rep
        with decimal.localcontext(_SIXTY_DIGITS):
            assert rep.holds == (rep.lhs <= rhs + tiny), rep
            assert rep.sharp == (abs(rep.lhs - rhs) < tiny), rep
            assert abs(decimal.Decimal(float(rep.rhs)) - rhs) < decimal.Decimal("1e-9"), rep
        if "exact" in rep.notes:
            # the reported rhs solves the bound's equation exactly
            c = -(-delta // 2)
            root = (g.n - Fraction(rep.rhs)) * (r - 1) / r + c
            assert root >= 0 and root * root == c * c + Fraction(4 * (r - 1) * c * g.n, r), rep
        else:
            assert isinstance(rep.rhs, float), rep
        # the bound grows with r: the smallest admissible r is the strongest
        bounds = [_turan_rhs(g.n, delta, k) for k in range(r, r + 4)]
        assert bounds == sorted(set(bounds)), rep


def test_regular_identities_examples():
    for g in (complete_graph(4), cycle_graph(4), path_graph(2), complete_graph(2)):
        rep = evaluate_check("regular_identities", g)
        assert rep.applicable and rep.holds, rep.notes
    rep = evaluate_check("regular_identities", complete_bipartite_graph(2, 3))
    assert not rep.applicable


def test_regular_identities_are_independent_of_the_cover_engine(monkeypatch):
    petersen = Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    circulant = Graph(8, [(i, (i + s) % 8) for i in range(8) for s in (1, 2)])
    graphs = (complete_graph(4), petersen, circulant)
    assert all(evaluate_check("regular_identities", g).holds for g in graphs)

    real = solvers._cover_search

    def padded(g, *args, **kwargs):
        # a feasible cover one vertex above the minimum: its witness passes
        # the re-check, so only the identities can catch it
        cover, nodes = real(g, *args, **kwargs)
        extra = min(v for v in range(g.n) if not cover >> v & 1)
        return cover | 1 << extra, nodes

    monkeypatch.setattr(solvers, "_cover_search", padded)
    # the signed solvers and the tuple minima now err alike; a check that
    # took both sides from the cover engine could miss the mutation
    for g in graphs:
        rep = evaluate_check("regular_identities", g)
        assert rep.applicable and not rep.holds, rep.notes


def test_regular_identities_on_cycles():
    for n in range(3, 11):
        rep = evaluate_check("regular_identities", cycle_graph(n))
        assert rep.applicable and rep.holds, rep.notes


def test_regular_interval_examples():
    rep = evaluate_check("regular_bounds", cycle_graph(3))
    assert rep.holds and rep.sharp and "lower" in rep.notes
    rep = evaluate_check("regular_bounds", cycle_graph(4))
    assert rep.holds and rep.sharp and "upper" in rep.notes
    rep = evaluate_check("regular_bounds", complete_graph(4))
    assert rep.holds and not rep.sharp
    assert Fraction(-20, 7) <= rep.lhs <= Fraction(-4, 3)
    rep = evaluate_check("regular_bounds", path_graph(4))
    assert not rep.applicable


def test_heawood_certificate():
    assert is_heawood_certificate(build_heawood())
    assert not is_heawood_certificate(complete_bipartite_graph(3, 3))
    assert not is_heawood_certificate(cycle_graph(14))
    # cubic bipartite on 14 vertices but girth 4: the cycle plus diameters
    moebius = Graph(
        14,
        [(i, (i + 1) % 14) for i in range(14)] + [(i, i + 7) for i in range(7)],
    )
    assert not is_heawood_certificate(moebius)
    # GP(7,2): cubic on 14 vertices, girth 5, not bipartite -- an outer
    # 7-cycle, spokes, and an inner cycle in steps of 2
    petersen_7_2 = Graph(
        14,
        [(i, (i + 1) % 7) for i in range(7)]
        + [(i, i + 7) for i in range(7)]
        + [(i + 7, (i + 2) % 7 + 7) for i in range(7)],
    )
    assert not is_heawood_certificate(petersen_7_2)
    # the certificate reads no labels
    heawood = build_heawood()
    relabelled = _relabel(heawood, random.Random(24).sample(range(14), 14))
    assert relabelled != heawood and is_heawood_certificate(relabelled)


def test_cubic_floor_examples():
    rep = evaluate_check("cubic", complete_graph(4))
    assert rep.holds and rep.lhs == -2 and rep.rhs == Fraction(-8, 3)
    rep = evaluate_check("cubic", complete_bipartite_graph(3, 3))
    assert rep.holds and rep.lhs == -2
    rep = evaluate_check("cubic", build_heawood())
    assert rep.holds and "exception" in rep.notes
    assert rep.lhs == -10
    rep = evaluate_check("cubic", cycle_graph(5))
    assert not rep.applicable


def test_leaf_condition_examples():
    for t in (path_graph(4), star_graph(5), Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])):
        rep = evaluate_check("lemma42", t)
        assert rep.applicable and rep.holds
    # lemma42 applies to trees of every order
    rep = evaluate_check("lemma42", path_graph(15))
    assert rep.applicable and rep.holds
    rep = evaluate_check("lemma42", cycle_graph(5))
    assert not rep.applicable


def test_tree_floor_examples():
    rep = evaluate_check("t43", path_graph(2))
    assert rep.holds and rep.sharp and (rep.lhs, rep.rhs) == (-2, -2)
    rep = evaluate_check("t43", star_graph(6))
    assert rep.holds and rep.sharp and (rep.lhs, rep.rhs) == (-2, -2)
    rep = evaluate_check("t43", path_graph(4))
    assert rep.holds and not rep.sharp and (rep.lhs, rep.rhs) == (0, -4)
    rep = evaluate_check("t43", cycle_graph(4))
    assert not rep.applicable


def test_report_json_schema():
    rep = evaluate_check("t43", path_graph(4))
    payload = json.loads(rep.json_line())
    assert list(payload) == ["check_id", "graph_id", "lhs", "rhs", "holds", "sharp", "notes"]
    assert payload["graph_id"] == "Ch"
    rep = evaluate_check("regular_bounds", complete_graph(4))
    payload = json.loads(rep.json_line())
    assert isinstance(payload["rhs"], float)  # -4/3 is not integral


def _dumps_line(rep: CheckReport) -> str:
    """The report line as json.dumps writes it: the oracle for json_line."""
    def number(x):
        if isinstance(x, Fraction):
            return int(x) if x.denominator == 1 else float(x)
        return x

    return json.dumps({
        "check_id": rep.check_id,
        "graph_id": rep.graph_id,
        "lhs": number(rep.lhs),
        "rhs": number(rep.rhs),
        "holds": rep.holds,
        "sharp": rep.sharp,
        "notes": rep.notes,
    })


_NUMBERS = st.one_of(
    st.integers(),
    st.integers().map(Fraction),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: graph6 characters, chr 63 to 126, the backslash and "~" among them
_GRAPH6_TEXT = st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1)
_NOTES = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001f600'),
                           st.characters()))


@settings(max_examples=500, deadline=None)
@given(st.builds(CheckReport, st.sampled_from(CHECK_IDS), _GRAPH6_TEXT, _NUMBERS,
                 _NUMBERS, st.booleans(), st.booleans(), st.booleans(), _NOTES))
def test_report_line_equals_json_dumps(rep):
    assert rep.json_line() == _dumps_line(rep)


TWO_K3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
TWO_K4 = Graph(8, [(u + s, v + s) for s in (0, 4) for u in range(4) for v in range(u + 1, 4)])

#: (check id, graph, reason): each way out of a check's scope; where a
#: graph misses several preconditions, the first one named wins.
INAPPLICABLE = [
    ("t22", Graph(4, [(0, 1), (2, 3)]), "graph is not connected"),
    ("t22", Graph(3, [(0, 1)]), "graph is not connected"),
    ("turan", Graph(3, [(0, 1)]), "isolated vertex"),
    ("turan", Graph(1, []), "isolated vertex"),
    ("regular_identities", path_graph(4), "graph is not regular"),
    ("regular_identities", TWO_K3, "graph is not connected"),
    ("regular_identities", Graph(1, []), "isolated vertex"),
    ("regular_bounds", path_graph(4), "graph is not regular"),
    ("regular_bounds", TWO_K3, "graph is not connected"),
    ("regular_bounds", Graph(1, []), "isolated vertex"),
    ("cubic", complete_graph(5), "graph is not cubic"),
    ("cubic", TWO_K4, "graph is not connected"),
    ("lemma42", cycle_graph(5), "not a tree on >= 2 vertices"),
    ("t43", cycle_graph(5), "not a tree on >= 2 vertices"),
    ("lemma42", Graph(1, []), "not a tree on >= 2 vertices"),
    ("t22", Graph(1, []), "isolated vertex"),
]


@pytest.mark.parametrize("check_id, g, reason", INAPPLICABLE)
def test_inapplicable_reasons(check_id, g, reason):
    rep = evaluate_check(check_id, g)
    assert rep == CheckReport(
        check_id, write_graph6(g), 0, 0, True, False, False, f"inapplicable: {reason}"
    )
    assert rep.json_line() == _dumps_line(rep)


def test_evaluate_check_dispatch():
    rep = evaluate_check("t43", path_graph(4))
    assert rep.check_id == "t43"
    # auto r: K4 gets r = 4, so the bound applies rather than being skipped
    rep = evaluate_check("turan", complete_graph(4))
    assert rep.applicable and "r=4" in rep.notes
    with pytest.raises(ValueError, match="unknown"):
        evaluate_check("t99", path_graph(4))


def test_run_suite_on_trees():
    reports = []
    summary = run_suite(
        (t for n in range(2, 9) for t in free_trees(n)),
        ["t43", "lemma42"],
        on_report=reports.append,
    )
    assert summary.ok
    n_trees = 1 + 1 + 2 + 3 + 6 + 11 + 23
    assert summary.counts["t43"]["passed"] == n_trees
    assert summary.counts["lemma42"]["passed"] == n_trees
    assert len(reports) == 2 * n_trees


def test_shared_facts_change_no_report(connected_upto8, cubic_upto10, quartic_5to9):
    # oracle: each check alone on a fresh copy of the graph, sharing nothing
    trees = [t for n in range(2, 10) for t in free_trees(n)]
    corpus = cubic_upto10 + quartic_5to9 + trees + connected_upto8[:500]
    shared = []
    run_suite(corpus, CHECK_IDS, on_report=shared.append)
    alone = [
        evaluate_check(cid, Graph(g.n, g.edges())) for g in corpus for cid in CHECK_IDS
    ]
    assert [r.json_line() for r in shared] == [r.json_line() for r in alone]
    assert shared == alone


def _relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _numbers(rep: CheckReport) -> tuple:
    return rep.lhs, rep.rhs, rep.holds, rep.sharp, rep.applicable


@pytest.fixture(scope="module")
def relabelling_corpora(connected_upto8, cubic_upto10, quartic_5to9):
    # drawn corpus first, so the few regular graphs are not drowned out
    trees = [t for n in range(2, 11) for t in free_trees(n)]
    return connected_upto8, cubic_upto10 + quartic_5to9, trees


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reports_do_not_depend_on_vertex_labels(relabelling_corpora, data):
    # lemma42 is the known exception; see the test below
    g = data.draw(st.sampled_from(data.draw(st.sampled_from(relabelling_corpora))))
    h = _relabel(g, data.draw(st.permutations(range(g.n))))
    for cid in CHECK_IDS:
        if cid != "lemma42":
            assert _numbers(evaluate_check(cid, g)) == _numbers(evaluate_check(cid, h)), cid


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: lemma42 stops at the first optimum whose shortfall is >= 0, "
    "so its sharp flag depends on vertex labels"))
def test_lemma42_does_not_depend_on_vertex_labels():
    # two labellings of P6: shortfall 0 (sharp) on one, 1 (not sharp) on the other
    g = parse_graph6("EhCG")
    h = _relabel(g, (1, 2, 0, 3, 4, 5))
    assert write_graph6(h) == "E[CG"
    assert _numbers(evaluate_check("lemma42", g)) == _numbers(evaluate_check("lemma42", h))


@pytest.mark.parametrize("seed", [1, 2])
def test_lemma42_is_its_brute_force_scan(monkeypatch, seed):
    # the exact semantics, label dependence included: the same numbers and
    # the same re-checked optimum as scanning every sorted minimum cover,
    # on relabelled trees where some first optimum falls short
    rechecked = []
    real = verification.recheck_witness

    def spy(g, param, result, k=1):
        rechecked.append(result.witness)
        return real(g, param, result, k)

    monkeypatch.setattr(verification, "recheck_witness", spy)
    rng = random.Random(seed)
    past_first = 0
    for n in range(2, 11):
        for t in free_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = _relabel(t, perm)
            shortfall, optimum, read = brute_lemma42(g)
            rep = evaluate_check("lemma42", g)
            assert (rep.lhs, rep.holds, rep.sharp) == (shortfall, shortfall >= 0, shortfall == 0)
            # the istdn fact is re-checked first, lemma42's optimum last
            assert rechecked[-1] == optimum, write_graph6(g)
            past_first += read > 1
    assert past_first == {1: 5, 2: 9}[seed]


def test_lemma42_scan_search_nodes_are_pinned(monkeypatch):
    # outputs alone do not guard the scan: one that kept its order but
    # stopped pruning would report the same numbers
    real = solvers._cover_search
    scans = []

    def counted(g, degrees, demand, below=None, visit=None):
        result = real(g, degrees, demand, below, visit)
        if below is not None:
            scans.append(result[1])
        return result

    monkeypatch.setattr(solvers, "_cover_search", counted)
    for n in range(2, 13):
        for t in free_trees(n):
            evaluate_check("lemma42", t)
    assert (len(scans), sum(scans)) == (986, 11_531)


def test_run_suite_sharp_on_complete_and_cycles():
    corpus = [complete_graph(n) for n in range(2, 11)]
    corpus += [cycle_graph(n) for n in range(3, 17)]
    summary = run_suite(corpus, ["t22"])
    assert summary.ok
    assert summary.counts["t22"]["sharp"] == len(corpus)


def test_run_suite_empty_and_unknown():
    summary = run_suite([], ["t22"])
    assert summary.ok and summary.counts == {}
    with pytest.raises(ValueError, match="unknown"):
        run_suite([], ["nope"])


def test_run_suite_reads_check_ids_once():
    corpus = [path_graph(4), cycle_graph(5), star_graph(6)]
    ids = ["t22", "t43"]
    summary = run_suite(corpus, ids)
    assert sorted(summary.counts) == ids
    assert run_suite(corpus, (cid for cid in ids)).json_line() == summary.json_line()


def test_tallies_are_the_printed_summary():
    corpus = [cycle_graph(n) for n in range(3, 7)] + [complete_graph(4)]
    summary = run_suite(corpus, CHECK_IDS)
    assert summary.counts == json.loads(summary.json_line())["summary"]
    assert SuiteSummary().json_line() == '{"summary": {}, "failures": []}'


def test_suite_summary_failure_ordering():
    summary = SuiteSummary()
    mk = lambda cid, gid: CheckReport(cid, gid, 0, 0, False, False)
    for cid, gid in [("t43", "Cz"), ("t22", "Aa"), ("t22", "Cz")]:
        summary.add(mk(cid, gid))
    assert not summary.ok
    payload = json.loads(summary.json_line())
    assert [(f["check_id"], f["graph_id"]) for f in payload["failures"]] == [
        ("t22", "Aa"), ("t22", "Cz"), ("t43", "Cz")
    ]


def test_check_ids_are_stable():
    assert CHECK_IDS == (
        "t22",
        "turan",
        "regular_identities",
        "regular_bounds",
        "cubic",
        "lemma42",
        "t43",
    )
