import functools
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from sigdom import solvers
from sigdom.constructions import build_heawood, build_matched_multipartite
from sigdom.graphs import (
    Graph,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    min_degree,
    parse_graph6,
    path_graph,
    star_graph,
)
from sigdom.solvers import (
    SIGNED_PROBLEMS,
    ParameterResult,
    WitnessError,
    enumerate_maximum_istdfs,
    is_feasible,
    istdn,
    ktuple_chain,
    ktuple_total_domination,
    optimize_signed,
    recheck_witness,
    st2in,
    stdn,
    total_domination,
)
from oracles import brute_cover, brute_ktuple, brute_signed, random_connected_graph

PROBLEMS = {"istdn": istdn, "stdn": stdn, "st2in": st2in}

#: brute_signed's (sense, bound, maximize) for each parameter, written out
#: from the definitions rather than read from SIGNED_PROBLEMS.
BRUTE_ARGS = {
    "istdn": ("le", 0, True),
    "stdn": ("ge", 1, False),
    "st2in": ("le", 1, True),
}


def _minus_set(f: tuple[int, ...]) -> set[int]:
    return {v for v, s in enumerate(f) if s == -1}


def test_signed_problem_is_restricted():
    # (sign, bound): maximise sign*f(V) with sign*f(N(v)) <= sign*bound, so
    # each row must read back as its parameter's definition in BRUTE_ARGS
    assert set(SIGNED_PROBLEMS) == set(BRUTE_ARGS)
    for name, (sign, bound) in SIGNED_PROBLEMS.items():
        sense, brute_bound, maximize = BRUTE_ARGS[name]
        assert (sign, bound) == ((1 if maximize else -1), brute_bound), name
        assert sense == ("le" if sign == 1 else "ge"), name
    c4 = cycle_graph(4)
    for name in ("td", "ktd", "ISTDN", "", "signed"):
        with pytest.raises(ValueError, match="not a signed parameter"):
            optimize_signed(c4, name)
        with pytest.raises(ValueError, match="not a signed parameter"):
            is_feasible(c4, (1, -1, 1, -1), name)


def test_recheck_rejects_a_malformed_labelling():
    # labellings of the wrong length, and labellings with a label of 0 that
    # is_feasible would pass, each of the optimum weight 0 on P4, fail the
    # re-check; the optimum itself passes
    p4 = path_graph(4)
    good = ParameterResult(0, (1, -1, -1, 1), 0)
    assert recheck_witness(p4, "istdn", good) is good
    for values in ((1, -1), (1, -1, -1, 1, -1, 1), (1, 0, -1, 0), (0, 0, 0, 0)):
        assert len(values) != 4 or is_feasible(p4, values, "istdn")
        with pytest.raises(WitnessError, match="istdn witness fails its re-check"):
            recheck_witness(p4, "istdn", ParameterResult(sum(values), values, 0))


#: (graph, labelling, feasible for istdn, stdn, st2in): labellings that
#: tell the three constraints apart.
FEASIBILITY_EXAMPLES = [
    (path_graph(4), (1, -1, -1, 1), (True, False, True)),
    (cycle_graph(5), (1,) * 5, (False, True, False)),
    (path_graph(3), (1, 1, -1), (False, False, True)),
    (cycle_graph(5), (-1,) * 5, (True, False, True)),
    (complete_graph(3), (1, 1, 1), (False, True, False)),
]


def test_is_feasible_examples():
    for g, values, expected in FEASIBILITY_EXAMPLES:
        for name, want in zip(PROBLEMS, expected):
            assert is_feasible(g, values, name) == want, (values, name)
        with pytest.raises(ValueError):
            is_feasible(complete_graph(g.n + 1), values, "istdn")


#: optimize_signed's (value, nodes) for (istdn, stdn, st2in).
LABELLING_SEARCH_COUNTS = {
    "heawood": (build_heawood(), ((-10, 532), (10, 532), (2, 1801))),
    "C12": (cycle_graph(12), ((0, 250), (12, 23), (0, 250))),
    "hr3": (build_matched_multipartite(3),
            ((6, 11516), (10, 1963), (6, 11516))),
    "K7": (complete_graph(7), ((-1, 104), (3, 90), (-1, 104))),
    "K3,3": (complete_bipartite_graph(3, 3), ((-2, 36), (2, 36), (2, 19))),
}


#: optimize_signed's (value, nodes) for (istdn, stdn, st2in), each summed
#: over a corpus fixture: the graphs the regular identities run it on.
LABELLING_SEARCH_CORPUS_COUNTS = {
    "cubic_upto10": ((-116, 2816), (116, 2816), (48, 3584)),
    "quartic_5to9": ((-21, 3245), (131, 1733), (-21, 3245)),
}


@pytest.mark.parametrize(
    "name", sorted(LABELLING_SEARCH_COUNTS) + sorted(LABELLING_SEARCH_CORPUS_COUNTS))
def test_labelling_search_pinned(name, request):
    if name in LABELLING_SEARCH_COUNTS:
        g, pinned = LABELLING_SEARCH_COUNTS[name]
        graphs = [g]
    else:
        graphs = request.getfixturevalue(name)
        pinned = LABELLING_SEARCH_CORPUS_COUNTS[name]
    for param, want in zip(PROBLEMS, pinned):
        results = [recheck_witness(g, param, optimize_signed(g, param)) for g in graphs]
        assert (sum(r.value for r in results),
                sum(r.nodes_explored for r in results)) == want, param


def test_istdn_closed_form_examples():
    assert istdn(complete_graph(5)).value == -1
    assert istdn(cycle_graph(8)).value == 0
    assert istdn(cycle_graph(6)).value == -2
    assert istdn(complete_bipartite_graph(2, 3)).value == -1
    assert istdn(complete_bipartite_graph(3, 3)).value == -2
    assert istdn(path_graph(3)).value == -1


def test_tuple_domination_examples():
    for n in range(2, 8):
        assert total_domination(complete_graph(n)).value == 2
    assert total_domination(cycle_graph(6)).value == 4
    assert total_domination(cycle_graph(8)).value == 4
    assert total_domination(path_graph(4)).value == 2
    assert ktuple_total_domination(cycle_graph(4), 2).value == 4
    assert ktuple_total_domination(complete_graph(4), 2).value == 3
    # a cover's witness is its vertices in increasing order, as compute prints it
    for g in (cycle_graph(8), complete_graph(5), build_heawood()):
        for res in (total_domination(g), ktuple_total_domination(g, 2)):
            w = res.witness
            assert type(w) is tuple and len(w) == res.value
            assert all(a < b for a, b in zip(w, w[1:])), w


def test_ktuple_validates_range():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="k must"):
        ktuple_total_domination(c4, 3)
    with pytest.raises(ValueError, match="k must"):
        ktuple_total_domination(c4, 0)


def test_isolated_vertices_rejected():
    lonely = Graph(3, [(0, 1)])
    for solver in (istdn, stdn, st2in, total_domination):
        with pytest.raises(ValueError, match="isolated"):
            solver(lonely)
    with pytest.raises(ValueError, match="isolated"):
        enumerate_maximum_istdfs(lonely)


def test_search_node_budget(monkeypatch):
    # node counts on Heawood: the cover search through stdn, and the
    # labelling search; each passes a budget one below its count
    g = build_heawood()
    for solve, nodes in ((stdn, 134), (lambda h: optimize_signed(h, "stdn"), 532)):
        monkeypatch.setattr(solvers, "SEARCH_NODE_BUDGET", nodes - 1)
        with pytest.raises(ValueError, match=f"passed the {nodes - 1}-node budget"):
            solve(g)
        for budget in (nodes, nodes + 1):
            monkeypatch.setattr(solvers, "SEARCH_NODE_BUDGET", budget)
            res = solve(g)
            assert (res.value, res.nodes_explored) == (10, nodes)


def test_witnesses_are_feasible_and_optimal():
    for g in (complete_graph(6), cycle_graph(7), complete_bipartite_graph(2, 4)):
        for param, solver in PROBLEMS.items():
            res = solver(g)
            assert is_feasible(g, res.witness, param)
            assert sum(res.witness) == res.value
            assert res.nodes_explored >= 0
            assert optimize_signed(g, param).value == res.value


def test_weight_is_order_minus_twice_minus_set():
    for g in (complete_graph(5), cycle_graph(9), star_graph(6)):
        res = istdn(g)
        m = len(_minus_set(res.witness))
        assert res.value == g.n - 2 * m
        assert m == (g.n - res.value) // 2


def test_parity_of_signed_optima():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng, 3, 8)
        assert istdn(g).value % 2 == g.n % 2
        assert stdn(g).value % 2 == g.n % 2
        assert st2in(g).value % 2 == g.n % 2


def test_floor_and_ceiling_witnesses():
    rng = random.Random(6)
    for _ in range(15):
        g = random_connected_graph(rng, 2, 8)
        assert -g.n <= istdn(g).value
        assert stdn(g).value <= g.n


def test_minus_set_is_tuple_dominating():
    # the -1 side of any maximum inverse-signed labelling must hit every
    # open neighbourhood at least ceil(deg/2) >= ceil(delta/2) times
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_graph(rng, 3, 9)
        res = istdn(g)
        minus = _minus_set(res.witness)
        mask = 0
        for v in minus:
            mask |= 1 << v
        c = (min_degree(g) + 1) // 2
        for v in range(g.n):
            assert (g.adj[v] & mask).bit_count() >= (g.degree(v) + 1) // 2
        assert len(minus) >= ktuple_total_domination(g, c).value


def test_descent_chain():
    rng = random.Random(17)
    graphs = [complete_graph(6), complete_bipartite_graph(3, 3), cycle_graph(8)]
    graphs += [random_connected_graph(rng, 4, 9) for _ in range(10)]
    for g in graphs:
        delta = min_degree(g)
        if delta < 2:
            continue
        values = [r.value for r in ktuple_chain(g, delta)]
        for prev, cur in zip(values, values[1:]):
            assert cur >= prev + 1


def test_oracle_equivalence_small():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, 2, 8)
        for name, solver in PROBLEMS.items():
            expected, _ = brute_signed(g, *BRUTE_ARGS[name])
            assert solver(g).value == expected, f"{name} mismatch"
        delta = min_degree(g)
        for k in range(1, delta + 1):
            assert ktuple_total_domination(g, k).value == brute_ktuple(g, k)


def test_enumerate_maximum_istdfs_examples():
    only = enumerate_maximum_istdfs(path_graph(2))
    assert only == [(-1, -1)]
    p4 = enumerate_maximum_istdfs(path_graph(4))
    assert p4 == [(1, -1, -1, 1)]
    c4 = enumerate_maximum_istdfs(cycle_graph(4))
    assert len(c4) == 4
    assert all(sum(f) == 0 and len(_minus_set(f)) == 2 for f in c4)


def test_enumerate_matches_brute_count():
    rng = random.Random(29)
    drawn = [random_connected_graph(rng, 2, 8) for _ in range(15)]
    # no drawn graph has twins (equal open neighbourhoods); each of these
    # does, so an enumeration that keeps one optimum per twin class fails
    double_star = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
    twinned = [cycle_graph(4), complete_bipartite_graph(2, 3), star_graph(5), double_star]
    assert all(len(set(g.adj)) < g.n for g in twinned)
    for g in drawn + twinned:
        value, count = brute_signed(g, "le", 0, True)
        fs = enumerate_maximum_istdfs(g)
        assert len(fs) == count
        assert all(sum(f) == value for f in fs)
        assert all(is_feasible(g, f, "istdn") for f in fs)
        assert fs == sorted(fs)


def test_deterministic_results():
    g = random_connected_graph(random.Random(31), 7, 9)
    first = istdn(g)
    second = istdn(g)
    assert first.value == second.value
    assert first.witness == second.witness
    assert first.nodes_explored == second.nodes_explored


#: Every solver entry point, by name, as a function of the graph alone.
SOLVES = {
    "istdn": istdn,
    "stdn": stdn,
    "st2in": st2in,
    "td": total_domination,
    "ktd k=2": functools.partial(ktuple_total_domination, k=2),
    **{f"optimize_signed {p}": functools.partial(optimize_signed, param=p)
       for p in SIGNED_PROBLEMS},
    "clique_number": clique_number,
    "enumerate_maximum_istdfs": enumerate_maximum_istdfs,
}


def test_a_solve_leaves_no_garbage():
    # reference counting alone frees a whole solve: a reference cycle left
    # by each call would cost the cyclic collector on every corpus run.
    # "G??Nfw" is a corpus graph: n = 8, degrees 2 (six times), 4 and 6.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for g in (cycle_graph(8), build_heawood(), parse_graph6("G??Nfw")):
            for name, solve in SOLVES.items():
                solve(g)
                assert gc.collect() == 0, (name, g)
    finally:
        if was_enabled:
            gc.enable()


@st.composite
def connected_graphs(draw, max_n: int = 9) -> Graph:
    """A random spanning tree plus random extra edges, on 2..max_n vertices."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {e for e, keep in zip(pairs, extra) if keep}
    return Graph(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_cover_engine_matches_labelling_search_and_brute_force(g):
    for name, solver in PROBLEMS.items():
        res, labelled = solver(g), optimize_signed(g, name)
        expected, _ = brute_signed(g, *BRUTE_ARGS[name])
        assert res.value == expected == labelled.value, name
        # every witness is a labelling: n values, each +-1
        for f in (res.witness, labelled.witness):
            assert type(f) is tuple and len(f) == g.n and set(f) <= {-1, 1}, name
        assert is_feasible(g, res.witness, name), name
        assert sum(res.witness) == res.value, name
    value, count = brute_signed(g, "le", 0, True)
    fs = enumerate_maximum_istdfs(g)
    assert all(type(f) is tuple and len(f) == g.n and set(f) <= {-1, 1} for f in fs)
    assert len(fs) == count
    assert all(sum(f) == value for f in fs)
    assert fs == sorted(fs)


@st.composite
def graphs_with_demands(draw) -> tuple[Graph, list[int]]:
    """A connected graph and any demand 0 <= d(v) <= deg v at each vertex."""
    g = draw(connected_graphs())
    return g, [draw(st.integers(0, d)) for d in g.degrees()]


@settings(max_examples=300, deadline=None)
@given(graphs_with_demands(), st.data())
def test_cover_engine_on_arbitrary_demands(case, data):
    # beyond the five parameters' demands: the minimum, a covering witness,
    # and exactly the minimum covers, each once, from the visiting mode
    g, demand = case
    size, minimum_covers = brute_cover(g, demand)
    minimum_covers = {sum(1 << v for v in c) for c in minimum_covers}
    best, _ = solvers._cover_search(g, g.degrees(), demand)
    assert best.bit_count() == size
    assert all((a & best).bit_count() >= d for a, d in zip(g.adj, demand))
    covers = []
    solvers._cover_search(g, g.degrees(), demand, below=size + 1, visit=covers.append)
    assert len(covers) == len(minimum_covers)
    assert set(covers) == minimum_covers
    # in labelling order, -1 on the cover: a visitor that stops on its j-th
    # call receives the first j minimum covers, and nothing after them
    labelling = lambda c: tuple(-1 if c >> v & 1 else 1 for v in range(g.n))
    assert covers == sorted(covers, key=labelling)
    j = data.draw(st.integers(1, len(covers)), label="j")
    visited = []
    stop = lambda c: visited.append(c) or len(visited) == j
    solvers._cover_search(g, g.degrees(), demand, below=size + 1, visit=stop)
    assert visited == covers[:j]


def test_cover_engine_without_demand_or_edges():
    # the lower bound divides by Delta only when some demand is outstanding
    for g in (Graph(1, []), Graph(3, [])):
        assert solvers._cover_search(g, g.degrees(), [0] * g.n) == (0, 0)
        visited = []
        assert solvers._cover_search(g, g.degrees(), [0] * g.n, below=1,
                                     visit=visited.append) == (0, 0)
        assert visited == [0]


def test_st2in_with_zero_demand_everywhere():
    # every vertex has degree 1, so floor(deg/2) = 0: the empty minus set
    # covers, and the search closes at the root
    matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
    res = st2in(matching)
    assert res.value == 6 and res.nodes_explored == 0
    assert res.witness == (1,) * 6


@pytest.mark.parametrize("r", range(2, 8))
def test_hr_closes_after_one_dive(r):
    # hr(r) attains the clique-constrained bound, istdn = r(r-1)^2 - r(r-1),
    # and the first dive meets the lower bound: two nodes for each of the
    # (n - istdn) / 2 minus vertices it picks, and no backtracking
    g = build_matched_multipartite(r)
    res = istdn(g)
    assert res.value == r * (r - 1) ** 2 - r * (r - 1)
    assert res.nodes_explored == g.n - res.value


#: A connected cubic graph with n = 24 from the configuration model (seed 2024).
CUBIC_24 = "WK????K?C?GOE?_o?`?oC?C@D??A?O?_S?c?GE?@C????CD"

#: The benchmark panel's fixed cubic graph with n = 30.
CUBIC_30 = "]C??G??O_??GGH_A@????c?@@??_?P?I?C??@?K?SO??CC?O???GG??_@AC?A?@GAC@????QA?"

#: Search nodes of (istdn, stdn, st2in) when these bounds were set.
NODE_COUNTS = {
    "C30": (cycle_graph(30), (158, 28, 158)),
    "hr3": (build_matched_multipartite(3), (12, 236, 12)),
    "heawood": (build_heawood(), (134, 134, 62)),
    "cubic24": (parse_graph6(CUBIC_24), (301, 301, 174)),
    "cubic30": (parse_graph6(CUBIC_30), (1244, 1244, 354)),
}


@pytest.mark.parametrize("name", sorted(NODE_COUNTS))
def test_signed_search_node_bounds(name):
    # 10 % headroom over the counts above, so a pruning regression fails
    g, counts = NODE_COUNTS[name]
    for solver, count in zip((istdn, stdn, st2in), counts):
        assert solver(g).nodes_explored <= count * 11 // 10, solver.__name__
