"""The five parameters against an independent exact oracle: a 0/1 program
solved by HiGHS through scipy, on graphs of the sizes where the cover search
does real work: fixed graphs with 14 to 40 vertices, hr(2) and hr(4), and
seeded random cubic, quartic, G(n, 4/n) and tree inputs with 10 to 40.

Each program is written from the parameter's definition, not from the
solvers' cover demands, and the solution HiGHS returns is re-checked in
integers before its value counts.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from sigdom.constructions import build_heawood, build_matched_multipartite
from sigdom.graphs import Graph, cycle_graph, min_degree, parse_graph6
from sigdom.solvers import (
    istdn,
    ktuple_total_domination,
    recheck_witness,
    st2in,
    stdn,
    total_domination,
)

#: Fixed graphs of the benchmark panel's classes.  The cubic and quartic
#: graphs come from the configuration model and the G(n, p) graphs are
#: conditioned on being connected with minimum degree >= 2; the trees are
#: decoded from Prüfer sequences drawn by ``random.Random(1)`` and ``(2)``.
GRAPHS = {
    "cubic24": parse_graph6("W???GgC?A??A_GG?OP@?AACAA_?OIA?GOGQ?CA?A_??cGA?"),
    "cubic30": parse_graph6(
        "]C??G??O_??GGH_A@????c?@@??_?P?I?C??@?K?SO??CC?O???GG??_@AC?A?@GAC@????QA?"),
    "quartic22": parse_graph6("U?Ea__Gc?C@??D@BKG@?SOWE?o`?O?AMAA_AR??_"),
    "quartic24": parse_graph6("W??O?AG_@??GoKA`?@?U@HC@ACb?@CJ??QD?WAA?_oCBg??"),
    "gnp22": parse_graph6("Uc?_Q_gCD@VEqCH_x@yO?O_a_gr?eDCo@??AACcG"),
    "gnp26": parse_graph6(
        "Yi??G?Yc?G_KB@?_?eG?@_?G_@_H???wJGOAO@?CQ?@PB_oPQCC?OA??"),
    "C30": cycle_graph(30),
    "hr2": build_matched_multipartite(2),
    "hr3": build_matched_multipartite(3),
    "heawood": build_heawood(),
    "tree40a": parse_graph6(
        "g??G??`?????????_??C?A????a?????@A?????????O???_@OO???????_A?A?_?C??O"
        "?????CO???A?O?P?????O?G??C???????C??GS?????????@A???@@???@????"),
    "tree40b": parse_graph6(
        "gK?W?????CG?????g???@GG?_?????AO??C?????????_?????????A????_???c?????"
        "???c??????????O??C@G?A??C????GC?@_???????_???C_???AGC????G????"),
}

#: Each signed parameter from its definition: optimise f(V) over
#: f: V -> {-1,+1} with f(N(v)) <= bound (le) or >= bound (ge) everywhere.
SIGNED = {
    "istdn": (istdn, "le", 0, "max"),
    "stdn": (stdn, "ge", 1, "min"),
    "st2in": (st2in, "le", 1, "max"),
}


def _neighbours(g: Graph) -> list[list[int]]:
    return [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]


def _solve_01(cost, rows, lower, upper) -> tuple[int, list[int]]:
    """Minimise cost·x over x in {0,1}^n with lower <= rows·x <= upper;
    the optimum, accepted only within 1e-6 of an integer, and x rounded."""
    res = milp(np.asarray(cost, dtype=float),
               constraints=LinearConstraint(np.asarray(rows), lower, upper),
               integrality=np.ones(len(cost)), bounds=Bounds(0, 1))
    assert res.success, res.message
    assert abs(res.fun - round(res.fun)) <= 1e-6, res.fun
    assert np.all(np.abs(res.x - np.round(res.x)) <= 1e-6), res.x
    return round(res.fun), [int(round(v)) for v in res.x]


def milp_signed(g: Graph, sense: str, bound: int, goal: str) -> int:
    """The signed optimum, with x(v) = 1 iff f(v) = +1, so f = 2x - 1."""
    n, nbrs = g.n, _neighbours(g)
    # f(N(v)) = 2·sum of x over N(v) - deg v
    rows = [[2 * (u in nbrs[v]) for u in range(n)] for v in range(n)]
    shift = [len(nbrs[v]) for v in range(n)]
    if sense == "le":
        lower, upper = [-np.inf] * n, [bound + d for d in shift]
    else:
        lower, upper = [bound + d for d in shift], [np.inf] * n
    sign = -1 if goal == "max" else 1
    fun, x = _solve_01([2 * sign] * n, rows, lower, upper)
    f = [2 * b - 1 for b in x]
    for v in range(n):
        total = sum(f[u] for u in nbrs[v])
        assert total <= bound if sense == "le" else total >= bound, (v, total)
    assert sign * fun - n == sum(f)
    return sum(f)


def milp_ktuple(g: Graph, k: int) -> int:
    """The smallest |D| with |N(v) & D| >= k everywhere, x the indicator of D."""
    n, nbrs = g.n, _neighbours(g)
    rows = [[int(u in nbrs[v]) for u in range(n)] for v in range(n)]
    fun, x = _solve_01([1] * n, rows, [k] * n, [np.inf] * n)
    assert all(sum(x[u] for u in nbrs[v]) >= k for v in range(n))
    assert fun == sum(x)
    return fun


def _assert_five_parameters_match(g: Graph) -> None:
    for param, (solve, *definition) in SIGNED.items():
        res = recheck_witness(g, param, solve(g))
        assert res.value == milp_signed(g, *definition), param
    res = recheck_witness(g, "td", total_domination(g))
    assert res.value == milp_ktuple(g, 1)
    if min_degree(g) >= 2:
        res = recheck_witness(g, "ktd", ktuple_total_domination(g, 2), 2)
        assert res.value == milp_ktuple(g, 2)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_five_parameters_match_the_milp_oracle(name):
    _assert_five_parameters_match(GRAPHS[name])


def test_hr4_matches_the_milp_oracle():
    # hr(4), n = 48, minimum degree 6: each of these closes within 1,633
    # nodes.  stdn passes the node budget and ktd at k = 4 takes millions of
    # nodes, so both wait for the twin rule and the gain bound.
    g = build_matched_multipartite(4)
    for param in ("istdn", "st2in"):
        solve, *definition = SIGNED[param]
        res = recheck_witness(g, param, solve(g))
        assert res.value == milp_signed(g, *definition) == 24, param
    res = recheck_witness(g, "td", total_domination(g))
    assert res.value == milp_ktuple(g, 1) == 4
    for k in (2, 3):
        res = recheck_witness(g, "ktd", ktuple_total_domination(g, k), k)
        assert res.value == milp_ktuple(g, k) == 4 * k, k


def _random_graph(kind: str, n: int, seed: int) -> Graph:
    """A seeded networkx graph of the panel's classes; a cubic one has
    n - n % 2 vertices."""
    if kind == "cubic":
        h = nx.random_regular_graph(3, n - n % 2, seed=seed)
    elif kind == "quartic":
        h = nx.random_regular_graph(4, n, seed=seed)
    elif kind == "gnp":
        h = nx.gnp_random_graph(n, 4 / n, seed=seed)
    else:
        rng = random.Random(seed)
        h = nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])
    return Graph(h.number_of_nodes(), sorted(tuple(sorted(e)) for e in h.edges))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["cubic", "quartic", "gnp", "tree"]), st.integers(10, 40),
       st.integers(0, 2**32 - 1))
def test_five_parameters_match_the_milp_oracle_on_random_graphs(kind, n, seed):
    g = _random_graph(kind, n, seed)
    assume(min_degree(g) >= 1)
    _assert_five_parameters_match(g)
