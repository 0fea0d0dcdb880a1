"""Exact computation of signed and k-tuple total domination parameters.

The three signed problems are one problem up to f -> -f.  SIGNED_PROBLEMS
gives each, by parameter name, a sign s and a bound b: maximise s*f(V) over
labellings f: V -> {-1,+1} subject to s*f(N(v)) <= s*b at every vertex v.
The functions that take such a name raise ValueError on any other:

    parameter  s   b   the problem in f
    istdn      +1  0   maximise f(V) with f(N(v)) <= 0
    st2in      +1  1   maximise f(V) with f(N(v)) <= 1
    stdn       -1  1   minimise f(V) with f(N(v)) >= 1

Every parameter is a minimum cover of a per-vertex demand vector: a vertex
set S with |N(v) & S| >= demand[v] for every v, found by one branch-and-bound
search over bitset adjacency (``_cover_search``).  With h = s*f and M the
set where h = -1, h(N(v)) = deg v - 2|N(v) & M|, so a signed problem covers
with M, demanding ceil((deg v - s*b) / 2), and its value is
s*(n - 2 min|M|).  ktd and td cover with D, demanding k or 1; their value
is min|D|.  A signed witness is the labelling, a tuple of n values +-1.
Each parameter's solver returns one ParameterResult, a NamedTuple of the
value, the witness and the nodes searched; a signed solve builds it
straight from the cover the search returns.

The cover search branches on the most constrained vertex, after Knuth's
Algorithm X: a vertex with demand left whose undecided neighbours exceed
that demand by the least.  When they equal it, all of them are forced in
one step; otherwise the search takes or rules out that neighbour of it
which meets the most outstanding demand.  A branch dies once its picks
plus ceil(outstanding demand / largest undecided degree) reach the best
cover known.  The search needs no seed: its first dive builds the first
cover, and it stops once a cover meets its own lower bound on the minimum.

``optimize_signed`` is kept as an independent search over the labellings
themselves.  On an r-regular graph the signed demands are constant, so the
regular-graph identities take their signed side from it; from the cover
engine they would compare that engine with itself.  All searches are exact
and deterministic; each one gives up with a ValueError once it has explored
more than SEARCH_NODE_BUDGET nodes.  ``recheck_witness`` checks a result's
witness against the graph from scratch, without the search.  A solve reads
the degree tuple once, and a solve that returns leaves no reference cycle:
each recursive search function is unbound once its search is over, so
reference counting frees the whole solve, with no work for the cyclic
garbage collector.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .graphs import Graph

#: The most nodes one search may explore.  Work, not vertex count, decides
#: what is out of reach: hr(4) (n = 48) closes after one dive of 24 nodes,
#: while some 28-vertex graphs need millions of nodes.
SEARCH_NODE_BUDGET = 10_000_000


def _require_positive_min_degree(g: Graph) -> tuple[int, ...]:
    """``g.degrees()``; raises on the empty graph and on an isolated vertex."""
    if not (degrees := g.degrees()):
        raise ValueError("empty graph has no degrees")
    if min(degrees) == 0:
        raise ValueError("isolated vertex: solvers need minimum degree >= 1")
    return degrees


#: The three signed problems by parameter name, as (sign, bound).
SIGNED_PROBLEMS = {"istdn": (1, 0), "stdn": (-1, 1), "st2in": (1, 1)}


def _sign_and_cap(param: str) -> tuple[int, int]:
    """(sign, sign*bound) of a signed parameter; ValueError for any other name."""
    if param not in SIGNED_PROBLEMS:
        raise ValueError(f"not a signed parameter: {param!r}")
    sign, bound = SIGNED_PROBLEMS[param]
    return sign, sign * bound


class ParameterResult(NamedTuple):
    """Exact optimum with an achieving witness and the nodes its search
    explored, the dive that found the first witness included."""

    value: int
    witness: "tuple[int, ...] | frozenset[int]"  # a +-1 labelling or a cover
    nodes_explored: int


def is_feasible(g: Graph, values: Sequence[int], param: str) -> bool:
    """True iff the labelling meets ``param``'s constraint at every vertex."""
    sign, cap = _sign_and_cap(param)
    if len(values) != g.n:
        raise ValueError(f"labelling has {len(values)} entries for n={g.n}")
    plus = 0
    for v, s in enumerate(values):
        if s == 1:
            plus |= 1 << v
    for a in g.adj:
        if sign * (2 * (a & plus).bit_count() - a.bit_count()) > cap:
            return False
    return True


class WitnessError(Exception):
    """A solver's witness failed its re-check: a fault of the program, not
    of its input."""


def recheck_witness(
    g: Graph, param: str, result: ParameterResult, k: int = 1
) -> ParameterResult:
    """``result`` of ``param`` (istdn, stdn, st2in, td or ktd at level k) on
    ``g``, once its witness is checked from scratch: a feasible labelling
    of weight ``value``, or a set of ``value`` vertices that each vertex
    has at least k neighbours in.  Raises WitnessError otherwise; its
    message names ktd's level, e.g. ``ktd (k=2)``."""
    w = result.witness
    if param in SIGNED_PROBLEMS:
        ok = (len(w) == g.n and set(w) <= {-1, 1} and sum(w) == result.value
              and is_feasible(g, w, param))
    else:
        mask = 0
        for v in w:
            if 0 <= v < g.n:
                mask |= 1 << v
        ok = len(w) == result.value == mask.bit_count()
        for a in g.adj:
            if (a & mask).bit_count() < k:
                ok = False
                break
    if not ok:
        name = f"{param} (k={k})" if param == "ktd" else param
        raise WitnessError(f"{name} witness fails its re-check")
    return result


def optimize_signed(g: Graph, param: str) -> ParameterResult:
    """Exact optimum of a signed parameter by depth-first branch and bound.

    Searches h = sign*f: maximise h(V) subject to h(N(v)) <= cap =
    sign*bound, trying +1 first at each vertex.  Pruning: (i)+(ii) a
    neighbourhood whose sum stays above cap even if all of its unlabelled
    vertices take -1 kills the branch; (iii) an optimistic completion
    (remaining vertices all +1, feasibility ignored) that cannot strictly
    beat the incumbent kills the branch.  The incumbent starts from the
    all -1 labelling, which is always feasible, so the search is never
    unseeded.
    """
    sign, cap = _sign_and_cap(param)
    degrees = _require_positive_min_degree(g)
    n = g.n
    # Descending degree, ties by index: high-degree vertices constrain the
    # most neighbourhoods early, and the total order makes runs reproducible.
    order = sorted(range(n), key=lambda v: (-degrees[v], v))

    best_vals = [-1] * n
    best = -n

    vals = [0] * n
    labeled = [0] * n          # sum of labelled neighbours
    slack = list(degrees)      # number of unlabelled neighbours
    nodes = 0
    budget = SEARCH_NODE_BUDGET
    neighbor_lists = [list(g.neighbors(v)) for v in range(n)]

    def dfs(i: int, weight: int) -> None:
        nonlocal best, best_vals, nodes
        if i == n:
            if weight > best:
                best = weight
                best_vals = vals.copy()
            return
        u = order[i]
        rest = n - i - 1
        for s in (1, -1):
            w2 = weight + s
            if w2 + rest <= best:
                continue
            nodes += 1
            if nodes > budget:
                raise ValueError(f"labelling search passed the {budget}-node budget")
            vals[u] = s
            ok = True
            for v in neighbor_lists[u]:
                labeled[v] += s
                slack[v] -= 1
                if labeled[v] - slack[v] > cap:
                    ok = False
            if ok:
                dfs(i + 1, w2)
            for v in neighbor_lists[u]:
                labeled[v] -= s
                slack[v] += 1
            vals[u] = 0

    dfs(0, 0)
    del dfs  # dfs holds itself through its closure; unbound, the solve is freed at once
    return ParameterResult(sign * best, tuple(sign * x for x in best_vals), nodes)


# ---------------------------------------------------------------------------
# The cover engine
# ---------------------------------------------------------------------------


def _cover_search(
    g: Graph, degrees: Sequence[int], demand: Sequence[int], below: int | None = None
) -> tuple[list[frozenset[int]], int]:
    """Depth-first branch and bound over covers of ``demand``, given the
    degrees of ``g``; returns the covers it records and the nodes explored.

    Every cover has at least max(max demand, ceil(total demand / Delta))
    vertices, so the search stops once the size it must beat meets that.
    Without ``below`` it minimises from n + 1: each cover found replaces
    the last and becomes the size to beat.  With ``below`` that size stays
    put and every cover smaller than it is kept.  With ``below`` one above
    the minimum those are exactly the minimum covers, each recorded once:
    the two branches of a node disagree on a vertex, so no two leaves hold
    the same set, and a branch stops as soon as its set covers, which no
    proper subset of a minimum cover does.

    Branching takes the fewest remaining options first (Knuth, "Dancing
    links", arXiv cs/0011047).  A vertex with demand left is hungry; its
    slack is its undecided neighbours minus its demand left.  Taking a
    neighbour keeps the slack and ruling one out lowers it.  A hungry vertex
    of slack 0 is tight, and the forced step takes all of its undecided
    neighbours in one node with no second branch.  Otherwise the search
    picks the hungry vertex of least slack (lowest index on ties) and
    branches on its undecided neighbour with the most hungry neighbours
    (lowest index on ties): take it, or rule it out.  Every slack is then at
    least 1, so ruling out never leaves a vertex that cannot be covered.

    Pruning: a node dies when the picks it already holds plus the picks its
    outstanding demand still needs reach the size to beat.  One pick settles
    at most the degree of an undecided vertex; the largest one comes from
    one vertex mask per degree class.  A forced step also dies when its
    picks alone would reach the size to beat.

    The undecided, hungry and tight vertices are bitmasks passed down the
    recursion; the demand left and the slack of each vertex are integer
    arrays changed in place and restored on the way back.
    """
    adj = g.adj
    need = list(demand)  # demand left; taking a neighbour lowers it
    slack = []  # undecided neighbours minus demand left, read while hungry
    classes: dict[int, int] = {}
    hungry = tight = outstanding = 0
    bit = 1
    for d, k in zip(degrees, need):
        classes[d] = classes.get(d, 0) | bit
        slack.append(d - k)
        if k:
            hungry |= bit
            outstanding += k
            if d == k:
                tight |= bit
        bit <<= 1
    # (degree, vertices of that degree), largest degree first
    reach_classes = sorted(classes.items(), reverse=True)
    best = len(adj) + 1 if below is None else below
    lower = outstanding and max(max(need), -(-outstanding // reach_classes[0][0]))
    chosen: list[int] = []
    covers: list[frozenset[int]] = []
    nodes = 0
    budget = SEARCH_NODE_BUDGET

    def dfs(undecided: int, hungry: int, tight: int, outstanding: int) -> None:
        nonlocal best, nodes
        if best == lower:
            return
        if not hungry:
            # the pruning keeps every cover reached smaller than best
            if below is None:
                best = len(chosen)
                covers.clear()
            covers.append(frozenset(chosen))
            return
        for reach, mask in reach_classes:
            if mask & undecided:
                break
        if len(chosen) + (outstanding + reach - 1) // reach >= best:
            return
        if tight:
            # forced: every undecided neighbour of a tight vertex
            take = adj[(tight & -tight).bit_length() - 1] & undecided
            if len(chosen) + take.bit_count() >= best:
                return
            nodes += 1
        else:
            # every slack is >= 1 here; the least, lowest index first
            least = len(adj)
            rest = hungry
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                if slack[w] < least:
                    least, v = slack[w], w
                    if least == 1:
                        break
            most = -1
            rest = adj[v] & undecided
            while rest:
                low = rest & -rest
                rest ^= low
                c = (adj[low.bit_length() - 1] & hungry).bit_count()
                if c > most:
                    most, take = c, low
            nodes += 2  # one per branch
        if nodes > budget:
            raise ValueError(f"cover search passed the {budget}-node budget")
        size = len(chosen)
        settled = []
        left = hungry
        rest = take
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            chosen.append(u)
            hit = adj[u] & left
            while hit:
                low = hit & -hit
                hit ^= low
                w = low.bit_length() - 1
                settled.append(w)
                need[w] -= 1
                if not need[w]:
                    left ^= low
        # each settled entry is one unit of demand met
        dfs(undecided ^ take, left, tight & left, outstanding - len(settled))
        del chosen[size:]
        for w in settled:
            need[w] += 1
        if tight:
            return
        # rule the vertex out: its neighbours with demand lose one option
        hit = adj[u] & hungry
        while hit:
            low = hit & -hit
            hit ^= low
            w = low.bit_length() - 1
            slack[w] -= 1
            if not slack[w]:
                tight |= low
        dfs(undecided ^ take, hungry, tight, outstanding)
        hit = adj[u] & hungry
        while hit:
            low = hit & -hit
            hit ^= low
            slack[low.bit_length() - 1] += 1

    dfs((1 << len(adj)) - 1, hungry, tight, outstanding)
    del dfs  # dfs holds itself through its closure; unbound, the solve is freed at once
    return covers, nodes


def _solve_ktuple(
    g: Graph, degrees: Sequence[int], demand: Sequence[int]
) -> ParameterResult:
    """Minimum cover of ``demand``.  Its nodes include the first dive, which
    builds the first cover: two per branching pick, one per forced step."""
    covers, nodes = _cover_search(g, degrees, demand)
    return ParameterResult(len(covers[-1]), covers[-1], nodes)


# ---------------------------------------------------------------------------
# Signed parameters as covers
# ---------------------------------------------------------------------------


def _signed_demand(degrees: Sequence[int], param: str) -> tuple[int, list[int]]:
    """The label of the cover set M, -sign, and each vertex's demand on it,
    ceil((deg v - sign*bound) / 2)."""
    sign, cap = _sign_and_cap(param)
    return -sign, [(d - cap + 1) // 2 for d in degrees]


def _labelling(n: int, cover: frozenset[int], label: int) -> tuple[int, ...]:
    """``label`` on the cover and ``-label`` on every other vertex."""
    values = [-label] * n
    for v in cover:
        values[v] = label
    return tuple(values)


def _signed_cover(g: Graph, param: str) -> ParameterResult:
    degrees = _require_positive_min_degree(g)
    label, demand = _signed_demand(degrees, param)
    covers, nodes = _cover_search(g, degrees, demand)
    cover = covers[-1]
    return ParameterResult(label * (2 * len(cover) - g.n), _labelling(g.n, cover, label), nodes)


def istdn(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 0 everywhere."""
    return _signed_cover(g, "istdn")


def stdn(g: Graph) -> ParameterResult:
    """Minimum weight over labellings with f(N(v)) >= 1 everywhere."""
    return _signed_cover(g, "stdn")


def st2in(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 1 everywhere."""
    return _signed_cover(g, "st2in")


def enumerate_maximum_istdfs(
    g: Graph, optimum: int | None = None
) -> list[tuple[int, ...]]:
    """All labellings achieving istdn(g), sorted.

    These are the minimum covers of the istdn demand, found by the cover
    search with its bound pinned one above the minimum minus-set size.
    ``optimum``, when given, must be istdn(g); it spares the solve.
    """
    degrees = _require_positive_min_degree(g)
    _, demand = _signed_demand(degrees, "istdn")
    if optimum is None:
        size = len(_cover_search(g, degrees, demand)[0][-1])
    else:
        size = (g.n - optimum) // 2
    covers, _ = _cover_search(g, degrees, demand, below=size + 1)
    return sorted(_labelling(g.n, m, -1) for m in covers)


# ---------------------------------------------------------------------------
# k-tuple total domination
# ---------------------------------------------------------------------------


def ktuple_chain(g: Graph, k: int) -> list[ParameterResult]:
    """Exact minima for tuple levels 1..k, one solve each, for the regular
    identities, whose notes print every level.  Level k comes first, from
    ktuple_total_domination, so k is checked before any solve."""
    top = ktuple_total_domination(g, k)
    degrees = g.degrees()
    return [_solve_ktuple(g, degrees, [level] * g.n) for level in range(1, k)] + [top]


def ktuple_total_domination(g: Graph, k: int) -> ParameterResult:
    """Minimum size of a set D with |N(v) & D| >= k for every vertex v."""
    degrees = _require_positive_min_degree(g)
    delta = min(degrees)
    if not 1 <= k <= delta:
        raise ValueError(f"k must satisfy 1 <= k <= {delta}, got {k}")
    return _solve_ktuple(g, degrees, [k] * g.n)


def total_domination(g: Graph) -> ParameterResult:
    """Minimum size of a set D meeting every open neighbourhood (k = 1)."""
    return ktuple_total_domination(g, 1)
