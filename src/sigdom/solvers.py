"""Exact computation of signed and k-tuple total domination parameters.

The three signed problems are one problem up to f -> -f.  Given a sign s
and a bound b, maximise s*f(V) over labellings f: V -> {-1,+1} subject to
s*f(N(v)) <= s*b at every vertex v:

    parameter  s   b   the problem in f
    istdn      +1  0   maximise f(V) with f(N(v)) <= 0
    st2in      +1  1   maximise f(V) with f(N(v)) <= 1
    stdn       -1  1   minimise f(V) with f(N(v)) >= 1

Every parameter is a minimum cover of a per-vertex demand vector: a vertex
set S with |N(v) & S| >= demand[v] for every v, found by one branch-and-bound
search over bitset adjacency (``_solve_ktuple``).  With h = s*f and M the
set where h = -1, h(N(v)) = deg v - 2|N(v) & M|, so a signed problem covers
with M, demanding ceil((deg v - s*b) / 2), and its value is
s*(n - 2 min|M|).  ktd and td cover with D, demanding k or 1; their value
is min|D|.

The cover search branches on the most constrained vertex, after Knuth's
Algorithm X: a vertex with demand left whose undecided neighbours exceed
that demand by the least.  When they equal it, all of them are forced in
one step; otherwise the search takes or rules out that neighbour of it
which meets the most outstanding demand.  A branch dies once its picks
plus ceil(outstanding demand / largest undecided degree) reach the best
cover known.  The search needs no seed: its first dive builds the first
cover, and it stops once a cover meets a lower bound on the minimum.

``optimize_signed`` is kept as an independent search over the labellings
themselves.  On an r-regular graph the signed demands are constant, so the
regular-graph identities take their signed side from it; from the cover
engine they would compare that engine with itself.  All searches are exact
and deterministic; each one gives up with a ValueError once it has explored
more than SEARCH_NODE_BUDGET nodes.  ``recheck_witness`` checks a result's
witness against the graph from scratch, without the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

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


@dataclass(frozen=True)
class SignedProblem:
    """One of the three +-1 labelling problems, in the sign/bound form
    above; only the three studied instantiations are constructible."""

    sign: int
    bound: int

    _ALLOWED = {(1, 0), (1, 1), (-1, 1)}

    def __post_init__(self) -> None:
        if (self.sign, self.bound) not in self._ALLOWED:
            raise ValueError("supported (sign, bound): (1, 0), (1, 1), (-1, 1)")


#: maximise f(V) subject to f(N(v)) <= 0 everywhere (ISTDF / istdn).
INVERSE_SIGNED_TOTAL = SignedProblem(1, 0)
#: minimise f(V) subject to f(N(v)) >= 1 everywhere (STDF / stdn).
SIGNED_TOTAL = SignedProblem(-1, 1)
#: maximise f(V) subject to f(N(v)) <= 1 everywhere (negative decision / st2in).
NEGATIVE_DECISION = SignedProblem(1, 1)


@dataclass(frozen=True)
class SignedFunction:
    """A total labelling V -> {-1,+1}."""

    values: tuple[int, ...]

    @classmethod
    def from_values(cls, g: Graph, values: Sequence[int]) -> "SignedFunction":
        vals = tuple(values)
        if len(vals) != g.n:
            raise ValueError(f"labelling has {len(vals)} entries for n={g.n}")
        if any(v not in (-1, 1) for v in vals):
            raise ValueError("labels must be -1 or +1")
        return cls(vals)


@dataclass(frozen=True)
class ParameterResult:
    """Exact optimum with an achieving witness and the nodes its search
    explored, the dive that found the first witness included."""

    value: int
    witness: "SignedFunction | frozenset[int]"
    nodes_explored: int


def is_feasible(g: Graph, f: SignedFunction, problem: SignedProblem) -> bool:
    """True iff every vertex meets the problem's neighbourhood constraint."""
    if len(f.values) != g.n:
        raise ValueError(f"labelling has {len(f.values)} entries for n={g.n}")
    plus = sum(1 << v for v, s in enumerate(f.values) if s == 1)
    sign, cap = problem.sign, problem.sign * problem.bound
    return all(
        sign * (2 * (g.adj[v] & plus).bit_count() - g.degree(v)) <= cap
        for v in range(g.n)
    )


class WitnessError(Exception):
    """A solver's witness failed its re-check: a fault of the program, not
    of its input."""


_SIGNED_PROBLEMS = {"istdn": INVERSE_SIGNED_TOTAL, "stdn": SIGNED_TOTAL,
                    "st2in": NEGATIVE_DECISION}


def recheck_witness(
    g: Graph, param: str, result: ParameterResult, k: int = 1
) -> ParameterResult:
    """``result`` of ``param`` (istdn, stdn, st2in, td or ktd at level k) on
    ``g``, once its witness is checked from scratch: a feasible labelling
    of weight ``value``, or a set of ``value`` vertices that each vertex
    has at least k neighbours in.  Raises WitnessError otherwise; its
    message names ktd's level, e.g. ``ktd (k=2)``."""
    w = result.witness
    if param in _SIGNED_PROBLEMS:
        ok = (len(w.values) == g.n and set(w.values) <= {-1, 1}
              and sum(w.values) == result.value
              and is_feasible(g, w, _SIGNED_PROBLEMS[param]))
    else:
        mask = sum(1 << v for v in w if 0 <= v < g.n)
        ok = (len(w) == result.value == mask.bit_count()
              and all((a & mask).bit_count() >= k for a in g.adj))
    if not ok:
        name = f"{param} (k={k})" if param == "ktd" else param
        raise WitnessError(f"{name} witness fails its re-check")
    return result


def optimize_signed(g: Graph, problem: SignedProblem) -> ParameterResult:
    """Exact optimum of a SignedProblem by depth-first branch and bound.

    Searches h = sign*f: maximise h(V) subject to h(N(v)) <= cap =
    sign*bound, trying +1 first at each vertex.  Pruning: (i)+(ii) a
    neighbourhood whose sum stays above cap even if all of its unlabelled
    vertices take -1 kills the branch; (iii) an optimistic completion
    (remaining vertices all +1, feasibility ignored) that cannot strictly
    beat the incumbent kills the branch.  The incumbent starts from the
    all -1 labelling, which is always feasible, so the search is never
    unseeded.
    """
    degrees = _require_positive_min_degree(g)
    n = g.n
    # Descending degree, ties by index: high-degree vertices constrain the
    # most neighbourhoods early, and the total order makes runs reproducible.
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    cap = problem.sign * problem.bound

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
    sign = problem.sign
    witness = SignedFunction.from_values(g, [sign * x for x in best_vals])
    return ParameterResult(sign * best, witness, nodes)


# ---------------------------------------------------------------------------
# The cover engine
# ---------------------------------------------------------------------------


def _cover_search(
    g: Graph, demand: Sequence[int], best: int, lower: int | None
) -> tuple[list[frozenset[int]], int]:
    """Depth-first branch and bound over covers of ``demand`` smaller than
    ``best``; returns the covers it records and the nodes explored.

    Given ``lower``, it minimises: each cover found replaces the previous
    one and tightens ``best``, and the search stops once ``best == lower``.
    Without ``lower`` the bound stays put and every cover is kept.  With
    ``best`` one above the minimum those are exactly the minimum covers,
    each recorded once: the two branches of a node disagree on a vertex, so
    no two leaves hold the same set, and a branch stops as soon as its set
    covers, which no proper subset of a minimum cover does.

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
    outstanding demand still needs reach ``best``.  One pick settles at
    most the degree of an undecided vertex; the largest one comes from one
    vertex mask per degree class.  A forced step also dies when its picks
    alone would reach ``best``.

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
    for d, k in zip(map(int.bit_count, adj), need):
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
    chosen: list[int] = []
    covers: list[frozenset[int]] = []
    nodes = 0
    budget = SEARCH_NODE_BUDGET

    def dfs(undecided: int, hungry: int, tight: int, outstanding: int) -> None:
        nonlocal best, nodes
        if best == lower:
            return
        if not hungry:
            # the bounds below keep every cover reached smaller than best
            if lower is not None:
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
    return covers, nodes


def _solve_ktuple(g: Graph, demand: Sequence[int], lower: int) -> ParameterResult:
    """Minimum cover of ``demand``; the search stops once a cover meets
    ``lower``.  Its nodes include the first dive, which builds the first
    cover: two per branching pick, one per forced step."""
    covers, nodes = _cover_search(g, demand, g.n + 1, lower)
    return ParameterResult(len(covers[-1]), covers[-1], nodes)


# ---------------------------------------------------------------------------
# Signed parameters as covers
# ---------------------------------------------------------------------------


def _signed_demand(degrees: Sequence[int], problem: SignedProblem) -> tuple[int, list[int]]:
    """The label of the cover set M, -sign, and each vertex's demand on it,
    ceil((deg v - sign*bound) / 2)."""
    cap = problem.sign * problem.bound
    return -problem.sign, [(d - cap + 1) // 2 for d in degrees]


def _signed_cover(g: Graph, problem: SignedProblem) -> ParameterResult:
    degrees = _require_positive_min_degree(g)
    label, demand = _signed_demand(degrees, problem)
    lower = max(max(demand), -(-sum(demand) // max(degrees)))
    res = _solve_ktuple(g, demand, lower)
    witness = SignedFunction.from_values(
        g, [label if v in res.witness else -label for v in range(g.n)]
    )
    return ParameterResult(label * (2 * res.value - g.n), witness, res.nodes_explored)


def istdn(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 0 everywhere."""
    return _signed_cover(g, INVERSE_SIGNED_TOTAL)


def stdn(g: Graph) -> ParameterResult:
    """Minimum weight over labellings with f(N(v)) >= 1 everywhere."""
    return _signed_cover(g, SIGNED_TOTAL)


def st2in(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 1 everywhere."""
    return _signed_cover(g, NEGATIVE_DECISION)


def enumerate_maximum_istdfs(
    g: Graph, optimum: int | None = None
) -> list[SignedFunction]:
    """All labellings achieving istdn(g), sorted by value vector.

    These are the minimum covers of the istdn demand, found by the cover
    search with its bound pinned one above the minimum minus-set size.
    ``optimum``, when given, must be istdn(g); it spares the solve.
    """
    degrees = _require_positive_min_degree(g)
    if optimum is None:
        optimum = istdn(g).value
    size = (g.n - optimum) // 2
    _, demand = _signed_demand(degrees, INVERSE_SIGNED_TOTAL)
    covers, _ = _cover_search(g, demand, size + 1, None)
    found = sorted(tuple(-1 if v in m else 1 for v in range(g.n)) for m in covers)
    return [SignedFunction.from_values(g, vals) for vals in found]


# ---------------------------------------------------------------------------
# k-tuple total domination
# ---------------------------------------------------------------------------


def ktuple_chain(g: Graph, k: int) -> list[ParameterResult]:
    """Exact minima for every tuple level 1..k.

    Solved in ascending order so each optimum seeds the next level's lower
    bound (removing one vertex from a level-j set leaves a level-(j-1) set,
    hence the minima ascend by at least one per level).
    """
    degrees = _require_positive_min_degree(g)
    delta, big_delta = min(degrees), max(degrees)
    if not 1 <= k <= delta:
        raise ValueError(f"k must satisfy 1 <= k <= {delta}, got {k}")
    results: list[ParameterResult] = []
    prev = None
    for level in range(1, k + 1):
        lower = max(level + 1, -(-level * g.n // big_delta))
        if prev is not None:
            lower = max(lower, prev + 1)
        res = _solve_ktuple(g, [level] * g.n, lower)
        results.append(res)
        prev = res.value
    return results


def ktuple_total_domination(g: Graph, k: int) -> ParameterResult:
    """Minimum size of a set D with |N(v) & D| >= k for every vertex v."""
    return ktuple_chain(g, k)[-1]


def total_domination(g: Graph) -> ParameterResult:
    """Minimum size of a set D meeting every open neighbourhood (k = 1)."""
    return ktuple_total_domination(g, 1)
