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
is min|D|.  A signed witness is the labelling, a tuple of n values +-1,
and a cover parameter's is D, its vertices in increasing order, a tuple.
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
Listing the istdn optima, it branches on the lowest vertex that can still
meet some demand instead, so it visits them in the sorted order of their
labellings, and a caller stops it at the first one it needs.

``optimize_signed`` is kept as an independent search over the labellings
themselves.  On an r-regular graph the signed demands are constant, so the
regular-graph identities take their signed side from it; from the cover
engine they would compare that engine with itself.  It passes down P, the
mask where h = +1 so far, and tests the bound 2|N(v) & P| - deg v <= s*b
only after a +1, as a -1 leaves P as it was.  All searches are exact and
deterministic; each one gives up with a ValueError once it has explored
more than SEARCH_NODE_BUDGET nodes.  ``recheck_witness`` checks a result's
witness against the graph from scratch, without the search.  A solve reads
the degree tuple once, and a solve that returns leaves no reference cycle:
each recursive search function is unbound once its search is over, so
reference counting frees the whole solve, with no work for the cyclic
garbage collector.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

from .graphs import Graph, _iter_bits

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
    explored, the dive that found the first witness included.  The witness
    is a +-1 labelling, or a cover's vertices in increasing order."""

    value: int
    witness: tuple[int, ...]
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
    sign*bound, trying +1 first at each vertex.  The state is P, the mask
    of vertices labelled +1 so far, passed down the recursion.  Pruning:
    (i) a neighbourhood whose sum stays above cap even if all of its
    unlabelled vertices take -1, that is 2|N(v) & P| - deg v > cap, kills
    the branch.  A -1 leaves P as it was, so only a +1 needs this test, at
    the new vertex's neighbours.  (ii) An optimistic completion (remaining
    vertices all +1, feasibility ignored) that cannot strictly beat the
    incumbent kills the branch.  The incumbent starts from the all -1
    labelling, which is always feasible, so the search is never unseeded.
    """
    sign, cap = _sign_and_cap(param)
    degrees = _require_positive_min_degree(g)
    n = g.n
    adj = g.adj
    # Descending degree, ties by index: high-degree vertices constrain the
    # most neighbourhoods early, and the total order makes runs reproducible.
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    # 2|N(v) & P| - deg v <= cap: the most +1 neighbours v may have
    room = [(cap + d) // 2 for d in degrees]
    best = -n
    best_plus = nodes = 0
    budget = SEARCH_NODE_BUDGET

    def dfs(i: int, weight: int, plus: int) -> None:
        nonlocal best, best_plus, nodes
        if i == n:
            # the bound below lets only a strictly better labelling get here
            best, best_plus = weight, plus
            return
        u = order[i]
        rest = n - i - 1
        for s, p in ((1, plus | 1 << u), (-1, plus)):
            if weight + s + rest <= best:
                continue
            nodes += 1
            if nodes > budget:
                raise ValueError(f"labelling search passed the {budget}-node budget")
            # a -1 leaves P as it was, so no neighbourhood needs a test
            hit = adj[u] if s > 0 else 0
            while hit:
                low = hit & -hit
                hit ^= low
                v = low.bit_length() - 1
                if (adj[v] & p).bit_count() > room[v]:
                    break
            else:
                dfs(i + 1, weight + s, p)

    dfs(0, 0, 0)
    del dfs  # dfs holds itself through its closure; unbound, the solve is freed at once
    return ParameterResult(sign * best, _labelling(n, best_plus, sign), nodes)


# ---------------------------------------------------------------------------
# The cover engine
# ---------------------------------------------------------------------------


def _cover_search(
    g: Graph,
    degrees: Sequence[int],
    demand: Sequence[int],
    below: int | None = None,
    visit: Callable[[int], object] | None = None,
) -> tuple[int, int]:
    """Depth-first branch and bound over covers of ``demand``, given the
    degrees of ``g``; returns the last cover it reaches, a vertex mask, and
    the nodes explored, the first dive's included: two per branching pick,
    one per forced step.

    Every cover has at least max(max demand, ceil(total demand / Delta))
    vertices, so the search stops once the size it must beat meets that.
    Without ``below`` it minimises from n + 1: each cover found becomes the
    size to beat, so the last one is a minimum cover.  With ``below``,
    ``visit`` must come too: the size to beat stays put, every cover
    smaller than it goes to ``visit`` as it is reached, and the search
    stops as soon as ``visit`` returns true.  With ``below`` one above the
    minimum those are exactly the minimum covers, each visited once: the
    two branches of a node disagree on a vertex, so no two leaves hold the
    same set, and a branch stops as soon as its set covers, which no proper
    subset of a minimum cover does.

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

    With ``below`` the search visits covers in labelling order instead, the
    sorted order of their labellings with -1 on the cover: it branches on
    the lowest undecided vertex with a hungry neighbour, and takes it
    first.  With ``below`` one above the minimum, no cover it visits holds
    a lower undecided vertex.  Such a vertex has no hungry neighbour, and
    never gains one, as the hungry vertices only shrink below a node; a
    cover holding it would cover without it, so it is not minimum.  So the
    covers below a node agree on every vertex under the branch vertex, and
    those that hold the branch vertex come first.  A forced step keeps the
    order, as every cover below its node holds all that it takes.

    Pruning: a node dies when the picks it already holds plus the picks its
    outstanding demand still needs reach the size to beat.  One pick settles
    at most the degree of an undecided vertex; the largest one comes from
    one vertex mask per degree class.  A forced step also dies when its
    picks alone would reach the size to beat.

    The picked, undecided, hungry and tight vertices are bitmasks passed
    down the recursion, with the number picked; the demand left and the
    slack of each vertex are integer arrays changed in place and restored
    on the way back.
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
    cover = nodes = 0
    budget = SEARCH_NODE_BUDGET

    def dfs(undecided: int, hungry: int, tight: int, outstanding: int,
            picked: int, size: int) -> None:
        nonlocal best, cover, nodes
        if best == lower:
            return
        if not hungry:
            # the pruning keeps every cover reached smaller than best
            cover = picked
            if below is None:
                best = size
            elif visit(picked):
                best = lower  # every open node returns at its next check
            return
        for reach, mask in reach_classes:
            if mask & undecided:
                break
        if size + (outstanding + reach - 1) // reach >= best:
            return
        if tight:
            # forced: every undecided neighbour of a tight vertex
            take = adj[(tight & -tight).bit_length() - 1] & undecided
            if size + take.bit_count() >= best:
                return
            nodes += 1
        elif below is None:
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
        else:
            # the lowest undecided vertex with a hungry neighbour; each
            # hungry vertex has an undecided neighbour, as its slack is >= 1
            rest = undecided
            while True:
                take = rest & -rest
                if adj[take.bit_length() - 1] & hungry:
                    break
                rest ^= take
            nodes += 2  # one per branch
        if nodes > budget:
            raise ValueError(f"cover search passed the {budget}-node budget")
        settled = []
        left = hungry
        rest = take
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
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
        dfs(undecided ^ take, left, tight & left, outstanding - len(settled),
            picked | take, size + take.bit_count())
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
        dfs(undecided ^ take, hungry, tight, outstanding, picked, size)
        hit = adj[u] & hungry
        while hit:
            low = hit & -hit
            hit ^= low
            slack[low.bit_length() - 1] += 1

    dfs((1 << len(adj)) - 1, hungry, tight, outstanding, 0, 0)
    del dfs  # dfs holds itself through its closure; unbound, the solve is freed at once
    return cover, nodes


# ---------------------------------------------------------------------------
# Signed parameters as covers
# ---------------------------------------------------------------------------


def _signed_demand(degrees: Sequence[int], param: str) -> tuple[int, list[int]]:
    """The label of the cover set M, -sign, and each vertex's demand on it,
    ceil((deg v - sign*bound) / 2)."""
    sign, cap = _sign_and_cap(param)
    return -sign, [(d - cap + 1) // 2 for d in degrees]


def _labelling(n: int, cover: int, label: int) -> tuple[int, ...]:
    """``label`` on the cover mask and ``-label`` on every other vertex."""
    labels = [-label] * n
    for v in _iter_bits(cover):
        labels[v] = label
    return tuple(labels)


def _signed_cover(g: Graph, param: str) -> ParameterResult:
    degrees = _require_positive_min_degree(g)
    label, demand = _signed_demand(degrees, param)
    cover, nodes = _cover_search(g, degrees, demand)
    return ParameterResult(label * (2 * cover.bit_count() - g.n),
                           _labelling(g.n, cover, label), nodes)


def istdn(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 0 everywhere."""
    return _signed_cover(g, "istdn")


def stdn(g: Graph) -> ParameterResult:
    """Minimum weight over labellings with f(N(v)) >= 1 everywhere."""
    return _signed_cover(g, "stdn")


def st2in(g: Graph) -> ParameterResult:
    """Maximum weight over labellings with f(N(v)) <= 1 everywhere."""
    return _signed_cover(g, "st2in")


def scan_maximum_istdfs(g: Graph, visit: Callable[[int], object], optimum: int) -> None:
    """Passes ``visit`` the minus sets of the labellings achieving
    ``optimum``, which must be istdn(g), as vertex masks, in the sorted
    order of the labellings, and stops at the first it returns true on.

    These are the minimum covers of the istdn demand, which the cover
    search visits in labelling order when its bound is pinned one above
    the minimum minus-set size.
    """
    degrees = _require_positive_min_degree(g)
    _, demand = _signed_demand(degrees, "istdn")
    _cover_search(g, degrees, demand, below=(g.n - optimum) // 2 + 1, visit=visit)


def enumerate_maximum_istdfs(g: Graph) -> list[tuple[int, ...]]:
    """All labellings achieving istdn(g), sorted, as the cover search
    visits them."""
    minus: list[int] = []
    scan_maximum_istdfs(g, minus.append, istdn(g).value)
    return [_labelling(g.n, m, -1) for m in minus]


# ---------------------------------------------------------------------------
# k-tuple total domination
# ---------------------------------------------------------------------------


def ktuple_chain(g: Graph, k: int) -> list[ParameterResult]:
    """Exact minima for tuple levels 1..k, one solve each, for the regular
    identities, whose notes print every level.  Level k comes first, from
    ktuple_total_domination, so k is checked before any solve."""
    top = ktuple_total_domination(g, k)
    return [ktuple_total_domination(g, level) for level in range(1, k)] + [top]


def ktuple_total_domination(g: Graph, k: int) -> ParameterResult:
    """Minimum size of a set D with |N(v) & D| >= k for every vertex v."""
    degrees = _require_positive_min_degree(g)
    delta = min(degrees)
    if not 1 <= k <= delta:
        raise ValueError(f"k must satisfy 1 <= k <= {delta}, got {k}")
    cover, nodes = _cover_search(g, degrees, [k] * g.n)
    # a list sizes the tuple exactly; tuple() of a generator shrinks a 10-slot
    # block, and such blocks, freed, fill the tuple free lists (+0.3 MB RSS)
    return ParameterResult(cover.bit_count(), tuple([*_iter_bits(cover)]), nodes)


def total_domination(g: Graph) -> ParameterResult:
    """Minimum size of a set D meeting every open neighbourhood (k = 1)."""
    return ktuple_total_domination(g, 1)
