"""Independent brute-force oracles used to pin expected values in tests.

Everything here enumerates exhaustively and never touches the package's
branch-and-bound code paths, so solver bugs cannot hide behind shared
logic.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from sigdom.graphs import Graph


def brute_signed(g: Graph, sense: str, bound: int, maximize: bool):
    """Optimum over all 2^n labellings plus the number of optima."""
    n = g.n
    nbrs = [list(g.neighbors(v)) for v in range(n)]
    best = None
    count = 0
    for vals in product((1, -1), repeat=n):
        ok = True
        for v in range(n):
            s = sum(vals[u] for u in nbrs[v])
            if sense == "le":
                if s > bound:
                    ok = False
                    break
            elif s < bound:
                ok = False
                break
        if not ok:
            continue
        w = sum(vals)
        if best is None or (maximize and w > best) or (not maximize and w < best):
            best = w
            count = 1
        elif w == best:
            count += 1
    return best, count


def brute_cover(g: Graph, demand) -> tuple[int, set[frozenset[int]]]:
    """Smallest |S| with |N(v) & S| >= demand[v] for all v, and every S of
    that size, by subset sweep."""
    n = g.n
    for size in range(n + 1):
        found = set()
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if all((g.adj[v] & mask).bit_count() >= demand[v] for v in range(n)):
                found.add(frozenset(subset))
        if found:
            return size, found
    raise AssertionError("no feasible set; a demand exceeds its degree")


def brute_ktuple(g: Graph, k: int) -> int:
    """Smallest |D| with |N(v) & D| >= k for all v, by subset sweep."""
    return brute_cover(g, [k] * g.n)[0]


def brute_lemma42(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """lemma42's scan on a tree, from every minimum cover of the istdn
    demand ceil(deg v / 2): (shortfall, the optimum it keeps, the optima
    it read).

    The optima are the labellings with -1 on such a cover, sorted.  An
    optimum's shortfall is the least, over supports, of its +1 leaves minus
    half the support's leaves.  The scan keeps the first optimum with the
    largest shortfall seen and stops at the first whose shortfall is >= 0,
    so the result depends on vertex labels, as lemma42's does.
    """
    n = g.n
    _, covers = brute_cover(g, [(d + 1) // 2 for d in g.degrees()])
    optima = sorted(tuple(-1 if v in c else 1 for v in range(n)) for c in covers)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if g.degree(v) == 1:
            groups.setdefault(next(iter(g.neighbors(v))), []).append(v)
    best = None
    for read, f in enumerate(optima, 1):
        shortfall = min(
            sum(1 for u in group if f[u] == 1) - len(group) // 2 for group in groups.values()
        )
        if best is None or shortfall > best[0]:
            best = shortfall, f
        if best[0] >= 0:
            break
    return (*best, read)


def brute_clique(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return 0


def random_connected_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """A random connected graph with minimum degree >= 1 (rejection sampled)."""
    while True:
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(0.25, 0.7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if g.m and min(g.degrees()) >= 1 and _connected(g):
            return g


def random_multipartite_graph(rng: random.Random, n: int, r: int, p: float) -> Graph:
    """A random r-partite graph, so one with no (r+1)-clique: each vertex
    draws its part, and each pair in different parts is an edge with
    probability p."""
    part = [rng.randrange(r) for _ in range(n)]
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                     if part[u] != part[v] and rng.random() < p])


def _connected(g: Graph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def free_trees_by_rooted_scan(n: int):
    """Free trees on n >= 1 vertices by scanning every rooted tree.

    Walks all canonical rooted level sequences in descending lexicographic
    order and keeps the first one of each free tree, recognised by a
    canonical code rooted at its centroid(s).  Yields ``Graph``s labelled in
    preorder of the kept sequence.  Slow (every rooted tree is visited) but
    shares no code with ``sigdom.trees``.
    """
    if n == 1:
        yield Graph(1)
        return
    seen = set()
    levels = list(range(n))
    while True:
        edges = []
        stack = []
        for v, depth in enumerate(levels):
            del stack[depth:]
            if stack:
                edges.append((stack[-1], v))
            stack.append(v)
        neighbors = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        code = _centroid_code(n, neighbors)
        if code not in seen:
            seen.add(code)
            yield Graph(n, edges)
        # successor: last position p with depth >= 2, its parent position q,
        # then tile the suffix with copies of the segment [q..p-1]
        p = max((i for i in range(n) if levels[i] >= 2), default=-1)
        if p < 0:
            return
        q = next(i for i in range(p - 1, -1, -1) if levels[i] == levels[p] - 1)
        chunk = levels[q:p]
        nxt = levels[:p]
        while len(nxt) < n:
            nxt.extend(chunk[: n - len(nxt)])
        levels = nxt


def _centroid_code(n: int, neighbors: list[list[int]]) -> tuple:
    """Isomorphism code of a free tree: its nested-tuple rooted code at the
    centroid, or the sorted pair of half-codes at two centroids."""
    order, parent = [0], [-1] * n
    for u in order:
        for v in neighbors[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    size, heaviest = [1] * n, [0] * n
    for u in reversed(order):
        for v in neighbors[u]:
            if v != parent[u]:
                size[u] += size[v]
                heaviest[u] = max(heaviest[u], size[v])
        heaviest[u] = max(heaviest[u], n - size[u])
    best = min(heaviest)
    cents = [v for v in range(n) if heaviest[v] == best]

    def rooted(root: int, block: int) -> tuple:
        return tuple(sorted(rooted(v, root) for v in neighbors[root] if v != block))

    if len(cents) == 1:
        return ("c", rooted(cents[0], -1))
    a, b = cents
    return ("cc", *sorted((rooted(a, b), rooted(b, a))))
