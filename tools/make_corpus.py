#!/usr/bin/env python3
"""Regenerate the bundled graph6 corpora under data/.

Produces, deduplicated up to isomorphism and census-checked:

  connected_upto8.g6   every connected graph on 2..8 vertices
  cubic_upto10.g6      every connected 3-regular graph on 4..10 vertices
  quartic_5to9.g6      every connected 4-regular graph on 5..9 vertices

Isomorph rejection uses the lexicographically least adjacency encoding,
found by a pruned depth-first search over vertex orderings.  Each corpus is
the closure of one graph under a move: connected graphs grow from K1 one
vertex at a time, regular ones from one regular graph by edge switches.
All counts are asserted against the published censuses before anything is
written, so a bug here cannot silently ship a wrong corpus.  Runtime is
about 90 s on 2 cores, all but 7 s of it the connected graphs.
"""

from __future__ import annotations

import random
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from itertools import combinations, permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sigdom.graphs import Graph, is_connected, parse_graph6, write_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CUBIC_CONNECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}
QUARTIC_CONNECTED_COUNTS = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def canonical_graph6(g: Graph) -> str:
    """graph6 of the relabelling that minimises the adjacency bit string.

    Positions are filled depth-first; a partial ordering is cut as soon as
    its next adjacency column exceeds the incumbent's, and candidates are
    tried in ascending column order so the first leaf is already greedy-min.
    Candidate columns are maintained incrementally (shift in one bit per
    newly placed vertex).
    """
    n = g.n
    if n <= 1:
        return write_graph6(g)
    adj = g.adj
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    cur_cols: list[int] = []
    placed: list[int] = []
    version = 0

    def dfs(i: int, eq: bool, cols: dict[int, int]) -> None:
        nonlocal best_cols, best_perm, version
        if i == n:
            # arriving non-eq means strictly smaller than the incumbent
            if best_cols is None or not eq:
                best_cols = cur_cols.copy()
                best_perm = placed.copy()
                version += 1
            return
        cands = sorted((col, v) for v, col in cols.items())
        my_eq = eq
        my_version = version
        for col, v in cands:
            if best_cols is not None and my_eq:
                bound = best_cols[i]
                if col > bound:
                    break
                child_eq = col == bound
            else:
                child_eq = False
            placed.append(v)
            cur_cols.append(col)
            child_cols = {
                w: c << 1 | (adj[w] >> v & 1) for w, c in cols.items() if w != v
            }
            dfs(i + 1, child_eq, child_cols)
            cur_cols.pop()
            placed.pop()
            if version != my_version:
                # the incumbent now extends our own prefix
                my_version = version
                my_eq = True

    dfs(0, False, {v: 0 for v in range(n)})
    assert best_perm is not None
    pos = [0] * n
    for p, v in enumerate(best_perm):
        pos[v] = p
    return write_graph6(Graph(n, [(pos[u], pos[v]) for u, v in g.edges()]))


def _brute_canonical_graph6(g: Graph) -> str:
    best = None
    for perm in permutations(range(n := g.n)):
        relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        s = write_graph6(relabelled)
        if best is None or s < best:
            best = s
    return best


def self_test(trials: int = 120) -> None:
    rng = random.Random(20240311)
    for _ in range(trials):
        n = rng.randint(1, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random()]
        g = Graph(n, edges)
        fast = canonical_graph6(g)
        slow = _brute_canonical_graph6(g)
        assert fast == slow, f"canonical mismatch on {write_graph6(g)}: {fast} != {slow}"
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_graph6(h) == fast, "canonical form not relabelling-invariant"


# ---------------------------------------------------------------------------
# Every corpus is the closure of one graph under a move
# ---------------------------------------------------------------------------


def _closure(start: Graph, moves: Callable[[Graph], Iterable[Graph]]) -> list[str]:
    """Sorted canonical graph6 of every graph reachable from ``start``.

    A breadth-first search: ``moves(g)`` yields the graphs one step from g,
    and each is queued only if its exact ``canonical_graph6`` is new.
    """
    seen = {canonical_graph6(start)}
    queue = list(seen)
    for g6 in queue:  # grows while it is read: breadth-first
        for h in moves(parse_graph6(g6)):
            c = canonical_graph6(h)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return sorted(seen)


def connected_corpus(n_max: int = 8) -> dict[int, list[str]]:
    """All connected graphs per order, canonical graph6, census-checked.

    Deleting a leaf of a spanning tree leaves a connected graph, so every
    connected graph on k + 1 vertices is a connected graph on k vertices
    plus one vertex joined to a non-empty subset.  Growing connected graphs
    only, from K1, therefore reaches every class.
    """
    def grow(g: Graph) -> Iterator[Graph]:
        if g.n == n_max:
            return
        edges = list(g.edges())
        for subset in range(1, 1 << g.n):
            yield Graph(g.n + 1, edges + [(v, g.n) for v in range(g.n) if subset >> v & 1])

    levels: dict[int, list[str]] = {n: [] for n in range(1, n_max + 1)}
    for g6 in _closure(Graph(1), grow):
        levels[parse_graph6(g6).n].append(g6)
    for n, graphs in levels.items():
        assert len(graphs) == CONNECTED_COUNTS[n], f"connected census mismatch at n={n}: {len(graphs)}"
    del levels[1]
    return levels


def regular_corpus(n: int, r: int, expected: int) -> list[str]:
    """Canonical graph6 of every connected r-regular graph on n vertices.

    A 2-switch replaces edges a-b, c-d by a-x, b-y with {x, y} = {c, d};
    it keeps every degree, and any two graphs with one degree sequence are
    joined by a chain of them (Hakimi 1962).  So a breadth-first search over
    switches from one r-regular graph, deduplicated by ``canonical_graph6``,
    reaches every class.  Disconnected classes are searched too, since the
    chain may pass through them, and dropped at the end; the count of the
    connected ones is checked against the published census ``expected``.
    """
    if n * r % 2 or r >= n:
        raise ValueError(f"no {r}-regular graphs on {n} vertices")
    # the circulant C_n(1..r//2), plus the matching i-(i+n/2) when r is odd
    edges = [(v, (v + j) % n) for v in range(n) for j in range(1, r // 2 + 1)]
    if r % 2:
        edges += [(v, v + n // 2) for v in range(n // 2)]

    def switches(g: Graph) -> Iterator[Graph]:
        edges = list(g.edges())
        for (a, b), (c, d) in combinations(edges, 2):
            for x, y in ((c, d), (d, c)):
                if len({a, b, x, y}) < 4 or g.has_edge(a, x) or g.has_edge(b, y):
                    continue
                kept = [e for e in edges if e != (a, b) and e != (c, d)]
                yield Graph(n, kept + [(a, x), (b, y)])

    reached = _closure(Graph(n, edges), switches)
    classes = [s for s in reached if is_connected(parse_graph6(s))]
    assert len(classes) == expected, (
        f"{r}-regular census mismatch at n={n}: found {len(classes)} "
        f"connected classes among {len(reached)}, expected {expected}"
    )
    return classes


def main() -> int:
    t0 = time.time()
    print("self-testing canonical form ...", flush=True)
    self_test()
    DATA_DIR.mkdir(exist_ok=True)

    print("enumerating connected graphs up to n=8 ...", flush=True)
    conn = connected_corpus(8)
    lines = [g6 for n in sorted(conn) for g6 in conn[n]]
    (DATA_DIR / "connected_upto8.g6").write_text("\n".join(lines) + "\n")
    print(f"  {len(lines)} graphs  ({time.time() - t0:.0f}s)", flush=True)

    for name, r, counts in (("cubic_upto10", 3, CUBIC_CONNECTED_COUNTS),
                            ("quartic_5to9", 4, QUARTIC_CONNECTED_COUNTS)):
        print(f"enumerating connected {r}-regular graphs on {min(counts)}..{max(counts)} "
              "vertices ...", flush=True)
        lines = []
        for n, expected in counts.items():
            got = regular_corpus(n, r, expected)
            lines += got
            print(f"  n={n}: {len(got)}  ({time.time() - t0:.0f}s)", flush=True)
        (DATA_DIR / f"{name}.g6").write_text("\n".join(lines) + "\n")

    print(f"done in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
