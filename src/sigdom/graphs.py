"""Immutable bitset-backed simple graphs, exchange formats and basic invariants.

Vertices are always 0..n-1.  Adjacency is stored as one Python int bitmask per
vertex, so neighbourhood intersections and counts are cheap machine-word
operations; every search-heavy routine in the package leans on that.

Graph.__init__ checks every edge it is given; the graph6 reader builds the
masks straight from the payload and keeps the record's text as the graph id.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator


class GraphFormatError(ValueError):
    """A graph6 or edge-list record could not be decoded."""


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph: no loops, no multi-edges, immutable.

    ``adj[v]`` is the neighbour bitmask of vertex ``v``; ``m`` is the edge
    count.  ``graph6`` is the text of the graph6 record the graph was
    decoded from, header and whitespace removed, which is what write_graph6
    gives for it; a graph built from edges has None there.  Equality and
    hashing are vertex-for-vertex (labelled), not up to isomorphism.
    """

    __slots__ = ("n", "adj", "m", "graph6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
        self.adj = tuple(adj)
        self.m = m
        self.graph6 = None

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        # a list sizes the tuple exactly; tuple() of a map shrinks a 10-slot
        # block, and such blocks, freed, fill the tuple free lists
        return tuple([*map(int.bit_count, self.adj)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in _iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# graph6 exchange format (McKay short form, n <= 62)
# ---------------------------------------------------------------------------

_G6_HEADER_PREFIX = ">>graph6<<"
#: The most vertices a graph6 short-form record can carry.
GRAPH6_MAX_N = 62


def write_graph6(g: Graph) -> str:
    """Encode ``g`` in graph6 short form.

    Header byte 63+n, then the upper-triangle adjacency bits in column order
    (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
    offset by 63.
    """
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(
            f"graph6 short form supports at most {GRAPH6_MAX_N} vertices"
        )
    out = [chr(63 + g.n)]
    group = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + group))
                group = 0
                nbits = 0
    if nbits:
        group <<= 6 - nbits
        out.append(chr(63 + group))
    return "".join(out)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 short-form record (the inverse of write_graph6).

    The short form maps graphs one-to-one onto the records accepted here,
    so the record's text, header and whitespace removed, is the ``graph6``
    of the graph."""
    s = line.strip()
    if s.startswith(_G6_HEADER_PREFIX):
        s = s[len(_G6_HEADER_PREFIX):]
    if not s:
        raise GraphFormatError("empty graph6 record")
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise GraphFormatError(f"character {ch!r} outside graph6 alphabet")
    n = ord(s[0]) - 63
    if n == 63:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - 1 != need:
        raise GraphFormatError(
            f"graph6 payload for n={n} needs {need} bytes, got {len(s) - 1}"
        )
    # the payload as one integer, six bits per character, first bit highest
    bits = 0
    for ch in s[1:]:
        bits = bits << 6 | ord(ch) - 63
    padding = 6 * need - nbits
    if bits & ((1 << padding) - 1):
        raise GraphFormatError("nonzero padding bits in graph6 record")
    bits >>= padding
    m = bits.bit_count()
    # column order (0,1),(0,2),(1,2),(0,3),... as in write_graph6, so the
    # last column, j = n - 1, sits in the lowest j bits with row 0 highest
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        col = bits & ((1 << j) - 1)
        bits >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    # no edge decoded here can be out of range, a loop or a repeat, so
    # Graph.__init__ and its edge checks are skipped
    g = Graph.__new__(Graph)
    g.n, g.adj, g.m, g.graph6 = n, tuple(adj), m, s
    return g


def stream_graph6(
    lines: Iterable[str], source: str = "<stream>"
) -> Iterator[tuple[str, Graph]]:
    """Yield ``("source:line", graph)`` per non-blank graph6 line, with
    1-based line numbers; a malformed line raises with its location."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        try:
            yield where, parse_graph6(line)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc


def parse_edge_list(text: str) -> Graph:
    """Parse "n  u v  u v ..." (whitespace separated) into a Graph.

    Rejects out-of-range endpoints, self-loops, duplicate edges and, before
    anything is allocated for it, a vertex count above GRAPH6_MAX_N: every
    graph read has a graph6 id.
    """
    tokens = text.split()
    if not tokens:
        raise GraphFormatError("empty edge list")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise GraphFormatError(f"vertex count {tokens[0]!r} is not an integer") from exc
    if n < 0:
        raise GraphFormatError("vertex count must be non-negative")
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"vertex count {n} is above the graph6 limit {GRAPH6_MAX_N}")
    rest = tokens[1:]
    if len(rest) % 2:
        raise GraphFormatError("dangling endpoint: edges must come in pairs")
    edges = []
    for k in range(0, len(rest), 2):
        try:
            u, v = int(rest[k]), int(rest[k + 1])
        except ValueError as exc:
            raise GraphFormatError(f"bad endpoint near {rest[k]!r}") from exc
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    """Cycle with vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """Path with vertices 0..n-1 in path order."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """Complete bipartite graph; left block is 0..m-1, right block m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs m, n >= 1")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: centre 0 joined to 1..n-1."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# Degrees and connectivity
# ---------------------------------------------------------------------------


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("empty graph has no degrees")
    return min(g.degrees())


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("empty graph has no degrees")
    return max(g.degrees())


def is_regular(g: Graph) -> int | None:
    """The common degree r when the graph is r-regular, else None."""
    degs = g.degrees()
    if degs and min(degs) == max(degs):
        return degs[0]
    return None


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in _iter_bits(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    BFS from every vertex; the first non-tree edge seen from root s closes a
    cycle of length dist[u]+dist[v]+1, and the minimum over all roots is the
    girth.
    """
    best: int | None = None
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for v in g.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
    return best


# ---------------------------------------------------------------------------
# Maximum clique
# ---------------------------------------------------------------------------


def _greedy_color_bound(candidates: int, adj: tuple[int, ...]) -> list[tuple[int, int]]:
    """Greedy colouring of the candidate set.

    Returns (vertex, colour) pairs in colouring order; the colour of a vertex
    is an upper bound on the largest clique inside the candidates that
    contains it, which drives the branch-and-bound cut-off.
    """
    order: list[tuple[int, int]] = []
    color = 0
    rest = candidates
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, color))
            avail &= ~adj[v] & ~(1 << v)
            rest &= ~(1 << v)
    return order


def clique_number(g: Graph) -> int:
    """Size of a maximum clique, by branch-and-bound with a colouring bound."""
    if g.n == 0:
        return 0
    return _expand_clique(g.adj, 0, (1 << g.n) - 1, 1)


def _expand_clique(adj: tuple[int, ...], size: int, candidates: int, best: int) -> int:
    """The larger of ``best`` and ``size`` plus the largest clique among the
    candidates, all of which are adjacent to a clique of ``size`` vertices."""
    order = _greedy_color_bound(candidates, adj)
    local = candidates
    for v, color in reversed(order):
        if size + color <= best:
            return best
        bit = 1 << v
        if not local & bit:
            continue
        sub = local & adj[v]
        if size + 1 > best:
            best = size + 1
        if sub:
            best = _expand_clique(adj, size + 1, sub, best)
        local &= ~bit
    return best
