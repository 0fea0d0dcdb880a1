"""Extremal constructions and the structural tree family behind the leaf
floor bound.

Everything here is a pure constructor or a pure recognizer.  Every builder
returns a plain Graph, so it can be written straight to graph6; the tree
decomposition is a NamedTuple.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, is_tree


# ---------------------------------------------------------------------------
# Leaf / support decomposition of a tree
# ---------------------------------------------------------------------------


class TreeStructure(NamedTuple):
    """Support vertices and per-support leaf groups of a tree, as vertex masks.

    ``tree`` is the tree itself; ``leaf_groups`` maps each support vertex
    v, in increasing order, to the mask of its leaf group L_v;
    ``support_degree`` is the maximum degree of the subgraph induced on the
    supports; ``outsiders`` is the mask of the vertices that are neither
    leaves nor supports.
    """

    tree: Graph
    leaf_groups: dict[int, int]
    support_degree: int
    outsiders: int


def tree_structure(t: Graph) -> TreeStructure:
    """Decompose a tree on >= 2 vertices into its supports S, the leaf group
    L_v of each, and the maximum degree of the subgraph induced on S."""
    if t.n < 2 or not is_tree(t):
        raise ValueError("input must be a tree on at least 2 vertices")
    leaves = sum(1 << v for v in range(t.n) if t.degree(v) == 1)
    groups = {v: a & leaves for v, a in enumerate(t.adj) if a & leaves}
    supports = sum(1 << v for v in groups)
    support_degree = max((t.adj[v] & supports).bit_count() for v in groups)
    outsiders = ((1 << t.n) - 1) & ~supports & ~leaves
    return TreeStructure(t, groups, support_degree, outsiders)


def leaf_floor(ts: TreeStructure) -> int:
    """The lower bound -n + 2 * sum_i floor(l_i / 2) from the leaf groups."""
    return -ts.tree.n + 2 * sum(group.bit_count() // 2 for group in ts.leaf_groups.values())


def floor_family_membership(ts: TreeStructure) -> tuple[bool, str]:
    """Whether the tree belongs to the family attaining the leaf floor.

    Conditions, writing T' for the induced subgraph on supports:
      (a)  every support has at least 2 leaves, or T is the 2-vertex path
           (which is admitted outright);
      (b)  max degree of T' is at most 1;
      (b1) if T' has an edge: every vertex is a leaf or a support, and every
           leaf group is even;
      (b2) if T' is edgeless: T is a star, or every support touches exactly
           one outsider, every outsider touches a support, and every leaf
           group is even.

    Returns (member, reason); on failure the reason names the clause.
    """
    if ts.tree.n == 2:
        return True, "two-vertex path admitted by clause (a)"
    small = [v for v, group in ts.leaf_groups.items() if group.bit_count() < 2]
    if small:
        return False, f"fails (a): support {small[0]} has fewer than 2 leaves"
    if ts.support_degree > 1:
        return False, "fails (b): two supports share a support neighbour"
    odd = [v for v, group in ts.leaf_groups.items() if group.bit_count() % 2]
    if ts.support_degree == 1:
        if ts.outsiders:
            return False, "fails (b1): vertex that is neither leaf nor support"
        if odd:
            return False, f"fails (b1): support {odd[0]} has an odd leaf group"
        return True, "adjacent support pair with even leaf groups (b1)"
    if len(ts.leaf_groups) == 1:
        return True, "star (b2.i)"
    adj = ts.tree.adj
    for v in ts.leaf_groups:
        out_nbrs = (adj[v] & ts.outsiders).bit_count()
        if out_nbrs != 1:
            return False, (
                f"fails (b2.ii): support {v} touches {out_nbrs} outsiders"
            )
    supports = sum(1 << v for v in ts.leaf_groups)
    for u in range(ts.tree.n):
        if ts.outsiders >> u & 1 and not adj[u] & supports:
            return False, f"fails (b2.ii): outsider {u} has no support neighbour"
    if odd:
        return False, f"fails (b2.ii): support {odd[0]} has an odd leaf group"
    return True, "isolated supports with even leaf groups (b2.ii)"


# ---------------------------------------------------------------------------
# Layered multipartite sharpness construction
# ---------------------------------------------------------------------------


def build_matched_multipartite(r: int) -> Graph:
    """hr(r): the r-partite graph of order r^2(r-1) built from r
    complete-bipartite gadgets, for a given r >= 2.

    Gadget i joins the core block X_i (size r-1) completely to the matched
    block Y_i (size (r-1)^2).  Core blocks are pairwise completely joined;
    matched blocks carry one perfect matching between every pair, so each
    Y-vertex has exactly r-1 neighbours outside its own gadget.  Colour
    class i is X_i together with Y_{i+1 mod r}.  -1 on the r(r-1) core
    vertices and +1 on the rest is feasible for istdn, with weight
    r(r-1)^2 - r(r-1).

    Vertex numbering: X_1..X_r first (blocks of size r-1), then Y_1..Y_r
    (blocks of size (r-1)^2).  The cross matchings identify equal indices
    within Y-blocks, which meets the degree requirement, keeps the graph
    r-partite, and happens to make it connected.
    """
    if r < 2:
        raise ValueError("construction needs r >= 2")
    xs = r - 1
    ys = (r - 1) ** 2
    core = tuple(
        tuple(range(i * xs, (i + 1) * xs)) for i in range(r)
    )
    base = r * xs
    matched = tuple(
        tuple(range(base + i * ys, base + (i + 1) * ys)) for i in range(r)
    )
    edges = []
    for i in range(r):
        for x in core[i]:
            for y in matched[i]:
                edges.append((x, y))
    for i in range(r):
        for j in range(i + 1, r):
            for x in core[i]:
                for x2 in core[j]:
                    edges.append((x, x2))
            for t in range(ys):
                edges.append((matched[i][t], matched[j][t]))
    return Graph(r * xs + r * ys, edges)


# ---------------------------------------------------------------------------
# The 14-vertex cubic exception
# ---------------------------------------------------------------------------


def build_heawood() -> Graph:
    """The 14-vertex cubic bipartite graph of girth 6.

    A 14-cycle plus the chord i -- i+5 (mod 14) for every even i.  Order,
    degree and girth alone pin it down: it is the unique (3,6)-cage.
    """
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph(14, edges)


# ---------------------------------------------------------------------------
# Trees with a prescribed optimum weight
# ---------------------------------------------------------------------------


def build_prescribed_weight_tree(k: int) -> Graph:
    """A tree whose maximum inverse-signed weight equals k, any integer k.

    k = 0:  the 4-vertex path.
    k >= 1: a path on k+4 vertices with two extra leaves hung on each of the
            k interior vertices 3..k+2 (1-based), order 3k+4.
    k <= -1: |k| spiders (a 3-path with two leaves on each vertex), their
            middle vertices joined in a path, order 9|k|.
    """
    if k == 0:
        return Graph(4, [(0, 1), (1, 2), (2, 3)])
    if k > 0:
        spine = k + 4
        edges = [(i, i + 1) for i in range(spine - 1)]
        nxt = spine
        for i in range(2, k + 2):  # 0-based spine positions 2..k+1
            edges += [(i, nxt), (i, nxt + 1)]
            nxt += 2
        return Graph(3 * k + 4, edges)
    m = -k
    edges = []
    for i in range(m):
        b = 9 * i  # spider i occupies b..b+8: path b,b+1,b+2 then leaf pairs
        edges += [(b, b + 1), (b + 1, b + 2)]
        nxt = b + 3
        for j in range(3):
            edges += [(b + j, nxt), (b + j, nxt + 1)]
            nxt += 2
    for i in range(m - 1):
        edges.append((9 * i + 1, 9 * (i + 1) + 1))  # join middle vertices
    return Graph(9 * m, edges)
