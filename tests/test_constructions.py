import functools
import operator

import networkx as nx
import pytest

from sigdom.constructions import (
    build_heawood,
    build_matched_multipartite,
    build_prescribed_weight_tree,
    floor_family_membership,
    leaf_floor,
    tree_structure,
)
from sigdom.graphs import (
    Graph,
    clique_number,
    cycle_graph,
    girth,
    is_connected,
    is_regular,
    is_tree,
    min_degree,
    path_graph,
    star_graph,
)
from sigdom.solvers import is_feasible, istdn, recheck_witness
from sigdom.trees import free_trees
from sigdom.verification import evaluate_check


def leaves(t: Graph) -> frozenset[int]:
    return frozenset(v for v in range(t.n) if t.degree(v) == 1)


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def group_sizes(ts) -> tuple[int, ...]:
    """The leaf group sizes, in increasing order of their supports."""
    return tuple(group.bit_count() for group in ts.leaf_groups.values())


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centres 0,1 with a and b leaves respectively."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph(2 + a + b, edges)


# ---------------------------------------------------------------------------
# tree_structure
# ---------------------------------------------------------------------------


def test_tree_structure_star():
    ts = tree_structure(star_graph(5))
    assert tuple(ts.leaf_groups) == (0,)
    assert group_sizes(ts) == (4,)
    assert leaves(ts.tree) == {1, 2, 3, 4}
    assert ts.support_degree == 0
    assert ts.outsiders == 0


def test_tree_structure_path4():
    ts = tree_structure(path_graph(4))
    assert tuple(ts.leaf_groups) == (1, 2)
    assert group_sizes(ts) == (1, 1)
    assert ts.support_degree == 1
    assert ts.leaf_groups[1] == 0b0001 and ts.leaf_groups[2] == 0b1000


def test_tree_structure_double_star():
    ts = tree_structure(double_star(2, 2))
    assert len(ts.leaf_groups) == 2
    assert group_sizes(ts) == (2, 2)
    assert ts.support_degree == 1


def test_tree_structure_two_vertex_path():
    ts = tree_structure(path_graph(2))
    assert set(ts.leaf_groups) == {0, 1}
    assert leaves(ts.tree) == {0, 1}
    assert group_sizes(ts) == (1, 1)


def test_tree_structure_leaf_partition():
    for n in range(2, 9):
        for t in free_trees(n):
            ts = tree_structure(t)
            assert sum(group_sizes(ts)) == len(leaves(t))
            leaf_mask = mask(leaves(t))
            assert functools.reduce(operator.or_, ts.leaf_groups.values()) == leaf_mask
            # each support's group is the mask of its degree-1 neighbours, and
            # the supports are exactly the vertices that have one, in order
            groups = {v: mask(u for u in t.neighbors(v) if t.degree(u) == 1)
                      for v in range(n)}
            assert list(ts.leaf_groups.items()) == [(v, g) for v, g in groups.items() if g]
            # leaves, supports and outsiders partition the vertices; only in
            # the two-vertex path is each leaf also a support
            supports = mask(ts.leaf_groups)
            assert leaf_mask | supports | ts.outsiders == (1 << n) - 1
            assert ts.outsiders & (leaf_mask | supports) == 0
            assert leaf_mask & supports == (leaf_mask if n == 2 else 0)


def test_tree_structure_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_structure(cycle_graph(4))
    with pytest.raises(ValueError):
        tree_structure(Graph(1))


# ---------------------------------------------------------------------------
# Layered multipartite construction
# ---------------------------------------------------------------------------


def hr_blocks(r: int) -> tuple[list[range], list[range]]:
    """The core blocks X_1..X_r and matched blocks Y_1..Y_r of hr(r), read
    from the builder's documented numbering: X_1..X_r first, in blocks of
    r-1, then Y_1..Y_r, in blocks of (r-1)^2."""
    xs, ys = r - 1, (r - 1) ** 2
    core = [range(i * xs, (i + 1) * xs) for i in range(r)]
    matched = [range(r * xs + i * ys, r * xs + (i + 1) * ys) for i in range(r)]
    return core, matched


@pytest.mark.parametrize("r", [2, 3, 4])
def test_matched_multipartite_invariants(r):
    g = build_matched_multipartite(r)
    core_blocks, matched_blocks = hr_blocks(r)
    # colour class i is X_i together with Y_{i+1 mod r}
    color_classes = [[*core_blocks[i], *matched_blocks[(i + 1) % r]] for i in range(r)]
    assert g.n == r * r * (r - 1)
    assert min_degree(g) == 2 * r - 2
    assert clique_number(g) == r
    assert is_connected(g)
    # colour classes partition the vertices and are independent
    seen = set()
    for cls in color_classes:
        for v in cls:
            assert v not in seen
            seen.add(v)
        for i, u in enumerate(cls):
            for v in cls[i + 1:]:
                assert not g.has_edge(u, v)
    assert len(seen) == g.n
    # matched blocks: exactly r-1 neighbours outside the own gadget
    own = {}
    for i, block in enumerate(matched_blocks):
        for v in block:
            own[v] = i
    for i, block in enumerate(matched_blocks):
        for v in block:
            outside = sum(
                1 for u in g.neighbors(v) if u in own and own[u] != i
            )
            assert outside == r - 1
            assert g.degree(v) == 2 * r - 2
    for block in core_blocks:
        for v in block:
            assert g.degree(v) == 2 * (r - 1) ** 2


@pytest.mark.parametrize("r", [2, 3, 4])
def test_matched_multipartite_canonical_labelling(r):
    g = build_matched_multipartite(r)
    core_blocks, _ = hr_blocks(r)
    # -1 on the r(r-1) core vertices, +1 on every matched vertex
    core = {v for block in core_blocks for v in block}
    assert len(core) == r * (r - 1)
    f = tuple(-1 if v in core else 1 for v in range(g.n))
    assert len(f) == g.n and set(f) <= {-1, 1}
    assert is_feasible(g, f, "istdn")
    assert sum(f) == r * (r - 1) ** 2 - r * (r - 1)


def test_matched_multipartite_r2_is_four_cycle():
    g = build_matched_multipartite(2)
    assert g.n == 4 and is_regular(g) == 2 and is_connected(g)
    assert girth(g) == 4


def test_matched_multipartite_rejects_small_r():
    with pytest.raises(ValueError):
        build_matched_multipartite(1)


# ---------------------------------------------------------------------------
# The cubic exception graph
# ---------------------------------------------------------------------------


def test_heawood_properties():
    g = build_heawood()
    assert g.n == 14 and g.m == 21
    assert is_regular(g) == 3
    assert nx.is_bipartite(nx.Graph(g.edges()))
    assert girth(g) == 6
    assert is_connected(g)


# ---------------------------------------------------------------------------
# Prescribed-weight trees
# ---------------------------------------------------------------------------


def test_prescribed_weight_tree_orders():
    assert build_prescribed_weight_tree(0) == path_graph(4)
    assert build_prescribed_weight_tree(3).n == 13
    assert build_prescribed_weight_tree(-2).n == 18
    for k in range(-4, 5):
        assert is_tree(build_prescribed_weight_tree(k))


# every k whose tree fits graph6: n = -9k = 54 at k = -6, n = 3k + 4 = 61 at k = 19
@pytest.mark.parametrize("k", range(-6, 20))
def test_prescribed_weight_tree_reaches_value(k):
    t = build_prescribed_weight_tree(k)
    assert recheck_witness(t, "istdn", istdn(t)).value == k
    assert evaluate_check("t43", t).holds


# ---------------------------------------------------------------------------
# Leaf floor and its family
# ---------------------------------------------------------------------------


def test_leaf_floor_values():
    assert leaf_floor(tree_structure(star_graph(5))) == -1
    assert leaf_floor(tree_structure(path_graph(4))) == -4
    assert leaf_floor(tree_structure(double_star(2, 2))) == -2
    assert leaf_floor(tree_structure(path_graph(2))) == -2


def test_family_membership_examples():
    member, why = floor_family_membership(tree_structure(path_graph(2)))
    assert member and "(a)" in why
    member, why = floor_family_membership(tree_structure(star_graph(6)))
    assert member and "b2.i" in why
    member, why = floor_family_membership(tree_structure(path_graph(4)))
    assert not member and "(a)" in why
    member, why = floor_family_membership(tree_structure(double_star(2, 2)))
    assert member and "b1" in why
    member, why = floor_family_membership(tree_structure(double_star(2, 3)))
    assert not member and "b1" in why  # odd leaf group


def test_family_membership_outsider_clauses():
    # two supports with two leaves each, joined through one outsider: member
    broom_pair = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])
    member, why = floor_family_membership(tree_structure(broom_pair))
    assert member and "b2.ii" in why
    assert istdn(broom_pair).value == leaf_floor(tree_structure(broom_pair))

    # support touching two outsiders: not a member
    two_out = Graph(
        11,
        [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (5, 6), (5, 7), (4, 8), (8, 9), (8, 10)],
    )
    member, why = floor_family_membership(tree_structure(two_out))
    assert not member and "b2.ii" in why

    # outsider with no support neighbour: not a member
    long_middle = Graph(
        9, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)]
    )
    member, why = floor_family_membership(tree_structure(long_middle))
    assert not member and "b2.ii" in why


def test_family_membership_matches_equality_small():
    for n in range(2, 10):
        for t in free_trees(n):
            ts = tree_structure(t)
            member, _ = floor_family_membership(ts)
            tight = istdn(t).value == leaf_floor(ts)
            assert member == tight, f"mismatch on n={n} tree"
