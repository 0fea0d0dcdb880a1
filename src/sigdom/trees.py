"""Isomorph-free enumeration of free trees.

Each free tree is built exactly once, by the successor rule of Wright,
Richmond, Odlyzko and McKay ("Constant time generation of free trees",
SIAM J. Comput. 15(2), 1986) over level sequences rooted at a centre, so
nothing is generated twice and nothing is deduplicated.

The trees are not yielded with their centre-rooted labels.  Each one is
relabelled by its lexicographically largest canonical level sequence over
all rootings, which is always a rooting at a leaf, and the trees of one
order come out in descending order of that sequence.  These are the labels
and the order in which a scan of all rooted level sequences meets each free
tree first.  They are kept because the ``lemma42`` check's ``sharp`` flag
depends on vertex labels: relabelling the same trees changes the counts the
verification reports.  The counts are pinned to the published free-tree
census in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .graphs import Graph

MAX_TREE_ORDER = 16

#: bytes.translate table that adds one to every level.
_RAISE = bytes(range(1, 256)) + b"\xff"


def _edges_from_levels(levels: Sequence[int]) -> list[tuple[int, int]]:
    """Preorder level sequence -> parent edges."""
    stack: list[int] = []
    edges = []
    for v, depth in enumerate(levels):
        del stack[depth:]
        if stack:
            edges.append((stack[-1], v))
        stack.append(v)
    return edges


def _next_rooted(levels: list[int], p: int) -> list[int]:
    """The next canonical rooted level sequence after changing position p:
    with q the parent position of p, tile the suffix from p with copies of
    the segment [q..p-1] (Beyer and Hedetniemi)."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    nxt = levels[:p]
    for i in range(p, len(levels)):
        nxt.append(nxt[i - p + q])
    return nxt


def _split(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first branch, rooted at its top vertex, and the tree
    without that branch."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _centre_rooted_sequences(n: int) -> Iterator[list[int]]:
    """One canonical level sequence, rooted at a centre, per free tree on
    n >= 2 vertices (the WROM successor rule).

    A sequence is kept when no branch of the root is higher than the rest
    of the tree, and a tie in height is broken by size, then by sequence.
    Otherwise the rule jumps straight to the next sequence that may be kept.
    """
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        left, rest = _split(levels)
        lh, rh = max(left), max(rest)
        if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
            yield levels
            p = n - 1
            while levels[p] == 1:
                p -= 1
            if p == 0:
                return
            levels = _next_rooted(levels, p)
        else:
            p = len(left)
            nxt = _next_rooted(levels, p)
            if levels[p] > 2:
                h = max(_split(nxt)[0])
                nxt[-(h + 1):] = range(1, h + 2)
            levels = nxt


def _lex_max_rooting(levels: list[int]) -> bytes:
    """The lexicographically largest canonical level sequence of the tree
    over all rootings, as bytes.

    The largest one is rooted at a leaf.  Every directed edge's branch is
    built once, as [1] followed by the branches beyond it in descending
    order, each level +1: first the branches below each vertex, children
    before parents, whose children a canonical sequence already lists in
    descending order; then the branch above each vertex, parents before
    children, which sorts in the parent's own branch above.
    """
    n = len(levels)
    edges = _edges_from_levels(levels)  # (parent, child), children in preorder
    children: list[list[int]] = [[] for _ in range(n)]
    for p, v in edges:
        children[p].append(v)
    below = [b""] * n
    for _, v in reversed(edges):
        below[v] = b"\x01" + b"".join([below[c] for c in children[v]]).translate(_RAISE)
    above = [b""] * n
    for p, v in edges:
        parts = [below[c] for c in children[p] if c != v]
        if p:
            parts.append(above[p])
            parts.sort(reverse=True)
        above[v] = b"\x01" + b"".join(parts).translate(_RAISE)
    return b"\x00" + max(above[v] for v in range(1, n) if not children[v])


def free_trees(n: int) -> Iterator[Graph]:
    """One tree per isomorphism class of free trees on n vertices.

    Every class is generated once (WROM), relabelled by its lexicographically
    largest canonical level sequence over all rootings, and the order's
    trees are yielded in descending order of those sequences.  That fixes
    each tree's vertex labels, which label-dependent checks such as
    ``lemma42`` report on.  All trees of the order are built before the
    first is yielded.  Bounded at MAX_TREE_ORDER to keep exhaustive sweeps
    minutes-scale.
    """
    if not 1 <= n <= MAX_TREE_ORDER:
        raise ValueError(f"tree order must be in 1..{MAX_TREE_ORDER}, got {n}")
    if n == 1:
        yield Graph(1)
        return
    codes = sorted(map(_lex_max_rooting, _centre_rooted_sequences(n)), reverse=True)
    for code in codes:
        yield Graph(n, _edges_from_levels(code))
