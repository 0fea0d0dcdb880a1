"""Seeded inputs for the benchmark, built without importing sigdom.

Graphs are edge lists over vertices 0..n-1.  The graph6 coder here is the
benchmark's own, so the checker can decode the program's graph ids without
trusting the program's parser.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 short form (n <= 62): upper-triangle bits in column order."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form needs 0 <= n <= 62, got {n}")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in adj for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + sum(b << (5 - t) for t, b in enumerate(bits[k:k + 6]))))
    return "".join(out)


def decode_graph6(s: str) -> tuple[int, list[int]]:
    """Inverse of encode_graph6; returns (n, neighbour bitmask per vertex)."""
    if not s or not all(63 <= ord(c) <= 126 for c in s):
        raise ValueError(f"not a graph6 short-form record: {s!r}")
    n = ord(s[0]) - 63
    if n > 62:
        raise ValueError(f"graph6 long form is not supported: {s!r}")
    pairs = n * (n - 1) // 2
    if len(s) != 1 + -(-pairs // 6):
        raise ValueError(f"graph6 record has the wrong length: {s!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (ord(s[1 + k // 6]) - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj


def _connected(n: int, edges: Edges) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def random_regular(n: int, d: int, rng: random.Random) -> Edges:
    """Connected d-regular graph: configuration model, rejecting pairings
    with a loop or a repeated edge and disconnected results."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            edges = sorted(pairs)
            if _connected(n, edges):
                return edges


def random_gnp(n: int, p: float, rng: random.Random) -> Edges:
    """G(n, p) conditioned on being connected with minimum degree >= 2."""
    while True:
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) >= 2 and _connected(n, edges):
            return edges


def cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def heawood() -> Edges:
    """14-cycle plus the chords i -- i+5 for even i."""
    return cycle(14) + [(i, (i + 5) % 14) for i in range(0, 14, 2)]


def matched_multipartite(r: int) -> tuple[int, Edges]:
    """hr(r), order r^2(r-1): core blocks X_i (size r-1) pairwise joined,
    each X_i joined to its block Y_i (size (r-1)^2), and equal positions of
    Y_i and Y_j matched for every i < j."""
    xs, ys = r - 1, (r - 1) ** 2
    core = [range(i * xs, (i + 1) * xs) for i in range(r)]
    matched = [range(r * xs + i * ys, r * xs + (i + 1) * ys) for i in range(r)]
    edges = [(x, y) for i in range(r) for x in core[i] for y in matched[i]]
    for i in range(r):
        for j in range(i + 1, r):
            edges += [(x, x2) for x in core[i] for x2 in core[j]]
            edges += list(zip(matched[i], matched[j]))
    return r * xs + r * ys, edges


#: Builders of the panel's random graph classes.
CLASSES = {
    "cubic-24": lambda rng: (24, random_regular(24, 3, rng)),
    "cubic-30": lambda rng: (30, random_regular(30, 3, rng)),
    "quartic-22": lambda rng: (22, random_regular(22, 4, rng)),
    "quartic-24": lambda rng: (24, random_regular(24, 4, rng)),
    "gnp-22-0.25": lambda rng: (22, random_gnp(22, 0.25, rng)),
    "gnp-26-0.2": lambda rng: (26, random_gnp(26, 0.2, rng)),
}

#: Graphs drawn from the run's seed, per class.  Many mid-sized graphs keep
#: the search work nearly the same from seed to seed: on a single random
#: graph the search nodes vary by up to a factor of two between seeds
#: (coefficient of variation 0.16 to 0.47 per class over 30 seeds), while the
#: node total of this panel varies by about 2.5 % over ten seeds.
SEEDED = {"cubic-24": 4, "quartic-22": 4, "gnp-22-0.25": 4}

#: Graphs drawn once from a fixed stream, so every seed shares them: the
#: deep searches (st2in on a cubic n = 30 graph takes over a million nodes).
FIXED_DRAWN = ("cubic-30", "quartic-24", "gnp-26-0.2")


def _draw(name: str, stream: str) -> tuple[str, str]:
    n, edges = CLASSES[name](random.Random(stream))
    return name, encode_graph6(n, edges)


def panel(seed: int) -> list[tuple[str, str]]:
    """(class, graph6) of every panel graph for ``seed``.

    Each drawn graph comes from its own stream, so one graph never shifts
    another.  C_30, hr(3) and the Heawood graph carry closed forms or pinned
    values.
    """
    out = [_draw(name, f"panel:{seed}:{name}:{i}")
           for name, count in SEEDED.items() for i in range(count)]
    out += [_draw(name, f"panel:fixed:{name}") for name in FIXED_DRAWN]
    out.append(("cycle-30", encode_graph6(30, cycle(30))))
    out.append(("hr-3", encode_graph6(*matched_multipartite(3))))
    out.append(("heawood", encode_graph6(14, heawood())))
    return out


def shuffled_corpus(lines: list[str], seed: int) -> list[str]:
    """The corpus in a seeded order.

    Graphs keep their labelling: lemma42's sharp flag depends on which
    optimum the enumeration meets first, so relabelling would change the
    summary line that the checker pins.
    """
    out = list(lines)
    random.Random(f"corpus:{seed}").shuffle(out)
    return out
