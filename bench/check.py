"""Independent checks of the program's output records.

Nothing here imports sigdom: graph ids are decoded with the benchmark's own
graph6 coder, witnesses are re-checked against the decoded adjacency, and
trees are compared by the benchmark's own canonical form.  A record fails if
it is missing, wrong, or came from an invocation that exited non-zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from panel import decode_graph6

CHECK_IDS = (
    "t22",
    "turan",
    "regular_identities",
    "regular_bounds",
    "cubic",
    "lemma42",
    "t43",
)

#: Free trees on n = 2..14 vertices (OEIS A000055).
TREE_CENSUS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551, 13: 1301, 14: 3159}

#: Closed forms the panel must reproduce: istdn(C_30) and istdn(hr(3)).
CLOSED_FORMS = {("cycle-30", "istdn"): -2, ("hr-3", "istdn"): 6}

#: Per-vertex constraint on f(N(v)) for the signed parameters.
SIGNED = {
    "istdn": lambda s: s <= 0,
    "stdn": lambda s: s >= 1,
    "st2in": lambda s: s <= 1,
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(why)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: 5 - len(self.problems)]


@dataclass
class Output:
    """What one invocation left behind."""

    returncode: int
    lines: list[str]


def _json(line: str) -> dict | None:
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


# ---------------------------------------------------------------------------
# verify --suite all
# ---------------------------------------------------------------------------


def _tree_code(n: int, adj: list[int]) -> str | None:
    """Canonical string of a free tree (centre-rooted AHU code), or None if
    the graph is not a tree."""
    nbrs = [[v for v in range(n) if adj[u] >> v & 1] for u in range(n)]
    if sum(map(len, nbrs)) != 2 * (n - 1):
        return None
    degree = [len(x) for x in nbrs]
    layer = [v for v in range(n) if degree[v] <= 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for u in layer:
            for v in nbrs[u]:
                degree[v] -= 1
                if degree[v] == 1:
                    nxt.append(v)
        removed += len(nxt)
        if not nxt:
            return None
        layer = nxt

    def code(u: int, parent: int) -> str:
        return "(" + "".join(sorted(code(v, u) for v in nbrs[u] if v != parent)) + ")"

    if len(layer) == 1:
        out = code(layer[0], -1)
    elif len(layer) == 2:
        a, b = layer
        out = "".join(sorted((code(a, b), code(b, a))))
    else:
        return None
    return out if out.count("(") == n else None


def check_verify(out: Output, summary: dict, graphs: list[str] | None = None,
                 census: dict[int, int] | None = None) -> Tally:
    """Seven passing reports per graph in CHECK_IDS order, then the pinned
    summary line.  ``graphs`` fixes the graph ids in order; ``census``
    instead fixes how many pairwise non-isomorphic trees of each order the
    ids must cover, in ascending order."""
    if graphs is None:
        orders = [n for n, count in sorted(census.items()) for _ in range(count)]
    else:
        orders = [None] * len(graphs)
    k = len(CHECK_IDS)
    tally = Tally()
    seen: set[str] = set()
    for j, order in enumerate(orders):
        group = [_json(line) for line in out.lines[j * k:(j + 1) * k]] if out.returncode == 0 else []
        group += [None] * (k - len(group))
        gid = graphs[j] if graphs is not None else (group[0] or {}).get("graph_id")
        graph_ok = out.returncode == 0 and isinstance(gid, str)
        if graph_ok and order is not None:
            try:
                n, adj = decode_graph6(gid)
            except ValueError:
                n, adj = -1, []
            code = _tree_code(n, adj) if n == order else None
            graph_ok = code is not None and code not in seen
            seen.add(code)
        for i, rec in enumerate(group):
            ok = (
                graph_ok
                and rec is not None
                and rec.get("check_id") == CHECK_IDS[i]
                and rec.get("graph_id") == gid
                and rec.get("holds") is True
            )
            tally.record(ok, f"graph #{j} check {CHECK_IDS[i]}: {rec}")
    tail = out.lines[len(orders) * k:]
    ok = out.returncode == 0 and len(tail) == 1 and _json(tail[0]) == {
        "summary": summary, "failures": []}
    tally.record(ok, f"summary line: {tail[:1]}")
    return tally


# ---------------------------------------------------------------------------
# compute over the panel
# ---------------------------------------------------------------------------


def _witness_ok(n: int, adj: list[int], param: str, k: int, value, witness) -> bool:
    if not isinstance(witness, list) or not all(type(x) is int for x in witness):
        return False
    if param in SIGNED:
        if len(witness) != n or any(x not in (-1, 1) for x in witness):
            return False
        sums = [sum(witness[v] for v in range(n) if adj[u] >> v & 1) for u in range(n)]
        return sum(witness) == value and all(map(SIGNED[param], sums))
    if len(set(witness)) != len(witness) or not all(0 <= v < n for v in witness):
        return False
    chosen = sum(1 << v for v in witness)
    return len(witness) == value and all((a & chosen).bit_count() >= k for a in adj)


def _identities(n: int, r: int, val: dict) -> list[tuple[str, bool]]:
    """The regular-graph identities of the paper, comparing the signed
    solver against the subset solver: istdn = n - 2*g(ceil(r/2)),
    stdn = 2*g(ceil((r+1)/2)) - n and st2in = n - 2*g(floor(r/2)), where
    g(j) is the j-tuple total domination number, g(0) = 0, g(1) = td and
    g(2) = ktd with k = 2.  Only identities whose level was computed apply."""
    gamma = {0: 0, 1: val.get("td"), 2: val.get("ktd")}
    out = []
    for param, level, sign in (("istdn", (r + 1) // 2, -1), ("stdn", (r + 2) // 2, 1),
                               ("st2in", r // 2, -1)):
        g = gamma.get(level)
        if g is not None and param in val:
            out.append((param, val[param] == (n - 2 * g if sign < 0 else 2 * g - n)))
    return out


def check_panel(outs: list[Output], params: list[tuple[str, int]],
                panel: list[tuple[str, str]], pins: dict) -> Tally:
    """One record per panel graph for each (param, k) invocation, each with a
    witness that re-checks, the pinned value where one exists, the closed
    forms, and the regular identities across parameters."""
    ok: dict[tuple[int, str], bool] = {}
    values: dict[int, dict] = {j: {} for j in range(len(panel))}
    decoded = [decode_graph6(g6) for _, g6 in panel]
    for out, (param, k) in zip(outs, params):
        for j, (cls, g6) in enumerate(panel):
            rec = _json(out.lines[j]) if j < len(out.lines) else None
            n, adj = decoded[j]
            good = (
                out.returncode == 0
                and len(out.lines) == len(panel)
                and rec is not None
                and rec.get("graph_id") == g6
                and rec.get("param") == param
                and (param != "ktd" or rec.get("k") == k)
                and type(rec.get("value")) is int
                and _witness_ok(n, adj, param, k, rec["value"], rec.get("witness"))
            )
            if good:
                value = rec["value"]
                values[j][param] = value
                good = pins.get(g6, {}).get(param, value) == value
                good = good and CLOSED_FORMS.get((cls, param), value) == value
            ok[j, param] = good
    for j, (n, adj) in enumerate(decoded):
        degrees = {a.bit_count() for a in adj}
        if len(degrees) == 1:
            for param, holds in _identities(n, degrees.pop(), values[j]):
                ok[j, param] = ok[j, param] and holds
    tally = Tally()
    for (j, param), good in ok.items():
        tally.record(good, f"{panel[j][0]} {panel[j][1]} {param}")
    return tally


# ---------------------------------------------------------------------------
# Self-test: a checker that cannot fail measures nothing
# ---------------------------------------------------------------------------


def _corrupt(line: str) -> str:
    rec = json.loads(line)
    if "holds" in rec:
        rec["holds"] = False
    else:
        rec["value"] += 1
    return json.dumps(rec)


def self_test(check, outs: list[Output]) -> str | None:
    """Feed ``check`` one corrupted record, then a non-zero exit, in place of
    the first invocation's accepted output; return what went wrong, or None.
    Each output line of an accepted invocation is one record."""
    first = outs[0]
    bad = [Output(first.returncode, [_corrupt(first.lines[0])] + first.lines[1:])]
    if check(bad + outs[1:]).failed != 1:
        return "a corrupted record was not caught exactly once"
    if check([Output(1, first.lines)] + outs[1:]).failed != len(first.lines):
        return "a non-zero exit did not fail every record of its invocation"
    return None
