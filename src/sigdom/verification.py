"""Checkers that re-verify each proved inequality or identity on a graph.

Each checker consumes one graph, runs the exact solvers it needs, and emits
a CheckReport; run_suite folds reports over a corpus.  The checks on one
graph share a GraphFacts: its graph6 id, degree and connectivity tests,
clique number, istdn optimum and tree structure are each computed once, on
first use, and read by every check after that.  The regular-graph
identities still take their signed side from their own labelling search.
Inequalities compare exact integers or Fractions; the only floating-point
comparison is the square-root bound of the clique-constrained check, and
even that goes exact whenever the radicand is a perfect square.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from collections.abc import Callable, Iterable

from .constructions import (
    TreeStructure,
    floor_family_membership,
    leaf_floor,
    tree_structure,
)
from .graphs import (
    Graph,
    clique_number,
    girth,
    is_bipartite,
    is_connected,
    is_regular,
    min_degree,
    write_graph6,
)
from .solvers import (
    INVERSE_SIGNED_TOTAL,
    NEGATIVE_DECISION,
    SIGNED_TOTAL,
    ParameterResult,
    enumerate_maximum_istdfs,
    istdn,
    ktuple_chain,
    optimize_signed,
    total_domination,
)

TURAN_EPS = 1e-9
LEAF_CONDITION_ORDER_CAP = 14


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _as_json_number(x) -> "int | float":
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    return x


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check on one graph.

    ``holds`` is the literal truth of the checked relation; ``sharp`` flags
    equality where sharpness is meaningful; ``applicable`` is False when the
    graph misses the check's preconditions (a third outcome, not a failure).
    """

    check_id: str
    graph_id: str
    lhs: "int | float | Fraction"
    rhs: "int | float | Fraction"
    holds: bool
    sharp: bool
    applicable: bool = True
    notes: str = ""

    def json_line(self) -> str:
        return json.dumps(
            {
                "check_id": self.check_id,
                "graph_id": self.graph_id,
                "lhs": _as_json_number(self.lhs),
                "rhs": _as_json_number(self.rhs),
                "holds": self.holds,
                "sharp": self.sharp,
                "notes": self.notes,
            }
        )


@dataclass
class _Counts:
    passed: int = 0
    failed: int = 0
    sharp: int = 0
    inapplicable: int = 0

    def total(self) -> int:
        return self.passed + self.failed + self.inapplicable


@dataclass
class SuiteSummary:
    """Per-check counters plus the list of genuine violations."""

    counts: dict[str, _Counts] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def add(self, report: CheckReport) -> None:
        c = self.counts.setdefault(report.check_id, _Counts())
        if not report.applicable:
            c.inapplicable += 1
            return
        if report.holds:
            c.passed += 1
            if report.sharp:
                c.sharp += 1
        else:
            c.failed += 1
            self.failures.append((report.check_id, report.graph_id))

    @property
    def ok(self) -> bool:
        return not self.failures

    def sorted_failures(self) -> list[tuple[str, str]]:
        return sorted(self.failures, key=lambda f: (f[1], f[0]))

    def json_line(self) -> str:
        return json.dumps(
            {
                "summary": {
                    cid: {
                        "passed": c.passed,
                        "failed": c.failed,
                        "sharp": c.sharp,
                        "inapplicable": c.inapplicable,
                    }
                    for cid, c in sorted(self.counts.items())
                },
                "failures": [
                    {"check_id": cid, "graph_id": gid}
                    for cid, gid in self.sorted_failures()
                ],
            }
        )


def _inapplicable(check_id: str, gid: str, why: str) -> CheckReport:
    return CheckReport(check_id, gid, 0, 0, True, False, False, f"inapplicable: {why}")


# ---------------------------------------------------------------------------
# Facts shared by the checks on one graph
# ---------------------------------------------------------------------------


class GraphFacts:
    """What the checks ask of one graph, each fact computed on first use.

    A fact calls the graph function or solver behind it through this
    module's globals, so a wrapper or stub put there sees every call; each
    later check on the same GraphFacts reads the stored value.  A fact that
    raises is not stored.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    @cached_property
    def graph6(self) -> str:
        return write_graph6(self.graph)

    @cached_property
    def min_degree(self) -> int:
        """Raises ValueError on the empty graph, which has no degrees."""
        return min_degree(self.graph)

    @cached_property
    def regular_degree(self) -> int | None:
        return is_regular(self.graph)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def tree(self) -> bool:
        """Whether the graph is a tree on at least 2 vertices."""
        g = self.graph
        return g.n >= 2 and g.m == g.n - 1 and self.connected

    @cached_property
    def clique_number(self) -> int:
        return clique_number(self.graph)

    @cached_property
    def istdn(self) -> ParameterResult:
        return istdn(self.graph)

    @cached_property
    def tree_structure(self) -> TreeStructure:
        """Raises ValueError unless ``tree`` holds."""
        return tree_structure(self.graph)


def _facts(g: Graph | GraphFacts) -> GraphFacts:
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def _regular_obstacle(facts: GraphFacts) -> str | None:
    """Why the graph is not connected and r-regular with r >= 1, or None."""
    if facts.regular_degree is None:
        return "graph is not regular"
    if not facts.connected:
        return "graph is not connected"
    if facts.regular_degree < 1:
        return "isolated vertex"
    return None


# ---------------------------------------------------------------------------
# Individual checks: each takes a Graph or the GraphFacts of one
# ---------------------------------------------------------------------------


def check_total_domination_upper(g: Graph | GraphFacts) -> CheckReport:
    """istdn <= n - 2*ceil((2*gamma_t + delta - 2) / 2) on connected graphs."""
    facts = _facts(g)
    gid = facts.graph6
    if not facts.connected:
        return _inapplicable("t22", gid, "graph is not connected")
    delta = facts.min_degree
    if delta < 1:
        return _inapplicable("t22", gid, "isolated vertex")
    lhs = facts.istdn.value
    gamma_t = total_domination(facts.graph).value
    rhs = facts.graph.n - 2 * _ceil_div(2 * gamma_t + delta - 2, 2)
    return CheckReport(
        "t22",
        gid,
        lhs,
        rhs,
        lhs <= rhs,
        lhs == rhs,
        notes=f"gamma_t={gamma_t} delta={delta}",
    )


def _exact_sqrt(x: Fraction) -> Fraction | None:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def check_clique_constrained_upper(g: Graph | GraphFacts, r: int) -> CheckReport:
    """istdn upper bound for graphs with no (r+1)-clique.

    rhs = n - r/(r-1) * (-c + sqrt(c^2 + 4*(r-1)/r*c*n)) with c = ceil(delta/2).
    Exact rational arithmetic whenever the radicand is a perfect square,
    float with a 1e-9 tolerance otherwise.
    """
    facts = _facts(g)
    gid = facts.graph6
    if r < 2:
        raise ValueError("clique bound needs r >= 2")
    n = facts.graph.n
    if n == 0 or facts.min_degree < 1:
        return _inapplicable("turan", gid, "isolated vertex")
    omega = facts.clique_number
    if omega > r:
        return _inapplicable("turan", gid, f"contains a {omega}-clique > r={r}")
    c = _ceil_div(facts.min_degree, 2)
    radicand = Fraction(c * c) + Fraction(4 * (r - 1) * c * n, r)
    lhs = facts.istdn.value
    root = _exact_sqrt(radicand)
    if root is not None:
        rhs = n - Fraction(r, r - 1) * (-c + root)
        holds = Fraction(lhs) <= rhs
        sharp = Fraction(lhs) == rhs
        note = "exact"
    else:
        rhs = n - (r / (r - 1)) * (-c + math.sqrt(float(radicand)))
        holds = lhs <= rhs + TURAN_EPS
        sharp = abs(lhs - rhs) <= TURAN_EPS
        note = f"float eps={TURAN_EPS}"
    return CheckReport(
        "turan", gid, lhs, rhs, holds, sharp, notes=f"r={r} c={c} {note}"
    )


def check_regular_identities(g: Graph | GraphFacts) -> CheckReport:
    """On a connected r-regular graph the three signed optima collapse to
    tuple-domination counts:

      istdn = n - 2*gamma_{x ceil(r/2), t}
      stdn  = 2*gamma_{x ceil((r+1)/2), t} - n
      st2in = n - 2*gamma_{x floor(r/2), t}      (level 0 count is 0)

    and consequently istdn = -stdn for odd r, istdn = st2in for even r.

    The signed side comes from the labelling search ``optimize_signed``, not
    from the shared istdn fact: the istdn/stdn/st2in solvers reduce to the
    same cover engine as the tuple minima, with constant demand here, so
    they would check nothing.
    """
    facts = _facts(g)
    gid = facts.graph6
    why = _regular_obstacle(facts)
    if why is not None:
        return _inapplicable("regular_identities", gid, why)
    graph = facts.graph
    r = facts.regular_degree
    n = graph.n
    up = _ceil_div(r, 2)
    up1 = _ceil_div(r + 1, 2)
    down = r // 2
    chain = [res.value for res in ktuple_chain(graph, up1)]
    gamma_up = chain[up - 1]
    gamma_up1 = chain[up1 - 1]
    gamma_down = chain[down - 1] if down >= 1 else 0
    ist = optimize_signed(graph, INVERSE_SIGNED_TOTAL).value
    std = optimize_signed(graph, SIGNED_TOTAL).value
    s2 = optimize_signed(graph, NEGATIVE_DECISION).value
    eqs = {
        "istdn": ist == n - 2 * gamma_up,
        "stdn": std == 2 * gamma_up1 - n,
        "st2in": s2 == n - 2 * gamma_down,
        "pair": (ist == -std) if r % 2 else (ist == s2),
    }
    holds = all(eqs.values())
    notes = (
        f"r={r} istdn={ist} stdn={std} st2in={s2} "
        f"tuple_minima={chain} " + " ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in eqs.items())
    )
    return CheckReport(
        "regular_identities", gid, ist, n - 2 * gamma_up, holds, holds, notes=notes
    )


def check_regular_interval(g: Graph | GraphFacts) -> CheckReport:
    """Parity-dependent closed interval for istdn of a connected r-regular
    graph: [(1-r)/(1+r)*n, 0] for even r, [-(r^2+1)/(r^2+2r-1)*n, -n/r] for
    odd r.  Exact rational comparison."""
    facts = _facts(g)
    gid = facts.graph6
    why = _regular_obstacle(facts)
    if why is not None:
        return _inapplicable("regular_bounds", gid, why)
    r = facts.regular_degree
    n = facts.graph.n
    if r % 2 == 0:
        lo = Fraction(1 - r, 1 + r) * n
        hi = Fraction(0)
    else:
        lo = -Fraction(r * r + 1, r * r + 2 * r - 1) * n
        hi = -Fraction(n, r)
    ist = Fraction(facts.istdn.value)
    holds = lo <= ist <= hi
    sharp = ist == lo or ist == hi
    side = "lower" if ist == lo else "upper" if ist == hi else "interior"
    return CheckReport(
        "regular_bounds",
        gid,
        ist,
        hi,
        holds,
        sharp,
        notes=f"r={r} interval=[{lo},{hi}] istdn={ist} {side}",
    )


def is_heawood_certificate(g: Graph) -> bool:
    """14 vertices, cubic, bipartite, girth 6 -- uniquely the Heawood graph."""
    return (
        g.n == 14 and is_regular(g) == 3 and is_bipartite(g) and girth(g) == 6
    )


def check_cubic_floor(g: Graph | GraphFacts) -> CheckReport:
    """istdn >= -2n/3 for every connected cubic graph except the one
    14-vertex bipartite girth-6 exception, which is reported, not failed."""
    facts = _facts(g)
    gid = facts.graph6
    why = "graph is not cubic" if facts.regular_degree != 3 else _regular_obstacle(facts)
    if why is not None:
        return _inapplicable("cubic", gid, why)
    ist = Fraction(facts.istdn.value)
    floor = Fraction(-2 * facts.graph.n, 3)
    if is_heawood_certificate(facts.graph):
        return CheckReport(
            "cubic",
            gid,
            ist,
            floor,
            True,
            False,
            notes=f"excluded exception graph; istdn={ist} vs floor {floor}",
        )
    return CheckReport(
        "cubic", gid, ist, floor, ist >= floor, ist == floor,
        notes=f"istdn={ist} floor={floor}",
    )


def check_leaf_condition(t: Graph | GraphFacts) -> CheckReport:
    """Some maximum inverse-signed labelling gives +1 to at least
    floor(l_i/2) leaves of every support vertex."""
    facts = _facts(t)
    gid = facts.graph6
    if not facts.tree:
        return _inapplicable("lemma42", gid, "not a tree on >= 2 vertices")
    if facts.graph.n > LEAF_CONDITION_ORDER_CAP:
        return _inapplicable(
            "lemma42", gid, f"order above enumeration cap {LEAF_CONDITION_ORDER_CAP}"
        )
    ts = facts.tree_structure
    best_shortfall = None
    for f in enumerate_maximum_istdfs(facts.graph, optimum=facts.istdn.value):
        shortfall = min(
            sum(1 for u in ts.leaf_groups[v] if f.values[u] == 1) - c // 2
            for v, c in zip(ts.supports, ts.leaf_counts)
        )
        if best_shortfall is None or shortfall > best_shortfall:
            best_shortfall = shortfall
        if best_shortfall >= 0:
            break
    assert best_shortfall is not None
    return CheckReport(
        "lemma42",
        gid,
        best_shortfall,
        0,
        best_shortfall >= 0,
        best_shortfall == 0,
        notes="max-min surplus of +1 leaves over half the group size",
    )


def check_tree_floor(t: Graph | GraphFacts) -> CheckReport:
    """istdn >= leaf floor, with equality exactly on the structural family."""
    facts = _facts(t)
    gid = facts.graph6
    if not facts.tree:
        return _inapplicable("t43", gid, "not a tree on >= 2 vertices")
    ts = facts.tree_structure
    floor = leaf_floor(ts)
    ist = facts.istdn.value
    member, reason = floor_family_membership(ts)
    holds = ist >= floor and ((ist == floor) == member)
    return CheckReport(
        "t43",
        gid,
        ist,
        floor,
        holds,
        ist == floor,
        notes=f"family={'yes' if member else 'no'} ({reason})",
    )


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

CHECK_IDS: tuple[str, ...] = (
    "t22",
    "turan",
    "regular_identities",
    "regular_bounds",
    "cubic",
    "lemma42",
    "t43",
)

_PLAIN_CHECKS: dict[str, Callable[[GraphFacts], CheckReport]] = {
    "t22": check_total_domination_upper,
    "regular_identities": check_regular_identities,
    "regular_bounds": check_regular_interval,
    "cubic": check_cubic_floor,
    "lemma42": check_leaf_condition,
    "t43": check_tree_floor,
}


def evaluate_check(
    check_id: str, g: Graph | GraphFacts, *, turan_r: int | None = None
) -> CheckReport:
    """Run a single check by id on a graph or on the shared facts of one;
    for "turan" with no explicit r, use the smallest admissible
    r = max(2, clique number)."""
    facts = _facts(g)
    if check_id == "turan":
        r = turan_r if turan_r is not None else max(2, facts.clique_number)
        return check_clique_constrained_upper(facts, r)
    if check_id not in _PLAIN_CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    return _PLAIN_CHECKS[check_id](facts)


def _evaluate_checks(
    check_ids: list[str], turan_r: int | None, g: Graph
) -> list[CheckReport]:
    """One graph's reports; its checks share one GraphFacts."""
    facts = GraphFacts(g)
    return [evaluate_check(cid, facts, turan_r=turan_r) for cid in check_ids]


def run_suite(
    graphs: Iterable,
    check_ids: Iterable[str],
    *,
    turan_r: int | None = None,
    on_report: Callable[[CheckReport], None] | None = None,
    mapper: Callable = map,
) -> SuiteSummary:
    """Evaluate the selected checks on every graph of the corpus.

    Graphs that miss a check's preconditions count as inapplicable, never as
    failures.  Reports stream through ``on_report`` in corpus order.
    ``mapper(fn, graphs)`` replaces ``map``, e.g. to run ``fn``, which gives
    one graph's reports, in worker processes; it must keep corpus order.
    """
    wanted = [cid for cid in CHECK_IDS if cid in set(check_ids)]
    unknown = set(check_ids) - set(CHECK_IDS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    summary = SuiteSummary()
    for reports in mapper(partial(_evaluate_checks, wanted, turan_r), graphs):
        for report in reports:
            summary.add(report)
            if on_report is not None:
                on_report(report)
    return summary
