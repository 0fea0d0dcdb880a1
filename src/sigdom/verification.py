"""Checkers that re-verify each proved inequality or identity on a graph.

Each check is one row of the table CHECKS: a function of one graph's
GraphFacts that returns only its numbers, (lhs, rhs, holds, sharp, notes),
or the reason the graph is out of its scope.  evaluate_check turns that
into a CheckReport.  run_suite runs the checks of one graph where its
mapper calls them, a worker process under ``--jobs``, and gets back only
text: the graph's report lines, one status letter per check and the graph
id; it writes the lines and tallies each check from its letter.  The checks
on one graph share a GraphFacts: its graph id, degree and connectivity
tests, clique number, istdn optimum and tree structure are each computed
once, on first use, and read by every check after that; the graph id is
the graph6 record's own text, and only a graph built from edges, such as a
generated tree, is encoded for it.  GraphFacts refuses the empty graph, for
which no check is stated.  The regular-graph identities still take their
signed side from their own labelling search.
The istdn fact, t22's total domination number, every optimum the regular
identities read and the labelling behind lemma42's shortfall are read only
after their witnesses pass a re-check.
Every comparison is exact, in integers or Fractions; no check compares
floats.  Only the clique-constrained bound prints a rounded rhs, and only
when its square root is irrational.  A report line is written with one
format string, strings through json's C encoder and numbers as exact text,
in the same bytes as json.dumps of the report's fields; the numbers of a
report on a graph out of a check's scope are constant text.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple
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
    is_connected,
    is_regular,
    min_degree,
    write_graph6,
)
from .solvers import (
    ParameterResult,
    _labelling,
    istdn,
    ktuple_chain,
    optimize_signed,
    recheck_witness,
    scan_maximum_istdfs,
    total_domination,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _json_number(x: "int | float | Fraction") -> str:
    """``x`` as json.dumps writes it, a Fraction as an int when it is
    integral and as a float otherwise; a float must be finite."""
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x)
    return int.__repr__(x.numerator) if x.denominator == 1 else float.__repr__(float(x))


class CheckReport(NamedTuple):
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
        """The report as one JSON object, in the bytes json.dumps writes for
        it, built from one format string: strings go through json's C
        encoder, numbers through ``_json_number``."""
        return (f'{{"check_id": {_json_string(self.check_id)}, '
                f'"graph_id": {_json_string(self.graph_id)}, '
                f'"lhs": {_json_number(self.lhs)}, "rhs": {_json_number(self.rhs)}, '
                f'"holds": {"true" if self.holds else "false"}, '
                f'"sharp": {"true" if self.sharp else "false"}, '
                f'"notes": {_json_string(self.notes)}}}')


class _Inapplicable(CheckReport):
    """The report of a graph outside a check's scope, as evaluate_check
    builds it: lhs 0, rhs 0, holds, not sharp, not applicable."""

    __slots__ = ()

    def json_line(self) -> str:
        return (f'{{"check_id": {_json_string(self.check_id)}, '
                f'"graph_id": {_json_string(self.graph_id)}, '
                '"lhs": 0, "rhs": 0, "holds": true, "sharp": false, '
                f'"notes": {_json_string(self.notes)}}}')


class SuiteSummary:
    """Per-check counters plus the list of genuine violations, held as the
    dicts the summary line prints."""

    def __init__(self) -> None:
        self.counts: dict[str, dict[str, int]] = {}
        self.failures: list[dict[str, str]] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def json_line(self) -> str:
        return json.dumps({
            "summary": dict(sorted(self.counts.items())),
            "failures": sorted(self.failures, key=lambda f: (f["graph_id"], f["check_id"])),
        })


# ---------------------------------------------------------------------------
# Facts shared by the checks on one graph
# ---------------------------------------------------------------------------


class _fact:
    """A GraphFacts attribute computed on first read and then stored in the
    instance, where it hides this descriptor from every later read.  Unlike
    functools.cached_property it takes no lock: a GraphFacts serves one
    graph in one thread."""

    def __init__(self, compute: Callable[["GraphFacts"], object]) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, facts: "GraphFacts | None", owner: type | None = None):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class GraphFacts:
    """What the checks ask of one graph, each fact computed on first use.

    A fact calls the graph function or solver behind it through this
    module's globals, so a wrapper or stub put there sees every call; each
    later check on the same GraphFacts reads the stored value.  A fact that
    raises is not stored.  The empty graph is refused here, with the
    ValueError of ``min_degree``: no check is stated for it.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.min_degree = min_degree(graph)

    @_fact
    def graph6(self) -> str:
        """The graph id: the graph's own graph6 record text, or its encoding."""
        return self.graph.graph6 or write_graph6(self.graph)

    @_fact
    def regular_degree(self) -> int | None:
        return is_regular(self.graph)

    @_fact
    def connected(self) -> bool:
        return is_connected(self.graph)

    @_fact
    def regular_obstacle(self) -> str | None:
        """Why the graph is not connected and r-regular with r >= 1, or None."""
        if self.regular_degree is None:
            return "graph is not regular"
        if not self.connected:
            return "graph is not connected"
        if self.regular_degree < 1:
            return "isolated vertex"
        return None

    @_fact
    def tree(self) -> bool:
        """Whether the graph is a tree on at least 2 vertices."""
        g = self.graph
        return g.n >= 2 and g.m == g.n - 1 and self.connected

    @_fact
    def clique_number(self) -> int:
        return clique_number(self.graph)

    @_fact
    def istdn(self) -> ParameterResult:
        return recheck_witness(self.graph, "istdn", istdn(self.graph))

    @_fact
    def tree_structure(self) -> TreeStructure:
        """Raises ValueError unless ``tree`` holds."""
        return tree_structure(self.graph)


# ---------------------------------------------------------------------------
# The checks: each maps the facts of one graph to the reason the graph is out
# of scope, or to (lhs, rhs, holds, sharp, notes)
# ---------------------------------------------------------------------------

Outcome = str | tuple[int | float | Fraction, int | float | Fraction, bool, bool, str]


def _t22(facts: GraphFacts) -> Outcome:
    """istdn <= n - 2*ceil((2*gamma_t + delta - 2) / 2) on connected graphs."""
    if not facts.connected:
        return "graph is not connected"
    delta = facts.min_degree
    if delta < 1:
        return "isolated vertex"
    lhs = facts.istdn.value
    gamma_t = recheck_witness(facts.graph, "td", total_domination(facts.graph)).value
    rhs = facts.graph.n - 2 * _ceil_div(2 * gamma_t + delta - 2, 2)
    return lhs, rhs, lhs <= rhs, lhs == rhs, f"gamma_t={gamma_t} delta={delta}"


def _turan(facts: GraphFacts) -> Outcome:
    """istdn upper bound for graphs with no (r+1)-clique, at the strongest
    admissible r = max(2, clique number): the bound grows with r.

    rhs = n - r/(r-1) * (-c + sqrt(c^2 + 4*(r-1)/r*c*n)) with c = ceil(delta/2).
    With p = (r-1)*(n - lhs) + r*c and q = r^2*c^2 + 4*r*(r-1)*c*n, lhs <= rhs
    iff p >= 0 and p^2 >= q, with equality iff p >= 0 and p^2 == q: integers
    decide both.  The reported rhs is exact when q is a perfect square and a
    rounded float only when it is irrational.
    """
    r = max(2, facts.clique_number)
    if facts.min_degree < 1:
        return "isolated vertex"
    n = facts.graph.n
    c = _ceil_div(facts.min_degree, 2)
    lhs = facts.istdn.value
    p = (r - 1) * (n - lhs) + r * c
    q = r * r * c * c + 4 * r * (r - 1) * c * n
    root = math.isqrt(q)
    if root * root == q:
        rhs, kind = n - Fraction(root - r * c, r - 1), "exact"
    else:
        rhs, kind = n - (r / (r - 1)) * (-c + math.sqrt(q / (r * r))), "rhs rounded"
    return lhs, rhs, p >= 0 and p * p >= q, p >= 0 and p * p == q, f"r={r} c={c} {kind}"


def _regular_identities(facts: GraphFacts) -> Outcome:
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
    if facts.regular_obstacle is not None:
        return facts.regular_obstacle
    graph = facts.graph
    r = facts.regular_degree
    n = graph.n
    up = _ceil_div(r, 2)
    up1 = _ceil_div(r + 1, 2)
    down = r // 2
    chain = [recheck_witness(graph, "ktd", res, level).value
             for level, res in enumerate(ktuple_chain(graph, up1), 1)]
    gamma_up = chain[up - 1]
    gamma_up1 = chain[up1 - 1]
    gamma_down = chain[down - 1] if down >= 1 else 0
    ist, std, s2 = (
        recheck_witness(graph, param, optimize_signed(graph, param)).value
        for param in ("istdn", "stdn", "st2in")
    )
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
    return ist, n - 2 * gamma_up, holds, holds, notes


def _regular_bounds(facts: GraphFacts) -> Outcome:
    """Parity-dependent closed interval for istdn of a connected r-regular
    graph: [(1-r)/(1+r)*n, 0] for even r, [-(r^2+1)/(r^2+2r-1)*n, -n/r] for
    odd r.  Exact rational comparison."""
    if facts.regular_obstacle is not None:
        return facts.regular_obstacle
    r = facts.regular_degree
    n = facts.graph.n
    if r % 2 == 0:
        lo = Fraction(1 - r, 1 + r) * n
        hi = Fraction(0)
    else:
        lo = -Fraction(r * r + 1, r * r + 2 * r - 1) * n
        hi = -Fraction(n, r)
    ist = Fraction(facts.istdn.value)
    side = "lower" if ist == lo else "upper" if ist == hi else "interior"
    return (ist, hi, lo <= ist <= hi, ist == lo or ist == hi,
            f"r={r} interval=[{lo},{hi}] istdn={ist} {side}")


def is_heawood_certificate(g: Graph) -> bool:
    """14 vertices, cubic, girth 6 -- uniquely the Heawood graph, which is
    connected and bipartite: by the Moore bound no cubic graph of girth 6 is
    smaller, and the Heawood graph is the unique (3,6)-cage (Tutte 1947)."""
    return g.n == 14 and is_regular(g) == 3 and girth(g) == 6


def _cubic(facts: GraphFacts) -> Outcome:
    """istdn >= -2n/3 for every connected cubic graph except the Heawood
    graph, which is reported, not failed."""
    if facts.regular_degree != 3:
        return "graph is not cubic"
    if facts.regular_obstacle is not None:
        return facts.regular_obstacle
    ist = Fraction(facts.istdn.value)
    floor = Fraction(-2 * facts.graph.n, 3)
    if is_heawood_certificate(facts.graph):
        return ist, floor, True, False, f"excluded exception graph; istdn={ist} vs floor {floor}"
    return ist, floor, ist >= floor, ist == floor, f"istdn={ist} floor={floor}"


def _lemma42(facts: GraphFacts) -> Outcome:
    """Some maximum inverse-signed labelling gives +1 to at least
    floor(l_i/2) leaves of every support vertex.

    The shortfall of an optimum is the least surplus of its +1 leaves over
    half the group size, over the supports.  The scan visits the optima in
    labelling order, keeps the first with the largest shortfall seen, and
    stops at the first whose shortfall is >= 0; only the optimum it keeps
    becomes a labelling, for the re-check.
    """
    if not facts.tree:
        return "not a tree on >= 2 vertices"
    groups = facts.tree_structure.leaf_groups.values()
    best = None  # (shortfall, the minus set of the optimum that has it)

    def visit(minus: int) -> bool:
        nonlocal best
        shortfall = min((group & ~minus).bit_count() - group.bit_count() // 2 for group in groups)
        if best is None or shortfall > best[0]:
            best = shortfall, minus
        return best[0] >= 0

    scan_maximum_istdfs(facts.graph, visit, facts.istdn.value)
    assert best is not None
    shortfall, minus = best
    optimum = _labelling(facts.graph.n, minus, -1)
    recheck_witness(facts.graph, "istdn", ParameterResult(facts.istdn.value, optimum, 0))
    return (shortfall, 0, shortfall >= 0, shortfall == 0,
            "max-min surplus of +1 leaves over half the group size")


def _t43(facts: GraphFacts) -> Outcome:
    """istdn >= leaf floor, with equality exactly on the structural family."""
    if not facts.tree:
        return "not a tree on >= 2 vertices"
    ts = facts.tree_structure
    floor = leaf_floor(ts)
    ist = facts.istdn.value
    member, reason = floor_family_membership(ts)
    holds = ist >= floor and ((ist == floor) == member)
    return ist, floor, holds, ist == floor, f"family={'yes' if member else 'no'} ({reason})"


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

#: Every check by id, in report order.
CHECKS: dict[str, Callable[[GraphFacts], Outcome]] = {
    "t22": _t22,
    "turan": _turan,
    "regular_identities": _regular_identities,
    "regular_bounds": _regular_bounds,
    "cubic": _cubic,
    "lemma42": _lemma42,
    "t43": _t43,
}
CHECK_IDS: tuple[str, ...] = tuple(CHECKS)


def evaluate_check(check_id: str, g: Graph, facts: GraphFacts | None = None) -> CheckReport:
    """Run a single check by id on a graph.  The checks on one graph share
    ``facts``, the GraphFacts of ``g``; without it, the check builds its own."""
    check = CHECKS.get(check_id)
    if check is None:
        raise ValueError(f"unknown check {check_id!r}")
    if facts is None:
        facts = GraphFacts(g)
    outcome = check(facts)
    if type(outcome) is str:
        return _Inapplicable(check_id, facts.graph6, 0, 0, True, False, False,
                             f"inapplicable: {outcome}")
    lhs, rhs, holds, sharp, notes = outcome
    return CheckReport(check_id, facts.graph6, lhs, rhs, holds, sharp, True, notes)


def _evaluate_checks(check_ids: list[str], g: Graph) -> tuple[str, bytes, str]:
    """One graph's checks, sharing one GraphFacts, as the text that crosses
    a process pool: the report lines, each ending in a newline; the status,
    one letter per check, ``p`` passed, ``s`` sharp, ``f`` failed or ``i``
    inapplicable; and the graph id, read only for failures."""
    facts = GraphFacts(g)
    lines, status = [], bytearray()
    for cid in check_ids:
        report = evaluate_check(cid, g, facts)
        lines.append(f"{report.json_line()}\n")
        status += (b"i" if not report.applicable else b"f" if not report.holds
                   else b"s" if report.sharp else b"p")
    return "".join(lines), bytes(status), facts.graph6


def run_suite(
    graphs: Iterable,
    check_ids: Iterable[str],
    *,
    write: Callable[[str], object] | None = None,
    mapper: Callable = map,
) -> SuiteSummary:
    """Evaluate the selected checks on every graph of the corpus.

    Graphs that miss a check's preconditions count as inapplicable, never as
    failures.  Each graph's report lines go to ``write`` as one string, in
    corpus order.  ``mapper(fn, graphs)`` replaces ``map``, e.g. to run
    ``fn``, which gives one graph's lines and status, in worker processes;
    it must keep corpus order.
    """
    check_ids = set(check_ids)
    wanted = [cid for cid in CHECK_IDS if cid in check_ids]
    unknown = check_ids - set(CHECK_IDS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    summary = SuiteSummary()
    tallies = [dict.fromkeys(("passed", "failed", "sharp", "inapplicable"), 0) for _ in wanted]
    for text, status, graph_id in mapper(partial(_evaluate_checks, wanted), graphs):
        if write is not None:
            write(text)
        for cid, c, letter in zip(wanted, tallies, status.decode()):
            if letter == "i":
                c["inapplicable"] += 1
            elif letter == "f":
                c["failed"] += 1
                summary.failures.append({"check_id": cid, "graph_id": graph_id})
            else:
                c["passed"] += 1
                c["sharp"] += letter == "s"
    # with no graphs the counts stay empty
    summary.counts = {cid: c for cid, c in zip(wanted, tallies) if any(c.values())}
    return summary
