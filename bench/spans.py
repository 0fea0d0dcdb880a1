"""Spans around the calls into sigdom's public functions, taken from outside.

Each traced function is replaced, in every sigdom namespace that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent).  Spans stay in memory and are written out when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from check import CHECK_IDS

#: (module, function) pairs wrapped for the per-layer metrics.
TRACED = (
    ("graphs", "parse_graph6"),
    ("graphs", "write_graph6"),
    ("graphs", "clique_number"),
    ("graphs", "is_connected"),
    ("trees", "free_trees"),
    ("solvers", "istdn"),
    ("solvers", "stdn"),
    ("solvers", "st2in"),
    ("solvers", "total_domination"),
    ("solvers", "ktuple_chain"),
    ("solvers", "enumerate_maximum_istdfs"),
    ("constructions", "tree_structure"),
    ("constructions", "floor_family_membership"),
    ("verification", "evaluate_check"),
    ("cli", "main"),
)

#: Solvers whose ParameterResult carries nodes_explored.
SEARCHES = ("istdn", "stdn", "st2in", "total_domination", "ktuple_chain")


class _Frame:
    """An open span.  ``claimed`` holds results a nested search already
    counted, so an enclosing search that returns them does not count their
    nodes again; the references also keep their ids from being reused."""

    __slots__ = ("name", "start", "parent", "index", "child_s", "claimed")

    def __init__(self, name: str, parent: int, index: int) -> None:
        self.name = name
        self.parent = parent
        self.index = index
        self.child_s = 0.0
        self.claimed: list = []
        self.start = time.perf_counter()


class Tracer:
    """Spans and counts of one traced pass; install() wraps, uninstall()
    restores every reference it replaced."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self.stack[-1].index if self.stack else -1
        frame = _Frame(name, parent, len(self.spans))
        self.spans.append((name, 0.0, 0.0, parent))
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        self.spans[frame.index] = (frame.name, frame.start, end, frame.parent)
        self.self_s[frame.name] += duration - frame.child_s
        self.counts[frame.name + ".calls"] += 1
        if self.stack:
            self.stack[-1].child_s += duration

    def _count_search(self, frame: _Frame, name: str, result) -> None:
        results = result if isinstance(result, list) else [result]
        own = [r for r in results if not any(r is c for c in frame.claimed)]
        self.counts[name + ".nodes"] += sum(r.nodes_explored for r in own)
        if all(r.nodes_explored == 0 for r in results):
            self.counts[name + ".root_closed"] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.name.split(".")[-1] in SEARCHES:
            parent.claimed += frame.claimed + own

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, module: str, func):
        name = f"{module}.{func.__name__}"
        short = func.__name__
        tracer = self

        if short == "free_trees":
            @functools.wraps(func)
            def generate(*args, **kwargs):
                gen = func(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    tracer.counts[name + ".trees"] += 1
                    yield item
            return generate

        if short == "evaluate_check":
            @functools.wraps(func)
            def check(check_id, *args, **kwargs):
                frame = tracer._open(f"verification.{check_id}")
                try:
                    report = func(check_id, *args, **kwargs)
                finally:
                    tracer._close(frame)
                if not report.applicable:
                    tracer.counts[f"verification.{check_id}.inapplicable"] += 1
                return report
            return check

        @functools.wraps(func)
        def call(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame)
            if short in SEARCHES:
                tracer._count_search(frame, name, result)
            elif short == "enumerate_maximum_istdfs":
                tracer.counts[name + ".optima"] += len(result)
            return result
        return call

    def install(self) -> None:
        """Wrap every TRACED function wherever sigdom holds a reference to
        it: module globals, names imported from other modules, and the
        CLI's parameter table."""
        modules = [m for key, m in sys.modules.items()
                   if key == "sigdom" or key.startswith("sigdom.")]
        for module, fname in TRACED:
            original = getattr(sys.modules[f"sigdom.{module}"], fname)
            wrapper = self._wrap(module, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            table = sys.modules["sigdom.cli"]._PARAM_SOLVERS
            for key, value in table.items():
                if value is original:
                    self._originals.append((table, key, value))
                    table[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._originals.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit)."""
    c, s = tracer.counts, tracer.self_s
    out: dict[str, tuple[float, str]] = {}
    for module, fname in TRACED:
        if fname in ("free_trees", "evaluate_check", "main"):
            continue
        name = f"{module}.{fname}"
        out[name + ".calls"] = (c[name + ".calls"], "count")
        out[name + ".self_s"] = (s[name], "s")
        if fname in SEARCHES:
            calls = c[name + ".calls"]
            out[name + ".nodes"] = (c[name + ".nodes"], "count")
            out[name + ".nodes_per_s"] = (c[name + ".nodes"] / s[name] if s[name] else 0.0, "1/s")
            out[name + ".root_closed_frac"] = (c[name + ".root_closed"] / calls if calls else 0.0, "ratio")
        elif fname == "enumerate_maximum_istdfs":
            out[name + ".optima"] = (c[name + ".optima"], "count")
    trees, tree_s = c["trees.free_trees.trees"], s["trees.free_trees"]
    out["trees.free_trees.trees"] = (trees, "count")
    out["trees.free_trees.self_s"] = (tree_s, "s")
    out["trees.free_trees.trees_per_s"] = (trees / tree_s if tree_s else 0.0, "1/s")
    for cid in CHECK_IDS:
        name = f"verification.{cid}"
        out[name + ".calls"] = (c[name + ".calls"], "count")
        out[name + ".self_s"] = (s[name], "s")
        out[name + ".inapplicable"] = (c[name + ".inapplicable"], "count")
    graphs = max(c[f"verification.{cid}.calls"] for cid in CHECK_IDS)
    for what, key in (("istdn", "solvers.istdn.calls"), ("graph6", "graphs.write_graph6.calls")):
        out[f"verification.{what}_per_graph"] = (c[key] / graphs if graphs else 0.0, "ratio")
    out["cli.self_s"] = (s["cli.main"], "s")
    return out


def repeat_counts(tracer: Tracer) -> dict[str, int]:
    """The counts that must repeat exactly from one traced run to the next."""
    return {k: v for k, v in tracer.counts.items()
            if k.endswith((".calls", ".nodes", ".trees", ".optima", ".inapplicable",
                           ".root_closed"))}
