"""Command-line front end.

Subcommands: ``compute`` (parameters over a graph6/edge-list stream),
``verify`` (bound suites over a corpus), ``construct`` (named families to
graph6), ``enumerate`` (free trees to graph6).  Results stream as JSONL or
graph6 lines so the subcommands compose through pipes.  ``--jobs J``
streams the records to J worker processes, at most one per CPU, in batches
sized by their measured cost, with output byte-identical to ``--jobs 1``;
the workers send back text, a ``verify`` worker each graph's report lines
and status letters.

Exit codes: 0 all good, 1 a verified relation was violated, 2 usage,
input or precondition error, 3 any other fault, a witness that fails its
re-check included.  An error names its location when it has one.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from .constructions import (
    build_heawood,
    build_matched_multipartite,
    build_prescribed_weight_tree,
)
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    GraphFormatError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    max_degree,
    min_degree,
    parse_edge_list,
    path_graph,
    star_graph,
    stream_graph6,
    write_graph6,
)
from .solvers import (
    istdn,
    ktuple_total_domination,
    recheck_witness,
    st2in,
    stdn,
    total_domination,
)
from .trees import MAX_TREE_ORDER, free_trees
from .verification import CHECK_IDS, run_suite

SUITES = {
    "t22": ("t22",),
    "turan": ("turan",),
    "regular": ("regular_identities", "regular_bounds"),
    "cubic": ("cubic",),
    "lemma42": ("lemma42",),
    "t43": ("t43",),
    "all": CHECK_IDS,
}

_PARAM_SOLVERS = {
    "istdn": istdn,
    "stdn": stdn,
    "st2in": st2in,
    "td": total_domination,
}


class _UsageError(Exception):
    pass


class _InternalError(Exception):
    """Any other exception raised on one record, with its location."""


def _internal(exc: Exception) -> str:
    return f"internal error: {type(exc).__name__}: {exc}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdom",
        description="Exact signed/tuple total domination solvers and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p: argparse.ArgumentParser, trees: bool) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--input", metavar="FILE", help="input file (default: stdin)")
        if trees:
            group.add_argument(
                "--trees-up-to",
                type=int,
                metavar="N",
                help=f"use all free trees of order 2..N (N <= {MAX_TREE_ORDER})",
            )
        p.add_argument(
            "--format",
            choices=("graph6", "edgelist"),
            default="graph6",
            help="input format (default graph6, one graph per line)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="J",
            help="fan graphs across J worker processes",
        )

    p_compute = sub.add_parser("compute", help="compute a parameter per input graph")
    p_compute.add_argument(
        "--param",
        required=True,
        choices=("istdn", "stdn", "st2in", "td", "ktd"),
        help="which parameter to compute",
    )
    p_compute.add_argument("--k", type=int, help="tuple level, required for --param ktd")
    add_input_opts(p_compute, trees=False)
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite over a corpus")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    add_input_opts(p_verify, trees=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="emit a named family as graph6")
    p_construct.add_argument(
        "--family",
        required=True,
        nargs="+",
        metavar=("NAME", "ARG"),
        help="hr r | prop41 k | heawood | complete n | cycle n | path n | "
        "bipartite m n | star n",
    )
    p_construct.add_argument(
        "--describe",
        action="store_true",
        help="follow the graph6 line with a JSON fact line",
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_enum = sub.add_parser("enumerate", help="emit all free trees up to an order")
    p_enum.add_argument("--trees-up-to", type=int, required=True, metavar="N")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


# ---------------------------------------------------------------------------
# Input and the one execution path
# ---------------------------------------------------------------------------


def _records(args) -> Iterator[tuple[str, Graph] | _UsageError]:
    """Yield the input as (location, graph) records, in input order.  Input
    that cannot be read ends them with an error record: a raise here would
    lose, under a process pool, the results of the records before it."""
    n_max = getattr(args, "trees_up_to", None)
    if n_max is not None and not 2 <= n_max <= MAX_TREE_ORDER:
        raise _UsageError(f"--trees-up-to must be in 2..{MAX_TREE_ORDER}, got {n_max}")
    if n_max is not None:
        for n in range(2, n_max + 1):
            for idx, t in enumerate(free_trees(n)):
                yield f"tree n={n} #{idx}", t
        return
    if args.input == "":
        raise _UsageError("--input needs a file name, got ''")
    if args.input is None and sys.stdin is None:  # started with stdin closed
        raise _UsageError("<stdin>: standard input is closed")
    source = args.input or "<stdin>"
    # an undecodable byte becomes U+FFFD, which the parsers reject at its line
    if args.input is None and isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(errors="replace")
    try:
        with (open(args.input, encoding="ascii", errors="replace") if args.input
              else contextlib.nullcontext(sys.stdin)) as handle:
            if args.format == "graph6":
                yield from stream_graph6(handle, source)
            else:
                yield source, parse_edge_list(handle.read())
    except OSError as exc:
        yield _UsageError(f"{source}: {exc.strerror}")
    except GraphFormatError as exc:  # stream_graph6 has located it already
        yield _UsageError(str(exc) if args.format == "graph6" else f"{source}: {exc}")


def _located(fn: Callable, record: tuple[str, Graph] | _UsageError):
    """fn(graph) for one record, or its located error as an exception
    returned in place, by this process for one job and by the workers otherwise."""
    if isinstance(record, _UsageError):
        return record
    where, g = record
    try:
        return fn(g)
    except ValueError as exc:
        return _UsageError(f"{where}: {exc}")
    except Exception as exc:
        return _InternalError(f"{where}: {_internal(exc)}")


#: Worker seconds a pool batch aims at, and the most records it holds.
_BATCH_SECONDS = 0.02
_BATCH_MAX = 256


def _batch(fn: Callable, records: list) -> tuple[list, float]:
    """_located over the records up to the first error, which ends the
    list, and the seconds that took."""
    start, results = time.perf_counter(), []
    for record in records:
        results.append(_located(fn, record))
        if isinstance(results[-1], Exception):
            break
    return results, time.perf_counter() - start


def _pooled(workers: int, fn: Callable, records: Iterable) -> Iterator:
    """_located results over the records, in input order, from ``workers``
    worker processes: a fork pool forks them all at the first submit.
    Records are sent as read, one batch at a time, at most two per worker in
    flight: one record first, then as many as take _BATCH_SECONDS at the
    seconds per record measured so far.  The pool and its imports wait for
    the first batch, so empty input starts no process; closing this
    generator cancels the pending batches."""
    records, pending, pool = iter(records), collections.deque(), None
    task, size, done, busy = partial(_batch, fn), 1, 0, 0.0
    try:
        while True:
            while len(pending) < 2 * workers and (
                    batch := list(itertools.islice(records, size))):
                if pool is None:
                    from concurrent.futures import ProcessPoolExecutor
                    pool = ProcessPoolExecutor(max_workers=workers)
                pending.append(pool.submit(task, batch))
            if not pending:
                return
            results, seconds = pending.popleft().result()
            done, busy = done + len(results), busy + seconds
            size = min(_BATCH_MAX, max(1, int(_BATCH_SECONDS * done / max(busy, 1e-9))))
            yield from results
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run(jobs: int, fn: Callable, records: Iterable) -> Iterator:
    """Yield fn(graph) for each record in input order, computed by _pooled
    on one worker per job, at most one per CPU, or here when that is one
    worker.  The first error record is raised after the results before it;
    pending work is cancelled."""
    if jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    workers = min(jobs, os.cpu_count() or 1)
    results = ((_located(fn, r) for r in records) if workers == 1
               else _pooled(workers, fn, records))
    for result in results:
        if isinstance(result, Exception):
            results.close()
            raise result
        yield result


def _compute_record(g: Graph, param: str, k: int | None) -> str:
    if param == "ktd":
        result = recheck_witness(g, param, ktuple_total_domination(g, k), k)
    else:
        result = recheck_witness(g, param, _PARAM_SOLVERS[param](g))
    payload = {"graph_id": g.graph6 or write_graph6(g), "param": param}
    if param == "ktd":
        payload["k"] = k
    payload["value"] = result.value
    payload["witness"] = list(result.witness)
    return json.dumps(payload)


def _cmd_compute(args) -> int:
    if args.param == "ktd" and args.k is None:
        raise _UsageError("--param ktd requires --k")
    if args.param != "ktd" and args.k is not None:
        raise _UsageError("--k is only meaningful with --param ktd")
    if args.k is not None and args.k < 1:
        raise _UsageError("--k must be >= 1")
    solve = partial(_compute_record, param=args.param, k=args.k)
    for line in _run(args.jobs, solve, _records(args)):
        print(line)
    return 0


def _cmd_verify(args) -> int:
    # one write per graph, of all its report lines
    summary = run_suite(_records(args), SUITES[args.suite], write=sys.stdout.write,
                        mapper=partial(_run, args.jobs))
    print(summary.json_line())
    return 0 if summary.ok else 1


#: name -> (parameter count, vertex count from the parameters, builder,
#: istdn closed form or None)
_CONSTRUCTIONS = {
    "hr": (1, lambda r: r * r * (r - 1), build_matched_multipartite,
           lambda r: r * (r - 1) ** 2 - r * (r - 1)),
    "prop41": (1, lambda k: 3 * k + 4 if k >= 0 else -9 * k,
               build_prescribed_weight_tree, lambda k: k),
    "heawood": (0, lambda: 14, build_heawood, None),
    "complete": (1, lambda n: n, complete_graph, lambda n: -2 + n % 2),
    "cycle": (1, lambda n: n, cycle_graph, lambda n: (0, -1, -2, -1)[n % 4]),
    "path": (1, lambda n: n, path_graph, None),
    "star": (1, lambda n: n, star_graph, None),
    "bipartite": (2, lambda m, n: m + n, complete_bipartite_graph,
                  lambda m, n: -(m % 2) - (n % 2)),
}


def _cmd_construct(args) -> int:
    name = args.family[0]
    try:
        params = [int(tok) for tok in args.family[1:]]
    except ValueError as exc:
        raise _UsageError(f"family parameters must be integers: {exc}") from exc
    if name not in _CONSTRUCTIONS:
        raise _UsageError(f"unknown family {name!r}")
    arity, order, build, closed_istdn = _CONSTRUCTIONS[name]
    if len(params) != arity:
        raise _UsageError(f"family {name} takes {arity} parameter(s)")
    # refused before it is built: cycle 10**6 alone would take gigabytes
    n = order(*params)
    if n > GRAPH6_MAX_N:
        raise _UsageError(
            f"family {name} {' '.join(map(str, params))} has {n} vertices, "
            f"above the graph6 limit {GRAPH6_MAX_N}"
        )
    try:
        g = build(*params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    print(write_graph6(g))
    if args.describe:
        info = {
            "family": name,
            "params": params,
            "n": g.n,
            "m": g.m,
            "min_degree": min_degree(g),
            "max_degree": max_degree(g),
        }
        if closed_istdn is not None:
            info["expected_istdn"] = closed_istdn(*params)
        print(json.dumps(info))
    return 0


def _cmd_enumerate(args) -> int:
    for _, t in _records(args):
        print(write_graph6(t))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, GraphFormatError) as exc:
        print(f"sigdom: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # never 1, which only _cmd_verify returns
        message = exc if isinstance(exc, _InternalError) else _internal(exc)
        print(f"sigdom: error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
