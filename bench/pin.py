"""Pin the values the benchmark's checker compares against.

    python3 bench/pin.py            # rewrite bench/pinned.json
    python3 bench/pin.py --nodes 7  # per-graph search nodes for seed 7

Run from the repository root, on the commit whose outputs become the
reference.  It pins the summary lines of the corpus and trees workloads and
the five panel values of every panel graph for seeds 0..SEEDS-1; the
checker re-checks panels of other seeds by witnesses and identities only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import panel  # noqa: E402
from sigdom import (  # noqa: E402
    istdn,
    ktuple_total_domination,
    parse_graph6,
    st2in,
    stdn,
    total_domination,
)
from sigdom.cli import main as cli_main  # noqa: E402

SEEDS = 100
SOLVERS = {
    "istdn": istdn,
    "stdn": stdn,
    "st2in": st2in,
    "td": total_domination,
    "ktd": lambda g: ktuple_total_domination(g, 2),
}


def summary(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"sigdom {' '.join(argv)} exited {code}")
    last = json.loads(buf.getvalue().splitlines()[-1])
    if last["failures"]:
        raise SystemExit(f"sigdom {' '.join(argv)} reported failures")
    return last["summary"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, metavar="SEED",
                        help="print per-graph search nodes for SEED instead")
    args = parser.parse_args()
    if args.nodes is not None:
        for cls, g6 in panel.panel(args.nodes):
            g = parse_graph6(g6)
            nodes = {p: f(g).nodes_explored for p, f in SOLVERS.items()}
            print(json.dumps({"class": cls, "graph6": g6, "nodes": nodes}))
        return 0
    values: dict[str, list[int]] = {}
    for seed in range(SEEDS):
        for _, g6 in panel.panel(seed):
            if g6 not in values:
                g = parse_graph6(g6)
                values[g6] = [f(g).value for f in SOLVERS.values()]
    pins = {
        "corpus_summary": summary(["verify", "--suite", "all", "--input",
                                   str(ROOT / "data" / "connected_upto8.g6")]),
        "trees_summary": summary(["verify", "--suite", "all", "--trees-up-to", "14"]),
        "panel_params": list(SOLVERS),
        "panel_seeds": SEEDS,
        "panel": values,
    }
    write_pins(pins)
    return 0


def write_pins(pins: dict) -> None:
    """pinned.json with one panel graph per line, so a re-pin diffs by graph."""
    head = json.dumps({k: v for k, v in pins.items() if k != "panel"}, indent=1)
    rows = ",\n".join(f"  {json.dumps(g6)}: {json.dumps(row)}"
                      for g6, row in pins["panel"].items())
    (BENCH / "pinned.json").write_text(f'{head[:-2]},\n "panel": {{\n{rows}\n }}\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
