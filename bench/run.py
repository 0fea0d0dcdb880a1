"""The sigdom benchmark: three CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` each workload's CLI
invocations run as subprocesses, repeatedly until ``--seconds`` of them have
been measured, and the end-to-end metrics are medians over those
repetitions.  With ``--trace 1`` the same argv runs in-process through
``sigdom.cli.main`` with ``--jobs 1``: once untraced, then twice traced, and
the per-layer metrics come from the traced passes.  Every output record is
checked by the benchmark's own code.  The last line of stdout is the result;
the line before it stamps the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import panel as inputs
from check import TREE_CENSUS, Output, Tally, check_panel, check_verify, self_test

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
#: Inputs and outputs of this run only, removed when it ends.
RUN = WORK / f"run-{os.getpid()}"

#: Mirrors the ``sigdom`` console script.
ENTRY = "import sys; from sigdom.cli import main; sys.exit(main())"
CORPUS = ROOT / "data" / "connected_upto8.g6"
PINNED = BENCH / "pinned.json"
SETUP_RUNS = 9
#: An invocation still running after this many seconds is killed and fails.
INVOCATION_TIMEOUT_S = 150
PANEL_PARAMS = [("istdn", 0), ("stdn", 0), ("st2in", 0), ("td", 1), ("ktd", 2)]


@dataclass
class Workload:
    """``invocations`` make one repetition; ``setup`` is the workload's own
    command on empty stdin, which must print ``setup_lines``."""

    invocations: list[list[str]]
    setup: list[str]
    setup_lines: list[str]
    check: Callable[[list[Output]], Tally]
    stamp: dict


def _write_lines(path: Path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return str(path.relative_to(ROOT))


def corpus(seed: int, pins: dict) -> Workload:
    """All 12112 connected graphs with n <= 8, in a seeded order and each
    under a seeded relabelling."""
    graphs = inputs.shuffled_corpus(CORPUS.read_text(encoding="ascii").split(), seed)
    path = _write_lines(RUN / "corpus.g6", graphs)
    return Workload(
        [["verify", "--suite", "all", "--input", path, "--jobs", "1"]],
        ["verify", "--suite", "all", "--jobs", "1"],
        [json.dumps({"summary": {}, "failures": []})],
        lambda outs: check_verify(outs[0], pins["corpus_summary"], graphs=graphs),
        {"graphs": len(graphs)},
    )


def trees(seed: int, pins: dict) -> Workload:
    """All 5446 free trees with 2 <= n <= 14, built by the CLI itself; the
    only workload on the process-pool path.  The seed has nothing to vary."""
    return Workload(
        [["verify", "--suite", "all", "--trees-up-to", "14", "--jobs", "2"]],
        ["verify", "--suite", "all", "--jobs", "2"],
        [json.dumps({"summary": {}, "failures": []})],
        lambda outs: check_verify(outs[0], pins["trees_summary"], census=TREE_CENSUS),
        {"trees": sum(TREE_CENSUS.values())},
    )


def panel(seed: int, pins: dict) -> Workload:
    """The five parameters over a panel of 14- to 30-vertex graphs."""
    graphs = inputs.panel(seed)
    path = _write_lines(RUN / "panel.g6", [g6 for _, g6 in graphs])
    runs = [["compute", "--param", param, *(["--k", str(k)] if param == "ktd" else []),
             "--input", path] for param, k in PANEL_PARAMS]
    values = {g6: dict(zip(pins["panel_params"], row)) for g6, row in pins["panel"].items()}
    return Workload(
        runs,
        ["compute", "--param", "istdn"],
        [],
        lambda outs: check_panel(outs, PANEL_PARAMS, graphs, values),
        {"panel": [{"class": cls, "graph6": g6} for cls, g6 in graphs]},
    )


WORKLOADS = {"corpus": corpus, "trees": trees, "panel": panel}


# ---------------------------------------------------------------------------
# Untraced: subprocesses
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    out: Output
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str]) -> Measured:
    """Run one CLI invocation on empty stdin, through launch.py, and take its
    wall time and the CPU time and peak RSS of its whole process tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(RUN),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    stdout = RUN / "stdout.txt"
    launched = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(RUN / "empty"), str(stdout),
         str(RUN / "stderr.txt"), str(INVOCATION_TIMEOUT_S), "--",
         sys.executable, "-c", ENTRY, *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, text=True)
    usage = json.loads(launched.stdout)
    lines = stdout.read_text(encoding="ascii", errors="replace").splitlines()
    return Measured(Output(usage["returncode"], lines), usage["wall_s"], usage["cpu_s"],
                    usage["maxrss_kb"] / 1024)


def end_to_end(work: Workload, seconds: int) -> tuple[Tally, dict, dict]:
    tally = Tally()

    def setup() -> float:
        run = spawn(work.setup)
        tally.record(run.out.returncode == 0 and run.out.lines == work.setup_lines,
                     f"setup: exit {run.out.returncode}, {run.out.lines[:2]}")
        return run.wall_s

    setup()  # fills the bytecode cache, which a user's second run also finds
    setups = [setup() for _ in range(SETUP_RUNS)]
    reps = []
    while not reps or sum(r["wall_s"] for r in reps) < seconds:
        runs = [spawn(argv) for argv in work.invocations]
        outs = [run.out for run in runs]
        checked = work.check(outs)
        tally.add(checked)
        if not reps and not checked.failed:
            broken = self_test(work.check, outs)
            tally.record(broken is None, f"checker self-test: {broken}")
        reps.append({
            "wall_s": sum(run.wall_s for run in runs),
            "cpu_s": sum(run.cpu_s for run in runs),
            "peak_rss_mb": max(run.rss_mb for run in runs),
        })
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return tally, metrics, {"runs": len(reps), "setup_runs": len(setups),
                            "repetitions": reps, "setups_s": setups}


# ---------------------------------------------------------------------------
# Traced: in-process
# ---------------------------------------------------------------------------


def in_process(work: Workload, main) -> tuple[list[Output], float]:
    outs = []
    start = time.perf_counter()
    for argv in work.invocations:
        argv = list(argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        outs.append(Output(code, buf.getvalue().splitlines()))
    return outs, time.perf_counter() - start


def per_layer(work: Workload, name: str, seed: int) -> tuple[Tally, dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import sigdom.cli
    from spans import Tracer, layer_metrics, repeat_counts

    if Path(sigdom.__file__).resolve().parent != ROOT / "src" / "sigdom":
        raise RuntimeError(f"imported sigdom from {sigdom.__file__}, not {ROOT / 'src'}")
    tally = Tally()
    outs, untraced_s = in_process(work, sigdom.cli.main)
    tally.add(work.check(outs))
    passes = []
    for i in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            outs, traced_s = in_process(work, sigdom.cli.main)
        finally:
            tracer.uninstall()
        tally.add(work.check(outs))
        if i == 0:
            tracer.write_spans(WORK / f"spans-{name}-{seed}.tsv")
            records = sum(len(out.lines) for out in outs)
        passes.append((layer_metrics(tracer), repeat_counts(tracer), traced_s))
        tracer.spans.clear()
    (first, counts_a, traced_a), (second, counts_b, traced_b) = passes
    tally.record(counts_a == counts_b, "traced counts differ between two passes: "
                 f"{ {k: (v, counts_b.get(k)) for k, v in counts_a.items() if counts_b.get(k) != v} }")
    metrics = {key: ((value + second[key][0]) / 2, unit) if unit != "count" else (value, unit)
               for key, (value, unit) in first.items()}
    metrics["cli.records"] = (records, "count")
    overhead = (traced_a + traced_b) / 2 - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_s, "ratio")
    return tally, metrics, {"runs": 3, "untraced_s": untraced_s,
                            "traced_s": [traced_a, traced_b]}


# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    missing = [p for p in (ROOT / "src" / "sigdom" / "cli.py", CORPUS, PINNED) if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}; run from a sigdom checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    RUN.mkdir(parents=True)
    try:
        (RUN / "empty").write_bytes(b"")
        pins = json.loads(PINNED.read_text())
        work = WORKLOADS[args.workload](args.seed, pins)
        if args.trace:
            tally, metrics, detail = per_layer(work, args.workload, args.seed)
        else:
            tally, metrics, detail = end_to_end(work, args.seconds)
    finally:
        shutil.rmtree(RUN)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        **detail,
        **work.stamp,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamped = {"stamp": stamp, **result}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stamped, indent=1))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
