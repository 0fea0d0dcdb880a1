import collections
import contextlib
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sigdom import cli, solvers
from sigdom.constructions import build_matched_multipartite
from sigdom.graphs import (
    cycle_graph,
    is_connected,
    is_regular,
    parse_graph6,
    path_graph,
    write_graph6,
)
from sigdom.solvers import ParameterResult, istdn, total_domination
from sigdom.verification import CHECK_IDS

DATA = Path(__file__).resolve().parent.parent / "data"
CUBIC = str(DATA / "cubic_upto10.g6")
HR4 = write_graph6(build_matched_multipartite(4))


def run_cli(capsys, monkeypatch, argv, stdin: str = ""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_layered_multipartite(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "hr", "2"])
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 4 and is_regular(g) == 2 and is_connected(g)


def test_construct_describe(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["construct", "--family", "prop41", "-2", "--describe"],
    )
    assert code == 0
    g6_line, info_line = out.strip().splitlines()
    info = json.loads(info_line)
    assert parse_graph6(g6_line).n == 18
    assert info["n"] == 18 and info["expected_istdn"] == -2


#: Families with an istdn closed form, and the parameters to test it on.
CLOSED_FORM_FAMILIES = {
    "complete": [[n] for n in range(2, 12)],
    "cycle": [[n] for n in range(3, 20)],
    "bipartite": [[m, n] for m in range(1, 6) for n in range(1, 6)],
    "hr": [[r] for r in range(2, 5)],
    "prop41": [[k] for k in range(-3, 8)],
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_FAMILIES))
def test_construct_describe_closed_forms(capsys, monkeypatch, family):
    for params in CLOSED_FORM_FAMILIES[family]:
        argv = ["construct", "--family", family, *map(str, params), "--describe"]
        code, out, _ = run_cli(capsys, monkeypatch, argv)
        assert code == 0
        g6_line, info_line = out.splitlines()
        expected = json.loads(info_line)["expected_istdn"]
        assert expected == istdn(parse_graph6(g6_line)).value, (family, params)


def test_construct_heawood_and_star(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "heawood"])
    assert code == 0 and parse_graph6(out.strip()).n == 14
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "star", "5"])
    assert code == 0 and parse_graph6(out.strip()).degree(0) == 4


def test_construct_bad_family(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--family", "moebius"])
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--family", "cycle", "2"])
    assert code == 2 and "cycle" in err
    code, _, err = run_cli(capsys, monkeypatch, ["construct", "--family", "hr", "1"])
    assert code == 2
    code, out, err = run_cli(capsys, monkeypatch, ["construct", "--family", "cycle", "x"])
    assert (code, out) == (2, "")
    assert err.startswith("sigdom: error: family parameters must be integers: ")
    code, out, err = run_cli(capsys, monkeypatch, ["construct", "--family", "cycle", "4", "5"])
    assert (code, out, err) == (2, "", "sigdom: error: family cycle takes 1 parameter(s)\n")
    # refused from the parameters alone, before anything is built
    for family in (["cycle", "1000000"], ["hr", "100"]):
        code, out, err = run_cli(capsys, monkeypatch, ["construct", "--family", *family])
        assert code == 2 and out == "" and "above the graph6 limit 62" in err


def test_construct_order_limit_is_graph6(capsys, monkeypatch):
    fits = {
        ("prop41", "19"): 61, ("prop41", "-6"): 54, ("hr", "4"): 48,
        ("heawood",): 14, ("complete", "62"): 62, ("bipartite", "31", "31"): 62,
        ("cycle", "62"): 62, ("path", "62"): 62, ("star", "62"): 62,
    }
    for family, n in fits.items():
        code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--family", *family])
        assert code == 0 and parse_graph6(out).n == n, family
    _, tree, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "prop41", "19"])
    _, out, _ = run_cli(capsys, monkeypatch, ["compute", "--param", "istdn"], stdin=tree)
    assert json.loads(out)["value"] == 19
    for family in (["prop41", "20"], ["prop41", "-7"], ["bipartite", "31", "32"],
                   ["complete", "63"]):
        code, out, err = run_cli(capsys, monkeypatch, ["construct", "--family", *family])
        assert code == 2 and out == "" and "above the graph6 limit 62" in err, family


def test_turan_is_sharp_on_hr4(capsys, monkeypatch):
    _, hr4, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "hr", "4"])
    code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--suite", "turan"], stdin=hr4)
    report, summary = map(json.loads, out.splitlines())
    assert code == 0
    assert (report["lhs"], report["rhs"], report["sharp"]) == (24, 24, True)
    assert summary["summary"]["turan"]["sharp"] == 1


def test_compute_istdn_from_stdin(capsys, monkeypatch):
    c8 = write_graph6(cycle_graph(8))
    code, out, _ = run_cli(
        capsys, monkeypatch, ["compute", "--param", "istdn"], stdin=c8 + "\n"
    )
    assert code == 0
    record = json.loads(out)
    assert record["param"] == "istdn" and record["value"] == 0
    assert record["graph_id"] == c8
    assert sorted(set(record["witness"])) == [-1, 1] and len(record["witness"]) == 8


def test_compute_ktd(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["compute", "--param", "ktd", "--k", "2"],
        stdin="C~\n",
    )
    assert code == 0
    record = json.loads(out)
    assert record["k"] == 2 and record["value"] == 3
    assert len(record["witness"]) == 3


def test_compute_k_flag_validation(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["compute", "--param", "ktd"], stdin="C~\n")
    assert code == 2 and "--k" in err
    code, _, err = run_cli(
        capsys, monkeypatch, ["compute", "--param", "istdn", "--k", "2"], stdin="C~\n"
    )
    assert code == 2
    # refused as a flag, not as a fault of the first record, or of no record
    for stdin in ("", "C~\n"):
        for jobs in ("1", "2"):
            code, _, err = run_cli(
                capsys, monkeypatch,
                ["compute", "--param", "ktd", "--k", "0", "--jobs", jobs], stdin=stdin,
            )
            assert code == 2 and "--k" in err


def test_compute_rejects_isolated_vertex(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["compute", "--param", "istdn"], stdin="A?\n")
    assert code == 2
    assert "isolated" in err and ":1" in err


def test_compute_names_the_empty_graph(capsys, monkeypatch):
    for jobs in ("1", "2"):
        code, _, err = run_cli(
            capsys, monkeypatch, ["compute", "--param", "td", "--jobs", jobs], stdin="?\n"
        )
        assert (code, err) == (2, "sigdom: error: <stdin>:1: empty graph has no degrees\n")


def test_compute_reports_parse_errors_with_line(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, monkeypatch, ["compute", "--param", "istdn"], stdin="A_\nA!\n"
    )
    assert code == 2 and ":2" in err


def test_compute_edgelist_format(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["compute", "--param", "istdn", "--format", "edgelist"],
        stdin="4\n0 1\n1 2\n2 3\n3 0\n",
    )
    assert code == 0 and json.loads(out)["value"] == 0


def test_pipe_composition(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["construct", "--family", "heawood"])
    assert code == 0
    code, out, _ = run_cli(
        capsys, monkeypatch, ["compute", "--param", "istdn"], stdin=out
    )
    assert code == 0 and json.loads(out)["value"] == -10


def test_enumerate(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["enumerate", "--trees-up-to", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(parse_graph6(line).n <= 4 for line in lines)
    code, out, _ = run_cli(capsys, monkeypatch, ["enumerate", "--trees-up-to", "2"])
    assert code == 0 and out.strip().splitlines() == ["A_"]
    code, _, err = run_cli(capsys, monkeypatch, ["enumerate", "--trees-up-to", "20"])
    assert code == 2 and "2..16" in err
    code, _, err = run_cli(capsys, monkeypatch, ["enumerate", "--trees-up-to", "1"])
    assert code == 2


def test_verify_trees_suite(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "t43", "--trees-up-to", "8"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failures"] == []
    assert summary["summary"]["t43"]["passed"] == 47
    assert len(lines) == 48  # one report per tree plus the summary


def test_verify_file_input(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "k5.g6"
    corpus.write_text("D~{\n")
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "t22", "--input", str(corpus)]
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["summary"]["t22"]["sharp"] == 1


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    from sigdom import verification

    monkeypatch.setitem(verification.CHECKS, "t22", lambda facts: (1, 0, False, False, ""))
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "t22"], stdin="A_\n"
    )
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failures"] == [{"check_id": "t22", "graph_id": "A_"}]


@pytest.mark.parametrize("source", [["--input", CUBIC], ["--trees-up-to", "9"]])
def test_verify_computes_each_fact_once_per_graph(capsys, monkeypatch, source):
    from sigdom import verification

    calls = collections.Counter()
    for name in ("istdn", "write_graph6", "clique_number", "tree_structure"):
        def counted(g, *args, _name=name, _real=getattr(verification, name), **kwargs):
            calls[_name, g] += 1
            return _real(g, *args, **kwargs)
        monkeypatch.setattr(verification, name, counted)
    code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--suite", "all", *source])
    assert code == 0
    graphs = {parse_graph6(json.loads(line)["graph_id"]) for line in out.splitlines()[:-1]}
    assert len(graphs) == (27 if source[0] == "--input" else 94)
    # a graph6 record is its own id; only a generated tree is encoded
    encodes = 0 if source[0] == "--input" else 1
    assert all(calls["write_graph6", g] == encodes and calls["istdn", g] == 1 for g in graphs)
    assert max(calls.values()) == 1


@pytest.mark.parametrize("argv", [["verify", "--suite", "all"], ["compute", "--param", "istdn"]])
def test_header_and_crlf_records_print_the_bare_ids(capsys, monkeypatch, tmp_path, argv):
    # the graph id is the record's text without its header and line end
    dressed = "".join(f">>graph6<<{line}\r\n" for line in Path(CUBIC).read_text().split())
    dressed_file = tmp_path / "dressed.g6"
    dressed_file.write_bytes(dressed.encode("ascii"))
    bare = run_cli(capsys, monkeypatch, [*argv, "--input", CUBIC])
    assert bare[0] == 0 and bare[1].count("\n") >= 27
    assert run_cli(capsys, monkeypatch, [*argv, "--input", str(dressed_file)]) == bare
    assert run_cli(capsys, monkeypatch, argv, stdin=dressed) == bare


def test_verify_has_no_r_flag(capsys, monkeypatch):
    # turan checks each graph at r = max(2, clique number), the strongest r
    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "turan", "--r", "2"])
    assert exc.value.code == 2
    assert "--r" in capsys.readouterr().err


def test_verify_jobs_matches_serial(capsys, monkeypatch):
    stdin = "\n".join(write_graph6(cycle_graph(n)) for n in (3, 4, 5, 6)) + "\n"
    code, serial, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "regular"], stdin=stdin
    )
    assert code == 0
    code, parallel, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "regular", "--jobs", "2"], stdin=stdin
    )
    assert code == 0
    assert serial == parallel


def test_compute_jobs_matches_serial(capsys, monkeypatch):
    stdin = "\n".join(write_graph6(cycle_graph(n)) for n in (3, 4, 5)) + "\n"
    _, serial, _ = run_cli(capsys, monkeypatch, ["compute", "--param", "td"], stdin=stdin)
    _, parallel, _ = run_cli(
        capsys, monkeypatch, ["compute", "--param", "td", "--jobs", "2"], stdin=stdin
    )
    assert serial == parallel


def test_byte_deterministic_output(capsys, monkeypatch):
    args = ["verify", "--suite", "all", "--trees-up-to", "5"]
    _, first, _ = run_cli(capsys, monkeypatch, args)
    _, second, _ = run_cli(capsys, monkeypatch, args)
    assert first == second


#: (argv, sha256 of its stdout), pinned when report lines stopped going
#: through json.dumps.  A change that moves an output byte re-pins here and
#: says why in CHANGES.md.
PINNED_STDOUT = [
    (["verify", "--suite", "all", "--input", str(DATA / "connected_upto8.g6")],
     "e86ced09cf9e4f62cc186ec2b5612a22bf3d347150e8939a0a556d7a5edc0f2a"),
    (["verify", "--suite", "all", "--input", CUBIC],
     "5c3a49086673b28ff23608c4011702eb691e84cd4ee33be857ec6fce04bfdb52"),
    (["verify", "--suite", "all", "--input", str(DATA / "quartic_5to9.g6")],
     "f90ff3e714458829f87b9dc790f3d29e18da91483bfa8b40a9f51865796284ad"),
    (["verify", "--suite", "all", "--trees-up-to", "9"],
     "3ac65b572f541264877f5fea710a88e1cd7431e57347c5739cbab0040e25e9cb"),
    (["compute", "--param", "istdn", "--input", CUBIC],
     "631fac470c82feb1969ce5c7147cc684158dae2f1e5667ff26cd299376df7111"),
    (["compute", "--param", "stdn", "--input", CUBIC],
     "a506cea833a526c9ebb1c106472cb79e9efba1a3e3234bcc94b72bbc6ebcfeed"),
    (["compute", "--param", "st2in", "--input", CUBIC],
     "a087dd034ebe9da66d8857cf6932374f4585c72d31ac425fca5c748167783d8b"),
    (["compute", "--param", "td", "--input", CUBIC],
     "e534f284acb121396250819aede398c3a254f01a4fce36ef1dec8221904692b2"),
    (["compute", "--param", "ktd", "--k", "2", "--input", CUBIC],
     "9ed2c9f92fb0f6a9a8c1031dab626cf00eb534c76b7967fc2769f0a11f16745e"),
    # construct's bytes: the other CLI tests compare construct with the
    # builders, so only these catch a drift in, e.g., hr's vertex numbering
    (["construct", "--family", "hr", "2", "--describe"],
     "6aa325b2b50fff01f49d9ea35da35e80bfaf15ea7738f1fd7f9814e0c5c5fc3a"),
    (["construct", "--family", "hr", "3", "--describe"],
     "349964ffb53488515d08573462cbfbcbfadf3a04c055753c3ccd6e39670bf731"),
    (["construct", "--family", "hr", "4", "--describe"],
     "3302e6858e0e1c2cb7b2db048ee14eead65d1a56040a85df800ddc7173aca935"),
    (["construct", "--family", "prop41", "-2", "--describe"],
     "5060fa9d0979f337e3b0c458a39b3e85e41975a51ea50f11027207eacdb36b6c"),
    (["construct", "--family", "prop41", "0", "--describe"],
     "2cc25fe831359596171e8ed8d1a11ffe70b9281fa28a97a891d735ba139d2322"),
    (["construct", "--family", "prop41", "3", "--describe"],
     "ccd944721c35b181eda3b0b8f1613005cb9e85fdad3095258b3ba4d08b9f5f6e"),
    (["construct", "--family", "heawood"],
     "73ee9f88ba51504a30c5676c5f0ffbf611c38d9618bfd71cbdd4f2596a6dd7f7"),
    (["construct", "--family", "complete", "5"],
     "04003765f09de2f4e929e50b225b2fff590e4f0b9106c3eab308682abdd60944"),
    (["construct", "--family", "cycle", "8"],
     "1328ec14109fb8b8aac06295645d04ab827de4f6cf4a83d5e24704384f235f35"),
    (["construct", "--family", "path", "5"],
     "eba05293b4acbf84a66fb5b571f9be862e44d28c931d4cb3d4bd75a92f19f6dd"),
    (["construct", "--family", "star", "5"],
     "86a7fdf7ad5b5f7bcd40c3d0e1e69725d06269d5a835cbae995f3b0d9ffebb62"),
    (["construct", "--family", "bipartite", "2", "3"],
     "4a5e598d08025fa1eb69c752d3b7d86ba442abd8dc713c521bfb25fe43a49b2a"),
]


def test_outputs_and_search_nodes_are_pinned(capsys, monkeypatch, connected_upto8):
    # the benchmark compares JSON values, not bytes; this catches a moved
    # byte, and the node sums catch a changed search order on the corpus
    for argv, digest in PINNED_STDOUT:
        code, out, _ = run_cli(capsys, monkeypatch, argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv
    nodes = [sum(solve(g).nodes_explored for g in connected_upto8)
             for solve in (istdn, total_domination)]
    assert nodes == [170_762, 60_915]


def test_mutually_exclusive_inputs(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "x.g6"
    corpus.write_text("A_\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["verify", "--suite", "t22", "--input", str(corpus), "--trees-up-to", "4"]
        )
    assert exc.value.code == 2


# (argv, stdin, location of the first bad record); {tmp} is a directory
# holding nonascii.g6, whose second line has UTF-8 bytes outside graph6.
CONTRACT_CASES = {
    "isolated-vertex": (["compute", "--param", "istdn"], "A_\nB_\n", "<stdin>:2"),
    "ktd-k-above-degree": (
        ["compute", "--param", "ktd", "--k", "5", "--input", CUBIC], "", f"{CUBIC}:1"
    ),
    # run under a budget of BUDGET_CASE_NODES; stdn(hr(4)) needs far more
    "search-node-budget": (["compute", "--param", "stdn"], HR4 + "\n", "<stdin>:1"),
    "edgelist-empty-graph": (
        ["verify", "--suite", "all", "--format", "edgelist"], "0\n", "<stdin>"
    ),
    # no check is stated for the empty graph, so every suite refuses it
    "edgelist-empty-graph-turan": (
        ["verify", "--suite", "turan", "--format", "edgelist"], "0\n", "<stdin>"
    ),
    "graph6-empty-graph-turan": (["verify", "--suite", "turan"], "A_\n?\n", "<stdin>:2"),
    "graph6-empty-graph-t43": (["verify", "--suite", "t43"], "A_\n?\n", "<stdin>:2"),
    "graph6-empty-graph-compute": (["compute", "--param", "td"], "A_\n?\n", "<stdin>:2"),
    "missing-input": (
        ["verify", "--suite", "all", "--input", "{tmp}/missing.g6"], "",
        "{tmp}/missing.g6",
    ),
    "non-ascii-input": (
        ["compute", "--param", "td", "--input", "{tmp}/nonascii.g6"], "",
        "{tmp}/nonascii.g6:2",
    ),
    "graph6-alphabet": (["compute", "--param", "td"], "A_\n\nA!\n", "<stdin>:3"),
    "graph6-padding": (["verify", "--suite", "t22"], "A_\nBx\n", "<stdin>:2"),
    "graph6-length": (["compute", "--param", "td"], "A_\nC~~\nA_\n", "<stdin>:2"),
    "edgelist-self-loop": (
        ["compute", "--param", "td", "--format", "edgelist"], "3\n0 0\n", "<stdin>"
    ),
    "edgelist-dangling": (
        ["compute", "--param", "td", "--format", "edgelist"], "3\n0 1 2\n", "<stdin>"
    ),
    "edgelist-not-integer": (
        ["verify", "--suite", "t22", "--format", "edgelist"], "x\n", "<stdin>"
    ),
    "edgelist-empty": (["compute", "--param", "td", "--format", "edgelist"], "", "<stdin>"),
    "edgelist-negative-count": (
        ["compute", "--param", "td", "--format", "edgelist"], "-1\n", "<stdin>"
    ),
    "edgelist-bad-endpoint": (
        ["verify", "--suite", "t22", "--format", "edgelist"], "2 0 x\n", "<stdin>"
    ),
    # refused before a graph is allocated: 10**9 vertices would need ~16 GB
    "edgelist-count-above-graph6": (
        ["compute", "--param", "td", "--format", "edgelist"], f"{10**9}\n", "<stdin>"
    ),
}


BUDGET_CASE_NODES = 1000


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_exit_code_contract(capsys, monkeypatch, tmp_path, case):
    argv, stdin, where = CONTRACT_CASES[case]
    if case == "search-node-budget":
        # the pool's workers are forked from this process, so they inherit it
        monkeypatch.setattr(solvers, "SEARCH_NODE_BUDGET", BUDGET_CASE_NODES)
    (tmp_path / "nonascii.g6").write_bytes("A_\ncaf\u00e9\n".encode("utf-8"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    where = where.replace("{tmp}", str(tmp_path))
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, monkeypatch, [*argv, "--jobs", jobs], stdin)
        assert code == 2
        assert err.startswith(f"sigdom: error: {where}: ") and err.count("\n") == 1
        runs.append((out, err))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
@pytest.mark.parametrize("command", [["compute", "--param", "td"], ["verify", "--suite", "all"]])
def test_closed_stdin_and_empty_input_name_exit_2(capsys, monkeypatch, command, fmt):
    for jobs in ("1", "2"):
        argv = [*command, "--format", fmt, "--jobs", jobs]
        # a process started with its stdin closed sees sys.stdin as None
        monkeypatch.setattr("sys.stdin", None)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "sigdom: error: <stdin>: standard input is closed\n")
        # an empty file name must not fall back to stdin
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n" if fmt == "graph6" else "2\n0 1\n"))
        assert cli.main([*argv, "--input", ""]) == 2
        assert capsys.readouterr() == (
            "", "sigdom: error: --input needs a file name, got ''\n")


@pytest.mark.parametrize("stdin", ["", "A_\n"])
@pytest.mark.parametrize("command", [["compute", "--param", "td"], ["verify", "--suite", "all"]])
def test_jobs_below_one_exits_2(capsys, monkeypatch, command, stdin):
    code, out, err = run_cli(capsys, monkeypatch, [*command, "--jobs", "0"], stdin)
    assert (code, out, err) == (2, "", "sigdom: error: --jobs must be >= 1\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "heawood"],
    ["compute", "--param", "td", "--jobs", "2"],
    ["verify", "--suite", "all", "--jobs", "1"],
    ["verify", "--suite", "all", "--jobs", "2"],
])
def test_a_closed_stdout_exits_0(capsys, monkeypatch, argv):
    stdin = "".join(g6 + "\n" for g6 in CORPUS_500[:20])
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_error_after_good_records_keeps_their_output(capsys, monkeypatch):
    stdin = "A_\nC~\nA!\n"
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["compute", "--param", "td", "--jobs", jobs], stdin
        )
        assert code == 2
        assert [json.loads(line)["graph_id"] for line in out.splitlines()] == ["A_", "C~"]


CORPUS_500 = (Path(CUBIC).parent / "connected_upto8.g6").read_text().splitlines()[:500]


# a failure far past the first pool batches: (argv, stdin lines, exit code,
# line of the failing record)
DEEP_FAILURES = {
    "malformed-line-501": (["verify", "--suite", "all"], CORPUS_500 + ["A!"], 2, 501),
    "isolated-vertex-line-501": (["compute", "--param", "td"], CORPUS_500 + ["A?"], 2, 501),
    "witness-line-300": (["compute", "--param", "td"], CORPUS_500, 3, 300),
}


@pytest.mark.parametrize("case", DEEP_FAILURES)
def test_jobs_match_serial_on_a_deep_failure(capsys, monkeypatch, case):
    argv, lines, exit_code, line = DEEP_FAILURES[case]
    if case == "witness-line-300":
        # the pool's workers are forked from this process, so they inherit it
        real, line_300 = cli._PARAM_SOLVERS["td"], parse_graph6(CORPUS_500[299])
        monkeypatch.setitem(cli._PARAM_SOLVERS, "td", lambda g: (
            ParameterResult(0, (), 0) if g == line_300 else real(g)))
    stdin = "".join(g6 + "\n" for g6 in lines)
    runs = [run_cli(capsys, monkeypatch, [*argv, "--jobs", jobs], stdin)
            for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == exit_code and err.startswith(f"sigdom: error: <stdin>:{line}: ")
    reports = len(CHECK_IDS) if argv[0] == "verify" else 1
    assert len(out.splitlines()) == reports * (line - 1)


def test_pool_reads_input_lazily(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pulled = 0

    def records():
        nonlocal pulled
        for i in range(10_000):
            pulled += 1
            yield f"<test>:{i + 1}", cycle_graph(3)

    run = cli._run(2, operator.attrgetter("n"), records())
    assert next(run) == 3
    run.close()
    assert 0 < pulled <= 2 * 2 * cli._BATCH_MAX


def test_pool_is_sized_by_the_cpu_count(capsys, monkeypatch):
    import concurrent.futures

    # (workers asked for, batches in flight, most batches in flight)
    asked, flight = [], [0, 0]

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            flight[0] -= 1
            return self.value

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            flight[0] += 1
            flight[1] = max(flight)
            return Done(fn(*args))

        def shutdown(self, cancel_futures=False):
            pass

    argv = ["verify", "--suite", "t43", "--trees-up-to", "9"]
    serial = run_cli(capsys, monkeypatch, [*argv, "--jobs", "1"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_cli(capsys, monkeypatch, [*argv, "--jobs", "1000000"]) == serial
    assert asked == [2] and flight[1] <= 2 * 2


def test_pool_sends_graphs_without_graph6(capsys, monkeypatch):
    encoded = []

    def counted(g):
        encoded.append(g)
        return write_graph6(g)

    # the workers fork after this patch, but count in their own memory
    monkeypatch.setattr(cli, "write_graph6", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, _ = run_cli(
        capsys, monkeypatch, ["verify", "--suite", "t43", "--trees-up-to", "9", "--jobs", "2"]
    )
    assert code == 0 and encoded == []


@pytest.mark.parametrize("source", [["--input", CUBIC], ["--trees-up-to", "9"]])
def test_pool_sends_back_no_report_objects(capsys, monkeypatch, source):
    from sigdom import verification

    def refuse(self, protocol):
        raise AssertionError("a CheckReport was pickled")

    argv = ["verify", "--suite", "all", *source]
    serial = run_cli(capsys, monkeypatch, [*argv, "--jobs", "1"])
    # the workers fork after this patch, so a report pickled there raises
    monkeypatch.setattr(verification.CheckReport, "__reduce_ex__", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert serial[0] == 0
    assert run_cli(capsys, monkeypatch, [*argv, "--jobs", "2"]) == serial


@pytest.mark.parametrize("jobs, stdin", [("2", ""), ("1", "C~\n")])
def test_no_pool_for_one_job_or_empty_input(jobs, stdin):
    script = ("import sys; from sigdom.cli import main; main(sys.argv[1:]); "
              "print('multiprocessing' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    ran = subprocess.run(
        [sys.executable, "-c", script, "verify", "--suite", "all", "--jobs", jobs],
        input=stdin, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert ran.stdout.splitlines()[-1] == "False"


def test_no_pool_on_one_cpu(capsys, monkeypatch):
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError("a pool started on one CPU")

    stdin = "".join(write_graph6(cycle_graph(n)) + "\n" for n in (3, 4, 5, 6))
    for argv in (["compute", "--param", "td"], ["verify", "--suite", "all"]):
        serial = run_cli(capsys, monkeypatch, [*argv, "--jobs", "1"], stdin)
        assert serial[0] == 0
        with monkeypatch.context() as patched:
            patched.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
            patched.setattr(os, "cpu_count", lambda: 1)
            assert run_cli(capsys, monkeypatch, [*argv, "--jobs", "2"], stdin) == serial


def test_runtime_loads_only_the_standard_library():
    # -S skips site, so no site-packages module, nor any .pth import, can load;
    # heavy modules are looked up before sysconfig, which may load them itself
    script = (
        "import sys\n"
        "from sigdom.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "heavy = sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules))\n"
        "import json, sysconfig\n"
        "stdlib = {sysconfig.get_path('stdlib'), sysconfig.get_path('platstdlib')}\n"
        "print(json.dumps([code, heavy, sorted(stdlib), sorted(\n"
        "    getattr(m, '__file__', None) or '' for m in list(sys.modules.values()))]))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    ran = subprocess.run(
        [sys.executable, "-S", "-c", script, "verify", "--suite", "all", "--input", CUBIC,
         "--jobs", "2"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    code, heavy, stdlib, files = json.loads(ran.stdout.splitlines()[-1])
    assert code == 0
    # dataclasses alone pulls in inspect and ast on every start
    assert heavy == []
    roots = [Path(p).resolve() for p in stdlib] + [src / "sigdom"]
    foreign = [f for f in files if f and not any(Path(f).resolve().is_relative_to(r)
                                                   for r in roots)]
    assert foreign == []
    assert any(f.endswith("sigdom/solvers.py") for f in files)


C4 = write_graph6(cycle_graph(4))
#: A witness of C4's optimum value that fails at a vertex: under (1, -1, 1, -1)
#: N(1) sums to 2 > 0, and no neighbour of 0 lies in {0, 2}.
BAD_C4_WITNESS = {
    "istdn": ParameterResult(0, (1, -1, 1, -1), 0),
    "td": ParameterResult(2, (0, 2), 0),
}


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("param", sorted(BAD_C4_WITNESS))
def test_witness_that_fails_its_recheck_exits_3(capsys, monkeypatch, command, param):
    from sigdom import verification

    real = cli._PARAM_SOLVERS[param]
    solve = lambda g: BAD_C4_WITNESS[param] if write_graph6(g) == C4 else real(g)
    monkeypatch.setitem(cli._PARAM_SOLVERS, param, solve)
    monkeypatch.setattr(verification, real.__name__, solve)
    argv = (["compute", "--param", param] if command == "compute"
            else ["verify", "--suite", "t22"])
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, monkeypatch, [*argv, "--jobs", jobs], f"C~\n{C4}\n")
        assert code == 3
        assert err == ("sigdom: error: <stdin>:2: internal error: WitnessError: "
                       f"{param} witness fails its re-check\n")
        assert [json.loads(line)["graph_id"] for line in out.splitlines()] == ["C~"]
        runs.append((out, err))
    assert runs[0] == runs[1]


def test_lemma42_labelling_that_fails_its_recheck_exits_3(capsys, monkeypatch):
    from sigdom import verification

    p4 = write_graph6(path_graph(4))
    # the minus set {0, 3} of (-1, 1, 1, -1): weight 0 = istdn(P4), but
    # N(0) = {1} sums to 1 > 0
    bad = 0b1001
    real = verification.scan_maximum_istdfs

    def scan_optima(g, visit, optimum):
        if write_graph6(g) != p4:
            real(g, visit, optimum)
        else:
            visit(bad)

    monkeypatch.setattr(verification, "scan_maximum_istdfs", scan_optima)
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            capsys, monkeypatch, ["verify", "--suite", "lemma42", "--jobs", jobs], f"C~\n{p4}\n")
        assert code == 3
        assert err == ("sigdom: error: <stdin>:2: internal error: WitnessError: "
                       "istdn witness fails its re-check\n")
        assert [json.loads(line)["graph_id"] for line in out.splitlines()] == ["C~"]
        runs.append((out, err))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("param", ["istdn", "ktd"])
def test_regular_identity_witness_that_fails_its_recheck_exits_3(capsys, monkeypatch, param):
    from sigdom import verification

    if param == "istdn":
        real = verification.optimize_signed
        solve = lambda g, name: (
            BAD_C4_WITNESS["istdn"] if write_graph6(g) == C4 and name == "istdn"
            else real(g, name))
        monkeypatch.setattr(verification, "optimize_signed", solve)
    else:
        real = verification.ktuple_chain
        chain = lambda g, k: (
            [BAD_C4_WITNESS["td"], *real(g, k)[1:]] if write_graph6(g) == C4 else real(g, k))
        monkeypatch.setattr(verification, "ktuple_chain", chain)
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            capsys, monkeypatch, ["verify", "--suite", "regular", "--jobs", jobs], f"C~\n{C4}\n")
        assert code == 3
        # the chain's first level, td, carries the bad witness
        name = "ktd (k=1)" if param == "ktd" else param
        assert err == ("sigdom: error: <stdin>:2: internal error: WitnessError: "
                       f"{name} witness fails its re-check\n")
        assert [json.loads(line)["graph_id"] for line in out.splitlines()] == ["C~", "C~"]
        runs.append((out, err))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_an_unexpected_exception_exits_3_at_its_record(capsys, monkeypatch, command):
    # not a ValueError: a fault of the program, which must not read as
    # exit 1, a violated relation
    from sigdom import verification

    real = cli._PARAM_SOLVERS["td"]

    def solve(g):
        if write_graph6(g) == C4:
            raise RuntimeError("stubbed fault")
        return real(g)

    monkeypatch.setitem(cli._PARAM_SOLVERS, "td", solve)
    monkeypatch.setattr(verification, "total_domination", solve)
    argv = (["compute", "--param", "td"] if command == "compute"
            else ["verify", "--suite", "t22"])
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, monkeypatch, [*argv, "--jobs", jobs], f"C~\n{C4}\nC~\n")
        assert code == 3
        assert err == "sigdom: error: <stdin>:2: internal error: RuntimeError: stubbed fault\n"
        assert [json.loads(line)["graph_id"] for line in out.splitlines()] == ["C~"]
        runs.append((out, err))
    assert runs[0] == runs[1]


def test_a_worker_that_dies_exits_3(capsys, monkeypatch):
    # as the out-of-memory killer would end it: the pool breaks, and no
    # record is to blame, so the error has no location
    parent, real = os.getpid(), cli._PARAM_SOLVERS["td"]

    def solve(g):
        if os.getpid() != parent and write_graph6(g) == C4:
            os._exit(9)
        return real(g)

    monkeypatch.setitem(cli._PARAM_SOLVERS, "td", solve)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(
        capsys, monkeypatch, ["compute", "--param", "td", "--jobs", "2"], f"C~\n{C4}\n")
    assert code == 3
    assert err.startswith("sigdom: error: internal error: BrokenProcessPool: ")
    assert err.count("\n") == 1
    assert all(json.loads(line)["graph_id"] == "C~" for line in out.splitlines())


_G6_CHARS = "".join(chr(c) for c in range(63, 127)) + " \n"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet=_G6_CHARS, max_size=40)))
def test_compute_on_arbitrary_text_exits_0_or_2(text):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(["compute", "--param", "td"])
    assert code in (0, 2)
    assert err.getvalue().startswith("sigdom: error: <stdin>:") == (code == 2)
