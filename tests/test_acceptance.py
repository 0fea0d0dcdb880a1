"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).
"""

import random
import time
from fractions import Fraction

from sigdom.constructions import (
    build_heawood,
    build_matched_multipartite,
    build_prescribed_weight_tree,
    floor_family_membership,
    leaf_floor,
    tree_structure,
)
from sigdom.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    min_degree,
    write_graph6,
)
from sigdom.solvers import (
    istdn,
    ktuple_chain,
    ktuple_total_domination,
    st2in,
    stdn,
    total_domination,
)
from sigdom.trees import free_trees
from sigdom.verification import evaluate_check
from oracles import brute_ktuple, brute_signed, random_connected_graph


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_tables():
    t0 = time.time()
    ok = True
    for n in range(2, 11):
        ok &= istdn(complete_graph(n)).value == (-2 if n % 2 == 0 else -1)
        ok &= total_domination(complete_graph(n)).value == 2
    cycle_table = {0: 0, 1: -1, 2: -2, 3: -1}
    for n in range(3, 17):
        ok &= istdn(cycle_graph(n)).value == cycle_table[n % 4]
        expected_td = -(-n // 2) + (1 if n % 4 == 2 else 0)
        ok &= total_domination(cycle_graph(n)).value == expected_td
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(1, "closed forms for complete graphs and cycles", ok, f"{elapsed:.1f}s")


def test_criterion_02_bipartite_table():
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            value = istdn(complete_bipartite_graph(m, n)).value
            if m % 2 == 0 and n % 2 == 0:
                ok &= value == 0
            elif m % 2 == 1 and n % 2 == 1:
                ok &= value == -2
            else:
                ok &= value == -1
    report(2, "complete bipartite closed forms for 1 <= m, n <= 6", ok)


def test_criterion_03_domination_upper_bound_corpus(connected_upto8):
    violations = sum(
        0 if evaluate_check("t22", g).holds else 1 for g in connected_upto8
    )
    # the corpus is canonically labelled, so sharpness on complete graphs and
    # cycles is asserted on freshly built copies (same graphs up to labels)
    sharp_ok = all(
        evaluate_check("t22", complete_graph(n)).sharp for n in range(2, 9)
    ) and all(
        evaluate_check("t22", cycle_graph(n)).sharp for n in range(3, 9)
    )
    ok = violations == 0 and sharp_ok
    report(
        3,
        "upper bound via total domination on all connected graphs n <= 8",
        ok,
        f"{len(connected_upto8)} graphs, {violations} violations",
    )


def test_criterion_04_clique_bound_sharpness():
    ok = True
    h2 = build_matched_multipartite(2)
    ok &= istdn(h2).value == 0
    # c = 1, radicand 9: bound = 4 - 2*(-1 + 3) = 0 exactly
    ok &= 0 == h2.n - Fraction(2, 1) * (-1 + 3)
    t0 = time.time()
    h3 = build_matched_multipartite(3)
    value = istdn(h3).value
    elapsed = time.time() - t0
    ok &= value == 6
    # c = 2, radicand 4 + 96 = 100: bound = 18 - 1.5*(-2 + 10) = 6 exactly
    ok &= 6 == h3.n - Fraction(3, 2) * (-2 + 10)
    # r = 4, n = 48: istdn = r(r-1)^2 - r(r-1) = 24, after one dive of 24
    # nodes, two for each of the 12 minus vertices it picks
    h4 = build_matched_multipartite(4)
    res = istdn(h4)
    ok &= (res.value, res.nodes_explored) == (24, 24) and 24 == 4 * 3**2 - 4 * 3
    # c = 3, radicand 9 + 432 = 441: bound = 48 - (4/3)*(-3 + 21) = 24 exactly
    ok &= 24 == h4.n - Fraction(4, 3) * (-3 + 21)
    ok &= elapsed < 60
    report(4, "layered multipartite graphs attain the clique-constrained bound",
           ok, f"n=18 solve {elapsed:.2f}s, n=48 after one dive")


def test_criterion_05_regular_identities(cubic_upto10, quartic_5to9):
    failures = 0
    for g in cubic_upto10 + quartic_5to9:
        rep = evaluate_check("regular_identities", g)
        if not (rep.applicable and rep.holds):
            failures += 1
    ok = failures == 0
    report(5, "signed/tuple identities on cubic and 4-regular corpora", ok,
           f"{len(cubic_upto10) + len(quartic_5to9)} graphs")


def test_criterion_06_regular_intervals(cubic_upto10, quartic_5to9):
    corpus = [cycle_graph(n) for n in range(3, 17)] + cubic_upto10 + quartic_5to9
    failures = 0
    sharp_sides = set()
    for g in corpus:
        rep = evaluate_check("regular_bounds", g)
        if not (rep.applicable and rep.holds):
            failures += 1
        if rep.sharp:
            if "upper" in rep.notes:
                sharp_sides.add(("upper", g.n, rep.graph_id))
            if "lower" in rep.notes:
                sharp_sides.add(("lower", g.n, rep.graph_id))
    c3 = write_graph6(cycle_graph(3))
    c4 = write_graph6(cycle_graph(4))
    ok = failures == 0
    ok &= ("upper", 4, c4) in sharp_sides
    ok &= ("lower", 3, c3) in sharp_sides
    report(6, "parity intervals for regular graphs, sharp at C3 and C4", ok,
           f"{len(corpus)} graphs, sharp hits {len(sharp_sides)}")


def test_criterion_07_cubic_floor(cubic_upto10):
    heawood = build_heawood()
    hw_value = istdn(heawood).value
    ok = hw_value <= -10
    ok &= Fraction(hw_value) < Fraction(-2 * 14, 3)
    for g in cubic_upto10:
        ok &= Fraction(istdn(g).value) >= Fraction(-2 * g.n, 3)
    report(7, "cubic floor holds everywhere except the 14-vertex exception",
           ok, f"exception istdn={hw_value}")


def test_criterion_08_leaf_condition_trees():
    count = 0
    failures = 0
    for n in range(2, 11):
        for t in free_trees(n):
            count += 1
            rep = evaluate_check("lemma42", t)
            if not (rep.applicable and rep.holds):
                failures += 1
    ok = failures == 0 and count == 200
    report(8, "half-the-leaves condition on all trees n <= 10", ok,
           f"{count} trees")


def test_criterion_09_tree_floor_characterization():
    t0 = time.time()
    count = 0
    failures = 0
    for n in range(2, 13):
        for t in free_trees(n):
            count += 1
            ts = tree_structure(t)
            floor = leaf_floor(ts)
            value = istdn(t).value
            member, _ = floor_family_membership(ts)
            if value < floor or (value == floor) != member:
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300 and count == 986
    report(9, "leaf floor with equality exactly on the structural family",
           ok, f"{count} trees, {elapsed:.1f}s")


def test_criterion_10_prescribed_weight_trees():
    ok = True
    worst = 0.0
    for k in range(-3, 5):
        t0 = time.time()
        t = build_prescribed_weight_tree(k)
        ok &= istdn(t).value == k
        worst = max(worst, time.time() - t0)
    ok &= worst < 60
    report(10, "prescribed-weight trees for k in -3..4", ok,
           f"max solve {worst:.2f}s")


def test_criterion_11_solver_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(200):
        g = random_connected_graph(rng, 3, 10)
        if istdn(g).value != brute_signed(g, "le", 0, True)[0]:
            mismatches += 1
        if stdn(g).value != brute_signed(g, "ge", 1, False)[0]:
            mismatches += 1
        if st2in(g).value != brute_signed(g, "le", 1, True)[0]:
            mismatches += 1
        for k in range(1, min_degree(g) + 1):
            if ktuple_total_domination(g, k).value != brute_ktuple(g, k):
                mismatches += 1
    ok = mismatches == 0
    report(11, "branch-and-bound equals exhaustive enumeration on 200 graphs",
           ok, f"{mismatches} mismatches")


def test_criterion_12_descent_chain(connected_upto8):
    checked = 0
    failures = 0
    for g in connected_upto8:
        delta = min_degree(g)
        if delta < 2:
            continue
        checked += 1
        values = [r.value for r in ktuple_chain(g, delta)]
        for prev, cur in zip(values, values[1:]):
            if cur < prev + 1:
                failures += 1
    ok = failures == 0
    report(12, "tuple domination minima ascend by one per level", ok,
           f"{checked} graphs with min degree >= 2")
