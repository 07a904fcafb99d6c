"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 4's exhaustive-search clause is expected to fail: the
four-condition characterization provably has no witness on 10 or fewer
vertices for j = 2 (see the criterion's message and the supplementary
minimal-witness test), so the honest outcome of the search is "none found".
"""

import itertools
import json
import math
import random
import time

from conftest import all_trees, compute_alpha_bisect, gamma_n_split_example
from onejdom import (EX3CInstance, Graph, MLabeledTree, SplitPartition,
                     build_reduction, chordality_check, compute_alpha,
                     exact_gamma, exact_gamma_1j,
                     exact_gamma_M, f_alpha, feasibility_threshold,
                     forward_witness, gadget_lower_bounds, gamma_1j_split,
                     gamma_1j_tree, gamma_M, gnp, is_gamma_n_split,
                     lll_params_for_graph, mt_trials, random_regular,
                     random_split, random_tree, solve_ex3c_brute, verify_1j_set)
from onejdom.cli import main as cli_main


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1 -----------------------------------------------------------

def test_criterion_01_tree_exhaustive_equivalence():
    """Every labeled tree on 2..8 vertices, j in {1,2,3}: fold == oracle."""
    t0 = time.time()
    trees = 0
    for n in range(2, 9):
        for g in all_trees(n):
            trees += 1
            for j in (1, 2, 3):
                dp = gamma_1j_tree(g, j)[0]
                brute = exact_gamma_1j(g, j)[0]
                if dp != brute:
                    _report(1, False,
                            f"mismatch on n={n} tree {sorted(g.edges())} j={j}: "
                            f"fold {dp} vs oracle {brute}")
    elapsed = time.time() - t0
    _report(1, elapsed < 600,
            f"{trees} trees x 3 bands agree exactly in {elapsed:.0f}s (limit 600s)")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_02_labeled_tree_random_equivalence():
    rnd = random.Random(20_2)
    checked = 0
    for trial in range(200):
        n = rnd.randint(1, 14)
        g = random_tree(n, 51_000 + trial)
        lower, upper = [], []
        for _ in range(n):
            a = rnd.randint(0, 3)
            lower.append(a)
            upper.append(rnd.randint(a, 3))
        t = MLabeledTree(g, tuple(lower), tuple(upper))
        dp = gamma_M(t)[0]
        brute = exact_gamma_M(t)[0]
        if dp != brute:
            _report(2, False, f"trial {trial}: fold {dp} vs oracle {brute}")
        checked += 1
    _report(2, checked == 200, f"{checked} random labeled trees agree exactly")


# -- criterion 3 -----------------------------------------------------------

def _criterion3_instances():
    rnd = random.Random(30_3)
    for trial in range(300):
        n1 = rnd.randint(1, 8)
        n2 = rnd.randint(max(0, 2 - n1), 16 - n1)
        yield trial, random_split(n1, n2, rnd.uniform(0.1, 0.9), 62_000 + trial)


def test_criterion_03_split_equivalence():
    count = 0
    for trial, (g, part) in _criterion3_instances():
        for j in (1, 2, 3):
            value, witness = gamma_1j_split(g, part, j)
            brute = exact_gamma_1j(g, j)[0]
            if value != brute:
                _report(3, False, f"trial {trial} j={j}: split {value} vs oracle {brute}")
            if not verify_1j_set(g, witness.vertices, j).valid:
                _report(3, False, f"trial {trial} j={j}: witness failed verification")
        count += 1
    _report(3, count == 300,
            f"{count} random connected split graphs agree exactly for j in {{1,2,3}}")


# -- criterion 4 -----------------------------------------------------------

def test_criterion_04a_characterization_consistency():
    count = 0
    for trial, (g, part) in _criterion3_instances():
        if g.n > 14:
            continue
        for j in (1, 2, 3):
            value, _ = gamma_1j_split(g, part, j)
            if is_gamma_n_split(g, part, j).holds != (value == g.n):
                _report("4a", False, f"trial {trial} j={j}: conditions disagree with value")
        count += 1
    g, part = gamma_n_split_example()
    both_true = is_gamma_n_split(g, part, 2).holds and gamma_1j_split(g, part, 2)[0] == g.n
    _report("4a", both_true,
            f"conditions match (value == n) on {count} instances plus the n=12 witness")


def _conditions_fast(n1, nbhds, j=2):
    """Bitmask evaluation of the four conditions (clique size n1, S-masks)."""
    if any(bin(m).count("1") < j + 1 for m in nbhds):
        return False
    svec = [sum(1 for m in nbhds if (m >> v) & 1) for v in range(n1)]
    if not any(s >= j + 1 or s == 0 for s in svec):
        return False
    for pair in itertools.combinations(range(n1), j):
        pm = 0
        for v in pair:
            pm |= 1 << v
        if not any((m & pm) == 0 for m in nbhds):
            return False
    for v in range(n1):
        s1 = [m for m in nbhds if not ((m >> v) & 1)]
        if not any(vt != v and sum(1 for m in s1 if (m >> vt) & 1) >= j
                   for vt in range(n1)):
            return False
    return True


def _split_from_masks(n1, nbhds):
    edges = list(itertools.combinations(range(n1), 2))
    for si, m in enumerate(nbhds):
        for v in range(n1):
            if (m >> v) & 1:
                edges.append((v, n1 + si))
    g = Graph(n1 + len(nbhds), edges)
    part = SplitPartition(frozenset(range(n1)), frozenset(range(n1, g.n)))
    return g, part


def test_criterion_04b_exhaustive_witness_search_n10():
    """Exhaustive scan of split graphs with n <= 10 for a j=2 witness.

    Vertices of the independent side with degree below j+1 fail condition
    (iv) outright, so only neighborhood multisets over >=3-subsets of the
    clique can qualify; those are scanned in full.  The scan finds nothing,
    and nothing can exist: condition (iii) needs every clique pair jointly
    missed by an independent vertex, yet with (iv) the miss-sets have at
    most n1-3 elements, and n2 * C(n1-3, 2) < C(n1, 2) for every n1 + n2
    <= 10.  The smallest witness has 12 vertices (see criterion 4a).
    """
    spot = random.Random(40_4)
    scanned = 0
    found = []
    agree_checks = 0
    for n in range(2, 11):
        for n1 in range(1, n + 1):
            n2 = n - n1
            if n2 == 0:
                g, part = _split_from_masks(n1, ())
                scanned += 1
                if is_gamma_n_split(g, part, 2).holds:
                    found.append((n1, ()))
                continue
            eligible = [m for m in range(1, 1 << n1) if bin(m).count("1") >= 3]
            if not eligible:
                continue
            for combo in itertools.combinations_with_replacement(eligible, n2):
                scanned += 1
                if _conditions_fast(n1, combo):
                    found.append((n1, combo))
                elif spot.random() < 0.0005:
                    g, part = _split_from_masks(n1, combo)
                    assert not is_gamma_n_split(g, part, 2).holds
                    agree_checks += 1
    confirmed = []
    for n1, combo in found:
        g, part = _split_from_masks(n1, combo)
        if is_gamma_n_split(g, part, 2).holds and exact_gamma_1j(g, 2)[0] == g.n:
            confirmed.append((n1, combo))
    _report("4b", bool(confirmed),
            f"scanned {scanned} eligible configurations "
            f"({agree_checks} spot-checked against the library evaluator): "
            f"{len(confirmed)} oracle-confirmed witnesses with n <= 10 exist "
            f"(provably none can; the smallest has n = 12)")


# -- criterion 5 -----------------------------------------------------------

def test_criterion_05_analytic_layer():
    # hand-computed identity e*ln(e) - (e-1) = 1, then the library value
    if abs((math.e * math.log(math.e) - (math.e - 1)) - 1.0) >= 1e-12:
        _report(5, False, "hand computation of f(e-1) drifted")
    if abs(f_alpha(math.e - 1) - 1.0) >= 1e-12:
        _report(5, False, f"f(e-1) = {f_alpha(math.e - 1)!r}, off by >= 1e-12")
    feasible = infeasible = 0
    worst = 0.0
    for dmax in range(2, 16):
        for dmin in range(1, dmax + 1):
            for j in (4, 9, 15, 22, 33, 50, 80):
                closed = compute_alpha(j, dmax, dmin)
                bisected = compute_alpha_bisect(j, dmax, dmin)
                threshold = feasibility_threshold(dmax, dmin)
                if closed is None:
                    if bisected is not None:
                        _report(5, False, f"closed form infeasible but bisection found "
                                          f"alpha at (j={j}, {dmax}, {dmin})")
                    if j + 1 >= threshold:
                        _report(5, False, f"infeasible point above threshold (j={j})")
                    infeasible += 1
                else:
                    if j + 1 < threshold:
                        _report(5, False, f"feasible point below threshold (j={j})")
                    worst = max(worst, abs(closed - bisected))
                    feasible += 1
    ok = feasible >= 50 and infeasible >= 50 and worst < 1e-9
    _report(5, ok,
            f"f(e-1)=1 to 1e-12; {feasible} feasible points agree with bisection "
            f"to {worst:.2e} (<= 1e-9); {infeasible} infeasible points respect "
            f"the threshold")


# -- criterion 6 -----------------------------------------------------------

def _mt_batch(g, j, master_seed, slack_bound):
    runs = mt_trials(g, j, master_seed, 50)
    terminated = all(r.terminated for r in runs)
    valid = all(r.terminated and verify_1j_set(g, r.result.vertices, j).valid
                for r in runs)
    frac = sum(1 for r in runs if r.terminated and r.size <= slack_bound) / len(runs)
    return terminated, valid, frac


def test_criterion_06_mt_constructor_regular_500():
    g = random_regular(500, 12, 60_666)
    params = lll_params_for_graph(g, 18)
    slack_bound = 1.25 * params.size_bound
    terminated, valid, frac = _mt_batch(g, 18, 77, slack_bound)
    attempts = 1
    if not (terminated and valid and frac >= 0.90):
        # statistical criterion: one rerun with a fresh master seed allowed
        terminated, valid, frac = _mt_batch(g, 18, 78, slack_bound)
        attempts = 2
    ok = terminated and valid and frac >= 0.90
    _report(6, ok,
            f"50 trials (attempt {attempts}): all terminated={terminated}, "
            f"all valid={valid}, {frac:.0%} of sizes <= {slack_bound:.1f} "
            f"(= 1.25 * n * p, p = {params.p:.4f})")


# -- criterion 7 -----------------------------------------------------------

def test_criterion_07_sandwich_and_vacuous_band():
    rnd = random.Random(70_7)
    checked = 0
    while checked < 200:
        n = rnd.randint(3, 16)
        g = gnp(n, rnd.uniform(0.1, 0.6), 71_000 + checked * 7 + n)
        if g.max_degree() == 0:
            continue
        gamma = exact_gamma(g)
        v1 = exact_gamma_1j(g, 1, engine="bnb")[0]
        v2 = exact_gamma_1j(g, 2, engine="bnb")[0]
        v3 = exact_gamma_1j(g, 3, engine="bnb")[0]
        if not gamma <= v3 <= v2 <= v1 <= n:
            _report(7, False, f"sandwich violated on n={n}: "
                              f"{gamma}, {v3}, {v2}, {v1}")
        vd = exact_gamma_1j(g, g.max_degree(), engine="bnb")[0]
        if vd != gamma:
            _report(7, False, f"j = max degree should collapse to gamma: "
                              f"{vd} != {gamma}")
        checked += 1
    _report(7, checked == 200, f"{checked} random graphs satisfy "
            "gamma <= g13 <= g12 <= g11 <= n and gamma(1,maxdeg) = gamma, exactly")


# -- criterion 8 -----------------------------------------------------------

def _yes_instances_q_le_2(count):
    rnd = random.Random(80_8)
    out = [(EX3CInstance(1, ((1, 2, 3),)), (0,)),
           (EX3CInstance(1, ((1, 2, 3), (1, 2, 3))), (0,))]
    while len(out) < count:
        elems = list(range(1, 7))
        rnd.shuffle(elems)
        planted = [tuple(sorted(elems[:3])), tuple(sorted(elems[3:]))]
        triples = list(planted)
        for _ in range(rnd.randint(0, 3)):
            triples.append(tuple(sorted(rnd.sample(range(1, 7), 3))))
        rnd.shuffle(triples)
        inst = EX3CInstance(2, tuple(triples))
        cover = tuple(sorted(inst.triples.index(tri) for tri in planted))
        if len(set(cover)) != 2:
            continue
        out.append((inst, cover))
    return out


def test_criterion_08_reduction_forward():
    count = 0
    for inst, cover in _yes_instances_q_le_2(20):
        art = build_reduction(inst, 2)
        expected_n = 4 * inst.t + 3 * inst.q + 3 * inst.q ** 2 * (1 + 3 * 2)
        if art.graph.n != expected_n:
            _report(8, False, f"vertex count {art.graph.n} != {expected_n}")
        if art.k != inst.t + inst.q + 3 * 2 * inst.q ** 2:
            _report(8, False, f"budget {art.k} mismatch")
        if any(art.graph.degree(art.v_id(p)) != 4 for p in range(inst.t)):
            _report(8, False, "triple vertex with degree != 4")
        witness = forward_witness(art, cover)
        if witness.cardinality != art.k:
            _report(8, False, f"witness size {witness.cardinality} != k = {art.k}")
        if not verify_1j_set(art.graph, witness.vertices, 2).valid:
            _report(8, False, "forward witness failed verification")
        if not chordality_check(art.graph).chordal:
            _report(8, False, "reduction output not chordal")
        count += 1
    _report(8, count == 20,
            f"{count} yes-instances: witness size == k, verified, chordal, counts exact")


# -- criterion 9 -----------------------------------------------------------

def test_criterion_09_reduction_reverse_gadget_scale():
    for j in (2, 3):
        for check in gadget_lower_bounds(j):
            if not check.holds:
                _report(9, False, f"gadget check {check.name} fails at j={j}: "
                                  f"{check.detail}")
    agreements = 0
    for triples in [((1, 2, 3),), ((1, 2, 3), (1, 2, 3))]:
        inst = EX3CInstance(1, triples)
        art = build_reduction(inst, 2)
        brute_yes = solve_ex3c_brute(inst) is not None
        hit = exact_gamma_1j(art.graph, 2, engine="bnb", budget=art.k)
        solver_yes = hit is not None
        if brute_yes != solver_yes:
            _report(9, False, f"yes/no disagreement on t={inst.t}")
        if hit is not None and hit[0] != art.k:
            _report(9, False, f"optimal value {hit[0]} != k = {art.k}")
        agreements += 1
    _report(9, agreements == 2,
            "gadget lower bounds hold exhaustively for j in {2,3}; "
            "budgeted search agrees with the cover solver on q=1 instances "
            "(value exactly k)")


# -- criterion 10 ----------------------------------------------------------

def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    graphs = {}
    commands = []
    for fam, flags in [("tree", ["--tree", "10"]),
                       ("regular", ["--regular", "36", "12"]),
                       ("gnp", ["--gnp", "14", "0.3"]),
                       ("split", ["--split", "4", "6", "0.5"])]:
        path = tmp_path / f"{fam}.edges"
        graphs[fam] = str(path)
        commands.append(["gen", *flags, "--seed", "9", "-o", str(path)])
    ex3c = tmp_path / "inst.ex3c"
    ex3c.write_text("1 1\n1 2 3\n", encoding="utf-8")
    cover = tmp_path / "cover.txt"
    cover.write_text("1\n", encoding="utf-8")
    setfile = tmp_path / "set.txt"
    red = tmp_path / "red.edges"

    mismatches = []
    reruns = 0
    for cmd in commands:
        c1, o1 = _run_cli(capsys, *cmd)
        blob1 = {p: open(p, "rb").read() for p in [cmd[-1]]}
        c2, o2 = _run_cli(capsys, *cmd)
        blob2 = {p: open(p, "rb").read() for p in [cmd[-1]]}
        if (c1, o1, blob1) != (c2, o2, blob2):
            mismatches.append(cmd)
        reruns += 1

    setfile.write_text("0 1 2 3 4 5 6 7 8 9\n", encoding="utf-8")
    later = [
        ["solve", graphs["tree"], "--j", "2"],
        ["solve", graphs["split"], "--j", "2", "--method", "split"],
        ["solve", graphs["gnp"], "--j", "2", "--method", "bnb"],
        ["solve", graphs["gnp"], "--j", "1", "--method", "brute", "--budget", "2"],
        ["verify", graphs["tree"], str(setfile), "--j", "3"],
        ["construct", graphs["regular"], "--j", "18", "--seed", "5", "--trials", "5"],
        ["reduce", "--ex3c", str(ex3c), "--j", "2", "-o", str(red),
         "--emit-witness", str(cover)],
    ]
    for cmd in later:
        c1, o1 = _run_cli(capsys, *cmd)
        c2, o2 = _run_cli(capsys, *cmd)
        if (c1, o1) != (c2, o2):
            mismatches.append(cmd)
        reruns += 1
        for line in o1.splitlines():
            json.loads(line)  # machine-readable: every stdout line is JSON

    _report(10, not mismatches,
            f"{reruns} commands rerun byte-identically "
            f"(failures: {[' '.join(c) for c in mismatches]})")
