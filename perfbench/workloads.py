"""The three workloads: seeded instance files, the operations run on them,
and the checks applied to every operation's output.

`setup(workload, seed)` writes the instance files into the current
directory and returns the round: a list of groups, each a list of
operations run back to back (a later operation of a group may read a file
an earlier one wrote, or check against its result). The same seed gives
the same files and the same round.

An operation is either a CLI call, `onejdom.cli.main(argv)`, or one of the
library calls in LIBRARY_OPS, which read an instance file the way a
library user would and call the public API. Both produce a string: the
CLI's stdout, or a JSON rendering of the library result. A check reads
that string and raises CheckFailed when it is wrong.
"""

from __future__ import annotations

import json

import numpy as np

import onejdom

WORKLOADS = ("tree-ladder", "exact-chordal", "construct-regular")


class CheckFailed(Exception):
    pass


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _cli(part, argv, check):
    return {"part": part, "kind": "cli", "argv": [str(a) for a in argv], "check": check}


def _lib(part, fn, check, **args):
    return {"part": part, "kind": "lib", "fn": fn, "args": args, "check": check}


# ---------------------------------------------------------------- tree-ladder

# (vertices, op specs per rung); each op gets its own Prufer tree. "jN" is
# `solve --j N` through auto mode, "labels" is `--method tree --labels` with
# wide bands. The rung counts weight the mix toward the small rungs.
TREE_RUNGS = (
    (100_000, ("j2",)),
    (10_000, ("j1", "j2", "j3", "labels") * 3 + ("j2", "labels")),
    (1_000, ("j1", "j2", "j3", "labels") * 10),
)
# trees small enough for the branch-and-bound cross-check (n <= 30)
TREE_TINY = ((24, "j1"), (26, "j2"), (28, "j3"), (30, "j2"))
BAND_UPPER_MAX = 8


def _tree_ladder(rng, write):
    groups = []
    specs = [(n, spec, n) for n, rung in TREE_RUNGS for spec in rung]
    specs += [(n, spec, "tiny") for n, spec in TREE_TINY]
    for idx, (n, spec, rung) in enumerate(specs):
        path = f"tree{idx}.edges"
        write(path, onejdom.write_edge_list(onejdom.random_tree(n, _seed(rng))))
        part = f"tree-{rung}-{spec}"
        if spec == "labels":
            lower = rng.integers(0, 2, size=n)
            upper = lower + rng.integers(1, BAND_UPPER_MAX, size=n)
            bands = f"tree{idx}.bands"
            write(bands, "".join(f"{v} {lower[v]} {upper[v]}\n" for v in range(n)))
            groups.append([_cli(part, ["solve", path, "--method", "tree", "--labels", bands],
                                {"type": "solve", "graph": path, "labels": bands})])
        else:
            j = int(spec[1:])
            groups.append([_cli(part, ["solve", path, "--j", j],
                                {"type": "solve", "graph": path, "j": j, "method": "tree"})])
    return groups


# -------------------------------------------------------------- exact-chordal

# one size, many graphs: a bnb call's time varies with the graph by a CV of
# about 0.55 at any n, so a few large graphs made throughput seed-dependent
BNB_SIZES = (26,) * 16
BNB_P = 0.15
# (n1, n2, edge probability, j); the small ones have n <= 30 for the
# cross-check. The tail falls among the six calls on the three alike
# (60, 3) graphs, whose costs are close, not between unlike operations.
SPLIT_CONFIGS = ((40, 80, 0.1, 4), (60, 120, 0.1, 3), (60, 120, 0.1, 3), (60, 120, 0.1, 3),
                 (80, 160, 0.1, 2), (50, 100, 0.1, 3),
                 (8, 16, 0.3, 2), (9, 18, 0.3, 3), (10, 20, 0.3, 2), (7, 14, 0.4, 3),
                 (6, 18, 0.4, 2), (10, 15, 0.3, 3), (8, 20, 0.3, 3), (12, 18, 0.2, 2),
                 (9, 12, 0.4, 2), (11, 19, 0.3, 4))
REDUCE_QS = (4, 5, 6, 7, 8)
BUDGET_TRIPLES = (2,) * 30  # q = 1 instances, t triples each
CHORDAL_SIZES = (1000, 1500, 2000)
REDUCTION_J = 2


def _planted_ex3c(rng, q: int, t: int):
    """EX3C instance with a planted exact cover; returns (instance, 1-based cover)."""
    perm = rng.permutation(3 * q) + 1
    cover = [tuple(sorted(int(e) for e in perm[3 * i:3 * i + 3])) for i in range(q)]
    extra = [tuple(sorted(int(e) for e in rng.choice(3 * q, 3, replace=False) + 1))
             for _ in range(t - q)]
    triples = cover + extra
    order = [int(i) for i in rng.permutation(t)]
    shuffled = tuple(triples[i] for i in order)
    planted = sorted(order.index(i) + 1 for i in range(q))
    return onejdom.EX3CInstance(q, shuffled), planted


def _exact_chordal(rng, write):
    groups = []
    for idx, n in enumerate(BNB_SIZES):
        path = f"bnb{idx}.edges"
        write(path, onejdom.write_edge_list(onejdom.gnp(n, BNB_P, _seed(rng))))
        groups.append([_cli("bnb", ["solve", path, "--method", "bnb", "--force", "--j", 2],
                            {"type": "solve", "graph": path, "j": 2})])
    for idx, (n1, n2, p, j) in enumerate(SPLIT_CONFIGS):
        path = f"split{idx}.edges"
        g, _ = onejdom.random_split(n1, n2, p, _seed(rng))
        write(path, onejdom.write_edge_list(g))
        part = "split-small" if n1 + n2 <= 30 else "split"
        groups.append([
            _cli(part, ["solve", path, "--j", j],
                 {"type": "solve", "graph": path, "j": j, "method": "split"}),
            _lib(part, "gamma_n", {"type": "gamma_n", "n": n1 + n2}, graph=path, j=j),
        ])
    for idx, q in enumerate(REDUCE_QS):
        inst, cover = _planted_ex3c(rng, q, 3 * q)
        ex3c, cov, out = f"ex3c{idx}.txt", f"ex3c{idx}.cover", f"reduced{idx}.edges"
        write(ex3c, onejdom.write_ex3c(inst))
        write(cov, " ".join(map(str, cover)) + "\n")
        groups.append([
            _cli("reduce", ["reduce", "--ex3c", ex3c, "--j", REDUCTION_J, "-o", out,
                            "--emit-witness", cov], {"type": "reduce", "graph": out}),
            _lib("reduce", "chordality", {"type": "chordality", "chordal": True}, graph=out),
        ])
    for idx, t in enumerate(BUDGET_TRIPLES):
        inst, _ = _planted_ex3c(rng, 1, t)
        art = onejdom.build_reduction(inst, REDUCTION_J)
        path = f"q1_{idx}.edges"
        write(path, onejdom.write_edge_list(art.graph))
        groups.append([_cli("budget", ["solve", path, "--j", REDUCTION_J, "--budget", art.k],
                            {"type": "solve", "graph": path, "j": REDUCTION_J,
                             "budget": art.k})])
    for idx, n in enumerate(CHORDAL_SIZES):
        path = f"sparse{idx}.edges"
        write(path, onejdom.write_edge_list(onejdom.gnp(n, 4.0 / n, _seed(rng))))
        groups.append([_lib("chordal-gnp", "chordality", {"type": "chordality", "chordal": False},
                            graph=path)])
    return groups


# ---------------------------------------------------------- construct-regular

# (n, d, construct calls on the graph, each with its own --seed); j sits at
# the feasibility threshold
REGULAR_GRAPHS = ((1000, 12, 6), (1000, 16, 6), (2000, 12, 5), (2000, 16, 5),
                  (5000, 12, 3), (5000, 16, 3), (20000, 12, 1), (20000, 16, 1))
THRESHOLD_J = {12: 18, 16: 19}
TRIALS = 8


def _construct_regular(rng, write):
    groups = []
    for idx, (n, d, calls) in enumerate(REGULAR_GRAPHS):
        path = f"regular{idx}.edges"
        write(path, onejdom.write_edge_list(onejdom.random_regular(n, d, _seed(rng))))
        j = THRESHOLD_J[d]
        for _ in range(calls):
            seed = _seed(rng)
            groups.append([_cli(f"construct-{n}-{d}",
                                ["construct", path, "--j", j, "--seed", seed, "--trials", TRIALS],
                                {"type": "construct", "graph": path, "j": j, "seed": seed,
                                 "trials": TRIALS})])
    return groups


_BUILDERS = {"tree-ladder": _tree_ladder, "exact-chordal": _exact_chordal,
             "construct-regular": _construct_regular}


def setup(workload: str, seed: int, after_write=None) -> list[list[dict]]:
    """Write the workload's instance files for `seed`; return its round.

    `after_write`, when given, is called after each file is written: the
    benchmark times set-up in the steps between these calls.
    """
    def write(path: str, text: str) -> None:
        _write(path, text)
        if after_write:
            after_write()

    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    groups = _BUILDERS[workload](rng, write)
    order = rng.permutation(len(groups))
    return [groups[int(i)] for i in order]


# ----------------------------------------------------------- library operations

def _lib_gamma_n(graph: str, j: int) -> str:
    g = onejdom.parse_edge_list(_read(graph))
    report = onejdom.is_gamma_n_split(g, onejdom.split_recognition(g), j)
    return json.dumps({"holds": report.holds, "failed": list(report.failed)})


def _lib_chordality(graph: str) -> str:
    result = onejdom.chordality_check(onejdom.parse_edge_list(_read(graph)))
    return json.dumps({"chordal": result.chordal,
                       "cycle": None if result.cycle is None else list(result.cycle)})


LIBRARY_OPS = {"gamma_n": _lib_gamma_n, "chordality": _lib_chordality}


# ------------------------------------------------------------------- checks

class Inputs:
    """Parsed instance files for the checks, read once each."""

    def __init__(self):
        self._graphs: dict[str, onejdom.Graph] = {}

    def graph(self, path: str) -> onejdom.Graph:
        if path not in self._graphs:
            self._graphs[path] = onejdom.parse_edge_list(_read(path))
        return self._graphs[path]


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _check_solve(c, report, inputs, ctx):
    g = inputs.graph(c["graph"])
    value, witness = report["value"], report["witness"]
    _require(value == len(witness), f"value {value} != witness size {len(witness)}")
    if "labels" in c:
        lower, upper = [0] * g.n, [0] * g.n
        for line in _read(c["labels"]).decode().split("\n"):
            if line:
                v, lo, hi = map(int, line.split())
                lower[v], upper[v] = lo, hi
        tree = onejdom.MLabeledTree(g, tuple(lower), tuple(upper))
        _require(not onejdom.m_band_violations(tree, witness), "witness leaves a band")
        return
    j = c["j"]
    _require(onejdom.verify_1j_set(g, witness, j).valid, "witness is not a (1,j)-set")
    if "method" in c:
        _require(report["method"] == c["method"], f"auto chose {report['method']}")
    if "budget" in c:
        _require(value == c["budget"], f"budgeted value {value} != k = {c['budget']}")
    if g.n <= 30 and c.get("method") in ("tree", "split"):
        bnb, _ = onejdom.exact_gamma_1j(g, j, engine="bnb")
        _require(value == bnb, f"{c['method']} value {value} != bnb value {bnb}")
    ctx["value"] = value


def _check_gamma_n(c, report, inputs, ctx):
    _require("value" in ctx, "no solved value to compare against")
    _require(report["holds"] == (ctx["value"] == c["n"]),
             f"holds={report['holds']} but value {ctx['value']}, n {c['n']}")


def _check_reduce(c, report, inputs, ctx):
    g = inputs.graph(c["graph"])
    with open(report["witness_path"], encoding="utf-8") as fh:
        witness = [int(tok) for tok in fh.read().split()]
    _require(report["witness_size"] == len(witness) == report["k"],
             f"witness size {report['witness_size']} vs k = {report['k']}")
    _require(onejdom.verify_1j_set(g, witness, report["j"]).valid,
             "forward witness is not a (1,j)-set")


def _check_chordality(c, report, inputs, ctx):
    _require(report["chordal"] == c["chordal"], f"chordal={report['chordal']}")
    cycle = report["cycle"]
    if not c["chordal"]:
        g = inputs.graph(c["graph"])
        k = len(cycle)
        _require(k >= 4 and len(set(cycle)) == k, f"bad cycle {cycle}")
        for a in range(k):
            for b in range(a + 1, k):
                adjacent = b == a + 1 or (a == 0 and b == k - 1)
                _require(g.has_edge(cycle[a], cycle[b]) == adjacent,
                         f"cycle {cycle} has a chord or a gap at ({cycle[a]}, {cycle[b]})")


def _check_construct(c, lines, inputs, ctx):
    trials = [ln for ln in lines if ln["command"] == "construct"]
    summary = [ln for ln in lines if ln["command"] == "construct-summary"]
    _require(len(trials) == c["trials"] and len(summary) == 1, "wrong number of lines")
    for ln in trials:
        _require(ln["terminated"] and ln["valid"] and isinstance(ln["size"], int),
                 f"trial {ln['trial']} did not produce a valid set")
    _require(summary[0]["terminated"] == c["trials"], "summary disagrees with trials")
    # the library reproduces trial 0, and its witness must verify
    g = inputs.graph(c["graph"])
    run = onejdom.mt_construct(g, c["j"], onejdom.MTConfig(seed=c["seed"], spawn_key=(0,)))
    _require(onejdom.verify_1j_set(g, run.result.vertices, c["j"]).valid,
             "library witness is not a (1,j)-set")
    _require(run.size == trials[0]["size"] and run.resample_count == trials[0]["resamples"],
             "library run of trial 0 disagrees with the CLI")


_CHECKS = {"solve": _check_solve, "gamma_n": _check_gamma_n, "reduce": _check_reduce,
           "chordality": _check_chordality, "construct": _check_construct}


def check(op: dict, code, out: str, inputs: Inputs, ctx: dict) -> None:
    """Raise CheckFailed unless the operation's output is correct.

    `ctx` carries results between the operations of one group.
    """
    _require(code == 0, f"exit code {code}")
    c = op["check"]
    if c["type"] == "construct":
        parsed = [json.loads(line) for line in out.splitlines()]
    else:
        parsed = json.loads(out)
    c = dict(c, **op.get("args", {}))
    _CHECKS[c["type"]](c, parsed, inputs, ctx)
