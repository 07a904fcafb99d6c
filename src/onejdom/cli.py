"""Command-line front end.

Subcommands: solve, construct, verify, gen, reduce.  All randomness flows
from explicit --seed flags and every machine-readable line is JSON with
sorted keys, so identical inputs and flags reproduce byte-identical
output.  Wall time goes to stderr only.

Exit codes: 0 ok / valid, 1 invalid set (verify), 2 parse error,
3 precondition failure, 4 size guard exceeded, 5 internal contradiction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import (InfeasibleProbabilityError, InternalContradictionError,
                     ParseError, PreconditionError, PremiseInfeasibleError,
                     SizeGuardError)
from .generators import gnp, random_regular, random_split, random_tree
from .graph import (Graph, SplitPartition, is_tree, numbered_lines, parse_edge_list,
                    write_edge_list)
from .lll import lll_params_for_graph, mt_trials
from .oracle import checked_witness, exact_gamma_1j, verify_1j_set
from .recognize import split_recognition
from .reduction import build_reduction, forward_witness, parse_ex3c
from .splitsolve import gamma_1j_split
from .treesolve import MLabeledTree, gamma_1j_tree, gamma_M

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

SCHEMA = 1


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph(path: str) -> tuple[Graph, str]:
    raw = _read_bytes(path)
    return parse_edge_list(raw), hashlib.sha256(raw).hexdigest()


def _read_ints(path: str, message: str) -> list[int]:
    """Whitespace-separated integers of a text file; any other token raises
    ParseError(message), where {exc} stands for the int() error."""
    toks = [tok for _, ln in numbered_lines(_read_bytes(path)) for tok in ln.split()]
    try:
        return [int(tok) for tok in toks]
    except ValueError as exc:
        raise ParseError(message.format(exc=exc)) from None


def _parse_labels(data: bytes, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lower = [None] * n
    upper = [None] * n
    for lineno, ln in numbered_lines(data):
        try:
            v, lo, hi = map(int, ln.split())  # a wrong count is a ValueError too
        except ValueError:
            raise ParseError("label line must be 'v lower upper'", lineno) from None
        if not 0 <= v < n:
            raise ParseError(f"vertex id {v} out of range", lineno)
        if lower[v] is not None:
            raise ParseError(f"duplicate label for vertex {v}", lineno)
        lower[v], upper[v] = lo, hi
    missing = [v for v in range(n) if lower[v] is None]
    if missing:
        raise ParseError(f"missing labels for vertices {missing[:5]}")
    return tuple(lower), tuple(upper)


def _parse_partition(data: bytes, n: int) -> SplitPartition:
    sides: dict[str, list[int]] = {}
    for lineno, ln in numbered_lines(data):
        if ":" not in ln:
            raise ParseError("partition line must look like 'K: 0 1 2'", lineno)
        tag, _, rest = ln.partition(":")
        tag = tag.strip().upper()
        if tag not in ("K", "S") or tag in sides:
            raise ParseError(f"unexpected partition tag {tag!r}", lineno)
        try:
            sides[tag] = [int(tok) for tok in rest.split()]
        except ValueError:
            raise ParseError("partition ids must be integers", lineno) from None
    if set(sides) != {"K", "S"}:
        raise ParseError("partition file needs one K: line and one S: line")
    for v in sides["K"] + sides["S"]:
        if not 0 <= v < n:
            raise ParseError(f"partition vertex id {v} out of range")
    return SplitPartition(frozenset(sides["K"]), frozenset(sides["S"]))


def cmd_solve(args) -> int:
    g, digest = _load_graph(args.graph)
    report: dict = {"schema": SCHEMA, "command": "solve", "argv": args.argv_echo,
                    "input_digest": digest}

    method = args.method
    part = None  # the split partition, once recognised
    if method == "auto":
        if args.budget is not None:
            method = "bnb"  # budgeted decision mode is an exact-engine feature
        elif is_tree(g):
            method = "tree"
        elif (part := split_recognition(g)) is not None:
            method = "split"
        else:
            method = "bnb"
    if args.budget is not None and method not in ("brute", "bnb"):
        raise PreconditionError("--budget applies only to the brute/bnb engines")
    if args.labels and method != "tree":
        raise PreconditionError("--labels applies only to the tree method")
    if args.partition and method != "split":
        raise PreconditionError("--partition applies only to the split method")
    report["method"] = method
    # auto mode has already checked; MLabeledTree checks again either way
    if args.method == "tree" and not is_tree(g):
        raise PreconditionError("method=tree requires a tree input")
    if args.labels:
        report["labels"] = "file"
    elif args.j is None:
        raise PreconditionError("--j is required without a label file" if method == "tree"
                                else "--j is required")
    else:
        report["j"] = args.j

    lower, upper = 1, args.j  # the bands the witness self-check applies
    if args.labels:
        lower, upper = _parse_labels(_read_bytes(args.labels), g.n)
        value, witness = gamma_M(MLabeledTree(g, lower, upper))
    elif method == "tree":
        value, witness = gamma_1j_tree(g, args.j)
    elif method == "split":
        if args.partition:
            part = _parse_partition(_read_bytes(args.partition), g.n)
        elif part is None:  # not recognised in auto mode: an explicit --method split
            part = split_recognition(g)
            if part is None:
                raise PreconditionError("method=split requires a split graph "
                                        "(recognition failed and no partition file given)")
        value, witness = gamma_1j_split(g, part, args.j)
    else:
        hit = exact_gamma_1j(g, args.j, engine=method, budget=args.budget, force=args.force)
        if args.budget is not None:
            report["budget"] = args.budget
        if hit is None:
            report["value"] = None
            report["infeasible_within_budget"] = True
            _emit(report)
            return EXIT_OK
        value, witness = hit

    witness = checked_witness(g, witness.vertices, lower, upper, f"{method} witness")
    report["value"] = value
    report["witness"] = witness.sorted()
    _emit(report)
    return EXIT_OK


def cmd_construct(args) -> int:
    g, digest = _load_graph(args.graph)
    params = lll_params_for_graph(g, args.j)  # raises with threshold if infeasible
    runs = mt_trials(g, args.j, args.seed, args.trials, max_resamples=args.max_resamples)
    bound = params.size_bound
    slack_bound = 1.25 * bound
    within = 0
    for i, run in enumerate(runs):
        size = run.size
        if run.terminated and size is not None and size <= slack_bound:
            within += 1
        _emit({
            "schema": SCHEMA,
            "command": "construct",
            "argv": args.argv_echo,
            "input_digest": digest,
            "trial": i,
            "seed": args.seed,
            "spawn_key": list(run.spawn_key),
            "terminated": run.terminated,
            "resamples": run.resample_count,
            "size": size,
            "valid": run.terminated,  # mt_trials verified every terminated run
            "bound": bound,
        })
    _emit({
        "schema": SCHEMA,
        "command": "construct-summary",
        "argv": args.argv_echo,
        "trials": args.trials,
        "terminated": sum(1 for r in runs if r.terminated),
        "bound": bound,
        "slack_bound": slack_bound,
        "fraction_within_slack": within / args.trials,
        "p": params.p,
        "alpha": params.alpha,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    g, digest = _load_graph(args.graph)
    vertices = _read_ints(args.set, "vertex set file must contain integers: {exc}")
    report = verify_1j_set(g, vertices, args.j)
    _emit({
        "schema": SCHEMA,
        "command": "verify",
        "argv": args.argv_echo,
        "input_digest": digest,
        "j": args.j,
        "set_size": len(set(vertices)),
        "valid": report.valid,
        "undominated": list(report.undominated),
        "overdominated": list(report.overdominated),
    })
    return EXIT_OK if report.valid else EXIT_INVALID


def _numbers(flag: str, toks: list[str], kinds: tuple) -> list:
    try:
        return [kind(tok) for kind, tok in zip(kinds, toks)]
    except ValueError as exc:
        raise ParseError(f"{flag}: {exc}") from None


def cmd_gen(args) -> int:
    chosen = [name for name in ("tree", "regular", "gnp", "split") if getattr(args, name)]
    if len(chosen) != 1:
        raise PreconditionError("choose exactly one family "
                                "(--tree / --regular / --gnp / --split)")
    family = chosen[0]
    part = None
    if family == "tree":
        (n,) = args.tree
        g = random_tree(n, args.seed)
        params = {"n": n}
    elif family == "regular":
        n, d = args.regular
        g = random_regular(n, d, args.seed)
        params = {"n": n, "d": d}
    elif family == "gnp":
        n, p = _numbers("--gnp", args.gnp, (int, float))
        g = gnp(n, p, args.seed)
        params = {"n": n, "p": p}
    else:
        n1, n2, p = _numbers("--split", args.split, (int, int, float))
        g, part = random_split(n1, n2, p, args.seed)
        params = {"n1": n1, "n2": n2, "p": p}

    text = write_edge_list(g)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = {
        "schema": SCHEMA,
        "command": "gen",
        "argv": args.argv_echo,
        "family": family,
        "params": params,
        "seed": args.seed,
        "n": g.n,
        "m": g.m,
        "path": args.output,
    }
    if part is not None:
        ppath = args.output + ".partition"
        with open(ppath, "w", encoding="utf-8") as fh:
            fh.write("K: " + " ".join(str(v) for v in sorted(part.clique)) + "\n")
            fh.write("S: " + " ".join(str(v) for v in sorted(part.independent)) + "\n")
        report["partition_path"] = ppath
    _emit(report)
    return EXIT_OK


def cmd_reduce(args) -> int:
    inst = parse_ex3c(_read_bytes(args.ex3c))
    artifact = build_reduction(inst, args.j)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_edge_list(artifact.graph))
    sidecar = args.output + ".roles.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({
            "schema": SCHEMA,
            "k": artifact.k,
            "j": artifact.j,
            "q": artifact.q,
            "t": artifact.t,
            "n": artifact.graph.n,
            "roles": [list(role) for role in artifact.roles],
        }, fh, sort_keys=True)
        fh.write("\n")
    report = {
        "schema": SCHEMA,
        "command": "reduce",
        "argv": args.argv_echo,
        "q": artifact.q,
        "t": artifact.t,
        "j": artifact.j,
        "k": artifact.k,
        "n": artifact.graph.n,
        "m": artifact.graph.m,
        "path": args.output,
        "roles_path": sidecar,
    }
    if args.emit_witness:
        cover = _read_ints(args.emit_witness, "cover file must contain integer triple indices")
        witness = forward_witness(artifact, [p - 1 for p in cover])  # cover files are 1-based
        wpath = args.output + ".witness"
        with open(wpath, "w", encoding="utf-8") as fh:
            fh.write(" ".join(str(v) for v in witness.sorted()) + "\n")
        report["witness_path"] = wpath
        report["witness_size"] = witness.cardinality
    _emit(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onejdom",
        description="Exact, tree, split, and randomized solvers for (1,j)-domination.",
        epilog="exit codes: 0 ok, 1 invalid set, 2 parse, 3 precondition, "
               "4 size guard, 5 internal contradiction")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="minimum (1,j)-set of a graph file")
    p.add_argument("graph")
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--method", choices=["auto", "brute", "bnb", "tree", "split"],
                   default="auto")
    p.add_argument("--labels", help="per-vertex band file 'v lower upper' (tree method)")
    p.add_argument("--partition", help="split partition file 'K: ids / S: ids'")
    p.add_argument("--budget", type=int, default=None,
                   help="report infeasibility if no set of this size exists")
    p.add_argument("--force", action="store_true", help="override size guards")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", help="randomized resampling constructor")
    p.add_argument("graph")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--max-resamples", type=int, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a vertex set against the (1,j) condition")
    p.add_argument("graph")
    p.add_argument("set", help="file of whitespace-separated vertex ids")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="seeded instance generators")
    p.add_argument("--tree", nargs=1, type=int, metavar="N")
    p.add_argument("--regular", nargs=2, type=int, metavar=("N", "D"))
    p.add_argument("--gnp", nargs=2, metavar=("N", "P"))
    p.add_argument("--split", nargs=3, metavar=("N1", "N2", "P"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="build the chordal hardness instance from an EX3C file")
    p.add_argument("--ex3c", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-witness", metavar="COVERFILE",
                   help="1-based triple indices of an exact cover; writes OUTPUT.witness")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv_echo = list(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PremiseInfeasibleError as exc:
        print(f"precondition: {exc} (threshold e*Gamma*g(Delta) = {exc.threshold:.4f})",
              file=sys.stderr)
        return EXIT_PRECONDITION
    except (PreconditionError, InfeasibleProbabilityError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        print(f"elapsed_seconds={time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
