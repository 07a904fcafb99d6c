#!/usr/bin/env python3
"""onejdom benchmark: seeded workloads through the CLI and the public API.

    python3 perfbench/run.py --workload tree-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the checkout that holds this file. Each run
sets up the workload's instance files in one fresh interpreter, then runs
its operations in another, both with PYTHONPATH=src, so heap state and
peak memory stay per workload. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans) with --trace 1. The line
before it is the run's record (versions, seed, sample counts), which is
also written to perfbench/out/. `--workload all` prints every metric of
every workload as a table instead. See perfbench/README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import log10
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tree-ladder", "exact-chordal", "construct-regular")
SETUP_PASSES = 3
HELD_OUT_SEED = 4099   # confirm a claimed gain on this seed, never tune on it
TAIL_BEYOND = 10       # the tail is the highest sample with this many above it
# Seconds that child.reference_s() takes on the reference machine when that
# machine is not slowed by its neighbours (its fastest 5 % of calls take
# 1.9 ms there). Every time the benchmark reports is a measured time divided
# by the reference loop timed around it, times this.
REFERENCE_S = 0.002
RUN_LIMIT_S = 170      # the whole run must end within this


class BenchError(Exception):
    pass


def _child(mode: str, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "child.py"), mode, *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < 0:
        raise BenchError(f"need more than {TAIL_BEYOND} operations per round for the tail")
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def _normal(seconds: float, reference: float) -> float:
    """A measured time in seconds of the reference machine, unslowed."""
    return seconds / reference * REFERENCE_S


def end_to_end(setup: dict, run: dict) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts from untraced calls only.

    The machine the benchmark was tuned on is shared, and for tens of
    seconds at a time runs the same call 1.5x slower. A call's time divided
    by the reference loop timed around it does not follow those swings, so
    every time here is normalised that way (see REFERENCE_S); the record
    keeps the raw figures too.
    """
    per_op: dict[int, list[float]] = {}
    raw_op: dict[int, list[float]] = {}
    for idx, seconds, traced, reference in run["calls"]:
        if not traced:
            per_op.setdefault(idx, []).append(_normal(seconds, reference))
            raw_op.setdefault(idx, []).append(seconds)
    calls = sum(len(v) for v in per_op.values())
    # one sample per distinct operation (its median over the rounds), so the
    # percentiles do not depend on how many rounds fit into the run
    per_op_median = {idx: statistics.median(v) for idx, v in per_op.items()}
    latency = list(per_op_median.values())
    raw_latency = [statistics.median(v) for v in raw_op.values()]
    tail, pct = _tail(latency)
    metrics = {
        "setup_s": (statistics.median(sum(_normal(*step) for step in steps)
                                      for steps in setup["setup_steps"]), "s"),
        # operations per second of a round with every operation at its latency
        "instances_per_s": (len(latency) / sum(latency), "1/s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
    }
    share: dict[str, float] = {}
    for idx, seconds in per_op_median.items():
        part = run["ops"][idx]
        share[part] = share.get(part, 0.0) + seconds / sum(latency)
    samples = {"setup_s": len(setup["setup_steps"]), "instances_per_s": calls,
               "time_share_by_part": {k: round(v, 3) for k, v in sorted(share.items())},
               "latency_p50_s": len(latency), "latency_tail_s": len(latency),
               "peak_rss_mb": 1, "latency_tail_percentile": round(pct, 2),
               "calls_per_operation": round(calls / len(latency), 2),
               "raw": {"setup_s": statistics.median(sum(seconds for seconds, _ in steps)
                                                    for steps in setup["setup_steps"]),
                       "instances_per_s": calls / sum(run["untraced_rounds_s"]),
                       "latency_p50_s": statistics.median(raw_latency),
                       "latency_tail_s": _tail(raw_latency)[0],
                       "reference_s": statistics.median(c[3] for c in run["calls"])}}
    return metrics, samples


def _ratio_per_10x(points: list[tuple[float, float]]) -> float:
    """Time ratio per 10x size, 10 ** (log-log slope) fitted to the median time
    at each size in the top decade of sizes; 0 with fewer than two sizes.

    On a ladder of 10x rungs this is the ratio of the two largest rungs.
    """
    by_size: dict[float, list[float]] = {}
    for size, seconds in points:
        by_size.setdefault(size, []).append(seconds)
    top = max(by_size, default=0)
    sizes = [size for size in by_size if size * 10.5 >= top]
    if len(sizes) < 2:
        return 0.0
    fit = statistics.linear_regression([log10(size) for size in sizes],
                                       [log10(statistics.median(by_size[size])) for size in sizes])
    return 10 ** fit.slope


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(setup: dict, setup_spans: list[dict], spans: list[dict],
              run: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced rounds.

    Times (`_s`) are self times in seconds per round and counts are per
    round, so neither depends on how many rounds fit into the run. Times are
    normalised as in end_to_end, by the median reference time of the traced
    calls (of the set-up passes for `generators.s`).
    """
    rounds = len(run["traced_rounds_s"])
    scale = _normal(1.0, statistics.median(c[3] for c in run["calls"] if c[2]))
    setup_scale = _normal(1.0, statistics.median(ref for steps in setup["setup_steps"]
                                                 for _, ref in steps))
    parts = run["ops"]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def of(name: str) -> list[dict]:
        return by_name.get(name, [])

    def self_s(*names: str) -> float:
        return sum(s["self"] for name in names for s in of(name)) * scale / rounds

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"][key] for s in of(name) if s["attrs"])

    def in_part(s: dict, prefix: str) -> bool:
        return parts[int(s["op"])].startswith(prefix)

    # fold self time per top-level fold call, with its nested gamma_M call
    fold_self = {s["id"]: s["self"] for s in of("treesolve.fold")}
    top_fold = []
    for s in of("treesolve.fold"):
        parent = s["parent"]
        if parent >= 0 and spans[parent]["name"] == "treesolve.fold":
            fold_self[parent] += s["self"]
        else:
            top_fold.append(s)
    tree_j2 = [(s["attrs"]["n"], fold_self[s["id"]]) for s in top_fold
               if s["attrs"].get("j") == 2 and not in_part(s, "tree-tiny")]
    tree_parse = [(s["attrs"]["m"], s["dur"]) for s in of("graph.parse")
                  if in_part(s, "tree-") and not in_part(s, "tree-tiny")]
    gnp_chordal = [(s["attrs"]["n"], s["dur"]) for s in of("recognize.chordal")
                   if in_part(s, "chordal-gnp")]
    subsets = attr_sum("splitsolve.solve", "subsets") + attr_sum("splitsolve.gamma_n", "subsets")
    trial_spans = [s for s in of("lll.mt") if s["attrs"]]
    trials = attr_sum("lll.mt", "trials")
    generators = [s for s in setup_spans if s["name"] == "generators"]
    # tracing overhead: median over operations of traced / untraced latency,
    # each normalised as in end_to_end
    latency: dict[tuple[int, bool], list[float]] = {}
    for idx, seconds, was_traced, reference in run["calls"]:
        latency.setdefault((idx, was_traced), []).append(_normal(seconds, reference))
    overhead = statistics.median(
        statistics.median(latency[idx, True]) / statistics.median(latency[idx, False])
        for idx in range(len(parts))) - 1.0

    def n(*names: str) -> int:
        return sum(len(of(name)) for name in names)

    table = [
        ("graph.parse_s", self_s("graph.parse"), "s", n("graph.parse")),
        ("graph.edges_per_s", _rate(attr_sum("graph.parse", "m"), self_s("graph.parse") * rounds),
         "1/s", n("graph.parse")),
        ("graph.parse_ladder_ratio", _ratio_per_10x(tree_parse), "ratio", len(tree_parse)),
        ("recognize.is_tree_s", self_s("recognize.is_tree"), "s", n("recognize.is_tree")),
        ("recognize.split_s", self_s("recognize.split"), "s", n("recognize.split")),
        ("recognize.chordal_s", self_s("recognize.chordal"), "s", n("recognize.chordal")),
        ("recognize.chordal_vertices_per_s",
         _rate(attr_sum("recognize.chordal", "n"), self_s("recognize.chordal") * rounds),
         "1/s", n("recognize.chordal")),
        ("recognize.chordal_ladder_ratio", _ratio_per_10x(gnp_chordal), "ratio",
         len(gnp_chordal)),
        ("treesolve.fold_s", self_s("treesolve.fold"), "s", len(top_fold)),
        ("treesolve.vertices_per_s",
         _rate(sum(s["attrs"]["n"] for s in top_fold), self_s("treesolve.fold") * rounds),
         "1/s", len(top_fold)),
        ("treesolve.band_check_s", self_s("treesolve.band_check"), "s",
         n("treesolve.band_check")),
        ("treesolve.ladder_ratio", _ratio_per_10x(tree_j2), "ratio", len(tree_j2)),
        ("splitsolve.solve_s", self_s("splitsolve.solve"), "s", n("splitsolve.solve")),
        ("splitsolve.gamma_n_s", self_s("splitsolve.gamma_n"), "s", n("splitsolve.gamma_n")),
        ("splitsolve.subsets", subsets / rounds, "count",
         n("splitsolve.solve", "splitsolve.gamma_n")),
        ("splitsolve.subsets_per_s",
         _rate(subsets, self_s("splitsolve.solve", "splitsolve.gamma_n") * rounds), "1/s",
         n("splitsolve.solve", "splitsolve.gamma_n")),
        ("oracle.bnb_s", self_s("oracle.bnb"), "s", n("oracle.bnb")),
        ("oracle.bnb_calls", n("oracle.bnb") / rounds, "count", n("oracle.bnb")),
        ("oracle.verify_s", self_s("oracle.verify"), "s", n("oracle.verify")),
        ("oracle.verify_calls", n("oracle.verify") / rounds, "count", n("oracle.verify")),
        ("lll.params_s", self_s("lll.params"), "s", n("lll.params")),
        ("lll.mt_s", self_s("lll.mt"), "s", n("lll.mt")),
        ("lll.trials_per_s", _rate(trials, sum(s["dur"] for s in trial_spans) * scale), "1/s",
         len(trial_spans)),
        ("lll.resamples", attr_sum("lll.mt", "resamples") / rounds, "count", len(trial_spans)),
        ("lll.terminated_frac", _rate(attr_sum("lll.mt", "terminated"), trials), "frac",
         len(trial_spans)),
        ("reduction.build_s", self_s("reduction.build"), "s", n("reduction.build")),
        ("reduction.witness_s", self_s("reduction.witness"), "s", n("reduction.witness")),
        ("cli.self_s", self_s("cli.main"), "s", n("cli.main")),
        ("generators.s", sum(s["self"] for s in generators) * setup_scale / SETUP_PASSES, "s",
         len(generators)),
        ("trace.overhead_frac", overhead, "frac", len(run["calls"])),
    ]
    metrics = {name: (value, unit) for name, value, unit, _ in table}
    samples = {name: count for name, _, _, count in table}
    samples["traced_rounds"] = rounds
    return metrics, samples


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    base = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    setup_spans = out / f"{stem}-setup-spans.jsonl"
    run_spans = out / f"{stem}-run-spans.jsonl"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = _child("setup", base + ["--passes", str(SETUP_PASSES)]
                       + (["--spans", str(setup_spans)] if trace else []), deadline)
        run = _child("run", base + ["--seconds", str(seconds)]
                     + (["--spans", str(run_spans)] if trace else []), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        from tracing import load_spans
        metrics, samples = per_layer(setup, load_spans(setup_spans), load_spans(run_spans), run)
    else:
        metrics, samples = end_to_end(setup, run)
    attempted = len(run["calls"])
    result = {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": int(trace), "commit": _commit(),
        "python": platform.python_version(), "numpy": run["numpy"], "nproc": os.cpu_count(),
        "failed_frac": run["failed"] / attempted, "failures": run["reasons"],
        "operations_per_round": len(run["ops"]),
        "rounds": {"untraced": len(run["untraced_rounds_s"]),
                   "traced": len(run["traced_rounds_s"])},
        "samples": samples, "result": result,
    }
    with open(out / f"{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "onejdom" / "__init__.py").is_file():
        print(f"perfbench: no onejdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, record = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
            print(json.dumps({"record": record}, sort_keys=True))
            print(json.dumps(result))
            return 0
        ok = True
        for workload in WORKLOADS:
            result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:18} {name:34} {metric['value']:14.6g} {metric['unit']}")
            print(f"{workload:18} {'failed_frac':34} {record['failed_frac']:14.6g} frac")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
