"""Worker for run.py, started in a fresh interpreter with PYTHONPATH=src.

    child.py setup --workload W --seed S --work DIR --passes P [--spans FILE]
    child.py run   --workload W --seed S --work DIR --seconds T [--spans FILE]

`setup` writes the instance files P times and prints each pass's time, in
steps that each end with a file write.
`run` repeats whole rounds of the workload's operations from one closed-loop
caller for about T seconds of operation time (at least two rounds), then
checks every output and prints the timings. The first round calls the
operations in the order set-up gave them (a later operation of a group may
read a file an earlier one wrote); every later round calls them in an order
shuffled from the seed, so that each operation's calls are spread over the
run. With --spans, setup traces every pass, run alternates untraced and
traced rounds, and both write the spans of their traced work to FILE. Both
print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import numpy

import onejdom
import onejdom.cli
import workloads
from tracing import Tracer


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop of dict inserts and a sort."""
    start = time.perf_counter()
    table = {}
    for i in range(5000):
        table[i * 7919 % 5003] = (i, i + 1)
    sorted(table.items())
    return time.perf_counter() - start


class Speed:
    """reference_s() sampled between timed calls: how fast the machine ran.

    run.py divides each timed call by the median reference time sampled
    within WINDOW_S of it, so that the machine slowing down for a while
    does not show as the program slowing down.
    """

    WINDOW_S = 0.5

    def __init__(self):
        self.at: list[float] = []       # perf_counter() when each sample ended
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.seconds.append(reference_s())
            self.at.append(time.perf_counter())

    def around(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        return statistics.median(self.seconds[lo:hi])


class Steps:
    """A set-up pass timed in steps, each ended by a file write, with the
    machine's speed sampled between steps, outside them."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.spans: list[tuple[float, float]] = []  # (start, end) of each step
        self.start = time.perf_counter()

    def done(self) -> None:
        self.spans.append((self.start, time.perf_counter()))
        self.speed.sample()
        self.start = time.perf_counter()


def _setup(args) -> dict:
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    speed = Speed()
    speed.sample()
    passes = []
    for k in range(args.passes):
        gc.collect()
        if tracer:
            tracer.op = f"setup{k}"
        steps = Steps(speed)
        groups = workloads.setup(args.workload, args.seed, steps.done)
        steps.done()  # the rest of the pass, after its last file
        if tracer:
            tracer.op = None
        passes.append(steps.spans)
    with open("round.json", "w", encoding="utf-8") as fh:
        json.dump(groups, fh)
    if tracer:
        tracer.dump(args.spans)
    # per pass, (seconds, reference seconds around it) of each step
    return {"setup_steps": [[(end - start, speed.around(start, end)) for start, end in spans]
                            for spans in passes]}


class Runner:
    """Runs operations one at a time and keeps what the checks need."""

    def __init__(self, groups, seed: int):
        self.groups = groups
        self.ops = [op for group in groups for op in group]
        self.rng = random.Random(seed)
        self.speed = Speed()
        self.calls: list[tuple[int, float, bool, float]] = []  # (op index, seconds, traced,
                                                                #  perf_counter() at start)
        self.first: dict[int, tuple] = {}               # op index -> (code, output)
        self.repeat_mismatch: dict[int, int] = {}       # op index -> differing repeats

    @staticmethod
    def _call(op, main):
        if op["kind"] == "lib":
            return 0, workloads.LIBRARY_OPS[op["fn"]](**op["args"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op["argv"])
        return code, out.getvalue()

    def round(self, tracer: Tracer | None = None) -> float:
        """Run every operation once; return the seconds spent inside them."""
        main = onejdom.cli.main
        if tracer:
            tracer.install()
            main = tracer.wrap("cli.main", main)
        order = list(range(len(self.ops)))
        if self.first:
            self.rng.shuffle(order)
        busy = 0.0
        self.speed.sample()
        for idx in order:
            op = self.ops[idx]
            gc.collect()
            if tracer:
                tracer.op = str(idx)
            start = time.perf_counter()
            try:
                result = self._call(op, main)
            except Exception as exc:  # counted as a failed operation, never fatal
                result = ("exception", f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.op = None
            busy += elapsed
            self.speed.sample()
            self.calls.append((idx, elapsed, tracer is not None, start))
            if idx not in self.first:
                self.first[idx] = result
            elif result != self.first[idx]:
                self.repeat_mismatch[idx] = self.repeat_mismatch.get(idx, 0) + 1
        if tracer:
            tracer.uninstall()
        return busy

    def check(self) -> dict[int, str]:
        """Failure reason per operation index whose first output is wrong."""
        inputs = workloads.Inputs()
        bad: dict[int, str] = {}
        idx = 0
        for group in self.groups:
            ctx: dict = {}
            for op in group:
                code, out = self.first[idx]
                try:
                    workloads.check(op, code, out, inputs, ctx)
                except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                    bad[idx] = f"{type(exc).__name__}: {exc}"
                idx += 1
        return bad


def _run(args) -> dict:
    with open("round.json", encoding="utf-8") as fh:
        runner = Runner(json.load(fh), args.seed)
    untraced: list[float] = []
    traced: list[float] = []
    tracer = Tracer() if args.spans else None
    # whole rounds (untraced and traced ones alternating when tracing, so
    # drift in machine speed hits both alike) until their total is closest
    # to the time asked for; at least two rounds
    while True:
        untraced.append(runner.round())
        if tracer:
            traced.append(runner.round(tracer))
        done = sum(untraced) + sum(traced)
        step = done / len(untraced)
        if len(untraced) + len(traced) >= 2 and done + step / 2 >= args.seconds:
            break
    if tracer:
        tracer.dump(args.spans)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bad = runner.check()
    failed = sum(1 for idx, *_ in runner.calls if idx in bad)
    failed += sum(runner.repeat_mismatch.values())
    reasons = {runner.ops[i]["part"] + f"#{i}": why for i, why in list(bad.items())[:5]}
    reasons.update({runner.ops[i]["part"] + f"#{i}": f"{k} repeat(s) changed stdout"
                    for i, k in list(runner.repeat_mismatch.items())[:5]})
    return {
        "ops": [op["part"] for op in runner.ops],
        # (op index, seconds, traced, reference seconds around the call)
        "calls": [(idx, seconds, traced, runner.speed.around(start, start + seconds))
                  for idx, seconds, traced, start in runner.calls],
        "failed": failed,
        "reasons": reasons,
        "untraced_rounds_s": untraced,
        "traced_rounds_s": traced,
        "peak_rss_kb": peak_rss_kb,
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.spans:
        args.spans = os.path.abspath(args.spans)
    os.chdir(args.work)
    report = _setup(args) if args.mode == "setup" else _run(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
