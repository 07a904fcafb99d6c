"""Spans around onejdom's public functions, installed from outside the package.

Every wrapped function is replaced at each module attribute that holds it
(the defining module, every module that imported it by name, and the
package namespace), so calls are recorded whichever caller makes them.
Nothing under src/ is edited. Spans are kept in memory and written out as
JSON lines when the run ends; per-layer self times are derived from them.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb


def _graph_size(a, k, r):
    return {"n": r.n, "m": r.m}


def _first_n(a, k, r):
    return {"n": a[0].n}


def _fold_tree(a, k, r):
    return {"n": a[0].n, "j": a[1] if len(a) > 1 else k.get("j")}


def _fold_labeled(a, k, r):
    return {"n": a[0].tree.n}


def _split_subsets(a, k, r):
    # clique subsets the trace-class scan visits: sum_{i=1..j} C(n1, i)
    n1, j = len(a[1].clique), a[2]
    return {"n1": n1, "j": j, "subsets": sum(comb(n1, i) for i in range(1, j + 1))}


def _mt_runs(a, k, r):
    return {"trials": len(r), "resamples": sum(run.resample_count for run in r),
            "terminated": sum(1 for run in r if run.terminated)}


# span name -> (module, attribute, attrs from (args, kwargs, result)) it wraps
WRAPPED = {
    "graph.parse": [("onejdom.graph", "parse_edge_list", _graph_size)],
    "recognize.is_tree": [("onejdom.graph", "is_tree", None)],
    "recognize.split": [("onejdom.recognize", "split_recognition", None)],
    "recognize.chordal": [("onejdom.recognize", "chordality_check", _first_n)],
    "treesolve.fold": [("onejdom.treesolve", "gamma_1j_tree", _fold_tree),
                       ("onejdom.treesolve", "gamma_M", _fold_labeled)],
    "treesolve.band_check": [("onejdom.treesolve", "m_band_violations", None)],
    "splitsolve.solve": [("onejdom.splitsolve", "gamma_1j_split", _split_subsets)],
    "splitsolve.gamma_n": [("onejdom.splitsolve", "is_gamma_n_split", _split_subsets)],
    "oracle.bnb": [("onejdom.oracle", "exact_gamma_1j", None)],
    "oracle.verify": [("onejdom.oracle", "verify_1j_set", None)],
    "lll.params": [("onejdom.lll", "lll_params_for_graph", None)],
    "lll.mt": [("onejdom.lll", "mt_trials", _mt_runs),
               ("onejdom.lll", "mt_construct", None)],
    "reduction.build": [("onejdom.reduction", "parse_ex3c", None),
                        ("onejdom.reduction", "build_reduction", None)],
    "reduction.witness": [("onejdom.reduction", "forward_witness", None)],
    "generators": [("onejdom.generators", name, None)
                   for name in ("random_tree", "gnp", "random_split", "random_regular")],
}


class Tracer:
    """Records (id, parent, name, op, start, end, attrs) for each wrapped call.

    Calls made while `op` is None (the output checks) pass through
    unrecorded, so only timed operations produce spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._wrappers: dict = {}     # id(original) -> (original, wrapper)
        self._installed: list = []    # (module, attribute, original)

    def wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [len(self.spans), self._stack[-1] if self._stack else -1,
                   name, self.op, 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every module attribute bound to a wrapped function."""
        import onejdom  # noqa: F401  (loads every submodule)

        if not self._wrappers:
            for name, entries in WRAPPED.items():
                for module, attr, attrs in entries:
                    fn = getattr(sys.modules[module], attr)
                    self._wrappers[id(fn)] = (fn, self.wrap(name, fn, attrs))
        for modname, module in list(sys.modules.items()):
            if modname != "onejdom" and not modname.startswith("onejdom."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, fn in self._installed:
            setattr(module, attr, fn)
        self._installed.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, op, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child_time = [0.0] * len(spans)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["dur"]
    for s in spans:
        # calls are sequential on one thread, so children never overlap
        s["self"] = s["dur"] - child_time[s["id"]]
    return spans
