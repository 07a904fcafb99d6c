"""Analytic feasibility layer and the randomized resampling constructor.

The analytic pieces, with G = dmax/dmin:

    f(a) = (1+a) ln(1+a) - a          (Chernoff exponent)
    s(a) = min(1, f(a))
    g(D) = ln(2e(D^2 + 1))            (dependency-degree term)

A parameter j admits the one-shot random construction iff some a > 0
satisfies j+1 >= (1+a) * G * g(dmax) / s(a).  On (0, e-1) the right side
decreases toward e*G*g(dmax) (where f reaches 1) and increases above e-1,
so feasibility is exactly j+1 >= e*G*g(dmax) and the maximal a is

    a_max = (j+1) / (G * g(dmax)) - 1   (>= e-1 whenever feasible).

Each vertex then enters the set independently with probability
p = g(dmax) / (dmin * s(a_max)), and the expected-size yardstick is n*p.

The constructor resamples: a vertex v outside the set violates either the
domination clause over N[v] (no selected neighbor) or, when it has at
least j+1 selected neighbors, the clause over v plus the j+1 lowest-id
selected neighbors.  The clause family is never materialized; a violated
clause is synthesized from its vertex on demand, which preserves the
resampling semantics because exactly one failing clause's variables are
redrawn per step.  Moser and Tardos allow any rule for picking a violated
event; this one always resamples the clause of the lowest-id violated
vertex.  Note the over-domination clause contains v's own variable: the
bad event requires v itself to be unselected, so redrawing may equally
well fix the event by pulling v in.

The state is a selection mask and the selected-neighbor counts over the
CSR view.  Each step finds the violated vertices in one pass of the band
predicate with bands (1, j), in id order, and a flipped vertex updates the
counts along its neighbor slice; the pass is O(n), so a run that hits the
cap costs O(cap * n).  A terminated run's set passes the witness
self-check before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InfeasibleProbabilityError, InternalContradictionError,
                     PreconditionError, PremiseInfeasibleError,
                     ResampleLimitError)
from .graph import Graph, _outside_band, _selected_counts
from .oracle import Witness, check_j, checked_witness

DEFAULT_RESAMPLE_FACTOR = 1000


def f_alpha(alpha: float) -> float:
    if alpha < 0:
        raise PreconditionError("alpha must be nonnegative")
    return (1.0 + alpha) * math.log1p(alpha) - alpha


def s_alpha(alpha: float) -> float:
    return min(1.0, f_alpha(alpha))


def g_delta(delta_max: int) -> float:
    if delta_max < 1:
        raise PreconditionError("maximum degree must be at least 1")
    return math.log(2.0 * math.e * (delta_max * delta_max + 1))


def feasibility_threshold(delta_max: int, delta_min: int) -> float:
    """Minimum admissible j+1 for the premise: e * (dmax/dmin) * g(dmax)."""
    if not 1 <= delta_min <= delta_max:
        raise PreconditionError("need 1 <= delta_min <= delta_max")
    return math.e * (delta_max / delta_min) * g_delta(delta_max)


def compute_alpha(j: int, delta_max: int, delta_min: int) -> float | None:
    """Largest alpha satisfying the premise, or None when none exists."""
    check_j(j)
    if j + 1 < feasibility_threshold(delta_max, delta_min):
        return None
    gamma = delta_max / delta_min
    return (j + 1) / (gamma * g_delta(delta_max)) - 1.0


def selection_probability(delta_max: int, delta_min: int, alpha: float) -> float:
    p = g_delta(delta_max) / (delta_min * s_alpha(alpha))
    if p >= 1.0:
        raise InfeasibleProbabilityError(
            f"selection probability {p:.4f} >= 1 at degrees "
            f"({delta_max}, {delta_min}); use an exact method instead")
    return p


def regular_graph_bound(n: int, d: int) -> tuple[float, float]:
    """For d-regular graphs: (threshold on j, leading-order size yardstick).

    The yardstick 2 n ln(d) / d drops the vanishing-in-d correction and is
    a reference number, not a certified bound.
    """
    if d < 2:
        raise PreconditionError("regular bound needs d >= 2")
    return math.e * g_delta(d), 2.0 * n * math.log(d) / d


@dataclass(frozen=True)
class LLLParams:
    """Analytic bundle for one (graph shape, j) configuration."""

    j: int
    delta_max: int
    delta_min: int
    gamma_ratio: float
    alpha: float
    p: float
    size_bound: float
    epsilon: float


def lll_params(j: int, n: int, delta_max: int, delta_min: int) -> LLLParams:
    """Validate the premise and bundle every derived quantity."""
    alpha = compute_alpha(j, delta_max, delta_min)
    if alpha is None:
        thr = feasibility_threshold(delta_max, delta_min)
        raise PremiseInfeasibleError(
            f"no feasible alpha: j+1 = {j + 1} < threshold {thr:.4f}", thr)
    gamma = delta_max / delta_min
    rhs = (1.0 + alpha) * gamma * g_delta(delta_max) / s_alpha(alpha)
    if j + 1 < rhs - 1e-9:
        raise InternalContradictionError(
            f"maximized alpha violates the premise: {j + 1} < {rhs}")
    p = selection_probability(delta_max, delta_min, alpha)
    return LLLParams(
        j=j,
        delta_max=delta_max,
        delta_min=delta_min,
        gamma_ratio=gamma,
        alpha=alpha,
        p=p,
        size_bound=n * p,
        epsilon=math.sqrt(delta_min) / delta_max,
    )


def lll_params_for_graph(g: Graph, j: int) -> LLLParams:
    if g.n == 0:
        raise PreconditionError("empty graph")
    delta_min, delta_max = g.min_degree(), g.max_degree()
    if delta_min < 1:
        raise PreconditionError("graph has an isolated vertex (min degree 0)")
    return lll_params(j, g.n, delta_max, delta_min)


@dataclass(frozen=True)
class MTConfig:
    seed: int
    spawn_key: tuple[int, ...] = ()
    max_resamples: int | None = None  # defaults to 1000 * n at run time

    def __post_init__(self):
        if self.max_resamples is not None and self.max_resamples < 0:
            raise PreconditionError("max_resamples must be nonnegative")


@dataclass(frozen=True)
class MTRun:
    seed: int
    spawn_key: tuple[int, ...]
    max_resamples: int
    resample_count: int
    terminated: bool
    result: Witness | None

    @property
    def size(self) -> int | None:
        return None if self.result is None else self.result.cardinality


def mt_construct(g: Graph, j: int, config: MTConfig) -> MTRun:
    """Run the resampling constructor until no clause fails.

    Each step resamples the clause of the lowest-id violated vertex.
    Raises ResampleLimitError (with a violation census) if the cap is hit;
    a terminated run's witness always verifies.
    """
    return _mt_run(g, j, lll_params_for_graph(g, j).p, config)


def _mt_run(g: Graph, j: int, p: float, config: MTConfig) -> MTRun:
    """One resampling run at selection probability p (see the module docstring)."""
    n = g.n
    cap = config.max_resamples if config.max_resamples is not None else DEFAULT_RESAMPLE_FACTOR * n
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=config.spawn_key)))
    indptr, indices = g.csr()

    in_d = rng.random(n) < p  # the same doubles as n scalar draws
    cnt = _selected_counts(g, in_d)
    resamples = 0
    while True:
        violated = _outside_band(in_d, cnt, 1, j)
        if not len(violated):
            break
        if resamples >= cap:
            undominated = int(np.count_nonzero(cnt[violated] == 0))
            census = {"undominated": undominated,
                      "overdominated": len(violated) - undominated}
            run = MTRun(config.seed, config.spawn_key, cap, resamples, False, None)
            raise ResampleLimitError(
                f"no termination within {cap} resampling events "
                f"(remaining violations: {census})", run=run, census=census)
        v = violated[0]
        nbrs = indices[indptr[v]:indptr[v + 1]]
        if cnt[v]:  # over-dominated: v and its j+1 lowest-id selected neighbors
            nbrs = nbrs[in_d[nbrs]][: j + 1]
        for w in np.sort(np.append(nbrs, v)):
            new = rng.random() < p
            if new != in_d[w]:
                cnt[indices[indptr[w]:indptr[w + 1]]] += 1 if new else -1
                in_d[w] = new
        resamples += 1

    result = checked_witness(g, np.flatnonzero(in_d).tolist(), 1, j, "terminated resampling")
    return MTRun(config.seed, config.spawn_key, cap, resamples, True, result)


def mt_trials(g: Graph, j: int, master_seed: int, trials: int,
              max_resamples: int | None = None) -> list[MTRun]:
    """Independent runs, trial t drawing from spawn key (t) of the master seed.

    Runs that hit the cap are recorded with terminated=False instead of
    raising, so aggregate statistics always cover every trial.  The
    parameters are derived once for all trials.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    p = lll_params_for_graph(g, j).p
    runs: list[MTRun] = []
    for t in range(trials):
        cfg = MTConfig(seed=master_seed, spawn_key=(t,), max_resamples=max_resamples)
        try:
            runs.append(_mt_run(g, j, p, cfg))
        except ResampleLimitError as exc:
            runs.append(exc.run)
    return runs
