import hashlib
import json
import math

import pytest

from onejdom import (Graph, InfeasibleProbabilityError, MTConfig,
                     PreconditionError, PremiseInfeasibleError,
                     complete_graph, compute_alpha, compute_alpha_bisect,
                     regular_graph_bound, f_alpha, feasibility_threshold,
                     g_delta, lll_params, lll_params_for_graph, mt_construct,
                     mt_trials, random_regular, s_alpha,
                     selection_probability, verify_1j_set)
from onejdom.errors import ResampleLimitError

E = math.e


def test_f_identities():
    assert f_alpha(0.0) == 0.0
    assert abs(f_alpha(E - 1) - 1.0) < 1e-12
    assert abs(f_alpha(1.0) - (2 * math.log(2) - 1)) < 1e-12
    with pytest.raises(PreconditionError):
        f_alpha(-0.1)


def test_s_transition():
    assert s_alpha(E - 1) == pytest.approx(1.0, abs=1e-12)
    for a in (0.1, 0.5, 1.0, E - 1.001):
        assert s_alpha(a) == pytest.approx(f_alpha(a))
        assert s_alpha(a) < 1.0
    for a in (E - 1 + 1e-9, 3.0, 10.0):
        assert s_alpha(a) == 1.0


def test_g_values_and_monotonicity():
    assert g_delta(1) == pytest.approx(1 + math.log(4), abs=1e-12)
    assert g_delta(10) == pytest.approx(math.log(2 * E * 101), abs=1e-12)
    previous = 0.0
    for d in range(1, 30):
        val = g_delta(d)
        assert val > previous
        previous = val


def test_compute_alpha_infeasible_region():
    # j+1 = 6 < e * g(10) ~ 17.15
    assert compute_alpha(5, 10, 10) is None
    assert compute_alpha_bisect(5, 10, 10) is None


def test_compute_alpha_closed_form():
    alpha = compute_alpha(20, 10, 10)
    assert alpha == pytest.approx(21 / g_delta(10) - 1, abs=1e-12)
    assert alpha == pytest.approx(2.32896, abs=1e-4)
    assert alpha >= E - 1


def test_compute_alpha_matches_bisection_grid():
    feasible = 0
    for dmax in range(2, 14):
        for dmin in range(1, dmax + 1):
            for j in (8, 14, 20, 30, 45, 70):
                closed = compute_alpha(j, dmax, dmin)
                bisected = compute_alpha_bisect(j, dmax, dmin)
                if closed is None:
                    assert bisected is None
                    continue
                feasible += 1
                assert abs(closed - bisected) < 1e-9
    assert feasible >= 50


def test_selection_probability_and_bound():
    p = selection_probability(12, 12, E)
    assert p == pytest.approx(g_delta(12) / 12, abs=1e-12)
    assert p == pytest.approx(0.5558, abs=1e-4)
    with pytest.raises(InfeasibleProbabilityError):
        selection_probability(3, 3, E)


def test_regular_graph_bound():
    threshold, reference = regular_graph_bound(100, 10)
    assert threshold == pytest.approx(E * g_delta(10), abs=1e-9)
    assert threshold == pytest.approx(17.1476, abs=1e-3)
    assert reference == pytest.approx(2 * 100 * math.log(10) / 10)
    d12, _ = regular_graph_bound(1, 12)
    assert d12 == pytest.approx(18.1306, abs=1e-3)
    previous = math.inf
    for d in range(3, 40):
        _, ref = regular_graph_bound(1, d)
        assert ref < previous
        previous = ref


def test_lll_params_bundle():
    params = lll_params(18, 500, 12, 12)
    assert params.gamma_ratio == 1.0
    assert params.p < 1.0
    assert params.size_bound == pytest.approx(500 * params.p)
    assert params.epsilon == pytest.approx(math.sqrt(12) / 12)
    with pytest.raises(PremiseInfeasibleError) as exc:
        lll_params(3, 100, 12, 12)
    assert exc.value.threshold == pytest.approx(feasibility_threshold(12, 12))


def test_mt_requires_no_isolated_vertices():
    with pytest.raises(PreconditionError, match="isolated"):
        mt_construct(Graph(3, [(0, 1)]), 18, MTConfig(seed=0))


def test_mt_complete_graph_terminates():
    # j >= Delta: the over-domination clause can never fire
    g = complete_graph(6)
    run = mt_construct(g, 13, MTConfig(seed=4))
    assert run.terminated
    assert verify_1j_set(g, run.result.vertices, 13).valid


def test_mt_transcripts_are_deterministic():
    g = random_regular(60, 12, 8)
    a = mt_construct(g, 18, MTConfig(seed=21))
    b = mt_construct(g, 18, MTConfig(seed=21))
    assert a == b
    c = mt_construct(g, 18, MTConfig(seed=22))
    assert c.result != a.result or c.resample_count != a.resample_count


def test_mt_trials_valid_and_within_slack():
    g = random_regular(120, 12, 8)
    runs = mt_trials(g, 18, 31, 12)
    assert len(runs) == 12
    bound = lll_params_for_graph(g, 18).size_bound
    for run in runs:
        assert run.terminated
        assert verify_1j_set(g, run.result.vertices, 18).valid
    within = sum(1 for r in runs if r.size <= 1.25 * bound)
    assert within >= 0.9 * len(runs)


def test_mt_resample_cap_reports_census():
    g = random_regular(40, 12, 9)
    # violations after the initial sample are rare under feasible parameters;
    # seed 1577 is a searched-for draw that leaves one, so a zero cap trips
    with pytest.raises(ResampleLimitError) as exc:
        mt_construct(g, 18, MTConfig(seed=1577, max_resamples=0))
    assert exc.value.run is not None
    assert not exc.value.run.terminated
    assert sum(exc.value.census.values()) > 0


def test_mt_recovers_from_seeded_violation():
    g = random_regular(40, 12, 9)
    run = mt_construct(g, 18, MTConfig(seed=1577))
    assert run.terminated
    assert run.resample_count >= 1
    assert verify_1j_set(g, run.result.vertices, 18).valid


def test_mt_randomized_clause_choice_still_valid():
    g = random_regular(60, 12, 8)
    run = mt_construct(g, 18, MTConfig(seed=3, randomized_clause_choice=True))
    assert run.terminated
    assert verify_1j_set(g, run.result.vertices, 18).valid


def test_mt_on_irregular_degrees():
    # unequal max/min degrees enter through the degree ratio; the premise
    # threshold grows accordingly and runs stay valid
    base = random_regular(120, 12, 77)
    edges = list(base.edges())
    for u, v in [(0, 2), (1, 3)]:
        if not base.has_edge(u, v):
            edges.append((u, v))
    g = Graph(120, edges)
    assert g.max_degree() == 13 and g.min_degree() == 12
    j = int(feasibility_threshold(13, 12)) + 1
    runs = mt_trials(g, j, 123, 8)
    for run in runs:
        assert run.terminated
        assert verify_1j_set(g, run.result.vertices, j).valid


def test_mt_trials_randomized_choice_pinned():
    # digest recorded before the array census replaced the per-vertex sweep; the
    # clause draw consumes generator output, so any change in the sweep order or
    # in the draws it makes shows here
    cases = [(random_regular(40, 12, 9), 18, 66, 40, None),
             (random_regular(40, 12, 9), 18, 1577, 12, 0),
             (random_regular(60, 12, 8), 18, 831, 30, None),
             (random_regular(60, 12, 8), 18, 939, 20, 0),
             (random_regular(300, 16, 2), 19, 7, 6, None)]
    rows = []
    for g, j, seed, trials, cap in cases:
        for run in mt_trials(g, j, seed, trials, max_resamples=cap,
                             randomized_clause_choice=True):
            rows.append([run.seed, list(run.spawn_key), run.max_resamples,
                         run.resample_count, run.terminated,
                         None if run.result is None else run.result.sorted()])
    assert any(r[3] for r in rows) and not all(r[4] for r in rows)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "6c533eafbf12e2fbf6437bbffb420ab64afc26f9db342b2525379a4cbb3090eb"


@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_resample_cap_is_precondition_error(cap):
    with pytest.raises(PreconditionError, match="max_resamples"):
        MTConfig(seed=0, max_resamples=cap)
    with pytest.raises(PreconditionError, match="max_resamples"):
        mt_trials(random_regular(40, 12, 9), 18, 1, 2, max_resamples=cap)
