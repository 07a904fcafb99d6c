"""Cross-checks of the array neighbor-count paths against the list-based code
they replaced.

The references below are the former pure-Python `verify_1j_set`, the former
per-vertex violation sweep of the resampler, and the former
`m_band_violations`, kept here verbatim in substance as test-local oracles.
"""

import random

import numpy as np
import pytest

from onejdom import (Graph, MLabeledTree, MTConfig, PreconditionError,
                     complete_graph, gnp, m_band_violations, random_regular,
                     random_tree, verify_1j_set)
from onejdom.errors import ResampleLimitError
from onejdom.lll import DEFAULT_RESAMPLE_FACTOR, _mt_run


def _reference_verify(g, vertices, j):
    dset = frozenset(vertices)
    for v in dset:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex id {v} out of range")
    undominated, overdominated = [], []
    for v in range(g.n):
        if v in dset:
            continue
        c = len(dset & g.neighbor_set(v))
        if c == 0:
            undominated.append(v)
        elif c > j:
            overdominated.append(v)
    return (not undominated and not overdominated, tuple(undominated), tuple(overdominated))


def _reference_violations(g, in_d, cnt, j):
    out = []
    for v in range(g.n):
        if in_d[v]:
            continue
        if cnt[v] == 0:
            out.append(("dom", v))
        elif cnt[v] > j:
            out.append(("over", v))
    return out


def _reference_mt(g, j, p, config):
    """The former resampling loop: ("ok", resamples, set) or ("cap", resamples, census)."""
    n = g.n
    cap = config.max_resamples if config.max_resamples is not None else DEFAULT_RESAMPLE_FACTOR * n
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=config.spawn_key)))
    in_d = [bool(rng.random() < p) for _ in range(n)]
    cnt = [0] * n
    for v in range(n):
        if in_d[v]:
            for u in g.neighbors(v):
                cnt[u] += 1
    resamples = 0
    while True:
        violated = _reference_violations(g, in_d, cnt, j)
        if not violated:
            return ("ok", resamples, frozenset(v for v in range(n) if in_d[v]))
        if resamples >= cap:
            return ("cap", resamples, {
                "undominated": sum(1 for kind, _ in violated if kind == "dom"),
                "overdominated": sum(1 for kind, _ in violated if kind == "over")})
        kind, v = violated[0]
        if kind == "dom":
            clause = sorted((v, *g.neighbors(v)))
        else:
            clause = sorted((v, *[u for u in g.neighbors(v) if in_d[u]][: j + 1]))
        for w in clause:
            new = bool(rng.random() < p)
            if new != in_d[w]:
                delta = 1 if new else -1
                for u in g.neighbors(w):
                    cnt[u] += delta
                in_d[w] = new
        resamples += 1


def _reference_band_violations(t, vertices):
    sset = frozenset(vertices)
    bad = []
    for v in range(t.tree.n):
        if v in sset:
            continue
        c = len(sset & t.tree.neighbor_set(v))
        if not t.lower[v] <= c <= t.upper[v]:
            bad.append(v)
    return bad


def _graphs():
    yield Graph(0)
    yield Graph(1)
    yield Graph(6)  # isolated vertices only
    yield Graph(7, [(0, 1), (1, 2), (4, 5)])  # isolated vertices between and after edges
    yield complete_graph(6)
    for seed in range(40):
        n = seed % 17 + 2
        yield gnp(n, [0.08, 0.25, 0.5, 0.9][seed % 4], seed)
    yield random_regular(60, 12, 8)


def _vertex_sets(rnd, n):
    yield []
    yield range(n)
    for _ in range(6):
        yield [v for v in range(n) if rnd.random() < rnd.choice([0.1, 0.3, 0.6])]
    picks = [rnd.randrange(n) for _ in range(n)] if n else []
    yield picks + picks[: n // 2]  # duplicate ids
    yield iter(picks)  # a one-shot iterable


def test_csr_view_matches_neighbor_lists():
    for g in _graphs():
        indptr, indices = g.csr()
        assert indptr.dtype == indices.dtype == np.int32
        assert len(indptr) == g.n + 1 and len(indices) == 2 * g.m
        assert all(tuple(indices[indptr[v]:indptr[v + 1]].tolist()) == g.neighbors(v)
                   for v in range(g.n))
        assert g.csr()[0] is indptr and g.csr()[1] is indices
        assert not indptr.flags.writeable and not indices.flags.writeable


def test_verify_matches_reference():
    rnd = random.Random(5)
    checked = 0
    for g in _graphs():
        for vertices in _vertex_sets(rnd, g.n):
            vertices = list(vertices)
            for j in (1, 2, 3, 10**30):
                rep = verify_1j_set(g, vertices, j)
                assert (rep.valid, rep.undominated, rep.overdominated) == \
                    _reference_verify(g, vertices, j)
                assert type(rep.valid) is bool
                for field in (rep.undominated, rep.overdominated):
                    assert type(field) is tuple
                    assert all(type(v) is int for v in field)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("bad", [-1, 7, 8, 10**20, -10**20])
def test_verify_out_of_range_raises_like_reference(bad):
    g = Graph(7, [(0, 1), (1, 2)])
    for vertices in ([bad], [0, bad, 3], [bad, bad]):
        with pytest.raises(PreconditionError) as ours:
            verify_1j_set(g, vertices, 2)
        with pytest.raises(PreconditionError) as ref:
            _reference_verify(g, vertices, 2)
        assert str(ours.value) == str(ref.value)


def _outcome(g, j, p, config):
    try:
        run = _mt_run(g, j, p, config)
    except ResampleLimitError as exc:
        assert exc.run.resample_count == config.max_resamples and not exc.run.terminated
        assert f"(remaining violations: {exc.census})" in str(exc)
        assert all(type(c) is int for c in exc.census.values())
        return ("cap", exc.run.resample_count, exc.census)
    assert all(type(v) is int for v in run.result.vertices)
    return ("ok", run.resample_count, run.result.vertices)


def test_resampler_matches_reference_sweep():
    # low selection probabilities and small j leave many clauses violated at
    # once, so the lowest-id rule, both clause kinds, count updates and the
    # cap census are all exercised
    graphs = [random_regular(60, 12, 8), random_regular(30, 6, 2), gnp(40, 0.2, 3),
              Graph(9, [(0, 1), (1, 2), (2, 3), (5, 6)]), complete_graph(5)]
    kinds = set()
    for gi, g in enumerate(graphs):
        for seed in range(6):
            for j, p, cap in ((1, 0.15, 40), (2, 0.3, 200), (3, 0.5, 0), (4, 0.3, 500)):
                config = MTConfig(seed=seed, spawn_key=(gi,), max_resamples=cap)
                ours = _outcome(g, j, p, config)
                assert ours == _reference_mt(g, j, p, config)
                kinds.add(ours[0])
    assert kinds == {"ok", "cap"}


def test_band_violations_match_reference():
    rnd = random.Random(11)
    for seed in range(60):
        g = random_tree(rnd.randint(1, 40), seed)
        lower, upper = [], []
        for _ in range(g.n):
            a = rnd.randint(0, 3)
            lower.append(a)
            upper.append(rnd.randint(a, 4))
        t = MLabeledTree(g, tuple(lower), tuple(upper))
        for vertices in _vertex_sets(rnd, g.n):
            vertices = list(vertices) + [-1, g.n, g.n + 3]  # ids outside the tree
            ours = m_band_violations(t, vertices)
            assert ours == _reference_band_violations(t, vertices)
            assert all(type(v) is int for v in ours)


def test_band_violations_with_bands_beyond_int64():
    t = MLabeledTree(random_tree(9, 4), (0, 10**30, 0, 1, 0, 0, 2, 0, 1),
                     (2, 10**40, 2, 10**30, 5, 1, 3, 0, 10**25))
    rnd = random.Random(2)
    for vertices in _vertex_sets(rnd, 9):
        vertices = list(vertices)
        assert m_band_violations(t, vertices) == _reference_band_violations(t, vertices)
