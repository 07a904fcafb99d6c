import hashlib
import json
import random

import pytest

from conftest import gamma_n_split_example
from onejdom import (EX3CInstance, Graph, PreconditionError, SplitPartition, Witness,
                     build_reduction, chordality_check, complete_graph, cycle_graph,
                     find_chordless_cycle, gamma_1j_split, gnp, path_graph,
                     random_split, random_tree, split_recognition, star_graph,
                     validate_split_partition)
from onejdom.recognize import lex_bfs


def _assert_chordless_cycle(g, cycle):
    # linear in the cycle's degrees: distinct vertices, consecutive ones
    # adjacent, and no vertex with a third neighbour on the cycle (a chord)
    k = len(cycle)
    assert k >= 4
    on_cycle = set(cycle)
    assert len(on_cycle) == k
    for i in range(k):
        assert g.has_edge(cycle[i], cycle[(i + 1) % k])
    for v in cycle:
        assert sum(1 for u in g.neighbors(v) if u in on_cycle) == 2


def _reference_lex_bfs(g):
    """Reference O(n(n + m)) refinement: every class is rebuilt after each
    visit, neighbours first, each part keeping its order."""
    if g.n == 0:
        return []
    classes = [list(range(g.n))]
    order = []
    while classes:
        head = classes[0]
        v = head.pop(0)
        if not head:
            classes.pop(0)
        order.append(v)
        nbrs = g.neighbor_set(v)
        refined = []
        for cls in classes:
            inside = [x for x in cls if x in nbrs]
            outside = [x for x in cls if x not in nbrs]
            if inside:
                refined.append(inside)
            if outside:
                refined.append(outside)
        classes = refined
    return order


def _random_reduction(q, j, seed):
    rng = random.Random(seed)
    triples = [tuple(rng.sample(range(1, 3 * q + 1), 3))
               for _ in range(q + rng.randrange(3))]
    return build_reduction(EX3CInstance(q, tuple(triples)), j).graph


def _tree_plus_edge(n, seed):
    # a random tree plus one random vertex pair: at most one cycle
    g = random_tree(n, seed)
    rng = random.Random(seed)
    u, w = rng.sample(range(n), 2)
    edges = set(g.edges()) | {(min(u, w), max(u, w))}
    return Graph(n, sorted(edges))


def _mixed_graphs(seed, count):
    """Seeded gnp (every density, n = 0 and 1 included), trees, split
    graphs, trees with one extra edge and small reduction graphs."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 10
        s = rng.randrange(10**6)
        if kind < 5:
            n = rng.choice([0, 1, 2]) if i % 50 == 0 else rng.randrange(3, 31)
            p = rng.choice([0.0, 0.03, 0.08, 0.15, 0.3, 0.5, 0.8, 1.0])
            yield gnp(n, p, s)
        elif kind < 7:
            yield random_tree(rng.randrange(1, 41), s)
        elif kind == 7:
            yield random_split(rng.randrange(1, 9), rng.randrange(0, 12),
                               rng.choice([0.1, 0.4, 0.8]), s)[0]
        elif kind == 8:
            yield _tree_plus_edge(rng.randrange(4, 30), s)
        else:
            yield _random_reduction(rng.randrange(1, 3), rng.randrange(2, 4), s)


def test_four_cycle_witness():
    res = chordality_check(cycle_graph(4))
    assert not res.chordal
    assert sorted(res.cycle) == [0, 1, 2, 3]
    _assert_chordless_cycle(cycle_graph(4), res.cycle)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 11])
def test_cycles_are_rejected(n):
    res = chordality_check(cycle_graph(n))
    assert not res.chordal
    _assert_chordless_cycle(cycle_graph(n), res.cycle)


def test_trees_are_chordal():
    for seed in range(20):
        g = random_tree(1 + seed, seed)
        res = chordality_check(g)
        assert res.chordal
        assert len(res.peo) == g.n


def test_split_graphs_are_chordal():
    for seed in range(20):
        g, _ = random_split(1 + seed % 5, seed % 7, 0.4, seed)
        assert chordality_check(g).chordal


def test_peo_property_holds():
    g = gnp(9, 0.2, 5)
    res = chordality_check(g)
    if res.chordal:
        pos = {v: i for i, v in enumerate(res.peo)}
        for v in res.peo:
            later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
            for i, a in enumerate(later):
                for b in later[i + 1:]:
                    assert g.has_edge(a, b)


def test_chordless_cycle_on_noisy_graphs():
    found_any = False
    for seed in range(30):
        g = gnp(10, 0.35, seed)
        res = chordality_check(g)
        if not res.chordal:
            found_any = True
            _assert_chordless_cycle(g, res.cycle)
            assert find_chordless_cycle(g) is not None
    assert found_any


def test_split_recognition_complete():
    part = split_recognition(complete_graph(4))
    assert part.clique == frozenset(range(4))
    assert part.independent == frozenset()


def test_split_recognition_c4_absent():
    assert split_recognition(cycle_graph(4)) is None


def test_split_recognition_path5_absent():
    assert split_recognition(path_graph(5)) is None


def test_split_recognition_star_tie_rule():
    g = star_graph(3)
    part = split_recognition(g)
    validate_split_partition(g, part)
    # the boundary leaf is eligible for either side and lands in the clique
    assert 0 in part.clique and len(part.clique) == 2


def test_split_recognition_single_vertex():
    part = split_recognition(Graph(1))
    assert part.clique == frozenset({0})


def test_split_recognition_random_splits():
    for seed in range(40):
        g, _ = random_split(1 + seed % 6, seed % 8, 0.3 + (seed % 3) * 0.2, seed)
        part = split_recognition(g)
        assert part is not None
        validate_split_partition(g, part)


def test_split_recognition_gamma_n_example():
    g, _ = gamma_n_split_example()
    part = split_recognition(g)
    assert part is not None
    validate_split_partition(g, part)


def _pairwise_split_check(g, part):
    """The former validate_split_partition: every pair of each side through has_edge."""
    k, s = part.clique, part.independent
    if k & s:
        raise PreconditionError("clique and independent set overlap")
    if k | s != frozenset(range(g.n)):
        raise PreconditionError("partition does not cover all vertices")
    kl = sorted(k)
    for i, u in enumerate(kl):
        for v in kl[i + 1:]:
            if not g.has_edge(u, v):
                raise PreconditionError(f"clique side misses edge ({u}, {v})")
    sl = sorted(s)
    for i, u in enumerate(sl):
        for v in sl[i + 1:]:
            if g.has_edge(u, v):
                raise PreconditionError(f"independent side contains edge ({u}, {v})")


def _split_check_outcome(check, g, part):
    try:
        check(g, part)
    except PreconditionError as exc:
        return str(exc)
    return None


def test_split_partition_check_matches_pairwise_reference():
    # seeded split graphs with one injected fault each: a vertex moved across,
    # a clique edge removed, an independent edge added, a vertex dropped or
    # doubled, or a random partition of a random graph
    rnd = random.Random(5)
    outcomes = set()
    for seed in range(400):
        g, part = random_split(rnd.randint(1, 9), rnd.randint(0, 9),
                               rnd.choice([0.2, 0.5, 0.9]), seed)
        k, s = set(part.clique), set(part.independent)
        edges = set(g.edges())
        fault = seed % 7
        if fault == 1 and s:
            v = rnd.choice(sorted(s))
            s.discard(v)
            k.add(v)
        elif fault == 2:
            v = rnd.choice(sorted(k))
            k.discard(v)
            s.add(v)
        elif fault == 3 and len(k) > 1:
            edges.discard(tuple(sorted(rnd.sample(sorted(k), 2))))
        elif fault == 4 and len(s) > 1:
            edges.add(tuple(sorted(rnd.sample(sorted(s), 2))))
        elif fault == 5:
            v = rnd.randrange(g.n)
            rnd.choice([k, s]).discard(v)
            if rnd.random() < 0.5:
                (s if v in k else k).add(v)
        elif fault == 6:
            g = gnp(rnd.randint(1, 12), rnd.choice([0.1, 0.5, 0.9]), seed)
            k = {v for v in range(g.n) if rnd.random() < 0.5}
            s, edges = set(range(g.n)) - k, set(g.edges())
        g = Graph(g.n, sorted(edges))
        part = SplitPartition(frozenset(k), frozenset(s))
        ours = _split_check_outcome(validate_split_partition, g, part)
        assert ours == _split_check_outcome(_pairwise_split_check, g, part), (seed, part)
        outcomes.add(ours.split(" (")[0] if ours else None)
    assert outcomes == {None, "clique and independent set overlap",
                        "partition does not cover all vertices",
                        "clique side misses edge", "independent side contains edge"}


def test_split_check_is_linear_on_a_k2_joined_to_many_independents():
    # every independent vertex sees both clique vertices; the pairwise check
    # made about 5e9 has_edge calls on this shape
    n_ind = 10**5
    g = Graph(n_ind + 2, [(0, 1)] + [(c, v) for v in range(2, n_ind + 2) for c in (0, 1)])
    part = split_recognition(g)
    assert part.clique == frozenset({0, 1, 2})  # vertex 2 ties at the boundary
    assert gamma_1j_split(g, part, 1) == (1, Witness(frozenset({0})))


def test_lex_bfs_matches_reference_order():
    graphs = [gnp(n, p, seed)
              for n in (0, 1, 2, 5, 12, 25, 40)
              for p in (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0)
              for seed in range(4)]
    graphs += [random_tree(n, seed) for n in (1, 2, 3, 10, 60, 200) for seed in range(5)]
    graphs += [random_split(n1, n2, p, seed)[0]
               for n1, n2, p in ((1, 0, .5), (3, 9, .2), (8, 20, .5), (15, 30, .9))
               for seed in range(5)]
    graphs += [_random_reduction(q, j, seed)
               for q in (1, 2, 3) for j in (2, 3) for seed in range(3)]
    # disconnected: two copies of a graph side by side
    for seed in range(5):
        h = gnp(15, 0.2, seed)
        graphs.append(Graph(30, list(h.edges())
                            + [(u + 15, v + 15) for u, v in h.edges()]))
    for g in graphs:
        assert lex_bfs(g) == _reference_lex_bfs(g)


def test_chordality_results_pinned():
    # sha256 over (peo, cycle) of 500 seeded graphs, recorded on the
    # quadratic Lex-BFS; the linear refinement must reproduce it exactly
    h = hashlib.sha256()
    chordal = 0
    for g in _mixed_graphs(2024, 500):
        res = chordality_check(g)
        chordal += res.chordal
        h.update(json.dumps([res.peo, res.cycle]).encode())
    assert 100 < chordal < 500
    assert h.hexdigest() == "d08ffcefd2ea64d3b7429a9aa3394ea1c386538bec8249084408ccf8135e5c8c"


def test_chordality_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    graphs = list(_mixed_graphs(7, 300))
    graphs += [gnp(n, 4 / n, n) for n in (1000, 1500, 2000)]
    verdicts = set()
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        res = chordality_check(g)
        assert res.chordal == nx.is_chordal(h)
        verdicts.add(res.chordal)
        if not res.chordal:
            _assert_chordless_cycle(g, res.cycle)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make", [lambda: star_graph(100000),
                                  lambda: path_graph(100000),
                                  lambda: random_tree(100000, 5)],
                         ids=["star", "path", "tree"])
def test_large_chordal_shapes(make):
    g = make()
    res = chordality_check(g)
    assert res.chordal
    assert sorted(res.peo) == list(range(g.n))


def test_large_cycle_witness():
    g = cycle_graph(100000)
    res = chordality_check(g)
    assert not res.chordal
    assert len(res.cycle) == 100000
    _assert_chordless_cycle(g, res.cycle)
