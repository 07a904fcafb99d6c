import hashlib
import json
import random

import pytest

from conftest import all_trees
from onejdom import (Graph, MLabeledTree, PreconditionError, cycle_graph,
                     exact_gamma_1j, exact_gamma_M, gamma_1j_tree, gamma_M,
                     m_band_violations, path_graph, random_tree, star_graph,
                     uniform_labeled_tree, verify_1j_set)


def _random_labels(rnd, n, top=3):
    lower, upper = [], []
    for _ in range(n):
        a = rnd.randint(0, top)
        b = rnd.randint(a, top)
        lower.append(a)
        upper.append(b)
    return tuple(lower), tuple(upper)


def test_labeled_tree_validation():
    with pytest.raises(PreconditionError):
        MLabeledTree(cycle_graph(3), (1, 1, 1), (1, 1, 1))
    with pytest.raises(PreconditionError):
        MLabeledTree(path_graph(2), (2, 0), (1, 0))
    with pytest.raises(PreconditionError):
        MLabeledTree(path_graph(2), (0,), (0,))


def test_single_vertex_base_case():
    single = Graph(1)
    assert gamma_M(MLabeledTree(single, (1,), (1,)))[0] == 1
    assert gamma_M(MLabeledTree(single, (0,), (2,)))[0] == 0


def test_p4_uniform_bands():
    value, witness = gamma_M(uniform_labeled_tree(path_graph(4), 2))
    assert value == 2
    assert verify_1j_set(path_graph(4), witness.vertices, 2).valid


def test_star_center_forced():
    g = star_graph(4)
    t = MLabeledTree(g, (0, 1, 1, 1, 1), (0, 1, 1, 1, 1))
    value, witness = gamma_M(t)
    oracle_value, _ = exact_gamma_M(t)
    assert value == oracle_value == 1
    assert witness.vertices == frozenset({0})
    assert not m_band_violations(t, witness.vertices)


def test_gamma_1j_tree_examples():
    assert gamma_1j_tree(path_graph(4), 2)[0] == 2
    assert gamma_1j_tree(path_graph(2), 1)[0] == 1
    assert gamma_1j_tree(Graph(1), 2)[0] == 1  # lone vertex must self-select
    for k in (3, 5, 8):
        assert gamma_1j_tree(star_graph(k), 1)[0] == 1
        assert gamma_1j_tree(star_graph(k), 3)[0] == 1


def test_bands_above_degree_force_selection():
    # a lower bound no neighborhood can meet forces the vertex inside
    rnd = random.Random(17)
    for trial in range(40):
        n = rnd.randint(1, 10)
        g = random_tree(n, 600_000 + trial)
        lower, upper = [], []
        for _ in range(n):
            a = rnd.randint(0, 5)
            lower.append(a)
            upper.append(a + rnd.randint(0, 5))
        t = MLabeledTree(g, tuple(lower), tuple(upper))
        value, witness = gamma_M(t)
        assert value == exact_gamma_M(t)[0], (trial, lower, upper)
        assert not m_band_violations(t, witness.vertices)
        for v in range(n):
            if lower[v] > g.degree(v):
                assert v in witness.vertices


def test_gamma_1j_tree_rejects_non_trees():
    with pytest.raises(PreconditionError):
        gamma_1j_tree(cycle_graph(4), 2)


def test_exhaustive_small_trees_uniform_bands():
    for n in range(2, 7):
        for g in all_trees(n):
            for j in (1, 2, 3):
                assert gamma_1j_tree(g, j)[0] == exact_gamma_1j(g, j)[0]


def test_random_labeled_trees_match_oracle():
    rnd = random.Random(2024)
    for trial in range(80):
        n = rnd.randint(1, 12)
        g = random_tree(n, trial)
        lower, upper = _random_labels(rnd, n)
        t = MLabeledTree(g, lower, upper)
        value, witness = gamma_M(t)
        assert value == exact_gamma_M(t)[0], (trial, n, lower, upper)
        assert not m_band_violations(t, witness.vertices)
        assert witness.cardinality == value


def test_root_independence():
    rnd = random.Random(5)
    for trial in range(30):
        n = rnd.randint(2, 12)
        g = random_tree(n, 1000 + trial)
        lower, upper = _random_labels(rnd, n)
        t = MLabeledTree(g, lower, upper)
        values = {gamma_M(t, root=r)[0] for r in {0, n // 2, n - 1}}
        assert len(values) == 1


def test_label_monotonicity():
    rnd = random.Random(11)
    for trial in range(30):
        n = rnd.randint(2, 10)
        g = random_tree(n, 2000 + trial)
        lower, upper = _random_labels(rnd, n)
        t = MLabeledTree(g, lower, upper)
        base = gamma_M(t)[0]
        v = rnd.randrange(n)
        relaxed = list(upper)
        relaxed[v] += 1
        assert gamma_M(MLabeledTree(g, lower, tuple(relaxed)))[0] <= base
        tightened = list(lower)
        tightened[v] += 1
        stricter = MLabeledTree(g, tuple(tightened),
                                tuple(max(b, tightened[i]) for i, b in enumerate(upper)))
        if tuple(stricter.upper) == upper:
            assert gamma_M(stricter)[0] >= base


def test_witness_band_validity_uniform():
    for seed in range(25):
        n = 2 + seed % 12
        g = random_tree(n, 3000 + seed)
        for j in (1, 2, 3):
            value, witness = gamma_1j_tree(g, j)
            assert verify_1j_set(g, witness.vertices, j).valid
            assert witness.cardinality == value


def _pinned_fold_cases():
    """(value, sorted witness) of gamma_M on 300 seeded small trees: uniform
    bands (1, j) for j = 1..4 and random bands with upper bounds up to 8,
    each folded from a random root."""
    rnd = random.Random(4242)
    rows = []
    for trial in range(300):
        n = rnd.randint(1, 40)
        g = random_tree(n, 70_000 + trial)
        if trial % 2:
            t = uniform_labeled_tree(g, rnd.randint(1, 4))
        else:
            upper = [rnd.randint(0, 8) for _ in range(n)]
            lower = [rnd.randint(0, min(b, 3)) for b in upper]
            t = MLabeledTree(g, tuple(lower), tuple(upper))
        value, witness = gamma_M(t, root=rnd.randrange(n))
        rows.append([value, witness.sorted()])
    return rows


def test_fold_witnesses_pinned():
    # the digest pins the documented tie-break (toward unselected vertices,
    # then lowest child counts), not just the values
    rows = _pinned_fold_cases()
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "9eae80fad61f5c0df16d41dbb11f3c10f015673dec75c88a43c3d2d3602cf1d9"


@pytest.mark.parametrize("t, root, expected", [
    (uniform_labeled_tree(path_graph(4), 2), 0, (2, [1, 3])),
    (uniform_labeled_tree(path_graph(7), 1), 3, (3, [1, 2, 5])),
    (uniform_labeled_tree(path_graph(7), 1), 0, (3, [1, 4, 5])),
    (MLabeledTree(path_graph(3), (0, 0, 0), (1, 1, 1)), 1, (0, [])),
    (uniform_labeled_tree(star_graph(5), 2), 2, (1, [0])),
    (MLabeledTree(star_graph(4), (0, 1, 1, 1, 1), (0, 1, 1, 1, 1)), 1, (1, [0])),
    (MLabeledTree(path_graph(5), (0, 2, 0, 2, 0), (2, 2, 2, 2, 2)), 0, (2, [1, 3])),
    (MLabeledTree(star_graph(3), (3, 0, 0, 0), (3, 1, 1, 1)), 0, (1, [0])),
])
def test_fold_witness_literals(t, root, expected):
    value, witness = gamma_M(t, root=root)
    assert (value, witness.sorted()) == expected


def test_deep_path_rooted_at_one_end():
    # the traceback descends 1e5 levels; nothing in the fold recurses
    n = 100_000
    t = uniform_labeled_tree(path_graph(n), 2)
    value, witness = gamma_M(t, root=0)
    assert value == witness.cardinality == (n + 2) // 3
    assert not m_band_violations(t, witness.vertices)


def test_wide_star_centre_unselected():
    # leaves banded [0, 0..8] except five at [1, ..]: leaving the centre out
    # costs those five, so its traceback walks prefix tables over 1e5 children
    leaves = 100_000
    rnd = random.Random(8)
    forced = set(rnd.sample(range(1, leaves + 1), 5))
    lower = [1] + [1 if v in forced else 0 for v in range(1, leaves + 1)]
    upper = [8] + [rnd.randint(lower[v], 8) for v in range(1, leaves + 1)]
    t = MLabeledTree(star_graph(leaves), tuple(lower), tuple(upper))
    value, witness = gamma_M(t)
    assert value == witness.cardinality == 5
    assert witness.vertices == forced
    assert not m_band_violations(t, witness.vertices)
