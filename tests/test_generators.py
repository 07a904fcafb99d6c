import pytest

from conftest import gamma_n_split_example
from onejdom import (PreconditionError, complete_graph, composite_gamma_n,
                     exact_gamma_1j, gnp, is_connected, is_tree, random_regular,
                     random_split, random_tree, split_recognition,
                     validate_split_partition)


def test_random_tree_single_vertex():
    g = random_tree(1, 123)
    assert g.n == 1 and g.m == 0


def test_random_tree_is_tree_and_deterministic():
    for seed in range(25):
        n = 1 + seed
        g = random_tree(n, seed)
        assert is_tree(g)
        assert g == random_tree(n, seed)
    assert random_tree(9, 1) != random_tree(9, 2)


def test_random_regular_k6():
    g = random_regular(6, 5, 0)
    assert g == complete_graph(6)


def test_random_regular_degrees_and_determinism():
    g = random_regular(40, 7, 11)
    assert all(g.degree(v) == 7 for v in range(g.n))
    assert g == random_regular(40, 7, 11)


def test_random_regular_d_zero():
    g = random_regular(5, 0, 3)
    assert g.m == 0


def test_random_regular_restarts_exhausted_is_precondition_error():
    with pytest.raises(PreconditionError, match="restarts"):
        random_regular(10, 3, 0, max_restarts=0)


def test_random_regular_infeasible():
    with pytest.raises(PreconditionError):
        random_regular(5, 3, 0)  # odd stub count
    with pytest.raises(PreconditionError):
        random_regular(4, 4, 0)  # d >= n


def test_random_split_predicate_and_connectivity():
    g, part = random_split(3, 4, 0.5, 99)
    validate_split_partition(g, part)
    assert is_connected(g)
    rec = split_recognition(g)
    assert rec is not None
    for seed in range(30):
        g, part = random_split(1 + seed % 5, seed % 9, 0.05, seed)
        validate_split_partition(g, part)
        assert is_connected(g)
        assert g == random_split(1 + seed % 5, seed % 9, 0.05, seed)[0]


def test_gnp_extremes_and_determinism():
    assert gnp(6, 0.0, 0).m == 0
    assert gnp(6, 1.0, 0).m == 15
    assert gnp(20, 0.37, 5) == gnp(20, 0.37, 5)
    assert gnp(20, 0.37, 5) != gnp(20, 0.37, 6)


def test_composite_requires_parts():
    with pytest.raises(PreconditionError):
        composite_gamma_n([], 2)


def test_composite_identity():
    g, part = gamma_n_split_example()
    assert composite_gamma_n([(g, part)], 2) == g


def test_composite_rejects_bad_parts():
    g, part = random_split(3, 3, 0.5, 1)
    with pytest.raises(PreconditionError, match="characterization"):
        composite_gamma_n([(g, part)], 2)


def test_composite_rejects_bad_cross_edges():
    g, part = gamma_n_split_example()
    with pytest.raises(PreconditionError, match="independent-set"):
        composite_gamma_n([(g, part), (g, part)], 2, cross_edges=[((0, 0), (1, 6))])
    with pytest.raises(PreconditionError, match="distinct parts"):
        composite_gamma_n([(g, part), (g, part)], 2, cross_edges=[((0, 0), (0, 1))])


def test_composite_two_parts_keeps_gamma_equal_n():
    g, part = gamma_n_split_example()
    comp = composite_gamma_n([(g, part), (g, part)], 2, cross_edges=[((0, 0), (1, 0))])
    assert comp.n == 24
    value, witness = exact_gamma_1j(comp, 2, engine="bnb")
    assert value == comp.n
    assert witness.cardinality == comp.n


def test_composite_seeded_cross_edges_deterministic():
    g, part = gamma_n_split_example()
    a = composite_gamma_n([(g, part), (g, part)], 2, seed=5)
    b = composite_gamma_n([(g, part), (g, part)], 2, seed=5)
    assert a == b
