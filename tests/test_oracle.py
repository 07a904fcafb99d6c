import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onejdom import (Graph, InternalContradictionError, MLabeledTree, PreconditionError,
                     SizeGuardError, Witness, complete_graph, exact_gamma,
                     exact_gamma_1j, exact_gamma_M, gnp, path_graph, random_tree,
                     star_graph, verify_1j_set)
from onejdom.oracle import checked_witness


def test_verify_k3_single_center():
    rep = verify_1j_set(complete_graph(3), {0}, 1)
    assert rep.valid


def test_verify_star_leaves_overdominate_center():
    rep = verify_1j_set(star_graph(3), {1, 2, 3}, 2)
    assert not rep.valid
    assert rep.overdominated == (0,)
    assert rep.undominated == ()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0, 1), seed=st.integers(0, 999),
       j=st.integers(1, 4))
def test_verify_whole_vertex_set_always_valid(n, p, seed, j):
    g = gnp(n, p, seed)
    assert verify_1j_set(g, range(n), j).valid


def test_verify_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        verify_1j_set(path_graph(3), {5}, 1)
    with pytest.raises(PreconditionError):
        verify_1j_set(path_graph(3), {0}, 0)


def test_checked_witness_returns_the_set_or_names_the_fault():
    g = path_graph(5)
    assert checked_witness(g, [1, 3, 3], 1, 2, "p5") == Witness(frozenset({1, 3}))
    with pytest.raises(InternalContradictionError, match=r"^p5: .*band: \[0, 4\]$"):
        checked_witness(g, [2], 1, 2, "p5")
    # per-vertex bands: vertex 2 may see no selected neighbour, vertex 3 must see two
    lower, upper = (1, 1, 0, 2, 1), (2, 2, 0, 2, 2)
    with pytest.raises(InternalContradictionError, match=r"band: \[2, 3\]$"):
        checked_witness(g, [1, 4], lower, upper, "bands")
    assert checked_witness(g, [1, 2, 4], (0, 0, 0, 0, 0), (1, 1, 1, 2, 1), "bands").cardinality == 3


@pytest.mark.parametrize("vertices", [[0, 5], [-1, 2], [7], [2, 10**20]])
def test_checked_witness_out_of_range_id_is_internal_contradiction(vertices):
    with pytest.raises(InternalContradictionError, match="^caller: vertex id -?[0-9]+ out of range$"):
        checked_witness(path_graph(5), vertices, 1, 2, "caller")


def test_exact_gamma_1j_p4():
    value, witness = exact_gamma_1j(path_graph(4), 2)
    assert value == 2
    assert verify_1j_set(path_graph(4), witness.vertices, 2).valid


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("j", [1, 2])
def test_exact_gamma_1j_complete(n, j):
    value, witness = exact_gamma_1j(complete_graph(n), j)
    assert value == 1


def test_engines_agree_with_witness_verification():
    for seed in range(200):
        n = 4 + seed % 15  # n up to 18
        g = gnp(n, 0.12 + (seed % 6) * 0.09, seed)
        j = 1 + seed % 3
        a = exact_gamma_1j(g, j, engine="brute")
        b = exact_gamma_1j(g, j, engine="bnb")
        assert a[0] == b[0], (seed, n, j)
        assert verify_1j_set(g, a[1].vertices, j).valid
        assert verify_1j_set(g, b[1].vertices, j).valid


def test_enumeration_witness_is_lexicographic_minimum():
    g = path_graph(4)
    _, witness = exact_gamma_1j(g, 2)
    # {0, 2} and {1, 3} (among others) are optimal; lexicographic order
    # prefers the set containing vertex 0
    assert witness.vertices == frozenset({0, 2})


def test_budget_modes():
    g = path_graph(4)
    assert exact_gamma_1j(g, 2, budget=1) is None
    assert exact_gamma_1j(g, 2, engine="bnb", budget=1) is None
    hit = exact_gamma_1j(g, 2, budget=3)
    assert hit[0] == 2


def test_guards():
    big = Graph(21)
    with pytest.raises(SizeGuardError):
        exact_gamma_1j(big, 1)
    with pytest.raises(SizeGuardError):
        exact_gamma(big)
    assert exact_gamma_1j(big, 1, force=True)[0] == 21
    with pytest.raises(SizeGuardError):
        exact_gamma_1j(Graph(37), 1, engine="bnb")


@pytest.mark.parametrize("engine", ["enumeration", "branch_and_bound", "BNB"])
def test_unknown_engine_is_precondition_error(engine):
    with pytest.raises(PreconditionError, match="unknown engine"):
        exact_gamma_1j(path_graph(3), 1, engine=engine)


def test_exact_gamma_values():
    assert exact_gamma(complete_graph(3)) == 1
    assert exact_gamma(path_graph(4)) == 2
    assert exact_gamma(Graph(6)) == 6  # isolated vertices must self-select


def test_exact_gamma_M_base_cases():
    single = Graph(1)
    assert exact_gamma_M(MLabeledTree(single, (0,), (0,)))[0] == 0
    assert exact_gamma_M(MLabeledTree(single, (1,), (1,)))[0] == 1


def test_exact_gamma_M_p3_center():
    g = path_graph(3)
    value, witness = exact_gamma_M(MLabeledTree(g, (1, 1, 1), (1, 1, 1)))
    assert value == 1
    assert witness.vertices == frozenset({1})


def test_exact_gamma_M_vacuous_labels():
    g = random_tree(7, 3)
    value, witness = exact_gamma_M(MLabeledTree(g, (0,) * 7, (7,) * 7))
    assert value == 0 and witness.vertices == frozenset()


def test_sandwich_and_vacuous_j_small():
    for seed in range(40):
        n = 3 + seed % 10
        g = gnp(n, 0.3, seed)
        if g.max_degree() == 0:
            continue
        gam = exact_gamma(g)
        v1, v2, v3, v4 = (exact_gamma_1j(g, j)[0] for j in (1, 2, 3, 4))
        assert gam <= v4 <= v3 <= v2 <= v1 <= n
        assert exact_gamma_1j(g, g.max_degree())[0] == gam
