import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onejdom import (Graph, ParseError, cycle_graph, gnp, is_connected, is_tree,
                     lll_params_for_graph, mt_trials, parse_edge_list, path_graph,
                     random_regular, verify_1j_set, write_edge_list)


def test_parse_single_edge():
    g = parse_edge_list("2 1\n0 1")
    assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)


def test_parse_edgeless():
    g = parse_edge_list("3 0")
    assert g.n == 3 and g.m == 0


def test_parse_accepts_bytes():
    g = parse_edge_list(b"2 1\n0 1\n")
    assert g.m == 1
    assert parse_edge_list(bytearray(b"2 1\n0 1\n")) == g


@pytest.mark.parametrize("text,fragment,line", [
    ("2 1\n0 0", "self-loop", 2),
    ("2 2\n0 1\n1 0", "duplicate edge", 3),
    ("2 1\n0 5", "out of range", 2),
    ("2 1\nzero one", "malformed", 2),
    ("2 1\n0 1\n0 1", "extra line", 3),
    ("nope", "header", 1),
    # two faults: the first in file order wins
    ("3 3\n0 1\n1 0\nx y", "duplicate edge (1, 0)", 3),
    ("3 3\n0 1\nx y\n1 0", "malformed edge line 'x y'", 3),
    ("3 3\n0 1\n1 0\n0 9", "duplicate edge (1, 0)", 3),
    ("3 2\n1 1\n0 1 2", "self-loop at vertex 1", 2),
])
def test_parse_errors_name_their_line(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_parse_missing_edges():
    with pytest.raises(ParseError, match="expected 3 edge lines"):
        parse_edge_list("4 3\n0 1")


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_neighbors_sorted_and_counts():
    g = Graph(4, [(2, 0), (0, 1), (3, 0)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.m == 3
    assert sum(g.degrees()) == 2 * g.m


def test_is_tree():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(3))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))  # disconnected forest
    assert is_tree(Graph(1))


def test_connectivity():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))


def test_round_trip_small():
    g = Graph(5, [(0, 4), (1, 2)])
    assert parse_edge_list(write_edge_list(g)) == g


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 30), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
def test_round_trip_random(n, p, seed):
    g = gnp(n, p, seed)
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_format_is_lf_terminated():
    text = write_edge_list(Graph(2, [(0, 1)]))
    assert text == "2 1\n0 1\n"


@pytest.mark.parametrize("text,fragment,line", [
    ("1000000 1\nx y\n", "malformed edge line 'x y'", 2),
    ("100000000 1\n0 0\n", "self-loop at vertex 0", 2),
    ("3000000000 0\n", "does not fit int32 ids", 1),
])
def test_huge_header_faults_allocate_nothing_of_size_n(text, fragment, line):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fragment in str(exc.value) and exc.value.line == line
    assert peak < 2 * 2**20, peak


def test_construct_path_builds_no_python_views():
    g = parse_edge_list(write_edge_list(random_regular(200, 12, 5)).encode())
    j = 18
    lll_params_for_graph(g, j)
    runs = mt_trials(g, j, 3, 4)
    verify_1j_set(g, runs[0].result.vertices, j)
    assert g._nbrs is None
