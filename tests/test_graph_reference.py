"""Graph(n, edges) against the former set-based constructor.

The reference below is the constructor Graph had before its storage became
one int32 CSR pair: a set per vertex, every edge checked in a Python loop,
then a frozenset and a sorted tuple per vertex. On any edge list both must
raise the same first ValueError, or agree on every view of the graph; a
valid list must also give an equal Graph through parse_edge_list.
"""

import random
from itertools import chain

import numpy as np

from onejdom import Graph, gnp, parse_edge_list


class ReferenceGraph:
    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbr_sets = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbr_sets[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbr_sets[u].add(v)
            nbr_sets[v].add(u)
            m += 1
        self.n, self.m = n, m
        self.nbr_sets = tuple(frozenset(s) for s in nbr_sets)
        self.nbrs = tuple(tuple(sorted(s)) for s in nbr_sets)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.nbrs[u] if u < v]

    def csr(self):
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum([len(t) for t in self.nbrs], out=indptr[1:])
        return indptr, np.fromiter(chain.from_iterable(self.nbrs), np.int32, 2 * self.m)


def outcome(build, n, edges):
    try:
        return ("graph", build(n, edges))
    except ValueError as exc:
        return ("error", str(exc))


def inject(rng, n, edges):
    """Insert one random fault, or a harmless reordering, into the edge list."""
    kind = rng.choice(["out_of_range", "self_loop", "duplicate", "reversed_duplicate",
                       "shuffle", "reverse_pair"])
    at = rng.randrange(len(edges) + 1)
    if kind == "out_of_range":
        bad = rng.choice([n, n + 1, -1, 2**31, 10**20, -10**20, 2**63, -2**63 - 1])
        other = rng.randrange(max(n, 1))
        edges.insert(at, (bad, other) if rng.random() < 0.5 else (other, bad))
    elif kind == "self_loop":
        w = rng.randrange(max(n, 1))
        edges.insert(at, (w, w))
    elif edges and kind in ("duplicate", "reversed_duplicate"):
        u, v = edges[rng.randrange(len(edges))]
        edges.insert(at, (u, v) if kind == "duplicate" else (v, u))
    elif kind == "shuffle":
        rng.shuffle(edges)
    elif edges:
        i = rng.randrange(len(edges))
        edges[i] = edges[i][::-1]


def edge_lists(seed, count):
    yield 0, []
    yield 1, []
    yield 6, []  # isolated vertices only
    yield 7, [(4, 5), (0, 1), (2, 1)]  # isolated vertices between and after edges
    yield 5, [(np.int64(3), np.int64(0)), (1, 4)]  # numpy ids
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 16)
        edges = list(gnp(n, rng.random(), rng.randrange(10**6)).edges())
        rng.shuffle(edges)
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        for _ in range(rng.randrange(0, 4)):
            inject(rng, n, edges)
        yield n, edges


def test_graph_matches_reference_constructor():
    graphs, messages = 0, []
    for n, edges in edge_lists(seed=8081, count=600):
        expected = outcome(ReferenceGraph, n, edges)
        got = outcome(Graph, n, iter(edges))  # any iterable of pairs
        if expected[0] == "error":
            assert got == expected, (n, edges)
            messages.append(expected[1])
            continue
        graphs += 1
        ref, g = expected[1], got[1]
        assert (g.n, g.m) == (ref.n, ref.m)
        assert all(g.neighbors(v) == ref.nbrs[v] for v in range(n))
        assert all(g.has_edge(u, v) == (v in ref.nbr_sets[u])
                   for u in range(n) for v in range(n))
        assert all(g.degree(v) == len(ref.nbrs[v]) for v in range(n))
        assert list(g.edges()) == ref.edges()
        assert g.degrees() == [len(t) for t in ref.nbrs]
        assert g.max_degree() == max(g.degrees(), default=0)
        assert g.min_degree() == min(g.degrees(), default=0)
        assert all(np.array_equal(a, b) for a, b in zip(g.csr(), ref.csr()))
        text = "\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)])
        assert parse_edge_list(text) == g == Graph(n, sorted(ref.edges()))
        if edges:
            assert g != Graph(n, edges[1:]) and g != Graph(n + 1, edges)
    assert graphs >= 100 and len(messages) >= 200, (graphs, len(messages))
    for fault in ("duplicate edge", "self-loop", "out of range"):
        assert any(fault in msg for msg in messages), fault


def test_vertex_count_must_fit_int32_ids():
    assert outcome(Graph, -1, []) == outcome(ReferenceGraph, -1, [])
    for n in (2**31, 2**40):
        assert outcome(Graph, n, []) == (
            "error", f"vertex count {n} does not fit int32 ids (at most 2**31 - 1)")
