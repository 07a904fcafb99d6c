"""Seeded instance generators and small fixed graph families.

Every generator is a pure function of its parameters and an integer seed;
randomness comes from numpy's Philox counter-based generator so equal seeds
reproduce identical graphs on every platform.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, combinations

import numpy as np

from .errors import PreconditionError
from .graph import Graph, SplitPartition


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree by decoding a random Prufer sequence."""
    if n < 1:
        raise PreconditionError("tree needs at least one vertex")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [int(x) for x in _rng(seed).integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_split(n1: int, n2: int, edge_prob: float, seed: int) -> tuple[Graph, SplitPartition]:
    """Random connected split graph: clique on 0..n1-1, independents after.

    Clique-to-independent edges appear independently with edge_prob; any
    independent vertex left isolated is attached to one random clique
    vertex, so the result is always connected.
    """
    if n1 < 1 or n2 < 0:
        raise PreconditionError("need n1 >= 1 and n2 >= 0")
    if not 0.0 <= edge_prob <= 1.0:
        raise PreconditionError("edge_prob must be in [0, 1]")
    rng = _rng(seed)
    edges = list(combinations(range(n1), 2))
    draws = rng.random((n2, n1))
    for si in range(n2):
        hits = np.flatnonzero(draws[si] < edge_prob).tolist() or [int(rng.integers(0, n1))]
        edges.extend((k, n1 + si) for k in hits)
    part = SplitPartition(frozenset(range(n1)), frozenset(range(n1, n1 + n2)))
    return Graph(n1 + n2, edges), part


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    # True if at least one more simple edge can be formed from leftover stubs
    if not potential:
        return True
    for s1 in potential:
        for s2 in potential:
            if s1 == s2:
                break
            key = (s2, s1) if s1 > s2 else (s1, s2)
            if key not in edges:
                return True
    return False


def random_regular(n: int, d: int, seed: int, max_restarts: int = 200) -> Graph:
    """Random d-regular graph via the stub-pairing model.

    Colliding pairs (loops or repeats) are thrown back into the pool and
    re-paired; only a provably stuck pool forces a full restart.  Raises
    PreconditionError for infeasible (n, d) and when all `max_restarts`
    restarts end stuck.
    """
    if d < 0 or d >= n:
        raise PreconditionError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise PreconditionError("n * d must be even")
    if d == 0:
        return Graph(n)
    rng = _rng(seed)
    for _ in range(max_restarts):
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        failed = False
        while stubs:
            stubs = [stubs[i] for i in rng.permutation(len(stubs))]
            potential: dict[int, int] = {}
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not _suitable(edges, potential):
                failed = True
                break
            stubs = [v for v, c in potential.items() for _ in range(c)]
        if not failed:
            return Graph(n, sorted(edges))
    raise PreconditionError(f"pairing model failed {max_restarts} restarts for n={n}, d={d}")


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); pair draws happen in fixed row-major order."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must be in [0, 1]")
    rng = _rng(seed)
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - u - 1) < p).tolist()
        edges.extend((u, u + 1 + off) for off in hits)
    return Graph(n, edges)


def composite_gamma_n(
    parts: list[tuple[Graph, SplitPartition]],
    j: int,
    cross_edges: list[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    seed: int | None = None,
) -> Graph:
    """Disjoint union of clique-saturated split graphs plus inter-clique edges.

    Each part must pass the four-condition characterization (its minimum
    (1,j)-set is the whole vertex set); joining their cliques by arbitrary
    extra edges preserves that property for the union.  Cross edges are
    given part-locally as ((part_a, vertex_a), (part_b, vertex_b)); when
    omitted and a seed is supplied, each inter-clique pair is included
    independently with probability 1/2.
    """
    from .splitsolve import is_gamma_n_split

    if not parts:
        raise PreconditionError("at least one part is required")
    offsets = list(accumulate((g.n for g, _ in parts), initial=0))
    for idx, (g, part) in enumerate(parts):
        report = is_gamma_n_split(g, part, j)
        if not report.holds:
            raise PreconditionError(
                f"part {idx} fails the whole-vertex-set characterization "
                f"(conditions {', '.join(report.failed)})")

    edges: list[tuple[int, int]] = []
    for off, (g, _) in zip(offsets, parts):
        edges.extend((u + off, v + off) for u, v in g.edges())

    if cross_edges is None:
        cross_edges = []
        if seed is not None:
            rng = _rng(seed)
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    for u in sorted(parts[a][1].clique):
                        for w in sorted(parts[b][1].clique):
                            if rng.random() < 0.5:
                                cross_edges.append(((a, u), (b, w)))

    for (a, u), (b, w) in cross_edges:
        if not (0 <= a < len(parts) and 0 <= b < len(parts)) or a == b:
            raise PreconditionError(f"cross edge must join two distinct parts, got {(a, b)}")
        if u not in parts[a][1].clique or w not in parts[b][1].clique:
            raise PreconditionError(
                f"cross edge (({a},{u}),({b},{w})) touches an independent-set vertex")
        edges.append((u + offsets[a], w + offsets[b]))
    return Graph(offsets[-1], edges)
