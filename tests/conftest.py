"""Shared test fixtures and independent reference constructions.

The Prufer decoder here is deliberately separate from the package's random
tree generator so exhaustive tree sweeps do not depend on the code they
exercise.
"""

import heapq
import itertools
import math

from onejdom import Graph, InternalContradictionError, SplitPartition
from onejdom.lll import feasibility_threshold, g_delta, s_alpha
from onejdom.oracle import check_j


def prufer_decode(seq, n):
    """Labeled tree on n vertices from a Prufer sequence of length n-2."""
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


def all_trees(n):
    """Every labeled tree on n >= 2 vertices, one per Prufer sequence."""
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def gamma_n_split_example():
    """Smallest split graph whose minimum (1,2)-set is everything (n = 12).

    Clique {0..5}; independent vertex u_B is adjacent to the clique minus a
    3-block B.  The six blocks jointly miss every clique pair (condition
    iii), leave vertex 0 with degree n1+2 (condition i), keep two blocks
    clear of some other vertex for every clique vertex (condition ii), and
    give every independent vertex degree 3 = j+1 (condition iv).
    """
    blocks = [(0, 1, 2), (0, 3, 4), (0, 4, 5), (1, 3, 5), (2, 3, 5), (1, 2, 4)]
    K = list(range(6))
    edges = list(itertools.combinations(K, 2))
    for si, block in enumerate(blocks):
        s = 6 + si
        for v in K:
            if v not in block:
                edges.append((v, s))
    part = SplitPartition(frozenset(K), frozenset(range(6, 12)))
    return Graph(12, edges), part


def compute_alpha_bisect(j, delta_max, delta_min, tol=1e-12):
    """Independent cross-check of compute_alpha by bisecting the premise."""
    check_j(j)
    feasibility_threshold(delta_max, delta_min)  # the same degree checks
    gamma = delta_max / delta_min
    gd = g_delta(delta_max)
    e_minus_1 = math.e - 1.0

    def ok(alpha):
        return j + 1 >= (1.0 + alpha) * gamma * gd / s_alpha(alpha)

    if not ok(e_minus_1):
        return None
    lo = e_minus_1
    hi = max(2.0 * e_minus_1, 1.0)
    while ok(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise InternalContradictionError("premise never fails; unbounded alpha")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
