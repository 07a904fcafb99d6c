"""Dynamic program for band-constrained domination on trees.

An MLabeledTree carries per-vertex bounds (lower[v], upper[v]); a feasible
selection S must give every vertex outside S a selected-neighbor count
inside its band.  The solver roots the tree once by BFS over the CSR arrays
and folds it from the leaves up over BFS positions; the children of a
position are one contiguous run of positions, in ascending id order.  Each
position keeps five ints: in_cost, its subtree's minimum cost with it
selected; plain, the minimum with it unselected and its child count in
[lower, upper], and that count (plain_arg); and, for a selected parent,
whose band for it shifts down to [lower - 1, upper - 1], the cheaper of
that window's minimum and in_cost (sel_cost) with the state it picks
(sel_state: the child count, or -1 for selected).

With v unselected each child u stays out (cost plain[u]) or goes in (cost
in_cost[u]), so the cost with exactly c children selected is the closed form

  tab[c] = sum of plain[u] + sum of the c smallest gains in_cost[u] - plain[u].

tab is convex in c, so over a window its minimum lies at the number of
negative gains clamped into the window, the lowest count on ties.  _INF
marks an infeasible window; tab[c] is also a sum of per-child costs, all
nonnegative, so one that holds _INF stays >= _INF: infeasible unclamped.

The traceback sets every position's state in BFS order: below a selected
vertex each child takes sel_state; below an unselected vertex with count c
its first c children in (gain, id) order are selected and the others take
plain_arg.  Uniform bands (1, j) give the minimum (1,j)-set of the tree.
The fold takes O(n log max degree) time and O(n) memory for any bands.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import le, sub

from .errors import PreconditionError
from .graph import Graph, _outside_band, _selected_counts, _selection, is_tree
from .oracle import Witness, check_j

_INF = 1 << 30


@dataclass(frozen=True)
class MLabeledTree:
    """A tree plus per-vertex lower/upper selected-neighbor bounds."""

    tree: Graph
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if not is_tree(self.tree):
            raise PreconditionError("underlying graph is not a tree")
        n = self.tree.n
        if len(self.lower) != n or len(self.upper) != n:
            raise PreconditionError("label arrays must have one entry per vertex")
        lower, upper = self.lower, self.upper
        if min(lower) < 0 or not all(map(le, lower, upper)):
            v = next(v for v in range(n) if not 0 <= lower[v] <= upper[v])
            raise PreconditionError(
                f"vertex {v}: need 0 <= lower <= upper, got ({lower[v]}, {upper[v]})")


def uniform_labeled_tree(g: Graph, j: int) -> MLabeledTree:
    """Bands (1, j) everywhere: feasible sets are exactly the (1,j)-sets."""
    check_j(j)
    return MLabeledTree(g, (1,) * g.n, (j,) * g.n)


def _window(base: int, gains: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(min value, argmin) of base + sum(gains[:c]) over c in [lo, hi]
    clamped to 0..len(gains), for ascending gains; ties resolve to the lowest
    count, and an empty or infeasible window gives (_INF, -1)."""
    lo, hi = max(lo, 0), min(hi, len(gains))
    if lo > hi:
        return _INF, -1
    c = min(max(bisect_left(gains, 0), lo), hi)
    cost = base + sum(gains[:c])
    return (cost, c) if cost < _INF else (_INF, -1)


def gamma_M(t: MLabeledTree, root: int = 0) -> tuple[int, Witness]:
    """Minimum cardinality of a band-feasible set, with a witness.

    The value is independent of the chosen root; the witness tie-breaks
    toward unselected vertices, then lowest child counts, and an unselected
    vertex with count c selects its first c children in (gain, id) order,
    gain being in_cost - plain.
    """
    g = t.tree
    n = g.n
    if not 0 <= root < n:
        raise PreconditionError(f"root {root} out of range")
    lower, upper = t.lower, t.upper
    indptr, indices = g.csr()
    ptr, idx = indptr.tolist(), indices.tolist()
    # BFS rooting: order[i] is the vertex at position i, and the children of
    # position i are positions first[i]:first[i + 1], in ascending id order
    order, first, parent = [root], [], [-1]
    for i, v in enumerate(order):
        first.append(len(order))
        kids = idx[ptr[v]:ptr[v + 1]]
        if i:
            kids.remove(parent[i])
        order += kids
        parent += [v] * len(kids)
    first.append(n)
    del parent

    in_cost = [1] * n
    plain, plain_arg = [0] * n, [0] * n
    sel_cost, sel_state = [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        a, b = first[i], first[i + 1]
        lo, hi = lower[order[i]], upper[order[i]]
        if a == b:  # a leaf: its only child count is 0
            if lo:
                plain[i], plain_arg[i] = _INF, -1
            if lo > 1 or hi < 1:
                sel_cost[i], sel_state[i] = 1, -1
            continue
        in_cost[i] = cost = 1 + sum(sel_cost[a:b])
        base = sum(plain[a:b])
        gains = sorted(map(sub, in_cost[a:b], plain[a:b]))
        plain[i], plain_arg[i] = _window(base, gains, lo, hi)
        # with the parent selected the band shifts down by one
        shift, c = _window(base, gains, lo - 1, hi - 1)
        sel_cost[i], sel_state[i] = (shift, c) if shift <= cost else (cost, -1)

    # traceback: state[i] is position i's child count if unselected, else -1
    value = min(plain[0], in_cost[0])
    state = [0] * n
    state[0] = plain_arg[0] if plain[0] <= in_cost[0] else -1
    for i, c in enumerate(state):
        a, b = first[i], first[i + 1]
        if c < 0:
            state[a:b] = sel_state[a:b]
            continue
        state[a:b] = plain_arg[a:b]
        if c:
            for u in sorted(range(a, b), key=lambda u: in_cost[u] - plain[u])[:c]:
                state[u] = -1
    selected = [v for v, c in zip(order, state) if c < 0]
    assert len(selected) == value
    return value, Witness(frozenset(selected))


def gamma_1j_tree(g: Graph, j: int, root: int = 0) -> tuple[int, Witness]:
    """Minimum (1,j)-set of a tree: the fold with uniform bands (1, j).

    The MLabeledTree built here rejects a non-tree input.
    """
    return gamma_M(uniform_labeled_tree(g, j), root=root)


def m_band_violations(t: MLabeledTree, vertices) -> list[int]:
    """Vertices outside the set whose selected-neighbor count leaves its band,
    in id order; ids outside the tree select nothing."""
    n = t.tree.n
    selected = _selection(n, (v for v in frozenset(vertices) if 0 <= v < n))
    cnt = _selected_counts(t.tree, selected)
    return _outside_band(selected, cnt, t.lower, t.upper).tolist()
