"""Dynamic program for band-constrained domination on trees.

An MLabeledTree carries per-vertex bounds (lower[v], upper[v]); a feasible
selection S must give every vertex outside S a selected-neighbor count
inside its band.  The solver roots the tree by BFS and folds it from the
leaves up.  Merging the children of v builds

  in_cost      minimum cost with v selected, and
  out_tab[c]   minimum cost with v unselected and exactly c children
               selected (c capped at min(upper[v], #children): a larger
               count violates v's band even without help from the parent),

and band checks for v are deferred to the merge into its parent: with the
parent unselected v's count must lie in [lower[v], upper[v]], with the
parent selected the admissible window shifts down by one to
[max(lower[v]-1, 0), upper[v]-1].  So out_tab lives only while v is merged;
the fold keeps flat per-vertex int arrays: in_cost, the two window minima
plain and shift of out_tab, and their argmins plain_arg and shift_arg.

The traceback recomputes the choices instead of storing them.  A selected
vertex reads each child's state from shift, shift_arg and in_cost; an
unselected vertex with count c rebuilds its prefix tables over its children
and walks them backwards.  Uniform bands (1, j) make the result the minimum
(1,j)-set of the tree; run time and memory are O(n * max upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for v in range(n):
            if not 0 <= self.lower[v] <= self.upper[v]:
                raise PreconditionError(
                    f"vertex {v}: need 0 <= lower <= upper, got "
                    f"({self.lower[v]}, {self.upper[v]})")


def uniform_labeled_tree(g: Graph, j: int) -> MLabeledTree:
    """Bands (1, j) everywhere: feasible sets are exactly the (1,j)-sets."""
    check_j(j)
    return MLabeledTree(g, (1,) * g.n, (j,) * g.n)


def _window_min(tab: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(min value, argmin) of tab over [lo, hi] clamped to the table; ties
    resolve to the lowest count, and an empty or infeasible window gives
    (_INF, -1)."""
    best, arg = _INF, -1
    for c in range(max(lo, 0), min(hi, len(tab) - 1) + 1):
        if tab[c] < best:
            best, arg = tab[c], c
    return best, arg


def _merge(tab: list[int], plain: int, child_in: int) -> list[int]:
    """Min-plus step of an unselected vertex's count table over one more
    child: the child stays out (count unchanged, cost plain) or is selected
    (count + 1, cost child_in).  Sums with _INF in them stay >= _INF, so they
    remain infeasible without clamping."""
    ntab = [a + plain for a in tab]
    for c in range(len(tab) - 1):
        cand = tab[c] + child_in
        if cand < ntab[c + 1]:
            ntab[c + 1] = cand
    return ntab


def gamma_M(t: MLabeledTree, root: int = 0) -> tuple[int, Witness]:
    """Minimum cardinality of a band-feasible set, with a witness.

    The fold keeps five ints per vertex (in_cost and the two window minima
    of the out-table with their argmins); the traceback recomputes every
    other choice from them.  The value is independent of the chosen root;
    the witness tie-breaks toward unselected vertices, then lowest child
    counts.
    """
    g = t.tree
    n = g.n
    if not 0 <= root < n:
        raise PreconditionError(f"root {root} out of range")
    lower, upper = t.lower, t.upper
    nbrs = g.neighbors
    # BFS rooting; the children of v are its sorted neighbors minus parent[v]
    parent = [-1] * n
    order = [root]
    for v in order:
        p = parent[v]
        for u in nbrs(v):
            if u != p:
                parent[u] = v
                order.append(u)

    in_cost = [0] * n
    plain, plain_arg = [0] * n, [0] * n
    shift, shift_arg = [0] * n, [0] * n
    for v in reversed(order):
        p = parent[v]
        icost = 1
        tab = [0] + [_INF] * min(upper[v], len(nbrs(v)) - (p >= 0))
        for u in nbrs(v):
            if u != p:
                # with v selected the child's band shifts down by one
                icost += min(shift[u], in_cost[u])
                tab = _merge(tab, plain[u], in_cost[u])
        in_cost[v] = icost
        plain[v], plain_arg[v] = _window_min(tab, lower[v], upper[v])
        shift[v], shift_arg[v] = _window_min(tab, lower[v] - 1, upper[v] - 1)

    # traceback: a state is (vertex, its child count if unselected, else -1)
    value = min(plain[root], in_cost[root])
    selected: list[int] = []
    stack = [(root, plain_arg[root] if plain[root] <= in_cost[root] else -1)]
    while stack:
        v, c = stack.pop()
        p = parent[v]
        kids = [u for u in nbrs(v) if u != p]
        if c < 0:
            selected.append(v)
            stack.extend((u, shift_arg[u] if shift[u] <= in_cost[u] else -1)
                         for u in kids)
            continue
        tabs = [[0] + [_INF] * min(upper[v], len(kids))]
        for u in kids[:-1]:
            tabs.append(_merge(tabs[-1], plain[u], in_cost[u]))
        # walk the prefix tables backwards; the merge keeps a child out on ties
        for u, tab in zip(reversed(kids), reversed(tabs)):
            if c and tab[c - 1] + in_cost[u] < tab[c] + plain[u]:
                stack.append((u, -1))
                c -= 1
            else:
                stack.append((u, plain_arg[u]))
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
