"""Dynamic program for band-constrained domination on trees.

An MLabeledTree carries per-vertex bounds (lower[v], upper[v]); a feasible
selection S must give every vertex outside S a selected-neighbor count
inside its band.  The solver roots the tree and does a single post-order
fold.  For each subtree root v it keeps

  in_cost      minimum cost with v selected, and
  out_tab[c]   minimum cost with v unselected and exactly c children
               selected (c capped at min(upper[v], #children): a larger
               count violates v's band even without help from the parent),

and band checks for a child u are deferred to the merge into its parent:
with the parent unselected u's count must lie in [lower[u], upper[u]],
with the parent selected the admissible window shifts down by one to
[max(lower[u]-1, 0), upper[u]-1].  Uniform bands (1, j) make the result the
minimum (1,j)-set of the tree; run time is O(n * max upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, is_tree
from .oracle import Witness

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
    if j < 1:
        raise PreconditionError("j must be a positive integer")
    return MLabeledTree(g, (1,) * g.n, (j,) * g.n)


def _rooted_order(g: Graph, root: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Iterative DFS: returns (post-order, parent array, children lists)."""
    n = g.n
    parent = [-2] * n
    parent[root] = -1
    children: list[list[int]] = [[] for _ in range(n)]
    post: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            post.append(v)
            continue
        stack.append((v, True))
        for u in reversed(g.neighbors(v)):
            if parent[u] == -2:
                parent[u] = v
                children[v].append(u)
                stack.append((u, False))
    for v in range(n):
        children[v].sort()
    return post, parent, children


def _window_min(tab: list[int], lo: int, hi: int) -> tuple[int, int | None]:
    """(min value, argmin) of tab over [lo, hi] clamped to the table; ties
    resolve to the lowest count."""
    best, arg = _INF, None
    for c in range(max(lo, 0), min(hi, len(tab) - 1) + 1):
        if tab[c] < best:
            best, arg = tab[c], c
    return best, arg


def gamma_M(t: MLabeledTree, root: int = 0) -> tuple[int, Witness]:
    """Minimum cardinality of a band-feasible set, with a witness.

    The value is independent of the chosen root; the witness tie-breaks
    toward unselected vertices, then lowest child counts.
    """
    g = t.tree
    n = g.n
    if not 0 <= root < n:
        raise PreconditionError(f"root {root} out of range")
    lower, upper = t.lower, t.upper
    post, _, children = _rooted_order(g, root)

    in_cost = [0] * n
    out_tab: list[list[int]] = [[] for _ in range(n)]
    # back-pointers: per child either ("sel",) or ("out", count chosen for it)
    in_back: list[list[tuple]] = [[] for _ in range(n)]
    out_back: list[list[dict[int, tuple[int, tuple]]]] = [[] for _ in range(n)]

    for v in post:
        kids = children[v]
        cap = min(upper[v], len(kids))
        icost = 1
        ichoice: list[tuple] = []
        tab = [0] + [_INF] * cap
        layers: list[dict[int, tuple[int, tuple]]] = []
        for u in kids:
            plain, plain_arg = _window_min(out_tab[u], lower[u], upper[u])
            shift, shift_arg = _window_min(out_tab[u], max(lower[u] - 1, 0), upper[u] - 1)
            child_in = in_cost[u]
            # contribution to "v selected": child band shifts down by one
            if shift <= child_in:
                icost += shift
                ichoice.append(("out", shift_arg))
            else:
                icost += child_in
                ichoice.append(("sel",))
            # contribution to "v unselected": min-plus merge on child count
            ntab = [_INF] * (cap + 1)
            layer: dict[int, tuple[int, tuple]] = {}
            if plain < _INF:
                for c in range(cap + 1):
                    cand = tab[c] + plain
                    if cand < ntab[c]:
                        ntab[c] = cand
                        layer[c] = (c, ("out", plain_arg))
            for c in range(cap):
                if tab[c] < _INF:
                    cand = tab[c] + child_in
                    if cand < ntab[c + 1]:
                        ntab[c + 1] = cand
                        layer[c + 1] = (c, ("sel",))
            tab = ntab
            layers.append(layer)
        in_cost[v] = icost
        out_tab[v] = tab
        in_back[v] = ichoice
        out_back[v] = layers

    root_out, root_arg = _window_min(out_tab[root], lower[root], upper[root])
    if root_out <= in_cost[root]:
        value, start = root_out, ("out", root_arg)
    else:
        value, start = in_cost[root], ("sel",)

    selected: set[int] = set()
    stack: list[tuple[int, tuple]] = [(root, start)]
    while stack:
        v, st = stack.pop()
        if st[0] == "sel":
            selected.add(v)
            for u, choice in zip(children[v], in_back[v]):
                stack.append((u, choice))
        else:
            c = st[1]
            for u, layer in zip(reversed(children[v]), reversed(out_back[v])):
                prev_c, choice = layer[c]
                stack.append((u, choice))
                c = prev_c
    assert len(selected) == value
    return value, Witness(frozenset(selected))


def gamma_1j_tree(g: Graph, j: int, root: int = 0) -> tuple[int, Witness]:
    """Minimum (1,j)-set of a tree: the fold with uniform bands (1, j).

    The MLabeledTree built here rejects a non-tree input.
    """
    return gamma_M(uniform_labeled_tree(g, j), root=root)


def m_band_violations(t: MLabeledTree, vertices) -> list[int]:
    """Vertices outside the set whose selected-neighbor count leaves its band."""
    sset = frozenset(vertices)
    bad = []
    for v in range(t.tree.n):
        if v in sset:
            continue
        c = len(sset & t.tree.neighbor_set(v))
        if not t.lower[v] <= c <= t.upper[v]:
            bad.append(v)
    return bad
