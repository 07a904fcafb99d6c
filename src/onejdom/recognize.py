"""Graph-class recognition: chordality and split graphs.

Chordality runs Lex-BFS and verifies the reversed visit order as a perfect
elimination ordering; when verification fails, a chordless cycle of length
at least four is extracted as the witness.  Split recognition uses the
degree-sequence threshold test, which yields the partition directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InternalContradictionError
from .graph import Graph, SplitPartition, validate_split_partition


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    # elimination order (first vertex eliminated first) when chordal
    peo: tuple[int, ...] | None
    # vertices of a chordless cycle, length >= 4, when not chordal
    cycle: tuple[int, ...] | None


def lex_bfs(g: Graph) -> list[int]:
    """Lexicographic BFS visit order via partition refinement, in O(n + m).

    The unvisited vertices form a doubly linked list of classes; each class
    keeps a member list in ascending id order, a read pointer and a live
    count, and `cls[v]` names v's current class (-1 once v is visited).
    The next vertex is the first live member of the first class, so ties
    are broken toward the lowest vertex id and the order is a pure function
    of the graph.  Visiting v walks only its sorted neighbour list: an
    unvisited neighbour w leaves its class c for the class split from c
    during this visit, created on the first such w and linked immediately
    before c.  Appending in ascending id order keeps every class sorted, so
    each class splits into neighbours first, then the rest, both in their
    old order.  A class left empty is unlinked and its id reused, so the
    per-class lists stay as long as the most classes alive at once; entries
    of vertices that moved on are skipped through the read pointer.
    """
    n = g.n
    if n == 0:
        return []
    cls = [0] * n
    members: list[list[int] | None] = [list(range(n))]
    read, live = [0], [n]
    prev, nxt = [-1], [-1]
    split, split_by = [-1], [-1]  # class split from c during visit split_by[c]
    free: list[int] = []
    first = 0
    order: list[int] = []

    def unlink(c: int) -> None:
        nonlocal first
        p, q = prev[c], nxt[c]
        if p < 0:
            first = q
        else:
            nxt[p] = q
        if q >= 0:
            prev[q] = p
        members[c] = None
        free.append(c)

    while first >= 0:
        c = first
        mem = members[c]
        i = read[c]
        while cls[mem[i]] != c:
            i += 1
        v = mem[i]
        read[c] = i + 1
        order.append(v)
        cls[v] = -1
        live[c] -= 1
        if not live[c]:
            unlink(c)
        for w in g.neighbors(v):
            c = cls[w]
            if c < 0:
                continue
            if split_by[c] == v:
                d = split[c]
            else:
                if free:
                    d = free.pop()
                    members[d] = []
                    read[d] = 0
                else:
                    d = len(members)
                    members.append([])
                    read.append(0)
                    live.append(0)
                    prev.append(-1)
                    nxt.append(-1)
                    split.append(-1)
                    split_by.append(-1)
                split[c] = d
                split_by[c] = v
                p = prev[c]
                prev[d] = p
                nxt[d] = c
                prev[c] = d
                if p < 0:
                    first = d
                else:
                    nxt[p] = d
            members[d].append(w)
            live[d] += 1
            cls[w] = d
            live[c] -= 1
            if not live[c]:
                unlink(c)
    return order


def _verify_peo(g: Graph, elim: list[int]) -> bool:
    """Check the perfect-elimination property of an elimination order."""
    pos = {v: i for i, v in enumerate(elim)}
    pending: dict[int, list[int]] = {v: [] for v in elim}
    for v in elim:
        for w in pending[v]:
            if not g.has_edge(v, w):
                return False
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if later:
            parent = min(later, key=pos.__getitem__)
            for w in later:
                if w != parent:
                    pending[parent].append(w)
    return True


def _bfs_path_avoiding(g: Graph, src: int, dst: int, blocked: frozenset[int]) -> list[int] | None:
    """Shortest src-dst path in g minus `blocked` (src, dst assumed unblocked)."""
    prev = {src: -1}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            path = [v]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            return path[::-1]
        for u in g.neighbors(v):
            if u not in prev and u not in blocked:
                prev[u] = v
                queue.append(u)
    return None


def find_chordless_cycle(g: Graph) -> tuple[int, ...] | None:
    """Return some chordless cycle of length >= 4, or None if there is none.

    For each vertex v and non-adjacent pair (u, w) of its neighbors, a
    shortest u-w path avoiding the rest of N[v] closes into a chordless
    cycle through v; any non-chordal graph contains such a configuration.
    """
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) < 2:
            continue
        closed = {v, *nbrs}
        for u, w in combinations(nbrs, 2):
            if g.has_edge(u, w):
                continue
            blocked = frozenset(closed - {u, w})
            path = _bfs_path_avoiding(g, u, w, blocked)
            if path is not None:
                return (v, *path)
    return None


def chordality_check(g: Graph) -> ChordalityResult:
    """Decide chordality; return a PEO or a chordless-cycle witness."""
    order = lex_bfs(g)
    elim = order[::-1]
    if _verify_peo(g, elim):
        return ChordalityResult(True, tuple(elim), None)
    cycle = find_chordless_cycle(g)
    if cycle is None:
        raise InternalContradictionError(
            "elimination check failed but no chordless cycle was found")
    return ChordalityResult(False, None, cycle)


def split_recognition(g: Graph) -> SplitPartition | None:
    """Degree-sequence split test; returns the (K, S) partition or None.

    With degrees sorted descending, G is split iff
    sum(d_1..d_h) == h(h-1) + sum(d_{h+1}..d_n) for the threshold index
    h = max{i : d_i >= i-1}.  The h highest-degree vertices then induce the
    clique.  Vertices tied at the boundary (eligible for either side) land
    in K because the sort breaks degree ties by lowest id.
    """
    n = g.n
    if n == 0:
        return SplitPartition(frozenset(), frozenset())
    deg = np.diff(g.csr()[0])
    order = np.argsort(-deg, kind="stable")
    d = deg[order]
    h = int(np.flatnonzero(d >= np.arange(n))[-1]) + 1
    if int(d[:h].sum()) != h * (h - 1) + int(d[h:].sum()):
        return None
    part = SplitPartition(frozenset(order[:h].tolist()), frozenset(order[h:].tolist()))
    try:
        validate_split_partition(g, part)
    except ValueError as exc:  # cannot happen when the threshold test passes
        raise InternalContradictionError(
            f"degree test accepted a non-split partition: {exc}") from exc
    return part
