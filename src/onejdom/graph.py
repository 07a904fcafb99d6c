"""Core graph container, edge-list serialization, and basic predicates.

Vertices are the dense ids 0..n-1. Graphs are simple and undirected, and
immutable once constructed, so they can be shared freely between solvers
and concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError, PreconditionError


class Graph:
    """Simple undirected graph with per-vertex sorted neighbor lists.

    The constructor is the package's only edge checker: it rejects an
    out-of-range id, a self-loop or a duplicate edge with ValueError, one
    edge at a time in the order given (parse_edge_list relies on this).
    """

    __slots__ = ("n", "m", "_nbrs", "_nbr_sets", "_masks", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbr_sets: list[set[int]] = [set() for _ in range(n)]
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
        self.n = n
        self.m = m
        self._nbr_sets = tuple(frozenset(s) for s in nbr_sets)
        self._nbrs = tuple(tuple(sorted(s)) for s in nbr_sets)
        self._masks: tuple[int, ...] | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._nbr_sets[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def degrees(self) -> list[int]:
        return [len(t) for t in self._nbrs]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    yield (u, v)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Open neighborhoods as bitmasks; computed once and cached."""
        if self._masks is None:
            masks = []
            for v in range(self.n):
                mask = 0
                for u in self._nbrs[v]:
                    mask |= 1 << u
                masks.append(mask)
            self._masks = tuple(masks)
        return self._masks

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int32 (indptr, indices), v's sorted neighbors being
        indices[indptr[v]:indptr[v + 1]]; computed once and cached."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int32)
            np.cumsum([len(t) for t in self._nbrs], out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(self._nbrs), np.int32, 2 * self.m)
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._nbrs == other._nbrs

    __hash__ = None  # mutable-free but identity semantics are not wanted

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _selected_counts(g: Graph, selected: np.ndarray) -> np.ndarray:
    """Selected-neighbor count of every vertex, from a boolean mask over the
    ids: adjacency is symmetric, so it counts the CSR rows of the selected."""
    indptr, indices = g.csr()
    return np.bincount(indices[np.repeat(selected, indptr[1:] - indptr[:-1])], minlength=g.n)


@dataclass(frozen=True)
class SplitPartition:
    """A (clique, independent set) bipartition of a split graph's vertices."""

    clique: frozenset[int]
    independent: frozenset[int]


def validate_split_partition(g: Graph, part: SplitPartition) -> None:
    """Raise PreconditionError unless part is a valid split of g."""
    k, s = part.clique, part.independent
    if k & s:
        raise PreconditionError("clique and independent set overlap")
    if k | s != frozenset(range(g.n)):
        raise PreconditionError("partition does not cover all vertices")
    kl = sorted(k)
    for i, u in enumerate(kl):
        for v in kl[i + 1:]:
            if not g.has_edge(u, v):
                raise PreconditionError(f"clique side misses edge ({u}, {v})")
    sl = sorted(s)
    for i, u in enumerate(sl):
        for v in sl[i + 1:]:
            if g.has_edge(u, v):
                raise PreconditionError(f"independent side contains edge ({u}, {v})")


def numbered_lines(data: str | bytes) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) for every non-blank line.

    Every input file is read through here; bytes that are not UTF-8 raise
    ParseError.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text (bad byte at offset {exc.start})") from None
    return [(i, s) for i, ln in enumerate(data.splitlines(), 1) if (s := ln.strip())]


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list format: a header line "n m" followed by m lines "u v".

    The parser itself checks the header, the line count and that each edge
    line holds two integers. Each edge goes to Graph as soon as its line is
    split, so Graph's range, self-loop and duplicate checks run in file
    order and the first fault wins; their messages come back as ParseError
    with the edge's line attached.
    """
    numbered = numbered_lines(text)
    if not numbered:
        raise ParseError("empty input, expected header 'n m'")
    hline, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be two integers 'n m'", hline)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be two integers 'n m'", hline) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative", hline)
    body = numbered[1:]
    if len(body) < m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    if len(body) > m:
        raise ParseError("unexpected extra line", body[m][0])

    line = None  # the line whose edge Graph is checking

    def pairs() -> Iterator[tuple[int, int]]:
        nonlocal line
        for line, ln in body:
            toks = ln.split()
            if len(toks) != 2:
                raise ParseError(f"malformed edge line {ln!r}", line)
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(f"malformed edge line {ln!r}", line) from None
            yield u, v

    try:
        return Graph(n, pairs())
    except ParseError:  # a line-reading fault, already located
        raise
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def write_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges are emitted sorted for stable diffs."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """True iff one walk from vertex 0 reaches all n vertices (n = 0 counts
    as connected)."""
    if g.n == 0:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    reached = 1
    stack = [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if not seen[u]:
                seen[u] = 1
                reached += 1
                stack.append(u)
    return reached == g.n


def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly n-1 edges."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)
