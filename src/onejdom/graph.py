"""Core graph container, edge-list serialization, and basic predicates.

Vertices are the dense ids 0..n-1. Graphs are simple and undirected, and
immutable once constructed, so they can be shared freely between solvers
and concurrent tasks. A graph has two views of its adjacency: the
read-only int32 CSR pair it is stored as, and the neighbor tuples the
exact engines walk, built from it on first use, so array-only callers such
as the resampler and the set verifier never build them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, PreconditionError

_MAX_VERTICES = 2**31  # ids must fit the int32 CSR arrays


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n >= _MAX_VERTICES:
        raise ValueError(f"vertex count {n} does not fit int32 ids (at most 2**31 - 1)")


def _edge_arrays(pairs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """int64 (u, v) columns of the longest prefix of pairs whose ids fit
    int64; an id past it is out of range for any vertex count."""
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.int64)
    except OverflowError:
        k = next(i for i, e in enumerate(pairs) if not all(-2**63 <= x < 2**63 for x in e))
        return _edge_arrays(pairs[:k])
    if flat.size != 2 * len(pairs):
        raise ValueError("every edge must be a pair of vertex ids")
    return flat[0::2], flat[1::2]


def _first_fault(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Index of the first edge that is out of range, a self-loop, or the same
    unordered pair as an earlier edge; len(u) when every edge is sound.

    Only edges before the first range or self-loop fault matter for
    duplicates. Their keys min * n + max are sorted once; only when two are
    equal does a stable argsort name the earliest second copy.
    """
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    first = int(bad.argmax()) if bad.any() else len(u)
    key = np.minimum(u[:first], v[:first]) * n + np.maximum(u[:first], v[:first])
    ordered = np.sort(key)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        first = int(order[1:][ordered[1:] == ordered[:-1]].min())
    return first


def _fault_message(n: int, u: int, v: int) -> str:
    """The message for an edge _first_fault named, checked in its order."""
    if not (0 <= u < n and 0 <= v < n):
        return f"vertex id out of range in edge ({u}, {v})"
    if u == v:
        return f"self-loop at vertex {u}"
    return f"duplicate edge ({u}, {v})"


class Graph:
    """Simple undirected graph stored as read-only int32 CSR arrays.

    It has two views: csr() returns the storage itself, where v's sorted
    neighbors are indices[indptr[v]:indptr[v + 1]], and neighbors(v) gives
    them as a tuple; the tuples are built on first use and cached.
    Degrees, edges() and == read the arrays; has_edge bisects a tuple.

    The constructor rejects an out-of-range id, a self-loop or a duplicate
    edge with ValueError, naming the first faulty edge in the order given.
    _first_fault is the package's only edge checker; parse_edge_list runs
    it too, then builds through the same CSR constructor.
    """

    __slots__ = ("n", "m", "_indptr", "_indices", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_vertex_count(n)
        pairs = list(edges)
        u, v = _edge_arrays(pairs)
        k = _first_fault(n, u, v)
        if k < len(pairs):
            raise ValueError(_fault_message(n, *pairs[k]))
        self._set_csr(n, u, v)

    @classmethod
    def _from_checked(cls, n: int, u: np.ndarray, v: np.ndarray) -> Graph:
        """Build from edge columns that have already passed _first_fault."""
        g = cls.__new__(cls)
        g._set_csr(n, u, v)
        return g

    def _set_csr(self, n: int, u: np.ndarray, v: np.ndarray) -> None:
        src = np.concatenate((u, v))
        key = src * n
        key += np.concatenate((v, u))
        key.sort()  # by row, then by neighbor
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[1:] = np.bincount(src, minlength=n)
        np.cumsum(indptr, out=indptr)
        indices = (key % n).astype(np.int32)  # n = 0 leaves key empty
        indptr.flags.writeable = indices.flags.writeable = False
        self.n = n
        self.m = len(u)
        self._indptr, self._indices = indptr, indices
        self._nbrs: tuple[tuple[int, ...], ...] | None = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        nbrs = self._nbrs
        if nbrs is None:
            flat, ptr = self._indices.tolist(), self._indptr.tolist()
            nbrs = self._nbrs = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return nbrs[v]

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> list[int]:
        return np.diff(self._indptr).tolist()

    def max_degree(self) -> int:
        return int(np.diff(self._indptr).max(initial=0))

    def min_degree(self) -> int:
        return int(np.diff(self._indptr).min()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, in sorted order."""
        src = np.repeat(np.arange(self.n), np.diff(self._indptr))
        up = src < self._indices
        return zip(src[up].tolist(), self._indices[up].tolist())

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only int32 storage (indptr, indices)."""
        return self._indptr, self._indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    __hash__ = None  # mutable-free but identity semantics are not wanted

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _selection(n: int, ids: Iterable[int]) -> np.ndarray:
    """Boolean mask over 0..n-1 of the given ids, which must be in range."""
    selected = np.zeros(n, dtype=bool)
    selected[np.fromiter(ids, dtype=np.intp)] = True
    return selected


def _selected_counts(g: Graph, selected: np.ndarray) -> np.ndarray:
    """Selected-neighbor count of every vertex, from a boolean mask over the
    ids: adjacency is symmetric, so it counts the CSR rows of the selected."""
    indptr, indices = g.csr()
    return np.bincount(indices[np.repeat(selected, indptr[1:] - indptr[:-1])], minlength=g.n)


def _outside_band(selected: np.ndarray, cnt: np.ndarray, lower, upper) -> np.ndarray:
    """The band predicate: ids outside the selection whose selected-neighbor
    count cnt misses lower <= cnt <= upper, in id order. The bounds are
    scalars or per-vertex arrays."""
    return np.flatnonzero(~selected & ((cnt < lower) | (cnt > upper)))


@dataclass(frozen=True)
class SplitPartition:
    """A (clique, independent set) bipartition of a split graph's vertices."""

    clique: frozenset[int]
    independent: frozenset[int]


def validate_split_partition(g: Graph, part: SplitPartition) -> None:
    """Raise PreconditionError unless part is a valid split of g, naming the
    lexicographically first missing clique pair or independent-side edge.
    O(n + m): clique vertices count their clique neighbors in one pass."""
    k, s = part.clique, part.independent
    if k & s:
        raise PreconditionError("clique and independent set overlap")
    if k | s != frozenset(range(g.n)):
        raise PreconditionError("partition does not cover all vertices")
    in_k = _selection(g.n, k)
    cnt = _selected_counts(g, in_k)
    indptr, indices = g.csr()
    # the lowest vertex at fault has a higher partner: its partners are at fault too
    short = np.flatnonzero(in_k & (cnt < len(k) - 1))
    if len(short):
        u = int(short[0])
        row = set(indices[indptr[u]:indptr[u + 1]].tolist())
        v = min(w for w in k if w > u and w not in row)
        raise PreconditionError(f"clique side misses edge ({u}, {v})")
    crossing = np.flatnonzero(~in_k & (np.diff(indptr) > cnt))
    if len(crossing):
        u = int(crossing[0])
        v = next(w for w in indices[indptr[u]:indptr[u + 1]].tolist() if w in s)
        raise PreconditionError(f"independent side contains edge ({u}, {v})")


def numbered_lines(data: str | bytes) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) for every non-blank line.

    Every input file is read through here, except edge lists of digits and
    blanks only, which parse_edge_list tokenizes in bulk; bytes that are not
    UTF-8 raise ParseError.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text (bad byte at offset {exc.start})") from None
    return [(i, s) for i, ln in enumerate(data.splitlines(), 1) if (s := ln.strip())]


_MAX_DIGITS = 18  # the longest token that always fits int64


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list format: a header line "n m" followed by m lines "u v".

    Input whose bytes are only ASCII digits, space, tab, "\\n" and "\\r\\n",
    with tokens of at most 18 digits, is tokenized in bulk: array passes
    over its bytes find the tokens and the lines, and np.fromstring reads
    the values. Any other input (a sign, "_", a non-ASCII digit, a lone
    "\\r", other whitespace, a longer token) is read line by line through
    numbered_lines, split and int. Both paths accept the same inputs and
    raise the same errors.

    The header comes first: two integers, nonnegative, n below 2**31. Then
    the count of non-blank lines must equal m. Each tokenizer stops at the
    first edge line that is not two integers and runs the edge checker
    (_first_fault) on the lines before it, so the first fault in file order
    is reported, as ParseError with its line. Nothing of size n is
    allocated before the input has passed every check.
    """
    if isinstance(text, str):
        data = text.encode("ascii") if text.isascii() else None
    else:
        data = bytes(text)  # np.fromstring needs read-only bytes
    scan = _scan_bytes(data) if data is not None else None
    n, lines, u, v, stop = scan or _scan_lines(text)
    k = _first_fault(n, u, v)
    if k < len(u):
        raise ParseError(_fault_message(n, int(u[k]), int(v[k])), int(lines[k]))
    if stop is not None:
        raise stop
    return Graph._from_checked(n, u, v)


def header_pair(line: int | None, header: str | None, names: str) -> tuple[int, int]:
    """The two integers of an input file's header line; header is None for an
    input with no non-blank line, and names shows the fields, as in "n m"."""
    if header is None:
        raise ParseError(f"empty input, expected header '{names}'")
    parts = header.split()
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"header must be two integers '{names}'", line) from None


def _read_header(line_nos: Sequence[int], header: str | None) -> int:
    """n, after the header and line-count checks; line_nos are the numbers
    of the non-blank lines and header is the first one's text."""
    hline = int(line_nos[0]) if header is not None else None
    n, m = header_pair(hline, header, "n m")
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative", hline)
    try:
        _check_vertex_count(n)
    except ValueError as exc:
        raise ParseError(str(exc), hline) from None
    body = len(line_nos) - 1
    if body < m:
        raise ParseError(f"expected {m} edge lines, found {body}")
    if body > m:
        raise ParseError("unexpected extra line", int(line_nos[1 + m]))
    return n


def _malformed(ln: str, line: int) -> ParseError:
    return ParseError(f"malformed edge line {ln!r}", line)


def _scan_lines(text: str | bytes):
    """Line reader: (n, edge line numbers, u, v, pending ParseError or None)."""
    numbered = numbered_lines(text)
    n = _read_header([i for i, _ in numbered], numbered[0][1] if numbered else None)
    pairs, lines, stop = [], [], None
    for line, ln in numbered[1:]:
        try:
            a, b = map(int, ln.split())
        except ValueError:
            stop = _malformed(ln, line)
            break
        pairs.append((a, b))
        lines.append(line)
    u, v = _edge_arrays(pairs)
    if len(u) < len(pairs):  # an id beyond int64 is out of range
        stop = ParseError(_fault_message(n, *pairs[len(u)]), lines[len(u)])
    return n, lines, u, v, stop


def _scan_bytes(data: bytes):
    """Array tokenizer, giving what _scan_lines gives, or None for input it
    leaves to _scan_lines. Its arrays hold one byte per input byte, or an
    int per token or per line."""
    if data.translate(None, b"0123456789 \t\r\n") or data.count(b"\r") != data.count(b"\r\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(b) + 2, dtype=bool)  # padded by a non-digit at each end
    digit[1:-1] = (b - 48) < 10  # bytes below "0" wrap around
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[0::2], bounds[1::2]  # of each token
    if len(starts) and (ends - starts).max() > _MAX_DIGITS:
        return None
    line_end = np.append(np.flatnonzero(b == 10), len(b))
    ntok = np.diff(np.searchsorted(starts, line_end), prepend=0)  # tokens on each line
    line_nos = np.flatnonzero(ntok) + 1  # the non-blank lines
    ntok = ntok[line_nos - 1]

    def line_text(i: int) -> str:  # the stripped text of non-blank line i
        ln = line_nos[i] - 1
        lo = line_end[ln - 1] + 1 if ln else 0
        return data[lo:line_end[ln]].decode("ascii").strip()

    n = _read_header(line_nos, line_text(0) if len(line_nos) else None)
    bad = np.flatnonzero(ntok[1:] != 2)
    s = int(bad[0]) if len(bad) else len(ntok) - 1  # edge lines before a malformed one
    stop = _malformed(line_text(1 + s), int(line_nos[1 + s])) if len(bad) else None
    vals = np.fromstring(data, dtype=np.int64, sep=" ")[2:2 + 2 * s]
    return n, line_nos[1:1 + s], vals[0::2], vals[1::2], stop


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
