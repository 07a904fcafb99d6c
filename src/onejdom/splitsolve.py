"""Polynomial minimum (1,j)-set for connected split graphs.

Any (1,j)-set of a split graph with clique K (|K| = n1 > j) intersects K
in exactly i vertices for some i in {0, 1, ..., j, n1}: a trace strictly
between j and n1 would leave some clique vertex outside the set with more
than j selected neighbors.  The solver therefore scans one candidate per
trace class and keeps the smallest:

  i = 0        D = S, admissible iff every clique degree is in
               [n1, n1+j-1];
  0 < i < j    for each i-subset K_i, the independents S_i not seen by K_i
               are forced in, and K_i u S_i works iff every remaining
               clique vertex has at most j-i neighbors inside S_i;
  i = j        any j-subset whose neighborhood covers S is itself a
               (1,j)-set;
  i = n1       K plus the independents of degree >= j+1 (which can never
               sit outside the set once K is inside).

When n1 <= j the trace restriction is vacuous, and the same classes
i = 0..n1 reach every clique subset with its forced independent side.

One scan, _trace_class, yields the admissible clique parts of a class in
lex order, by set algebra on bit masks over the positions of sorted S:
each entry point builds, once per call and in linear time from the CSR
rows, one int per clique vertex holding its independent neighbors (n1 * n2
bits in all).  gamma_1j_split (through split_case_candidates) takes the
smallest candidate of each class, passing every candidate through the
witness self-check before it may win: a candidate that fails it aborts the
run, because it would mean the case analysis was misapplied.
is_gamma_n_split reads the same scan for conditions (i)-(iii), but only
asks whether a class yields anything, stopping at the first hit and
verifying nothing.  Both entry points share one prologue: the j check,
the partition check and connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import PreconditionError
from .graph import Graph, SplitPartition, _selection, is_connected, validate_split_partition
from .oracle import Witness, check_j, checked_witness


@dataclass(frozen=True)
class SplitCaseResult:
    """One trace-class candidate: case_index j+1 encodes the K-inside case."""

    case_index: int
    candidate: Witness | None


@dataclass(frozen=True)
class GammaNReport:
    """Outcome of the four-condition whole-vertex-set characterization."""

    holds: bool
    failed: tuple[str, ...]


def _prologue(g: Graph, part: SplitPartition, j: int, what: str) -> None:
    """The checks both entry points run first: j, the partition, connectivity."""
    check_j(j)
    validate_split_partition(g, part)
    if not is_connected(g):
        raise PreconditionError(f"{what} requires a connected graph")


def _sides(g: Graph, part: SplitPartition) -> tuple[list[int], list[int], list[int], dict]:
    """(K, S, deg, masks): sorted K and S, every degree, and per clique
    vertex v an int masks[v] whose bit p is set when v sees S[p]. Every
    neighbor of an independent vertex is in K, so the masks are read off
    the CSR rows of S."""
    indptr, indices = g.csr()
    deg = np.diff(indptr)
    K, S = sorted(part.clique), sorted(part.independent)
    in_s = ~_selection(g.n, K)
    kpos = np.zeros(g.n, dtype=np.intp)
    kpos[K] = np.arange(len(K))
    width = (len(S) + 7) // 8
    bits = np.repeat(np.arange(len(S)), deg[in_s])  # the S position of each entry
    byte = kpos[indices[np.repeat(in_s, deg)]] * width + (bits >> 3)
    packed = np.zeros(len(K) * width, dtype=np.uint8)
    np.bitwise_or.at(packed, byte, (1 << (bits & 7)).astype(np.uint8))
    data = packed.tobytes()
    return K, S, deg.tolist(), {v: int.from_bytes(data[a * width:(a + 1) * width], "little")
                                for a, v in enumerate(K)}


def _trace_class(sides, i: int, j: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Admissible clique parts of trace class i, each with its forced
    independent side, in lex order; i = j + 1 encodes the K-inside case."""
    K, S, deg, masks = sides
    n1 = len(K)
    if i == 0:
        if all(n1 <= deg[v] <= n1 + j - 1 for v in K):
            yield (), S
    elif i > j:
        yield tuple(K), [u for u in S if deg[u] >= j + 1]
    else:
        full = (1 << len(S)) - 1
        for ksub in combinations(K, i):
            seen = 0
            for v in ksub:
                seen |= masks[v]
            if i == j:
                if seen == full:
                    yield ksub, []
                continue
            s_i = full & ~seen
            if all((masks[v] & s_i).bit_count() <= j - i for v in K if v not in ksub):
                left = bin(s_i)[:1:-1]  # the bits of s_i, lowest first
                yield ksub, [u for u, b in zip(S, left) if b == "1"]


def split_case_candidates(g: Graph, part: SplitPartition, j: int) -> list[SplitCaseResult]:
    """The smallest candidate of each trace class i in {0, ..., j, n1}; part
    must be a valid split partition of g (gamma_1j_split checks it)."""
    sides = _sides(g, part)
    results: list[SplitCaseResult] = []
    for i in range(j + 2):
        best: Witness | None = None
        for ksub, forced in _trace_class(sides, i, j):
            cand = checked_witness(g, [*ksub, *forced], 1, j,
                                   f"split case {i}, clique part {ksub}")
            if best is None or cand.cardinality < best.cardinality:
                best = cand
            if i == j:
                break  # all case-j candidates have size j; first in lex order wins
        results.append(SplitCaseResult(i, best))
    return results


def gamma_1j_split(g: Graph, part: SplitPartition, j: int) -> tuple[int, Witness]:
    """Minimum (1,j)-set of a connected split graph with its partition."""
    _prologue(g, part, j, "split solver")
    # the K-inside case always emits; min keeps the first of the smallest
    best = min((c.candidate for c in split_case_candidates(g, part, j) if c.candidate),
               key=lambda w: w.cardinality)
    return best.cardinality, best


def is_gamma_n_split(g: Graph, part: SplitPartition, j: int) -> GammaNReport:
    """Evaluate the four conditions equivalent to "no proper (1,j)-set".

    (i)   some clique vertex has degree outside [n1, n1+j-1] - either
          at least j independent neighbors (it would be over-dominated by
          S) or none at all (it would be undominated by S); either way the
          all-independents candidate dies.  Testing only the high side
          breaks the equivalence: a clique vertex with no independent
          neighbors kills that candidate just as surely;
    (ii)  for every i in [j-1] and every i-subset K_i, some remaining
          clique vertex keeps more than j-i neighbors among the
          independents not seen by K_i;
    (iii) no j-subset of K dominates all of S;
    (iv)  every independent vertex has degree >= j + 1.

    Holds iff the minimum (1,j)-set is the whole vertex set, for connected
    split graphs with at least two vertices (the single-vertex graph is a
    degenerate exception: its minimum is trivially n but the case analysis
    behind the conditions does not apply).
    """
    _prologue(g, part, j, "characterization")
    sides = _sides(g, part)
    failed = [name for name, classes in (("i", [0]), ("ii", range(1, j)), ("iii", [j]))
              if any(next(_trace_class(sides, i, j), None) is not None for i in classes)]
    _, S, deg, _ = sides
    if not all(deg[u] >= j + 1 for u in S):
        failed.append("iv")
    return GammaNReport(not failed, tuple(failed))
