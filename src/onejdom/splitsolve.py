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
lex order.  gamma_1j_split (through split_case_candidates) takes the
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

from .errors import PreconditionError
from .graph import Graph, SplitPartition, is_connected, validate_split_partition
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


def _trace_class(g: Graph, K: list[int], S: list[int], i: int,
                 j: int) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
    """Admissible clique parts of trace class i, each with its forced
    independent side, in lex order; i = j + 1 encodes the K-inside case."""
    n1 = len(K)
    sset = frozenset(S)
    if i == 0:
        if all(n1 <= g.degree(v) <= n1 + j - 1 for v in K):
            yield (), sset
    elif i > j:
        yield tuple(K), frozenset(u for u in S if g.degree(u) >= j + 1)
    else:
        for ksub in combinations(K, i):
            seen: set[int] = set()
            for v in ksub:
                seen |= g.neighbor_set(v)
            if i == j:
                if sset <= seen:
                    yield ksub, frozenset()
                continue
            s_i = sset - seen
            if all(len(g.neighbor_set(v) & s_i) <= j - i for v in K if v not in ksub):
                yield ksub, s_i


def split_case_candidates(g: Graph, part: SplitPartition, j: int) -> list[SplitCaseResult]:
    """The smallest candidate of each trace class i in {0, ..., j, n1}."""
    K = sorted(part.clique)
    S = sorted(part.independent)
    results: list[SplitCaseResult] = []
    for i in range(j + 2):
        best: Witness | None = None
        for ksub, forced in _trace_class(g, K, S, i, j):
            cand = checked_witness(g, forced.union(ksub), 1, j,
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
    K = sorted(part.clique)
    S = sorted(part.independent)
    failed = [name for name, classes in (("i", [0]), ("ii", range(1, j)), ("iii", [j]))
              if any(next(_trace_class(g, K, S, i, j), None) is not None for i in classes)]
    if not all(g.degree(u) >= j + 1 for u in S):
        failed.append("iv")
    return GammaNReport(not failed, tuple(failed))
