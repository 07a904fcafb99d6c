"""Ground-truth exact solvers and the (1,j)-set verifier.

Everything here is deliberately brute force: subsets are enumerated in
increasing cardinality (so the first hit is a minimum and, within a
cardinality, lexicographically smallest), and the branch-and-bound engine
exists only to push exact answers a little past where enumeration stops.
Other solvers in the package are validated against this module.

All enumeration is one scan, banded_sets, which yields the sets whose
outside vertices each see a selected-neighbor count inside their band:
exact_gamma_1j (enumeration engine) reads its first set under bands
(1, j), exact_gamma its first under (1, n), exact_gamma_M its first under
the tree's labels, and the EX3C gadget check in reduction reads every set
of the first size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import Iterable, Iterator

from .errors import InternalContradictionError, PreconditionError, SizeGuardError
from .graph import Graph, _outside_band, _selected_counts, _selection

ENUM_GUARD = 20
BNB_GUARD = 36

@dataclass(frozen=True)
class Witness:
    """An explicit vertex set certifying a reported domination value."""

    vertices: frozenset[int]

    @property
    def cardinality(self) -> int:
        return len(self.vertices)

    def sorted(self) -> list[int]:
        return sorted(self.vertices)


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    undominated: tuple[int, ...]
    overdominated: tuple[int, ...]


def check_j(j: int) -> None:
    """The package's one check of the parameter j."""
    if j < 1:
        raise PreconditionError("j must be a positive integer")


def verify_1j_set(g: Graph, vertices: Iterable[int], j: int) -> VerifyReport:
    """Check the (1,j) condition for every vertex outside the given set.

    After a range check of the ids, the band predicate with bands (1, j)
    over one selected-neighbor count yields the undominated and
    overdominated vertices, in id order.
    """
    check_j(j)
    dset = frozenset(vertices)
    for v in dset:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex id {v} out of range")
    selected = _selection(g.n, dset)
    cnt = _selected_counts(g, selected)
    bad = _outside_band(selected, cnt, 1, j)
    under = cnt[bad] == 0
    return VerifyReport(not len(bad), tuple(bad[under].tolist()), tuple(bad[~under].tolist()))


def checked_witness(g: Graph, vertices: Iterable[int], lower, upper, caller: str) -> Witness:
    """The self-check every engine runs on its answer before returning it.

    Returns the set as a Witness when every vertex outside it has a
    selected-neighbor count in [lower, upper] (scalars, or one entry per
    vertex). Otherwise the engine contradicted itself: raises
    InternalContradictionError naming the caller and the ids outside their
    band, or the first id that is not a vertex of g.
    """
    dset = frozenset(vertices)
    stray = sorted(v for v in dset if not 0 <= v < g.n)
    if stray:
        raise InternalContradictionError(f"{caller}: vertex id {stray[0]} out of range")
    selected = _selection(g.n, dset)
    bad = _outside_band(selected, _selected_counts(g, selected), lower, upper)
    if len(bad):
        raise InternalContradictionError(
            f"{caller}: set failed its self-check, vertices outside their band: {bad.tolist()}")
    return Witness(dset)


def _check_guard(n: int, limit: int, force: bool, what: str) -> None:
    if n > limit and not force:
        raise SizeGuardError(
            f"{what} guards at n <= {limit} (got n = {n}); pass force=True to override")


def banded_sets(g: Graph, lower, upper, limit: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every set D with lower[v] <= |N(v) & D| <= upper[v] for each v outside D.

    Sets come in increasing cardinality (up to limit) and in combinations
    order within a cardinality, so the first one is a lexicographically
    smallest minimum.
    """
    n = g.n
    masks = g.neighbor_masks()
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    free = full  # vertices that may stay out with no selected neighbor
    for v in range(n):
        if lower[v] >= 1:
            free ^= bits[v]
    top = n if limit is None else min(limit, n)
    for k in range(top + 1):
        for combo in combinations(range(n), k):
            dmask = 0
            cover = free
            for v in combo:
                dmask |= bits[v]
                cover |= masks[v]
            if cover | dmask != full:
                continue  # an unselected vertex that needs a selected neighbor has none
            rem = full & ~dmask
            while rem:
                low = rem & -rem
                v = low.bit_length() - 1
                if not lower[v] <= (masks[v] & dmask).bit_count() <= upper[v]:
                    break
                rem ^= low
            else:
                yield combo


def _enum_min_1j(g: Graph, j: int, budget: int | None) -> tuple[int, frozenset[int]] | None:
    combo = next(banded_sets(g, (1,) * g.n, (j,) * g.n, budget), None)
    return None if combo is None else (len(combo), frozenset(combo))


def _bnb_min_1j(g: Graph, j: int, budget: int | None) -> tuple[int, frozenset[int]] | None:
    n = g.n
    if n == 0:
        return 0, frozenset()
    adj = [g.neighbors(v) for v in range(n)]
    denom = g.max_degree() + 1
    UNDECIDED, IN, OUT = 0, 1, 2
    state = [UNDECIDED] * n
    cnt = [0] * n  # selected neighbors of each vertex

    best_val = n
    best_set: tuple[int, ...] | None = tuple(range(n))  # D = V always qualifies
    if budget is not None and budget < n:
        best_val = budget + 1
        best_set = None

    def assign_in(v: int, trail: list[tuple[str, int]]) -> None:
        state[v] = IN
        trail.append(("in", v))
        for u in adj[v]:
            cnt[u] += 1

    def assign_out(v: int, trail: list[tuple[str, int]]) -> None:
        state[v] = OUT
        trail.append(("out", v))

    def undo(trail: list[tuple[str, int]]) -> None:
        while trail:
            kind, v = trail.pop()
            state[v] = UNDECIDED
            if kind == "in":
                for u in adj[v]:
                    cnt[u] -= 1

    def propagate(trail: list[tuple[str, int]]) -> bool:
        """Forced moves to fixpoint; False signals a dead branch."""
        changed = True
        while changed:
            changed = False
            for v in range(n):
                st = state[v]
                if st == IN:
                    continue
                c = cnt[v]
                if st == OUT:
                    if c > j:
                        return False
                    if c == 0:
                        undecided = [u for u in adj[v] if state[u] == UNDECIDED]
                        if not undecided:
                            return False
                        if len(undecided) == 1:
                            assign_in(undecided[0], trail)
                            changed = True
                    elif c == j:
                        # selecting any further neighbor would overdominate v
                        for u in adj[v]:
                            if state[u] == UNDECIDED:
                                assign_out(u, trail)
                                changed = True
                else:  # UNDECIDED
                    if c > j:
                        assign_in(v, trail)
                        changed = True
        return True

    def search() -> None:
        nonlocal best_val, best_set
        trail: list[tuple[str, int]] = []
        if not propagate(trail):
            undo(trail)
            return
        selected = sum(1 for s in state if s == IN)
        undominated = [v for v in range(n) if state[v] != IN and cnt[v] == 0]
        lb = selected + ceil(len(undominated) / denom)
        if lb >= best_val:
            undo(trail)
            return
        if not undominated:
            # excluding every remaining undecided vertex is feasible and
            # minimal within this subtree
            best_val = selected
            best_set = tuple(v for v in range(n) if state[v] == IN)
            undo(trail)
            return
        branch = None
        for v in undominated:
            if state[v] == UNDECIDED:
                branch = v
                break
        if branch is None:
            # undominated vertices are all excluded: pick their lowest
            # undecided neighbor (one exists, else propagate had failed)
            cands = [u for v in undominated for u in adj[v] if state[u] == UNDECIDED]
            branch = min(cands)
        sub: list[tuple[str, int]] = []
        assign_in(branch, sub)
        search()
        undo(sub)
        assign_out(branch, sub)
        search()
        undo(sub)
        undo(trail)

    search()
    if best_set is None:
        return None
    return best_val, frozenset(best_set)


def exact_gamma_1j(
    g: Graph,
    j: int,
    engine: str = "brute",
    budget: int | None = None,
    force: bool = False,
) -> tuple[int, Witness] | None:
    """Minimum (1,j)-set by exhaustive search; engine is "brute" (enumeration)
    or "bnb" (branch and bound), the CLI's --method names.

    Returns (value, witness), or None when a budget is given and no
    (1,j)-set of size <= budget exists.  Without a budget an answer always
    exists because the whole vertex set vacuously qualifies.
    """
    check_j(j)
    if budget is not None and budget < 0:
        raise PreconditionError("budget must be nonnegative")
    if engine == "brute":
        _check_guard(g.n, ENUM_GUARD, force, "enumeration")
        hit = _enum_min_1j(g, j, budget)
    elif engine == "bnb":
        _check_guard(g.n, BNB_GUARD, force, "branch_and_bound")
        hit = _bnb_min_1j(g, j, budget)
    else:
        raise PreconditionError(f"unknown engine {engine!r}")
    if hit is None:
        return None
    value, vertices = hit
    return value, Witness(frozenset(vertices))


def exact_gamma(g: Graph, force: bool = False) -> int:
    """Plain domination number by enumeration in increasing cardinality."""
    _check_guard(g.n, ENUM_GUARD, force, "enumeration")
    return len(next(banded_sets(g, (1,) * g.n, (g.n,) * g.n)))


def exact_gamma_M(t, force: bool = False) -> tuple[int, Witness]:
    """Minimum band-feasible set of a labeled tree by enumeration.

    For every vertex v outside the set, the count of selected neighbors
    must lie in [lower[v], upper[v]].  The whole vertex set is always
    feasible, so a minimum exists.
    """
    _check_guard(t.tree.n, ENUM_GUARD, force, "enumeration")
    combo = next(banded_sets(t.tree, t.lower, t.upper))
    return len(combo), Witness(frozenset(combo))
