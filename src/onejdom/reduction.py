"""Exact-3-cover to chordal-graph reduction, witnesses, and gadget checks.

Given a universe of 3q elements and t triples, the constructed graph has

  - one claw per triple p: center u_p with pendants v_p, y_p, z_p;
  - a clique on element vertices x_1..x_{3q}, with x_i joined to v_p
    exactly when element i lies in triple p (so every v_p has degree 4);
  - per element i, a forest of q depth-2 trees rooted at w_1^i..w_q^i,
    each root carrying j children and each child two grandchildren, with
    every root also joined to x_i.

Vertex ids are frozen: claws first in triple order (u, v, y, z), then the
element clique, then gadget trees row-major by (element, tree index), each
tree laid out root, children, grandchildren.  The instance has an exact
cover iff the graph has a (1,j)-set of size at most k = t + q + 3jq^2,
for any fixed j >= 2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations, takewhile

from .errors import (InternalContradictionError, ParseError,
                     PreconditionError, SizeGuardError)
from .graph import Graph, header_pair, numbered_lines
from .oracle import Witness, banded_sets, checked_witness, verify_1j_set

log = logging.getLogger(__name__)

EX3C_Q_GUARD = 4
EX3C_T_GUARD = 20


@dataclass(frozen=True)
class EX3CInstance:
    """Universe {1..3q} and a collection of 3-element subsets."""

    q: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.q < 1:
            raise PreconditionError("q must be a positive integer")
        if len(self.triples) < 1:
            raise PreconditionError("need at least one triple")
        limit = 3 * self.q
        norm = []
        for idx, triple in enumerate(self.triples):
            if len(triple) != 3 or len(set(triple)) != 3:
                raise PreconditionError(f"triple {idx} must have 3 distinct elements")
            for e in triple:
                if not 1 <= e <= limit:
                    raise PreconditionError(
                        f"triple {idx} element {e} outside universe 1..{limit}")
            norm.append(tuple(sorted(triple)))
        object.__setattr__(self, "triples", tuple(norm))

    @property
    def t(self) -> int:
        return len(self.triples)

    @property
    def universe(self) -> range:
        return range(1, 3 * self.q + 1)


def parse_ex3c(text: str | bytes) -> EX3CInstance:
    """Parse the instance format: header "q t", then t lines of 3 elements."""
    numbered = numbered_lines(text)
    q, t = header_pair(*(numbered[0] if numbered else (None, None)), "q t")
    body = numbered[1:]
    if len(body) != t:
        raise ParseError(f"expected {t} triple lines, found {len(body)}")
    triples = []
    for lineno, ln in body:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"expected 3 elements, got {ln!r}", lineno)
        try:
            triples.append(tuple(int(x) for x in toks))
        except ValueError:
            raise ParseError(f"non-integer element in {ln!r}", lineno) from None
    try:
        return EX3CInstance(q, tuple(triples))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def write_ex3c(inst: EX3CInstance) -> str:
    lines = [f"{inst.q} {inst.t}"]
    lines.extend(" ".join(str(e) for e in triple) for triple in inst.triples)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReductionArtifact:
    """The constructed graph with its budget and per-vertex role labels."""

    instance: EX3CInstance
    j: int
    graph: Graph
    k: int
    roles: tuple[tuple, ...]

    @property
    def q(self) -> int:
        return self.instance.q

    @property
    def t(self) -> int:
        return self.instance.t

    def u_id(self, p: int) -> int:
        return 4 * p

    def v_id(self, p: int) -> int:
        return 4 * p + 1

    def y_id(self, p: int) -> int:
        return 4 * p + 2

    def z_id(self, p: int) -> int:
        return 4 * p + 3

    def x_id(self, element: int) -> int:
        return 4 * self.t + (element - 1)

    def _tree_base(self, element: int, r: int) -> int:
        tree_size = 1 + 3 * self.j
        block = (element - 1) * self.q + (r - 1)
        return 4 * self.t + 3 * self.q + block * tree_size

    def w_id(self, element: int, r: int) -> int:
        return self._tree_base(element, r)

    def child_ids(self, element: int, r: int) -> list[int]:
        base = self._tree_base(element, r)
        return [base + 1 + c for c in range(self.j)]

    def grandchild_ids(self, element: int, r: int, c: int) -> list[int]:
        base = self._tree_base(element, r)
        return [base + 1 + self.j + 2 * c, base + 2 + self.j + 2 * c]


def build_reduction(inst: EX3CInstance, j: int) -> ReductionArtifact:
    """Deterministically build the chordal graph and budget for (inst, j)."""
    if j < 2:
        raise PreconditionError("the reduction is defined for j >= 2")
    q, t = inst.q, inst.t
    n = 4 * t + 3 * q + 3 * q * q * (1 + 3 * j)
    k = t + q + 3 * j * q * q
    roles: list[tuple] = [None] * n
    edges: list[tuple[int, int]] = []

    art = ReductionArtifact(inst, j, Graph(0), k, ())  # id helpers only

    for p in range(t):
        u, v, y, z = art.u_id(p), art.v_id(p), art.y_id(p), art.z_id(p)
        roles[u] = ("u", p)
        roles[v] = ("v", p)
        roles[y] = ("y", p)
        roles[z] = ("z", p)
        edges.extend([(u, v), (u, y), (u, z)])

    xs = [art.x_id(i) for i in inst.universe]
    for i, x in zip(inst.universe, xs):
        roles[x] = ("x", i)
    edges.extend(combinations(xs, 2))

    for p, triple in enumerate(inst.triples):
        for e in triple:
            edges.append((art.v_id(p), art.x_id(e)))

    for i in inst.universe:
        for r in range(1, q + 1):
            w = art.w_id(i, r)
            roles[w] = ("w", i, r)
            edges.append((art.x_id(i), w))
            for c, child in enumerate(art.child_ids(i, r)):
                roles[child] = ("child", i, r, c)
                edges.append((w, child))
                for s, gc in enumerate(art.grandchild_ids(i, r, c)):
                    roles[gc] = ("grandchild", i, r, c, s)
                    edges.append((child, gc))

    graph = Graph(n, edges)
    for p in range(t):
        if graph.degree(art.v_id(p)) != 4:
            raise InternalContradictionError(f"v_{p} has degree {graph.degree(art.v_id(p))}")
    return ReductionArtifact(inst, j, graph, k, tuple(roles))


def _validate_cover(inst: EX3CInstance, cover: tuple[int, ...]) -> None:
    if len(set(cover)) != len(cover):
        raise PreconditionError("cover lists a triple twice")
    for p in cover:
        if not 0 <= p < inst.t:
            raise PreconditionError(f"triple index {p} out of range")
    if len(cover) != inst.q:
        raise PreconditionError(
            f"an exact cover must use exactly q = {inst.q} triples, got {len(cover)}")
    if not _covers_universe(inst, cover):
        raise PreconditionError("selected triples do not partition the universe")


def _covers_universe(inst: EX3CInstance, cover: tuple[int, ...]) -> bool:
    """The exact-cover test for q triples, which partition what they cover."""
    return set().union(*(inst.triples[p] for p in cover)) == set(inst.universe)


def forward_witness(artifact: ReductionArtifact, cover: tuple[int, ...] | list[int]) -> Witness:
    """Witness for a yes-instance: claw centers, cover triples' v's, all children."""
    inst = artifact.instance
    cover = tuple(cover)
    _validate_cover(inst, cover)
    d: set[int] = set()
    for p in range(inst.t):
        d.add(artifact.u_id(p))
    for p in cover:
        d.add(artifact.v_id(p))
    for i in inst.universe:
        for r in range(1, inst.q + 1):
            d.update(artifact.child_ids(i, r))
    if len(d) != artifact.k:
        raise InternalContradictionError(
            f"forward witness has size {len(d)}, expected k = {artifact.k}")
    return checked_witness(artifact.graph, d, 1, artifact.j, "forward witness")


def extract_cover(artifact: ReductionArtifact, vertices) -> tuple[int, ...] | None:
    """Read a cover off a verified (1,j)-set of size at most k.

    Any such set must select exactly the cover triples' v-vertices; if the
    extracted collection is not an exact cover the contradiction is logged
    and None is returned.
    """
    dset = frozenset(vertices)
    report = verify_1j_set(artifact.graph, dset, artifact.j)
    if not report.valid:
        raise PreconditionError("vertex set is not a valid (1,j)-set")
    if len(dset) > artifact.k:
        raise PreconditionError(
            f"vertex set has size {len(dset)} > budget k = {artifact.k}")
    inst = artifact.instance
    cover = tuple(p for p in range(inst.t) if artifact.v_id(p) in dset)
    if len(cover) == inst.q and _covers_universe(inst, cover):
        return cover
    log.warning("verified in-budget set did not induce an exact cover: %s", cover)
    return None


def solve_ex3c_brute(inst: EX3CInstance, force: bool = False) -> tuple[int, ...] | None:
    """First exact cover in lexicographic order of triple indices, or None."""
    if (inst.q > EX3C_Q_GUARD or inst.t > EX3C_T_GUARD) and not force:
        raise SizeGuardError(
            f"brute solver guards at q <= {EX3C_Q_GUARD}, t <= {EX3C_T_GUARD}")
    return next((combo for combo in combinations(range(inst.t), inst.q)
                 if _covers_universe(inst, combo)), None)


@dataclass(frozen=True)
class GadgetCheck:
    name: str
    holds: bool
    detail: str


def _min_sets_dominating(g: Graph, targets: list[int]) -> tuple[int, list[frozenset[int]]]:
    """Smallest size k and all k-subsets whose closed neighborhoods cover targets."""
    lower = [0] * g.n
    for v in targets:
        lower[v] = 1
    sets = banded_sets(g, lower, (g.n,) * g.n)
    first = next(sets)
    hits = [first, *takewhile(lambda c: len(c) == len(first), sets)]
    return len(first), [frozenset(c) for c in hits]


def gadget_lower_bounds(j: int) -> list[GadgetCheck]:
    """Exhaustively confirm the counting facts behind the reverse direction.

    On an isolated claw, one vertex suffices to dominate the pendants and
    the center is the unique choice; on an isolated depth-2 gadget tree,
    dominating the 2j leaf grandchildren needs at least j vertices and the
    j children are the unique optimum.
    """
    if j < 2:
        raise PreconditionError("the reduction is defined for j >= 2")
    checks: list[GadgetCheck] = []

    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    size, hits = _min_sets_dominating(claw, [1, 2, 3])
    holds = size == 1 and hits == [frozenset({0})]
    checks.append(GadgetCheck(
        "claw_center_unique",
        holds,
        f"min dominators of the three pendants: size {size}, sets {sorted(map(sorted, hits))}"))

    # depth-2 tree: root 0, children 1..j, grandchildren in pairs after
    edges = []
    grandkids = []
    for c in range(j):
        child = 1 + c
        edges.append((0, child))
        g1, g2 = 1 + j + 2 * c, 2 + j + 2 * c
        edges.extend([(child, g1), (child, g2)])
        grandkids.extend([g1, g2])
    tree = Graph(1 + 3 * j, edges)
    size, hits = _min_sets_dominating(tree, grandkids)
    children = frozenset(range(1, j + 1))
    holds = size == j and hits == [children]
    checks.append(GadgetCheck(
        "gadget_tree_children_unique",
        holds,
        f"min dominators of the 2j pendants: size {size}, count {len(hits)}"))
    return checks
