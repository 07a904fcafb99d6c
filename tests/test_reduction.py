import tracemalloc

import pytest

from onejdom import (EX3CInstance, ParseError, PreconditionError, SizeGuardError,
                     build_reduction, chordality_check, exact_gamma_1j,
                     extract_cover, forward_witness, gadget_lower_bounds,
                     parse_ex3c, solve_ex3c_brute, verify_1j_set, write_ex3c)


def _counts(q, t, j):
    return 4 * t + 3 * q + 3 * q * q * (1 + 3 * j), t + q + 3 * j * q * q


def test_instance_validation():
    with pytest.raises(PreconditionError):
        EX3CInstance(1, ())
    with pytest.raises(PreconditionError):
        EX3CInstance(1, ((1, 1, 2),))
    with pytest.raises(PreconditionError):
        EX3CInstance(1, ((1, 2, 9),))


def test_ex3c_round_trip():
    inst = EX3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    assert parse_ex3c(write_ex3c(inst)) == inst
    with pytest.raises(ParseError):
        parse_ex3c("1 2\n1 2 3")
    with pytest.raises(ParseError):
        parse_ex3c("1 1\n1 2\n")


def test_reduction_rejects_j1():
    with pytest.raises(PreconditionError):
        build_reduction(EX3CInstance(1, ((1, 2, 3),)), 1)


def test_reduction_past_the_vertex_limit_allocates_nothing_of_size_n():
    inst = EX3CInstance(10**6, ((1, 2, 3),))
    n, _ = _counts(10**6, 1, 2)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as exc:
            build_reduction(inst, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"vertex count {n} does not fit int32 ids" in str(exc.value)
    assert peak < 2 * 2**20, peak


def test_counts_q1_t1_j2():
    art = build_reduction(EX3CInstance(1, ((1, 2, 3),)), 2)
    n, k = _counts(1, 1, 2)
    assert art.graph.n == n == 28
    assert art.k == k == 8


def test_counts_grid():
    # closed forms over q <= 3, t <= 6, j in {2, 3}: vertices, edges, budget
    for q in (1, 2, 3):
        universe = list(range(1, 3 * q + 1))
        base = [tuple(universe[3 * i: 3 * i + 3]) for i in range(q)]
        for extra in range(7 - q):
            triples = base + [tuple(universe[:3])] * extra
            for j in (2, 3):
                inst = EX3CInstance(q, tuple(triples))
                t = inst.t
                art = build_reduction(inst, j)
                n, k = _counts(q, t, j)
                assert art.graph.n == n
                assert art.k == k
                m = 6 * t + 3 * q * (3 * q - 1) // 2 + 3 * q * q + 9 * j * q * q
                assert art.graph.m == m
                assert all(art.graph.degree(art.v_id(p)) == 4 for p in range(t))


def test_structure_invariants():
    inst = EX3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 6)))
    art = build_reduction(inst, 2)
    g = art.graph
    # element vertices form a clique and reach exactly q roots each
    xs = [art.x_id(i) for i in inst.universe]
    for a in xs:
        for b in xs:
            if a != b:
                assert g.has_edge(a, b)
    for i in inst.universe:
        roots = [art.w_id(i, r) for r in range(1, inst.q + 1)]
        assert all(g.has_edge(art.x_id(i), w) for w in roots)
        containing = [p for p, tri in enumerate(inst.triples) if i in tri]
        assert sorted(u for u in g.neighbors(art.x_id(i))
                      if art.roles[u][0] == "v") == sorted(art.v_id(p) for p in containing)
    # every gadget tree has 1 root, j children, 2j grandchildren
    for i in inst.universe:
        for r in range(1, inst.q + 1):
            kids = art.child_ids(i, r)
            assert len(kids) == art.j
            for c, child in enumerate(kids):
                assert g.has_edge(art.w_id(i, r), child)
                assert len(art.grandchild_ids(i, r, c)) == 2


def test_roles_cover_all_vertices():
    art = build_reduction(EX3CInstance(1, ((1, 2, 3),)), 3)
    kinds = {role[0] for role in art.roles}
    assert kinds == {"u", "v", "y", "z", "x", "w", "child", "grandchild"}
    assert len(art.roles) == art.graph.n


def test_reduction_output_is_chordal():
    for q, triples in [(1, ((1, 2, 3),)),
                       (2, ((1, 2, 3), (4, 5, 6), (2, 3, 4))),
                       (2, ((1, 2, 3), (1, 2, 4), (3, 5, 6), (4, 5, 6)))]:
        for j in (2, 3):
            art = build_reduction(EX3CInstance(q, triples), j)
            assert chordality_check(art.graph).chordal


def test_forward_witness_q1():
    art = build_reduction(EX3CInstance(1, ((1, 2, 3),)), 2)
    w = forward_witness(art, (0,))
    assert w.cardinality == art.k == 8
    assert verify_1j_set(art.graph, w.vertices, 2).valid


def test_forward_witness_q2_with_distractor():
    inst = EX3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    art = build_reduction(inst, 2)
    w = forward_witness(art, (0, 1))
    assert w.cardinality == art.k == 3 + 2 + 24 == 29
    assert verify_1j_set(art.graph, w.vertices, 2).valid


def test_forward_witness_rejects_non_covers():
    inst = EX3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    art = build_reduction(inst, 2)
    with pytest.raises(PreconditionError):
        forward_witness(art, (0,))  # wrong size
    with pytest.raises(PreconditionError):
        forward_witness(art, (0, 2))  # overlapping triples


def test_extract_cover_round_trip():
    inst = EX3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    art = build_reduction(inst, 2)
    w = forward_witness(art, (0, 1))
    assert extract_cover(art, w.vertices) == (0, 1)


def test_extract_cover_rejects_oversize_and_invalid():
    art = build_reduction(EX3CInstance(1, ((1, 2, 3),)), 2)
    with pytest.raises(PreconditionError, match="budget"):
        extract_cover(art, range(art.graph.n))  # valid but larger than k
    with pytest.raises(PreconditionError, match="not a valid"):
        extract_cover(art, {0})


def test_extract_cover_from_optimal_witness():
    art = build_reduction(EX3CInstance(1, ((1, 2, 3),)), 2)
    value, witness = exact_gamma_1j(art.graph, 2, engine="bnb", budget=art.k)
    assert value <= art.k
    assert extract_cover(art, witness.vertices) == (0,)


@pytest.mark.parametrize("j", [2, 3])
def test_gadget_lower_bounds(j):
    checks = gadget_lower_bounds(j)
    assert all(c.holds for c in checks), [c.detail for c in checks if not c.holds]


def test_solve_ex3c_brute():
    assert solve_ex3c_brute(EX3CInstance(1, ((1, 2, 3),))) == (0,)
    assert solve_ex3c_brute(EX3CInstance(2, ((1, 2, 3), (1, 4, 5)))) is None
    inst = EX3CInstance(2, ((1, 2, 3), (3, 4, 5), (4, 5, 6)))
    assert solve_ex3c_brute(inst) == (0, 2)
    with pytest.raises(SizeGuardError):
        solve_ex3c_brute(EX3CInstance(5, tuple((1, 2, 3) for _ in range(2))))


def test_budget_solver_agrees_with_ex3c_on_tiny_instances():
    # q = 1 instances are always coverable (the only triple is the universe);
    # the solver must find value exactly k, and extraction must give a cover
    for triples in [((1, 2, 3),), ((1, 2, 3), (1, 2, 3))]:
        inst = EX3CInstance(1, triples)
        art = build_reduction(inst, 2)
        brute = solve_ex3c_brute(inst)
        hit = exact_gamma_1j(art.graph, 2, engine="bnb", budget=art.k)
        assert (brute is not None) == (hit is not None)
        assert hit[0] == art.k
        assert extract_cover(art, hit[1].vertices) is not None
