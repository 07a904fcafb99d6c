from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onejdom.splitsolve
from conftest import gamma_n_split_example
from onejdom import (Graph, PreconditionError, SplitPartition, complete_graph,
                     cycle_graph, exact_gamma_1j, gamma_1j_split, is_gamma_n_split,
                     random_split, star_graph, verify_1j_set)
from onejdom.oracle import checked_witness
from onejdom.splitsolve import split_case_candidates


def test_two_clique_one_pendant():
    g = Graph(3, [(0, 1), (0, 2)])
    part = SplitPartition(frozenset({0, 1}), frozenset({2}))
    value, witness = gamma_1j_split(g, part, 1)
    assert value == 1 and witness.vertices == frozenset({0})


def test_clique_without_independents():
    g = complete_graph(5)
    part = SplitPartition(frozenset(range(5)), frozenset())
    for j in (1, 2, 3):
        assert gamma_1j_split(g, part, j)[0] == 1


def test_case_zero_emits_s():
    # clique {0,1} with pendants 2-0 and 3-1: every clique degree is n1 = 2,
    # inside [n1, n1+j-1], so D = S is a candidate
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    part = SplitPartition(frozenset({0, 1}), frozenset({2, 3}))
    cases = split_case_candidates(g, part, 1)
    d0 = cases[0]
    assert d0.case_index == 0
    assert d0.candidate is not None
    assert d0.candidate.vertices == frozenset({2, 3})
    value, _ = gamma_1j_split(g, part, 1)
    assert value == exact_gamma_1j(g, 1)[0] == 2


def test_rejects_disconnected_and_bad_partition():
    g = Graph(3, [(0, 1)])
    part = SplitPartition(frozenset({0, 1}), frozenset({2}))
    with pytest.raises(PreconditionError, match="connected"):
        gamma_1j_split(g, part, 1)
    g2 = cycle_graph(4)
    bad = SplitPartition(frozenset({0, 1, 2}), frozenset({3}))
    with pytest.raises(PreconditionError):
        gamma_1j_split(g2, bad, 1)


def test_agreement_with_oracle_random():
    for seed in range(100):
        n1 = 1 + seed % 6
        n2 = seed % 9
        g, part = random_split(n1, n2, 0.2 + (seed % 5) * 0.15, seed)
        for j in (1, 2, 3):
            value, witness = gamma_1j_split(g, part, j)
            assert value == exact_gamma_1j(g, j)[0], (seed, j)
            assert verify_1j_set(g, witness.vertices, j).valid


def test_agreement_with_oracle_j4():
    for seed in range(30):
        n1 = 2 + seed % 8
        g, part = random_split(n1, seed % 8, 0.15 + (seed % 6) * 0.15, 500_000 + seed)
        value, witness = gamma_1j_split(g, part, 4)
        assert value == exact_gamma_1j(g, 4)[0], seed
        assert verify_1j_set(g, witness.vertices, 4).valid


def test_case_candidates_all_verify():
    for seed in range(40):
        g, part = random_split(4 + seed % 3, 2 + seed % 6, 0.45, seed)
        for j in (1, 2, 3):
            if len(part.clique) <= j:
                continue
            for case in split_case_candidates(g, part, j):
                if case.candidate is not None:
                    assert verify_1j_set(g, case.candidate.vertices, j).valid


def test_trace_sizes_match_case_indices():
    for seed in range(25):
        g, part = random_split(5, 4, 0.5, 700 + seed)
        for j in (1, 2):
            for case in split_case_candidates(g, part, j):
                if case.candidate is None:
                    continue
                trace = len(case.candidate.vertices & part.clique)
                if case.case_index <= j:
                    assert trace == case.case_index
                else:
                    assert trace == len(part.clique)


def test_characterization_star_fails_condition_iv():
    g = star_graph(3)
    part = SplitPartition(frozenset({0}), frozenset({1, 2, 3}))
    report = is_gamma_n_split(g, part, 2)
    assert not report.holds
    assert "iv" in report.failed


def test_characterization_positive_witness():
    g, part = gamma_n_split_example()
    report = is_gamma_n_split(g, part, 2)
    assert report.holds and report.failed == ()
    value, _ = gamma_1j_split(g, part, 2)
    assert value == g.n == 12
    assert exact_gamma_1j(g, 2)[0] == 12


def test_characterization_consistency_random():
    for seed in range(60):
        g, part = random_split(1 + seed % 5, seed % 8, 0.35, 10_000 + seed)
        if g.n < 2:
            continue
        for j in (1, 2):
            value, _ = gamma_1j_split(g, part, j)
            assert is_gamma_n_split(g, part, j).holds == (value == g.n)


def test_characterization_low_side_of_condition_i():
    # clique {0..5}; independents 6 ~ {1,4,5} and 7 ~ {2,3}.  Vertex 0 has
    # no independent neighbor, so D = S dies on the LOW side of the degree
    # interval; with j = 1 everything else is forced and the minimum is n.
    g = Graph(8, [(a, b) for a in range(6) for b in range(a + 1, 6)]
              + [(1, 6), (4, 6), (5, 6), (2, 7), (3, 7)])
    part = SplitPartition(frozenset(range(6)), frozenset({6, 7}))
    value, _ = gamma_1j_split(g, part, 1)
    assert value == exact_gamma_1j(g, 1)[0] == 8 == g.n
    report = is_gamma_n_split(g, part, 1)
    assert report.holds, report.failed


def test_characterization_contrapositive():
    # any instance where the solver returns value < n must fail a condition
    for seed in range(30):
        g, part = random_split(3 + seed % 4, 2 + seed % 5, 0.5, 20_000 + seed)
        value, _ = gamma_1j_split(g, part, 2)
        if value < g.n:
            assert not is_gamma_n_split(g, part, 2).holds


def test_trace_restriction_on_all_minimum_witnesses():
    # with more clique vertices than j, every (1,j)-set meets the clique in
    # 0..j vertices or contains it whole; check it on every minimum witness
    from itertools import combinations
    for seed in range(25):
        g, part = random_split(4 + seed % 3, 2 + seed % 4, 0.5, 30_000 + seed)
        for j in (1, 2):
            n1 = len(part.clique)
            if n1 <= j:
                continue
            value, _ = gamma_1j_split(g, part, j)
            allowed = set(range(j + 1)) | {n1}
            for combo in combinations(range(g.n), value):
                if verify_1j_set(g, combo, j).valid:
                    assert len(part.clique & set(combo)) in allowed


@settings(max_examples=150, deadline=None)
@given(n1=st.integers(1, 7), n2=st.integers(0, 7), p=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**31 - 1), j=st.integers(1, 4))
def test_gamma_n_test_reads_the_solver_scan(n1, n2, p, seed, j):
    # the gamma = n test and the solver share one trace-class scan, for
    # n1 > j and n1 <= j alike; the test must not verify any candidate
    g, part = random_split(n1, n2, p, seed)
    if g.n < 2:
        return
    cases = {c.case_index: c.candidate for c in split_case_candidates(g, part, j)}
    with patch.object(onejdom.splitsolve, "checked_witness",
                      side_effect=checked_witness) as counting_verify:
        failed = set(is_gamma_n_split(g, part, j).failed)
    assert counting_verify.call_count == 0
    assert ("i" in failed) == (cases[0] is not None)
    assert ("ii" in failed) == any(cases[i] is not None for i in range(1, j))
    assert ("iii" in failed) == (cases[j] is not None)
    assert ("iv" in failed) == (cases[j + 1].cardinality < g.n)
