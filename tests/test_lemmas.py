import pytest

from planarcert import lemmas
from planarcert.errors import InternalInconsistencyError
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_labeled_graphs,
    petersen_graph,
)
from planarcert.lemmas import (
    REASON_LOW_DEGREE,
    REASON_NOT_A_CYCLE,
    REASON_THETA,
    condition1,
    condition2,
    condition3,
    lemma_report,
)

from reference import deletion_lemma_predicates


def test_conditions_on_the_obstructions():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        assert condition1(g)
        assert condition2(g)
        assert condition3(g)


def test_conditions_on_non_obstructions():
    k4 = complete_graph(4)
    assert not condition1(k4)  # K4 - x - y is a single edge: degree 1
    assert not condition2(k4)
    assert not condition3(k4)
    c5 = cycle_graph(5)
    assert not condition2(c5)  # C5 - x - y is a path
    pet = petersen_graph()
    assert not condition3(pet)


def test_condition3_is_isomorphism_invariant():
    relabeled = Graph(6, [(5 - u, 5 - v) for u, v in complete_bipartite(3, 3).edges])
    assert condition3(relabeled)


def test_edgeless_conventions():
    empty = Graph(4)
    assert condition1(empty)  # vacuous: no edge to quantify over
    assert not condition2(empty)
    assert not condition3(empty)


def test_deletion_lemma_predicates_examples():
    assert deletion_lemma_predicates(complete_graph(5), 0, 1) == (True, True)
    assert deletion_lemma_predicates(complete_graph(4), 0, 1) == (False, True)
    deg_ok, theta_free = deletion_lemma_predicates(petersen_graph(), 0, 1)
    assert not theta_free
    with pytest.raises(ValueError):
        deletion_lemma_predicates(cycle_graph(5), 0, 2)


def test_lemma_report_witnesses():
    rep = lemma_report(complete_graph(5))
    assert rep.condition1 and rep.condition2 and rep.condition3
    assert rep.witnesses == ()

    rep4 = lemma_report(complete_graph(4))
    assert not rep4.condition1 and not rep4.condition2
    reasons = {r for _, r in rep4.witnesses}
    assert REASON_LOW_DEGREE in reasons and REASON_NOT_A_CYCLE in reasons

    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    rep6 = lemma_report(prism)
    assert not rep6.condition3 and not rep6.condition2


def test_theta_witness_appears():
    # K3,3 plus one extra edge: some end-deleted graph picks up a theta
    g = Graph(6, list(complete_bipartite(3, 3).edges) + [(0, 1)])
    rep = lemma_report(g)
    assert not rep.condition1
    assert any(r == REASON_THETA for _, r in rep.witnesses)


def test_implication_chain_small_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            c3 = condition3(g)
            c2 = condition2(g)
            if c3:
                assert c2
            if c2:
                assert condition1(g)


def test_condition2_matches_its_reduction_by_reduction_definition():
    # the degree filter in condition2 only skips reductions, never decides
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            expected = g.num_edges > 0 and all(
                lemmas._is_cycle(reduced) for _, reduced in lemmas._reductions(g)
            )
            assert condition2(g) == expected, g.sorted_edges()


def test_condition2_implies_min_degree_three():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            if condition2(g):
                assert all(len(nbrs) >= 3 for nbrs in g.adj)


def test_lemma_report_refuses_a_broken_implication_chain(monkeypatch):
    # checked under python -O too: K4 satisfies none of the conditions
    k4 = complete_graph(4)
    with monkeypatch.context() as m:
        m.setattr(lemmas, "condition3", lambda g: True)
        with pytest.raises(InternalInconsistencyError, match="condition3"):
            lemma_report(k4)
    with monkeypatch.context() as m:
        m.setattr(lemmas, "_is_cycle", lambda g: True)
        with pytest.raises(InternalInconsistencyError, match="condition2"):
            lemma_report(k4)
    assert not lemma_report(k4).condition1
