import pytest
from hypothesis import given, settings

from planarcert.embedding import genus
from planarcert.errors import InternalInconsistencyError, SearchBudgetExceeded
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    contract_edge,
    enumerate_labeled_graphs,
    path_graph,
    petersen_graph,
)
from planarcert.planarity import (
    DecisionConfig,
    DecisionPath,
    decide,
    decide_via_minor,
    route_bits,
)
from planarcert.subdivision import Pattern, find_subdivision, validate_subdivision

from conftest import graphs, grid_graph
from reference import canonical_rotation, cube_graph


def test_decide_k5():
    verdict = decide(complete_graph(5))
    assert not verdict.planar
    assert verdict.certificate.pattern is Pattern.K5
    assert validate_subdivision(complete_graph(5), verdict.certificate)


def test_decide_k33():
    verdict = decide(complete_bipartite(3, 3))
    assert not verdict.planar
    assert verdict.certificate.pattern is Pattern.K33


def test_decide_k4():
    verdict = decide(complete_graph(4))
    assert verdict.planar
    assert len(verdict.faces.walks) == 4
    assert genus(complete_graph(4), verdict.rotation) == 0


def test_decide_petersen():
    pet = petersen_graph()
    verdict = decide(pet)
    assert not verdict.planar
    assert verdict.certificate.pattern is Pattern.K33
    assert find_subdivision(pet, Pattern.K5) is None
    assert validate_subdivision(pet, verdict.certificate)


def test_decide_cube():
    cube = cube_graph()
    verdict = decide(cube)
    assert verdict.planar
    fs = verdict.faces
    assert (cube.n, cube.num_edges, len(fs.walks)) == (8, 12, 6)
    assert cube.n - cube.num_edges + len(fs.walks) == 2


def test_decide_via_minor_examples():
    assert not decide_via_minor(complete_graph(5)).planar
    pet = petersen_graph()
    verdict = decide_via_minor(pet)
    assert not verdict.planar
    assert validate_subdivision(pet, verdict.certificate)
    assert decide_via_minor(path_graph(6)).planar


def test_decide_respects_config_path():
    pet = petersen_graph()
    via = decide(pet, DecisionConfig(path=DecisionPath.MINOR))
    assert not via.planar and validate_subdivision(pet, via.certificate)


def test_decide_disconnected():
    g = Graph(8, list(complete_graph(4).edges) + [(u + 4, v + 4) for u, v in complete_graph(4).edges])
    verdict = decide(g)
    assert verdict.planar
    assert verdict.faces.components == 2
    assert verdict.faces.genus == 0

    mixed = Graph(
        9,
        list(complete_graph(4).edges)
        + [(u + 4, v + 4) for u, v in complete_graph(5).edges],
    )
    verdict = decide(mixed)
    assert not verdict.planar
    assert validate_subdivision(mixed, verdict.certificate)


def test_dense_graphs_still_get_certificates():
    k7 = complete_graph(7)  # E = 21 > 3*7-6: prefilter territory
    verdict = decide(k7)
    assert not verdict.planar
    assert validate_subdivision(k7, verdict.certificate)


def test_budget_error_is_distinct_from_verdict():
    with pytest.raises(SearchBudgetExceeded):
        decide(cube_graph(), DecisionConfig(node_budget=2))


def test_one_budget_bounds_the_test_and_the_minor_search():
    pet = petersen_graph()
    # 15 oriented edges, then the 10 connected sets that place a K5 minor
    assert not decide(pet, DecisionConfig(25, DecisionPath.MINOR)).planar
    with pytest.raises(SearchBudgetExceeded):
        decide(pet, DecisionConfig(24, DecisionPath.MINOR))


def test_decide_never_returns_an_uncertified_verdict(monkeypatch):
    import planarcert.planarity as planarity

    k4 = complete_graph(4)
    monkeypatch.setattr(planarity, "lr_planar_rotation", lambda g, budget: None)
    with pytest.raises(InternalInconsistencyError):
        decide(k4)
    with pytest.raises(InternalInconsistencyError):
        decide(k4, DecisionConfig(path=DecisionPath.MINOR))
    # a genus-1 rotation of K4 is never passed off as planar
    toroidal = canonical_rotation([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
    assert genus(k4, toroidal) != 0
    monkeypatch.setattr(planarity, "lr_planar_rotation", lambda g, budget: toroidal)
    with pytest.raises(InternalInconsistencyError):
        decide(k4)


def test_default_path_certifies_without_the_obstruction_searches(monkeypatch):
    import planarcert.planarity as planarity

    def refuse(*args):
        raise AssertionError("an obstruction search ran on the default path")

    monkeypatch.setattr(planarity, "find_kuratowski", refuse)
    monkeypatch.setattr(planarity, "find_minor", refuse)
    assert DecisionConfig().path is DecisionPath.SUBDIVISION
    pet = petersen_graph()
    verdict = decide(pet)
    assert not verdict.planar and validate_subdivision(pet, verdict.certificate)


def test_subdivided_petersen_is_certified_within_twice_its_edge_count():
    # each edge a path of 21 edges: 310 vertices and 315 edges.  The
    # decision spends 315 steps; the extraction reduces the graph to the
    # 15-edge Petersen graph before its first test, so one budget of twice
    # the edge count covers both (the subdivision search takes seconds here)
    pet = petersen_graph()
    edges, nxt = [], pet.n
    for u, v in pet.sorted_edges():
        chain = [u, *range(nxt, nxt + 20), v]
        nxt += 20
        edges += zip(chain, chain[1:])
    g = Graph(nxt, edges)
    verdict = decide(g, DecisionConfig(node_budget=2 * len(g.edges)))
    assert not verdict.planar and validate_subdivision(g, verdict.certificate)


def test_k5_hanging_off_a_triangulated_grid_is_certified_within_three_times_its_edges():
    # a 20 x 20 triangulated grid joined by one edge to a K5: 1,132 edges.
    # The decision spends one step per edge, and the extraction keeps only
    # the biconnected component the test rejects (the K5) after testing
    # each component once, so three steps per edge cover both; deleting
    # edges from the whole graph took 59,137 steps
    grid = grid_graph(20, 20, diagonals=True)
    k = grid.n
    k5 = [(k + i, k + j) for i in range(5) for j in range(i + 1, 5)]
    g = Graph(k + 5, [*grid.edges, *k5, (0, k)])
    assert len(g.edges) == 1132
    verdict = decide(g, DecisionConfig(node_budget=3 * len(g.edges)))
    assert not verdict.planar
    assert verdict.certificate.pattern is Pattern.K5
    assert validate_subdivision(g, verdict.certificate)


def test_route_bits_flags_an_uncertified_left_right_answer(monkeypatch):
    import planarcert.planarity as planarity

    # a planar graph the test wrongly rejects has nothing to extract
    monkeypatch.setattr(planarity, "lr_planar_rotation", lambda g, budget: None)
    bits = route_bits(complete_graph(4))
    assert bits.left_right is None and not bits.agree

    def fail(g, budget):
        raise InternalInconsistencyError("extraction failed")

    monkeypatch.setattr(planarity, "lr_kuratowski", fail)
    bits = route_bits(complete_graph(5))
    assert bits.left_right is None and not bits.agree


def test_decide_refuses_a_minor_certificate_that_does_not_validate(monkeypatch):
    import planarcert.planarity as planarity

    monkeypatch.setattr(planarity, "validate_subdivision", lambda g, cert: False)
    with pytest.raises(InternalInconsistencyError):
        decide_via_minor(complete_graph(5))
    # a planar answer never reaches the minor route
    assert decide_via_minor(complete_graph(4)).planar


def test_route_bits_flags_an_uncertified_minor_answer(monkeypatch):
    import planarcert.planarity as planarity

    monkeypatch.setattr(planarity, "validate_subdivision", lambda g, cert: False)
    bits = route_bits(complete_bipartite(3, 3))
    assert bits.minor is None and not bits.agree
    assert bits.left_right is False and bits.subdivision is False


def test_config_validation():
    with pytest.raises(ValueError):
        DecisionConfig(node_budget=0)


def test_cross_check_examples():
    assert route_bits(complete_graph(5)).agree
    assert route_bits(complete_graph(4)).agree
    assert route_bits(petersen_graph()).agree
    assert route_bits(cube_graph()).agree
    bits = route_bits(cube_graph())
    assert bits == (True, True, True, True) and bits.agree


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_verdict_soundness(g):
    verdict = decide(g)
    if verdict.planar:
        assert genus(g, verdict.rotation) == 0
        fs = verdict.faces
        assert g.n - g.num_edges + len(fs.walks) == 2 * fs.components
    else:
        assert verdict.certificate.pattern in (Pattern.K5, Pattern.K33)
        assert validate_subdivision(g, verdict.certificate)


def test_contraction_closure_on_planar_graphs_sample():
    # minors of planar graphs stay planar; n <= 6 exhaustively in acceptance
    for n in range(2, 5):
        for g in enumerate_labeled_graphs(n):
            if not decide(g).planar:
                continue
            for e in g.sorted_edges():
                contracted, _, _ = contract_edge(g, e)
                assert decide(contracted).planar


def test_deleting_edges_never_creates_obstructions():
    # exhaustive at n <= 5 here; the n = 6 layer runs with the exhaustive
    # property suite
    from planarcert.graphs import delete_edge
    from planarcert.subdivision import find_kuratowski

    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if find_kuratowski(g) is not None:
                continue
            for e in g.sorted_edges():
                assert find_kuratowski(delete_edge(g, e)) is None
