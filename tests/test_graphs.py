import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.errors import CapacityError
from planarcert.graphs import (
    Graph,
    are_homeomorphic,
    are_isomorphic,
    complete_bipartite,
    complete_graph,
    compose_vertex_maps,
    contract_edge,
    cube_graph,
    cycle_graph,
    delete_edge,
    delete_vertex,
    delete_vertices,
    enumerate_labeled_graphs,
    from_edge_mask,
    normalize_edge,
    path_graph,
    petersen_graph,
    smooth,
    subdivide_edge,
    theta_graph,
)

from conftest import graphs


def test_constructor_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_constructor_normalizes_and_dedups():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == {(0, 2), (1, 2)}
    assert g.adj == ((2,), (2,), (0, 1))


def test_named_graphs():
    assert complete_graph(5).num_edges == 10
    assert complete_bipartite(3, 3).num_edges == 9
    assert petersen_graph().degrees() == (3,) * 10
    assert cube_graph().degrees() == (3,) * 8
    assert theta_graph().degrees() == (3, 3, 2, 2, 2)


def test_edge_mask_round_trip():
    for n in range(0, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert from_edge_mask(n, mask).edge_mask() == mask


def test_delete_edge_examples():
    c3 = cycle_graph(3)
    assert are_isomorphic(delete_edge(c3, (0, 1)), path_graph(3))
    k5e = delete_edge(complete_graph(5), (2, 4))
    assert k5e.n == 5 and k5e.num_edges == 9
    k4 = delete_edge(complete_graph(4), (0, 1))
    assert k4.degree(0) == 2 and k4.degree(1) == 2
    with pytest.raises(ValueError):
        delete_edge(c3, (0, 3))
    with pytest.raises(ValueError):
        delete_edge(path_graph(3), (0, 2))


def test_delete_vertex_examples():
    k5 = complete_graph(5)
    reduced, _ = delete_vertices(k5, (0, 1))
    assert are_isomorphic(reduced, cycle_graph(3))
    k33 = complete_bipartite(3, 3)
    reduced, _ = delete_vertices(k33, (0, 3))
    assert are_isomorphic(reduced, cycle_graph(4))
    single, vmap = delete_vertex(Graph(1), 0)
    assert single.n == 0 and vmap == (None,)
    with pytest.raises(ValueError):
        delete_vertex(k5, 5)


def _delete_one_at_a_time(g, xs):
    """The composition of single deletions delete_vertices must equal."""
    vmap = tuple(range(g.n))
    for x in xs:
        cur = vmap[x]
        step = tuple(None if v == cur else v - (v > cur) for v in range(g.n))
        g = Graph(g.n - 1, [(step[u], step[v]) for u, v in g.edges if cur not in (u, v)])
        vmap = compose_vertex_maps(vmap, step)
    return g, vmap


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_delete_vertices_equals_deleting_one_at_a_time(g, rng):
    xs = rng.sample(range(g.n), rng.randint(0, g.n))
    h, vmap = delete_vertices(g, xs)
    want_h, want_vmap = _delete_one_at_a_time(g, xs)
    assert (h, h.adj, vmap) == (want_h, want_h.adj, want_vmap)
    if xs:
        with pytest.raises(ValueError, match="already removed"):
            delete_vertices(g, [*xs, xs[0]])
    with pytest.raises(ValueError, match="out of range"):
        delete_vertices(g, [g.n])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8))
def test_neighbor_masks_are_built_on_demand(g):
    eager = [0] * g.n
    for u, v in g.edges:
        eager[u] |= 1 << v
        eager[v] |= 1 << u
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == (normalize_edge(u, v) in g.edges)
    assert g._adj_mask is None  # has_edge reads the edge set
    assert g.adj_mask == tuple(eager)
    assert g.adj_mask is g.adj_mask  # built once
    assert hash(g) == hash(Graph(g.n, sorted(g.edges)))


def test_delete_vertex_map_translates_edges():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    h, vmap = delete_vertex(g, 2)
    assert vmap == (0, 1, None, 2, 3)
    for u, v in g.edges:
        if 2 in (u, v):
            continue
        assert h.has_edge(vmap[u], vmap[v])


def test_contract_edge_examples():
    two, z, _ = contract_edge(cycle_graph(3), (0, 1))
    assert two.n == 2 and two.num_edges == 1 and z == 0
    k4, _, _ = contract_edge(complete_graph(5), (1, 3))
    assert are_isomorphic(k4, complete_graph(4))
    edge, _, _ = contract_edge(path_graph(3), (0, 1))
    assert edge.n == 2 and edge.num_edges == 1
    with pytest.raises(ValueError):
        contract_edge(path_graph(3), (0, 2))


def test_contract_keeps_graphs_simple_exhaustively():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            for e in g.sorted_edges():
                h, z, vmap = contract_edge(g, e)
                assert h.n == g.n - 1
                assert all(u != v for u, v in h.edges)
                # surviving edges map to edges
                for u, v in g.edges:
                    if vmap[u] != vmap[v]:
                        assert h.has_edge(vmap[u], vmap[v])
                assert vmap[e[0]] == vmap[e[1]] == z


def test_subdivide_edge_examples():
    assert are_isomorphic(subdivide_edge(Graph(2, [(0, 1)]), (0, 1)), path_graph(3))
    assert are_isomorphic(subdivide_edge(cycle_graph(3), (1, 2)), cycle_graph(4))
    k5sub = subdivide_edge(complete_graph(5), (0, 1))
    assert k5sub.n == 6 and k5sub.num_edges == 11
    with pytest.raises(ValueError):
        subdivide_edge(path_graph(3), (0, 2))


def test_smooth_examples():
    edge, _ = smooth(path_graph(5))
    assert edge.n == 2 and edge.num_edges == 1
    c3, _ = smooth(cycle_graph(7))
    assert are_isomorphic(c3, cycle_graph(3))
    k5, _ = smooth(subdivide_edge(complete_graph(5), (0, 1)))
    assert are_isomorphic(k5, complete_graph(5))
    # degree-2 vertex with adjacent neighbors stays
    tri = cycle_graph(3)
    assert smooth(tri)[0] == tri
    isolated = Graph(3, [(0, 1)])
    assert smooth(isolated)[0] == isolated


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=6))
def test_smooth_is_idempotent(g):
    once, _ = smooth(g)
    twice, _ = smooth(once)
    assert once == twice


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(min_value=0, max_value=10**6))
def test_subdivide_then_smooth_is_homeomorphic(g, pick):
    if not g.edges:
        return
    e = g.sorted_edges()[pick % g.num_edges]
    assert are_homeomorphic(subdivide_edge(g, e), g)


def test_subdivide_then_smooth_recovers_smooth_fixed_points():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if smooth(g)[0] != g:
                continue
            for e in g.sorted_edges():
                recovered, _ = smooth(subdivide_edge(g, e))
                assert are_isomorphic(recovered, g)


def test_are_isomorphic_examples():
    k5 = complete_graph(5)
    relabeled = Graph(5, [(4 - u, 4 - v) for u, v in k5.edges])
    assert are_isomorphic(k5, relabeled)
    assert not are_isomorphic(complete_bipartite(3, 3), delete_edge(k5, (0, 1)))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(cycle_graph(6), two_triangles)


def test_are_isomorphic_on_relabelings():
    g = petersen_graph()
    for seed in range(5):
        perm = list(range(10))
        # simple deterministic shuffle
        for i in range(10):
            j = (i * 7 + seed) % 10
            perm[i], perm[j] = perm[j], perm[i]
        h = Graph(10, [(perm[u], perm[v]) for u, v in g.edges])
        assert are_isomorphic(g, h)


def test_are_homeomorphic_examples():
    assert are_homeomorphic(cycle_graph(3), cycle_graph(100))
    long_theta = Graph(
        5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
    )  # two deg-3 vertices joined by three 2-edge paths
    assert are_homeomorphic(theta_graph(), long_theta)
    assert not are_homeomorphic(complete_graph(5), complete_bipartite(3, 3))


def test_are_homeomorphic_is_reflexive_and_symmetric():
    sample = []
    for n in range(0, 5):
        sample.extend(enumerate_labeled_graphs(n))
    for g in sample:
        assert are_homeomorphic(g, g)
    pairs = [(sample[i], sample[(i * 17 + 5) % len(sample)]) for i in range(0, len(sample), 7)]
    for g, h in pairs:
        assert are_homeomorphic(g, h) == are_homeomorphic(h, g)


def test_are_homeomorphic_transitive_spot_check():
    reps = [
        cycle_graph(4),
        path_graph(4),
        subdivide_edge(complete_graph(4), (0, 1)),
        complete_graph(4),
        theta_graph(),
    ]
    for a, b, c in itertools.product(reps, repeat=3):
        if are_homeomorphic(a, b) and are_homeomorphic(b, c):
            assert are_homeomorphic(a, c)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64
    assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
    with pytest.raises(CapacityError):
        next(enumerate_labeled_graphs(8))


def test_enumerate_order_is_edge_mask_ascending():
    masks = [g.edge_mask() for g in enumerate_labeled_graphs(4)]
    assert masks == list(range(64))


def test_compose_vertex_maps():
    g = complete_graph(5)
    h, m1 = delete_vertex(g, 1)
    k, m2 = delete_vertex(h, 2)
    combined = compose_vertex_maps(m1, m2)
    assert combined == (0, None, 1, None, 2)
    assert k.n == 3
