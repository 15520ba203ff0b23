import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarcert.subdivision as subdivision
from planarcert.errors import InternalInconsistencyError
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    contract_edge,
    cycle_graph,
    enumerate_labeled_graphs,
    path_graph,
    petersen_graph,
    subdivide_edge,
)
from planarcert.subdivision import (
    MinorCertificate,
    Pattern,
    SubdivisionCertificate,
    contains_theta,
    find_kuratowski,
    find_minor,
    find_subdivision,
    lift_certificate,
    minor_to_subdivision,
    validate_minor,
    validate_subdivision,
)

from conftest import graphs


def test_pattern_shapes():
    assert Pattern.K5.branch_count == 5 and Pattern.K5.branch_degree == 4
    assert Pattern.K33.branch_count == 6 and Pattern.K33.branch_degree == 3
    assert Pattern.THETA.branch_count == 2 and Pattern.THETA.branch_degree == 3
    assert len(Pattern.K5.edge_list) == 10
    assert len(Pattern.K33.edge_list) == 9
    assert Pattern.THETA.edge_list == ((0, 1), (0, 1), (0, 1))
    assert Pattern.THETA.graph == complete_bipartite(2, 3)


def test_find_subdivision_identity_k5():
    k5 = complete_graph(5)
    cert = find_subdivision(k5, Pattern.K5)
    assert cert is not None and validate_subdivision(k5, cert)
    assert cert.branch == (0, 1, 2, 3, 4)
    assert all(len(p) == 2 for p in cert.paths)


def test_find_subdivision_examples():
    assert find_subdivision(cycle_graph(5), Pattern.THETA) is None
    k4 = complete_graph(4)
    cert = find_subdivision(k4, Pattern.THETA)
    assert cert is not None and validate_subdivision(k4, cert)
    pet = petersen_graph()
    cert = find_subdivision(pet, Pattern.K33)
    assert cert is not None and validate_subdivision(pet, cert)
    assert find_subdivision(pet, Pattern.K5) is None  # cubic: no degree-4 branch


def test_find_subdivision_in_subdivided_hosts():
    g = complete_graph(5)
    for e in ((0, 1), (2, 3)):
        g = subdivide_edge(g, e)
    cert = find_subdivision(g, Pattern.K5)
    assert cert is not None and validate_subdivision(g, cert)
    assert any(len(p) > 2 for p in cert.paths)


def test_contains_theta_examples():
    assert not contains_theta(path_graph(6))
    assert not contains_theta(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert not contains_theta(cycle_graph(6))
    assert contains_theta(complete_graph(4))
    chorded = Graph(5, list(cycle_graph(5).edges) + [(0, 2)])
    assert contains_theta(chorded)


def test_contains_theta_needs_degree_three():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            if all(len(a) <= 2 for a in g.adj):
                assert not contains_theta(g)


def test_find_kuratowski_examples():
    k5 = complete_graph(5)
    cert = find_kuratowski(k5)
    assert cert.pattern is Pattern.K5
    assert find_kuratowski(complete_graph(4)) is None
    cert6 = find_kuratowski(complete_graph(6))
    assert cert6.pattern is Pattern.K5 and validate_subdivision(complete_graph(6), cert6)
    k33 = complete_bipartite(3, 3)
    cert33 = find_kuratowski(k33)
    assert cert33.pattern is Pattern.K33 and validate_subdivision(k33, cert33)


def test_find_kuratowski_deterministic():
    pet = petersen_graph()
    assert find_kuratowski(pet) == find_kuratowski(pet)


def test_validate_subdivision_rejects_bad_certificates():
    k5 = complete_graph(5)
    good = find_subdivision(k5, Pattern.K5)
    # shared interior vertex
    g = subdivide_edge(k5, (0, 1))
    cert = find_subdivision(g, Pattern.K5)
    paths = list(cert.paths)
    long_idx = next(i for i, p in enumerate(paths) if len(p) > 2)
    mid = paths[long_idx][1]
    other = next(i for i in range(len(paths)) if i != long_idx)
    tampered = paths[:]
    tampered[other] = (paths[other][0], mid, paths[other][-1])
    assert not validate_subdivision(
        g, SubdivisionCertificate(Pattern.K5, cert.branch, tuple(tampered))
    )
    # path through a non-edge
    bad_path = list(good.paths)
    bad_path[0] = (0, 1, 2)  # 0-1 and 1-2 are edges, but endpoints must match
    assert not validate_subdivision(
        k5, SubdivisionCertificate(Pattern.K5, good.branch, tuple(bad_path))
    )
    # duplicated branch vertex
    assert not validate_subdivision(
        k5, SubdivisionCertificate(Pattern.K5, (0, 1, 2, 3, 3), good.paths)
    )
    # non-edge inside a path
    h = Graph(5, [(u, v) for u, v in k5.edges if (u, v) != (0, 1)])
    assert not validate_subdivision(h, good)


def test_validate_subdivision_rejects_shared_edge_for_theta():
    g = complete_graph(4)
    cert = SubdivisionCertificate(
        Pattern.THETA, (0, 1), ((0, 1), (0, 1), (0, 2, 1))
    )
    assert not validate_subdivision(g, cert)
    ok = SubdivisionCertificate(
        Pattern.THETA, (0, 1), ((0, 1), (0, 2, 1), (0, 3, 1))
    )
    assert validate_subdivision(g, ok)


def test_find_minor_examples():
    pet = petersen_graph()
    m5 = find_minor(pet, Pattern.K5)
    assert m5 is not None and validate_minor(pet, m5)
    assert find_minor(complete_graph(4), Pattern.K5) is None
    m = find_minor(complete_graph(5), Pattern.K5)
    assert m is not None and all(len(s) == 1 for s in m.branch_sets)
    m33 = find_minor(complete_bipartite(3, 3), Pattern.K33)
    assert m33 is not None and all(len(s) == 1 for s in m33.branch_sets)


def test_find_minor_theta():
    m = find_minor(complete_graph(4), Pattern.THETA)
    assert m is not None and validate_minor(complete_graph(4), m)
    assert len(set(m.cross_edges)) == 3
    assert find_minor(cycle_graph(6), Pattern.THETA) is None


def test_validate_minor_rejects_bad_certificates():
    k5 = complete_graph(5)
    m = find_minor(k5, Pattern.K5)
    # overlapping branch sets
    sets = list(m.branch_sets)
    sets[1] = sets[0]
    assert not validate_minor(k5, MinorCertificate(Pattern.K5, tuple(sets), m.cross_edges))
    # disconnected branch set
    g = Graph(7, list(complete_graph(5).edges) + [(5, 0), (6, 0)])
    bad = MinorCertificate(
        Pattern.K5,
        (frozenset({5, 6}), frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})),
        m.cross_edges,
    )
    assert not validate_minor(g, bad)
    # crossing edge outside the graph
    bad_edges = list(m.cross_edges)
    bad_edges[0] = (0, 0)
    assert not validate_minor(k5, MinorCertificate(Pattern.K5, m.branch_sets, tuple(bad_edges)))


def test_minor_to_subdivision_identity_cases():
    k5 = complete_graph(5)
    cert = minor_to_subdivision(k5, find_minor(k5, Pattern.K5))
    assert validate_subdivision(k5, cert)
    assert all(len(p) == 2 for p in cert.paths)
    k33 = complete_bipartite(3, 3)
    cert33 = minor_to_subdivision(k33, find_minor(k33, Pattern.K33))
    assert cert33.pattern is Pattern.K33 and validate_subdivision(k33, cert33)


def test_minor_to_subdivision_petersen():
    pet = petersen_graph()
    cert = minor_to_subdivision(pet, find_minor(pet, Pattern.K5))
    assert cert.pattern in (Pattern.K5, Pattern.K33)
    assert validate_subdivision(pet, cert)
    # a cubic host cannot hold a K5 subdivision, so the lift must rebuild
    assert cert.pattern is Pattern.K33


def test_minor_to_subdivision_theta():
    g = complete_graph(4)
    cert = minor_to_subdivision(g, find_minor(g, Pattern.THETA))
    assert cert.pattern is Pattern.THETA and validate_subdivision(g, cert)
    # branch sets larger than singletons
    h = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 2), (1, 6), (6, 7), (7, 3)])
    m = find_minor(h, Pattern.THETA)
    assert m is not None
    cert = minor_to_subdivision(h, m)
    assert validate_subdivision(h, cert)


def test_minor_to_subdivision_rejects_invalid_input():
    k5 = complete_graph(5)
    m = find_minor(k5, Pattern.K5)
    sets = list(m.branch_sets)
    sets[0] = frozenset({0, 1})
    with pytest.raises(ValueError):
        minor_to_subdivision(k5, MinorCertificate(Pattern.K5, tuple(sets), m.cross_edges))


def split_k5_vertex(x_nbrs, y_nbrs):
    """K5 with vertex 0 split into x=0 and y=5, distributing 0's edges."""
    edges = [(u, v) for u, v in complete_graph(5).edges if 0 not in (u, v)]
    edges += [(0, w) for w in x_nbrs]
    edges += [(5, w) for w in y_nbrs]
    edges.append((0, 5))
    return Graph(6, edges)


def test_lift_2_2_split_rebuilds_k33():
    g = split_k5_vertex((1, 2), (3, 4))
    contracted, _, _ = contract_edge(g, (0, 5))
    cert = find_kuratowski(contracted)
    assert cert.pattern is Pattern.K5
    lifted = lift_certificate(g, 0, 5, cert)
    assert lifted.pattern is Pattern.K33
    assert validate_subdivision(g, lifted)


def test_lift_3_1_split_keeps_k5():
    g = split_k5_vertex((1, 2, 3), (4,))
    contracted, _, _ = contract_edge(g, (0, 5))
    cert = find_kuratowski(contracted)
    lifted = lift_certificate(g, 0, 5, cert)
    assert lifted.pattern is Pattern.K5
    assert validate_subdivision(g, lifted)


def test_lift_unused_merged_vertex():
    g = Graph(7, list(complete_graph(5).edges) + [(5, 6)])
    contracted, _, _ = contract_edge(g, (5, 6))
    cert = find_kuratowski(contracted)
    lifted = lift_certificate(g, 5, 6, cert)
    assert lifted.pattern is Pattern.K5
    assert validate_subdivision(g, lifted)


def test_lift_interior_merged_vertex():
    g = subdivide_edge(complete_graph(5), (0, 1))  # vertex 5 splits 0-1
    g = subdivide_edge(g, (0, 5))  # vertex 6: 0-6-5-1
    contracted, _, _ = contract_edge(g, (5, 6))
    cert = find_kuratowski(contracted)
    lifted = lift_certificate(g, 5, 6, cert)
    assert validate_subdivision(g, lifted)


def test_lift_theta_certificate():
    # theta branch vertex split 2-1 into x=0 and y=5
    g = Graph(6, [(0, 2), (0, 3), (5, 4), (1, 2), (1, 3), (1, 4), (0, 5)])
    contracted, _, _ = contract_edge(g, (0, 5))
    cert = find_subdivision(contracted, Pattern.THETA)
    assert cert is not None
    lifted = lift_certificate(g, 0, 5, cert)
    assert lifted.pattern is Pattern.THETA
    assert validate_subdivision(g, lifted)


def test_lift_rejects_bad_inputs():
    k5 = complete_graph(5)
    cert = find_kuratowski(k5)
    with pytest.raises(ValueError):
        lift_certificate(k5, 0, 0, cert)
    g = Graph(7, list(k5.edges) + [(5, 6)])
    bogus = SubdivisionCertificate(Pattern.K5, (0, 1, 2, 3, 5), cert.paths)
    with pytest.raises(ValueError):
        lift_certificate(g, 5, 6, bogus)


def test_lift_refuses_a_contraction_that_drops_a_vertex(monkeypatch):
    g = Graph(7, list(complete_graph(5).edges) + [(5, 6)])
    cert = find_kuratowski(contract_edge(g, (5, 6))[0])

    def dropping(h, e):
        contracted, z, vmap = contract_edge(h, e)
        return contracted, z, (None,) + vmap[1:]

    monkeypatch.setattr(subdivision, "contract_edge", dropping)
    with pytest.raises(InternalInconsistencyError):
        lift_certificate(g, 5, 6, cert)


def test_lift_refuses_an_adjacency_with_no_preimage(monkeypatch):
    # 5-6 lies apart from the K5; a contraction that also joined the merged
    # vertex to 0 and 1 would carry a path 0-z-1 that G cannot follow
    g = Graph(7, list(complete_graph(5).edges) + [(5, 6)])

    def joining(h, e):
        contracted, z, vmap = contract_edge(h, e)
        edges = list(contracted.edges) + [(0, z), (1, z)]
        return Graph(contracted.n, edges), z, vmap

    paths = [(0, 5, 1) if pq == (0, 1) else pq for pq in Pattern.K5.edge_list]
    cert = SubdivisionCertificate(Pattern.K5, (0, 1, 2, 3, 4), tuple(paths))
    monkeypatch.setattr(subdivision, "contract_edge", joining)
    with pytest.raises(InternalInconsistencyError):
        lift_certificate(g, 5, 6, cert)


def test_lift_refuses_a_2_2_split_outside_k5(monkeypatch):
    # a four-strand theta whose branch vertex splits 2-2 over x=0, y=1
    monkeypatch.setitem(subdivision._EDGE_LIST, Pattern.THETA, ((0, 1),) * 4)
    g = Graph(7, [(0, 1), (0, 3), (0, 4), (1, 5), (1, 6)] + [(w, 2) for w in (3, 4, 5, 6)])
    contracted, z, vmap = contract_edge(g, (0, 1))
    w = vmap[2]
    cert = SubdivisionCertificate(
        Pattern.THETA, (z, w), tuple((z, vmap[s], w) for s in (3, 4, 5, 6))
    )
    assert validate_subdivision(contracted, cert)
    with pytest.raises(InternalInconsistencyError):
        lift_certificate(g, 0, 1, cert)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7), st.integers(min_value=0, max_value=10**6))
def test_lift_soundness_random(g, pick):
    if not g.edges:
        return
    x, y = g.sorted_edges()[pick % g.num_edges]
    contracted, _, _ = contract_edge(g, (x, y))
    cert = find_kuratowski(contracted)
    if cert is None:
        return
    lifted = lift_certificate(g, x, y, cert)
    assert validate_subdivision(g, lifted)
    if cert.pattern is Pattern.K33:
        assert lifted.pattern is Pattern.K33
    else:
        assert lifted.pattern in (Pattern.K5, Pattern.K33)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_searchers_always_emit_valid_certificates(g):
    for pattern in Pattern:
        cert = find_subdivision(g, pattern)
        if cert is not None:
            assert validate_subdivision(g, cert)
        m = find_minor(g, pattern)
        if m is not None:
            assert validate_minor(g, m)
        # topological containment implies minor containment
        if cert is not None:
            assert m is not None


def test_subdivision_search_determinism():
    pet = petersen_graph()
    assert find_subdivision(pet, Pattern.K33) == find_subdivision(pet, Pattern.K33)
    assert find_minor(pet, Pattern.K5) == find_minor(pet, Pattern.K5)


def _recursive_connected_sets(g, seed, allowed, max_size):
    # the recursive growth _connected_sets replaced, kept as its reference
    adj_mask = g.adj_mask

    def rec(s_mask, size, cand, forbidden):
        yield s_mask
        if size == max_size:
            return
        local_forb = forbidden
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            grow = (cand | (adj_mask[v] & allowed)) & ~s_mask & ~local_forb & ~(1 << v)
            yield from rec(s_mask | (1 << v), size + 1, grow, local_forb)
            local_forb |= 1 << v

    yield from rec(1 << seed, 1, adj_mask[seed] & allowed, 0)


def test_connected_sets_match_the_recursive_growth_in_order():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for seed in range(n):
                allowed = ((1 << n) - 1) & ~((1 << (seed + 1)) - 1)
                for max_size in {1, 2, n - seed}:
                    got = list(subdivision._connected_sets(g, seed, allowed, max_size))
                    want = list(_recursive_connected_sets(g, seed, allowed, max_size))
                    assert got == want


def test_connected_sets_grow_past_the_recursion_limit():
    # the recursive growth raised RecursionError after about 1,000 sets
    n = 1500
    allowed = ((1 << n) - 1) & ~1
    sets = subdivision._connected_sets(path_graph(n), 0, allowed, n)
    assert sum(1 for _ in sets) == n
