import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarcert.subdivision as subdivision
from planarcert.embedding import StepBudget
from planarcert.errors import InternalInconsistencyError, SearchBudgetExceeded
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_vertex,
    enumerate_labeled_graphs,
    from_edge_mask,
    normalize_edge,
    path_graph,
    petersen_graph,
    subdivide_edge,
)
from planarcert.harness import (
    _lifting_graphs,
    enumerate_graph_class_masks,
    make_rng,
    random_cubic_graph,
    random_graph,
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
    validate_subdivision,
)

from conftest import graphs
from reference import contains_theta_by_paths, cube_graph, lift_by_pruning, validate_minor


def test_pattern_shapes():
    assert list(Pattern) == [Pattern.K5, Pattern.K33]
    assert Pattern.K5.branch_count == 5 and Pattern.K5.branch_degree == 4
    assert Pattern.K33.branch_count == 6 and Pattern.K33.branch_degree == 3
    assert len(Pattern.K5.edge_list) == 10
    assert len(Pattern.K33.edge_list) == 9
    assert Graph(5, Pattern.K5.edge_list) == complete_graph(5)
    assert Graph(6, Pattern.K33.edge_list) == complete_bipartite(3, 3)


def test_find_subdivision_identity_k5():
    k5 = complete_graph(5)
    cert = find_subdivision(k5, Pattern.K5)
    assert cert is not None and validate_subdivision(k5, cert)
    assert cert.branch == (0, 1, 2, 3, 4)
    assert all(len(p) == 2 for p in cert.paths)


def test_find_subdivision_examples():
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


def _cacti(rng, count):
    """Random cacti, each with a chord of its first cycle of 4 or more
    vertices (None if it has none): each step hangs a pendant edge or a
    cycle of 3 to 5 vertices on a vertex already there, so every block is
    an edge or a cycle, and the chord turns one cycle into a theta."""
    for _ in range(count):
        n, edges, chord = 1, [], None
        for _ in range(rng.randrange(1, 8)):
            at, length = rng.randrange(n), rng.choice((2, 3, 4, 5))
            ring = [at, *range(n, n + length - 1)]
            n += length - 1
            edges += zip(ring, ring[1:])
            if length > 2:
                edges.append((ring[-1], at))
            if length > 3 and chord is None:
                chord = (ring[0], ring[2])
        yield Graph(n, edges), chord


def test_contains_theta_matches_the_definition():
    # the block test against two vertices joined by three internally
    # disjoint paths, found by brute force with no use of blocks
    hosts = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
    for n in (6, 7):
        hosts += [from_edge_mask(n, mask) for mask in enumerate_graph_class_masks(n)]
    hosts += [cycle_graph(n) for n in range(3, 13)] + [complete_graph(4)]
    drawn = list(_cacti(random.Random(0), 40))
    cacti = [g for g, _ in drawn]
    chorded = [Graph(g.n, [*g.edges, chord]) for g, chord in drawn if chord]
    assert all(not contains_theta(g) for g in cacti)
    assert chorded and all(contains_theta(g) for g in chorded)
    for g in hosts + cacti + chorded:
        assert contains_theta(g) == contains_theta_by_paths(g), g


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


def test_kuratowski_searches_return_what_they_returned_before_the_part_cut():
    # sha256 over every labeled graph with n <= 6, taken before K3,3 tuples
    # with a branch vertex short of neighbours outside its part were skipped
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            for cert in (find_subdivision(g, Pattern.K33), find_kuratowski(g)):
                digest.update(repr(cert).encode())
    assert digest.hexdigest() == (
        "9cda55497c9680022a5a631ad89df7a8c75fbc7ec644f13f87c58b98a428c376"
    )


def _every_k33_tuple(candidates):
    """K3,3 branch tuples before the part cut: sorted parts, the first part
    holding the least vertex."""
    for part_a in itertools.combinations(candidates, 3):
        rest = [v for v in candidates if v not in part_a]
        for part_b in itertools.combinations(rest, 3):
            if part_a[0] < part_b[0]:
                yield part_a + part_b


def _parts_let_strands_leave(g, branch):
    """Every branch vertex has three neighbours outside its own part."""
    return all(
        len(set(g.adj[v]) - set(part)) >= 3
        for part in (branch[:3], branch[3:])
        for v in part
    )


def test_the_part_cut_skips_only_k33_tuples_without_a_routing():
    # the search's K3,3 tuples are the uncut ones in their order, and every
    # tuple cut has no routing
    rng = make_rng(5)
    skipped = 0
    for _ in range(60):
        g = random_graph(8, 0.55, rng)
        candidates = [v for v in range(g.n) if len(g.adj[v]) >= 3]
        dist = subdivision._DistanceRows(g)
        kept = []
        for branch in _every_k33_tuple(candidates):
            if _parts_let_strands_leave(g, branch):
                kept.append(branch)
            else:
                skipped += 1
                assert subdivision._route_paths(g, Pattern.K33, branch, dist) is None
        searched = subdivision._branch_assignments(Pattern.K33, candidates, g.adj_mask)
        assert list(searched) == kept
    assert skipped > 1000


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
    """In a K5 with a hub 5 joined to 0, 1 and 2, the vertices 0 and 5 span
    a theta: the edge 0-5 and the paths 0-1-5 and 0-2-5. Strands that both
    run along its middle edge 0-5 are refused; moving one off it is not."""
    k5 = complete_graph(5)
    good = find_subdivision(k5, Pattern.K5)
    g = Graph(6, list(k5.edges) + [(0, 5), (1, 5), (2, 5)])
    paths = dict(zip(Pattern.K5.edge_list, good.paths))
    paths[(0, 1)], paths[(0, 2)] = (0, 5, 1), (0, 5, 2)
    shared = SubdivisionCertificate(Pattern.K5, good.branch, tuple(paths.values()))
    assert not validate_subdivision(g, shared)
    paths[(0, 2)] = (0, 2)
    assert validate_subdivision(
        g, SubdivisionCertificate(Pattern.K5, good.branch, tuple(paths.values()))
    )


def test_find_minor_examples():
    pet = petersen_graph()
    m5 = find_minor(pet, Pattern.K5)
    assert m5 is not None and validate_minor(pet, m5)
    assert find_minor(complete_graph(4), Pattern.K5) is None
    m = find_minor(complete_graph(5), Pattern.K5)
    assert m is not None and all(len(s) == 1 for s in m.branch_sets)
    m33 = find_minor(complete_bipartite(3, 3), Pattern.K33)
    assert m33 is not None and all(len(s) == 1 for s in m33.branch_sets)


def test_find_minor_spends_one_step_per_connected_set():
    pet = petersen_graph()
    budget = StepBudget(10**9)
    found = find_minor(pet, Pattern.K5, budget)
    spent = 10**9 - budget.remaining
    assert spent > 0
    # the same search again, on exactly the sets it tries
    exact = StepBudget(spent)
    assert find_minor(pet, Pattern.K5, exact) == found
    assert exact.remaining == 0
    with pytest.raises(SearchBudgetExceeded):
        find_minor(pet, Pattern.K5, StepBudget(spent - 1))


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


def test_minor_to_subdivision_rejects_invalid_input():
    k5 = complete_graph(5)
    m = find_minor(k5, Pattern.K5)
    sets = list(m.branch_sets)
    sets[0] = frozenset({0, 1})
    with pytest.raises(ValueError):
        minor_to_subdivision(k5, MinorCertificate(Pattern.K5, tuple(sets), m.cross_edges))


def test_minor_to_subdivision_rebuilds_k33_when_two_k5_sets_split():
    # K5 with pattern vertex 0 split into 0-5 and pattern vertex 1 into
    # 1-6, each half carrying two of the four crossing edges
    g = Graph(7, [
        (0, 5), (1, 6), (0, 1), (0, 2), (3, 5), (4, 5),
        (1, 2), (3, 6), (4, 6), (2, 3), (2, 4), (3, 4),
    ])
    sets = (frozenset({0, 5}), frozenset({1, 6}), *(frozenset({v}) for v in (2, 3, 4)))
    cross = ((0, 1), (0, 2), (3, 5), (4, 5), (1, 2), (3, 6), (4, 6), (2, 3), (2, 4), (3, 4))
    m = MinorCertificate(Pattern.K5, sets, cross)
    assert validate_minor(g, m)
    # only three vertices of degree 4: no K5 subdivision fits
    assert find_subdivision(g, Pattern.K5) is None
    # hubs 0 and 5 of the first set reach sets 1, 2 and 3, 4: crossing
    # edges 1-2 and 3-4 go, and 1 becomes interior to the chain 0-1-6
    cert = minor_to_subdivision(g, m)
    assert cert.pattern is Pattern.K33 and validate_subdivision(g, cert)
    assert cert.branch == (0, 3, 4, 2, 5, 6)
    assert (0, 1, 6) in cert.paths


def _planted_minor(pattern, interior):
    """A subdivision of the pattern with `interior` vertices on each path,
    its paths, and the minor whose branch sets are each branch vertex and
    the halves of its paths nearest it."""
    bc = pattern.branch_count
    edges, paths, sets, cross = [], [], [[b] for b in range(bc)], []
    nxt = bc
    for pu, pv in pattern.edge_list:
        path = (pu, *range(nxt, nxt + interior), pv)
        nxt += interior
        paths.append(path)
        edges += zip(path, path[1:])
        half = len(path) // 2
        sets[pu] += path[1:half]
        sets[pv] += path[half:-1]
        cross.append(normalize_edge(path[half - 1], path[half]))
    minor = MinorCertificate(pattern, tuple(map(frozenset, sets)), tuple(cross))
    return Graph(nxt, edges), tuple(paths), minor


@pytest.mark.parametrize("pattern, interior, n", [
    (Pattern.K5, 200, 2005),
    (Pattern.K33, 222, 2004),
])
def test_minor_to_subdivision_converts_planted_minors_without_contracting(
    monkeypatch, pattern, interior, n
):
    def refuse(*args):
        raise AssertionError("minor_to_subdivision contracted an edge")

    monkeypatch.setattr(subdivision, "contract_edge", refuse)
    monkeypatch.setattr(subdivision, "lift_through_contraction", refuse)
    g, paths, m = _planted_minor(pattern, interior)
    assert g.n == n and validate_minor(g, m)
    assert min(map(len, m.branch_sets)) > 300
    cert = minor_to_subdivision(g, m)
    assert validate_subdivision(g, cert)
    assert cert == SubdivisionCertificate(pattern, tuple(range(pattern.branch_count)), paths)


def test_read_off_names_each_pattern_and_refuses_other_shapes():
    for pattern in Pattern:
        g, paths, _ = _planted_minor(pattern, 2)
        cert = subdivision.read_off(subdivision.pruned_chains(g.sorted_edges()))
        assert cert == SubdivisionCertificate(
            pattern, tuple(range(pattern.branch_count)), paths
        )
    # a pendant tree is pruned away before the chains are read
    g, _, _ = _planted_minor(Pattern.K5, 2)
    chains = subdivision.pruned_chains([*g.sorted_edges(), (5, 40), (40, 41), (40, 42)])
    assert sorted(chains) == [0, 1, 2, 3, 4]
    # the prism is the cubic graph on six vertices that is not K3,3, and
    # K4 and the theta K2,3 have no pattern's number of branch vertices
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    for g, branch in ((prism, 6), (complete_graph(4), 4), (complete_bipartite(2, 3), 2)):
        chains = subdivision.pruned_chains(g.sorted_edges())
        assert sorted(chains) == list(range(branch))
        with pytest.raises(InternalInconsistencyError):
            subdivision.read_off(chains)


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
    # x=0 must take 1, y=5 must take 2 and 3, and 4 meets both: 4 goes to
    # y, which then holds three strands (sending 4 to x, as on a tie,
    # would split 2-2 and give K3,3)
    g = split_k5_vertex((1, 4), (2, 3, 4))
    lifted = lift_certificate(g, 0, 5, find_kuratowski(contract_edge(g, (0, 5))[0]))
    assert lifted.pattern is Pattern.K5 and validate_subdivision(g, lifted)
    assert {(1, 0, 5), (5, 0, 1)} & set(lifted.paths)


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


def test_lift_refuses_a_2_2_split_outside_k5():
    # K5 with branch vertex 0 split 2-2 over x=0 and y=5: read as a K5
    # split it gives the K3,3 (0, 3, 4 | 1, 2, 5); a K3,3 branch vertex has
    # three strands and cannot split 2-2, so that pattern is refused
    g = split_k5_vertex((1, 2), (3, 4))
    edges = g.sorted_edges()
    chains = subdivision.pruned_chains(edges)
    assert sorted(chains) == [0, 1, 2, 3, 4, 5]
    part = {v: v for v in range(5)} | {5: 0}
    droppable = [  # the edge of g on the chain of each pattern edge
        next(e for e in edges if {part[e[0]], part[e[1]]} == {i, j})
        for i, j in Pattern.K5.edge_list
    ]
    split = subdivision._split_k5(Pattern.K5, list(edges), chains, part, droppable)
    cert = subdivision.read_off(split)
    assert cert.pattern is Pattern.K33 and validate_subdivision(g, cert)
    assert cert.branch == (0, 3, 4, 1, 2, 5)
    with pytest.raises(InternalInconsistencyError):
        subdivision._split_k5(Pattern.K33, list(edges), chains, part, droppable)


def _merged_vertex_role(g, x, y, contraction, cert):
    """Where the merged vertex z sits in cert: absent, interior (its two
    neighbours sent to one end of xy or split over both) or a branch
    vertex, with its strands' split over the two ends as (major, minor)."""
    _, z, vmap = contraction
    if z in cert.branch:
        role = f"{cert.pattern.value} branch"
        far = [path[1] if path[0] == z else path[-2] for path in cert.paths if z in path]
    else:
        path = next((path for path in cert.paths if z in path), None)
        if path is None:
            return "absent"
        role = "interior"
        i = path.index(z)
        far = [path[i - 1], path[i + 1]]
    inv = {new: old for old, new in enumerate(vmap) if old not in (x, y)}
    only_x = sum(not g.has_edge(inv[w], y) for w in far)
    only_y = sum(not g.has_edge(inv[w], x) for w in far)
    minor = min(only_x, only_y)
    if role == "interior":
        return "interior split" if minor else "interior one end"
    return f"{role} {len(far) - minor}-{minor}"


def test_lifts_equal_the_reference_lift_in_every_role_of_the_merged_vertex():
    # the lifting campaign's seed-42 stream, every edge whose contraction
    # has a certificate: the path rewriting must give the certificate that
    # pruning the lifted edges gives, for z in each of its roles
    roles = {}
    for g in _lifting_graphs(1000, 42):
        for x, y in g.sorted_edges():
            contraction = contract_edge(g, (x, y))
            cert = find_kuratowski(contraction[0])
            if cert is None:
                continue
            lifted = lift_certificate(g, x, y, cert)
            assert lifted == lift_by_pruning(g, x, y, contraction, cert)
            role = _merged_vertex_role(g, x, y, contraction, cert)
            roles[role] = roles.get(role, 0) + 1
            split = role == "K5 branch 2-2"
            assert (lifted.pattern is Pattern.K33) == (split or cert.pattern is Pattern.K33)
    assert roles == {
        "K5 branch 4-0": 1751,
        "K5 branch 3-1": 1165,
        "K5 branch 2-2": 107,
        "K33 branch 3-0": 145,
        "K33 branch 2-1": 105,
        "interior one end": 211,
        "interior split": 30,
        "absent": 50,
    }


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


def test_router_builds_path_generators_only_for_non_adjacent_pairs(monkeypatch):
    built = []
    real = subdivision._iter_paths

    def spy(g, a, b, blocked):
        built.append((a, b))
        return real(g, a, b, blocked)

    monkeypatch.setattr(subdivision, "_iter_paths", spy)
    k5 = complete_graph(5)
    assert find_subdivision(k5, Pattern.K5).paths == Pattern.K5.edge_list
    assert built == []
    # vertex 5 splits the edge 0-1: that pair alone is searched
    cert = find_subdivision(subdivide_edge(k5, (0, 1)), Pattern.K5)
    assert cert.paths[0] == (0, 5, 1) and cert.paths[1:] == Pattern.K5.edge_list[1:]
    assert built == [(0, 1)]


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


def _simple_paths(g, a, b, blocked):
    """Every simple a-b path whose interior avoids `blocked`, by brute force."""
    out = []

    def grow(path):
        for w in g.adj[path[-1]]:
            if w == b:
                out.append((*path, b))
            elif w not in path and not blocked >> w & 1:
                grow((*path, w))

    grow((a,))
    return out


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=2, max_n=7), st.randoms(use_true_random=False))
def test_iter_paths_yields_every_path_by_length_then_labels(g, rng):
    # an edge a-b comes out before any search; _route_paths relies on the
    # (length, lexicographic) order of the rest
    a, b = rng.sample(range(g.n), 2)
    blocked = rng.getrandbits(g.n)
    got = list(subdivision._iter_paths(g, a, b, blocked))
    assert got == sorted(_simple_paths(g, a, b, blocked), key=lambda p: (len(p), p))


def test_iter_paths_follow_paths_past_the_recursion_limit():
    # the recursive walk raised RecursionError about 1,000 vertices deep
    n = 1500
    assert next(subdivision._iter_paths(path_graph(n), 0, n - 1, 0)) == tuple(range(n))
    # K3,3 with its edge 0-3 drawn out into a path through 2,494 vertices
    n = 2500
    strand = (0, *range(6, n), 3)
    edges = [e for e in Pattern.K33.edge_list if e != (0, 3)] + list(zip(strand, strand[1:]))
    g = Graph(n, edges)
    cert = find_subdivision(g, Pattern.K33)
    assert cert is not None and validate_subdivision(g, cert)
    assert cert.branch == (0, 1, 2, 3, 4, 5)
    assert sorted(map(len, cert.paths)) == [2] * 8 + [n - 4]


def test_iter_paths_yields_the_three_strands_of_a_chorded_cycle():
    # the 2,500-cycle with one chord is a theta; every walk from 0 that
    # is shorter than its strand dies at its first step, because the
    # distances to n // 2 are taken without passing through 0
    n = 2500
    g = Graph(n, list(cycle_graph(n).edges) + [(0, n // 2)])
    paths = subdivision._iter_paths(g, 0, n // 2, 0)
    assert list(itertools.islice(paths, 3)) == [
        (0, n // 2),
        tuple(range(n // 2 + 1)),
        (0, *range(n - 1, n // 2 - 1, -1)),
    ]


def _reference_find_minor(g, pattern, budget):
    # find_minor before its vertex and edge reserves, kept as the reference
    # for the certificates and steps of the pruned search
    bc = pattern.branch_count
    if g.n < bc or g.num_edges < len(pattern.edge_list):
        return None
    order = subdivision._MINOR_ORDER[pattern]
    seed_above = subdivision._SEED_ABOVE[pattern]
    adj_mask = g.adj_mask
    pat_deg = [0] * bc
    pat_nbrs = [[] for _ in range(bc)]
    for pi, pj in pattern.edge_list:
        pat_deg[pi] += 1
        pat_deg[pj] += 1
        pat_nbrs[pi].append(pj)
        pat_nbrs[pj].append(pi)
    placed_mask = [0] * bc
    seeds = [-1] * bc
    all_bits = (1 << g.n) - 1

    def edges_between(a_mask, b_mask):
        return sum((adj_mask[v] & b_mask).bit_count() for v in subdivision._mask_bits(a_mask))

    def place(idx, used):
        if idx == bc:
            return True
        p = order[idx]
        min_seed = seeds[seed_above[p]] + 1 if p in seed_above else 0
        free = all_bits & ~used
        max_size = g.n - used.bit_count() - (bc - idx - 1)
        placed_nbrs = [q for q in pat_nbrs[p] if placed_mask[q]]
        for seed in range(min_seed, g.n):
            if not free >> seed & 1:
                continue
            allowed = free & ~((1 << (seed + 1)) - 1)
            for s_mask in subdivision._connected_sets(g, seed, allowed, max_size):
                budget.tick()
                if edges_between(s_mask, ~s_mask) < pat_deg[p]:
                    continue
                if any(edges_between(s_mask, placed_mask[q]) < 1 for q in placed_nbrs):
                    continue
                placed_mask[p] = s_mask
                seeds[p] = seed
                if place(idx + 1, used | s_mask):
                    return True
                placed_mask[p] = 0
                seeds[p] = -1
        return False

    if not place(0, 0):
        return None
    sets = tuple(frozenset(subdivision._mask_bits(m)) for m in placed_mask)
    cross = []
    for pi, pj in pattern.edge_list:
        cross.append(next(
            normalize_edge(u, v)
            for u in sorted(sets[pi])
            for v in sorted(sets[pj])
            if g.has_edge(u, v) and normalize_edge(u, v) not in cross
        ))
    return MinorCertificate(pattern, sets, tuple(cross))


def _sweep_cubic_graphs():
    # the cubic graphs of the benchmark sweep's menger-cubic calls: four
    # seeds drawn from random.Random(0), three graphs each, sizes 8, 10, 12
    seeds = random.Random(0)
    for _ in range(4):
        rng = make_rng(seeds.randrange(2**31))
        for n in (8, 10, 12):
            yield random_cubic_graph(n, rng)


def _steps(search, g, pattern):
    budget = StepBudget(10**12)
    cert = search(g, pattern, budget)
    return cert, 10**12 - budget.remaining


def test_pruned_minor_search_finds_the_reference_certificate_in_no_more_steps():
    hosts = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
    hosts += [from_edge_mask(6, mask) for mask in enumerate_graph_class_masks(6)]
    hosts += [petersen_graph(), *_sweep_cubic_graphs()]
    total_ref = total = 0
    for g in hosts:
        for pattern in Pattern:
            want, ref_steps = _steps(_reference_find_minor, g, pattern)
            got, steps = _steps(find_minor, g, pattern)
            assert got == want, (g, pattern)
            assert steps <= ref_steps, (g, pattern)
            total_ref += ref_steps
            total += steps
    assert total < total_ref


def test_minor_search_spends_nothing_where_no_branch_sets_fit():
    rng = make_rng(0)
    cubic = [complete_graph(4), complete_bipartite(3, 3), cube_graph()]
    cubic += [random_cubic_graph(n, rng) for n in (4, 6, 8) for _ in range(3)]
    # with no degree above 3, K5 needs five sets of two vertices each: on
    # nine vertices the first set is capped at one vertex
    for g in [*cubic, delete_vertex(petersen_graph(), 0)[0]]:
        assert _steps(find_minor, g, Pattern.K5) == (None, 0), g
    for n in range(3, 13):
        for pattern in Pattern:
            assert _steps(find_minor, cycle_graph(n), pattern) == (None, 0)
