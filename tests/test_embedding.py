import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarcert import embedding
from planarcert.documents import verdict_doc_is_valid
from planarcert.embedding import (
    FaceSet,
    StepBudget,
    face_covering_all_edges,
    face_walks,
    find_covering_planar_rotation,
    find_planar_rotation,
    genus,
    lr_kuratowski,
    lr_planar_rotation,
    trace_faces,
)
from planarcert.errors import InternalInconsistencyError, SearchBudgetExceeded
from planarcert.graphs import (
    Graph,
    biconnected_components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_edge,
    enumerate_labeled_graphs,
    from_edge_mask,
    normalize_edge,
    path_graph,
    petersen_graph,
    subdivide_edge,
)
from planarcert.harness import enumerate_graph_class_masks
from planarcert.subdivision import Pattern, contains_theta, validate_subdivision

from conftest import graphs, grid_graph, k33_in_grid
from reference import (
    are_isomorphic,
    canonical_rotation,
    cube_graph,
    enumerate_rotation_systems,
    face_boundary,
    face_darts,
    mirror,
    rotations_equivalent,
    theta_graph,
)


def brute_trace(g, rho):
    """Independent dict-based face tracer used as the test oracle."""
    succ = {}
    for v, cyc in enumerate(rho):
        for i, u in enumerate(cyc):
            succ[(u, v)] = (v, cyc[(i + 1) % len(cyc)])
    faces = 0
    seen = set()
    for d0 in succ:
        if d0 in seen:
            continue
        faces += 1
        d = d0
        while True:
            seen.add(d)
            d = succ[d]
            if d == d0:
                break
    faces += sum(1 for v in range(g.n) if not g.adj[v])
    return faces


def random_rotation(g, seed):
    import random

    rng = random.Random(seed)
    order = []
    for nbrs in g.adj:
        cyc = list(nbrs)
        rng.shuffle(cyc)
        order.append(tuple(cyc))
    return canonical_rotation(order)


def reference_faces(g, rho):
    """Faces traced on a dict of tuple darts, every dart sorted, each
    recorded as the tails of its darts: the specification trace_faces must
    reproduce field by field.  Also returns the dart walks themselves."""
    if len(rho) != g.n or any(
        tuple(sorted(cyc)) != g.adj[v] for v, cyc in enumerate(rho)
    ):
        raise ValueError("rotation system does not match the graph")
    succ = {}
    for v, cyc in enumerate(rho):
        for i, u in enumerate(cyc):
            succ[(u, v)] = (v, cyc[(i + 1) % len(cyc)])
    walks, seen = [], set()
    for start in sorted(succ):
        if start in seen:
            continue
        walk, d = [], start
        while True:
            walk.append(d)
            seen.add(d)
            d = succ[d]
            if d == start:
                break
        walks.append(tuple(walk))
    walks += [() for v in range(g.n) if not g.adj[v]]
    tails = tuple(tuple(u for u, _ in walk) for walk in walks)
    c, e, f = g.component_count(), len(g.edges), len(walks)
    faces = FaceSet(tails, c, (2 * c - g.n + e - f) // 2)
    return faces, tuple(walks)


@st.composite
def rotated_graphs(draw):
    """A graph on up to 12 vertices, often disconnected or with isolated
    vertices, under a random rotation, usually of genus > 0."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if n > 1 else []
    g = Graph(n, edges)
    return g, random_rotation(g, draw(st.integers(0, 2**32 - 1)))


K5_SORTED_ROTATION = canonical_rotation(
    [tuple(w for w in range(5) if w != v) for v in range(5)]
)  # genus > 0
TRIANGLE_EDGE_AND_POINTS = (
    Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5)]),
    canonical_rotation([(1, 2), (0, 2), (0, 1), (), (5,), (4,), ()]),
)


@settings(max_examples=300, deadline=None)
@given(rotated_graphs())
@example((complete_graph(5), K5_SORTED_ROTATION))
@example(TRIANGLE_EDGE_AND_POINTS)
def test_trace_faces_matches_a_dict_based_tracer(graph_and_rotation):
    g, rho = graph_and_rotation
    got = trace_faces(g, rho)
    want, want_darts = reference_faces(g, rho)
    for field in dataclasses.fields(FaceSet):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert face_darts(got) == want_darts


def test_trace_faces_rejects_every_kind_of_mismatch():
    k4 = complete_graph(4)
    good = [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)]
    assert len(trace_faces(k4, canonical_rotation(good)).walks) == 4
    for bad in (
        good[:3],  # too few vertices
        good + [()],  # too many
        good[:1] + [(2, 0)] + good[2:],  # a neighbor missing
        good[:3] + [(0, 1, 2, 4)],  # one too many
        good[:3] + [(0, 1, 4)],  # a stranger in place of a neighbor
        good[:3] + [(0, 1, -1)],  # an id out of range
        [(1, 3)] + good[1:],  # a cycle one short
    ):
        with pytest.raises(ValueError):
            trace_faces(k4, canonical_rotation(bad))
    # degree <= 2 cycles have one canonical order, which must match exactly
    with pytest.raises(ValueError):
        trace_faces(path_graph(3), canonical_rotation([(2,), (0, 2), (0,)]))


def test_face_walks_reads_raw_cycles_from_any_start_and_meets_each_dart_once():
    k4 = complete_graph(4)
    good = [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]
    want = [list(w) for w in trace_faces(k4, canonical_rotation(good)).walks]
    assert face_walks(k4, good) == want
    assert face_walks(k4, [cyc[1:] + cyc[:1] for cyc in good]) == want
    assert face_walks(Graph(2, []), [[], []]) == [[], []]
    for bad in (
        [[1, 1, 2]] + good[1:],  # a neighbor met twice, the length kept
        good[:3] + [[0, 1, 1]],
        [[3, 3, 3]] + good[1:],
        [[1, 3, 2, 1]] + good[1:],
        good[:3] + [[0, 1, 3]],  # the vertex itself
        good[:3] + [[0, 1, 4]],  # one past the last vertex
    ):
        with pytest.raises(ValueError):
            face_walks(k4, bad)


def test_face_walks_skips_the_search_for_sorted_cycles_as_lists_too(monkeypatch):
    # certify passes the JSON lists: a list equal to g.adj[v] must take the
    # same shortcut as the tuple, with no dart looked up by bisection
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    want = face_walks(g, g.adj)

    def refuse(*args):
        raise AssertionError("a sorted cycle was searched")

    monkeypatch.setattr(embedding.bisect, "bisect_left", refuse)
    assert face_walks(g, [list(cyc) for cyc in g.adj]) == want


def test_trace_faces_c3():
    c3 = cycle_graph(3)
    (rho,) = list(enumerate_rotation_systems(c3))
    fs = trace_faces(c3, rho)
    assert len(fs.walks) == 2
    assert all(len(w) == 3 for w in face_darts(fs))
    assert fs.genus == 0


def test_trace_faces_k4_planar_rotation():
    k4 = complete_graph(4)
    # outer triangle 0,1,2 drawn counterclockwise with 3 in the center
    rho = canonical_rotation([(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)])
    fs = trace_faces(k4, rho)
    assert len(fs.walks) == 4
    assert all(len(w) == 3 for w in face_darts(fs))
    assert fs.genus == 0


def test_trace_faces_rejects_mismatched_rotation():
    with pytest.raises(ValueError):
        trace_faces(cycle_graph(3), canonical_rotation([(1, 2), (0,), (0, 1)]))


def test_trace_faces_refuses_a_broken_euler_count(monkeypatch):
    k4 = complete_graph(4)
    rho = find_planar_rotation(k4)
    monkeypatch.setattr(Graph, "component_count", lambda self: 0)
    with pytest.raises(InternalInconsistencyError):
        trace_faces(k4, rho)


def test_trace_faces_counts_isolated_vertices():
    g = Graph(3, [(0, 1)])
    rho = canonical_rotation([(1,), (0,), ()])
    fs = trace_faces(g, rho)
    assert len(fs.walks) == 2  # the edge's face and the isolated vertex's
    assert fs.components == 2
    assert fs.genus == 0


def test_dart_partition_invariants_exhaustive_small():
    for n in range(0, 5):
        for g in enumerate_labeled_graphs(n):
            for rho in enumerate_rotation_systems(g):
                fs = trace_faces(g, rho)
                walk_darts = [d for w in face_darts(fs) for d in w]
                assert len(walk_darts) == len(set(walk_darts)) == 2 * g.num_edges
                assert fs.genus >= 0
                assert len(fs.walks) == brute_trace(g, rho)


def test_tree_rotations_have_genus_zero():
    trees = [path_graph(5), Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])]
    for t in trees:
        for seed in range(10):
            assert genus(t, random_rotation(t, seed)) == 0


def test_euler_formula_on_planar_rotations():
    for g in (complete_graph(4), cycle_graph(6), path_graph(4)):
        rho = find_planar_rotation(g)
        fs = trace_faces(g, rho)
        assert g.n - g.num_edges + len(fs.walks) == 2 * fs.components


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5), st.integers(min_value=0, max_value=10**6))
def test_reflection_preserves_genus(g, seed):
    rho = random_rotation(g, seed)
    assert genus(g, rho) == genus(g, mirror(rho))


def test_find_planar_rotation_examples():
    assert find_planar_rotation(complete_graph(4)) is not None
    assert find_planar_rotation(complete_graph(5)) is None
    assert find_planar_rotation(complete_bipartite(3, 3)) is None
    k33e = delete_edge(complete_bipartite(3, 3), (0, 3))
    rho = find_planar_rotation(k33e)
    assert rho is not None and genus(k33e, rho) == 0


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6))
def test_oracle_soundness(g):
    rho = find_planar_rotation(g)
    if rho is not None:
        assert genus(g, rho) == 0


def test_oracle_handles_disconnected_graphs():
    g = Graph(9, list(complete_graph(4).edges) + [(4, 5), (6, 7)])
    rho = find_planar_rotation(g)
    assert rho is not None
    assert genus(g, rho) == 0
    two_k5 = Graph(
        10,
        list(complete_graph(5).edges)
        + [(u + 5, v + 5) for u, v in complete_graph(5).edges],
    )
    assert find_planar_rotation(two_k5) is None


def test_edge_count_bound_rejects_k6_without_search():
    # 15 > 3V - 6 = 12 edges: rejected before a single cyclic order
    assert find_planar_rotation(complete_graph(6), node_budget=1) is None


def test_oracle_handles_long_paths():
    # one search level per vertex, kept on an explicit stack
    g = path_graph(1000)
    assert genus(g, find_planar_rotation(g)) == 0
    assert genus(g, find_covering_planar_rotation(g)) == 0


def test_oracle_memory_is_linear_in_the_component():
    import tracemalloc

    matching = Graph(100, [(2 * i, 2 * i + 1) for i in range(50)])
    tracemalloc.start()
    try:
        rho = find_planar_rotation(matching)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho is not None and genus(matching, rho) == 0
    assert peak < 1 << 20


def test_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceeded):
        find_planar_rotation(complete_bipartite(3, 3), node_budget=3)
    with pytest.raises(SearchBudgetExceeded):
        lr_planar_rotation(cube_graph(), node_budget=2)
    # one budget covers every test of an extraction
    with pytest.raises(SearchBudgetExceeded):
        lr_kuratowski(petersen_graph(), node_budget=20)
    # a StepBudget is drawn on by every call it is passed to
    shared = StepBudget(len(cube_graph().edges))
    assert lr_planar_rotation(cube_graph(), shared) is not None
    with pytest.raises(SearchBudgetExceeded):
        lr_planar_rotation(cube_graph(), shared)


def _connected_small_graphs():
    for n in range(1, 5):
        yield from (g for g in enumerate_labeled_graphs(n) if g.is_connected())
    for mask in enumerate_graph_class_masks(5):
        g = from_edge_mask(5, mask)
        if g.is_connected():
            yield g


def _genus0_rotations(g):
    comp = tuple(range(g.n))
    return [
        canonical_rotation([rotation[v] for v in comp])
        for rotation in embedding._planar_rotations(g, comp, StepBudget(None))
    ]


def _first_vertex_images(g, v0, rho):
    """rho's images under the mirror and the swaps of v0's twin neighbors
    (a, b with N(a) - b = N(b) - a), found by brute force."""
    classes = []
    for a in g.adj[v0]:
        for c in classes:
            if set(g.adj[a]) - {c[0]} == set(g.adj[c[0]]) - {a}:
                c.append(a)
                break
        else:
            classes.append([a])
    images = set()
    for perms in itertools.product(*map(itertools.permutations, classes)):
        sigma = list(range(g.n))
        for c, p in zip(classes, perms):
            for a, b in zip(c, p):
                sigma[a] = b
        order = [()] * g.n
        for v, cyc in enumerate(rho):
            order[sigma[v]] = [sigma[w] for w in cyc]
        images |= {canonical_rotation(order), mirror(canonical_rotation(order))}
    return images


def test_search_yields_every_planar_rotation_up_to_mirror_once_and_nothing_else():
    # The name predates the twin cut and is kept; the contract checked is
    # that the search yields, each once, exactly the genus-0 rotations whose
    # first-vertex order is the least image of itself under the mirror and
    # the twin swaps there.  The face bound may cut only branches without a
    # genus-0 completion, and the twin cut only orders at the first vertex
    # that an image precedes.  On these graphs each genus-0 rotation is the
    # image of exactly one yielded rotation; on six vertices (mask 247) a
    # swap that fixes the first vertex's order can make it the image of two
    checked = cut = 0
    for g in _connected_small_graphs():
        found = _genus0_rotations(g)
        planar = {
            rho for rho in enumerate_rotation_systems(g) if genus(g, rho) == 0
        }
        # the search's first vertex: the densest, then the smallest
        v0 = max(range(g.n), key=lambda v: (len(g.adj[v]), -v))
        images = {rho: _first_vertex_images(g, v0, rho) for rho in planar}
        least = {
            rho
            for rho in planar
            if rho[v0] == min(image[v0] for image in images[rho])
        }
        assert len(set(found)) == len(found)
        assert set(found) == least
        assert all(sum(rho in images[y] for y in found) == 1 for rho in planar)
        checked += bool(planar)
        # the mirror cut alone yields one rotation per mirror pair
        cut += 2 * len(found) < len(planar)
    assert (checked, cut) == (64, 7)


@pytest.mark.parametrize(
    "g, steps, planar",
    [
        (from_edge_mask(6, 15870), 131, True),  # the octahedron
        (from_edge_mask(6, 4095), 1570, False),  # K3,3 plus a triangle on a side
        (from_edge_mask(6, 6143), 482, False),
        (petersen_graph(), 147, False),
        (complete_bipartite(3, 3), 17, False),
        (from_edge_mask(7, 32767), 65523, False),  # a triangle joined to 4 vertices
    ],
    ids=["octahedron", "mask4095", "mask6143", "petersen", "k33", "mask32767"],
)
def test_search_steps_stay_pinned(g, steps, planar):
    # counting every open dart toward the faces still to close took 4,200,
    # 21,580, 13,284, 335 and 31 steps; the chain bound before the twin
    # cut at the first vertex took 210, 9,388, 3,348, 147 and 17, and
    # 1,272,588 on mask 32767
    rho = find_planar_rotation(g, node_budget=steps)
    assert (rho is not None) == planar
    if planar:
        assert genus(g, rho) == 0
    with pytest.raises(SearchBudgetExceeded):
        find_planar_rotation(g, node_budget=steps - 1)


def test_covering_edge_count_refuses_only_graphs_without_a_covering_face(
    monkeypatch,
):
    # 2E > 3(V - 1) leaves no room for a face through every edge: the
    # search the count skips finds none on any connected graph with n <= 5
    refused = searched = 0
    tried = []
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if not g.is_connected() or 2 * g.num_edges <= 3 * (n - 1):
                continue
            refused += 1
            with monkeypatch.context() as m:
                m.setattr(
                    embedding,
                    "_planar_rotations",
                    lambda *args: tried.append(args) or iter(()),
                )
                assert find_covering_planar_rotation(g) is None
            for rho in _genus0_rotations(g):
                searched += 1
                assert face_covering_all_edges(g, trace_faces(g, rho)) is None
    assert tried == []
    assert (refused, searched) == (183, 242)


def test_searches_return_the_rotations_they_returned_before_the_face_cuts():
    # a digest of both searches over every labeled graph with n <= 5,
    # taken before the chain bound and the covering count were added
    digest = hashlib.sha256()
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            for search in (find_planar_rotation, find_covering_planar_rotation):
                rho = search(g)
                digest.update(repr(rho).encode())
    assert digest.hexdigest() == (
        "912bc0f3bd37ae21a142afec1d4095e6c499331a44d6cc2f38dbed97e8a5186c"
    )


def test_search_returns_the_rotations_it_returned_before_the_twin_cut():
    # a digest over the 156 classes with n = 6, taken before the twin cut
    digest = hashlib.sha256()
    for mask in enumerate_graph_class_masks(6):
        rho = find_planar_rotation(from_edge_mask(6, mask))
        digest.update(repr(rho).encode())
    assert digest.hexdigest() == (
        "7f11f16cb2ffd4fe8a37c40632580404739e166aeaaa2378ef1002667e578b4b"
    )


def test_searches_return_canonical_cycles_without_the_strict_constructor(
    all_graphs_up_to_5,
):
    # nothing canonicalises a rotation after the search: each search must
    # start every cycle at the smallest neighbor itself
    rotations = [
        search(g)
        for g in all_graphs_up_to_5
        for search in (find_planar_rotation, find_covering_planar_rotation)
    ]
    assert any(rho is not None for rho in rotations)
    for rho in rotations:
        if rho is not None:
            assert rho == canonical_rotation(rho)
    # the oracle: cycles from any start are equal once canonical, and a
    # reversed cycle is the mirror's
    r1 = canonical_rotation([(1, 2, 3), ()])  # not a real graph
    assert r1 == canonical_rotation([(2, 3, 1), ()]) == ((1, 2, 3), ())
    assert r1 != canonical_rotation([(3, 2, 1), ()]) == mirror(r1)


@pytest.mark.parametrize(
    "g", [grid_graph(6, 7), path_graph(50), cube_graph()], ids=["grid", "path", "cube"]
)
def test_lr_spends_exactly_one_step_per_edge(g):
    m = g.num_edges
    budget = StepBudget(m)
    assert lr_planar_rotation(g, budget) is not None
    assert budget.remaining == 0
    with pytest.raises(SearchBudgetExceeded):
        lr_planar_rotation(g, StepBudget(m - 1))


def test_lr_examples():
    for g in (complete_graph(4), cube_graph(), path_graph(1), Graph(3), theta_graph()):
        rho = lr_planar_rotation(g)
        assert rho is not None and genus(g, rho) == 0
    for g in (complete_graph(5), complete_bipartite(3, 3), petersen_graph()):
        assert lr_planar_rotation(g) is None
    # m > 3n - 6 is rejected before the first oriented edge
    assert lr_planar_rotation(complete_graph(7), node_budget=1) is None


def test_lr_returns_canonical_cycles_without_the_strict_constructor(
    all_graphs_up_to_5,
):
    rng = random.Random(5)
    larger = [
        grid_graph(9, 11),
        grid_graph(8, 8, diagonals=True),
        path_graph(40),
        Graph(60, [(v, rng.randrange(v)) for v in range(1, 60)]),  # a tree
    ]
    larger += [_relabeled(_random_triangulated_piece(rng), rng) for _ in range(8)]

    rotations = [lr_planar_rotation(g) for g in [*all_graphs_up_to_5, *larger]]
    for rho in rotations:
        if rho is not None:
            assert rho == canonical_rotation(rho)
    assert all(rho is not None for rho in rotations[len(all_graphs_up_to_5):])
    # face_walks refuses a cycle that meets a neighbor twice, and the audit
    # names it
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match="repeated neighbor"):
        verdict_doc_is_valid(
            star, {"status": "planar", "rotation": [[1, 2, 1], [0], [0], [0]]}
        )


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _random_triangulated_piece(rng):
    grid = grid_graph(rng.randint(1, 14), rng.randint(1, 14), diagonals=True)
    keep = rng.uniform(0.5, 1.0)
    return Graph(grid.n, [e for e in grid.sorted_edges() if rng.random() < keep])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lr_embeds_relabeled_triangulated_grid_pieces(seed):
    rng = random.Random(seed)
    g = _relabeled(_random_triangulated_piece(rng), rng)
    rho = lr_planar_rotation(g)
    assert rho is not None
    assert genus(g, rho) == 0


def _piece_joined_to_obstruction(rng, pattern):
    """A random triangulated-grid piece joined by one edge to a K5 or
    K3,3 with about half its edges subdivided, relabeled."""
    piece = _random_triangulated_piece(rng)
    obstruction = complete_graph(5) if pattern == "K5" else complete_bipartite(3, 3)
    for e in obstruction.sorted_edges():
        if rng.random() < 0.5:
            obstruction = subdivide_edge(obstruction, e)
    k = piece.n
    edges = list(piece.edges) + [(u + k, v + k) for u, v in obstruction.edges]
    edges.append((rng.randrange(k), k + rng.randrange(obstruction.n)))
    return _relabeled(Graph(k + obstruction.n, edges), rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["K5", "K33"]))
def test_lr_rejects_pieces_joined_to_a_subdivided_obstruction(seed, pattern):
    g = _piece_joined_to_obstruction(random.Random(seed), pattern)
    assert lr_planar_rotation(g) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["K5", "K33"]))
def test_lr_kuratowski_certifies_pieces_joined_to_a_subdivided_obstruction(
    seed, pattern
):
    g = _piece_joined_to_obstruction(random.Random(seed), pattern)
    cert = lr_kuratowski(g)
    assert validate_subdivision(g, cert)


def test_lr_kuratowski_examples():
    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    assert lr_kuratowski(k5).pattern is Pattern.K5
    assert lr_kuratowski(k33).pattern is Pattern.K33
    for g in (k5, k33, petersen_graph(), complete_graph(7), k33_in_grid(6)):
        assert validate_subdivision(g, lr_kuratowski(g))
    # a cubic host holds no K5 subdivision
    assert lr_kuratowski(petersen_graph()).pattern is Pattern.K33


def _spied_shuffles(monkeypatch):
    calls = []
    real = random.Random.shuffle

    def spy(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(random.Random, "shuffle", spy)
    return calls


def test_lr_kuratowski_shuffles_only_when_deletion_starts(monkeypatch):
    calls = _spied_shuffles(monkeypatch)
    k5 = complete_graph(5)
    for e in ((0, 1), (2, 3), (1, 4)):
        k5 = subdivide_edge(k5, e)
    cert = lr_kuratowski(k5)  # reduction alone leaves K5
    assert cert.pattern is Pattern.K5 and validate_subdivision(k5, cert)
    assert calls == []
    # the test's failure set localises the K3,3, and only the 9 edges of
    # g left in H after that are shuffled
    lr_kuratowski(k33_in_grid(4))
    assert calls == [9]


def test_lr_kuratowski_queue_puts_the_shuffled_edges_before_the_chains(monkeypatch):
    # the test's failure set cuts H down to a few fundamental cycles, and
    # reduction suppresses their vertices into chain edges before the
    # deletion starts; the certificate pins the queue order (the shuffled
    # ids of the 14 edges of g left in H, then the chains in creation order)
    calls = _spied_shuffles(monkeypatch)
    cert = lr_kuratowski(k33_in_grid(6))
    assert calls == [14]
    assert (cert.pattern, cert.branch) == (Pattern.K33, (3, 19, 24, 4, 18, 35))
    assert cert.paths == (
        (3, 4),
        (3, 9, 15, 14, 8, 7, 13, 12, 18),
        (3, 2, 1, 0, 35),
        (19, 20, 21, 22, 23, 17, 16, 10, 4),
        (19, 18),
        (19, 25, 26, 27, 28, 29, 35),
        (24, 11, 5, 4),
        (24, 18),
        (24, 30, 31, 32, 33, 34, 35),
    )


def _tree_only_failures(monkeypatch):
    """Cut every failure the left-right test reports down to its DFS tree,
    which is planar, so that lr_kuratowski never localises."""
    real = embedding._left_right
    tests = []

    def tree_only(adj, m, budget=None):
        cycles, failure = real(adj, m, budget)
        tests.append(m)
        return cycles, failure[: len(adj) - 1]

    monkeypatch.setattr(embedding, "_left_right", tree_only)
    return tests


def test_lr_kuratowski_falls_back_on_a_planar_failure_set(monkeypatch):
    # a refused hint leaves H as it was: the deletion runs on the whole
    # rejected component and finds the same certificate as with no hint
    tests = _tree_only_failures(monkeypatch)
    calls = _spied_shuffles(monkeypatch)
    cert = lr_kuratowski(k33_in_grid(6))
    assert calls == [63]
    # the rejected component's test, then the hint's: reduction prunes
    # the tree it leaves down to nothing
    assert tests[:2] == [61, 0]
    assert (cert.pattern, cert.branch) == (Pattern.K33, (9, 31, 34, 10, 19, 32))
    assert cert.paths == (
        (9, 10),
        (9, 8, 14, 20, 19),
        (9, 3, 32),
        (31, 30, 24, 11, 10),
        (31, 25, 19),
        (31, 32),
        (34, 28, 22, 16, 10),
        (34, 35, 0, 1, 7, 13, 12, 18, 19),
        (34, 33, 27, 26, 32),
    )


def test_left_right_reports_its_tree_and_the_failing_conflict():
    # planar: the cycles and no failure
    cycles, failure = embedding._left_right(cube_graph().adj, 12)
    assert failure == [] and cycles == lr_planar_rotation(cube_graph())
    # denser than 3n - 6: rejected with nothing to localise
    assert embedding._left_right(complete_graph(5).adj, 10) == (None, [])
    spans = []
    for g in (complete_bipartite(3, 3), petersen_graph(),
              _relabeled(k33_in_grid(12), random.Random(3)),
              subdivide_edge(complete_graph(5), (0, 1))):
        cycles, failure = embedding._left_right(g.adj, g.num_edges)
        assert cycles is None
        edges = [normalize_edge(u, v) for u, v in failure]
        assert len(set(edges)) == len(edges) and set(edges) <= g.edges
        # the DFS tree comes first and spans g
        assert Graph(g.n, edges[: g.n - 1]).is_connected()
        spans.append(lr_planar_rotation(Graph(g.n, edges)) is None)
    # the failure is a hint: on the subdivided K5 it spans a planar graph
    assert spans == [True, True, True, False]


@pytest.mark.parametrize(
    "k, seed",
    [(k, seed) for k in (30, 100, 150) for seed in (0, 1, 2)]
    + [(120, 0)]
    + [pytest.param(k, 0, marks=pytest.mark.slow) for k in (200, 300)],
)
def test_lr_kuratowski_steps_stay_linear_on_a_k33_in_shuffled_grids(k, seed):
    # the deletion alone, with no hint, takes 2.6 to 26.9 m steps on
    # these graphs, depending on the labeling
    g = _relabeled(k33_in_grid(k), random.Random(seed))
    budget = StepBudget(10**12)
    cert = lr_kuratowski(g, budget)
    assert 10**12 - budget.remaining <= 4 * g.num_edges
    assert validate_subdivision(g, cert)


def test_biconnected_components_examples():
    # two triangles sharing vertex 2, a bridge 4-5 and a pendant square
    g = Graph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5),
                  (5, 6), (6, 7), (7, 8), (5, 8)])
    ids = {e: i for i, e in enumerate(g.sorted_edges())}
    nbr = {v: {w: ids[normalize_edge(v, w)] for w in g.adj[v]} for v in range(g.n)}
    comps = {
        frozenset(g.sorted_edges()[i] for i in comp)
        for comp in biconnected_components(nbr)
    }
    assert comps == {
        frozenset({(0, 1), (1, 2), (0, 2)}),
        frozenset({(2, 3), (3, 4), (2, 4)}),
        frozenset({(4, 5)}),
        frozenset({(5, 6), (6, 7), (7, 8), (5, 8)}),
    }
    # a long path is n - 1 bridges, found without recursion
    long_path = path_graph(5000)
    nbr = {v: {w: min(v, w) for w in long_path.adj[v]} for v in range(5000)}
    assert sorted(map(tuple, biconnected_components(nbr))) == [(i,) for i in range(4999)]


def test_lr_kuratowski_refuses_planar_graphs():
    with pytest.raises(InternalInconsistencyError):
        lr_kuratowski(complete_graph(4))
    # reduces to 6 vertices and 9 edges without a test: only the shape
    # check tells the planar prism from K3,3
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(InternalInconsistencyError):
        lr_kuratowski(prism)


def test_face_boundary_examples():
    c3 = cycle_graph(3)
    (rho,) = list(enumerate_rotation_systems(c3))
    fs = trace_faces(c3, rho)
    for f in range(len(fs.walks)):
        assert face_boundary(c3, fs, f) == c3
    k4 = complete_graph(4)
    fs = trace_faces(k4, find_planar_rotation(k4))
    for f in range(len(fs.walks)):
        assert are_isomorphic(face_boundary(k4, fs, f), cycle_graph(3))
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    fs = trace_faces(tree, find_planar_rotation(tree))
    assert len(fs.walks) == 1
    assert face_boundary(tree, fs, 0) == tree
    with pytest.raises(ValueError):
        face_boundary(tree, fs, 1)


def test_face_covering_all_edges_examples():
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    fs = trace_faces(tree, find_planar_rotation(tree))
    assert face_covering_all_edges(tree, fs) == 0
    c5 = cycle_graph(5)
    fs = trace_faces(c5, find_planar_rotation(c5))
    assert face_covering_all_edges(c5, fs) is not None
    theta = theta_graph()
    for rho in enumerate_rotation_systems(theta):
        fs = trace_faces(theta, rho)
        if fs.genus == 0:
            assert face_covering_all_edges(theta, fs) is None


def test_covering_rotation_search():
    assert find_covering_planar_rotation(cycle_graph(5)) is not None
    assert find_covering_planar_rotation(path_graph(4)) is not None
    assert find_covering_planar_rotation(theta_graph()) is None
    assert find_covering_planar_rotation(complete_graph(4)) is None
    # disconnected graphs with edges in two components have no covering face
    assert find_covering_planar_rotation(Graph(4, [(0, 1), (2, 3)])) is None


def test_rotations_equivalent():
    k4 = complete_graph(4)
    rho = find_planar_rotation(k4)
    assert rotations_equivalent(rho, rho)
    assert rotations_equivalent(rho, mirror(rho))
    genus0 = [r for r in enumerate_rotation_systems(k4) if genus(k4, r) == 0]
    genus1 = [r for r in enumerate_rotation_systems(k4) if genus(k4, r) == 1]
    assert genus0 and genus1
    assert not rotations_equivalent(genus0[0], genus1[0])
    with pytest.raises(ValueError):
        rotations_equivalent(rho, canonical_rotation([(1,), (0,)]))


def test_face_boundaries_of_planar_rotations_are_theta_free_sample():
    # the n <= 5 exhaustive version runs in the acceptance suite
    for g in (complete_graph(4), theta_graph(), cycle_graph(5)):
        rho = find_planar_rotation(g)
        fs = trace_faces(g, rho)
        for f in range(len(fs.walks)):
            assert not contains_theta(face_boundary(g, fs, f))


def test_enumerate_rotation_counts():
    k33 = complete_bipartite(3, 3)
    assert sum(1 for _ in enumerate_rotation_systems(k33)) == 2**6
    k4 = complete_graph(4)
    assert sum(1 for _ in enumerate_rotation_systems(k4)) == 2**4
    assert sum(1 for _ in enumerate_rotation_systems(petersen_graph())) == 2**10


def test_normalize_edge_helper():
    assert normalize_edge(3, 1) == (1, 3)


def test_darts_reverse_involution_and_count():
    g = complete_bipartite(2, 3)
    darts = [(u, v) for u in range(g.n) for v in g.adj[u]]
    assert len(darts) == 2 * g.num_edges
    for u, v in darts:
        assert (v, u) in darts


def test_components_are_found_once_and_trace_faces_reads_them():
    # a triangle, an edge and an isolated vertex
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    comps = g.components()
    assert comps == ((0, 1, 2), (3, 4), (5,))
    assert g.components() is comps
    rho = canonical_rotation(g.adj)
    assert trace_faces(g, rho).components == 3
    # a stored stand-in with one more component is what trace_faces counts,
    # so it starts no search of its own
    g._components = comps + ((),)
    assert trace_faces(g, rho).components == 4
