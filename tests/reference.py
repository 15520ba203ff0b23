"""Reference implementations only the tests use.

Smoothing, the isomorphism and homeomorphism tests, brute-force rotation
enumeration, the canonical form and the mirror of a rotation, face
boundaries, theta containment
by its definition, the edge-deletion predicates and the canonical edge
mask: slow or narrow helpers that check the package's own routes from
outside, and that no command of the package runs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable, Iterator

from planarcert.embedding import FaceSet, Rotation
from planarcert.errors import CapacityError, InternalInconsistencyError
from planarcert.graphs import (
    Graph,
    VertexMap,
    _compaction_map,
    _renamed,
    complete_bipartite,
    delete_vertices,
    normalize_edge,
)
from planarcert.harness import MAX_CLASS_N, _edge_bit_columns, _mask_orbit


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def theta_graph() -> Graph:
    """Two degree-3 vertices joined by three 2-edge paths (K_{2,3})."""
    return complete_bipartite(2, 3)


def cube_graph() -> Graph:
    """The 3-cube Q3: vertices are 3-bit strings, edges flip one bit."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            if v < v ^ bit:
                edges.append((v, v ^ bit))
    return Graph(8, edges)


# ---------------------------------------------------------------------------
# Vertex maps
# ---------------------------------------------------------------------------


def identity_map(n: int) -> VertexMap:
    return tuple(range(n))


def compose_vertex_maps(first: VertexMap, second: VertexMap) -> VertexMap:
    """Map of applying `first` then `second`."""
    out: list[int | None] = []
    for mid in first:
        out.append(None if mid is None else second[mid])
    return tuple(out)


# ---------------------------------------------------------------------------
# Smoothing, isomorphism and homeomorphism
# ---------------------------------------------------------------------------


def smooth(g: Graph) -> tuple[Graph, VertexMap]:
    """Suppress degree-2 vertices until a fixed point is reached.

    A degree-2 vertex is suppressed (removed, its neighbors joined) only
    when its two neighbors are not already adjacent; suppressing it would
    otherwise create a parallel edge.  Cycle components shrink to
    triangles under this rule, so homeomorphism of cycles reduces to
    isomorphism.  Isolated vertices are untouched.
    """
    cur = g
    vmap = identity_map(g.n)
    while True:
        target = None
        for v in range(cur.n):
            if len(cur.adj[v]) == 2:
                a, b = cur.adj[v]
                if not cur.has_edge(a, b):
                    target = (v, a, b)
                    break
        if target is None:
            return cur, vmap
        v, a, b = target
        step = _compaction_map(cur.n, {v})
        sa, sb = step[a], step[b]
        if sa is None or sb is None:
            raise InternalInconsistencyError(
                "smoothing removed a neighbor of the suppressed vertex"
            )
        adj = _renamed(cur.adj, step)
        bisect.insort(adj[sa], sb)
        bisect.insort(adj[sb], sa)
        cur = Graph.from_adjacency(tuple(map(tuple, adj)), cur.num_edges - 1)
        vmap = compose_vertex_maps(vmap, step)


def _vertex_profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(degree, sorted neighbor degrees) of every vertex."""
    degs = [len(nbrs) for nbrs in g.adj]
    return [(degs[v], tuple(sorted(degs[u] for u in g.adj[v]))) for v in range(g.n)]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Vertex bijection preserving adjacency, by pruned backtracking.

    Prunes on degree sequences and neighbor-degree multisets; intended
    for the small graphs (n <= 10) the tests use.
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if g.n == 0:
        return True
    pg = _vertex_profiles(g)
    ph = _vertex_profiles(h)
    if sorted(pg) != sorted(ph):
        return False

    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for prof in ph:
        counts[prof] = counts.get(prof, 0) + 1
    # rarest profile first, then high degree: fail as early as possible
    order = sorted(range(g.n), key=lambda v: (counts[pg[v]], -len(g.adj[v]), v))

    n = g.n
    mapped = [-1] * n
    used = [False] * n
    gm = g.adj_mask
    hm = h.adj_mask

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        prof = pg[v]
        for w in range(n):
            if used[w] or ph[w] != prof:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if (gm[v] >> u & 1) != (hm[w] >> mapped[u] & 1):
                    ok = False
                    break
            if ok:
                mapped[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def are_homeomorphic(g: Graph, h: Graph) -> bool:
    """True iff the smoothed forms are isomorphic."""
    sg, _ = smooth(g)
    sh, _ = smooth(h)
    return are_isomorphic(sg, sh)


# ---------------------------------------------------------------------------
# Rotation systems and faces
# ---------------------------------------------------------------------------


Dart = tuple[int, int]


def canonical_rotation(order: Iterable[Iterable[int]]) -> Rotation:
    """order as a Rotation: each cycle turned to start at its smallest
    neighbor, the form in which the package returns rotations."""
    canon = []
    for cyc in map(tuple, order):
        k = cyc.index(min(cyc)) if cyc else 0
        canon.append(cyc[k:] + cyc[:k])
    return tuple(canon)


def _walk_darts(walk: tuple[int, ...]) -> tuple[Dart, ...]:
    return tuple(zip(walk, walk[1:] + walk[:1]))


def face_darts(fs: FaceSet) -> tuple[tuple[Dart, ...], ...]:
    """Each face of fs as its closed dart walk."""
    return tuple(map(_walk_darts, fs.walks))


def face_boundary(g: Graph, fs: FaceSet, f: int) -> Graph:
    """Subgraph of vertices and edges on face f's walk, ids compacted in
    ascending order of the original labels."""
    if not 0 <= f < len(fs.walks):
        raise ValueError(f"face index {f} out of range")
    walk = fs.walks[f]
    verts = sorted(set(walk))
    relabel = {v: i for i, v in enumerate(verts)}
    edges = {normalize_edge(relabel[u], relabel[v]) for u, v in _walk_darts(walk)}
    return Graph(len(verts), edges)


def mirror(rho: Rotation) -> Rotation:
    """The mirror embedding: every cyclic order reversed."""
    return canonical_rotation(cyc[::-1] for cyc in rho)


def rotations_equivalent(rho1: Rotation, rho2: Rotation) -> bool:
    """Equal up to global reflection (the sphere's mirror symmetry)."""
    if len(rho1) != len(rho2) or any(
        sorted(a) != sorted(b) for a, b in zip(rho1, rho2)
    ):
        raise ValueError("rotation systems belong to different graphs")
    return canonical_rotation(rho1) in (canonical_rotation(rho2), mirror(rho2))


def enumerate_rotation_systems(g: Graph) -> Iterator[Rotation]:
    """All rotation systems of g: the product over vertices of the
    (deg - 1)! cyclic orders of their darts, each cycle starting at its
    smallest neighbor."""
    per_vertex: list[list[tuple[int, ...]]] = []
    for nbrs in g.adj:
        if len(nbrs) <= 2:
            per_vertex.append([nbrs])
        else:
            anchor, rest = nbrs[0], nbrs[1:]
            per_vertex.append(
                [(anchor,) + p for p in itertools.permutations(rest)]
            )
    yield from itertools.product(*per_vertex)


# ---------------------------------------------------------------------------
# Theta containment and the edge-deletion predicates
# ---------------------------------------------------------------------------


def contains_theta_by_paths(g: Graph) -> bool:
    """Two vertices joined by three internally disjoint paths, by brute
    force: every simple path between two vertices of degree 3 or more
    (the three paths leave each end by distinct edges), then every triple
    of those paths.  The definition itself, with no use of blocks."""
    adj = g.adj
    ends = [v for v in range(g.n) if len(adj[v]) >= 3]
    for a, b in itertools.combinations(ends, 2):
        interiors = []  # the interior of each simple a-b path, as a bitmask
        stack = [(a, 1 << a)]
        while stack:
            v, seen = stack.pop()
            for w in adj[v]:
                if w == b:
                    interiors.append(seen & ~(1 << a))
                elif not seen >> w & 1:
                    stack.append((w, seen | 1 << w))
        for i, p in enumerate(interiors):
            for j in range(i + 1, len(interiors)):
                q = interiors[j]
                if not p & q and any(not (p | q) & r for r in interiors[j + 1 :]):
                    return True
    return False


def deletion_lemma_predicates(g: Graph, x: int, y: int) -> tuple[bool, bool]:
    """(degree bound holds, theta-free) for G - x - y over an edge xy.

    The degree bound requires G - x - y to be nonempty with all degrees
    >= 2.
    """
    if normalize_edge(x, y) not in g.edges:
        raise ValueError(f"({x}, {y}) is not an edge")
    reduced, _ = delete_vertices(g, (x, y))
    deg_ok = reduced.n > 0 and all(len(nbrs) >= 2 for nbrs in reduced.adj)
    return deg_ok, not contains_theta_by_paths(reduced)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def canonical_edge_mask(g: Graph) -> int:
    """Minimum edge bitmask over all vertex relabelings (n <= 7)."""
    if g.n > MAX_CLASS_N:
        raise CapacityError(f"canonical form supports n <= {MAX_CLASS_N}")
    return min(_mask_orbit(g.edge_mask(), _edge_bit_columns(g.n), math.factorial(g.n)))
