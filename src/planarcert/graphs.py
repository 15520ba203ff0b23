"""Immutable simple graphs and their structural operations.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored as
(u, v) with u < v.  Graphs are value types: operations return new graphs,
and operations that remove or merge vertices also return a VertexMap
recording where every old id went (None = removed).  Vertex ids are
compacted after removals, preserving the relative order of survivors, so
all renamings are deterministic.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator

from .errors import CapacityError, InternalInconsistencyError

Edge = tuple[int, int]

# old id -> new id, or None if the vertex was removed
VertexMap = tuple[int | None, ...]

MAX_ENUMERATION_N = 7


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    `adj` lists each vertex's neighbors in ascending order.  The edge set,
    the per-vertex neighbor bitmasks (n bits each), the components and
    the hash are built on first use: the certificate audit reads only
    `adj` and the components, only the small-graph searches read the
    masks, and building the masks for a large graph costs O(n * m / 64).
    """

    __slots__ = (
        "n", "num_edges", "adj", "_edges", "_adj_mask", "_components", "_hash"
    )

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        edge_set: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            edge_set.add((u, v) if u < v else (v, u))
        self._build(n, frozenset(edge_set))

    @classmethod
    def from_edge_set(cls, n: int, edges: frozenset[Edge]) -> Graph:
        """The graph on 0..n-1 with `edges`, which must already be
        normalized (u < v) and in range; they are not checked again."""
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    @classmethod
    def from_adjacency(cls, adj: tuple[tuple[int, ...], ...], m: int) -> Graph:
        """The graph whose vertex v has the neighbors adj[v], m edges in
        all.  The lists must already be ascending, symmetric, in range and
        free of loops and repeats; they are not checked again."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.num_edges = m
        g.adj = adj
        g._edges = g._adj_mask = g._components = g._hash = None
        return g

    def _build(self, n: int, edges: frozenset[Edge]) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self.n = n
        self.num_edges = len(edges)
        self.adj = tuple(map(tuple, adj))
        self._edges: frozenset[Edge] | None = edges
        self._adj_mask: tuple[int, ...] | None = None
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._hash: int | None = None

    @property
    def edges(self) -> frozenset[Edge]:
        edges = self._edges
        if edges is None:
            edges = self._edges = frozenset(self.sorted_edges())
        return edges

    @property
    def adj_mask(self) -> tuple[int, ...]:
        mask = self._adj_mask
        if mask is None:
            mask = self._adj_mask = tuple(
                sum(1 << w for w in nbrs) for nbrs in self.adj
            )
        return mask

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        nbrs = self.adj[u]
        i = bisect.bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Every edge (u, v), u < v, in ascending order."""
        return tuple(
            [(u, w) for u, nbrs in enumerate(self.adj) for w in nbrs if u < w]
        )

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum."""
        if self._components is not None:
            return self._components
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        self._components = tuple(comps)
        return self._components

    def component_count(self) -> int:
        return len(self.components())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def edge_mask(self) -> int:
        """Edge set as a bitmask over vertex pairs in lexicographic order."""
        mask = 0
        edges = self.edges
        for i, pair in enumerate(itertools.combinations(range(self.n), 2)):
            if pair in edges:
                mask |= 1 << i
        return mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.edges))
        return h

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.sorted_edges())})"


def from_edge_mask(n: int, mask: int) -> Graph:
    """Inverse of Graph.edge_mask: bit i = i-th pair of vertices in lex order."""
    pairs = list(itertools.combinations(range(n), 2))
    if mask < 0 or mask >= 1 << len(pairs):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return Graph.from_edge_set(
        n, frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
    )


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Parts {0..a-1} and {a..a+b-1}."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def theta_graph() -> Graph:
    """Two degree-3 vertices joined by three 2-edge paths (K_{2,3})."""
    return complete_bipartite(2, 3)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return Graph(10, edges)


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


def _compaction_map(n: int, removed: set[int]) -> VertexMap:
    out: list[int | None] = []
    nxt = 0
    for v in range(n):
        if v in removed:
            out.append(None)
        else:
            out.append(nxt)
            nxt += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def delete_edge(g: Graph, e: Edge) -> Graph:
    """Remove one edge; vertices are kept even if they become isolated."""
    e = normalize_edge(*e)
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge")
    return Graph.from_edge_set(g.n, g.edges - {e})


def delete_vertex(g: Graph, x: int) -> tuple[Graph, VertexMap]:
    """Remove a vertex and its incident edges; remaining ids are compacted."""
    return delete_vertices(g, (x,))


def delete_vertices(g: Graph, xs: Iterable[int]) -> tuple[Graph, VertexMap]:
    """Remove several vertices and their incident edges in one pass; the
    result and the map equal those of deleting them one at a time."""
    removed: set[int] = set()
    for x in xs:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range")
        if x in removed:
            raise ValueError(f"vertex {x} already removed")
        removed.add(x)
    vmap = _compaction_map(g.n, removed)
    # compaction keeps the order of survivors, so u < v still holds
    edges = frozenset(
        (vmap[u], vmap[v])
        for u, v in g.edges
        if u not in removed and v not in removed
    )
    return Graph.from_edge_set(g.n - len(removed), edges), vmap


def contract_edge(g: Graph, e: Edge) -> tuple[Graph, int, VertexMap]:
    """Merge the ends of an edge into one vertex.

    The merged vertex keeps the smaller endpoint's slot.  The resulting
    loop is dropped and parallel edges are merged, so the result is again
    simple.  Returns (graph, merged vertex id, vertex map).
    """
    e = normalize_edge(*e)
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge")
    keep, drop = e
    vmap_list: list[int | None] = list(_compaction_map(g.n, {drop}))
    z = vmap_list[keep]
    if z is None:
        raise InternalInconsistencyError("contraction removed the kept endpoint")
    vmap_list[drop] = z
    vmap = tuple(vmap_list)
    edges = set()
    for u, v in g.edges:
        nu, nv = vmap[u], vmap[v]
        if nu != nv:
            edges.add(normalize_edge(nu, nv))
    return Graph.from_edge_set(g.n - 1, frozenset(edges)), z, vmap


def subdivide_edge(g: Graph, e: Edge) -> Graph:
    """Replace edge uv with the path u - w - v through a fresh vertex w = n."""
    e = normalize_edge(*e)
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge")
    u, v = e
    w = g.n
    edges = (g.edges - {e}) | {(u, w), (v, w)}
    return Graph.from_edge_set(g.n + 1, edges)


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
        edges = [(step[u], step[w]) for u, w in cur.edges if v not in (u, w)]
        sa, sb = step[a], step[b]
        if sa is None or sb is None:
            raise InternalInconsistencyError(
                "smoothing removed a neighbor of the suppressed vertex"
            )
        edges.append(normalize_edge(sa, sb))
        cur = Graph.from_edge_set(cur.n - 1, frozenset(edges))
        vmap = compose_vertex_maps(vmap, step)


# ---------------------------------------------------------------------------
# Isomorphism and homeomorphism
# ---------------------------------------------------------------------------


def _vertex_profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    degs = [len(nbrs) for nbrs in g.adj]
    return [
        (degs[v], tuple(sorted(degs[u] for u in g.adj[v]))) for v in range(g.n)
    ]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Vertex bijection preserving adjacency, by pruned backtracking.

    Prunes on degree sequences and neighbor-degree multisets; intended
    for the small graphs (n <= 10) used throughout this package.
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
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled simple graphs on n vertices, edge mask ascending."""
    if n > MAX_ENUMERATION_N:
        raise CapacityError(
            f"labeled enumeration supports n <= {MAX_ENUMERATION_N}, got {n}"
        )
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    for mask in range(1 << m):
        yield Graph.from_edge_set(
            n, frozenset(pairs[i] for i in range(m) if mask >> i & 1)
        )
