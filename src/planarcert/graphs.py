"""Immutable simple graphs and their structural operations.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored as
(u, v) with u < v.  Graphs are value types: operations return new graphs,
and operations that remove or merge vertices also return a VertexMap
recording where every old id went (None = removed).  Vertex ids are
compacted after removals, preserving the relative order of survivors, so
all renamings are deterministic.

A graph is held as sorted neighbor lists.  There are two ways to make
one: `Graph(n, edges)` checks an edge list from outside (loops, ids out
of range, repeats), and `Graph.from_adjacency` trusts lists that are
already sorted and simple.  The operations here, the edge-mask decoder
and the enumerator build their lists sorted and hand them straight to
from_adjacency, testing edges with has_edge, so none of them builds an
edge set.  `biconnected_components` serves both the Kuratowski
extraction and the theta test.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError

Edge = tuple[int, int]

# old id -> new id, or None if the vertex was removed
VertexMap = tuple[int | None, ...]

MAX_ENUMERATION_N = 7


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    `Graph(n, edges)` is the checked constructor: it rejects loops and
    out-of-range ids, merges repeated edges and sorts the neighbor lists.
    `Graph.from_adjacency(adj, m)` takes sorted lists as they are.

    `adj` lists each vertex's neighbors in ascending order.  The edge set,
    the per-vertex neighbor bitmasks (n bits each), the components and
    the hash are built on first use: the certificate audit reads only
    `adj` and the components, only the small-graph searches read the
    masks, and building the masks for a large graph costs O(n * m / 64).
    """

    __slots__ = (
        "n", "num_edges", "adj", "_edges", "_adj_mask", "_components", "_hash",
    )

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_set: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            edge_set.add((u, v) if u < v else (v, u))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self._adopt(tuple(map(tuple, adj)), len(edge_set))

    @classmethod
    def from_adjacency(cls, adj: tuple[tuple[int, ...], ...], m: int) -> Graph:
        """The graph whose vertex v has the neighbors adj[v], m edges in
        all.  The lists must already be ascending, symmetric, in range and
        free of loops and repeats; they are not checked again."""
        g = cls.__new__(cls)
        g._adopt(adj, m)
        return g

    def _adopt(self, adj: tuple[tuple[int, ...], ...], m: int) -> None:
        self.n = len(adj)
        self.num_edges = m
        self.adj = adj
        self._edges: frozenset[Edge] | None = None
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
        """len(components()), counted without building the components
        unless they are already cached."""
        if self._components is not None:
            return len(self._components)
        adj = self.adj
        seen = bytearray(self.n)
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            seen[start] = 1
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
        return count

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
    """Inverse of Graph.edge_mask: bit i = i-th pair of vertices in lex order.

    The mask is read one row of pairs (u, u+1..n-1) at a time, so every
    vertex receives its smaller neighbors before its larger ones, each
    group ascending: the neighbor lists come out sorted."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if mask < 0 or mask >> (n * (n - 1) // 2):
        raise ValueError(f"mask {mask} out of range for n={n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    rest = mask
    for u in range(n - 1):
        if not rest:
            break
        width = n - 1 - u
        row = rest & ((1 << width) - 1)
        rest >>= width
        while row:
            low = row & -row
            row ^= low
            v = u + low.bit_length()
            adj[u].append(v)
            adj[v].append(u)
    return Graph.from_adjacency(tuple(map(tuple, adj)), mask.bit_count())


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


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


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return Graph(10, edges)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


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


def _renamed(adj: tuple[tuple[int, ...], ...], vmap: VertexMap) -> list[list[int]]:
    """The neighbor lists of the vertices vmap keeps, renamed by it, with
    the removed neighbors dropped.  A compaction map keeps the order of the
    survivors, so the lists stay ascending."""
    return [
        [w for w in map(vmap.__getitem__, nbrs) if w is not None]
        for kept, nbrs in zip(vmap, adj)
        if kept is not None
    ]


def delete_edge(g: Graph, e: Edge) -> Graph:
    """Remove one edge; vertices are kept even if they become isolated."""
    e = normalize_edge(*e)
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"{e} is not an edge")
    adj = list(g.adj)
    adj[u] = tuple(w for w in adj[u] if w != v)
    adj[v] = tuple(w for w in adj[v] if w != u)
    return Graph.from_adjacency(tuple(adj), g.num_edges - 1)


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
    adj = _renamed(g.adj, vmap)
    return Graph.from_adjacency(tuple(map(tuple, adj)), sum(map(len, adj)) // 2), vmap


def contract_edge(g: Graph, e: Edge) -> tuple[Graph, int, VertexMap]:
    """Merge the ends of an edge into one vertex.

    The smaller endpoint `keep` is the merged vertex and keeps its id; the
    larger one, `drop`, goes, and every id above it moves down by one, so
    the vertex map is (0..drop-1, keep, drop..n-2).  The resulting loop is
    dropped and parallel edges are merged, so the result is again simple.
    Returns (graph, merged vertex id, vertex map).
    """
    e = normalize_edge(*e)
    keep, drop = e
    if not g.has_edge(keep, drop):
        raise ValueError(f"{e} is not an edge")
    # one rename for every list: drop leaves, the ids above it move down,
    # and both keep the order of the list
    adj = [[w - (w > drop) for w in nbrs if w != drop] for nbrs in g.adj]
    merged = adj[keep]
    m = g.num_edges - 1
    for w in adj.pop(drop):
        if w == keep:
            continue
        nbrs = adj[w]
        i = bisect.bisect_left(nbrs, keep)
        if i < len(nbrs) and nbrs[i] == keep:
            m -= 1  # w was adjacent to both ends: its two edges merge
        else:
            nbrs.insert(i, keep)
            bisect.insort(merged, w)
    vmap = (*range(drop), keep, *range(drop, g.n - 1))
    return Graph.from_adjacency(tuple(map(tuple, adj)), m), keep, vmap


def subdivide_edge(g: Graph, e: Edge) -> Graph:
    """Replace edge uv with the path u - w - v through a fresh vertex w = n."""
    e = normalize_edge(*e)
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"{e} is not an edge")
    w = g.n  # above every old id, so it goes last in each list
    adj = list(g.adj)
    adj[u] = tuple(x for x in adj[u] if x != v) + (w,)
    adj[v] = tuple(x for x in adj[v] if x != u) + (w,)
    adj.append(e)
    return Graph.from_adjacency(tuple(adj), g.num_edges + 1)


def biconnected_components(nbr: Sequence[dict[int, int] | None]) -> list[list[int]]:
    """The edge ids of each biconnected component of the graph whose vertex
    v has nbr[v] = {neighbor: edge id}, or None when v is not in the graph,
    found by Hopcroft and Tarjan's lowpoint search on explicit stacks in
    O(V + E)."""
    depth = [-1] * len(nbr)
    low = [0] * len(nbr)
    comps: list[list[int]] = []
    for root in range(len(nbr)):
        around = nbr[root]
        if around is None or depth[root] >= 0:
            continue
        depth[root] = 0
        edges: list[int] = []  # tree and back edges not yet in a component
        # per vertex on the DFS path: the tree edge into it, that edge's
        # place in `edges`, and the neighbors it has still to examine
        stack = [(root, -1, 0, iter(around.items()))]
        while stack:
            v, into, at, todo = stack[-1]
            dv = depth[v]
            for w, e in todo:
                dw = depth[w]
                if dw < 0:
                    depth[w] = low[w] = dv + 1
                    stack.append((w, e, len(edges), iter(nbr[w].items())))
                    edges.append(e)
                    break
                if dw < dv and e != into:  # back edge
                    edges.append(e)
                    if dw < low[v]:
                        low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] >= depth[u]:  # u cuts v's subtree off
                    comp = edges[at:]
                    comp.reverse()
                    comps.append(comp)
                    del edges[at:]
                elif low[v] < low[u]:
                    low[u] = low[v]
    return comps


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled simple graphs on n vertices, edge mask ascending."""
    if n > MAX_ENUMERATION_N:
        raise CapacityError(
            f"labeled enumeration supports n <= {MAX_ENUMERATION_N}, got {n}"
        )
    for mask in range(1 << (n * (n - 1) // 2)):
        yield from_edge_mask(n, mask)
