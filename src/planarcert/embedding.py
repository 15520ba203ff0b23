"""Combinatorial embeddings: rotation systems, face tracing, genus, and two
ways to find a genus-0 (planar) rotation system: the left-right planarity
test and a backtracking search.  A graph the left-right test rejects gets
a Kuratowski subdivision extracted with the same test as its oracle.

A dart is an ordered pair (u, v): the end of edge {u, v} attached to u.
A rotation system fixes a cyclic order of the darts leaving each vertex,
recorded by the neighbor at the far end.  Faces are traced with the
successor rule: after entering v along (u, v), leave along (v, w) where w
follows u in the cyclic order at v.  The opposite convention would only
mirror every face; this one is fixed package-wide and is exercised by the
reflection-invariance tests.

The genus of a rotation system is (2c - V + E - F) / 2 with c the number
of connected components, so disconnected inputs are legal; an embedding
is planar exactly when the genus is 0.  Components without edges trace no
dart walks but still bound one face each, recorded as an empty walk, which
keeps the Euler count exact.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalInconsistencyError, SearchBudgetExceeded
from .graphs import Graph, normalize_edge
from .subdivision import Pattern, SubdivisionCertificate, validate_subdivision

Dart = tuple[int, int]


class RotationSystem:
    """Per-vertex cyclic order of outgoing darts, stored by neighbor.

    Each cycle is canonicalized to start at the smallest neighbor, so two
    rotations of the same cyclic order compare equal.
    """

    __slots__ = ("order",)

    def __init__(self, order: Iterable[Iterable[int]]) -> None:
        canon = []
        for cyc in order:
            cyc = tuple(cyc)
            if len(set(cyc)) != len(cyc):
                raise ValueError("repeated neighbor in a rotation")
            if cyc:
                k = cyc.index(min(cyc))
                if k:
                    cyc = cyc[k:] + cyc[:k]
            canon.append(cyc)
        self.order = tuple(canon)

    @property
    def n(self) -> int:
        return len(self.order)

    def reversed(self) -> "RotationSystem":
        """The mirror embedding: every cyclic order reversed."""
        return RotationSystem(tuple(reversed(cyc)) for cyc in self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RotationSystem):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"RotationSystem({list(self.order)})"


@dataclass(frozen=True)
class FaceSet:
    """Faces traced from a rotation system, plus Euler data.  Each face is
    recorded as its closed vertex walk: the tails of its darts in order,
    the form verdict documents store."""

    walks: tuple[tuple[int, ...], ...]
    vertex_count: int
    edge_count: int
    face_count: int
    components: int
    genus: int

    @property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Each face as its closed dart walk."""
        return tuple(map(_walk_darts, self.walks))


def _walk_darts(walk: tuple[int, ...]) -> tuple[Dart, ...]:
    return tuple(zip(walk, walk[1:] + walk[:1]))


def trace_faces(g: Graph, rho: RotationSystem) -> FaceSet:
    """Trace all faces of the embedding (g, rho).

    Faces are reported in ascending order of their smallest dart, each
    walk starting at that dart; edge-free components contribute one empty
    walk apiece.

    Darts are numbered 0..2m-1 in ascending order: dart (u, g.adj[u][k])
    is number first[u] + k, and head[d] is its far end.  One pass over the
    rotation, which also checks it against g, records for each dart the
    number of the dart that follows it around its tail; a bisection in the
    sorted g.adj[v] numbers each dart of v's cycle.  Walking u ascending
    over the sorted g.adj[u] then meets the darts in number order and, at
    each head w, the tails u in ascending order, so a running count at w
    numbers the reverse dart (w, u).
    """
    adj, order, n = g.adj, rho.order, g.n
    if len(order) != n:
        raise ValueError("rotation system does not match the graph")
    first = list(itertools.accumulate(map(len, adj), initial=0))
    total = first[-1]
    head = list(itertools.chain.from_iterable(adj))
    # after[total] is scratch: each cycle's first link lands there, and
    # its last dart then closes the cycle
    after = list(range(1, total + 2))
    bisect_left = bisect.bisect_left
    for v, cyc in enumerate(order):
        nbrs = adj[v]
        if cyc != nbrs:
            # RotationSystem rejects repeated neighbors, so a cycle of
            # g.adj[v]'s length drawn from g.adj[v] is a permutation of it
            lo, hi = first[v], first[v + 1]
            if len(cyc) != hi - lo:
                raise ValueError("rotation system does not match the graph")
            prev = total
            for w in cyc:
                d = lo + bisect_left(nbrs, w)
                if d == hi or head[d] != w:
                    raise ValueError("rotation system does not match the graph")
                after[prev] = d
                prev = d
            after[prev] = after[total]
        elif nbrs:
            after[first[v + 1] - 1] = first[v]
    # the face successor of (u, w) is the dart after (w, u) around w
    count = first[:-1]
    succ = []
    for w in head:
        r = count[w]
        count[w] = r + 1
        succ.append(after[r])
    seen = bytearray(total)
    walks: list[tuple[int, ...]] = []
    for u in range(n):
        for start in range(first[u], first[u + 1]):
            if seen[start]:
                continue
            walk = []
            d, v = start, u
            while True:
                walk.append(v)
                seen[d] = 1
                v = head[d]
                d = succ[d]
                if d == start:
                    break
            walks.append(tuple(walk))
    # an isolated vertex still bounds one face
    walks.extend(() for nbrs in adj if not nbrs)
    c = g.component_count()
    v_count, e_count, f_count = g.n, g.num_edges, len(walks)
    doubled = 2 * c - v_count + e_count - f_count
    if doubled < 0 or doubled % 2:
        raise InternalInconsistencyError(
            f"Euler count 2c - V + E - F = {doubled} is not a non-negative "
            "even number"
        )
    return FaceSet(tuple(walks), v_count, e_count, f_count, c, doubled // 2)


def genus(g: Graph, rho: RotationSystem) -> int:
    return trace_faces(g, rho).genus


def face_boundary(g: Graph, faces: FaceSet, f: int) -> Graph:
    """Subgraph of vertices and edges on face f's walk, ids compacted in
    ascending order of the original labels."""
    if not 0 <= f < faces.face_count:
        raise ValueError(f"face index {f} out of range")
    walk = faces.walks[f]
    verts = sorted(set(walk))
    relabel = {v: i for i, v in enumerate(verts)}
    edges = {normalize_edge(relabel[u], relabel[v]) for u, v in _walk_darts(walk)}
    return Graph(len(verts), edges)


def face_covering_all_edges(g: Graph, faces: FaceSet) -> int | None:
    """Index of a face whose walk visits every edge of g, if any."""
    all_edges = g.edges
    for i, walk in enumerate(faces.walks):
        if len(walk) >= len(all_edges) and all_edges == {
            normalize_edge(u, v) for u, v in _walk_darts(walk)
        }:
            return i
    return None


def rotations_equivalent(rho1: RotationSystem, rho2: RotationSystem) -> bool:
    """Equal up to global reflection (the sphere's mirror symmetry)."""
    if rho1.n != rho2.n or any(
        tuple(sorted(a)) != tuple(sorted(b))
        for a, b in zip(rho1.order, rho2.order)
    ):
        raise ValueError("rotation systems belong to different graphs")
    return rho1 == rho2 or rho1 == rho2.reversed()


def enumerate_rotation_systems(g: Graph) -> Iterator[RotationSystem]:
    """All rotation systems of g: the product over vertices of the
    (deg - 1)! cyclic orders of their darts."""
    per_vertex: list[list[tuple[int, ...]]] = []
    for nbrs in g.adj:
        if len(nbrs) <= 2:
            per_vertex.append([nbrs])
        else:
            anchor, rest = nbrs[0], nbrs[1:]
            per_vertex.append(
                [(anchor,) + p for p in itertools.permutations(rest)]
            )
    for combo in itertools.product(*per_vertex):
        yield RotationSystem(combo)


# ---------------------------------------------------------------------------
# Genus-0 search
# ---------------------------------------------------------------------------


class StepBudget:
    """A count of search steps that several searches can draw on together;
    a limit of None never runs out."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int | None) -> None:
        self.remaining = limit

    def tick(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise SearchBudgetExceeded("search budget exhausted")


def _step_budget(node_budget: int | StepBudget | None) -> StepBudget:
    if isinstance(node_budget, StepBudget):
        return node_budget
    return StepBudget(node_budget)


def find_planar_rotation(
    g: Graph, node_budget: int | None = None
) -> RotationSystem | None:
    """A genus-0 rotation system if one exists, else None.

    Backtracks over per-vertex cyclic orders with incremental face
    tracing: a closed walk in a partial assignment is a face of every
    completion, and each still-open face must pass through a vertex whose
    rotation is unassigned, which bounds the achievable face count and
    prunes branches that can no longer reach the planar count E - V + 2.
    Components are embedded independently.  Each component's densest
    vertex is assigned first and only one representative of each
    mirror-image pair of its cyclic orders is tried; remaining vertices
    are taken densest-first among neighbors of the assigned region.

    `node_budget` bounds the number of cyclic orders tried across the
    whole call; exceeding it raises SearchBudgetExceeded, which is
    distinct from a planarity verdict.  A component with more than
    3V - 6 edges is rejected before any order is tried.
    """
    budget = StepBudget(node_budget)
    orders: list[tuple[int, ...]] = [()] * g.n
    for comp in g.components():
        found = next(_planar_rotations(g, comp, budget), None)
        if found is None:
            return None
        for v, cyc in found.items():
            orders[v] = cyc
    return RotationSystem(orders)


def find_covering_planar_rotation(
    g: Graph,
    node_budget: int | None = None,
) -> RotationSystem | None:
    """A genus-0 rotation system with one face covering every edge, if any.

    The first completion of find_planar_rotation's search whose traced
    faces include one covering every edge; meaningful for connected
    graphs only (a single face walk cannot leave a component), so
    disconnected inputs with edges in two components always yield None.
    """
    orders: list[tuple[int, ...]] = [()] * g.n
    edged = [comp for comp in g.components() if len(comp) > 1]
    if not edged:
        return RotationSystem(orders)
    if len(edged) > 1:
        return None
    for found in _planar_rotations(g, edged[0], StepBudget(node_budget)):
        for v, cyc in found.items():
            orders[v] = cyc
        rho = RotationSystem(orders)
        if face_covering_all_edges(g, trace_faces(g, rho)) is not None:
            return rho
    return None


def _planar_rotations(
    g: Graph, comp: tuple[int, ...], budget: StepBudget
) -> Iterator[dict[int, tuple[int, ...]]]:
    """Every genus-0 rotation of the component comp, in search order, each
    as a map from vertex to its cyclic order of neighbors.

    The search runs on the component relabelled 0..nv-1 in ascending
    order, so neighbor order, and with it the search order, is g's.  Dart
    (v, adj[v][k]) is number first[v] + k, head[d] is its far end and
    rev[d] its reverse; a cyclic order is a tuple of v's outgoing darts.
    Linking the darts entering v to their face successors joins chains:
    head_of, read at a chain's tail, and tail_of, read at its head, join
    the ends, chain_len counts a chain's darts at its head, and a link
    that meets its own head closes a face.
    """
    nv = len(comp)
    if nv == 1:
        yield {comp[0]: ()}
        return
    if nv == g.n:  # the only component: the relabelling is the identity
        adj = g.adj
    else:
        local = {v: i for i, v in enumerate(comp)}
        adj = tuple([local[w] for w in g.adj[v]] for v in comp)
    first = list(itertools.accumulate(map(len, adj), initial=0))
    total = first[-1]
    ne = total // 2
    if nv >= 3 and ne > 3 * nv - 6:
        return
    f_needed = ne - nv + 2
    # each still-open face needs >= 3 darts once a component has >= 2 edges
    min_face_len = 3 if ne >= 2 else 1

    # assignment order: densest vertex first, then greedily the vertex with
    # the most edges into the assigned prefix (links close faces sooner, so
    # the pruning bound bites earlier), degree as tiebreak
    order = [max(range(nv), key=lambda v: (len(adj[v]), -v))]
    links = [0] * nv  # edges into the assigned prefix; -1 once assigned
    frontier: set[int] = set()
    while True:
        v = order[-1]
        links[v] = -1
        frontier.discard(v)
        for w in adj[v]:
            if links[w] >= 0:
                links[w] += 1
                frontier.add(w)
        if not frontier:
            break
        order.append(max(frontier, key=lambda w: (links[w], len(adj[w]), -w)))
    # darts still unlinked once order[:i + 1] is assigned
    remaining = [
        total - s for s in itertools.accumulate(len(adj[v]) for v in order)
    ]

    head = list(itertools.chain.from_iterable(adj))
    rev = [0] * total
    count = first[:-1]
    for d, w in enumerate(head):
        rev[count[w]] = d
        count[w] += 1

    def cyclic_orders(v: int, mirror_cut: bool) -> Iterator[tuple[int, ...]]:
        lo, hi = first[v], first[v + 1]
        if hi - lo <= 2:
            yield tuple(range(lo, hi))
            return
        for perm in itertools.permutations(range(lo + 1, hi)):
            if mirror_cut and perm[0] > perm[-1]:
                continue  # mirror image already tried
            yield (lo,) + perm

    head_of = list(range(total))
    tail_of = list(range(total))
    chain_len = [1] * total
    closed = closed_darts = 0  # faces closed, darts locked inside them
    chosen: list[tuple[int, ...]] = [()] * nv
    # one entry per assigned level: its vertex's untried cyclic orders and
    # the undo log of the order it has linked
    stack: list[tuple[Iterator[tuple[int, ...]], list[tuple[int, int, int, int]]]]
    stack = [(cyclic_orders(order[0], True), [])]
    while stack:
        untried, log = stack[-1]
        for t, old_head, h, old_tail in reversed(log):
            if t < 0:
                closed -= 1
                closed_darts -= chain_len[old_head]
            else:
                chain_len[h] -= chain_len[old_head]
                head_of[t] = old_head
                tail_of[h] = old_tail
        log.clear()
        cyc = next(untried, None)
        if cyc is None:
            stack.pop()
            continue
        budget.tick()
        deg = len(cyc)
        for i, x in enumerate(cyc):
            # the dart coming in along x's edge leaves along the next one
            d = rev[x]
            e = cyc[(i + 1) % deg]
            h = head_of[d]
            if h == e:
                closed += 1
                closed_darts += chain_len[h]
                log.append((-1, h, -1, -1))
            else:
                t = tail_of[e]
                log.append((t, head_of[t], h, tail_of[h]))
                head_of[t] = h
                tail_of[h] = t
                chain_len[h] += chain_len[e]
        level = len(stack) - 1
        future = (total - closed_darts) // min_face_len
        if remaining[level] < future:
            future = remaining[level]
        if closed + future < f_needed:
            continue
        chosen[level] = cyc
        if level + 1 < nv:
            stack.append((cyclic_orders(order[level + 1], False), []))
            continue
        if closed != f_needed:
            raise InternalInconsistencyError(
                f"complete rotation closed {closed} faces, expected {f_needed}"
            )
        yield {
            comp[v]: tuple([comp[head[d]] for d in darts])
            for v, darts in zip(order, chosen)
        }


# ---------------------------------------------------------------------------
# Left-right planarity test
# ---------------------------------------------------------------------------


def lr_planar_rotation(
    g: Graph, node_budget: int | StepBudget | None = None
) -> RotationSystem | None:
    """A genus-0 rotation system if g is planar, else None, by the
    left-right planarity test.

    De Fraysseix, Ossona de Mendez and Rosenstiehl characterize planarity
    by a DFS (Tremaux) tree: g is planar iff its back edges can be split
    into a left and a right class so that no two back edges of one class
    conflict.  Brandes ("The Left-Right Planarity Test", 2009) gives the
    linear-time form followed here, in four phases: orient g along a DFS
    and compute lowpoints; test, collecting side constraints between
    return edges in a stack of conflict pairs; resolve the relative sides
    to absolute ones; and insert every back edge into its ancestor's
    rotation on its side.  Each phase runs on explicit stacks, so depth
    is bounded by memory, not by the interpreter's recursion limit.

    Costs O(n + m) plus sorting each vertex's out-edges by nesting depth.
    Graphs with n >= 3 and m > 3n - 6 are rejected before any work.
    `node_budget` bounds the oriented edges, and may be a StepBudget
    shared with other calls; exceeding it raises SearchBudgetExceeded.
    The result is not self-certifying: callers confirm genus 0 with
    trace_faces.
    """
    n, adj = g.n, g.adj
    m = g.num_edges
    if n >= 3 and m > 3 * n - 6:
        return None
    budget = _step_budget(node_budget)

    # -- phase 1: DFS orientation; edge ids in orientation order ----------
    height = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    roots = []
    nxt = [0] * n

    def orient(v: int, w: int, low: int) -> int:
        budget.tick()
        e = len(src)
        src.append(v)
        dst.append(w)
        lowpt.append(low)
        lowpt2.append(height[v])
        nesting.append(0)
        out[v].append(e)
        return e

    def close(e: int) -> None:
        """e's subtree is done: fix its nesting depth and fold its
        lowpoints into the parent edge of its source."""
        v = src[e]
        low, low2 = lowpt[e], lowpt2[e]
        nesting[e] = 2 * low + (low2 < height[v])  # +1: e is chordal
        p = parent_edge[v]
        if p < 0:
            return
        if low < lowpt[p]:
            lowpt2[p] = min(lowpt[p], low2)
            lowpt[p] = low
        elif low > lowpt[p]:
            lowpt2[p] = min(lowpt2[p], low)
        else:
            lowpt2[p] = min(lowpt2[p], low2)

    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i == len(adj[v]):
                stack.pop()
                if parent_edge[v] >= 0:
                    close(parent_edge[v])
                continue
            nxt[v] = i + 1
            w = adj[v][i]
            if height[w] < 0:  # tree edge
                parent_edge[w] = orient(v, w, height[v])
                parent[w] = v
                height[w] = height[v] + 1
                stack.append(w)
            elif height[w] < height[v] and w != parent[v]:  # back edge
                close(orient(v, w, height[w]))

    key = nesting.__getitem__
    for edges in out:
        edges.sort(key=key)

    # -- phase 2: testing --------------------------------------------------
    # A conflict pair is [left low, left high, right low, right high]: two
    # intervals of return edges, -1 for an empty end.  ref links each
    # interval's edges and, after testing, relates sides of edges.
    pairs: list[list[int]] = []
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = [-1] * m
    bottom: list[list[int] | None] = [None] * m

    def conflicting(hi: int, b: int) -> bool:
        """Whether the interval with high end hi conflicts with edge b."""
        return hi >= 0 and lowpt[hi] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into p's right interval
        while True:
            q = pairs.pop()
            if q[0] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] >= 0:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align with e's lowest return edge
                ref[q[2]] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # merge the return edges of earlier siblings that conflict with ei
        # into p's left interval
        while pairs:
            q = pairs[-1]
            if not (conflicting(q[1], ei) or conflicting(q[3], ei)):
                break
            pairs.pop()
            if conflicting(q[3], ei):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q[3], ei):
                return False
            if p[2] >= 0:
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[0] >= 0 or p[2] >= 0:
            pairs.append(p)
        return True

    def lowest(q: list[int]) -> int:
        if q[0] < 0:
            return lowpt[q[2]]
        if q[2] < 0:
            return lowpt[q[0]]
        return min(lowpt[q[0]], lowpt[q[2]])

    def trim_back_edges(e: int) -> None:
        """Drop the return edges ending at e's source u, then record the
        edge whose side decides e's."""
        u = src[e]
        hu = height[u]
        while pairs and lowest(pairs[-1]) == hu:
            q = pairs.pop()
            if q[0] >= 0:
                side[q[0]] = -1
        if pairs:
            q = pairs[-1]
            for lo, hi, other in ((0, 1, 2), (2, 3, 0)):
                while q[hi] >= 0 and dst[q[hi]] == u:
                    q[hi] = ref[q[hi]]
                if q[hi] < 0 and q[lo] >= 0:  # interval just emptied
                    ref[q[lo]] = q[other]
                    side[q[lo]] = -1
                    q[lo] = -1
        if lowpt[e] < hu:
            hl, hr = pairs[-1][1], pairs[-1][3]
            if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def integrate(v: int, ei: int, first: bool) -> bool:
        """Fold the return edges of ei, an out-edge of v, into the
        constraints of v's parent edge."""
        if lowpt[ei] >= height[v]:
            return True
        e = parent_edge[v]
        if first:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        return add_constraints(ei, e)

    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i == len(out[v]):
                stack.pop()
                e = parent_edge[v]
                if e >= 0:
                    trim_back_edges(e)
                    u = src[e]
                    if not integrate(u, e, nxt[u] == 1):
                        return None
                continue
            nxt[v] = i + 1
            ei = out[v][i]
            bottom[ei] = pairs[-1] if pairs else None
            w = dst[ei]
            if ei == parent_edge[w]:
                stack.append(w)
                continue
            lowpt_edge[ei] = ei
            pairs.append([-1, -1, ei, ei])
            if not integrate(v, ei, i == 0):
                return None

    # -- phase 3: absolute sides -------------------------------------------
    for e in range(m):
        chain = []
        while ref[e] >= 0:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for c in reversed(chain):
            s = side[c] = side[c] * s
            ref[c] = -1
    for e in range(m):
        nesting[e] *= side[e]
    for edges in out:
        edges.sort(key=key)

    # -- phase 4: embedding ------------------------------------------------
    # circular doubly linked neighbor lists, seeded with the out-edges
    cw: list[dict[int, int]] = [{} for _ in range(n)]
    ccw: list[dict[int, int]] = [{} for _ in range(n)]
    for v in range(n):
        ring = [dst[e] for e in out[v]]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            cw[v][a] = b
            ccw[v][b] = a

    def insert(v: int, x: int, after: int) -> None:
        """Put x right after `after` in v's clockwise order."""
        c, a = cw[v], ccw[v]
        b = c[after]
        c[after], a[x], c[x], a[b] = x, after, b, x

    left_ref = [-1] * n
    right_ref = [-1] * n
    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i == len(out[v]):
                stack.pop()
                continue
            nxt[v] = i + 1
            ei = out[v][i]
            w = dst[ei]
            if ei == parent_edge[w]:  # v goes first in w's order
                if out[w]:
                    insert(w, v, ccw[w][dst[out[w][0]]])
                else:
                    cw[w][v] = ccw[w][v] = v
                left_ref[v] = right_ref[v] = w
                stack.append(w)
            elif side[ei] == 1:  # right after the tree edge into w's subtree
                insert(w, v, right_ref[w])
            else:  # left: before the earlier left back edges
                insert(w, v, ccw[w][left_ref[w]])
                left_ref[w] = v

    orders: list[tuple[int, ...]] = []
    for v in range(n):
        ring = cw[v]
        if not ring:
            orders.append(())
            continue
        start = adj[v][0]
        cyc = [start]
        w = ring[start]
        while w != start:
            cyc.append(w)
            w = ring[w]
        orders.append(tuple(cyc))
    return RotationSystem(orders)


# ---------------------------------------------------------------------------
# Kuratowski extraction
# ---------------------------------------------------------------------------


def _biconnected_components(nbr: dict[int, dict[int, int]]) -> list[list[int]]:
    """The edge ids of each biconnected component of the graph whose vertex
    v has nbr[v] = {neighbor: edge id}, found by Hopcroft and Tarjan's
    lowpoint search on explicit stacks in O(V + E)."""
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    comps: list[list[int]] = []
    for root in nbr:
        if root in depth:
            continue
        depth[root] = low[root] = 0
        edges: list[int] = []  # tree and back edges not yet in a component
        stack = [(root, -1, iter(nbr[root].items()))]
        while stack:
            v, into, todo = stack[-1]
            for w, e in todo:
                if w not in depth:
                    depth[w] = low[w] = depth[v] + 1
                    edges.append(e)
                    stack.append((w, e, iter(nbr[w].items())))
                    break
                if depth[w] < depth[v] and e != into:  # back edge
                    edges.append(e)
                    low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] >= depth[u]:  # u cuts v's subtree off
                    comp = []
                    while not comp or comp[-1] != into:
                        comp.append(edges.pop())
                    comps.append(comp)
                low[u] = min(low[u], low[v])
    return comps


def lr_kuratowski(
    g: Graph, node_budget: int | StepBudget | None = None
) -> SubdivisionCertificate:
    """A K5 or K3,3 subdivision in g, found with the left-right test as the
    only oracle.

    Works on a reduced copy H of g whose edges each stand for a path of g:
    degree-1 vertices are pruned, each degree-2 vertex is suppressed into
    one chain edge, and a chain whose ends are already adjacent is dropped,
    since a parallel edge never changes planarity.  A graph is planar iff
    each of its biconnected components is, so H is then cut down to the
    first component the test rejects: a small obstruction joined to a
    large planar part costs one test per component, not a deletion search
    over the whole graph.  Blocks of about a quarter of H's edges, drawn
    from a shuffled queue, are deleted while the test still rejects what
    remains, and H is re-reduced around every deletion.  A block H cannot
    lose is halved, and each half is tested in turn.  A single edge H
    cannot lose stays, and so does any chain suppression builds through
    it: every later H is a subgraph of a subdivision of the one that
    needed it.  Extraction stops
    when H is K5 (5 vertices, 10 edges) or K3,3 (6 vertices, 9 edges:
    minimum degree 3 makes H cubic, and the other cubic graph on 6
    vertices, the prism, is planar).  The certificate expands the chains
    back into paths of g and must pass validate_subdivision.

    Each test runs on H (or one component) relabeled to compact ids, so it
    costs O(|H|), not O(n).  `node_budget` bounds the oriented edges over
    all tests together, and may be a StepBudget shared with other calls;
    exceeding it raises SearchBudgetExceeded.  A graph the test accepts, an
    H of any other final shape, or a certificate that fails validation
    raises InternalInconsistencyError.
    """
    budget = _step_budget(node_budget)
    # H: edge e joins ends[e][0] to ends[e][1]; an edge built by suppressing
    # vertex v has parts[e] = (edge from ends[e][0] to v, v, edge from v to
    # ends[e][1]), an edge of g has parts[e] = None
    nbr: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    ends: list[tuple[int, int]] = list(g.sorted_edges())
    parts: list[tuple[int, int, int] | None] = [None] * len(ends)
    for e, (u, v) in enumerate(ends):
        nbr[u][v] = nbr[v][u] = e
    alive = set(range(len(ends)))
    # a shuffled queue scatters each block over H: edges with nearby labels
    # are often nearby in the graph, and deleting such a band tends to cut
    # every obstruction at once
    order = list(range(len(ends)))
    random.Random(0).shuffle(order)
    queue = deque(order)
    kept: set[int] = set()  # edges H cannot lose

    def remove(e: int) -> tuple[int, int]:
        a, b = ends[e]
        alive.discard(e)
        del nbr[a][b], nbr[b][a]
        return a, b

    def reduce(stack: list[int]) -> None:
        while stack:
            v = stack.pop()
            around = nbr.get(v)
            if around is None or len(around) > 2:
                continue
            items = list(around.items())
            for _, e in items:
                remove(e)
            del nbr[v]
            if len(items) < 2:
                stack.extend(w for w, _ in items)
                continue
            (a, ea), (b, eb) = items
            if b in nbr[a]:  # parallel chain: drop it
                stack += (a, b)
                continue
            e = len(ends)
            ends.append((a, b))
            parts.append((ea, v, eb))
            nbr[a][b] = nbr[b][a] = e
            alive.add(e)
            if ea in kept or eb in kept:
                kept.add(e)
            else:
                queue.append(e)

    def rejects(edges: Iterable[int]) -> bool:
        """Whether the test rejects the graph of these H edges, relabeled
        to compact ids."""
        ids: dict[int, int] = {}
        pairs = [
            (ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
            for a, b in map(ends.__getitem__, edges)
        ]
        return lr_planar_rotation(Graph(len(ids), pairs), budget) is None

    def rejected_without(block: list[int]) -> bool:
        drop = set(block)
        return rejects(e for e in alive if e not in drop)

    def settled() -> bool:
        return (len(nbr), len(alive)) in ((5, 10), (6, 9))

    reduce(list(range(g.n)))
    if not settled():
        # a graph is planar iff each of its biconnected components is, and
        # one with fewer than the 9 edges of K3,3 is: keep the first
        # component the test rejects
        for comp in _biconnected_components(nbr):
            if len(comp) >= 9 and rejects(comp):
                break
        else:
            raise InternalInconsistencyError(
                "left-right test accepts the graph: no obstruction to extract"
            )
        if len(comp) < len(alive):
            inside = set(comp)
            touched: list[int] = []
            for e in [e for e in alive if e not in inside]:
                touched += remove(e)
            reduce(touched)
    halves: list[list[int]] = []  # of blocks H could not lose, next on top
    while not settled():
        if halves:
            block = [e for e in halves.pop() if e in alive]
            if not block:
                continue
        else:
            block = []
            size = max(1, len(alive) // 4)
            while queue and len(block) < size:
                e = queue.popleft()
                if e in alive:
                    block.append(e)
            if not block:
                break
        if rejected_without(block):
            stack: list[int] = []
            for e in block:
                stack += remove(e)
            reduce(stack)
        elif len(block) == 1:
            kept.add(block[0])
        else:
            half = (len(block) + 1) // 2
            halves += (block[half:], block[:half])
    if not settled():
        raise InternalInconsistencyError(
            f"extraction ended with {len(nbr)} vertices and {len(alive)} "
            "edges, neither K5 nor K3,3"
        )

    def expand(e: int, start: int) -> tuple[int, ...]:
        """The path of g that H edge e stands for, from its end `start`."""
        path = [start]
        todo = [(e, start)]
        while todo:
            e, u = todo.pop()
            a, b = ends[e]
            split = parts[e]
            if split is None:
                path.append(b if u == a else a)
            elif u == a:
                todo += ((split[2], split[1]), (split[0], a))
            else:
                todo += ((split[0], split[1]), (split[2], b))
        return tuple(path)

    verts = sorted(nbr)
    if len(verts) == 5:
        pattern, branch = Pattern.K5, tuple(verts)
    else:  # one side of K3,3 is the neighborhood of any branch vertex
        side = sorted(nbr[verts[0]])
        pattern = Pattern.K33
        branch = tuple([v for v in verts if v not in side] + side)
    paths = []
    for i, j in pattern.edge_list:
        e = nbr[branch[i]].get(branch[j])
        if e is None:
            raise InternalInconsistencyError(
                "extraction ended with a cubic graph on 6 vertices that is not K3,3"
            )
        paths.append(expand(e, branch[i]))
    cert = SubdivisionCertificate(pattern, branch, tuple(paths))
    if not validate_subdivision(g, cert):
        raise InternalInconsistencyError("extracted certificate does not validate")
    return cert
