"""Combinatorial embeddings: rotations, face tracing, genus, and two ways
to find a genus-0 (planar) rotation: the left-right planarity test and a
backtracking search.  A graph the left-right test rejects gets a
Kuratowski subdivision extracted with the same test as its oracle.

A dart is an ordered pair (u, v): the end of edge {u, v} attached to u.
A rotation fixes a cyclic order of the darts leaving each vertex,
recorded by the neighbor at the far end: it is a tuple of neighbor
cycles, one per vertex, each starting at its vertex's smallest neighbor,
so equal cyclic orders are equal tuples.  Faces are traced with the
successor rule: after entering v along (u, v), leave along (v, w) where w
follows u in the cyclic order at v.  The opposite convention would only
mirror every face; this one is fixed package-wide and is exercised by the
reflection-invariance tests.

The genus of a rotation is (2c - V + E - F) / 2 with c the number of
connected components, so disconnected inputs are legal; an embedding is
planar exactly when the genus is 0.  Components without edges trace no
dart walks but still bound one face each, recorded as an empty walk,
which keeps the Euler count exact.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InternalInconsistencyError, StepBudget
from .graphs import Edge, Graph, biconnected_components, normalize_edge
from .subdivision import (
    SubdivisionCertificate,
    pruned_chains,
    read_off,
    validate_subdivision,
)

# rotation[v] is v's cyclic order of neighbors from its smallest one
Rotation = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FaceSet:
    """Faces traced from a rotation, plus Euler data.  Each face is
    recorded as its closed vertex walk: the tails of its darts in order,
    the form verdict documents store."""

    walks: tuple[tuple[int, ...], ...]
    components: int
    genus: int


def face_walks(g: Graph, cycles: Sequence[Sequence[int]]) -> list[list[int]]:
    """The faces of g under the rotation `cycles`, each as its closed
    vertex walk in a list, the form verdict documents store.

    Faces are reported in ascending order of their smallest dart, each
    walk starting at that dart; edge-free components contribute one empty
    walk apiece.

    cycles[v] lists v's neighbors in cyclic order, from any start, as a
    list or a tuple.  Raises ValueError unless every vertex has one cycle
    of its degree's length that meets each of its darts once: a missing or
    extra cycle, a cycle of the wrong length, a stranger or a neighbor met
    twice.

    Darts are numbered 0..2m-1 in ascending order: dart (u, g.adj[u][k])
    is number first[u] + k, and head[d] is its far end.  One pass over the
    cycles, which also checks them against g, records for each dart the
    number of the dart that follows it around its tail; a bisection in the
    sorted g.adj[v] numbers each dart of v's cycle.  Walking u ascending
    over the sorted g.adj[u] then meets the darts in number order and, at
    each head w, the tails u in ascending order, so a running count at w
    numbers the reverse dart (w, u).
    """
    adj, n = g.adj, g.n
    if len(cycles) != n:
        raise ValueError("rotation system does not match the graph")
    first = list(itertools.accumulate(map(len, adj), initial=0))
    total = first[-1]
    head = list(itertools.chain.from_iterable(adj))
    # after[total] is scratch: each cycle's first link lands there, and
    # its last dart then closes the cycle
    after = list(range(1, total + 2))
    met = bytearray(total)
    bisect_left = bisect.bisect_left
    for v, cyc in enumerate(cycles):
        nbrs = adj[v]
        if tuple(cyc) == nbrs:
            # a cycle (list or tuple) equal to g.adj[v] is ascending:
            # after's default links it but for its last dart
            if nbrs:
                after[first[v + 1] - 1] = first[v]
            continue
        lo, hi = first[v], first[v + 1]
        if len(cyc) != hi - lo:
            raise ValueError("rotation system does not match the graph")
        prev = total
        for w in cyc:
            d = lo + bisect_left(nbrs, w)
            if d == hi or head[d] != w or met[d]:
                raise ValueError("rotation system does not match the graph")
            met[d] = 1
            after[prev] = d
            prev = d
        after[prev] = after[total]
    # every dart was met once in its own vertex's cycle, so after and the
    # face successor succ are permutations: each walk below returns to its
    # start.  The face successor of (u, w) is the dart after (w, u) around w
    count = first[:-1]
    succ = []
    for w in head:
        r = count[w]
        count[w] = r + 1
        succ.append(after[r])
    seen = bytearray(total)
    walks: list[list[int]] = []
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
            walks.append(walk)
    # an isolated vertex still bounds one face
    walks.extend([] for nbrs in adj if not nbrs)
    return walks


def euler_genus(g: Graph, face_count: int) -> tuple[int, int]:
    """g's component count and the genus (2c - V + E - F) / 2 of an
    embedding of g with face_count faces."""
    c = g.component_count()
    doubled = 2 * c - g.n + g.num_edges - face_count
    if doubled < 0 or doubled % 2:
        raise InternalInconsistencyError(
            f"Euler count 2c - V + E - F = {doubled} is not a non-negative "
            "even number"
        )
    return c, doubled // 2


def trace_faces(g: Graph, rho: Rotation) -> FaceSet:
    """Trace all faces of the embedding (g, rho); see face_walks."""
    walks = face_walks(g, rho)
    return FaceSet(tuple(map(tuple, walks)), *euler_genus(g, len(walks)))


def genus(g: Graph, rho: Rotation) -> int:
    return trace_faces(g, rho).genus


def face_covering_all_edges(g: Graph, faces: FaceSet) -> int | None:
    """Index of a face whose walk visits every edge of g, if any."""
    all_edges = g.edges
    for i, walk in enumerate(faces.walks):
        if len(walk) >= len(all_edges) and all_edges == {
            normalize_edge(u, v) for u, v in zip(walk, walk[1:] + walk[:1])
        }:
            return i
    return None


# ---------------------------------------------------------------------------
# Genus-0 search
# ---------------------------------------------------------------------------


def _step_budget(node_budget: int | StepBudget | None) -> StepBudget:
    if isinstance(node_budget, StepBudget):
        return node_budget
    return StepBudget(node_budget)


def find_planar_rotation(
    g: Graph, node_budget: int | None = None
) -> Rotation | None:
    """A genus-0 rotation if one exists, else None.

    Backtracks over per-vertex cyclic orders with incremental face
    tracing: a closed walk in a partial assignment is a face of every
    completion, and the other darts lie on open chains, face segments
    already linked that later links can only join whole.  A face still to
    close is a union of open chains with at least 3 darts, so counting a
    chain of L darts as min(L, 3) bounds the faces still to close by the
    chains' total weight over 3; a branch that can no longer reach the
    planar count E - V + 2 is cut.  The cut removes only branches without
    a genus-0 completion, so the search order, and the rotation returned,
    are those of the plain search.  Components are embedded
    independently.  Each component's densest vertex is assigned first and
    only one representative of each mirror-image pair of its cyclic
    orders is tried; remaining vertices are taken densest-first among
    neighbors of the assigned region.

    Once the first vertex's first order has failed, a later order there is
    tried only if it is the least image of itself under the mirror and
    the swaps of that vertex's twin neighbors (a, b with N(a) - b =
    N(b) - a).  Such a swap is an automorphism fixing the vertex, so a
    skipped order's branch is the image of one already exhausted without
    a genus-0 completion, and the rotation returned is still the plain
    search's; skipped orders cost no step.

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
    return tuple(orders)


def find_covering_planar_rotation(g: Graph) -> Rotation | None:
    """A genus-0 rotation with one face covering every edge, if any.

    The first completion of find_planar_rotation's search whose traced
    faces include one covering every edge; meaningful for connected
    graphs only (a single face walk cannot leave a component), so
    disconnected inputs with edges in two components always yield None.
    The twin cut at the first vertex keeps that completion: automorphisms
    and the mirror map a covering face to a covering face, so a skipped
    branch holds one only if an exhausted branch did.  The search has no
    step bound.

    A covering face has at least E darts and each of the other E - V + 1
    faces at least 3, so 2E >= E + 3(E - V + 1): an edged component with
    2E > 3(V - 1) is refused before any order is tried.
    """
    orders: list[tuple[int, ...]] = [()] * g.n
    edged = [comp for comp in g.components() if len(comp) > 1]
    if not edged:
        return tuple(orders)
    if len(edged) > 1 or 2 * g.num_edges > 3 * (len(edged[0]) - 1):
        return None
    for found in _planar_rotations(g, edged[0], StepBudget(None)):
        for v, cyc in found.items():
            orders[v] = cyc
        rho = tuple(orders)
        if face_covering_all_edges(g, trace_faces(g, rho)) is not None:
            return rho
    return None


def _planar_rotations(
    g: Graph, comp: tuple[int, ...], budget: StepBudget
) -> Iterator[dict[int, tuple[int, ...]]]:
    """The genus-0 rotations of the component comp, in search order, each
    as a map from vertex to its cyclic order of neighbors, one or more per
    orbit under the mirror and the twin swaps at the first vertex: those
    whose order at the first vertex is the least image of itself (see
    _has_earlier_image).  Every genus-0 rotation is the image of one of
    them.  Each cyclic order starts at the vertex's smallest neighbor.

    The search runs on the component relabelled 0..nv-1 in ascending
    order, so neighbor order, and with it the search order, is g's.  The
    dart (v, adj[v][k]) is number first[v] + k, head[d] is its far end and
    rev[d] its reverse; a cyclic order is a tuple of v's outgoing darts.
    Linking the darts entering v to their face successors joins chains:
    head_of, read at a chain's tail, and tail_of, read at its head, join
    the ends, chain_len counts a chain's darts at its head, and a link
    that meets its own head closes a face.

    Every face not yet closed is a union of whole open chains with at
    least min_face_len darts.  With each chain weighing min(L,
    min_face_len) for its L darts, at most weight // min_face_len faces
    are still to close, and at most one per dart still unlinked.  weight
    changes in O(1) at each link and each close, and each level restores
    it, with closed, from its stack entry, so the undo log records links
    only.  A level whose closed faces plus that bound fall short of
    E - V + 2 is cut; no genus-0 completion lies below it.
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
    # each face needs >= 3 darts once a component has >= 2 edges
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

    def first_orders(v: int) -> Iterator[tuple[int, ...]]:
        # v's orders up to the mirror, then only those that are the least
        # image of themselves under the mirror and the twin swaps at v
        orders = cyclic_orders(v, True)
        yield next(orders)
        # resumed once the first order's subtree is exhausted: only then
        # are v's twin classes read.  Neighbors a, b of v are twins when
        # N(a) - b = N(b) - a, so swapping them is an automorphism fixing v
        lo, hi = first[v], first[v + 1]
        # the far end's neighbors, as a bitmask, for each dart of v
        mask = {d: sum(1 << w for w in adj[head[d]]) for d in range(lo, hi)}
        members: list[list[int]] = []  # each twin class's darts, ascending
        class_of = {}
        for d in range(lo, hi):
            for c, darts in enumerate(members):
                e = darts[0]
                pair = 1 << head[d] | 1 << head[e]
                if not (mask[d] ^ mask[e]) & ~pair:
                    darts.append(d)
                    break
            else:
                c = len(members)
                members.append([d])
            class_of[d] = c
        for cyc in orders:
            if not _has_earlier_image(cyc, members, class_of):
                yield cyc

    head_of = list(range(total))
    tail_of = list(range(total))
    chain_len = [1] * total
    # an open chain weighs min(its darts, min_face_len); weight sums them
    cap = list(range(min_face_len)) + [min_face_len] * (total + 1 - min_face_len)
    closed, weight = 0, total  # faces closed; weight of the open chains
    chosen: list[tuple[int, ...]] = [()] * nv
    # one entry per assigned level: its vertex's untried cyclic orders, the
    # undo log of the links the order has made, and closed and weight as
    # the level found them
    stack: list[
        tuple[Iterator[tuple[int, ...]], list[tuple[int, int, int, int]], int, int]
    ]
    stack = [(first_orders(order[0]), [], closed, weight)]
    while stack:
        untried, log, closed, weight = stack[-1]
        for t, old_head, h, old_tail in reversed(log):
            chain_len[h] -= chain_len[old_head]
            head_of[t] = old_head
            tail_of[h] = old_tail
        log.clear()
        cyc = next(untried, None)
        if cyc is None:
            stack.pop()
            continue
        budget.tick()
        # the dart coming in along each edge of cyc leaves along the next
        # one, cyclically: d comes in along the edge before e
        d = rev[cyc[-1]]
        for e in cyc:
            h = head_of[d]
            a = chain_len[h]
            if h == e:
                closed += 1
                weight -= cap[a]
            else:
                t = tail_of[e]
                log.append((t, head_of[t], h, tail_of[h]))
                head_of[t] = h
                tail_of[h] = t
                b = chain_len[e]
                chain_len[h] = a + b
                weight += cap[a + b] - cap[a] - cap[b]
            d = rev[e]
        level = len(stack) - 1
        future = weight // min_face_len
        if remaining[level] < future:
            future = remaining[level]
        if closed + future < f_needed:
            continue
        chosen[level] = cyc
        if level + 1 < nv:
            stack.append((cyclic_orders(order[level + 1], False), [], closed, weight))
            continue
        if closed != f_needed:
            raise InternalInconsistencyError(
                f"complete rotation closed {closed} faces, expected {f_needed}"
            )
        yield {
            comp[v]: tuple([comp[head[d]] for d in darts])
            for v, darts in zip(order, chosen)
        }


def _has_earlier_image(
    cyc: tuple[int, ...], members: list[list[int]], class_of: dict[int, int]
) -> bool:
    """Whether the cyclic order cyc, which starts at its least dart, has
    an image under the mirror and the twin swaps that starts there too and
    comes earlier in lexicographic order.

    members lists each twin class's darts in ascending order and class_of
    maps a dart to its class.  An image starting at cyc[0] comes from a
    rotation of cyc or of its mirror that starts at a twin of cyc[0], and
    the least relabelling of that rotation hands each class its darts in
    ascending order of appearance: O(deg^2) in all.  The least image of
    all also passes the mirror cut (its second dart precedes its last), so
    cyc has an earlier image exactly when its least image was tried before
    it.
    """
    start = class_of[cyc[0]]
    for seq in (cyc, cyc[::-1]):
        for i, d in enumerate(seq):
            if class_of[d] != start:
                continue
            taken = [0] * len(members)
            image = []
            for e in seq[i:] + seq[:i]:
                c = class_of[e]
                image.append(members[c][taken[c]])
                taken[c] += 1
            if tuple(image) < cyc:
                return True
    return False


# ---------------------------------------------------------------------------
# Left-right planarity test
# ---------------------------------------------------------------------------


def lr_planar_rotation(
    g: Graph, node_budget: int | StepBudget | None = None
) -> Rotation | None:
    """A genus-0 rotation if g is planar, else None, by the left-right
    planarity test.

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

    Per-edge state lives in flat lists indexed by edge id, and the
    rotation is built on darts: dart 2e is edge e at its source, dart
    2e + 1 is e at its destination.

    Costs O(n + m) plus sorting each vertex's out-edges by nesting depth.
    Graphs with n >= 3 and m > 3n - 6 are rejected before any work.
    `node_budget` bounds the oriented edges, and may be a StepBudget
    shared with other calls: all m are charged before the DFS starts, and
    a budget with fewer left raises SearchBudgetExceeded.
    Each cycle starts at its vertex's smallest neighbor, as in every
    Rotation.  The result is not self-certifying: callers confirm genus 0
    by tracing its faces.
    """
    return _left_right(g.adj, g.num_edges, node_budget)[0]


def _left_right(
    adj: Sequence[Sequence[int]],
    m: int,
    node_budget: int | StepBudget | None = None,
) -> tuple[tuple[tuple[int, ...], ...] | None, list[Edge]]:
    """The left-right test of lr_planar_rotation on the graph with m edges
    whose vertex v has the neighbors adj[v], in any order.

    Returns (cycles, []) for a planar graph, cycles[v] being v's cyclic
    order of neighbors from adj[v][0], the neighbor the DFS examined
    first.  Returns (None, failure) for a non-planar one: the DFS tree
    edges, then the back edges of the conflict the test failed on, as
    (u, v) pairs.  Those back edges are the interval ends of the conflict
    pairs on the stack and of the two pairs being merged, and the lowest
    return edges of the two edges whose constraints clashed and of every
    tree edge on the current DFS path.  The failure is recorded only where
    the test fails, so a planar run pays nothing for it, and it is a hint,
    not a certificate: the subgraph it spans is often, not always,
    non-planar.  A graph rejected for having more than 3n - 6 edges gets
    an empty failure.
    """
    n = len(adj)
    if n >= 3 and m > 3 * n - 6:
        return None, []
    budget = _step_budget(node_budget)

    # -- phase 1: DFS orientation; edge ids in orientation order ----------
    # every edge is oriented exactly once, as a tree edge or a back edge
    budget.spend(m)
    height = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    src = [0] * m
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    roots = []
    e = 0  # the next edge id

    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [(r, iter(adj[r]))]
        while stack:
            v, todo = stack[-1]
            hv = height[v]
            p = parent_edge[v]
            u = parent[v]
            for w in todo:
                hw = height[w]
                if hw < 0:  # tree edge; its nesting depth is set below
                    parent_edge[w] = e
                    out[v].append(e)
                    src[e] = v
                    dst[e] = w
                    lowpt[e] = lowpt2[e] = hv
                    e += 1
                    parent[w] = v
                    height[w] = hv + 1
                    stack.append((w, iter(adj[w])))
                    break
                if hw < hv and w != u:  # back edge, to an ancestor of u
                    out[v].append(e)
                    src[e] = v
                    dst[e] = w
                    lowpt[e] = hw
                    lowpt2[e] = hv
                    nesting[e] = 2 * hw
                    e += 1
                    # fold it into the lowpoints of v's parent edge p,
                    # which are both at most height[u] < hv already
                    lp = lowpt[p]
                    if hw < lp:
                        lowpt2[p] = lp
                        lowpt[p] = hw
                    elif lp < hw < lowpt2[p]:
                        lowpt2[p] = hw
            else:
                # v's subtree is done: fix the nesting depth of p and fold
                # its lowpoints into the parent edge q of u
                stack.pop()
                if p < 0:
                    continue
                low, low2 = lowpt[p], lowpt2[p]
                nesting[p] = 2 * low + (low2 < height[u])  # +1: p is chordal
                q = parent_edge[u]
                if q < 0:
                    continue
                lq = lowpt[q]
                if low < lq:
                    lowpt2[q] = lq if lq < low2 else low2
                    lowpt[q] = low
                elif low > lq:
                    if low < lowpt2[q]:
                        lowpt2[q] = low
                elif low2 < lowpt2[q]:
                    lowpt2[q] = low2

    key = nesting.__getitem__
    for edges in out:
        if len(edges) > 1:
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
    failed: list[int] = []  # back edges of the conflict the test fails on

    def fail(p: list[int], q: list[int], ei: int, e: int) -> bool:
        """Record the back edges of the conflict between ei's return edges
        and those in p and q, and report the failure."""
        failed.extend(p + q)
        for pair in pairs:
            failed.extend(pair)
        failed.append(lowpt_edge[ei])
        while e >= 0:
            failed.append(lowpt_edge[e])
            e = parent_edge[src[e]]
        return False

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into p's right interval
        while True:
            q = pairs.pop()
            if q[0] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] >= 0:
                return fail(p, q, ei, e)
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
        # into p's left interval: an interval conflicts with ei when its
        # high end returns above ei's lowpoint
        low = lowpt[ei]
        while pairs:
            q = pairs[-1]
            left_hi, right_hi = q[1], q[3]
            right = right_hi >= 0 and lowpt[right_hi] > low
            if not (right or left_hi >= 0 and lowpt[left_hi] > low):
                break
            pairs.pop()
            if right:
                q[0], q[1], q[2], q[3] = q[2], right_hi, q[0], left_hi
                if left_hi >= 0 and lowpt[left_hi] > low:
                    return fail(p, q, ei, e)
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

    def failure() -> list[Edge]:
        tree = [(u, v) for v, u in enumerate(parent) if u >= 0]
        back = sorted({e for e in failed if e >= 0})
        return tree + [(src[e], dst[e]) for e in back]

    for r in roots:
        stack = [(r, iter(out[r]))]
        while stack:
            v, todo = stack[-1]
            for ei in todo:
                bottom[ei] = pairs[-1] if pairs else None
                w = dst[ei]
                if ei == parent_edge[w]:
                    stack.append((w, iter(out[w])))
                    break
                lowpt_edge[ei] = ei
                pairs.append([-1, -1, ei, ei])
                if not integrate(v, ei, ei == out[v][0]):
                    return None, failure()
            else:
                stack.pop()
                e = parent_edge[v]
                if e >= 0:
                    if pairs:  # else there is nothing to trim
                        trim_back_edges(e)
                    u = src[e]
                    if not integrate(u, e, e == out[u][0]):
                        return None, failure()

    # -- phase 3: absolute sides -------------------------------------------
    for e in range(m):
        if ref[e] < 0:
            continue
        chain = []
        while ref[e] >= 0:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for c in reversed(chain):
            s = side[c] = side[c] * s
            ref[c] = -1
    nesting[:] = map(operator.mul, nesting, side)
    for edges in out:
        if len(edges) > 1:
            edges.sort(key=key)

    # -- phase 4: embedding ------------------------------------------------
    # circular doubly linked rings of darts: dart 2e is edge e at its
    # source, dart 2e + 1 is e at its destination; each ring is seeded
    # with its vertex's out-edges, and left_ref/right_ref hold darts
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    for edges in out:
        if edges:
            last = 2 * edges[-1]
            for e in edges:
                d = 2 * e
                cw[last] = d
                ccw[d] = last
                last = d

    left_ref = [-1] * n
    right_ref = [-1] * n
    for r in roots:
        stack = [iter(out[r])]
        while stack:
            for ei in stack[-1]:
                w = dst[ei]
                x = 2 * ei + 1
                tree = ei == parent_edge[w]
                if tree:  # src[ei] goes first in w's order
                    left_ref[src[ei]] = right_ref[src[ei]] = 2 * ei
                    if not out[w]:
                        cw[x] = ccw[x] = x
                        continue
                    after = ccw[2 * out[w][0]]
                elif side[ei] == 1:  # right after the tree edge into w's subtree
                    after = right_ref[w]
                else:  # left: before the earlier left back edges
                    after = ccw[left_ref[w]]
                    left_ref[w] = x
                # put x right after `after` in w's clockwise order
                b = cw[after]
                cw[after] = x
                ccw[x] = after
                cw[x] = b
                ccw[b] = x
                if tree:
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()

    # the far end of each dart
    head = [0] * (2 * m)
    head[::2] = dst
    head[1::2] = src
    # each ring holds every dart of its vertex once, so no cycle repeats a
    # neighbor.  Each cycle starts at adj[v][0], the neighbor the DFS
    # examined first: v's parent, or else the far end of the first edge
    # oriented away from v, which has the smallest id in out[v]
    orders: list[tuple[int, ...]] = []
    for v, nbrs in enumerate(adj):
        if not nbrs:
            orders.append(())
            continue
        if nbrs[0] == parent[v]:
            start = 2 * parent_edge[v] + 1
        else:
            start = 2 * min(out[v])
        cyc = [head[start]]
        d = cw[start]
        while d != start:
            cyc.append(head[d])
            d = cw[d]
        orders.append(tuple(cyc))
    return tuple(orders), []


# ---------------------------------------------------------------------------
# Kuratowski extraction
# ---------------------------------------------------------------------------


def lr_kuratowski(
    g: Graph, node_budget: int | StepBudget | None = None
) -> SubdivisionCertificate:
    """A K5 or K3,3 subdivision in g, found with the left-right test as the
    only oracle.

    Works on a reduced copy H of g whose edges each stand for a path of g:
    degree-1 vertices are pruned, each degree-2 vertex is suppressed into
    one chain edge, and a chain whose ends are already adjacent is dropped,
    since a parallel edge never changes planarity.  A graph is planar iff
    each of its biconnected components is, so the components of H are
    tested in turn until one is rejected.

    The rejecting test also reports where it failed: its DFS tree and the
    back edges of the conflict it could not resolve (Brandes 2009, sec.
    3-4).  The first deletion block is every H edge outside that failure
    set.  It is deleted, and H re-reduced around it, if the test still
    rejects what is left; the tree then collapses into the chains of a
    few fundamental cycles, so the rest of the search runs on a small H.
    The failure set is a hint, not a proof: if the test accepts what is
    left, H is left as it was, cut down to the rejected component, and the
    extraction goes on exactly as it would without the hint.

    Blocks of about a quarter of H's edges, drawn from a shuffled queue,
    are then deleted while the test still rejects what remains, and H is
    re-reduced around every deletion.  A block H cannot lose is halved,
    and each half is tested in turn.  A single edge H cannot lose stays,
    and so does any chain suppression builds through it: every later H is
    a subgraph of a subdivision of the one that needed it.  Extraction
    stops when H is K5 (5 vertices, 10 edges) or K3,3 (6 vertices, 9
    edges: minimum degree 3 makes H cubic, and the other cubic graph on 6
    vertices, the prism, is planar).  H's edges expand into g's, and the
    read-off the minor route and the lift share (`subdivision.pruned_chains`
    and `read_off`) names the certificate, which must pass
    validate_subdivision.

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
    # ends[e][1]), an edge of g has parts[e] = None.  nbr[v] maps each
    # neighbor of v in H to the edge joining them, in the order the edges
    # were made, and is None once v has left H
    nbr: list[dict[int, int] | None] = [{} for _ in range(g.n)]
    ends: list[tuple[int, int]] = list(g.sorted_edges())
    parts: list[tuple[int, int, int] | None] = [None] * len(ends)
    for e, (u, v) in enumerate(ends):
        nbr[u][v] = nbr[v][u] = e
    order = g.n  # vertices left in H
    alive = set(range(len(ends)))
    queue: deque[int] = deque()  # chain edges; the deletion puts g's in front
    kept: set[int] = set()  # edges H cannot lose

    def reduce(stack: list[int]) -> None:
        nonlocal order
        while stack:
            v = stack.pop()
            around = nbr[v]
            if around is None or len(around) > 2:
                continue
            nbr[v] = None
            order -= 1
            if len(around) < 2:
                for w, e in around.items():
                    alive.discard(e)
                    del nbr[w][v]
                    stack.append(w)
                continue
            (a, ea), (b, eb) = around.items()
            alive.discard(ea)
            alive.discard(eb)
            near, far = nbr[a], nbr[b]
            del near[v], far[v]
            if b in near:  # parallel chain: drop it
                stack += (a, b)
                continue
            e = len(ends)
            ends.append((a, b))
            parts.append((ea, v, eb))
            near[b] = far[a] = e
            alive.add(e)
            if ea in kept or eb in kept:
                kept.add(e)
            else:
                queue.append(e)

    def delete(block: Iterable[int]) -> None:
        stack: list[int] = []
        for e in block:
            a, b = ends[e]
            alive.discard(e)
            del nbr[a][b], nbr[b][a]
            stack += (a, b)
        reduce(stack)

    def compact(edges: Iterable[int]) -> tuple[list[list[int]], list[Edge]]:
        """The graph of these H edges relabeled to compact ids: its
        neighbor lists, and the ends of each edge in the order given."""
        ids: dict[int, int] = {}
        adj: list[list[int]] = []
        pairs: list[Edge] = []
        for a, b in map(ends.__getitem__, edges):
            i = ids.get(a)
            if i is None:
                i = ids[a] = len(adj)
                adj.append([])
            j = ids.get(b)
            if j is None:
                j = ids[b] = len(adj)
                adj.append([])
            adj[i].append(j)
            adj[j].append(i)
            pairs.append((i, j))
        return adj, pairs

    def rejects(edges: Iterable[int]) -> bool:
        """Whether the test rejects the graph of these H edges."""
        adj, pairs = compact(edges)
        return _left_right(adj, len(pairs), budget)[0] is None

    def failure_of(edges: list[int]) -> set[int] | None:
        """None if the test accepts the graph of these H edges, else the
        H edges of the failure it reports."""
        adj, pairs = compact(edges)
        cycles, failed = _left_right(adj, len(pairs), budget)
        if cycles is not None:
            return None
        edge_at = dict(zip(pairs, edges))
        edge_at.update(zip([(j, i) for i, j in pairs], edges))
        return set(map(edge_at.__getitem__, failed))

    def localise(hint: set[int]) -> bool:
        """Delete every H edge outside hint, and re-reduce, if the test
        still rejects what is left; else leave H as it was.  The deletion
        runs on copies, so a refused hint leaves no trace in H.  An empty
        hint (the test rejected on edge count alone), or one that leaves
        out less than the deletion's first block would, is not tried."""
        nonlocal nbr, alive, kept, queue, order
        before = nbr, alive, kept, queue, order, len(ends)
        block = [e for e in alive if e not in hint]
        if not hint or len(block) < max(1, len(alive) // 4):
            return False
        nbr = [None if around is None else around.copy() for around in nbr]
        alive, kept, queue = set(alive), set(kept), deque(queue)
        delete(block)
        if rejects(alive):
            return True
        nbr, alive, kept, queue, order, made = before
        del ends[made:], parts[made:]
        return False

    def settled() -> bool:
        return (order, len(alive)) in ((5, 10), (6, 9))

    reduce(list(range(g.n)))
    localised = False
    if not settled():
        # a graph is planar iff each of its biconnected components is, and
        # one with fewer than the 9 edges of K3,3 is: keep the first
        # component the test rejects
        for comp in biconnected_components(nbr):
            if len(comp) >= 9:
                hint = failure_of(comp)
                if hint is not None:
                    break
        else:
            raise InternalInconsistencyError(
                "left-right test accepts the graph: no obstruction to extract"
            )
        localised = localise(hint)
        if not localised and len(comp) < len(alive):
            inside = set(comp)
            delete([e for e in alive if e not in inside])
    if not settled():
        # a shuffled queue scatters each block over H: edges with nearby
        # labels are often nearby in the graph, and deleting such a band
        # tends to cut every obstruction at once.  Reduction alone settles
        # many graphs, so the shuffle waits until the deletion needs it;
        # g's edges go ahead of the chains reduction has built so far.
        # Once localised, H keeps only a few of g's edges: just those are
        # shuffled
        if localised:
            shuffled = sorted(e for e in alive if e < g.num_edges)
        else:
            shuffled = list(range(g.num_edges))
        random.Random(0).shuffle(shuffled)
        queue.extendleft(reversed(shuffled))
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
        drop = set(block)
        if rejects(e for e in alive if e not in drop):
            delete(block)
        elif len(block) == 1:
            kept.add(block[0])
        else:
            half = (len(block) + 1) // 2
            halves += (block[half:], block[:half])
    if not settled():
        raise InternalInconsistencyError(
            f"extraction ended with {order} vertices and {len(alive)} "
            "edges, neither K5 nor K3,3"
        )

    # the edges of g that H's edges stand for
    edges: list[Edge] = []
    todo = list(alive)
    while todo:
        e = todo.pop()
        split = parts[e]
        if split is None:
            edges.append(ends[e])
        else:
            todo += (split[0], split[2])
    cert = read_off(pruned_chains(edges))
    if not validate_subdivision(g, cert):
        raise InternalInconsistencyError("extracted certificate does not validate")
    return cert
