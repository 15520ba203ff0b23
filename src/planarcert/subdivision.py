"""Topological subgraph (subdivision) and minor containment with certificates.

A subdivision certificate maps pattern vertices to branch vertices of the
host graph and pattern edges to internally disjoint paths.  A minor
certificate maps pattern vertices to disjoint connected branch sets and
pattern edges to crossing edges.  The searchers promise nothing a
validator cannot check: `validate_subdivision` checks a subdivision
certificate, and `minor_to_subdivision` checks a minor certificate before
it converts it.  The patterns are K5 and K3,3.  Theta-freeness, which the
edge-deletion lemmas ask about, needs no search: `contains_theta` reads it
off the biconnected blocks.

All three routes to a Kuratowski certificate name it one way: `read_off`
takes the chains between the branch vertices and names the pattern.
`lr_kuratowski`, in `kuratowski`, and `minor_to_subdivision` get the
chains from `pruned_chains`, which prunes a subgraph to them: the edges
the left-right test could not lose, or a spanning tree of each branch
set plus the crossing edges.  `lift_certificate` rewrites the paths of a
certificate of G/xy where they pass the merged vertex, and reads the
chains straight off the rewritten paths.  The last two meet the paper's
contraction lemma: a K5 branch vertex whose strands split 2-2 over two
vertices gives a K3,3, which `_split_k5` reads off for both.  That split
is the one case in which the lift prunes.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .errors import InternalInconsistencyError, StepBudget
from .graphs import (
    Edge,
    Graph,
    VertexMap,
    biconnected_components,
    contract_edge,
    normalize_edge,
)


class Pattern(enum.Enum):
    """K5 or K3,3.  `branch_count` and `branch_degree` give its branch
    vertices and their degree, and `edge_list` its edges as pairs of
    pattern-vertex indices; they are plain member attributes, read in the
    searches' and the validator's inner loops."""

    K5 = "K5"
    K33 = "K33"

    def __init__(self, value: str) -> None:
        if value == "K5":
            self.branch_count, self.branch_degree = 5, 4
            self.edge_list = tuple(itertools.combinations(range(5), 2))
        else:
            self.branch_count, self.branch_degree = 6, 3
            self.edge_list = tuple((i, 3 + j) for i in range(3) for j in range(3))


_PATTERN_OF_BRANCH_COUNT = {p.branch_count: p for p in Pattern}


@dataclass(frozen=True)
class SubdivisionCertificate:
    """Witness that the host contains a subdivision of `pattern`.

    `branch[i]` is the host vertex playing pattern vertex i; `paths[k]`
    is the host path realizing pattern edge `pattern.edge_list[k]`,
    written from the first endpoint's branch vertex to the second's.
    """

    pattern: Pattern
    branch: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MinorCertificate:
    """Witness that the host contains `pattern` as a minor.

    `branch_sets[i]` is the connected host vertex set contracted to
    pattern vertex i; `cross_edges[k]` is a host edge joining the two
    sets of pattern edge `pattern.edge_list[k]`.
    """

    pattern: Pattern
    branch_sets: tuple[frozenset[int], ...]
    cross_edges: tuple[Edge, ...]


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def validate_subdivision(g: Graph, cert: SubdivisionCertificate) -> bool:
    pattern = cert.pattern
    edge_list = pattern.edge_list
    branch = cert.branch
    if len(branch) != pattern.branch_count or len(cert.paths) != len(edge_list):
        return False
    n = g.n
    if any(not 0 <= b < n for b in branch):
        return False
    # the branch vertices, then each interior vertex once its path is read
    seen = set(branch)
    if len(seen) != len(branch):
        return False
    adj = g.adj
    bisect_left = bisect.bisect_left
    # A path's two ends are distinct branch vertices and each interior
    # vertex must be new to `seen`, so no path repeats a vertex.  K5 and
    # K3,3 join each pair of branch vertices at most once, so two paths
    # sharing an edge would have an end of it inside one of them; being a
    # branch vertex or on the other path, it is rejected too
    for (pu, pv), path in zip(edge_list, cert.paths):
        u, v = branch[pu], branch[pv]
        if len(path) < 2 or (path[0], path[-1]) not in ((u, v), (v, u)):
            return False
        # each edge against the sorted neighbours of its first end; the
        # range check keeps adj[-1] from reading the last vertex, and a far
        # end out of range is in no neighbour list.  adj_mask is not read:
        # building it costs O(n * m / 64) on a large certificate
        for a, b in zip(path, path[1:]):
            if not 0 <= a < n:
                return False
            nbrs = adj[a]
            i = bisect_left(nbrs, b)
            if i == len(nbrs) or nbrs[i] != b:
                return False
        for w in path[1:-1]:
            if w in seen:
                return False
            seen.add(w)
    return True


def _branch_trees(g: Graph, cert: MinorCertificate) -> list[Edge] | None:
    """The edges of a spanning tree of each branch set, set by set, if the
    certificate validates, else None.  A set is connected exactly when its
    breadth-first tree reaches all of it."""
    pattern = cert.pattern
    sets = cert.branch_sets
    if len(sets) != pattern.branch_count:
        return None
    if len(cert.cross_edges) != len(pattern.edge_list):
        return None
    seen: set[int] = set()
    trees: list[Edge] = []
    for s in sets:
        if not s or any(not 0 <= v < g.n for v in s):
            return None
        if seen & s:
            return None
        seen |= s
        tree = _spanning_tree_edges(g, s)
        if len(tree) != len(s) - 1:
            return None
        trees += tree
    for (pi, pj), e in zip(pattern.edge_list, cert.cross_edges):
        u, v = e
        if not g.has_edge(u, v):
            return None
        si, sj = sets[pi], sets[pj]
        if not ((u in si and v in sj) or (u in sj and v in si)):
            return None
    return trees


# ---------------------------------------------------------------------------
# Subdivision search
# ---------------------------------------------------------------------------


class _DistanceRows(dict):
    """BFS distance rows of g by source, each built on its first read:
    `rows[src][v]` is the distance from src to v, None where unreachable."""

    __slots__ = ("_adj",)

    def __init__(self, g: Graph) -> None:
        super().__init__()
        self._adj = g.adj

    def __missing__(self, src: int) -> list[int | None]:
        adj = self._adj
        row: list[int | None] = [None] * len(adj)
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if row[w] is None:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
        self[src] = row
        return row


def _branch_assignments(
    pattern: Pattern, candidates: list[int], adj_mask: tuple[int, ...]
):
    """Branch tuples in ascending order, one per pattern-automorphism orbit.

    K5's automorphisms permute all five slots and K3,3's permute within
    parts and swap parts, so sorted slots (with the first part leading for
    K3,3) lose no assignments.

    A K3,3 part is kept only if each of its vertices has three neighbours
    outside it.  A branch vertex's three strands leave through distinct
    neighbours, each an interior vertex or a branch vertex of the other
    part, so a tuple with a part failing this has no routing.  The cut
    reads one part only, so the parts that pass are listed once; a tuple
    pairs two disjoint ones, in the order of the uncut tuples.
    """
    if pattern is Pattern.K5:
        yield from itertools.combinations(candidates, 5)
        return
    parts = []
    for part in itertools.combinations(candidates, 3):
        own = (1 << part[0]) | (1 << part[1]) | (1 << part[2])
        if all((adj_mask[v] & ~own).bit_count() >= 3 for v in part):
            parts.append((part, own))
    for i, (part_a, own_a) in enumerate(parts):
        first = part_a[0]
        for part_b, own_b in parts[i + 1 :]:
            if first < part_b[0] and not own_a & own_b:
                yield part_a + part_b


def _iter_paths(g: Graph, a: int, b: int, blocked: int):
    """Simple a-b paths whose interior avoids `blocked`, shortest first.

    The order is (length, lexicographic) and fully deterministic: within
    one length, neighbors are explored in ascending order.  An edge a-b is
    the only path of length 1, so when there is one it is always the first
    path yielded; `_route_paths` relies on that to route an adjacent pair
    by its edge without building this generator.  The paths of length 2 follow, one per
    allowed common neighbour in ascending order, read off the adjacency
    masks; only the longer paths cost a search.
    """
    adj_mask = g.adj_mask
    if adj_mask[a] >> b & 1:
        yield (a, b)
    allowed = ~blocked
    common = adj_mask[a] & adj_mask[b] & allowed
    while common:
        low = common & -common
        common ^= low
        yield (a, low.bit_length() - 1, b)
    n = g.n
    # BFS from b over allowed vertices for distance pruning.  a gets its
    # distance but is not passed through, since no path revisits it
    dist = [-1] * n
    dist[b] = 0
    frontier = [b]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0:
                    if w == a:
                        dist[w] = d
                    elif allowed >> w & 1:
                        dist[w] = d
                        nxt.append(w)
        frontier = nxt
    if dist[a] < 0:
        return
    free = (allowed & ((1 << n) - 1) & ~(1 << a) & ~(1 << b)).bit_count()
    adj = g.adj
    for length in range(max(dist[a], 3), free + 2):
        # depth-first over the neighbor lists, one iterator per path vertex,
        # on an explicit stack so path length is not capped by recursion
        path = [a]
        visited = 1 << a
        stack = [iter(adj[a])]
        while stack:
            remaining = length + 1 - len(path)  # edges still to take
            for w in stack[-1]:
                if w == b:
                    if remaining == 1:
                        path.append(b)
                        yield tuple(path)
                        path.pop()
                elif (
                    remaining > 1
                    and allowed >> w & 1
                    and not visited >> w & 1
                    and 0 <= dist[w] < remaining
                ):
                    path.append(w)
                    visited |= 1 << w
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                visited &= ~(1 << path.pop())


def _route_paths(
    g: Graph,
    pattern: Pattern,
    branch: tuple[int, ...],
    dist: _DistanceRows,
) -> tuple[tuple[int, ...], ...] | None:
    """Vertex-disjoint routing of all pattern edges, or None.

    An adjacent pair takes its edge, and only the other pairs are searched,
    longest first, ties by pattern-edge index.  That finds the routing the
    search over every pair finds.  An adjacent pair is at distance 1, so it
    sorted after every other pair, and its edge, `_iter_paths`' first path,
    uses no vertex: once the other pairs are routed, the edges complete the
    routing at once, and no other path of an adjacent pair was ever tried.
    Nor is a routing lost: in any routing, swapping an adjacent pair's path
    for its edge frees that path's interior and stays disjoint.
    """
    edge_list = pattern.edge_list
    adj_mask = g.adj_mask
    branch_mask = 0
    for b in branch:
        branch_mask |= 1 << b
    routed: list[tuple[int, ...]] = []
    far = []  # (-distance, index, a, b) of each non-adjacent pair
    for k, (pu, pv) in enumerate(edge_list):
        a, b = branch[pu], branch[pv]
        routed.append((a, b))
        if not adj_mask[a] >> b & 1:
            d = dist[a][b]
            far.append((-(d if d is not None else g.n + 1), k, a, b))
    far.sort()
    m = len(far)
    used_holder = [0]

    def route(idx: int) -> bool:
        if idx == m:
            return True
        _, k, a, b = far[idx]
        blocked = (branch_mask | used_holder[0]) & ~(1 << a) & ~(1 << b)
        for path in _iter_paths(g, a, b, blocked):
            add = 0
            for w in path[1:-1]:
                add |= 1 << w
            used_holder[0] |= add
            if route(idx + 1):
                routed[k] = path
                return True
            used_holder[0] &= ~add
        return False

    if route(0):
        return tuple(routed)
    return None


def find_subdivision(g: Graph, pattern: Pattern) -> SubdivisionCertificate | None:
    """Search for a subdivision of the pattern: branch tuples in the order
    of `_branch_assignments`, each kept only if the interiors its pairs'
    distances ask for fit in the other vertices, then routed.  The first
    tuple that routes gives the certificate.  The search does not validate
    it; callers that need a checked answer run `validate_subdivision`.
    """
    need_deg = pattern.branch_degree
    bc = pattern.branch_count
    edge_list = pattern.edge_list
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= need_deg]
    if len(candidates) < bc or g.num_edges < len(edge_list):
        return None
    # an adjacent pair adds no interior vertex; the others read a BFS row,
    # built the first time a tuple asks for it
    dist = _DistanceRows(g)
    free_budget = g.n - bc
    adj_mask = g.adj_mask
    for branch in _branch_assignments(pattern, candidates, adj_mask):
        need = 0
        for pu, pv in edge_list:
            a, b = branch[pu], branch[pv]
            if adj_mask[a] >> b & 1:
                continue
            d = dist[a][b]
            if d is None:
                break
            need += d - 1
            if need > free_budget:
                break
        else:
            paths = _route_paths(g, pattern, branch, dist)
            if paths is not None:
                return SubdivisionCertificate(pattern, branch, paths)
    return None


def contains_theta(g: Graph) -> bool:
    """Two vertices joined by three internally disjoint paths?

    A theta is 2-connected, so it lies inside one biconnected block.  A
    block is a single edge, a cycle, or has more edges than vertices; the
    last has an ear decomposition of a cycle and at least one ear, and the
    cycle with its first ear is a theta.  So g contains one exactly when
    some block has more edges than vertices, which one O(V + E) search
    settles."""
    ends = g.sorted_edges()
    nbr: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, (u, v) in enumerate(ends):
        nbr[u][v] = e
        nbr[v][u] = e
    return any(
        len(block) > len({x for e in block for x in ends[e]})
        for block in biconnected_components(nbr)
    )


def find_kuratowski(g: Graph) -> SubdivisionCertificate | None:
    """K5 subdivision if any, else K3,3 subdivision, else None."""
    cert = find_subdivision(g, Pattern.K5)
    if cert is not None:
        return cert
    return find_subdivision(g, Pattern.K33)


# ---------------------------------------------------------------------------
# Minor search
# ---------------------------------------------------------------------------

# Processing orders interleave the parts so adjacency constraints bind early.
_MINOR_ORDER = {
    Pattern.K5: (0, 1, 2, 3, 4),
    Pattern.K33: (0, 3, 1, 4, 2, 5),
}

# seed canonicalization: pattern vertex -> earlier pattern vertex whose seed
# it must exceed (quotients the pattern's automorphisms, as in
# _branch_assignments but on branch-set minima)
_SEED_ABOVE = {
    Pattern.K5: {1: 0, 2: 1, 3: 2, 4: 3},
    Pattern.K33: {1: 0, 2: 1, 3: 0, 4: 3, 5: 4},
}


def _edge_reserves(pattern: Pattern) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per position of the minor order: (q, k) for each pattern vertex q
    placed by then that has k > 0 pattern edges to vertices still unplaced."""
    order = _MINOR_ORDER[pattern]
    out = []
    for idx in range(len(order)):
        rest = order[idx + 1 :]
        reserves = []
        for q in order[: idx + 1]:
            k = sum(
                (pi == q and pj in rest) or (pj == q and pi in rest)
                for pi, pj in pattern.edge_list
            )
            if k:
                reserves.append((q, k))
        out.append(tuple(reserves))
    return tuple(out)


_EDGE_RESERVE = {pattern: _edge_reserves(pattern) for pattern in Pattern}


def _connected_sets(g: Graph, seed: int, allowed: int, max_size: int):
    """Bitmasks of connected sets containing seed, each exactly once.

    `allowed` already excludes vertices below the seed, so the seed is the
    minimum of every emitted set.  A set is grown by one candidate vertex
    at a time, in ascending order; each candidate, once its branch is
    done, is forbidden to the sets grown after it.  The growth runs on an
    explicit stack, so the set size is not capped by the recursion limit.
    `max_size` must be at least 1: below that the growth has no cap.
    """
    adj_mask = g.adj_mask
    s_mask = 1 << seed
    yield s_mask
    if max_size == 1:
        return
    cand = adj_mask[seed] & allowed
    # each frame: [set, size, candidates, candidates not yet tried, forbidden]
    stack = [[s_mask, 1, cand, cand, 0]]
    while stack:
        frame = stack[-1]
        s_mask, size, cand, untried, forbidden = frame
        if not untried:
            stack.pop()
            continue
        bit = untried & -untried
        frame[3] = untried & ~bit
        frame[4] = forbidden | bit
        grown = s_mask | bit
        yield grown
        if size + 1 != max_size:
            v = bit.bit_length() - 1
            grow = (cand | (adj_mask[v] & allowed)) & ~s_mask & ~forbidden & ~bit
            stack.append([grown, size + 1, grow, grow, forbidden])


def find_minor(
    g: Graph, pattern: Pattern, budget: StepBudget | None = None
) -> MinorCertificate | None:
    """Backtracking branch-set growth: seeds ascending, sets grown through
    adjacent unused vertices, adjacency constraints checked as parts are
    placed.

    Two reserves prune branches that cannot complete.  Neither changes
    the order in which sets are tried, and each cuts only placements that
    no completion extends, so the first certificate found is the one the
    unpruned search finds.

    - Vertex reserve: a connected set of k vertices in a graph of maximum
      degree D has at most k(D - 2) + 2 edges leaving it, so a pattern
      vertex of degree d needs a set of at least kmin = ceil((d - 2) /
      (D - 2)) vertices (and none fits when D <= 2).  The set being grown
      is capped at the free vertices less kmin for every set still to
      place, and a cap below its own kmin fails at once.
    - Edge reserve: once a set is placed, every placed set must keep at
      least as many edges into the free vertices as it has pattern edges
      to the sets still to place, which can only use free vertices.

    Each connected set tried costs `budget` one step; exceeding it raises
    SearchBudgetExceeded.  Without a budget the search is unbounded.
    """
    bc = pattern.branch_count
    n = g.n
    if n < bc or g.num_edges < len(pattern.edge_list):
        return None
    max_deg = max(map(len, g.adj))
    if max_deg <= 2:
        return None
    order = _MINOR_ORDER[pattern]
    seed_above = _SEED_ABOVE[pattern]
    edge_reserve = _EDGE_RESERVE[pattern]
    edge_list = pattern.edge_list
    adj_mask = g.adj_mask
    pat_deg = [0] * bc
    pat_nbrs: list[list[int]] = [[] for _ in range(bc)]
    for pi, pj in edge_list:
        pat_deg[pi] += 1
        pat_deg[pj] += 1
        pat_nbrs[pi].append(pj)
        pat_nbrs[pj].append(pi)
    kmin = [max(1, (d - 2 + max_deg - 3) // (max_deg - 2)) for d in pat_deg]
    # vertices the sets after each position of the order need at least
    reserve_after = [0] * bc
    for idx in range(bc - 2, -1, -1):
        reserve_after[idx] = reserve_after[idx + 1] + kmin[order[idx + 1]]

    placed_mask = [0] * bc  # branch set of each pattern vertex, as bitmask
    seeds = [-1] * bc
    all_bits = (1 << n) - 1

    def place(idx: int, used: int) -> bool:
        if idx == bc:
            return True
        p = order[idx]
        max_size = n - used.bit_count() - reserve_after[idx]
        if max_size < kmin[p]:
            return False
        min_seed = 0
        if p in seed_above:
            min_seed = seeds[seed_above[p]] + 1
        free = all_bits & ~used
        need = pat_deg[p]
        placed_nbrs = [q for q in pat_nbrs[p] if placed_mask[q]]
        reserves = edge_reserve[idx]
        seed_bits = free >> min_seed << min_seed
        while seed_bits:
            low = seed_bits & -seed_bits
            seed_bits ^= low
            seed = low.bit_length() - 1
            # seed_bits now holds the free vertices above the seed
            for s_mask in _connected_sets(g, seed, seed_bits, max_size):
                if budget is not None:
                    budget.tick()
                if not _edges_at_least(adj_mask, s_mask, ~s_mask, need):
                    continue
                if any(
                    not _edges_at_least(adj_mask, s_mask, placed_mask[q], 1)
                    for q in placed_nbrs
                ):
                    continue
                placed_mask[p] = s_mask
                still_free = free & ~s_mask
                if all(
                    _edges_at_least(adj_mask, placed_mask[q], still_free, k)
                    for q, k in reserves
                ):
                    seeds[p] = seed
                    if place(idx + 1, used | s_mask):
                        return True
                    seeds[p] = -1
                placed_mask[p] = 0
        return False

    if not place(0, 0):
        return None

    sets = tuple(frozenset(_mask_bits(placed_mask[p])) for p in range(bc))
    # the first edge from set pi to set pj in label order
    cross: list[Edge] = []
    for pi, pj in edge_list:
        sj = sets[pj]
        joins = (
            normalize_edge(u, v) for u in sorted(sets[pi]) for v in g.adj[u] if v in sj
        )
        best = next(joins, None)
        if best is None:
            raise InternalInconsistencyError(
                f"no host edge joins the branch sets of pattern edge ({pi}, {pj})"
            )
        cross.append(best)
    return MinorCertificate(pattern, sets, tuple(cross))


def _edges_at_least(adj_mask, a_mask: int, b_mask: int, k: int) -> bool:
    """Do at least k edges join the vertices of a_mask to those of b_mask?"""
    total = 0
    m = a_mask
    while m:
        low = m & -m
        m ^= low
        total += (adj_mask[low.bit_length() - 1] & b_mask).bit_count()
        if total >= k:
            return True
    return False


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Obstruction read-off
# ---------------------------------------------------------------------------

def pruned_chains(edges: Iterable[Edge]) -> dict[int, list[tuple[int, ...]]]:
    """Prune the leaves of the graph of these edges, then map each vertex
    of degree 3 or more to the chains leaving it: paths that run through
    vertices of degree 2 to the next vertex of degree 3 or more.  A cycle
    with no such vertex on it is left out.  Each chain is walked once and
    listed at both of its ends."""
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves = [v for v, around in adj.items() if len(around) == 1]
    if leaves:
        deg = {v: len(around) for v, around in adj.items()}
        while leaves:
            v = leaves.pop()
            deg[v] = 0
            for w in adj[v]:
                if deg[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        leaves.append(w)
        adj = {v: [w for w in around if deg[w]] for v, around in adj.items() if deg[v]}
    chains: dict[int, list[tuple[int, ...]]] = {
        v: [] for v, around in adj.items() if len(around) > 2
    }
    walked: set[Edge] = set()  # (end, the vertex before it) of each chain
    for v, out in chains.items():
        for w in adj[v]:
            if (v, w) in walked:
                continue
            prev, path = v, [v, w]
            while w not in chains:
                a, b = adj[w]
                prev, w = w, (b if a == prev else a)
                path.append(w)
            walked.add((w, prev))
            chain = tuple(path)
            out.append(chain)
            chains[w].append(chain[::-1])
    return chains


def read_off(chains: dict[int, list[tuple[int, ...]]]) -> SubdivisionCertificate:
    """The K5 or K3,3 subdivision that `pruned_chains` found, by its number
    of branch vertices: 5 or 6.

    Branch vertices come in ascending order.  K3,3's first part is the one
    that holds the least branch vertex, so its second part is that vertex's
    neighbors.  Chains of any other shape raise InternalInconsistencyError.
    """
    branch = sorted(chains)
    pattern = _PATTERN_OF_BRANCH_COUNT.get(len(branch))
    if pattern is None or set(map(len, chains.values())) != {pattern.branch_degree}:
        raise InternalInconsistencyError(f"{len(branch)} branch vertices: no pattern")
    # with every degree right, a chain for each pattern edge leaves none
    # over, so no pair is joined twice
    reach = {v: {p[-1]: p for p in chains[v]} for v in branch}
    if pattern is Pattern.K33:
        side = sorted(reach[branch[0]])
        branch = [v for v in branch if v not in side] + side
    paths = [reach[branch[i]].get(branch[j]) for i, j in pattern.edge_list]
    if None in paths:
        raise InternalInconsistencyError(
            f"chains between the branch vertices do not form a {pattern.value}"
        )
    return SubdivisionCertificate(pattern, tuple(branch), tuple(paths))


def _split_k5(
    pattern: Pattern,
    edges: list[Edge],
    chains: dict[int, list[tuple[int, ...]]],
    part: dict[int, int],
    droppable: list[Edge],
) -> dict[int, list[tuple[int, ...]]]:
    """The chains of a K3,3 inside a K5 subdivision whose branch vertex
    is split 2-2 over two vertices: the paper's contraction lemma.

    `chains = pruned_chains(edges)` holds two branch vertices, x and y,
    where the K5 has one; `part` maps each branch vertex to its
    pattern vertex, and dropping `droppable[k]` from `edges` cuts the
    chain of pattern edge k.  With x's other chains reaching pattern
    vertices a, b and y's reaching c, d, dropping a-b and c-d and pruning
    again leaves the K3,3 (a, b, y | c, d, x).  A split branch vertex of
    any other pattern raises InternalInconsistencyError.
    """
    if pattern is not Pattern.K5:
        raise InternalInconsistencyError(
            f"{pattern.value} branch vertex split over two vertices"
        )
    x, y = next(
        (x, path[-1])
        for x in sorted(chains)
        for path in chains[x]
        if part[path[-1]] == part[x]
    )
    a, b = sorted(part[path[-1]] for path in chains[x] if path[-1] != y)
    c, d = sorted(part[path[-1]] for path in chains[y] if path[-1] != x)
    edge_list = pattern.edge_list
    drop = {droppable[edge_list.index((a, b))], droppable[edge_list.index((c, d))]}
    return pruned_chains(e for e in edges if e not in drop)


# ---------------------------------------------------------------------------
# Minor certificate -> subdivision certificate
# ---------------------------------------------------------------------------


def minor_to_subdivision(g: Graph, cert: MinorCertificate) -> SubdivisionCertificate:
    """Convert a minor witness into a subdivision witness valid in the
    same graph, in one linear pass.

    A spanning tree of each branch set plus the crossing edges, pruned of
    leaves, keeps in each set the subtree that joins its crossing edges.
    A K3,3 set, with three crossing edges, keeps one branch vertex of
    degree 3.  A K5 set, with four, keeps one of degree 4 or two of
    degree 3, which `_split_k5` turns into a K3,3 by dropping two
    crossing edges.  A K5 minor may therefore come back as a K3,3
    subdivision.
    """
    trees = _branch_trees(g, cert)
    if trees is None:
        raise ValueError("minor certificate does not validate")
    cross = [normalize_edge(*e) for e in cert.cross_edges]
    edges = cross + trees
    chains = pruned_chains(edges)
    if len(chains) > cert.pattern.branch_count:  # a K5 set kept x and y
        set_of = {v: p for p, s in enumerate(cert.branch_sets) for v in s}
        chains = _split_k5(cert.pattern, edges, chains, set_of, cross)
    return read_off(chains)


def _spanning_tree_edges(g: Graph, s: frozenset[int]) -> list[Edge]:
    """The edges of a breadth-first spanning tree of the connected set s."""
    root = min(s)
    seen = {root}
    tree: list[Edge] = []
    frontier = [root]
    for v in frontier:  # appended to while it is read: a queue
        for w in g.adj[v]:
            if w in s and w not in seen:
                seen.add(w)
                tree.append(normalize_edge(v, w))
                frontier.append(w)
    return tree


# ---------------------------------------------------------------------------
# Certificate lifting through contraction
# ---------------------------------------------------------------------------


def lift_certificate(
    g: Graph, x: int, y: int, cert: SubdivisionCertificate
) -> SubdivisionCertificate:
    """Translate a certificate valid in G/xy into one valid in G.

    Each path edge at the merged vertex lifts to whichever of x, y its far
    end is adjacent to in G.  A far end adjacent to both goes to the end
    that more of the other strands must take, x on a tie.  When both ends
    keep strands the edge xy joins them, and `read_off` names the lifted
    certificate.

    Pattern rule: K3,3 lifts to itself; K5 lifts to K5 unless
    the merged vertex is a branch vertex whose four strands split 2-2
    between x and y, in which case the lift is a K3,3 subdivision.
    """
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    return lift_through_contraction(g, x, y, contract_edge(g, (x, y)), cert)


def lift_through_contraction(
    g: Graph,
    x: int,
    y: int,
    contraction: tuple[Graph, int, VertexMap],
    cert: SubdivisionCertificate,
) -> SubdivisionCertificate:
    """`lift_certificate` for a caller that already holds
    `contraction = contract_edge(g, (x, y))` for an edge xy of g; the
    certificate is still validated in the contracted graph first.

    The paths are written in g's ids and rewritten in place where they
    pass the merged vertex z, with each neighbour of z sent to an end of
    xy by `lift_certificate`'s rule (the major end is the one more of
    them must take, x on a tie):
    - z becomes the end of xy its neighbour is sent to;
    - an interior z whose two neighbours go to different ends becomes
      x, y in path order;
    - a branch strand sent to the minor end becomes major, minor, w, ...
    The rewritten paths are exactly a subdivision, so `read_off` takes its
    chains straight from them.  Only a K5 branch vertex whose strands
    split 2-2 has no such rewriting; its lifted edges, with xy, are pruned
    and split by `_split_k5`.
    """
    contracted, z, vmap = contraction
    if not validate_subdivision(contracted, cert):
        raise ValueError("certificate does not validate in the contracted graph")
    inv = [-1] * contracted.n  # z stays -1 until each path at it is rewritten
    for old, new in enumerate(vmap):
        if old != x and old != y:
            if new is None:
                raise InternalInconsistencyError(
                    f"contraction of ({x}, {y}) dropped vertex {old}"
                )
            inv[new] = old
    branch = [inv[b] for b in cert.branch]
    paths = [[inv[v] for v in path] for path in cert.paths]
    spots = []  # (path, position of z, a neighbour of z on it)
    for path in paths:
        if -1 in path:
            i = path.index(-1)
            if i:
                spots.append((path, i, path[i - 1]))
            if i + 1 < len(path):
                spots.append((path, i, path[i + 1]))
    if spots:
        far = [w for _, _, w in spots]
        xm, ym = g.adj_mask[x], g.adj_mask[y]
        if any(not (xm | ym) >> w & 1 for w in far):
            raise InternalInconsistencyError("contracted adjacency has no preimage")
        held_x = sum(not ym >> w & 1 for w in far)
        held_y = sum(not xm >> w & 1 for w in far)
        major, minor, major_mask = (x, y, xm) if held_x >= held_y else (y, x, ym)
        ends = [major if major_mask >> w & 1 else minor for w in far]
        if -1 not in branch:  # z is interior: its two neighbours on one path
            (path, i, _), _ = spots
            path[i : i + 1] = ends if ends[0] != ends[1] else ends[:1]
        elif ends.count(minor) == 2:  # a K5 branch vertex split 2-2
            for (path, i, _), end in zip(spots, ends):
                path[i] = end
            edges = [(a, b) for path in paths for a, b in zip(path, path[1:])]
            edges.append((x, y))
            part = dict(zip(branch, range(len(branch))))
            part[x] = part[y] = part.pop(-1)
            droppable = [(path[0], path[1]) for path in paths]
            return read_off(
                _split_k5(cert.pattern, edges, pruned_chains(edges), part, droppable)
            )
        else:
            branch[branch.index(-1)] = major
            for (path, i, _), end in zip(spots, ends):
                if end == major:
                    path[i] = major
                elif i:
                    path[i:] = (minor, major)
                else:
                    path[:1] = (major, minor)
    chains: dict[int, list[tuple[int, ...]]] = {b: [] for b in branch}
    for (pu, pv), path in zip(cert.pattern.edge_list, paths):
        chain = tuple(path)
        chains[branch[pu]].append(chain)
        chains[branch[pv]].append(chain[::-1])
    return read_off(chains)
