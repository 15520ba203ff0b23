"""Topological subgraph (subdivision) and minor containment with certificates.

A subdivision certificate maps pattern vertices to branch vertices of the
host graph and pattern edges to internally disjoint paths.  A minor
certificate maps pattern vertices to disjoint connected branch sets and
pattern edges to crossing edges.  Both come with independent validators;
the searchers promise nothing the validators cannot check.  The patterns
are K5 and K3,3.  Theta-freeness, which the edge-deletion lemmas ask
about, needs no search: `contains_theta` reads it off the biconnected
blocks.

All three routes to a Kuratowski certificate read it off one way:
`pruned_chains` prunes a subgraph to branch vertices and the chains
between them, and `read_off` names the pattern.  `lr_kuratowski` feeds
it the edges the left-right test could not lose, `minor_to_subdivision`
a spanning tree of each branch set plus the crossing edges, and
`lift_certificate` a certificate of G/xy with each edge at the merged
vertex moved back to x or y.  The last two meet the paper's contraction
lemma: a K5 branch vertex whose strands split 2-2 over two vertices
gives a K3,3, which `_split_k5` reads off for both.
"""

from __future__ import annotations

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
    K5 = "K5"
    K33 = "K33"

    @property
    def branch_count(self) -> int:
        return _BRANCH_COUNT[self]

    @property
    def branch_degree(self) -> int:
        return _BRANCH_DEGREE[self]

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Pattern edges as pairs of pattern-vertex indices."""
        return _EDGE_LIST[self]


_BRANCH_COUNT = {Pattern.K5: 5, Pattern.K33: 6}
_BRANCH_DEGREE = {Pattern.K5: 4, Pattern.K33: 3}
_EDGE_LIST = {
    Pattern.K5: tuple(itertools.combinations(range(5), 2)),
    Pattern.K33: tuple((i, 3 + j) for i in range(3) for j in range(3)),
}
_PATTERN_OF_BRANCH_COUNT = {count: p for p, count in _BRANCH_COUNT.items()}


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
    if any(not 0 <= b < g.n for b in branch):
        return False
    if len(set(branch)) != len(branch):
        return False
    branch_set = set(branch)
    interiors_seen: set[int] = set()
    # K5 and K3,3 join each pair of branch vertices at most once, so two
    # paths sharing an edge would have an end of it inside one of them;
    # being a branch vertex or on the other path, it is rejected below
    for (pu, pv), path in zip(edge_list, cert.paths):
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        ends = {path[0], path[-1]}
        if ends != {branch[pu], branch[pv]}:
            return False
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return False
        for w in path[1:-1]:
            if w in branch_set or w in interiors_seen:
                return False
            interiors_seen.add(w)
    return True


def validate_minor(g: Graph, cert: MinorCertificate) -> bool:
    return _branch_trees(g, cert) is not None


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


def _distances_from(
    g: Graph, sources: list[int]
) -> dict[int, list[int | None]]:
    """The BFS distance from each source to every vertex, None where
    unreachable."""
    dist: dict[int, list[int | None]] = {}
    for src in sources:
        row: list[int | None] = [None] * g.n
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in g.adj[v]:
                    if row[w] is None:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
        dist[src] = row
    return dist


def _branch_assignments(pattern: Pattern, candidates: list[int]):
    """Branch tuples in ascending order, one per pattern-automorphism orbit.

    K5's automorphisms permute all five slots and K3,3's permute within
    parts and swap parts, so sorted slots (with the first part leading for
    K3,3) lose no assignments.
    """
    if pattern is Pattern.K5:
        yield from itertools.combinations(candidates, 5)
    else:
        for part_a in itertools.combinations(candidates, 3):
            rest = [v for v in candidates if v not in part_a]
            for part_b in itertools.combinations(rest, 3):
                if part_a[0] < part_b[0]:
                    yield part_a + part_b


def _iter_paths(g: Graph, a: int, b: int, blocked: int):
    """Simple a-b paths whose interior avoids `blocked`, shortest first.

    Within one length, neighbors are explored in ascending order, so the
    overall order is (length, lexicographic) and fully deterministic.  An
    edge a-b is the only path of length 1, so it comes out before any
    search.
    """
    shortest = 1
    if g.has_edge(a, b):
        yield (a, b)
        shortest = 2
    n = g.n
    allowed = ~blocked
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
    for length in range(max(dist[a], shortest), free + 2):
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
    dist: dict[int, list[int | None]],
) -> tuple[tuple[int, ...], ...] | None:
    """Vertex-disjoint routing of all pattern edges, or None."""
    edge_list = pattern.edge_list
    m = len(edge_list)
    branch_mask = 0
    for b in branch:
        branch_mask |= 1 << b

    def pair_dist(k: int) -> int:
        pu, pv = edge_list[k]
        d = dist[branch[pu]][branch[pv]]
        return d if d is not None else g.n + 1

    order = sorted(range(m), key=lambda k: (-pair_dist(k), k))

    routed: list[tuple[int, ...] | None] = [None] * m
    used_holder = [0]

    def route(idx: int) -> bool:
        if idx == m:
            return True
        k = order[idx]
        pu, pv = edge_list[k]
        a, b = branch[pu], branch[pv]
        blocked = (branch_mask | used_holder[0]) & ~(1 << a) & ~(1 << b)
        for path in _iter_paths(g, a, b, blocked):
            routed[k] = path
            add = 0
            for w in path[1:-1]:
                add |= 1 << w
            used_holder[0] |= add
            if route(idx + 1):
                return True
            used_holder[0] &= ~add
            routed[k] = None
        return False

    if route(0):
        out = []
        for k, (pu, pv) in enumerate(edge_list):
            path = routed[k]
            if path is None:
                raise InternalInconsistencyError(
                    f"pattern edge {k} left unrouted by a complete routing"
                )
            if path[0] != branch[pu]:
                path = path[::-1]
            out.append(path)
        return tuple(out)
    return None


def _parts_let_strands_leave(
    adj_mask: tuple[int, ...], branch: tuple[int, ...]
) -> bool:
    """Whether every branch vertex of a K3,3 tuple has three neighbours
    outside its own part.  Its three strands leave through distinct
    neighbours, each an interior vertex or a branch vertex of the other
    part, so a tuple failing this has no routing."""
    for part in (branch[:3], branch[3:]):
        own = (1 << part[0]) | (1 << part[1]) | (1 << part[2])
        for v in part:
            if (adj_mask[v] & ~own).bit_count() < 3:
                return False
    return True


def find_subdivision(g: Graph, pattern: Pattern) -> SubdivisionCertificate | None:
    """Search for a subdivision of the pattern; certificates are validated
    by `validate_subdivision`, never trusted on faith.
    """
    need_deg = pattern.branch_degree
    bc = pattern.branch_count
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= need_deg]
    if len(candidates) < bc or g.num_edges < len(pattern.edge_list):
        return None
    # branch vertices are candidates, so only their distances are read
    dist = _distances_from(g, candidates)
    free_budget = g.n - bc
    k33 = pattern is Pattern.K33
    adj_mask = g.adj_mask
    for branch in _branch_assignments(pattern, candidates):
        if k33 and not _parts_let_strands_leave(adj_mask, branch):
            continue
        need = 0
        feasible = True
        for pu, pv in pattern.edge_list:
            d = dist[branch[pu]][branch[pv]]
            if d is None:
                feasible = False
                break
            need += d - 1
        if not feasible or need > free_budget:
            continue
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
    keep strands the edge xy joins them, and the certificate is read off
    the lifted edges as in `read_off`.

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
    certificate is still validated in the contracted graph first."""
    contracted, z, vmap = contraction
    if not validate_subdivision(contracted, cert):
        raise ValueError("certificate does not validate in the contracted graph")
    inv = [-1] * contracted.n  # z stays -1 until each edge at it is lifted
    for old, new in enumerate(vmap):
        if old != x and old != y:
            if new is None:
                raise InternalInconsistencyError(
                    f"contraction of ({x}, {y}) dropped vertex {old}"
                )
            inv[new] = old
    edges = [(inv[a], inv[b]) for path in cert.paths for a, b in zip(path, path[1:])]
    at_z = [i for i, e in enumerate(edges) if -1 in e]
    if at_z:
        # each edge at z lifts to the end of xy its far end w meets in g;
        # a w that meets both goes to the end more of the others must
        # take, x on a tie
        far = [max(edges[i]) for i in at_z]
        xm, ym = g.adj_mask[x], g.adj_mask[y]
        if any(not (xm | ym) >> w & 1 for w in far):
            raise InternalInconsistencyError("contracted adjacency has no preimage")
        held_x = sum(not ym >> w & 1 for w in far)
        held_y = sum(not xm >> w & 1 for w in far)
        major, minor, major_mask = (x, y, xm) if held_x >= held_y else (y, x, ym)
        for i, w in zip(at_z, far):
            edges[i] = (major if major_mask >> w & 1 else minor, w)
        if held_x and held_y:
            edges.append((x, y))
    chains = pruned_chains(edges)
    if len(chains) > cert.pattern.branch_count:  # z's strands split 2-2
        part = {inv[b]: p for p, b in enumerate(cert.branch)}
        part[x] = part[y] = part.pop(-1)
        droppable, k = [], 0  # the first edge of each path
        for path in cert.paths:
            droppable.append(edges[k])
            k += len(path) - 1
        chains = _split_k5(cert.pattern, edges, chains, part, droppable)
    return read_off(chains)
