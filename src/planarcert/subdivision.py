"""Topological subgraph (subdivision) and minor containment with certificates.

A subdivision certificate maps pattern vertices to branch vertices of the
host graph and pattern edges to internally disjoint paths.  A minor
certificate maps pattern vertices to disjoint connected branch sets and
pattern edges to crossing edges.  Both come with independent validators;
the searchers promise nothing the validators cannot check.

The theta pattern is handled as a multigraph: two branch vertices joined
by three parallel pattern edges, whose simple-graph normal form is K_{2,3}.

`lift_certificate` translates a certificate found in G/xy back into G by
case analysis on the merged vertex: untouched, interior to one path, or a
branch vertex whose incident paths split between x and y.  A 2-2 split of
a degree-4 branch vertex is the one case that changes the pattern: the
lifted witness is then a K3,3 subdivision built from the split halves.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .graphs import (
    Edge,
    Graph,
    complete_bipartite,
    complete_graph,
    contract_edge,
    normalize_edge,
)


class Pattern(enum.Enum):
    K5 = "K5"
    K33 = "K33"
    THETA = "THETA"

    @property
    def branch_count(self) -> int:
        return _BRANCH_COUNT[self]

    @property
    def branch_degree(self) -> int:
        return _BRANCH_DEGREE[self]

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Pattern edges as pairs of pattern-vertex indices.

        THETA repeats (0, 1) three times: its three strands are parallel
        edges of the underlying multigraph.
        """
        return _EDGE_LIST[self]

    @property
    def graph(self) -> Graph:
        """Simple-graph normal form (theta's is K_{2,3})."""
        if self is Pattern.K5:
            return complete_graph(5)
        if self is Pattern.K33:
            return complete_bipartite(3, 3)
        return complete_bipartite(2, 3)


_BRANCH_COUNT = {Pattern.K5: 5, Pattern.K33: 6, Pattern.THETA: 2}
_BRANCH_DEGREE = {Pattern.K5: 4, Pattern.K33: 3, Pattern.THETA: 3}
_EDGE_LIST = {
    Pattern.K5: tuple(itertools.combinations(range(5), 2)),
    Pattern.K33: tuple((i, 3 + j) for i in range(3) for j in range(3)),
    Pattern.THETA: ((0, 1), (0, 1), (0, 1)),
}


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
    edges_seen: set[Edge] = set()
    for (pu, pv), path in zip(edge_list, cert.paths):
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        ends = {path[0], path[-1]}
        if ends != {branch[pu], branch[pv]}:
            return False
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return False
            e = normalize_edge(a, b)
            if e in edges_seen:
                return False
            edges_seen.add(e)
        for w in path[1:-1]:
            if w in branch_set or w in interiors_seen:
                return False
            interiors_seen.add(w)
    return True


def validate_minor(g: Graph, cert: MinorCertificate) -> bool:
    pattern = cert.pattern
    sets = cert.branch_sets
    if len(sets) != pattern.branch_count:
        return False
    if len(cert.cross_edges) != len(pattern.edge_list):
        return False
    seen: set[int] = set()
    for s in sets:
        if not s or any(not 0 <= v < g.n for v in s):
            return False
        if seen & s:
            return False
        seen |= s
        if not _is_connected_subset(g, s):
            return False
    used_for_pair: dict[tuple[int, int], set[Edge]] = {}
    for (pi, pj), e in zip(pattern.edge_list, cert.cross_edges):
        e = normalize_edge(*e)
        if e not in g.edges:
            return False
        u, v = e
        si, sj = sets[pi], sets[pj]
        if not ((u in si and v in sj) or (u in sj and v in si)):
            return False
        bucket = used_for_pair.setdefault((pi, pj), set())
        if e in bucket:  # parallel pattern edges need distinct host edges
            return False
        bucket.add(e)
    return True


def _is_connected_subset(g: Graph, s: frozenset[int]) -> bool:
    start = next(iter(s))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w in s and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == s


# ---------------------------------------------------------------------------
# Subdivision search
# ---------------------------------------------------------------------------


def _all_pairs_distances(g: Graph) -> list[list[int | None]]:
    dist: list[list[int | None]] = []
    for src in range(g.n):
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
        dist.append(row)
    return dist


def _branch_assignments(pattern: Pattern, candidates: list[int]):
    """Branch tuples in ascending order, one per pattern-automorphism orbit.

    K5's automorphisms permute all five slots, K3,3's permute within parts
    and swap parts, theta's swap its two ends, so sorted slots (with the
    first part leading for K3,3) lose no assignments.
    """
    if pattern is Pattern.K5:
        yield from itertools.combinations(candidates, 5)
    elif pattern is Pattern.THETA:
        yield from itertools.combinations(candidates, 2)
    else:
        for part_a in itertools.combinations(candidates, 3):
            rest = [v for v in candidates if v not in part_a]
            for part_b in itertools.combinations(rest, 3):
                if part_a[0] < part_b[0]:
                    yield part_a + part_b


def _iter_paths(g: Graph, a: int, b: int, blocked: int):
    """Simple a-b paths whose interior avoids `blocked`, shortest first.

    Within one length, neighbors are explored in ascending order, so the
    overall order is (length, lexicographic) and fully deterministic.
    """
    n = g.n
    allowed = ~blocked
    # BFS from b over allowed vertices for distance pruning
    dist = [-1] * n
    dist[b] = 0
    frontier = [b]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0 and (w == a or allowed >> w & 1):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    if dist[a] < 0:
        return
    free = bin(allowed & ((1 << n) - 1) & ~(1 << a) & ~(1 << b)).count("1")
    adj = g.adj
    path = [a]
    visited = 1 << a

    def walk(v: int, remaining: int):
        nonlocal visited
        for w in adj[v]:
            if w == b:
                if remaining == 1:
                    path.append(b)
                    yield tuple(path)
                    path.pop()
            elif (
                remaining > 1
                and allowed >> w & 1
                and not visited >> w & 1
                and 0 <= dist[w] <= remaining - 1
            ):
                path.append(w)
                visited |= 1 << w
                yield from walk(w, remaining - 1)
                visited &= ~(1 << w)
                path.pop()

    for length in range(max(dist[a], 1), free + 2):
        yield from walk(a, length)


def _route_paths(
    g: Graph,
    pattern: Pattern,
    branch: tuple[int, ...],
    dist: list[list[int | None]],
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

    if pattern is Pattern.THETA:
        order = list(range(m))  # identical endpoint pairs; keep given order
    else:
        order = sorted(range(m), key=lambda k: (-pair_dist(k), k))

    routed: list[tuple[int, ...] | None] = [None] * m
    used_holder = [0]

    def route(idx: int) -> bool:
        if idx == m:
            return True
        k = order[idx]
        pu, pv = edge_list[k]
        a, b = branch[pu], branch[pv]
        prev = routed[order[idx - 1]] if pattern is Pattern.THETA and idx > 0 else None
        blocked = (branch_mask | used_holder[0]) & ~(1 << a) & ~(1 << b)
        for path in _iter_paths(g, a, b, blocked):
            if prev is not None and (len(path), path) <= (len(prev), prev):
                continue  # parallel strands kept in increasing order
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


def find_subdivision(g: Graph, pattern: Pattern) -> SubdivisionCertificate | None:
    """Search for a subdivision of the pattern; certificates are validated
    by `validate_subdivision`, never trusted on faith.
    """
    need_deg = pattern.branch_degree
    bc = pattern.branch_count
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= need_deg]
    if len(candidates) < bc or g.num_edges < len(pattern.edge_list):
        return None
    dist = _all_pairs_distances(g)
    free_budget = g.n - bc
    for branch in _branch_assignments(pattern, candidates):
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
    """Two vertices joined by three internally disjoint paths?"""
    return find_subdivision(g, Pattern.THETA) is not None


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
    Pattern.THETA: (0, 1),
}

# seed canonicalization: pattern vertex -> earlier pattern vertex whose seed
# it must exceed (quotients the pattern's automorphisms, as in
# _branch_assignments but on branch-set minima)
_SEED_ABOVE = {
    Pattern.K5: {1: 0, 2: 1, 3: 2, 4: 3},
    Pattern.K33: {1: 0, 2: 1, 3: 0, 4: 3, 5: 4},
    Pattern.THETA: {1: 0},
}


def _connected_sets(g: Graph, seed: int, allowed: int, max_size: int):
    """Bitmasks of connected sets containing seed, each exactly once.

    `allowed` already excludes vertices below the seed, so the seed is the
    minimum of every emitted set.  A set is grown by one candidate vertex
    at a time, in ascending order; each candidate, once its branch is
    done, is forbidden to the sets grown after it.  The growth runs on an
    explicit stack, so the set size is not capped by the recursion limit.
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


def find_minor(g: Graph, pattern: Pattern) -> MinorCertificate | None:
    """Backtracking branch-set growth: seeds ascending, sets grown through
    adjacent unused vertices, adjacency constraints checked as parts are
    placed.
    """
    bc = pattern.branch_count
    if g.n < bc or g.num_edges < len(pattern.edge_list):
        return None
    order = _MINOR_ORDER[pattern]
    seed_above = _SEED_ABOVE[pattern]
    edge_list = pattern.edge_list
    adj_mask = g.adj_mask
    pat_deg = [0] * bc
    pat_nbrs: list[list[int]] = [[] for _ in range(bc)]
    for pi, pj in edge_list:
        pat_deg[pi] += 1
        pat_deg[pj] += 1
        pat_nbrs[pi].append(pj)
        pat_nbrs[pj].append(pi)

    placed_mask = [0] * bc  # branch set of each pattern vertex, as bitmask
    seeds = [-1] * bc
    all_bits = (1 << g.n) - 1

    def boundary_ok(s_mask: int, need: int) -> bool:
        # edges leaving the set must number at least the pattern degree
        out = 0
        m = s_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            out += bin(adj_mask[v] & ~s_mask).count("1")
            if out >= need:
                return True
        return False

    def cross_count(a_mask: int, b_mask: int) -> int:
        total = 0
        m = a_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            total += bin(adj_mask[v] & b_mask).count("1")
        return total

    def place(idx: int, used: int) -> bool:
        if idx == bc:
            return True
        p = order[idx]
        remaining_after = bc - idx - 1
        min_seed = 0
        if p in seed_above:
            min_seed = seeds[seed_above[p]] + 1
        free = all_bits & ~used
        max_size = g.n - bin(used).count("1") - remaining_after
        placed_nbrs = [q for q in pat_nbrs[p] if placed_mask[q]]
        theta_pair = pattern is Pattern.THETA and idx == 1
        for seed in range(min_seed, g.n):
            if not free >> seed & 1:
                continue
            allowed = free & ~((1 << seed) - 1) & ~(1 << seed)
            for s_mask in _connected_sets(g, seed, allowed, max_size):
                if not boundary_ok(s_mask, pat_deg[p]):
                    continue
                ok = True
                for q in placed_nbrs:
                    if theta_pair:
                        if cross_count(s_mask, placed_mask[q]) < 3:
                            ok = False
                            break
                    elif not _masks_adjacent(adj_mask, s_mask, placed_mask[q]):
                        ok = False
                        break
                if not ok:
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

    sets = tuple(frozenset(_mask_bits(placed_mask[p])) for p in range(bc))
    cross: list[Edge] = []
    used_pairs: dict[tuple[int, int], set[Edge]] = {}
    for pi, pj in edge_list:
        bucket = used_pairs.setdefault((pi, pj), set())
        best = None
        for u in sorted(sets[pi]):
            for v in sorted(sets[pj]):
                if g.has_edge(u, v):
                    e = normalize_edge(u, v)
                    if e not in bucket:
                        best = e
                        break
            if best is not None:
                break
        if best is None:
            raise InternalInconsistencyError(
                f"no host edge joins the branch sets of pattern edge ({pi}, {pj})"
            )
        bucket.add(best)
        cross.append(best)
    return MinorCertificate(pattern, sets, tuple(cross))


def _masks_adjacent(adj_mask, a_mask: int, b_mask: int) -> bool:
    m = a_mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if adj_mask[v] & b_mask:
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
# Certificate lifting through contraction
# ---------------------------------------------------------------------------


def lift_certificate(
    g: Graph, x: int, y: int, cert: SubdivisionCertificate
) -> SubdivisionCertificate:
    """Translate a certificate valid in G/xy into one valid in G.

    Pattern rule: K3,3 and theta lift to themselves; K5 lifts to K5 unless
    the merged vertex is a branch vertex whose four strands split 2-2
    between x and y, in which case the lift is a K3,3 subdivision.
    """
    exy = normalize_edge(x, y)
    if exy not in g.edges:
        raise ValueError(f"({x}, {y}) is not an edge")
    contracted, z, vmap = contract_edge(g, exy)
    if not validate_subdivision(contracted, cert):
        raise ValueError("certificate does not validate in the contracted graph")

    inv: dict[int, int] = {}
    for old in range(g.n):
        if old not in (x, y):
            new = vmap[old]
            if new is None:
                raise InternalInconsistencyError(
                    f"contraction of ({x}, {y}) dropped vertex {old}"
                )
            inv[new] = old

    def t(w: int) -> int:
        return inv[w]

    def t_path(path) -> tuple[int, ...]:
        return tuple(inv[w] for w in path)

    if z not in cert.branch:
        touching = [i for i, p in enumerate(cert.paths) if z in p]
        if not touching:
            return SubdivisionCertificate(
                cert.pattern,
                tuple(t(b) for b in cert.branch),
                tuple(t_path(p) for p in cert.paths),
            )
        # interior of exactly one path: splice x, y, or the edge xy in
        (i,) = touching
        path = cert.paths[i]
        k = path.index(z)
        a, b = t(path[k - 1]), t(path[k + 1])
        splice = None
        for cand in ((x,), (y,), (x, y), (y, x)):
            if g.has_edge(a, cand[0]) and g.has_edge(cand[-1], b):
                splice = cand
                break
        if splice is None:
            raise InternalInconsistencyError(
                "contracted adjacency has no preimage"
            )
        new_paths = [
            t_path(p) if j != i else () for j, p in enumerate(cert.paths)
        ]
        new_paths[i] = t_path(path[:k]) + splice + t_path(path[k + 1 :])
        return SubdivisionCertificate(
            cert.pattern, tuple(t(b) for b in cert.branch), tuple(new_paths)
        )

    return _lift_branch_case(g, x, y, cert, z, inv)


def _lift_branch_case(
    g: Graph,
    x: int,
    y: int,
    cert: SubdivisionCertificate,
    z: int,
    inv: dict[int, int],
) -> SubdivisionCertificate:
    pattern = cert.pattern
    edge_list = pattern.edge_list
    pz = cert.branch.index(z)

    def t(w: int) -> int:
        return inv[w]

    # orient every path at the merged branch vertex to start at z, and
    # classify its first step by which end of xy carries it in G
    incident: list[int] = []
    first_nbr: dict[int, int] = {}
    tail: dict[int, tuple[int, ...]] = {}
    for i, (pu, pv) in enumerate(edge_list):
        if pz not in (pu, pv):
            continue
        path = cert.paths[i]
        if path[0] != z:
            path = path[::-1]
        incident.append(i)
        first_nbr[i] = t(path[1])
        tail[i] = tuple(t(w) for w in path[1:])

    xm = g.adj_mask[x]
    ym = g.adj_mask[y]
    fixed_x = [i for i in incident if xm >> first_nbr[i] & 1 and not ym >> first_nbr[i] & 1]
    fixed_y = [i for i in incident if ym >> first_nbr[i] & 1 and not xm >> first_nbr[i] & 1]
    flex = [i for i in incident if i not in fixed_x and i not in fixed_y]

    new_branch = [-1 if b == z else t(b) for b in cert.branch]
    new_paths = {
        i: tuple(t(w) for w in cert.paths[i])
        for i in range(len(edge_list))
        if i not in incident
    }

    if not fixed_y or not fixed_x:
        # every strand can hang off one end; ties go to x
        m = x if not fixed_y else y
        new_branch[pz] = m
        for i in incident:
            new_paths[i] = (m,) + tail[i]
    elif len(fixed_x) == 1 or len(fixed_y) == 1:
        # majority end keeps the branch vertex; the single minority strand
        # is rerouted through the edge xy (ties resolved toward x)
        if len(fixed_x) >= len(fixed_y):
            major, minor, j = x, y, fixed_y[0]
        else:
            major, minor, j = y, x, fixed_x[0]
        new_branch[pz] = major
        for i in incident:
            if i == j:
                new_paths[i] = (major, minor) + tail[i]
            else:
                new_paths[i] = (major,) + tail[i]
    else:
        # 2-2 split of a degree-4 branch vertex: K5 only
        if pattern is not Pattern.K5 or flex:
            raise InternalInconsistencyError(
                f"{pattern.value} branch vertex split between both ends of "
                "the contracted edge"
            )
        return _rebuild_k33(g, x, y, cert, pz, fixed_x, fixed_y, tail, inv)

    # restore the pattern-edge orientation (branch[pu] first)
    out = []
    for i, (pu, pv) in enumerate(edge_list):
        path = new_paths[i]
        if path[0] != new_branch[pu]:
            path = path[::-1]
        out.append(path)
    return SubdivisionCertificate(pattern, tuple(new_branch), tuple(out))


def _rebuild_k33(
    g: Graph,
    x: int,
    y: int,
    cert: SubdivisionCertificate,
    pz: int,
    fixed_x: list[int],
    fixed_y: list[int],
    tail: dict[int, tuple[int, ...]],
    inv: dict[int, int],
) -> SubdivisionCertificate:
    """K5 branch vertex split 2-2 into x and y.

    With x carrying the strands to pattern vertices a, b and y the strands
    to c, d, the six K3,3 branch vertices are (a, b, y | c, d, x): x joins
    a, b by its strands and y by the edge xy; y joins c, d by its strands;
    the four kept K5 paths a-c, a-d, b-c, b-d supply the rest.  The K5
    paths a-b and c-d are discarded.
    """
    edge_list = cert.pattern.edge_list

    def other(i: int) -> int:
        pu, pv = edge_list[i]
        return pv if pu == pz else pu

    xa, xb = sorted(other(i) for i in fixed_x)
    yc, yd = sorted(other(i) for i in fixed_y)
    strand: dict[int, tuple[int, ...]] = {}
    for i in fixed_x + fixed_y:
        strand[other(i)] = tail[i]

    def t(w: int) -> int:
        return inv[w]

    def k5_path(p: int, q: int) -> tuple[int, ...]:
        p, q = min(p, q), max(p, q)
        i = edge_list.index((p, q))
        return tuple(t(w) for w in cert.paths[i])

    b = {p: t(cert.branch[p]) for p in (xa, xb, yc, yd)}
    new_branch = (b[xa], b[xb], y, b[yc], b[yd], x)

    def oriented(path: tuple[int, ...], start: int) -> tuple[int, ...]:
        return path if path[0] == start else path[::-1]

    paths = (
        oriented(k5_path(xa, yc), b[xa]),
        oriented(k5_path(xa, yd), b[xa]),
        oriented((x,) + strand[xa], b[xa]),
        oriented(k5_path(xb, yc), b[xb]),
        oriented(k5_path(xb, yd), b[xb]),
        oriented((x,) + strand[xb], b[xb]),
        oriented((y,) + strand[yc], y),
        oriented((y,) + strand[yd], y),
        (y, x),
    )
    return SubdivisionCertificate(Pattern.K33, new_branch, paths)


# ---------------------------------------------------------------------------
# Minor certificate -> subdivision certificate
# ---------------------------------------------------------------------------


def minor_to_subdivision(g: Graph, cert: MinorCertificate) -> SubdivisionCertificate:
    """Convert a minor witness into a subdivision witness valid in the
    same graph.

    K5/K3,3: contract each branch set to a point (edge by edge along a
    spanning sequence), read off the pattern as a subgraph there, then
    lift the certificate back through the contractions in reverse.  A K5
    minor may therefore come back as a K3,3 subdivision.

    THETA: parallel pattern edges cannot survive simple-graph contraction,
    so the witness is extracted directly: the two spanning trees plus the
    three crossing edges have cyclomatic number two, and pruning leaves
    from that subgraph leaves exactly a theta.
    """
    if not validate_minor(g, cert):
        raise ValueError("minor certificate does not validate")
    if cert.pattern is Pattern.THETA:
        return _theta_minor_to_subdivision(g, cert)

    sets = [set(s) for s in cert.branch_sets]
    cur = g
    steps: list[tuple[Graph, int, int]] = []
    for p in range(len(sets)):
        while len(sets[p]) > 1:
            edge = min(
                normalize_edge(u, v)
                for u in sets[p]
                for v in cur.adj[u]
                if v in sets[p]
            )
            steps.append((cur, edge[0], edge[1]))
            cur, _, vmap = contract_edge(cur, edge)
            sets = [{vmap[v] for v in s} for s in sets]  # type: ignore[misc]

    branch = tuple(next(iter(sets[p])) for p in range(len(sets)))
    paths = tuple(
        (branch[pi], branch[pj]) for pi, pj in cert.pattern.edge_list
    )
    lifted = SubdivisionCertificate(cert.pattern, branch, paths)
    for graph_before, cx, cy in reversed(steps):
        lifted = lift_certificate(graph_before, cx, cy, lifted)
    return lifted


def _theta_minor_to_subdivision(
    g: Graph, cert: MinorCertificate
) -> SubdivisionCertificate:
    edges: set[Edge] = set(normalize_edge(*e) for e in cert.cross_edges)
    for s in cert.branch_sets:
        edges |= _spanning_tree_edges(g, s)

    # prune leaves down to the 2-core, which must be a theta: every cycle
    # of the subgraph uses at least two of the three crossing edges, so
    # two edge-disjoint cycles (a figure-8 or dumbbell core) cannot fit
    deg: dict[int, int] = {}
    inc: dict[int, set[Edge]] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        inc.setdefault(u, set()).add((u, v))
        inc.setdefault(v, set()).add((u, v))
    changed = True
    while changed:
        changed = False
        for v in sorted(deg):
            if deg[v] <= 1:
                for e in list(inc[v]):
                    u = e[0] if e[1] == v else e[1]
                    inc[u].discard(e)
                    inc[v].discard(e)
                    deg[u] -= 1
                    edges.discard(e)
                del deg[v], inc[v]
                changed = True

    hubs = sorted(v for v in deg if deg[v] == 3)
    if len(hubs) != 2:
        raise InternalInconsistencyError(
            f"theta core has {len(hubs)} degree-3 vertices, not 2"
        )
    u, v = hubs
    paths = []
    for start in sorted(w for e in inc[u] for w in e if w != u):
        path = [u, start]
        prev, cur = u, start
        while cur != v:
            (nxt,) = [
                w
                for e in inc[cur]
                for w in e
                if w != cur and w != prev
            ]
            path.append(nxt)
            prev, cur = cur, nxt
        paths.append(tuple(path))
    paths.sort(key=lambda p: (len(p), p))
    return SubdivisionCertificate(Pattern.THETA, (u, v), tuple(paths))


def _spanning_tree_edges(g: Graph, s: frozenset[int]) -> set[Edge]:
    root = min(s)
    seen = {root}
    tree: set[Edge] = set()
    frontier = [root]
    while frontier:
        v = frontier.pop(0)
        for w in g.adj[v]:
            if w in s and w not in seen:
                seen.add(w)
                tree.add(normalize_edge(v, w))
                frontier.append(w)
    return tree
