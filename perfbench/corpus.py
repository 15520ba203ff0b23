"""Seeded graph families with answers known by construction.

Everything here is independent of planarcert: graphs are ``(n, edges)``
pairs with ``u < v`` edges, planar graphs come with a rotation read off a
straight-line drawing, and non-planar graphs come with the K5 / K3,3
subdivision they were built from.  Vertex ids are shuffled with the seeded
generator so that the searches see seed-dependent labelings of fixed
shapes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

K5_EDGES = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
K33_EDGES = tuple((i, 3 + j) for i in range(3) for j in range(3))
PATTERN_EDGES = {"K5": K5_EDGES, "K33": K33_EDGES}


@dataclass
class Case:
    """One input graph.  ``planar`` is None when only the certificate, not
    the answer, is known in advance."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    planar: bool | None
    rotation: list[list[int]] | None = None
    certificate: dict | None = None
    # (path index, rerouted path): a path of the certificate rerouted
    # through another path's interior along added chords
    detours: list[tuple[int, list[int]]] = field(default_factory=list)


def edge_list_text(case: Case) -> str:
    lines = [f"n {case.n}"]
    lines.extend(f"{u} {v}" for u, v in case.edges)
    return "\n".join(lines) + "\n"


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _relabel(case: Case, rng: random.Random) -> Case:
    perm = list(range(case.n))
    rng.shuffle(perm)
    edges = sorted(_norm(perm[u], perm[v]) for u, v in case.edges)
    rotation = None
    if case.rotation is not None:
        rotation = [[] for _ in range(case.n)]
        for v, cyc in enumerate(case.rotation):
            rotation[perm[v]] = [perm[w] for w in cyc]
    cert = None
    if case.certificate is not None:
        cert = {
            "pattern": case.certificate["pattern"],
            "branch": [perm[b] for b in case.certificate["branch"]],
            "paths": [[perm[w] for w in p] for p in case.certificate["paths"]],
        }
    detours = [(k, [perm[w] for w in p]) for k, p in case.detours]
    return Case(case.name, case.n, edges, case.planar, rotation, cert, detours)


def _rotation_from_positions(n, edges, pos) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = []
    for v in range(n):
        x, y = pos[v]
        rotation.append(
            sorted(nbrs[v], key=lambda w: math.atan2(pos[w][1] - y, pos[w][0] - x))
        )
    return rotation


# ---------------------------------------------------------------------------
# Planar families
# ---------------------------------------------------------------------------


def _grid_edges(rows: int, cols: int, diagonals: bool = False) -> list[tuple[int, int]]:
    """Edges of a rows x cols grid, vertex r * cols + c at row r, column c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if diagonals and r + 1 < rows and c + 1 < cols:
                edges.append((v, v + cols + 1))
    return edges


def grid(rows: int, cols: int, rng: random.Random, diagonals: bool = False) -> Case:
    """rows x cols grid; with diagonals, every cell is split into two
    triangles (a triangulated grid)."""
    n = rows * cols
    pos = [(c, r) for r in range(rows) for c in range(cols)]
    edges = _grid_edges(rows, cols, diagonals)
    kind = "trigrid" if diagonals else "grid"
    case = Case(
        f"{kind}-{rows}x{cols}", n, edges, True,
        rotation=_rotation_from_positions(n, edges, pos),
    )
    return _relabel(case, rng)


def triangulated_subgraph(rows: int, cols: int, keep: float, rng: random.Random) -> Case:
    """Random edge subset of a triangulated grid (planar by construction)."""
    full = grid(rows, cols, rng, diagonals=True)
    edges = [e for e in full.edges if rng.random() < keep]
    return Case(f"trisub-{rows}x{cols}", full.n, edges, True)


def prism(k: int, rng: random.Random) -> Case:
    """Two k-cycles joined by a perfect matching: a planar cubic graph."""
    edges = [_norm(i, (i + 1) % k) for i in range(k)]
    edges += [_norm(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return _relabel(Case(f"prism-{2 * k}", 2 * k, sorted(edges), True), rng)


def matching(m: int, rng: random.Random) -> Case:
    case = Case(f"matching-{m}", 2 * m, [(2 * i, 2 * i + 1) for i in range(m)], True)
    return _relabel(case, rng)


def path(n: int, rng: random.Random) -> Case:
    case = Case(f"path-{n}", n, [(i, i + 1) for i in range(n - 1)], True)
    return _relabel(case, rng)


def random_tree(n: int, rng: random.Random) -> Case:
    """Random recursive tree: vertex i hangs off a uniform earlier vertex."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return _relabel(Case(f"tree-{n}", n, edges, True), rng)


# ---------------------------------------------------------------------------
# Non-planar families
# ---------------------------------------------------------------------------


def _split(total: int, parts: int, rng: random.Random, even: bool) -> list[int]:
    """Composition of total into `parts` non-negative integers: as equal as
    possible in shuffled order when `even`, else uniformly random."""
    if even:
        sizes = [total // parts + (i < total % parts) for i in range(parts)]
        rng.shuffle(sizes)
        return sizes
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def planted_subdivision(
    pattern: str,
    n: int,
    rng: random.Random,
    pendant: int = 0,
    detour: bool = False,
    even: bool = False,
) -> Case:
    """A subdivision of K5 or K3,3 with n - pendant vertices, plus a random
    forest of `pendant` vertices hanging off it.  Paths get equal lengths
    when `even`, random ones otherwise.  With `detour`, two chords
    let one path be rerouted through another's interior (a certificate
    tamper that still follows edges)."""
    pattern_edges = PATTERN_EDGES[pattern]
    bc = 5 if pattern == "K5" else 6
    # a detour needs one interior vertex on the first path, three on the second
    extra = (1, 3) if detour else (0, 0)
    interiors = _split(n - pendant - bc - sum(extra), len(pattern_edges), rng, even)
    interiors[0] += extra[0]
    interiors[1] += extra[1]
    nxt = bc
    edges = []
    paths = []
    for (pu, pv), k in zip(pattern_edges, interiors):
        p = [pu] + list(range(nxt, nxt + k)) + [pv]
        nxt += k
        paths.append(p)
        edges.extend(_norm(a, b) for a, b in zip(p, p[1:]))
    detours = []
    if detour:
        a, b = paths[0], paths[1]
        x, y, z = a[1], b[1], b[3]
        edges.extend([_norm(x, y), _norm(x, z)])
        detours.append((1, b[:2] + [x] + b[3:]))
    for i in range(pendant):
        edges.append((rng.randrange(nxt + i), nxt + i))
    cert = {"pattern": pattern, "branch": list(range(bc)), "paths": paths}
    case = Case(
        f"sub{pattern}-{n}", n, sorted(set(edges)), False,
        certificate=cert, detours=detours,
    )
    return _relabel(case, rng)


def subdivided_petersen(times: int, rng: random.Random) -> Case:
    """The Petersen graph with every edge subdivided `times` times."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    nxt = 10
    edges = []
    for u, v in outer + spokes + inner:
        chain = [u] + list(range(nxt, nxt + times)) + [v]
        nxt += times
        edges.extend(_norm(a, b) for a, b in zip(chain, chain[1:]))
    return _relabel(Case(f"petersen-sub{times}", nxt, sorted(edges), False), rng)


def k33_in_grid(side: int, rng: random.Random) -> Case:
    """A side x side grid whose outer cycle, cut at six points, becomes a
    hexagon with three added long diagonals: a K3,3 subdivision planted
    around a large planar bulk."""
    n = side * side
    edges = set(_grid_edges(side, side))
    last = side - 1
    ring = (
        [c for c in range(last)]
        + [r * side + last for r in range(last)]
        + [last * side + c for c in range(last, 0, -1)]
        + [r * side for r in range(last, 0, -1)]
    )
    at = [k * len(ring) // 6 for k in range(6)] + [len(ring)]
    hexagon = [ring[i] for i in at[:6]]
    arcs = [ring[at[k]:at[k + 1] + 1] for k in range(5)] + [ring[at[5]:] + [ring[0]]]
    diagonals = [(0, 3), (1, 4), (2, 5)]
    for a, b in diagonals:
        edges.add(_norm(hexagon[a], hexagon[b]))
    # part A = hexagon corners 0, 2, 4; part B = 1, 3, 5; arcs[k] runs from
    # corner k to corner k + 1
    a_part, b_part = (0, 2, 4), (1, 3, 5)
    paths = []
    for i in a_part:
        for j in b_part:
            if (i, j) in diagonals or (j, i) in diagonals:
                paths.append([hexagon[i], hexagon[j]])
            elif (i + 1) % 6 == j:
                paths.append(arcs[i])
            else:
                paths.append(arcs[j][::-1])
    cert = {
        "pattern": "K33",
        "branch": [hexagon[i] for i in a_part + b_part],
        "paths": paths,
    }
    case = Case(f"k33grid-{side}", n, sorted(edges), False, certificate=cert)
    return _relabel(case, rng)


def random_cubic(n: int, rng: random.Random) -> Case:
    """Random simple 3-regular graph (configuration model with rejection);
    planarity not known in advance."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = _norm(u, v)
            if u == v or e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Case(f"cubic-{n}", n, sorted(edges), None)


def gnp(n: int, p: float, rng: random.Random) -> Case:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Case(f"gnp-{n}", n, edges, None)
