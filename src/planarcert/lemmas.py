"""Edge-deletion predicates characterizing the minimal non-planar graphs.

For each edge xy of a graph K, look at K - x - y (both endpoints and all
their edges removed).  Three conditions turn out to be equivalent on the
graphs where they matter (at least one edge, minimum degree >= 3):

  condition1: every K - x - y is theta-free and has minimum degree >= 2;
  condition2: every K - x - y is a cycle on >= 3 vertices;
  condition3: K is isomorphic to K5 or to K3,3 (read off its vertex and
              edge counts and the neighbors of one vertex).

The implications (3) => (2) => (1) hold for every graph with an edge and
are checked whenever a report is built; the converse direction is what
the exhaustive campaigns in `harness` machine-check.

Theta-freeness is read off the biconnected blocks of K - x - y
(`subdivision.contains_theta`), so a report costs one linear pass per
edge of K, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InternalInconsistencyError
from .graphs import Edge, Graph, delete_vertices
from .subdivision import contains_theta

REASON_THETA = "theta-found"
REASON_LOW_DEGREE = "low-degree"
REASON_NOT_A_CYCLE = "not-a-cycle"


@dataclass(frozen=True)
class LemmaReport:
    condition1: bool
    condition2: bool
    condition3: bool
    witnesses: tuple[tuple[Edge, str], ...]


def _is_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and all(len(nbrs) == 2 for nbrs in g.adj)
        and g.is_connected()
    )


def _condition1_failure(reduced: Graph) -> str | None:
    """Why K - x - y breaks condition1, or None if it does not."""
    if any(len(nbrs) < 2 for nbrs in reduced.adj):
        return REASON_LOW_DEGREE
    if contains_theta(reduced):
        return REASON_THETA
    return None


def _reductions(g: Graph) -> Iterator[tuple[Edge, Graph]]:
    """Each edge xy with K - x - y, in ascending edge order."""
    for x, y in g.sorted_edges():
        yield (x, y), delete_vertices(g, (x, y))[0]


def condition1(g: Graph) -> bool:
    """Every K - x - y is theta-free with all degrees >= 2.

    Vacuously true for edgeless graphs; an empty K - x - y also passes
    (there is no vertex to violate the degree bound).
    """
    return all(
        _condition1_failure(reduced) is None for _, reduced in _reductions(g)
    )


def condition2(g: Graph) -> bool:
    """Every K - x - y is a cycle on >= 3 vertices; false if K is edgeless.

    K - x - y keeps m - deg x - deg y + 1 edges on n - 2 vertices, and a
    cycle has as many edges as vertices: an edge with deg x + deg y other
    than m - n + 3 fails before any reduction is built."""
    if not g.num_edges:
        return False
    adj = g.adj
    target = g.num_edges - g.n + 3
    for nbrs in adj:
        need = target - len(nbrs)
        for y in nbrs:
            if len(adj[y]) != need:
                return False
    return all(_is_cycle(reduced) for _, reduced in _reductions(g))


def condition3(g: Graph) -> bool:
    """K is K5 or K3,3, recognized by counts: K5 is the only graph with 5
    vertices and 10 edges.  A graph with 6 vertices and 9 edges is K3,3
    when vertex 0 has three neighbors and each vertex outside that triple
    has exactly those three: that puts all 9 edges between the triples."""
    if g.n == 5:
        return g.num_edges == 10
    if g.n != 6 or g.num_edges != 9:
        return False
    side = g.adj[0]
    return len(side) == 3 and all(
        nbrs == side for v, nbrs in enumerate(g.adj) if v not in side
    )


def lemma_report(g: Graph) -> LemmaReport:
    """Evaluate all three conditions, with per-edge failure witnesses."""
    witnesses: list[tuple[Edge, str]] = []
    c1 = True
    c2 = g.num_edges > 0
    for edge, reduced in _reductions(g):
        reason = _condition1_failure(reduced)
        if reason is not None:
            witnesses.append((edge, reason))
            c1 = False
        if not _is_cycle(reduced):
            witnesses.append((edge, REASON_NOT_A_CYCLE))
            c2 = False
    c3 = condition3(g)
    # the easy implication chain must never break at runtime
    if c3 and not c2:
        raise InternalInconsistencyError("condition3 held without condition2")
    if c2 and not c1:
        raise InternalInconsistencyError("condition2 held without condition1")
    return LemmaReport(c1, c2, c3, tuple(witnesses))
