"""Edge-deletion predicates characterizing the minimal non-planar graphs.

For each edge xy of a graph K, look at K - x - y (both endpoints and all
their edges removed).  Three conditions turn out to be equivalent on the
graphs where they matter (at least one edge, minimum degree >= 3):

  condition1: every K - x - y is theta-free and has minimum degree >= 2;
  condition2: every K - x - y is a cycle on >= 3 vertices;
  condition3: K is isomorphic to K5 or to K3,3.

The implications (3) => (2) => (1) hold for every graph with an edge and
are checked whenever a report is built; the converse direction is what
the exhaustive campaigns in `harness` machine-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .graphs import Edge, Graph, are_isomorphic, complete_bipartite, complete_graph, delete_vertices, normalize_edge
from .subdivision import contains_theta

_K5 = complete_graph(5)
_K33 = complete_bipartite(3, 3)

REASON_THETA = "theta-found"
REASON_LOW_DEGREE = "low-degree"
REASON_NOT_A_CYCLE = "not-a-cycle"


@dataclass(frozen=True)
class LemmaReport:
    condition1: bool
    condition2: bool
    condition3: bool
    witnesses: tuple[tuple[Edge, str], ...]


def _end_deleted(g: Graph, x: int, y: int) -> Graph:
    reduced, _ = delete_vertices(g, (x, y))
    return reduced


def _is_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and all(len(nbrs) == 2 for nbrs in g.adj)
        and g.is_connected()
    )


def condition1(g: Graph) -> bool:
    """Every K - x - y is theta-free with all degrees >= 2.

    Vacuously true for edgeless graphs; an empty K - x - y also passes
    (there is no vertex to violate the degree bound).
    """
    for x, y in g.sorted_edges():
        reduced = _end_deleted(g, x, y)
        if any(len(nbrs) < 2 for nbrs in reduced.adj):
            return False
        if contains_theta(reduced):
            return False
    return True


def condition2(g: Graph) -> bool:
    """Every K - x - y is a cycle on >= 3 vertices; false if K is edgeless."""
    if not g.edges:
        return False
    return all(_is_cycle(_end_deleted(g, x, y)) for x, y in g.sorted_edges())


def condition3(g: Graph) -> bool:
    return are_isomorphic(g, _K5) or are_isomorphic(g, _K33)


def deletion_lemma_predicates(g: Graph, x: int, y: int) -> tuple[bool, bool]:
    """(degree bound holds, theta-free) for G - x - y over an edge xy.

    The degree bound requires G - x - y to be nonempty with all degrees
    >= 2.
    """
    if normalize_edge(x, y) not in g.edges:
        raise ValueError(f"({x}, {y}) is not an edge")
    reduced = _end_deleted(g, x, y)
    deg_ok = reduced.n > 0 and all(len(nbrs) >= 2 for nbrs in reduced.adj)
    return deg_ok, not contains_theta(reduced)


def lemma_report(g: Graph) -> LemmaReport:
    """Evaluate all three conditions, with per-edge failure witnesses."""
    witnesses: list[tuple[Edge, str]] = []
    c1 = True
    c2 = bool(g.edges)
    for x, y in g.sorted_edges():
        reduced = _end_deleted(g, x, y)
        if any(len(nbrs) < 2 for nbrs in reduced.adj):
            witnesses.append(((x, y), REASON_LOW_DEGREE))
            c1 = False
        elif contains_theta(reduced):
            witnesses.append(((x, y), REASON_THETA))
            c1 = False
        if not _is_cycle(reduced):
            witnesses.append(((x, y), REASON_NOT_A_CYCLE))
            c2 = False
    c3 = condition3(g)
    # the easy implication chain must never break at runtime
    if c3 and not c2:
        raise InternalInconsistencyError("condition3 held without condition2")
    if c2 and not c1:
        raise InternalInconsistencyError("condition2 held without condition1")
    return LemmaReport(c1, c2, c3, tuple(witnesses))
