"""Kuratowski extraction: a K5 or K3,3 subdivision in a graph the
left-right test rejects, with that test as the only oracle.

It works on a reduced copy H of g whose edges each stand for a path of
g: degree-1 vertices are pruned, each degree-2 vertex is suppressed into
one chain edge, and a chain whose ends are already adjacent is dropped,
since a parallel edge never changes planarity.  The first biconnected
component of H the test rejects is kept.  That test reports its DFS tree
and the back edges of the conflict it could not resolve (Brandes 2009,
sec. 3-4); the H edges outside this failure set are deleted if the test
still rejects what is left, else the hint is dropped.  Blocks of about a
quarter of H's edges, from a shuffled queue, are then deleted while the
test still rejects what remains, H being reduced after every deletion.
A block H cannot lose is halved, and each half tested in turn; a single
edge H cannot lose stays, and so does any chain built through it.  H
ends as K5 (5 vertices, 10 edges) or K3,3 (6 vertices, 9 edges: minimum
degree 3 makes H cubic, and the other cubic graph on 6 vertices, the
prism, is planar).  Its edges expand into g's, and `pruned_chains` and
`read_off`, shared with the minor route, name the certificate."""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator

from .embedding import _left_right, _step_budget
from .errors import InternalInconsistencyError, StepBudget
from .graphs import Edge, Graph, biconnected_components
from .subdivision import (
    SubdivisionCertificate, pruned_chains, read_off, validate_subdivision
)


class _Reduced:
    """H: edge e joins ends[e][0] to ends[e][1]; an edge built by
    suppressing vertex v has parts[e] = (edge from ends[e][0] to v, v, edge
    from v to ends[e][1]), an edge of g has parts[e] = None.  nbr[v] maps
    each neighbor of v in H to the edge joining them, in the order the
    edges were made, and is None once v has left H.  H has `order`
    vertices and the edges in `alive`; `kept` holds those H cannot lose,
    `queue` the chains reduction builds (the deletion puts g's edges in
    front of them), and every test draws on `budget`."""

    def __init__(self, g: Graph, budget: StepBudget) -> None:
        self.budget, self.order = budget, g.n
        self.ends: list[Edge] = list(g.sorted_edges())
        self.parts: list[tuple[int, int, int] | None] = [None] * len(self.ends)
        nbr: list[dict[int, int] | None] = [{} for _ in range(g.n)]
        for e, (u, v) in enumerate(self.ends):
            nbr[u][v] = nbr[v][u] = e
        self.nbr = nbr
        self.alive = set(range(len(self.ends)))
        self.kept: set[int] = set()
        self.queue: deque[int] = deque()

    def copy(self) -> _Reduced:
        """A copy of H whose changes leave H as it is; the budget is shared."""
        dup = object.__new__(_Reduced)
        dup.budget, dup.order = self.budget, self.order
        dup.nbr = [None if around is None else around.copy() for around in self.nbr]
        dup.ends, dup.parts = self.ends[:], self.parts[:]
        dup.alive, dup.kept = set(self.alive), set(self.kept)
        dup.queue = deque(self.queue)
        return dup

    def settled(self) -> bool:
        """Whether H has the shape of K5 or K3,3."""
        return (self.order, len(self.alive)) in ((5, 10), (6, 9))

    def reduce(self, stack: list[int]) -> None:
        """Prune each vertex on the stack with fewer than two neighbors and
        suppress each with two, then go on with the neighbors this leaves."""
        nbr, ends, parts = self.nbr, self.ends, self.parts
        alive, kept, queue = self.alive, self.kept, self.queue
        gone = 0
        while stack:
            v = stack.pop()
            around = nbr[v]
            if around is None or len(around) > 2:
                continue
            nbr[v] = None
            gone += 1
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
        self.order -= gone

    def delete(self, block: Iterable[int]) -> None:
        """Delete these H edges, and re-reduce H around their ends."""
        nbr, ends, alive = self.nbr, self.ends, self.alive
        stack: list[int] = []
        for e in block:
            a, b = ends[e]
            alive.discard(e)
            del nbr[a][b], nbr[b][a]
            stack += (a, b)
        self.reduce(stack)

    def failure(self, edges: Iterable[int]) -> Iterator[int] | None:
        """None if the left-right test accepts the graph of these H edges,
        else the H edges of its failure, mapped back as they are read.  It
        runs on compact ids, so it costs O(|edges|), not O(n)."""
        ids: dict[int, int] = {}
        adj: list[list[int]] = []
        m = 0
        for a, b in map(self.ends.__getitem__, edges):
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
            m += 1
        cycles, failed = _left_right(adj, m, self.budget)
        if cycles is not None:
            return None
        names, nbr = list(ids), self.nbr  # H has no parallel edges
        return (nbr[names[i]][names[j]] for i, j in failed)

    def expanded(self) -> list[Edge]:
        """The edges of g that H's edges stand for."""
        edges, todo = [], list(self.alive)
        while todo:
            e = todo.pop()
            split = self.parts[e]
            if split is None:
                edges.append(self.ends[e])
            else:
                todo += (split[0], split[2])
        return edges


def lr_kuratowski(
    g: Graph, node_budget: int | StepBudget | None = None
) -> SubdivisionCertificate:
    """A K5 or K3,3 subdivision in g, extracted as the module docstring
    describes.  `node_budget` bounds the oriented edges over all tests
    together, and may be a StepBudget shared with other calls; overrunning
    it raises SearchBudgetExceeded, and an accepted g, a final H of another
    shape or a certificate that fails validation InternalInconsistencyError."""
    h = _Reduced(g, _step_budget(node_budget))
    h.reduce(list(range(g.n)))
    localised = False
    if not h.settled():
        # a component with fewer than the 9 edges of K3,3 is planar: keep
        # the first one the test rejects
        for comp in biconnected_components(h.nbr):
            if len(comp) >= 9 and (found := h.failure(comp)) is not None:
                break
        else:
            raise InternalInconsistencyError(
                "left-right test accepts the graph: no obstruction to extract"
            )
        # the hint is tried on a copy, unless it is empty (the test rejected
        # on edge count alone) or leaves out less than a first block would
        hint = set(found)
        block = [e for e in h.alive if e not in hint]
        if hint and len(block) >= max(1, len(h.alive) // 4):
            trial = h.copy()
            trial.delete(block)
            if trial.failure(trial.alive) is not None:
                h, localised = trial, True
        if not localised and len(comp) < len(h.alive):
            inside = set(comp)
            h.delete([e for e in h.alive if e not in inside])
    alive, kept, queue = h.alive, h.kept, h.queue
    if not h.settled():
        # a shuffled queue scatters each block over H: edges with nearby
        # labels are often nearby in the graph, and deleting such a band
        # tends to cut every obstruction at once.  g's edges go ahead of
        # the chains built so far; once localised, just the few of them
        # left in H are shuffled
        if localised:
            shuffled = sorted(e for e in alive if e < g.num_edges)
        else:
            shuffled = list(range(g.num_edges))
        random.Random(0).shuffle(shuffled)
        queue.extendleft(reversed(shuffled))
    halves: list[list[int]] = []  # of blocks H could not lose, next on top
    while not h.settled():
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
        if h.failure(e for e in alive if e not in drop) is not None:
            h.delete(block)
        elif len(block) == 1:
            kept.add(block[0])
        else:
            half = (len(block) + 1) // 2
            halves += (block[half:], block[:half])
    if not h.settled():
        raise InternalInconsistencyError(
            f"extraction ended with {h.order} vertices and {len(alive)} "
            "edges, neither K5 nor K3,3"
        )
    cert = read_off(pruned_chains(h.expanded()))
    if not validate_subdivision(g, cert):
        raise InternalInconsistencyError("extracted certificate does not validate")
    return cert
