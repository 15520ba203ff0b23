"""Exhaustive and randomized verification campaigns.

Each campaign replays one piece of the supporting theory over every small
graph (or a seeded random stream) and reports mismatches as (n, edge mask)
records, so a failure reproduces from the report alone.  Campaigns are
deterministic given their parameters and seed; the canonical key-value
serialization omits wall time so reports are byte-identical across runs.

Every graph is judged on its own, so a campaign judges its stream on every
CPU the process may use, in forked children and the parent at once (see
`_campaign`).  The stream is cut into blocks of consecutive graphs, and
each worker claims the next unclaimed block from one shared queue until
the queue is drained, so a worker that starts late or runs slowly simply
claims fewer blocks.  The counts are summed and the mismatches put back in
stream order, so a report is the same whatever the number of CPUs; a
process pinned to one CPU forks nothing.  The exhaustive streams hand the
children cheap (n, mask) descriptors, so each child builds only the graphs
of the blocks it claims; the random streams draw every graph in the
parent, in order, so their seeded streams stay fixed.

Report counting conventions, per campaign:
  kuratowski / kuratowski_classes / menger_cubic -- every graph is decided,
      so planar_count + nonplanar_count == graphs_examined;
  lemma -- nonplanar_count tallies the graphs matching the obstruction
      characterization (those are K5/K3,3 copies); nothing else is decided;
  chartrand_harary -- planar_count tallies graphs realized with a covering
      face (their rotation is a planarity witness); nothing else is decided;
  lifting -- counts tally per-edge contraction outcomes: planar_count the
      planar contractions skipped, nonplanar_count the certificates lifted.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
import random
import select
import signal
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, NoReturn, overload

from .errors import CapacityError
from .graphs import Graph, contract_edge, from_edge_mask
from .lemmas import condition1, condition2, condition3
from .planarity import decide_via_minor, route_bits
from .embedding import find_covering_planar_rotation
from .subdivision import (
    Pattern,
    contains_theta,
    find_kuratowski,
    find_subdivision,
    lift_through_contraction,
    validate_subdivision,
)

Rng = random.Random

MAX_EXHAUSTIVE_N = 6
MAX_CLASS_N = 7
# the random campaigns' fixed shape: tries per cubic graph, the cubic sizes
# cycled through, and the lifting stream's edge probabilities and largest n
CUBIC_RETRIES = 10_000
MENGER_CUBIC_SIZES = (8, 10, 12)
LIFTING_PS = (0.3, 0.5, 0.7)
LIFTING_MAX_N = 9


@dataclass(frozen=True)
class CampaignReport:
    campaign: str
    graphs_examined: int
    planar_count: int
    nonplanar_count: int
    mismatches: tuple[tuple[int, int], ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_kv(self) -> str:
        """Canonical machine-readable form; byte-identical across runs."""
        lines = [
            f"campaign {self.campaign}",
            f"graphs_examined {self.graphs_examined}",
            f"planar_count {self.planar_count}",
            f"nonplanar_count {self.nonplanar_count}",
            f"mismatch_count {len(self.mismatches)}",
        ]
        for n, mask in self.mismatches:
            lines.append(f"mismatch {n} {mask}")
        lines.append(f"passed {'true' if self.passed else 'false'}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (
            f"[{status}] {self.campaign}: {self.graphs_examined} examined, "
            f"{self.planar_count} planar, {self.nonplanar_count} non-planar, "
            f"{len(self.mismatches)} mismatches ({self.wall_time:.2f}s)"
        )
        body = "".join(
            f"\n  mismatch: n={n} mask={mask}" for n, mask in self.mismatches
        )
        return head + body


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def make_rng(seed: int) -> Rng:
    return random.Random(seed)


def random_graph(n: int, p: float, rng: Rng) -> Graph:
    """Each vertex pair becomes an edge independently with probability p.

    Pairs are drawn in lexicographic order, so every vertex receives its
    smaller neighbors before its larger ones, each group ascending: the
    neighbor lists come out sorted."""
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u].append(v)
            adj[v].append(u)
            m += 1
    return Graph.from_adjacency(tuple(map(tuple, adj)), m)


def random_cubic_graph(n: int, rng: Rng) -> Graph:
    """Random connected 3-regular graph: three overlaid perfect matchings,
    rejecting overlaps (parallel edges) and disconnected unions."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    for _ in range(CUBIC_RETRIES):
        adj: list[list[int]] = [[] for _ in range(n)]
        ok = True
        for _ in range(3):
            perm = rng.sample(range(n), n)
            for i in range(0, n, 2):
                u, v = perm[i], perm[i + 1]
                if v in adj[u]:
                    ok = False
                    break
                adj[u].append(v)
                adj[v].append(u)
            if not ok:
                break
        if not ok:
            continue
        g = Graph.from_adjacency(tuple(map(tuple, map(sorted, adj))), 3 * n // 2)
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected cubic graph found in {CUBIC_RETRIES} tries")


# ---------------------------------------------------------------------------
# Canonical forms for isomorphism dedup
# ---------------------------------------------------------------------------


def _edge_bit_columns(n: int) -> list[tuple[int, ...]]:
    """For each edge-mask bit, its image (1 << new position) under every
    vertex permutation of 0..n-1, in itertools.permutations order."""
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {}
    for i, (u, v) in enumerate(pairs):
        bit_of[u, v] = bit_of[v, u] = 1 << i
    perms = list(itertools.permutations(range(n)))
    return [tuple(bit_of[perm[u], perm[v]] for perm in perms) for u, v in pairs]


def _mask_orbit(mask: int, columns: list[tuple[int, ...]], count: int) -> list[int]:
    """The edge mask's image under each of the `count` relabelings whose
    bit images `columns` holds: one OR across all relabelings per set bit."""
    images: Iterable[int] = itertools.repeat(0, count)
    while mask:
        bit = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        images = map(operator.or_, images, columns[bit])
    return list(images)


def enumerate_graph_class_masks(n: int) -> list[int]:
    """One edge mask per isomorphism class of n-vertex graphs, ascending.

    Walks all 2^C(n,2) masks in order and marks each newly seen mask's
    whole relabeling orbit, so the representative kept for every class is
    its least edge mask over all relabelings.  Relabeling commutes with
    complementing, so the complements of an orbit form the complementary
    class's orbit: each new orbit is mapped once, from whichever of the
    mask and its complement has fewer bits set, and both orbits are marked
    together, the complementary one contributing its least mask.
    """
    if n > MAX_CLASS_N:
        raise CapacityError(f"class enumeration supports n <= {MAX_CLASS_N}")
    columns = _edge_bit_columns(n)
    count = math.factorial(n)
    bits = n * (n - 1) // 2
    full = (1 << bits) - 1
    seen = bytearray(1 << bits)
    reps = []
    for mask in range(1 << bits):
        if seen[mask]:
            continue
        dense = 2 * mask.bit_count() > bits
        orbit = _mask_orbit(full ^ mask if dense else mask, columns, count)
        flipped = [full ^ img for img in orbit]
        for img in itertools.chain(orbit, flipped):
            seen[img] = 1
        # a class whose complement is seen later has a greater least mask
        other = min(orbit if dense else flipped)
        reps.append(mask)
        if other != mask:
            reps.append(other)
    reps.sort()
    return reps


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


# What a judged graph adds to the planar and non-planar counts, and whether
# it passed; None skips the graph.
Judgement = tuple[int, int, bool] | None
# (stream index, exception): a graph's exception, or at index -1 one that
# ended a child outside any graph.
Failure = tuple[int, BaseException]
# What one worker's claims add up to: graphs examined, planar and non-planar
# counts, its failed graphs as (stream index, n, edge mask), and the
# exception that stopped it, if any.
Tally = tuple[int, int, int, list[tuple[int, int, int]], Failure | None]

# Bytes per claim-queue record (the stream index a block starts at), and the
# most the queue may hold: a pipe takes that many in one write, whole.
RECORD_BYTES = 4
QUEUE_BYTES = getattr(select, "PIPE_BUF", 512)


class _EdgeMaskGraphs(Sequence[Graph]):
    """The graphs `from_edge_mask` builds from each (n, masks) block, mask
    by mask, block by block.  A graph is built only when it is indexed, so
    a worker builds only the graphs it claims; a slice (step 1) is built in
    one walk over the blocks."""

    def __init__(self, blocks: Iterable[tuple[int, Sequence[int]]]) -> None:
        self._blocks = list(blocks)

    def __len__(self) -> int:
        return sum(len(masks) for _, masks in self._blocks)

    @overload
    def __getitem__(self, index: int) -> Graph: ...

    @overload
    def __getitem__(self, index: slice) -> list[Graph]: ...

    def __getitem__(self, index: int | slice) -> Graph | list[Graph]:
        if not isinstance(index, slice):
            i = range(len(self))[index]
            return self[i : i + 1][0]
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("graph slices take no step")
        graphs: list[Graph] = []
        for n, masks in self._blocks:
            if stop <= 0:
                break
            graphs += [from_edge_mask(n, mask) for mask in masks[max(start, 0) : stop]]
            start -= len(masks)
            stop -= len(masks)
        return graphs


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_size(length: int) -> int:
    """Graphs per block of a stream of `length` graphs: the fewest that keep
    the claim queue, one record per block, within PIPE_BUF bytes, so that
    filling it takes one write that cannot block."""
    return max(1, -(-length // (QUEUE_BYTES // RECORD_BYTES)))


def _judge_claims(
    queue: int, graphs: Sequence[Graph], judge: Callable[[Graph], Judgement]
) -> Tally:
    """Claim the next block from the queue and judge its graphs, until the
    queue is drained or a graph raises.  A graph's exception stops the
    claims and empties the queue: every block still in it starts later in
    the stream, so the other workers stop after their current block.  An
    exception that is not an `Exception` (an interrupt) passes through."""
    size = _block_size(len(graphs))
    examined = planar = nonplanar = 0
    mismatches = []
    while record := os.read(queue, RECORD_BYTES):
        start = int.from_bytes(record, "little")
        for i, g in enumerate(graphs[start : start + size], start):
            try:
                judgement = judge(g)
            except Exception as exc:
                while os.read(queue, QUEUE_BYTES):
                    pass
                return examined, planar, nonplanar, mismatches, (i, exc)
            if judgement is None:
                continue
            p, q, passed = judgement
            examined += 1
            planar += p
            nonplanar += q
            if not passed:
                mismatches.append((i, g.n, g.edge_mask()))
    return examined, planar, nonplanar, mismatches, None


def _portable(exc: BaseException) -> BaseException:
    """The exception, or a RuntimeError with its type and message where it
    does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _judge_in_child(
    write_fd: int,
    inherited_fds: list[int],
    queue: int,
    graphs: Sequence[Graph],
    judge: Callable[[Graph], Judgement],
) -> NoReturn:
    """A forked child's whole life: judge the blocks it claims, write the
    pickled tally to the pipe, and leave through os._exit.  Leaving that way
    flushes none of the stdio buffers inherited from the parent, which
    would print the parent's pending output again."""
    try:
        for fd in inherited_fds:
            os.close(fd)
        result: Tally
        try:
            result = _judge_claims(queue, graphs, judge)
        except BaseException as exc:  # not a graph's: the parent raises it first
            result = 0, 0, 0, [], (-1, exc)
        if result[4] is not None:
            index, exc = result[4]
            result = (*result[:4], (index, _portable(exc)))
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _campaign(
    name: str, graphs: Sequence[Graph], judge: Callable[[Graph], Judgement]
) -> CampaignReport:
    """Judge every graph of the stream; a failed graph is recorded as
    (n, edge mask).

    The stream is cut into blocks of `_block_size` consecutive graphs, and
    before anything forks a claim queue (a pipe) is filled with each
    block's first stream index, in stream order, and closed for writing.
    The process forks a child for every CPU it may use but one, capped at
    the number of blocks.  Every worker, the parent included, claims the
    next block from the queue, judges it and claims again until the queue
    is drained.  The parent then sums the workers' counts and puts their
    failed graphs back in stream order, so the report does not depend on
    the number of CPUs or on who claimed what.  A forked child starts with
    the parent's graphs, judge, hash seed and module state, rebound
    functions included.

    A worker stops at the first graph that raises; the exception raised
    here, with its type and message, is the one at the lowest stream index,
    which is the one a serial run raises: blocks leave the queue in stream
    order, so every earlier graph was claimed and judged.  Whatever ends a
    child outside a graph is raised ahead of that, and an interrupt in the
    parent is raised at once.  Every child is reaped before this
    returns or raises, and one still running then is killed.  With one
    worker nothing forks.
    """
    t0 = time.perf_counter()
    starts = range(0, len(graphs), _block_size(len(graphs)))
    workers = max(1, min(_usable_cpus(), len(starts)))
    children: dict[int, BinaryIO] = {}  # pid -> result pipe
    queue, fill = os.pipe()
    try:
        with open(fill, "wb") as writer:
            writer.write(b"".join(s.to_bytes(RECORD_BYTES, "little") for s in starts))
        for _ in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [read_fd, *(pipe.fileno() for pipe in children.values())]
                _judge_in_child(write_fd, inherited, queue, graphs, judge)
            children[pid] = open(read_fd, "rb")
            os.close(write_fd)
        tallies = [_judge_claims(queue, graphs, judge)]
        for pid, pipe in list(children.items()):
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status or not data:
                raise RuntimeError(
                    f"campaign {name}: a worker ended without a result "
                    f"(wait status {status})"
                )
            tallies.append(pickle.loads(data))
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    examined = planar = nonplanar = 0
    mismatches = []
    failures = []
    for e, p, q, m, failure in tallies:
        examined += e
        planar += p
        nonplanar += q
        mismatches += m
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    mismatches.sort()
    return CampaignReport(
        name,
        examined,
        planar,
        nonplanar,
        tuple((n, mask) for _, n, mask in mismatches),
        time.perf_counter() - t0,
    )


def _labeled_graphs(max_n: int) -> Sequence[Graph]:
    """Every labeled graph with 1..max_n vertices, by vertex count and then
    edge mask."""
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(
            f"labeled exhaustive mode supports max_n <= {MAX_EXHAUSTIVE_N}"
        )
    return _EdgeMaskGraphs(
        (n, range(1 << (n * (n - 1) // 2))) for n in range(1, max_n + 1)
    )


def _route_agreement(name: str, graphs: Sequence[Graph]) -> CampaignReport:
    """Confront the four routes on every graph; the subdivision route
    supplies the planar count."""

    def judge(g: Graph) -> Judgement:
        bits = route_bits(g)
        return (1, 0, bits.agree) if bits.subdivision else (0, 1, bits.agree)

    return _campaign(name, graphs, judge)


def verify_kuratowski(max_n: int) -> CampaignReport:
    """The left-right test, subdivision route, minor route and raw
    embedding search must agree on every labeled graph with up to max_n
    vertices."""
    return _route_agreement("kuratowski", _labeled_graphs(max_n))


def verify_kuratowski_classes(n: int = 7) -> CampaignReport:
    """Same four-route agreement over one representative per isomorphism
    class of n-vertex graphs."""
    if n > MAX_CLASS_N:
        raise CapacityError(f"class mode supports n <= {MAX_CLASS_N}")
    graphs = _EdgeMaskGraphs([(n, enumerate_graph_class_masks(n))])
    return _route_agreement("kuratowski_classes", graphs)


def _lemma_judgement(g: Graph) -> Judgement:
    ok = True
    characterized = 0
    c2 = condition2(g)
    c3 = condition3(g)
    c1 = condition1(g) if c2 else None
    if c3 and not c2:
        ok = False
    if c2 and not c1:
        ok = False
    if c2 and any(len(a) < 3 for a in g.adj):
        ok = False  # a cycle remainder at every edge forces degree >= 3
    if ok and g.num_edges and all(len(a) >= 3 for a in g.adj):
        if c1 is None:
            c1 = condition1(g)
        if c1 != c3 or c2 != c3:
            ok = False
        if c3:
            characterized = 1
    return 0, characterized, ok


def verify_lemma_characterization(max_n: int) -> CampaignReport:
    """Check the obstruction characterization over all labeled graphs:
    the two edge-deletion conditions must hold exactly on the K5/K3,3
    copies among graphs with an edge and minimum degree >= 3, and the
    implication chain condition3 => condition2 => condition1 must hold
    everywhere."""
    return _campaign("lemma", _labeled_graphs(max_n), _lemma_judgement)


def _chartrand_harary_judgement(g: Graph) -> Judgement:
    if not g.is_connected():
        return None
    theta_free = not contains_theta(g)
    covered = find_covering_planar_rotation(g) is not None
    return int(covered), 0, theta_free == covered


def verify_chartrand_harary(max_n: int) -> CampaignReport:
    """Over every connected labeled graph: theta-free iff some genus-0
    rotation has a single face covering every edge."""
    return _campaign(
        "chartrand_harary", _labeled_graphs(max_n), _chartrand_harary_judgement
    )


def verify_menger_cubic(samples: int, seed: int) -> CampaignReport:
    """On random connected cubic graphs, planarity must coincide with the
    absence of a K3,3 subdivision, and no K5 subdivision may ever fit
    (branch vertices would need degree 4)."""

    def judge(g: Graph) -> Judgement:
        verdict = decide_via_minor(g)
        k33 = find_subdivision(g, Pattern.K33)
        k5 = find_subdivision(g, Pattern.K5)
        ok = verdict.planar == (k33 is None) and k5 is None
        return (1, 0, ok) if verdict.planar else (0, 1, ok)

    return _campaign("menger_cubic", _menger_cubic_graphs(samples, seed), judge)


def _menger_cubic_graphs(samples: int, seed: int) -> list[Graph]:
    """The menger-cubic campaign's graphs: cubic, their sizes cycling
    through MENGER_CUBIC_SIZES."""
    rng = make_rng(seed)
    sizes = MENGER_CUBIC_SIZES
    return [random_cubic_graph(sizes[i % len(sizes)], rng) for i in range(samples)]


def _lifting_judgement(g: Graph) -> Judgement:
    planar_contractions = lifted_count = 0
    ok = True
    for x, y in g.sorted_edges():
        contraction = contract_edge(g, (x, y))
        cert = find_kuratowski(contraction[0])
        if cert is None:
            planar_contractions += 1
            continue
        lifted_count += 1
        lifted = lift_through_contraction(g, x, y, contraction, cert)
        if not validate_subdivision(g, lifted):
            ok = False
        if cert.pattern is Pattern.K33 and lifted.pattern is not Pattern.K33:
            ok = False
        if cert.pattern is Pattern.K5 and lifted.pattern not in (
            Pattern.K5,
            Pattern.K33,
        ):
            ok = False
    return planar_contractions, lifted_count, ok


def verify_lifting(samples: int, seed: int) -> CampaignReport:
    """For every edge xy of every sampled graph: any obstruction found in
    G/xy must lift to a validating certificate in G under the pattern rule
    (K3,3 stays K3,3; K5 lifts to K5 or K3,3).  Planar contractions are
    skipped but counted."""
    return _campaign("lifting", _lifting_graphs(samples, seed), _lifting_judgement)


def _lifting_graphs(samples: int, seed: int) -> list[Graph]:
    """The lifting campaign's graphs: each sample draws its vertex count,
    then its edges."""
    rng = make_rng(seed)
    ps = LIFTING_PS
    return [
        random_graph(rng.randint(4, LIFTING_MAX_N), ps[i % len(ps)], rng)
        for i in range(samples)
    ]


# Every campaign by name, in the order `harness all` runs them.  A runner
# takes (max_n, samples, seed) and passes on what its campaign uses; it
# looks the campaign up when called, so a rebinding of the module's
# function is what runs.
CAMPAIGNS: dict[str, Callable[[int, int, int], CampaignReport]] = {
    "kuratowski": lambda max_n, samples, seed: verify_kuratowski(max_n),
    "kuratowski-classes": lambda max_n, samples, seed: verify_kuratowski_classes(
        max_n
    ),
    "lemma": lambda max_n, samples, seed: verify_lemma_characterization(max_n),
    "chartrand-harary": lambda max_n, samples, seed: verify_chartrand_harary(max_n),
    "menger-cubic": lambda max_n, samples, seed: verify_menger_cubic(samples, seed),
    "lifting": lambda max_n, samples, seed: verify_lifting(samples, seed),
}
