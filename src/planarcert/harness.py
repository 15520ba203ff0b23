"""Exhaustive and randomized verification campaigns.

Each campaign replays one piece of the supporting theory over every small
graph (or a seeded random stream) and reports mismatches as (n, edge mask)
records, so a failure reproduces from the report alone.  Campaigns are
deterministic given their parameters and seed; the canonical key-value
serialization omits wall time so reports are byte-identical across runs.

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
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import CapacityError
from .graphs import Graph, contract_edge, from_edge_mask
from .lemmas import condition1, condition2, condition3
from .planarity import DEFAULT_CONFIG, DecisionConfig, decide_via_minor, route_bits
from .embedding import find_covering_planar_rotation
from .subdivision import (
    Pattern,
    find_kuratowski,
    find_subdivision,
    lift_through_contraction,
    validate_subdivision,
)

Rng = random.Random

MAX_EXHAUSTIVE_N = 6
MAX_CLASS_N = 7


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


def random_cubic_graph(n: int, rng: Rng, max_retries: int = 10_000) -> Graph:
    """Random connected 3-regular graph: three overlaid perfect matchings,
    rejecting overlaps (parallel edges) and disconnected unions."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    for _ in range(max_retries):
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
    raise RuntimeError(f"no connected cubic graph found in {max_retries} tries")


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


def canonical_edge_mask(g: Graph) -> int:
    """Minimum edge bitmask over all vertex relabelings (n <= 7)."""
    if g.n > MAX_CLASS_N:
        raise CapacityError(f"canonical form supports n <= {MAX_CLASS_N}")
    return min(_mask_orbit(g.edge_mask(), _edge_bit_columns(g.n), math.factorial(g.n)))


def enumerate_graph_class_masks(n: int) -> list[int]:
    """One edge mask per isomorphism class of n-vertex graphs, ascending.

    Walks all 2^C(n,2) masks in order and marks each newly seen mask's
    whole relabeling orbit, so the representative kept for every class is
    its minimum mask -- the same canonical form canonical_edge_mask picks.
    """
    if n > MAX_CLASS_N:
        raise CapacityError(f"class enumeration supports n <= {MAX_CLASS_N}")
    columns = _edge_bit_columns(n)
    count = math.factorial(n)
    bits = n * (n - 1) // 2
    seen = bytearray(1 << bits)
    reps = []
    for mask in range(1 << bits):
        if seen[mask]:
            continue
        reps.append(mask)
        for img in _mask_orbit(mask, columns, count):
            seen[img] = 1
    return reps


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


# What a judged graph adds to the planar and non-planar counts, and whether
# it passed; None skips the graph.
Judgement = tuple[int, int, bool] | None


def _campaign(
    name: str, graphs: Iterable[Graph], judge: Callable[[Graph], Judgement]
) -> CampaignReport:
    """Judge every graph of the stream; a failed graph is recorded as
    (n, edge mask)."""
    t0 = time.perf_counter()
    examined = planar = nonplanar = 0
    mismatches = []
    for g in graphs:
        judgement = judge(g)
        if judgement is None:
            continue
        p, q, passed = judgement
        examined += 1
        planar += p
        nonplanar += q
        if not passed:
            mismatches.append((g.n, g.edge_mask()))
    return CampaignReport(
        name,
        examined,
        planar,
        nonplanar,
        tuple(mismatches),
        time.perf_counter() - t0,
    )


def _labeled_graphs(max_n: int) -> Iterator[Graph]:
    """Every labeled graph with 1..max_n vertices, by vertex count and then
    edge mask."""
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(
            f"labeled exhaustive mode supports max_n <= {MAX_EXHAUSTIVE_N}"
        )
    return (
        from_edge_mask(n, mask)
        for n in range(1, max_n + 1)
        for mask in range(1 << (n * (n - 1) // 2))
    )


def _route_agreement(
    name: str, graphs: Iterable[Graph], config: DecisionConfig
) -> CampaignReport:
    """Confront the four routes on every graph; the subdivision route
    supplies the planar count."""

    def judge(g: Graph) -> Judgement:
        bits = route_bits(g, config)
        return (1, 0, bits.agree) if bits.subdivision else (0, 1, bits.agree)

    return _campaign(name, graphs, judge)


def verify_kuratowski(
    max_n: int, config: DecisionConfig = DEFAULT_CONFIG
) -> CampaignReport:
    """The left-right test, subdivision route, minor route and raw
    embedding search must agree on every labeled graph with up to max_n
    vertices."""
    return _route_agreement("kuratowski", _labeled_graphs(max_n), config)


def verify_kuratowski_classes(
    n: int = 7, config: DecisionConfig = DEFAULT_CONFIG
) -> CampaignReport:
    """Same four-route agreement over one representative per isomorphism
    class of n-vertex graphs."""
    if n > MAX_CLASS_N:
        raise CapacityError(f"class mode supports n <= {MAX_CLASS_N}")
    graphs = (from_edge_mask(n, mask) for mask in enumerate_graph_class_masks(n))
    return _route_agreement("kuratowski_classes", graphs, config)


def _lemma_judgement(g: Graph) -> Judgement:
    ok = True
    characterized = 0
    c2 = condition2(g)
    c3 = condition3(g)
    if c3 and not c2:
        ok = False
    if c2 and not condition1(g):
        ok = False
    if c2 and any(len(a) < 3 for a in g.adj):
        ok = False  # a cycle remainder at every edge forces degree >= 3
    if ok and g.num_edges and all(len(a) >= 3 for a in g.adj):
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
    theta_free = not find_subdivision(g, Pattern.THETA)
    covered = find_covering_planar_rotation(g) is not None
    return int(covered), 0, theta_free == covered


def verify_chartrand_harary(max_n: int) -> CampaignReport:
    """Over every connected labeled graph: theta-free iff some genus-0
    rotation has a single face covering every edge."""
    return _campaign(
        "chartrand_harary", _labeled_graphs(max_n), _chartrand_harary_judgement
    )


def verify_menger_cubic(
    samples: int,
    seed: int,
    sizes: tuple[int, ...] = (8, 10, 12),
    config: DecisionConfig = DEFAULT_CONFIG,
) -> CampaignReport:
    """On random connected cubic graphs, planarity must coincide with the
    absence of a K3,3 subdivision, and no K5 subdivision may ever fit
    (branch vertices would need degree 4)."""
    rng = make_rng(seed)
    graphs = (
        random_cubic_graph(sizes[i % len(sizes)], rng) for i in range(samples)
    )

    def judge(g: Graph) -> Judgement:
        verdict = decide_via_minor(g, config)
        k33 = find_subdivision(g, Pattern.K33)
        k5 = find_subdivision(g, Pattern.K5)
        ok = verdict.planar == (k33 is None) and k5 is None
        return (1, 0, ok) if verdict.planar else (0, 1, ok)

    return _campaign("menger_cubic", graphs, judge)


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


def verify_lifting(
    samples: int,
    seed: int,
    ps: tuple[float, ...] = (0.3, 0.5, 0.7),
    max_n: int = 9,
) -> CampaignReport:
    """For every edge xy of every sampled graph: any obstruction found in
    G/xy must lift to a validating certificate in G under the pattern rule
    (K3,3 stays K3,3; K5 lifts to K5 or K3,3).  Planar contractions are
    skipped but counted."""
    rng = make_rng(seed)
    # each sample draws its vertex count, then its edges
    graphs = (
        random_graph(rng.randint(4, max_n), ps[i % len(ps)], rng)
        for i in range(samples)
    )
    return _campaign("lifting", graphs, _lifting_judgement)


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
