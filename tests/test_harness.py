import collections
import hashlib
import itertools
import os
import time

import pytest

from planarcert import harness
from planarcert.errors import CapacityError, InternalInconsistencyError
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    from_edge_mask,
)
from planarcert.harness import (
    CampaignReport,
    enumerate_graph_class_masks,
    make_rng,
    random_cubic_graph,
    random_graph,
    verify_chartrand_harary,
    verify_kuratowski,
    verify_kuratowski_classes,
    verify_lemma_characterization,
    verify_lifting,
    verify_menger_cubic,
)
from planarcert.subdivision import Pattern

from reference import are_isomorphic, canonical_edge_mask


def test_random_graph_extremes():
    rng = make_rng(1)
    assert random_graph(6, 0.0, rng).num_edges == 0
    assert random_graph(6, 1.0, rng).num_edges == 15
    with pytest.raises(ValueError):
        random_graph(4, 1.5, rng)


def test_random_graph_determinism():
    a = random_graph(6, 0.5, make_rng(1))
    b = random_graph(6, 0.5, make_rng(1))
    assert a == b


def test_random_cubic_graph_properties():
    rng = make_rng(9)
    for n in (4, 6, 8, 10, 12):
        g = random_cubic_graph(n, rng)
        assert tuple(map(len, g.adj)) == (3,) * n
        assert g.is_connected()
    with pytest.raises(ValueError):
        random_cubic_graph(5, rng)


def test_random_cubic_graph_determinism():
    assert random_cubic_graph(10, make_rng(3)) == random_cubic_graph(10, make_rng(3))


def test_canonical_edge_mask_identifies_isomorphs():
    g = complete_bipartite(3, 3)
    h = Graph(6, [(5 - u, 5 - v) for u, v in g.edges])
    assert canonical_edge_mask(g) == canonical_edge_mask(h)
    assert canonical_edge_mask(g) != canonical_edge_mask(complete_graph(6))


def test_class_counts_match_known_sequence():
    # numbers of isomorphism classes of simple graphs on 1..6 vertices
    expected = [1, 2, 4, 11, 34, 156]
    got = [len(enumerate_graph_class_masks(n)) for n in range(1, 7)]
    assert got == expected
    with pytest.raises(CapacityError):
        enumerate_graph_class_masks(8)


@pytest.mark.parametrize(
    "n, digest",
    [
        (6, "a3f8658a12828bf7016c1695878098fb61c00d70c4a4466dbcb9c48eaae39e00"),
        (7, "0867785c6fba620811c32c1a708d57cffc21acc5a0fe8f086f41efa6c9f1e0f2"),
    ],
)
def test_class_masks_are_those_listed_before_complements_were_paired(n, digest):
    # sha256 of the listing's repr, taken when every orbit was mapped on
    # its own rather than together with its complement's
    masks = enumerate_graph_class_masks(n)
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_representatives_are_canonical_and_distinct(n):
    reps = enumerate_graph_class_masks(n)
    # the definition: the canonical masks of all labeled graphs, ascending
    every_mask = range(1 << (n * (n - 1) // 2))
    assert reps == sorted({canonical_edge_mask(from_edge_mask(n, m)) for m in every_mask})
    graphs = [from_edge_mask(n, m) for m in reps]
    for g, m in zip(graphs, reps):
        assert canonical_edge_mask(g) == m
    for a, b in itertools.combinations(graphs, 2):
        assert not are_isomorphic(a, b)


def test_verify_kuratowski_small():
    r = verify_kuratowski(4)
    assert r.passed
    assert r.graphs_examined == 1 + 2 + 8 + 64
    assert r.nonplanar_count == 0
    assert r.planar_count + r.nonplanar_count == r.graphs_examined


def test_verify_kuratowski_n5_finds_exactly_k5():
    r = verify_kuratowski(5)
    assert r.passed
    assert r.nonplanar_count == 1  # the complete graph is the only one over the edge bound
    with pytest.raises(CapacityError):
        verify_kuratowski(7)


def test_verify_kuratowski_classes_small():
    r = verify_kuratowski_classes(5)
    assert r.passed
    assert r.graphs_examined == 34
    assert r.nonplanar_count == 1


def test_verify_lemma_small():
    r = verify_lemma_characterization(5)
    assert r.passed
    assert r.nonplanar_count == 1  # K5 is the only characterized graph at n <= 5
    r4 = verify_lemma_characterization(4)
    assert r4.passed and r4.nonplanar_count == 0


def test_verify_chartrand_harary_small():
    r = verify_chartrand_harary(5)
    assert r.passed
    assert r.graphs_examined == 1 + 1 + 4 + 38 + 728  # connected labeled graphs


def test_verify_menger_cubic_small():
    r = verify_menger_cubic(24, seed=42)
    assert r.passed
    assert r.graphs_examined == 24
    assert r.planar_count + r.nonplanar_count == 24


def test_verify_lifting_small():
    r = verify_lifting(40, seed=42)
    assert r.passed
    assert r.graphs_examined == 40
    assert r.nonplanar_count > 0  # some contractions must produce obstructions


def test_lift_patterns_over_the_seed_42_lifting_stream(monkeypatch):
    # (pattern found in G/xy, pattern lifted to G) over every lift of the
    # criterion-6 stream; only a K5 whose branch vertex splits 2-2 changes.
    # The spy counts in this process only, so the stream runs as one share
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    counts = collections.Counter()
    real = harness.lift_through_contraction

    def spy(g, x, y, contraction, cert):
        lifted = real(g, x, y, contraction, cert)
        counts[cert.pattern, lifted.pattern] += 1
        return lifted

    monkeypatch.setattr(harness, "lift_through_contraction", spy)
    assert verify_lifting(1000, seed=42).passed
    assert counts == {
        (Pattern.K33, Pattern.K33): 263,
        (Pattern.K5, Pattern.K33): 107,
        (Pattern.K5, Pattern.K5): 3194,
    }


def test_reports_are_deterministic():
    a = verify_lifting(25, seed=7).to_kv()
    b = verify_lifting(25, seed=7).to_kv()
    assert a == b
    c = verify_menger_cubic(10, seed=5).to_kv()
    d = verify_menger_cubic(10, seed=5).to_kv()
    assert c == d


def test_report_kv_format():
    r = verify_kuratowski(3)
    kv = r.to_kv()
    lines = kv.strip().splitlines()
    assert lines[0] == "campaign kuratowski"
    assert lines[-1] == "passed true"
    fields = dict(line.split(" ", 1) for line in lines)
    assert int(fields["graphs_examined"]) == 11
    assert "PASS" in r.render_text()


def test_failing_report_lists_masks():
    r = CampaignReport("demo", 3, 1, 2, ((5, 12),), 0.1)
    assert not r.passed
    assert "mismatch 5 12" in r.to_kv()
    assert "passed false" in r.to_kv()


def test_campaign_tallies_skips_and_records_failures():
    from planarcert import harness

    graphs = [from_edge_mask(3, mask) for mask in range(8)]

    def judge(g):
        if g.num_edges == 0:
            return None  # skipped: not examined
        return (1, 0, True) if g.num_edges < 3 else (0, 2, False)

    r = harness._campaign("probe", graphs, judge)
    assert (r.campaign, r.graphs_examined) == ("probe", 7)
    assert (r.planar_count, r.nonplanar_count) == (6, 2)
    assert r.mismatches == ((3, 7),) and not r.passed


def test_labeled_campaigns_share_one_capacity_check():
    for verify in (
        verify_kuratowski,
        verify_lemma_characterization,
        verify_chartrand_harary,
    ):
        with pytest.raises(CapacityError, match="max_n <= 6"):
            verify(7)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_kuratowski(5),
        lambda: verify_kuratowski_classes(6),
        lambda: verify_lemma_characterization(6),
        lambda: verify_chartrand_harary(5),
        lambda: verify_menger_cubic(12, seed=42),
        lambda: verify_lifting(40, seed=42),
    ],
    ids=["kuratowski", "classes", "lemma", "chartrand-harary", "menger", "lifting"],
)
def test_reports_do_not_depend_on_the_share_count(run, monkeypatch):
    reports = []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        reports.append(run().to_kv())
    assert reports[0] == reports[1]
    _no_child_left()


def test_shares_merge_skips_and_failures_back_in_stream_order(monkeypatch):
    graphs = [from_edge_mask(4, mask) for mask in range(64)]

    def judge(g):
        if g.num_edges % 4 == 0:
            return None
        return g.num_edges % 2, 1, g.num_edges != 3

    expected = [(4, mask) for mask in range(64) if mask.bit_count() == 3]
    reports = []
    for cpus in (1, 3, 5):
        _cpus(monkeypatch, cpus)
        r = harness._campaign("probe", graphs, judge)
        assert r.mismatches == tuple(expected)
        reports.append(r.to_kv())
    assert reports == [reports[0]] * 3
    assert "graphs_examined 48" in reports[0]  # the 16 with 0 or 4 edges skipped
    _no_child_left()


@pytest.mark.parametrize(
    "cpus, graphs, children", [(4, 1, 0), (1, 7, 0), (4, 2, 1), (3, 7, 2)]
)
def test_one_share_per_cpu_capped_at_the_graphs(cpus, graphs, children, monkeypatch):
    # one worker per CPU, capped at the blocks: a stream this short has
    # blocks of one graph
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    stream = [from_edge_mask(3, mask) for mask in range(graphs)]
    r = harness._campaign("probe", stream, lambda g: (1, 0, True))
    assert (r.graphs_examined, r.planar_count) == (graphs, graphs)
    assert len(forks) == children
    _no_child_left()


def test_workers_are_capped_at_the_blocks(monkeypatch):
    # a queue of two records cuts 7 graphs into blocks of 4 and 3
    monkeypatch.setattr(harness, "QUEUE_BYTES", 2 * harness.RECORD_BYTES)
    _cpus(monkeypatch, 3)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    stream = [from_edge_mask(3, mask) for mask in range(7)]
    r = harness._campaign("probe", stream, lambda g: (1, 0, True))
    assert (r.graphs_examined, r.planar_count, len(forks)) == (7, 7, 1)
    _no_child_left()


@pytest.mark.parametrize(
    "build",
    [
        lambda masks: [from_edge_mask(3, mask) for mask in masks],
        lambda masks: harness._EdgeMaskGraphs([(3, masks)]),
    ],
    ids=["list", "edge-masks"],
)
def test_workers_claim_blocks_of_a_long_stream(build, monkeypatch):
    masks = [i % 8 for i in range(3001)]
    graphs = build(masks)
    assert harness._block_size(len(graphs)) > 1

    def judge(g):
        if g.num_edges == 0:
            return None
        return g.num_edges % 2, 1, g.num_edges != 2

    expected = tuple((3, mask) for mask in masks if mask.bit_count() == 2)
    reports = []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        r = harness._campaign("probe", graphs, judge)
        assert r.mismatches == expected
        reports.append(r.to_kv())
    assert reports[0] == reports[1]
    assert "graphs_examined 2625" in reports[0]  # the 376 with no edge skipped
    _no_child_left()


@pytest.mark.parametrize("queue_bytes", [harness.QUEUE_BYTES, 512])
def test_the_claim_queue_fits_in_one_pipe_write(queue_bytes, monkeypatch):
    # blocks of the fewest graphs that keep one record per block within
    # the bytes a pipe takes in one write, for streams up to 10^7 graphs
    monkeypatch.setattr(harness, "QUEUE_BYTES", queue_bytes)
    records = queue_bytes // harness.RECORD_BYTES
    top = 10**7
    lengths = {*range(3 * records), top}
    lengths.update(
        k * records + d for k in range(1, top // records + 1) for d in (-1, 0, 1)
    )
    for length in lengths:
        size = harness._block_size(length)
        assert -(-length // size) <= records
        assert size == 1 or -(-length // (size - 1)) > records


def test_edge_mask_graphs_build_slices_across_their_blocks():
    blocks = [(3, range(8)), (2, [1, 0]), (4, range(5, 9))]
    graphs = harness._EdgeMaskGraphs(blocks)
    every = [(n, mask) for n, masks in blocks for mask in masks]
    assert len(graphs) == len(every) == 14

    def key(gs):
        return [(g.n, g.edge_mask()) for g in gs]

    for start in range(-16, 17):
        for stop in range(-16, 17):
            assert key(graphs[start:stop]) == every[start:stop]
    assert key(graphs[i] for i in range(-14, 14)) == every + every
    for i in (14, -15):
        with pytest.raises(IndexError):
            graphs[i]
    with pytest.raises(ValueError, match="step"):
        graphs[::2]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_campaign_leaves_no_file_descriptor_open(monkeypatch):
    graphs = [from_edge_mask(3, mask) for mask in range(8)]

    def judge(g):
        if g.edge_mask() == 5:
            raise ValueError("mask 5")
        return 1, 0, True

    _cpus(monkeypatch, 3)
    before = set(os.listdir("/proc/self/fd"))
    assert harness._campaign("probe", graphs[:5], judge).passed
    assert set(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ValueError, match="^mask 5$"):
        harness._campaign("probe", graphs, judge)
    assert set(os.listdir("/proc/self/fd")) == before
    _no_child_left()


def test_usable_cpus_falls_back_where_the_platform_lacks_a_call(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert harness._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert harness._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert harness._usable_cpus() == 1


def test_an_error_in_a_childs_share_reaches_the_parent(monkeypatch):
    graphs = [from_edge_mask(3, mask) for mask in range(8)]

    def judge(g):
        if g.edge_mask() == 4:  # stream index 4, whichever worker claims it
            raise InternalInconsistencyError("routes disagree on n=3 mask=4")
        return 1, 0, True

    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(InternalInconsistencyError) as info:
            harness._campaign("probe", graphs, judge)
        assert str(info.value) == "routes disagree on n=3 mask=4"
        _no_child_left()


def test_the_first_graph_in_stream_order_that_raises_is_the_one_raised(
    monkeypatch, tmp_path
):
    graphs = [from_edge_mask(3, mask) for mask in range(8)]

    def judge(g):
        if g.edge_mask() % 3:
            raise ValueError(f"mask {g.edge_mask()}")
        return 1, 0, True

    _cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="^mask 1$"):
        harness._campaign("probe", graphs, judge)
    _no_child_left()

    # mask 1 raises only after mask 2 has raised, so another worker judged
    # mask 2 (the one holding mask 1 is waiting) and its exception reached
    # the parent first
    raised = tmp_path / "mask-2-raised"

    def judge_apart(g):
        if g.edge_mask() == 2:
            raised.touch()
            raise ValueError("mask 2")
        if g.edge_mask() == 1:
            deadline = time.monotonic() + 30
            while not raised.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("mask 1" if raised.exists() else "mask 2 not judged")
        return 1, 0, True

    with pytest.raises(ValueError, match="^mask 1$"):
        harness._campaign("probe", graphs, judge_apart)
    _no_child_left()


def test_a_worker_that_raises_empties_the_queue(monkeypatch, tmp_path):
    # every block left in the queue comes after the raising graph, so the
    # other workers stop after the block each one holds
    judged = tmp_path / "judged"
    judged.write_text("")
    graphs = [from_edge_mask(3, 0)] + [from_edge_mask(3, 7)] * 59

    def judge(g):
        if g.num_edges == 0:
            raise ValueError("no edge")
        with judged.open("a") as log:
            log.write("x")
        time.sleep(0.2)
        return 1, 0, True

    _cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="^no edge$"):
        harness._campaign("probe", graphs, judge)
    assert len(judged.read_text()) < 10  # not all 59 after the first
    _no_child_left()


def test_an_interrupt_in_the_parents_share_kills_the_children(monkeypatch):
    # the parent is interrupted at its first graph, the children sleep for
    # minutes; each child claims one graph, so one is left for the parent
    parent = os.getpid()
    graphs = [from_edge_mask(2, mask) for mask in (0, 1, 1)]

    def judge(g):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(600)

    _cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        harness._campaign("probe", graphs, judge)
    assert time.monotonic() - start < 60
    _no_child_left()
