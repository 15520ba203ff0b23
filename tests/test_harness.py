import itertools

import pytest

from planarcert.errors import CapacityError
from planarcert.graphs import (
    Graph,
    are_isomorphic,
    complete_bipartite,
    complete_graph,
    from_edge_mask,
)
from planarcert.harness import (
    CampaignReport,
    canonical_edge_mask,
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
        assert g.degrees() == (3,) * n
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


def test_class_representatives_are_canonical_and_distinct():
    reps = enumerate_graph_class_masks(4)
    graphs = [from_edge_mask(4, m) for m in reps]
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
