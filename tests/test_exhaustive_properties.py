"""Module properties the searchers must satisfy at full stated scale.

These sweep every labeled graph on six vertices (and seeded random
graphs up to nine), so they run slower than the unit files; the
acceptance suite covers the theorem-level statements.
"""

from planarcert.documents import verdict_doc_is_valid, verdict_to_doc
from planarcert.embedding import lr_planar_rotation
from planarcert.graphs import (
    contract_edge,
    delete_edge,
    enumerate_labeled_graphs,
)
from planarcert.harness import make_rng, random_graph
from planarcert.planarity import decide
from planarcert.subdivision import (
    Pattern,
    find_kuratowski,
    find_minor,
    find_subdivision,
    minor_to_subdivision,
    validate_subdivision,
)

from reference import are_homeomorphic, validate_minor


def test_contraction_stays_simple_n6():
    for g in enumerate_labeled_graphs(6):
        for e in g.sorted_edges():
            h, z, vmap = contract_edge(g, e)
            assert all(u != v for u, v in h.edges)
            for u, v in g.edges:
                if vmap[u] != vmap[v]:
                    assert h.has_edge(vmap[u], vmap[v])


def test_homeomorphism_reflexive_n6():
    for g in enumerate_labeled_graphs(6):
        assert are_homeomorphic(g, g)


def test_kuratowski_monotone_under_edge_deletion_n6():
    for g in enumerate_labeled_graphs(6):
        if find_kuratowski(g) is not None:
            continue
        for e in g.sorted_edges():
            assert find_kuratowski(delete_edge(g, e)) is None


def test_searcher_soundness_n6():
    for g in enumerate_labeled_graphs(6):
        cert = find_kuratowski(g)
        if cert is not None:
            assert validate_subdivision(g, cert)
        for pattern in Pattern:
            m = find_minor(g, pattern)
            if m is not None:
                assert validate_minor(g, m)
                converted = minor_to_subdivision(g, m)
                assert validate_subdivision(g, converted)


def test_searcher_soundness_seeded_n9():
    rng = make_rng(20240817)
    for i in range(1000):
        n = rng.randint(4, 9)
        p = (0.3, 0.5, 0.7)[i % 3]
        g = random_graph(n, p, rng)
        for pattern in Pattern:
            cert = find_subdivision(g, pattern)
            if cert is not None:
                assert validate_subdivision(g, cert)
        m = find_minor(g, Pattern.K33)
        if m is not None:
            assert validate_minor(g, m)
            assert validate_subdivision(g, minor_to_subdivision(g, m))


def test_kuratowski_iff_minor_n6():
    for g in enumerate_labeled_graphs(6):
        topological = find_kuratowski(g) is not None
        minor = (
            find_minor(g, Pattern.K5) is not None
            or find_minor(g, Pattern.K33) is not None
        )
        assert topological == minor


def test_contraction_preserves_planarity_n6():
    # the obstruction search is the decision bit, so closure under
    # contraction is checked directly on it
    for g in enumerate_labeled_graphs(6):
        if find_kuratowski(g) is not None:
            continue
        for e in g.sorted_edges():
            contracted, _, _ = contract_edge(g, e)
            assert find_kuratowski(contracted) is None


def test_verdict_soundness_seeded_n9():
    from planarcert.embedding import genus
    from planarcert.planarity import decide, decide_via_minor

    rng = make_rng(77)
    for i in range(150):
        n = rng.randint(1, 9)
        g = random_graph(n, (0.3, 0.5, 0.7)[i % 3], rng)
        verdict = decide_via_minor(g) if n > 7 else decide(g)
        if verdict.planar:
            assert genus(g, verdict.rotation) == 0
        else:
            assert validate_subdivision(g, verdict.certificate)
            assert verdict.certificate.pattern in (Pattern.K5, Pattern.K33)


def test_every_non_planar_verdict_document_passes_the_audit_n6():
    # check --validate leaves a non-planar answer to decide's own
    # validation of the certificate; the document built from it must
    # pass certify's audit as well
    nonplanar = 0
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            if lr_planar_rotation(g) is not None:
                continue
            nonplanar += 1
            assert verdict_doc_is_valid(g, verdict_to_doc(g, decide(g)))
    assert nonplanar > 0
