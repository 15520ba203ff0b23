"""Acceptance suite: one test per criterion, zero-tolerance combinatorial
reproduction at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assertion marks the criterion FAIL).  The two
exhaustive sweeps (all labeled graphs on six vertices; all isomorphism
classes on seven) are the long poles; everything else finishes in
seconds.  The criteria that take tens of seconds or more are marked
``slow``, so ``pytest -m "not slow"`` leaves them out.
"""

import itertools
import json

import pytest

from planarcert.cli import main
from planarcert.documents import format_edge_list, parse_edge_list
from planarcert.embedding import (
    find_planar_rotation,
    genus,
    trace_faces,
)
from planarcert.graphs import (
    complete_bipartite,
    complete_graph,
    enumerate_labeled_graphs,
    petersen_graph,
)
from planarcert.harness import (
    make_rng,
    random_graph,
    verify_chartrand_harary,
    verify_kuratowski,
    verify_kuratowski_classes,
    verify_lemma_characterization,
    verify_lifting,
    verify_menger_cubic,
)
from planarcert.lemmas import condition1, condition2
from planarcert.planarity import decide
from planarcert.subdivision import Pattern, contains_theta, find_subdivision

from reference import cube_graph, enumerate_rotation_systems, face_boundary, face_darts


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


@pytest.mark.slow
def test_criterion_01_kuratowski_exhaustive_n6():
    report = verify_kuratowski(6)
    assert report.passed, report.render_text()
    assert report.graphs_examined == 1 + 2 + 8 + 64 + 1024 + 32768
    assert report.planar_count + report.nonplanar_count == report.graphs_examined
    _report(
        1,
        "kuratowski exhaustive n<=6",
        f"{report.graphs_examined} graphs, {report.nonplanar_count} non-planar, "
        f"0 mismatches in {report.wall_time:.1f}s",
    )


@pytest.mark.slow
def test_criterion_02_kuratowski_classes_n7():
    report = verify_kuratowski_classes(7)
    assert report.passed, report.render_text()
    assert report.graphs_examined == 1044  # isomorphism classes of 7-vertex graphs
    _report(
        2,
        "kuratowski n=7 classes",
        f"{report.graphs_examined} classes, {report.nonplanar_count} non-planar, "
        f"0 mismatches in {report.wall_time:.1f}s",
    )


def test_criterion_03_obstruction_identities():
    v5 = decide(complete_graph(5))
    assert not v5.planar and v5.certificate.pattern is Pattern.K5

    v33 = decide(complete_bipartite(3, 3))
    assert not v33.planar and v33.certificate.pattern is Pattern.K33

    pet = petersen_graph()
    vp = decide(pet)
    assert not vp.planar and vp.certificate.pattern is Pattern.K33
    assert find_subdivision(pet, Pattern.K5) is None

    vq = decide(cube_graph())
    assert vq.planar
    fs = vq.faces
    assert (fs.vertex_count, fs.edge_count, fs.face_count) == (8, 12, 6)
    assert fs.vertex_count - fs.edge_count + fs.face_count == 2
    _report(3, "obstruction identities", "K5, K3,3, Petersen, Q3 all as expected")


@pytest.mark.slow
def test_criterion_04_lemma_characterization():
    report = verify_lemma_characterization(6)
    assert report.passed, report.render_text()

    # independent tally: the characterized sets are exactly the labeled
    # copies of K5 (n=5) and K3,3 (n=6)
    k33_copies = {
        frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for u, v in complete_bipartite(3, 3).edges
        )
        for perm in itertools.permutations(range(6))
    }
    assert len(k33_copies) == 10
    assert report.nonplanar_count == 1 + 10

    for n, expected in ((5, 1), (6, 10)):
        hits = []
        for g in enumerate_labeled_graphs(n):
            if not g.edges or any(len(a) < 3 for a in g.adj):
                continue
            c1, c2 = condition1(g), condition2(g)
            assert c1 == c2
            if c1:
                hits.append(g)
        assert len(hits) == expected
    _report(
        4,
        "lemma characterization",
        f"condition set = 1 K5 copy + 10 K3,3 copies in {report.wall_time:.1f}s",
    )


def test_criterion_05_face_boundaries_theta_free():
    rotations = 0
    planar_rotations = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            two_e = 2 * g.num_edges
            for rho in enumerate_rotation_systems(g):
                fs = trace_faces(g, rho)
                rotations += 1
                darts = [d for w in face_darts(fs) for d in w]
                assert len(darts) == len(set(darts)) == two_e
                assert fs.genus >= 0
                if fs.genus != 0:
                    continue
                planar_rotations += 1
                for f in range(fs.face_count):
                    assert not contains_theta(face_boundary(g, fs, f))
    _report(
        5,
        "face boundaries theta-free",
        f"{planar_rotations} genus-0 rotations of {rotations} total, n<=5, 0 violations",
    )


def test_criterion_06_lifting_soundness():
    report = verify_lifting(1000, seed=42)
    assert report.passed, report.render_text()
    assert report.graphs_examined == 1000
    assert report.nonplanar_count > 0
    _report(
        6,
        "lifting soundness",
        f"{report.nonplanar_count} certificates lifted, "
        f"{report.planar_count} planar contractions skipped in {report.wall_time:.1f}s",
    )


@pytest.mark.slow
def test_criterion_07_chartrand_harary_exhaustive():
    report = verify_chartrand_harary(6)
    assert report.passed, report.render_text()
    assert report.graphs_examined == 1 + 1 + 4 + 38 + 728 + 26704
    _report(
        7,
        "chartrand-harary n<=6",
        f"{report.graphs_examined} connected graphs, {report.planar_count} realizable, "
        f"0 mismatches in {report.wall_time:.1f}s",
    )


def test_criterion_08_menger_cubic():
    report = verify_menger_cubic(500, seed=42)
    assert report.passed, report.render_text()
    assert report.graphs_examined == 500
    _report(
        8,
        "menger cubic",
        f"500 cubic samples: {report.planar_count} planar / "
        f"{report.nonplanar_count} non-planar, 0 mismatches in {report.wall_time:.1f}s",
    )


def test_criterion_09_genus_landmarks():
    k5 = complete_graph(5)
    faces5 = [trace_faces(k5, rho) for rho in enumerate_rotation_systems(k5)]
    assert min(fs.genus for fs in faces5) == 1
    assert max(fs.face_count for fs in faces5) == 5
    k33 = complete_bipartite(3, 3)
    genera33 = {genus(k33, rho) for rho in enumerate_rotation_systems(k33)}
    assert min(genera33) == 1
    assert find_planar_rotation(k5) is None
    assert find_planar_rotation(k33) is None
    _report(
        9,
        "genus landmarks",
        f"min genus K5 = 1 (best F = 5) over {6**5} rotations, "
        f"K3,3 = 1 over {2**6}",
    )


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    k5_path = tmp_path / "k5.edges"
    k5_path.write_text(format_edge_list(complete_graph(5)))
    k4_path = tmp_path / "k4.edges"
    k4_path.write_text(format_edge_list(complete_graph(4)))

    code5, out5 = run(["check", str(k5_path)])
    assert code5 == 1 and json.loads(out5)["status"] == "nonplanar"
    code4, out4 = run(["check", str(k4_path)])
    assert code4 == 0 and json.loads(out4)["status"] == "planar"

    # every emitted verdict re-validates under certify
    fixtures = [
        complete_graph(5),
        complete_graph(4),
        petersen_graph(),
        cube_graph(),
        complete_bipartite(3, 3),
    ]
    rng = make_rng(10)
    fixtures += [random_graph(rng.randint(1, 7), 0.5, rng) for _ in range(20)]
    for i, g in enumerate(fixtures):
        gpath = tmp_path / f"g{i}.edges"
        gpath.write_text(format_edge_list(g))
        code, out = run(["check", str(gpath), "--validate"])
        assert code in (0, 1)
        vpath = tmp_path / f"g{i}.verdict.json"
        vpath.write_text(out)
        certify_code, _ = run(["certify", str(gpath), str(vpath)])
        assert certify_code == 0

    # parse/print round trip on 100 random graphs
    rng = make_rng(11)
    for _ in range(100):
        g = random_graph(rng.randint(0, 9), rng.choice((0.2, 0.5, 0.8)), rng)
        assert parse_edge_list(format_edge_list(g)) == g
    _report(
        10,
        "cli contract",
        f"exit codes 1/0 for K5/K4, {len(fixtures)} verdicts re-validated, "
        "100 round trips",
    )
