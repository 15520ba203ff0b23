import copy
import dataclasses
import gc
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarcert import cli, documents, embedding, planarity, subdivision
from planarcert.cli import build_parser, main
from planarcert.documents import (
    DocumentError,
    format_edge_list,
    parse_edge_list,
    verdict_doc_is_valid,
    verdict_to_doc,
)
from planarcert.embedding import genus, lr_planar_rotation
from planarcert.errors import InternalInconsistencyError
from planarcert.lemmas import lemma_report
from planarcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    path_graph,
    petersen_graph,
    subdivide_edge,
)
from planarcert.planarity import Verdict, decide
from planarcert.subdivision import Pattern

from conftest import graphs, grid_graph, k33_in_grid
from reference import cube_graph, enumerate_rotation_systems


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# edge-list documents
# ---------------------------------------------------------------------------


def test_parse_edge_list_basic():
    g = parse_edge_list("# demo\nn 4\n\n0 1\n2 3\n")
    assert g == Graph(4, [(0, 1), (2, 3)])


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(DocumentError, match="line 1"):
        parse_edge_list("nope\n")
    with pytest.raises(DocumentError, match="line 2"):
        parse_edge_list("n 4\n5 5\n")
    with pytest.raises(DocumentError, match="line 3"):
        parse_edge_list("n 4\n0 1\n0 1\n")
    with pytest.raises(DocumentError, match="line 2"):
        parse_edge_list("n 4\n0 9\n")
    with pytest.raises(DocumentError):
        parse_edge_list("")


def test_readme_edge_list_example_parses():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    intro = readme.index("reads edge-list files")
    start = readme.index("```\n", intro) + 4
    block = readme[start:readme.index("```", start)]
    assert parse_edge_list(block) == Graph(5, [(0, 1), (0, 2)])


def test_trailing_comments_are_rejected_with_their_line():
    with pytest.raises(DocumentError, match=r"^line 1: expected header"):
        parse_edge_list("n 5 # header\n0 1\n")
    message = r"^line 3: expected 'u v', got '0 2 # edge'"
    with pytest.raises(DocumentError, match=message):
        parse_edge_list("n 5\n0 1\n0 2 # edge\n")


def test_vertex_count_is_capped_before_allocating(monkeypatch):
    monkeypatch.setattr(documents, "MAX_VERTICES", 100)
    assert parse_edge_list("n 100\n0 99\n").n == 100
    with pytest.raises(DocumentError, match=r"^line 1: vertex count 101 is above"):
        parse_edge_list("n 101\n")
    with pytest.raises(DocumentError, match=r"^line 2: "):
        parse_edge_list("# a comment first\nn 101\n")


def reference_parse(text):
    """Line-by-line edge-list parser, one set of edge tuples: the
    specification parse_edge_list must reproduce, graph or message."""
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise DocumentError(
                    f"line {lineno}: expected header 'n <count>', got {raw.strip()!r}"
                )
            try:
                n = int(tokens[1])
            except ValueError:
                raise DocumentError(
                    f"line {lineno}: vertex count {tokens[1]!r} is not an integer"
                ) from None
            if n < 0:
                raise DocumentError(f"line {lineno}: negative vertex count")
            continue
        if len(tokens) != 2:
            raise DocumentError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise DocumentError(
                f"line {lineno}: edge endpoints must be integers"
            ) from None
        if u == v:
            raise DocumentError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DocumentError(
                f"line {lineno}: edge ({u}, {v}) out of range for n={n}"
            )
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise DocumentError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
    if n is None:
        raise DocumentError("missing header line 'n <count>'")
    return Graph(n, edges)


FILLER = ("", "   ", "# note", "#1 2", "  # 3 4 5", "#")


@st.composite
def edge_list_files(draw):
    """A valid edge list with comment and blank lines, and up to two faulty
    lines: a repeated edge, a loop, an id out of range, a wrong token count
    or a token that is not an integer."""
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [
        draw(st.sampled_from([f"{u} {v}", f"{v} {u}", f"  {u}\t{v} "]))
        for u, v in edges
    ]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["dup", "loop", "range", "count", "int"]))
        if kind == "dup" and edges:
            u, v = draw(st.sampled_from(edges))
            bad = draw(st.sampled_from([f"{u} {v}", f"{v} {u}"]))
        elif kind == "loop":
            v = draw(st.integers(0, n))
            bad = f"{v} {v}"
        elif kind == "range":
            inside = draw(st.integers(0, max(n - 1, 0)))
            outside = draw(st.one_of(st.integers(n, n + 2), st.integers(-3, -1)))
            bad = draw(st.sampled_from([f"{inside} {outside}", f"{outside} {inside}"]))
        elif kind == "count":
            bad = draw(st.sampled_from(["1", "0 1 2", "n 3"]))
        else:
            bad = draw(st.sampled_from(["a 1", "1 2.5", "0x1 2", "1 #2"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER)))
    head = draw(st.lists(st.sampled_from(FILLER), max_size=2))
    return "\n".join([*head, f"n {n}", *lines]) + "\n"


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except DocumentError as exc:
        return str(exc)
    return (g.n, g.num_edges, g.adj)


@settings(max_examples=400, deadline=None)
@given(edge_list_files())
@example("n 3\n0 1\n-1 2\n")
@example("n 3\n0 1\n2 -3\n")
@example("n 3\n0 1\n1 3\n")
@example("n 3\n0 1\n2 2\n")
@example("n 3\n0 1\n1 0\n")
@example("n 3\n#1 2\n0 1 # edge\n")
@example("n 3\n#1 2\n0 1\n1 2\n")
@example("n 3\n0 x\n")
@example("n 3\n0 1\n1 2\n0 1\n5 5\n")
@example("n 3\n1 2\n0 9\n2 1\n")
def test_parse_edge_list_matches_a_line_by_line_reference(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 4\n0 1\n1 2\n2 2\n2 3\n", "line 4: loop at vertex 2"),
        ("n 4\n# c\n0 1\n1 3\n\n3 1\n0 2\n", "line 6: duplicate edge (1, 3)"),
        # equal entries at the seam of two sorted lists are no repeat
        ("n 4\n0 2\n1 2\n2 3\n", None),
    ],
    ids=["loop", "both-ways", "seam"],
)
def test_parse_edge_list_names_the_line_of_a_repeated_neighbor(
    text, message, monkeypatch
):
    if message is None:
        # found without the line-by-line parser
        monkeypatch.delattr(documents, "_parse_edge_lines")
        assert parse_edge_list(text) == Graph(4, [(0, 2), (1, 2), (2, 3)])
        return
    with pytest.raises(DocumentError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_parse_print_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


# ---------------------------------------------------------------------------
# verdict documents
# ---------------------------------------------------------------------------


def test_verdict_round_trip_and_validation():
    for g in (complete_graph(4), complete_graph(5), petersen_graph(), cube_graph()):
        doc = verdict_to_doc(g, decide(g))
        assert verdict_doc_is_valid(g, doc)
        # JSON round trip preserves the document
        assert json.loads(json.dumps(doc)) == doc


def test_verdict_doc_rejects_tampering():
    k5 = complete_graph(5)
    doc = verdict_to_doc(k5, decide(k5))
    doc["certificate"]["paths"][0] = doc["certificate"]["paths"][0][:-1]
    assert not verdict_doc_is_valid(k5, doc)

    k4 = complete_graph(4)
    planar_doc = verdict_to_doc(k4, decide(k4))
    # swap two neighbors to break the embedding
    rot = planar_doc["rotation"]
    rot[3] = [rot[3][1], rot[3][0], rot[3][2]]
    assert (
        not verdict_doc_is_valid(k4, planar_doc)
        or json.dumps(planar_doc) != json.dumps(verdict_to_doc(k4, decide(k4)))
    )


def test_large_tampered_planar_verdicts_are_rejected():
    g = grid_graph(30, 30)
    doc = verdict_to_doc(g, decide(g))
    assert verdict_doc_is_valid(g, doc)
    rng = random.Random(7)
    # two neighbors swapped at a vertex of degree 4: the faces no longer
    # close into a sphere
    swapped = copy.deepcopy(doc)
    v = rng.choice([v for v, cyc in enumerate(swapped["rotation"]) if len(cyc) == 4])
    cyc = swapped["rotation"][v]
    cyc[0], cyc[1] = cyc[1], cyc[0]
    # one face walk started one dart later
    rotated = copy.deepcopy(doc)
    k = rng.randrange(len(rotated["faces"]))
    rotated["faces"][k] = rotated["faces"][k][1:] + rotated["faces"][k][:1]
    # one face too many in the Euler data
    counted = copy.deepcopy(doc)
    counted["euler"]["F"] += 1
    for tampered in (swapped, rotated, counted):
        assert not verdict_doc_is_valid(g, tampered)


def test_auditing_a_subdivided_k5_never_builds_neighbor_masks():
    # K5 with 200 interior vertices on each of its ten paths: 2,005 vertices
    edges, paths, nxt = [], [], 5
    for a, b in itertools.combinations(range(5), 2):
        path = [a, *range(nxt, nxt + 200), b]
        nxt += 200
        edges += zip(path, path[1:])
        paths.append(path)
    g = parse_edge_list(format_edge_list(Graph(nxt, edges)))
    doc = {
        "status": "nonplanar",
        "certificate": {"pattern": "K5", "branch": [0, 1, 2, 3, 4], "paths": paths},
    }
    assert g.n == 2005
    assert verdict_doc_is_valid(g, doc)
    assert g._adj_mask is None and g._edges is None
    paths[3] = paths[3][:-2] + paths[3][-1:]  # skips a vertex: not a path of g
    assert not verdict_doc_is_valid(g, doc)
    assert g._adj_mask is None and g._edges is None


def test_auditing_a_planar_grid_never_builds_the_edge_set():
    grid = grid_graph(30, 30)
    doc = verdict_to_doc(grid, decide(grid))
    g = parse_edge_list(format_edge_list(grid))
    assert verdict_doc_is_valid(g, doc)
    assert g._edges is None and g._adj_mask is None
    assert g.edges == grid.edges  # built on first use
    doc["rotation"][1][0] = 899  # a stranger
    assert not verdict_doc_is_valid(g, doc)


def test_check_refuses_a_verdict_without_its_witness(capsys, write, monkeypatch):
    # verdict_to_doc checks its input under python -O too: exit 3, no document
    path = write("k4.edges", format_edge_list(complete_graph(4)))
    planar = decide(complete_graph(4))
    for broken in (
        dataclasses.replace(planar, rotation=None),
        dataclasses.replace(planar, faces=None),
        Verdict(planar=False),
    ):
        monkeypatch.setattr(cli, "decide", lambda g, config, v=broken: v)
        code, out, err = run(capsys, ["check", path])
        assert (code, out) == (3, "")
        assert "without" in err


def test_verdict_doc_schema_errors():
    k4 = complete_graph(4)
    with pytest.raises(DocumentError):
        verdict_doc_is_valid(k4, {"status": "maybe"})
    with pytest.raises(DocumentError):
        verdict_doc_is_valid(
            k4, {"status": "nonplanar", "certificate": {"pattern": "K7"}}
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_check_k5_exits_1(capsys, write):
    path = write("k5.edges", format_edge_list(complete_graph(5)))
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "nonplanar"
    assert doc["certificate"]["pattern"] == "K5"


def test_check_k4_exits_0(capsys, write):
    path = write("k4.edges", format_edge_list(complete_graph(4)))
    code, out, _ = run(capsys, ["check", path, "--validate"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "planar"
    assert doc["euler"]["F"] == 4


def test_check_via_minor(capsys, write):
    path = write("pet.edges", format_edge_list(petersen_graph()))
    code, out, _ = run(capsys, ["check", path, "--via", "minor"])
    assert code == 1
    assert json.loads(out)["certificate"]["pattern"] == "K33"


def test_check_malformed_input_exits_2(capsys, write):
    path = write("bad.edges", "n 4\n5 5\n")
    code, _, err = run(capsys, ["check", path])
    assert code == 2
    assert "line 2" in err


def test_check_budget_exhaustion_exits_3(capsys, write):
    path = write("cube.edges", format_edge_list(cube_graph()))
    code, _, err = run(capsys, ["check", path, "--budget", "2"])
    assert code == 3
    assert "budget" in err


def test_check_5x5_grid_within_budget_exits_0(capsys, write):
    # the left-right test spends one step per edge: 40 here
    path = write("grid5.edges", format_edge_list(grid_graph(5, 5)))
    code, _, _ = run(capsys, ["check", path, "--budget", "1000"])
    assert code == 0


def planted_k33(per_edge: int) -> Graph:
    """K3,3 with every edge subdivided per_edge times, labels shuffled."""
    edges, nxt = [], 6
    for a, b in complete_bipartite(3, 3).sorted_edges():
        path = [a, *range(nxt, nxt + per_edge), b]
        nxt += per_edge
        edges += zip(path, path[1:])
    perm = list(range(nxt))
    random.Random(0).shuffle(perm)
    return Graph(nxt, [(perm[u], perm[v]) for u, v in edges])


def test_check_budget_bounds_the_minor_search(capsys, write):
    # the minor search spends one step per connected set it tries; on a
    # 2,004-vertex subdivided K3,3 it would run for hours unbounded, and
    # 100,000 sets take a few seconds
    g = planted_k33(222)
    assert g.n == 2004
    path = write("k33-2004.edges", format_edge_list(g))
    code, out, err = run(capsys, ["check", "--via", "minor", "--budget", "100000", path])
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_check_budget_bounds_kuratowski_extraction(capsys, write):
    # 1,743 edges: the decision spends 1,743 steps, and the extraction's
    # tests draw on what is left: 1,741 for the rejected component, then
    # 20 for the H its failure set localises, then the deletion's tests
    g = k33_in_grid(30)
    assert lr_planar_rotation(g, 1743) is None
    path = write("k33grid.edges", format_edge_list(g))
    for budget in (3000, 1743 + 1741 + 19):
        code, _, err = run(capsys, ["check", path, "--budget", str(budget)])
        assert code == 3
        assert "budget" in err


def test_k33_in_grid_verdict_passes_certify(capsys, write):
    gpath = write("k33grid.edges", format_edge_list(k33_in_grid(30)))
    code, out, _ = run(capsys, ["check", gpath, "--validate"])
    assert code == 1
    assert json.loads(out)["certificate"]["pattern"] == "K33"
    vpath = write("k33grid.json", out)
    code, _, _ = run(capsys, ["certify", gpath, vpath])
    assert code == 0


def test_repeated_main_calls_share_one_parser(capsys, write):
    assert build_parser() is build_parser()
    k4path = write("k4.edges", format_edge_list(complete_graph(4)))
    for argv, expected in (
        (["check", k4path, "--budget", "zero"], 2),
        (["certify", k4path], 2),
        (["check", k4path], 0),
        (["harness", "kuratowski", "--max-n", "x"], 2),
        (["lemmas", k4path], 0),
        (["check", k4path, "--via", "bogus"], 2),
        (["check", k4path, "--via", "minor"], 0),
        ([], 2),
    ):
        code, _, _ = run(capsys, argv)
        assert code == expected, argv


def test_check_validate_long_path_exits_0(capsys, write):
    path = write("path.edges", format_edge_list(path_graph(3000)))
    code, out, _ = run(capsys, ["check", path, "--validate"])
    assert code == 0
    assert json.loads(out)["euler"]["V"] == 3000


def test_large_planar_verdicts_pass_certify(capsys, write):
    for name, g in (
        ("grid30", grid_graph(30, 30)),
        ("tri32", grid_graph(32, 32, diagonals=True)),
    ):
        gpath = write(f"{name}.edges", format_edge_list(g))
        code, out, _ = run(capsys, ["check", gpath, "--validate"])
        assert code == 0
        vpath = write(f"{name}.json", out)
        code, _, _ = run(capsys, ["certify", gpath, vpath])
        assert code == 0


@pytest.mark.parametrize("validate", [[], ["--validate"]])
def test_a_rotation_of_genus_one_exits_3_without_a_document(
    capsys, write, monkeypatch, validate
):
    k4 = complete_graph(4)
    torus = next(
        rho for rho in enumerate_rotation_systems(k4) if genus(k4, rho) == 1
    )
    monkeypatch.setattr(planarity, "lr_planar_rotation", lambda g, budget: torus)
    path = write("k4.edges", format_edge_list(k4))
    code, out, err = run(capsys, ["check", path, *validate])
    assert (code, out) == (3, "")
    assert "non-planar rotation" in err


def test_planar_check_validate_traces_its_faces_once(capsys, write, monkeypatch):
    calls = []
    real = embedding.face_walks

    def counted(g, cycles):
        calls.append(g.n)
        return real(g, cycles)

    monkeypatch.setattr(embedding, "face_walks", counted)
    monkeypatch.setattr(documents, "face_walks", counted)
    path = write("grid.edges", format_edge_list(grid_graph(8, 8, diagonals=True)))
    code, out, _ = run(capsys, ["check", path, "--validate"])
    assert (code, calls) == (0, [64])
    assert json.loads(out)["euler"]["F"] == 2 * 7 * 7 + 1


def test_nonplanar_check_validate_validates_its_certificate_once(
    capsys, write, monkeypatch
):
    calls = []
    real = subdivision.validate_subdivision

    def counted(g, cert):
        calls.append(cert.pattern)
        return real(g, cert)

    for module in (subdivision, embedding, planarity, documents):
        monkeypatch.setattr(module, "validate_subdivision", counted)
    k5 = complete_graph(5)
    for e in ((0, 1), (2, 3), (1, 4)):
        k5 = subdivide_edge(k5, e)
    path = write("subk5.edges", format_edge_list(k5))
    code, out, _ = run(capsys, ["check", path, "--validate"])
    assert (code, calls) == (1, [Pattern.K5])
    assert json.loads(out)["certificate"]["pattern"] == "K5"


def test_certify_rejects_boolean_vertex_ids(capsys, write):
    edge = write("edge.edges", "n 2\n0 1\n")
    vpath = write("bool.json", '{"status": "planar", "rotation": [[true], [false]]}')
    code, _, err = run(capsys, ["certify", edge, vpath])
    assert code == 2
    assert "vertex ids" in err

    k5 = complete_graph(5)
    k5path = write("k5.edges", format_edge_list(k5))
    doc = verdict_to_doc(k5, decide(k5))
    swap = {0: False, 1: True}
    cert = doc["certificate"]
    cert["branch"] = [swap.get(w, w) for w in cert["branch"]]
    cert["paths"] = [[swap.get(w, w) for w in p] for p in cert["paths"]]
    vpath = write("k5bool.json", json.dumps(doc))
    code, _, _ = run(capsys, ["certify", k5path, vpath])
    assert code == 2


def test_certify_round_trip(capsys, write, tmp_path):
    gpath = write("pet.edges", format_edge_list(petersen_graph()))
    code, out, _ = run(capsys, ["check", gpath])
    assert code == 1
    vpath = write("pet.verdict.json", out)
    code, _, _ = run(capsys, ["certify", gpath, vpath])
    assert code == 0


def test_certify_rejects_corrupted_certificate(capsys, write):
    gpath = write("pet.edges", format_edge_list(petersen_graph()))
    _, out, _ = run(capsys, ["check", gpath])
    doc = json.loads(out)
    doc["certificate"]["paths"][2] = doc["certificate"]["paths"][2][:-1]
    vpath = write("bad.json", json.dumps(doc))
    code, _, _ = run(capsys, ["certify", gpath, vpath])
    assert code == 1


def test_certify_rejects_nonplanar_rotation_claim(capsys, write):
    k4path = write("k4.edges", format_edge_list(complete_graph(4)))
    _, out, _ = run(capsys, ["check", k4path])
    doc = json.loads(out)
    # claim a genus-1 rotation of K4: swap one vertex's cycle
    doc["rotation"][0] = [
        doc["rotation"][0][1],
        doc["rotation"][0][0],
        doc["rotation"][0][2],
    ]
    del doc["faces"], doc["euler"]
    vpath = write("tampered.json", json.dumps(doc))
    code, _, _ = run(capsys, ["certify", k4path, vpath])
    assert code == 1


@pytest.mark.parametrize(
    "rotation, code",
    [
        ([[1, 2], [0, 2], [0, 1]], 0),
        ([[1, 2], [0, 2]], 1),  # a cycle missing
        ([[1, 2], [0, 2], [0, 3]], 1),  # a stranger
        ([[1, 2], [2, 0, 1], [0, 1]], 1),  # one entry too many
        ([[1, 1], [0, 2]], 2),  # a repeat outranks the missing cycle
        ([[1, 2], [0, 2], [1, 1]], 2),
        ([[2, 2], [0, 2], [0, 1]], 2),
    ],
)
def test_certify_exit_codes_for_triangle_rotations(capsys, write, rotation, code):
    gpath = write("c3.edges", format_edge_list(complete_graph(3)))
    vpath = write("c3.json", json.dumps({"status": "planar", "rotation": rotation}))
    got, out, err = run(capsys, ["certify", gpath, vpath])
    assert (got, out) == (code, "")
    assert ("repeated neighbor in a rotation" in err) == (code == 2)


@pytest.mark.parametrize("name", ["k4", "grid3x3-isolated", "k5", "subdivided-k33"])
def test_certify_accepts_the_golden_verdicts(capsys, name):
    argv = ["certify", str(GOLDEN / f"{name}.txt"), str(GOLDEN / f"{name}.json")]
    assert run(capsys, argv) == (0, "", "")


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("collector_on", [True, False])
def test_check_and_certify_pause_the_collector_and_restore_it(
    capsys, write, monkeypatch, collector_on
):
    def files(name, g):
        doc = json.dumps(verdict_to_doc(g, decide(g)))
        return write(f"{name}.edges", format_edge_list(g)), write(f"{name}.json", doc)

    k4, k4_doc = files("k4", complete_graph(4))
    k5, k5_doc = files("k5", complete_graph(5))
    bad = write("bad.edges", "n 2\n0 0\n")
    seen = []
    real = cli.verdict_doc_is_valid
    real_decide = cli.decide

    def audit(g, doc):
        seen.append(gc.isenabled())
        if doc.get("status") == "nonplanar" and doc.get("certificate") == {}:
            raise InternalInconsistencyError("forced")
        return real(g, doc)

    def decide_spy(g, config):
        seen.append(gc.isenabled())
        return real_decide(g, config)

    # check --validate leaves both answers to decide's own audit, and
    # only certify calls verdict_doc_is_valid
    monkeypatch.setattr(cli, "verdict_doc_is_valid", audit)
    monkeypatch.setattr(cli, "decide", decide_spy)
    broken = write("broken.json", '{"status": "nonplanar", "certificate": {}}')
    runs = [
        (["check", k4, "--validate"], 0),
        (["check", k5, "--validate"], 1),
        (["check", bad], 2),
        (["check", k4, "--budget", "1"], 3),
        (["certify", k4, k4_doc], 0),
        (["certify", k4, k5_doc], 1),
        (["certify", bad, k4_doc], 2),
        (["certify", k5, broken], 3),
    ]
    (gc.enable if collector_on else gc.disable)()
    try:
        before = collector_state()
        for argv, code in runs:
            assert run(capsys, argv)[0] == code, argv
            assert collector_state() == before, argv
    finally:
        gc.enable()
    assert seen == [False] * 6  # 3 checks decide; 3 certifies audit


def test_harness_runs_with_the_collector_on(capsys, monkeypatch):
    from planarcert import harness

    seen = []
    real = harness.verify_lifting

    def spy(samples, seed):
        seen.append(gc.isenabled())
        return real(samples, seed)

    monkeypatch.setattr(harness, "verify_lifting", spy)
    assert gc.isenabled()
    code, _, _ = run(capsys, ["harness", "lifting", "--samples", "3"])
    assert (code, seen) == (0, [True])


def test_lemmas_command(capsys, write):
    k5path = write("k5.edges", format_edge_list(complete_graph(5)))
    code, out, _ = run(capsys, ["lemmas", k5path])
    assert code == 0
    doc = json.loads(out)
    assert doc["condition1"] and doc["condition2"] and doc["condition3"]

    petpath = write("pet.edges", format_edge_list(petersen_graph()))
    code, out, _ = run(capsys, ["lemmas", petpath])
    doc = json.loads(out)
    assert not doc["condition3"]


def test_harness_command(capsys):
    code, out, _ = run(capsys, ["harness", "kuratowski", "--max-n", "4"])
    assert code == 0
    assert "passed true" in out
    code, out, _ = run(capsys, ["harness", "lifting", "--samples", "10", "--seed", "42"])
    assert code == 0


def test_harness_unknown_campaign_exits_2(capsys):
    code, _, _ = run(capsys, ["harness", "bogus"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["kuratowski", "--max-n", "-1"], "--max-n"),
        (["menger-cubic", "--samples", "-3"], "--samples"),
        (["kuratowski-classes", "--max-n", "-1"], "--max-n"),
    ],
)
def test_harness_refuses_a_negative_size(capsys, argv, option):
    # these reported 0 graphs and passed, or died inside factorial()
    code, out, err = run(capsys, ["harness", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("usage:")
    assert f"argument {option}: must not be negative" in err


def test_check_budget_defaults_to_the_decision_default():
    assert build_parser().parse_args(["check", "-"]).budget == (
        planarity.DEFAULT_CONFIG.node_budget
    )


def test_harness_dispatches_through_the_campaign_registry(capsys, monkeypatch):
    from planarcert import harness

    code, _, err = run(capsys, ["harness", "bogus"])
    assert code == 2
    assert all(repr(name) in err for name in harness.CAMPAIGNS)
    calls = []
    real = harness.verify_lifting

    def spy(samples, seed):
        calls.append((samples, seed))
        return real(samples, seed)

    # runners look campaigns up when called, so a rebinding is what runs
    monkeypatch.setattr(harness, "verify_lifting", spy)
    code, out, _ = run(capsys, ["harness", "lifting", "--samples", "3", "--seed", "5"])
    assert (code, calls) == (0, [(3, 5)])
    assert out == real(3, 5).to_kv()


def test_harness_all_prints_every_campaign_in_registry_order(capsys):
    from planarcert import harness

    argv = ["--max-n", "4", "--samples", "6"]
    singles = []
    for name in harness.CAMPAIGNS:
        code, out, _ = run(capsys, ["harness", name, *argv])
        assert code == 0
        singles.append(out)
    code, out, _ = run(capsys, ["harness", "all", *argv])
    assert (code, out) == (0, "".join(singles))
    code, out, _ = run(capsys, ["harness", "all", *argv, "--text"])
    assert code == 0
    assert [line[:7] for line in out.splitlines()] == ["[PASS] "] * 6


def test_harness_all_fails_when_one_campaign_fails_and_runs_the_rest(
    capsys, monkeypatch
):
    from planarcert import harness

    failing = harness.CampaignReport("lemma", 1, 0, 0, ((3, 7),), 0.0)
    monkeypatch.setitem(harness.CAMPAIGNS, "lemma", lambda *args: failing)
    code, out, _ = run(capsys, ["harness", "all", "--max-n", "3", "--samples", "3"])
    assert code == 1
    assert out.count("campaign ") == 6
    assert failing.to_kv() in out
    assert out.count("passed true") == 5


def test_harness_all_prints_the_golden_report(capsys):
    # every campaign's to_kv bytes, pinned to a checked-in file so that a
    # change to any campaign's graphs, searches or counting shows up here
    argv = ["harness", "all", "--max-n", "5", "--samples", "40", "--seed", "7"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "harness-all.kv").read_text()


def test_harness_exits_3_when_a_forked_share_breaks_an_invariant(
    capsys, monkeypatch
):
    from planarcert import harness

    def judge(g):
        if (g.n, g.edge_mask()) == (3, 7):  # stream index 10, any worker's claim
            raise InternalInconsistencyError("routes disagree on n=3 mask=7")
        return 0, 0, True

    monkeypatch.setattr(harness, "_lemma_judgement", judge)
    for cpus in (1, 3):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        code, out, err = run(capsys, ["harness", "lemma", "--max-n", "3"])
        assert (code, out, err) == (3, "", "error: routes disagree on n=3 mask=7\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "launch",
    [
        ["-m", "planarcert.cli"],
        [
            "-c",
            "from planarcert import cli, harness; "
            "harness._usable_cpus = lambda: 3; cli.entry()",
        ],
    ],
    ids=["module", "three-shares"],
)
def test_harness_all_prints_the_golden_report_through_a_pipe(launch):
    # piped stdout is block-buffered (PYTHONUNBUFFERED is dropped to make
    # sure): a forked share that flushed the buffer it inherited would print
    # the earlier campaigns' reports again, which the in-process capture
    # above cannot see
    src = pathlib.Path(documents.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = ["harness", "all", "--max-n", "5", "--samples", "40", "--seed", "7"]
    proc = subprocess.run(
        [sys.executable, *launch, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "harness-all.kv").read_bytes()


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(complete_graph(4))))
    code, out, _ = run(capsys, ["check", "-"])
    assert code == 0


# ---------------------------------------------------------------------------
# printed JSON
# ---------------------------------------------------------------------------


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, expected_code",
    [("k4", 0), ("grid3x3-isolated", 0), ("k5", 1), ("subdivided-k33", 1)],
)
def test_check_prints_the_golden_bytes(capsys, name, expected_code):
    code, out, err = run(capsys, ["check", str(GOLDEN / f"{name}.txt")])
    assert (code, err) == (expected_code, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "name", ["k4", "grid3x3-isolated", "k5", "subdivided-k33", "petersen"]
)
def test_lemmas_prints_the_golden_bytes(capsys, name):
    # Petersen's witnesses include theta-found, for every edge
    code, out, err = run(capsys, ["lemmas", str(GOLDEN / f"{name}.txt")])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.lemmas.json").read_text()


def test_lemmas_on_the_unshuffled_10x10_grid_finishes(write):
    # the exponential theta search ran for more than 230 s on this grid;
    # the block test takes well under a second
    src = pathlib.Path(documents.__file__).resolve().parents[1]
    path = write("grid.txt", format_edge_list(grid_graph(10, 10)))
    proc = subprocess.run(
        [sys.executable, "-m", "planarcert.cli", "lemmas", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    doc = json.loads(proc.stdout)
    assert not doc["condition1"] and len(doc["witnesses"]) == 2 * 180


def test_golden_grid_has_an_empty_cycle_and_an_empty_walk():
    doc = json.loads((GOLDEN / "grid3x3-isolated.json").read_text())
    assert doc["rotation"][9] == [] and doc["faces"][-1] == []


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner)
        | st.dictionaries(st.text(), inner)
        | st.lists(st.lists(st.integers() | st.booleans(), max_size=4))
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example([[], [1, 2], []])
@example({"a": [True, 1], "b": [[1], [False]], "c": {}})
def test_to_json_matches_json_dumps(value):
    assert documents.to_json(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_to_json_matches_json_dumps_on_verdicts_and_lemma_reports(g):
    for doc in (
        verdict_to_doc(g, decide(g)),
        documents.lemma_report_to_doc(lemma_report(g)),
    ):
        assert documents.to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_closed_stdout_pipe_exits_3_without_a_traceback(write):
    # about 400 KB of output, far more than a pipe buffers: the write
    # fails once the reader has closed its end
    path = write("grid.edges", format_edge_list(grid_graph(60, 60)))
    src = pathlib.Path(documents.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from planarcert.cli import entry; entry()", "check", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err == b""
