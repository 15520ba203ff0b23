import copy
import dataclasses
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarcert import cli, documents
from planarcert.cli import build_parser, main
from planarcert.documents import (
    DocumentError,
    format_edge_list,
    parse_edge_list,
    verdict_doc_is_valid,
    verdict_to_doc,
)
from planarcert.embedding import lr_planar_rotation
from planarcert.graphs import (
    Graph,
    complete_graph,
    cube_graph,
    path_graph,
    petersen_graph,
)
from planarcert.planarity import Verdict, decide

from conftest import graphs, grid_graph, k33_in_grid


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


def test_check_budget_bounds_kuratowski_extraction(capsys, write):
    # 1,743 edges: the decision alone fits in 5,000 steps, so the budget
    # runs out in the extraction's tests, which draw on what is left
    g = k33_in_grid(30)
    assert lr_planar_rotation(g, 5000) is None
    path = write("k33grid.edges", format_edge_list(g))
    code, _, err = run(capsys, ["check", path, "--budget", "5000"])
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


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(complete_graph(4))))
    code, out, _ = run(capsys, ["check", "-"])
    assert code == 0
