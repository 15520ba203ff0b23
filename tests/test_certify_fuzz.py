"""certify on mutated verdict documents: its exit code must equal the one an
independent re-derivation gives, faces traced by the dict-based reference
tracer of test_embedding for planar claims, validate_subdivision for
non-planar ones."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcert.cli import main
from planarcert.documents import format_edge_list, verdict_to_doc
from planarcert.graphs import Graph
from planarcert.planarity import decide
from planarcert.subdivision import Pattern, SubdivisionCertificate, validate_subdivision

from conftest import graphs
from test_embedding import reference_faces


def traced(g, rotation):
    """The face walks and Euler data of a rotation, by the reference
    tracer, plus its genus; ValueError when it does not fit g."""
    faces, _ = reference_faces(g, tuple(map(tuple, rotation)))
    euler = {
        "V": g.n,
        "E": g.num_edges,
        "F": len(faces.walks),
        "components": faces.components,
    }
    return [list(w) for w in faces.walks], euler, faces.genus


def reference_exit(g, doc) -> int:
    """0 when doc certifies its claim about g, 2 when a rotation cycle
    repeats a neighbor (a malformed document, whatever the graph), else 1."""
    if doc["status"] == "planar":
        if any(len(set(cyc)) != len(cyc) for cyc in doc["rotation"]):
            return 2
        try:
            walks, euler, genus = traced(g, doc["rotation"])
        except ValueError:
            return 1
        return 0 if (genus, walks, euler) == (0, doc["faces"], doc["euler"]) else 1
    cert = doc["certificate"]
    sub = SubdivisionCertificate(
        Pattern(cert["pattern"]), tuple(cert["branch"]), tuple(map(tuple, cert["paths"]))
    )
    return 0 if validate_subdivision(g, sub) else 1


def swap_neighbors(doc, data, g):
    cycles = [cyc for cyc in doc["rotation"] if len(cyc) >= 3]
    if not cycles:
        return
    cyc = data.draw(st.sampled_from(cycles))
    i, j = data.draw(st.lists(st.integers(0, len(cyc) - 1), min_size=2, max_size=2, unique=True))
    cyc[i], cyc[j] = cyc[j], cyc[i]


def repeat_neighbor(doc, data, g):
    """An entry becomes another neighbor of the same cycle, so the cycle
    keeps its length."""
    cycles = [cyc for cyc in doc["rotation"] if len(cyc) >= 2]
    if not cycles:
        return
    cyc = data.draw(st.sampled_from(cycles))
    i, j = data.draw(st.lists(st.integers(0, len(cyc) - 1), min_size=2, max_size=2, unique=True))
    cyc[i] = cyc[j]


def foreign_neighbor(doc, data, g):
    """An entry becomes a vertex that is not a neighbor: -1, n, the
    vertex itself or one of the graph's non-neighbors."""
    rotation = doc["rotation"]
    busy = [v for v, cyc in enumerate(rotation) if cyc]
    if not busy:
        return
    v = data.draw(st.sampled_from(busy))
    strangers = [w for w in range(-1, g.n + 1) if w not in g.adj[v]]
    rotation[v][data.draw(st.integers(0, len(rotation[v]) - 1))] = data.draw(
        st.sampled_from(strangers)
    )


def rotate_face(doc, data, g):
    faces = doc["faces"]
    k = data.draw(st.integers(0, len(faces) - 1))
    if len(faces[k]) >= 2:
        s = data.draw(st.integers(1, len(faces[k]) - 1))
        faces[k] = faces[k][s:] + faces[k][:s]


def bump_face_count(doc, data, g):
    doc["euler"]["F"] += data.draw(st.sampled_from([-1, 1]))


def retrace(doc, data, g):
    """Faces and Euler data rewritten to match the rotation as it stands:
    after a swap, only the genus shows the forgery.  A rotation that no
    longer fits g keeps its old faces."""
    try:
        doc["faces"], doc["euler"], _ = traced(g, doc["rotation"])
    except ValueError:
        pass


def _some_path(doc, data):
    return data.draw(st.sampled_from([p for p in doc["certificate"]["paths"] if p]))


def replace_path_vertex(doc, data, g):
    path = _some_path(doc, data)
    path[data.draw(st.integers(0, len(path) - 1))] = data.draw(st.integers(-1, g.n))


def drop_path_vertex(doc, data, g):
    path = _some_path(doc, data)
    del path[data.draw(st.integers(0, len(path) - 1))]


@st.composite
def dense_graphs(draw):
    """5 to 8 vertices, each pair an edge by a coin flip: often
    non-planar, where graphs() draws mostly sparse, planar graphs."""
    n = draw(st.integers(5, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, k in zip(pairs, keep) if k])


PLANAR_MUTATIONS = [
    swap_neighbors, repeat_neighbor, foreign_neighbor, rotate_face, bump_face_count
]
NONPLANAR_MUTATIONS = [replace_path_vertex, drop_path_vertex]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(min_n=1, max_n=8), dense_graphs()), st.data())
def test_certify_agrees_with_a_reference_rederivation(folder, g, data):
    doc = verdict_to_doc(g, decide(g))  # fresh lists, free to mutate
    planar = doc["status"] == "planar"
    kinds = PLANAR_MUTATIONS if planar else NONPLANAR_MUTATIONS
    mutations = data.draw(st.lists(st.sampled_from(kinds), max_size=2))
    if planar and data.draw(st.booleans()):
        mutations.append(retrace)
    for mutate in mutations:
        mutate(doc, data, g)
    graph_path = folder / "g.edges"
    doc_path = folder / "verdict.json"
    graph_path.write_text(format_edge_list(g))
    doc_path.write_text(json.dumps(doc))
    code = main(["certify", str(graph_path), str(doc_path)])
    assert code == reference_exit(g, doc)
    if not mutations:
        assert code == 0
