"""Standing digests of the certificates each route returns.

tests/golden/certificates.kv holds one line per route and corpus,
``<route> <corpus> <sha256>``: the digest of one line per graph, in
corpus order.  The planarity routes and the subdivision search
(find_kuratowski) run over every labeled graph on at most 5 vertices and
every isomorphism class on 6; lr_kuratowski, which takes non-planar
graphs only, runs over the K3,3 in k x k grids for seven k from 3 to 60,
each relabeled with seeds 0-2, and over the non-planar members of 400
seeded random graphs on 6 to 40 vertices.  The lifting route runs over
the lifting campaign's seed-42 stream of 1,000 graphs: for every edge,
find_kuratowski's certificate of the contraction and its lift.

On at most 6 vertices no routing ever chooses between two common
neighbours, so two corpora on more vertices pin the search's own order:
find_kuratowski over the 1,044 isomorphism classes on 7 vertices, and
find_subdivision's K3,3 and then K5 certificate over the first 300 graphs
of the menger-cubic campaign's seed-42 stream.  Their lines follow the
others.  A change that alters a certificate on purpose rewrites the file
with

    PYTHONPATH=src python tests/test_certificates.py > tests/golden/certificates.kv

and names the changed lines in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random

from planarcert.documents import to_json, verdict_to_doc
from planarcert import lr_kuratowski
from planarcert.embedding import (
    find_covering_planar_rotation,
    find_planar_rotation,
    lr_planar_rotation,
)
from planarcert.graphs import contract_edge, enumerate_labeled_graphs, from_edge_mask
from planarcert.harness import (
    _lifting_graphs,
    _menger_cubic_graphs,
    enumerate_graph_class_masks,
    make_rng,
    random_graph,
)
from planarcert.planarity import decide
from planarcert.subdivision import (
    Pattern,
    find_kuratowski,
    find_subdivision,
    lift_through_contraction,
)

from conftest import k33_in_grid, relabeled

GOLDEN = pathlib.Path(__file__).parent / "golden" / "certificates.kv"


def _corpora():
    labeled = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    classes = [from_edge_mask(6, mask) for mask in enumerate_graph_class_masks(6)]
    grids = [
        relabeled(k33_in_grid(k), random.Random(seed))
        for k in (3, 5, 10, 20, 30, 45, 60)
        for seed in range(3)
    ]
    rng = make_rng(0)
    drawn = [
        random_graph(rng.randint(6, 40), (0.1, 0.2, 0.3)[i % 3], rng) for i in range(400)
    ]
    nonplanar = [g for g in drawn if lr_planar_rotation(g) is None]
    return {
        "labeled-n1-5": labeled,
        "classes-n6": classes,
        "k33-grids": grids,
        "random-nonplanar": nonplanar,
        "lifting-42": _lifting_graphs(1000, 42),
    }


@functools.cache
def _larger_corpora():
    """The corpora on 7 or more vertices; listing the n = 7 classes takes
    most of a second, so it is done once per run."""
    return {
        "classes-n7": [from_edge_mask(7, mask) for mask in enumerate_graph_class_masks(7)],
        "menger-cubic-42": _menger_cubic_graphs(300, 42),
    }


def _rotation_line(rho) -> str:
    return json.dumps(None if rho is None else [list(cyc) for cyc in rho])


def _certificate_json(cert):
    return None if cert is None else [cert.pattern.value, cert.branch, cert.paths]


def _certificate_line(cert) -> str:
    return json.dumps(_certificate_json(cert))


def _lifting_line(g) -> str:
    """For every edge xy of g: xy, find_kuratowski's certificate of G/xy,
    and its lift to g (None where G/xy is planar)."""
    out = []
    for x, y in g.sorted_edges():
        contraction = contract_edge(g, (x, y))
        cert = find_kuratowski(contraction[0])
        lifted = None
        if cert is not None:
            lifted = lift_through_contraction(g, x, y, contraction, cert)
        out.append([x, y, _certificate_json(cert), _certificate_json(lifted)])
    return json.dumps(out)


ROUTES = {
    "decide": lambda g: to_json(verdict_to_doc(g, decide(g))),
    "find_planar_rotation": lambda g: _rotation_line(find_planar_rotation(g)),
    "find_covering_planar_rotation": lambda g: _rotation_line(
        find_covering_planar_rotation(g)
    ),
    "lr_kuratowski": lambda g: _certificate_line(lr_kuratowski(g)),
    "find_kuratowski": lambda g: _certificate_line(find_kuratowski(g)),
    "lift_through_contraction": _lifting_line,
    "find_subdivision": lambda g: json.dumps(
        [_certificate_json(find_subdivision(g, p)) for p in (Pattern.K33, Pattern.K5)]
    ),
}
SMALL = (
    "decide",
    "find_planar_rotation",
    "find_covering_planar_rotation",
    "find_kuratowski",
)
# the routes each corpus runs through, in the order of its lines
PLAN = {
    "labeled-n1-5": SMALL,
    "classes-n6": SMALL,
    "k33-grids": ("lr_kuratowski",),
    "random-nonplanar": ("lr_kuratowski",),
    "lifting-42": ("lift_through_contraction",),
    "classes-n7": ("find_kuratowski",),
    "menger-cubic-42": ("find_subdivision",),
}


def certificate_digests() -> str:
    """The text of certificates.kv, recomputed."""
    lines = []
    for corpus, graphs in {**_corpora(), **_larger_corpora()}.items():
        for route in PLAN[corpus]:
            digest = hashlib.sha256()
            for g in graphs:
                digest.update(ROUTES[route](g).encode() + b"\n")
            lines.append(f"{route} {corpus} {digest.hexdigest()}\n")
    return "".join(lines)


def test_corpora_have_the_documented_sizes():
    assert {name: len(gs) for name, gs in _corpora().items()} == {
        "labeled-n1-5": 1099,
        "classes-n6": 156,
        "k33-grids": 21,
        "random-nonplanar": 252,
        "lifting-42": 1000,
    }


def test_larger_corpora_have_the_documented_sizes():
    assert {name: len(gs) for name, gs in _larger_corpora().items()} == {
        "classes-n7": 1044,
        "menger-cubic-42": 300,
    }


def test_every_route_returns_its_pinned_certificates():
    assert certificate_digests() == GOLDEN.read_text()


if __name__ == "__main__":
    print(certificate_digests(), end="")
