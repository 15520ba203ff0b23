"""Standing digests of the certificates each route returns.

tests/golden/certificates.kv holds one line per route and corpus,
``<route> <corpus> <sha256>``: the digest of one line per graph, in
corpus order.  A change that alters a certificate on purpose rewrites the
file with

    PYTHONPATH=src python tests/test_certificates.py > tests/golden/certificates.kv

and names the changed lines in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from planarcert.documents import to_json, verdict_to_doc
from planarcert.embedding import find_covering_planar_rotation, find_planar_rotation
from planarcert.graphs import enumerate_labeled_graphs, from_edge_mask
from planarcert.harness import enumerate_graph_class_masks
from planarcert.planarity import decide

GOLDEN = pathlib.Path(__file__).parent / "golden" / "certificates.kv"


def _corpora():
    labeled = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    classes = [from_edge_mask(6, mask) for mask in enumerate_graph_class_masks(6)]
    return {"labeled-n1-5": labeled, "classes-n6": classes}


def _rotation_line(rho) -> str:
    return json.dumps(None if rho is None else [list(cyc) for cyc in rho])


ROUTES = {
    "decide": lambda g: to_json(verdict_to_doc(g, decide(g))),
    "find_planar_rotation": lambda g: _rotation_line(find_planar_rotation(g)),
    "find_covering_planar_rotation": lambda g: _rotation_line(
        find_covering_planar_rotation(g)
    ),
}


def certificate_digests() -> str:
    """The text of certificates.kv, recomputed."""
    lines = []
    for corpus, graphs in _corpora().items():
        for route, certificate in ROUTES.items():
            digest = hashlib.sha256()
            for g in graphs:
                digest.update(certificate(g).encode() + b"\n")
            lines.append(f"{route} {corpus} {digest.hexdigest()}\n")
    return "".join(lines)


def test_corpora_have_the_documented_sizes():
    assert {name: len(gs) for name, gs in _corpora().items()} == {
        "labeled-n1-5": 1099,
        "classes-n6": 156,
    }


def test_every_route_returns_its_pinned_certificates():
    assert certificate_digests() == GOLDEN.read_text()


if __name__ == "__main__":
    print(certificate_digests(), end="")
