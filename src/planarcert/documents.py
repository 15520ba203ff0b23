"""File formats: edge-list graph documents and JSON verdict documents.

Edge-list format: a header line ``n <count>``, then one ``u v`` line per
edge with 0-based ids; lines starting with ``#`` and blank lines are
ignored.  Printing normalizes edges to u < v and sorts them, so the
format round-trips exactly.

Verdict documents are plain JSON objects.  Planar:
``{"status": "planar", "rotation": [...], "faces": [...],
"euler": {"V":, "E":, "F":, "components":}}`` where rotation lists each
vertex's neighbor cycle and faces are vertex walks.  Non-planar:
``{"status": "nonplanar", "certificate": {"pattern": "K5"|"K33",
"branch": [...], "paths": [[...], ...]}}`` with paths listed in the
pattern's edge order.
"""

from __future__ import annotations

from typing import Any

from .embedding import RotationSystem, trace_faces
from .graphs import Graph
from .planarity import Verdict
from .subdivision import Pattern, SubdivisionCertificate, validate_subdivision


class DocumentError(ValueError):
    """Malformed input document; the message carries a line number when
    one makes sense."""


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise DocumentError(
                    f"line {lineno}: expected header 'n <count>', got {line!r}"
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
            raise DocumentError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
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
        if e in seen:
            raise DocumentError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    if n is None:
        raise DocumentError("missing header line 'n <count>'")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verdict documents
# ---------------------------------------------------------------------------


def verdict_to_doc(g: Graph, verdict: Verdict) -> dict[str, Any]:
    if verdict.planar:
        rho = verdict.rotation
        faces = verdict.faces
        assert rho is not None and faces is not None
        return {
            "status": "planar",
            "rotation": [list(cyc) for cyc in rho.order],
            "faces": [[u for u, _ in walk] for walk in faces.faces],
            "euler": {
                "V": faces.vertex_count,
                "E": faces.edge_count,
                "F": faces.face_count,
                "components": faces.components,
            },
        }
    cert = verdict.certificate
    assert cert is not None
    return {
        "status": "nonplanar",
        "certificate": {
            "pattern": cert.pattern.value,
            "branch": list(cert.branch),
            "paths": [list(p) for p in cert.paths],
        },
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def rotation_from_doc(doc: Any) -> RotationSystem:
    _require(isinstance(doc, list), "rotation must be a list of neighbor cycles")
    for cyc in doc:
        _require(
            isinstance(cyc, list) and all(type(w) is int for w in cyc),
            "each rotation entry must be a list of vertex ids",
        )
    try:
        return RotationSystem(tuple(tuple(cyc) for cyc in doc))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def certificate_from_doc(doc: Any) -> SubdivisionCertificate:
    _require(isinstance(doc, dict), "certificate must be an object")
    pattern_name = doc.get("pattern")
    _require(
        pattern_name in ("K5", "K33"),
        f"certificate pattern must be K5 or K33, got {pattern_name!r}",
    )
    branch = doc.get("branch")
    paths = doc.get("paths")
    _require(
        isinstance(branch, list) and all(type(b) is int for b in branch),
        "certificate branch must be a list of vertex ids",
    )
    _require(
        isinstance(paths, list)
        and all(
            isinstance(p, list) and all(type(w) is int for w in p)
            for p in paths
        ),
        "certificate paths must be lists of vertex ids",
    )
    return SubdivisionCertificate(
        Pattern(pattern_name), tuple(branch), tuple(tuple(p) for p in paths)
    )


def verdict_doc_is_valid(g: Graph, doc: Any) -> bool:
    """Re-check a verdict document against its graph.

    Raises DocumentError for schema problems; returns False for documents
    that parse but do not certify what they claim.
    """
    _require(isinstance(doc, dict), "verdict must be an object")
    status = doc.get("status")
    if status == "planar":
        rho = rotation_from_doc(doc.get("rotation"))
        if not rho.is_valid_for(g):
            return False
        faces = trace_faces(g, rho)
        if faces.genus != 0:
            return False
        if "faces" in doc:
            recomputed = [[u for u, _ in walk] for walk in faces.faces]
            if doc["faces"] != recomputed:
                return False
        if "euler" in doc:
            euler = doc["euler"]
            expected = {
                "V": faces.vertex_count,
                "E": faces.edge_count,
                "F": faces.face_count,
                "components": faces.components,
            }
            if euler != expected:
                return False
        return True
    if status == "nonplanar":
        cert = certificate_from_doc(doc.get("certificate"))
        return validate_subdivision(g, cert)
    raise DocumentError(f"unknown verdict status {status!r}")
