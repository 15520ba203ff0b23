"""File formats: edge-list graph documents and JSON verdict documents.

Edge-list format: a header line ``n <count>`` (at most MAX_VERTICES),
then one ``u v`` line per edge with 0-based ids; lines starting with
``#`` and blank lines are ignored.  Printing normalizes edges to u < v
and sorts them, so the format round-trips exactly.

Verdict documents are plain JSON objects.  Planar:
``{"status": "planar", "rotation": [...], "faces": [...],
"euler": {"V":, "E":, "F":, "components":}}`` where rotation lists each
vertex's neighbor cycle and faces are vertex walks.  Non-planar:
``{"status": "nonplanar", "certificate": {"pattern": "K5"|"K33",
"branch": [...], "paths": [[...], ...]}}`` with paths listed in the
pattern's edge order.

Documents are printed as json.dumps(doc, indent=2, sort_keys=True) gives
them: one value per line, indented by two spaces, keys sorted.  to_json
writes that text without json's pure-Python encoder.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
from typing import Any, Iterator

from .embedding import euler_genus, face_walks
from .errors import InternalInconsistencyError
from .graphs import Graph
from .lemmas import LemmaReport
from .planarity import Verdict
from .subdivision import Pattern, SubdivisionCertificate, validate_subdivision


class DocumentError(ValueError):
    """Malformed input document; the message carries a line number when
    one makes sense."""


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------


# the largest vertex count a header may declare; parsing allocates one
# adjacency list per vertex before it reads any edge
MAX_VERTICES = 10**7


def parse_edge_list(text: str) -> Graph:
    """The graph an edge-list document describes.

    One pass appends both ends of every edge line to per-vertex lists,
    which are then sorted.  A line that is not two integers, a negative or
    too large id, or a repeated neighbor (a loop or a repeated edge) sends
    the lines through the line-by-line parser instead, which reports the
    first faulty line (or, for a rare comment shape such as ``#1 2``,
    finds none)."""
    lines = text.splitlines()
    n, body = _parse_header(lines)
    adj: list[list[int]] = [[] for _ in range(n)]
    rows = map(str.split, itertools.islice(lines, body, None))
    if _append_edges(rows, adj):
        for nbrs in adj:
            nbrs.sort()
        if not _repeats_a_neighbor(adj):
            return Graph.from_adjacency(
                tuple(map(tuple, adj)), sum(map(len, adj)) // 2
            )
    return _parse_edge_lines(lines, body, n)


def _repeats_a_neighbor(adj: list[list[int]]) -> bool:
    """Whether a sorted list of adj holds some neighbor twice: two equal
    entries side by side.  One scan over the lists joined end to end
    finds every such pair; an equal pair there may also straddle two
    lists, which is no repeat, so only when the scan meets one are the
    pairs placed in their lists."""
    flat = list(itertools.chain.from_iterable(adj))
    if not any(map(operator.eq, flat, itertools.islice(flat, 1, None))):
        return False
    ends = list(itertools.accumulate(map(len, adj)))
    equal = map(operator.eq, flat, itertools.islice(flat, 1, None))
    for j in itertools.compress(itertools.count(1), equal):
        # flat[j - 1] == flat[j]: a repeat unless flat[j] starts a list
        if ends[bisect.bisect_left(ends, j)] != j:
            return True
    return False


def _parse_header(lines: list[str]) -> tuple[int, int]:
    """The declared vertex count and the index of the line after it."""
    for i, raw in enumerate(lines):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        lineno = i + 1
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
        if n > MAX_VERTICES:
            raise DocumentError(
                f"line {lineno}: vertex count {n} is above the limit of "
                f"{MAX_VERTICES}"
            )
        return n, i + 1
    raise DocumentError("missing header line 'n <count>'")


def _append_edges(rows: Iterator[list[str]], adj: list[list[int]]) -> bool:
    """Append both ends of every edge row to adj; False at the first row
    that is not a comment, a blank or two non-negative integers below n.
    A two-token comment such as ``#1 2`` also gives False.  Ids of n or
    more fail the append with IndexError; a loop at v puts v twice in
    adj[v], which the caller's search for repeated neighbors finds."""
    try:
        for tokens in rows:
            if len(tokens) == 2:
                u = int(tokens[0])
                v = int(tokens[1])
                if u >= 0 and v >= 0:
                    adj[u].append(v)
                    adj[v].append(u)
                    continue
            if tokens and not tokens[0].startswith("#"):
                return False
        return True
    except (ValueError, IndexError):
        return False


def _parse_edge_lines(lines: list[str], body: int, n: int) -> Graph:
    """The graph on n vertices whose edges are lines[body:], checked line
    by line; raises the DocumentError of the first faulty line."""
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(itertools.islice(lines, body, None), body + 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise DocumentError(
                f"line {lineno}: expected 'u v', got {raw.strip()!r}"
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
    return Graph(n, seen)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verdict documents
# ---------------------------------------------------------------------------


def _euler(g: Graph, face_count: int, components: int) -> dict[str, int]:
    """The "euler" object of a planar document."""
    return {"V": g.n, "E": g.num_edges, "F": face_count, "components": components}


def verdict_to_doc(g: Graph, verdict: Verdict) -> dict[str, Any]:
    if verdict.planar:
        rho = verdict.rotation
        faces = verdict.faces
        if rho is None or faces is None:
            raise InternalInconsistencyError(
                "planar verdict without a rotation and its faces"
            )
        return {
            "status": "planar",
            "rotation": [list(cyc) for cyc in rho],
            "faces": [list(walk) for walk in faces.walks],
            "euler": _euler(g, len(faces.walks), faces.components),
        }
    cert = verdict.certificate
    if cert is None:
        raise InternalInconsistencyError("non-planar verdict without a certificate")
    return {
        "status": "nonplanar",
        "certificate": {
            "pattern": cert.pattern.value,
            "branch": list(cert.branch),
            "paths": [list(p) for p in cert.paths],
        },
    }


def lemma_report_to_doc(report: LemmaReport) -> dict[str, Any]:
    return {
        "condition1": report.condition1,
        "condition2": report.condition2,
        "condition3": report.condition3,
        "witnesses": [
            {"edge": list(edge), "reason": reason}
            for edge, reason in report.witnesses
        ],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


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
        rotation = doc.get("rotation")
        _require(
            isinstance(rotation, list), "rotation must be a list of neighbor cycles"
        )
        _require(
            all(isinstance(cyc, list) for cyc in rotation)
            and set(map(type, itertools.chain.from_iterable(rotation))) <= {int},
            "each rotation entry must be a list of vertex ids",
        )
        try:
            walks = face_walks(g, rotation)
        except ValueError:
            # a cycle that repeats a neighbor is malformed whatever the graph
            _require(
                all(len(set(cyc)) == len(cyc) for cyc in rotation),
                "repeated neighbor in a rotation",
            )
            return False
        components, genus = euler_genus(g, len(walks))
        if genus:
            return False
        if "faces" in doc and doc["faces"] != walks:
            return False
        if "euler" in doc and doc["euler"] != _euler(g, len(walks), components):
            return False
        return True
    if status == "nonplanar":
        cert = certificate_from_doc(doc.get("certificate"))
        return validate_subdivision(g, cert)
    raise DocumentError(f"unknown verdict status {status!r}")


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------


_INT = {int}
_LIST = {list}


def to_json(doc: Any) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True).

    json drops its C encoder whenever indent is set; here lists of ints,
    and lists of such lists, are joined directly, and json.dumps writes
    only keys and other scalars."""
    parts: list[str] = []
    _write_json(doc, "\n", parts)
    return "".join(parts)


def _write_json(obj: Any, nl: str, out: list[str]) -> None:
    """Append obj's text to out; nl is a newline plus obj's indentation."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                key = json.dumps(key)  # json's name for a scalar key
            out.append(sep + json.dumps(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds == _INT:
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + nl + "]")
        elif kinds == _LIST and set(map(type, itertools.chain.from_iterable(obj))) <= _INT:
            deeper = inner + "  "
            sep, head, tail = "," + deeper, "[" + deeper, inner + "]"
            rows = [head + sep.join(map(str, row)) + tail if row else "[]" for row in obj]
            out.append("[" + inner + ("," + inner).join(rows) + nl + "]")
        else:
            sep = "[" + inner
            for value in obj:
                out.append(sep)
                _write_json(value, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(json.dumps(obj))
