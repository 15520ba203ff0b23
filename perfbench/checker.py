"""Independent checker for planarcert verdict documents.

It imports nothing from planarcert, so a defect shared by the program's
search and its own validator cannot hide here.  A planar verdict is
checked by tracing the faces of its rotation and counting them against
Euler's formula; a non-planar verdict by checking that its K5 / K3,3
paths follow graph edges, join the right branch vertices and are
internally disjoint.

Each check returns None for a valid document or a short reason for an
invalid one, and raises SchemaError where planarcert's documented schema
is broken (``certify`` must exit 2 there).  Vertex ids must be JSON
integers: ``true`` and ``false`` are not ids.
"""

from __future__ import annotations

from corpus import PATTERN_EDGES

EXIT_VALID, EXIT_INVALID, EXIT_SCHEMA = 0, 1, 2


class SchemaError(ValueError):
    pass


def _ids(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(w) is not int for w in value):
        raise SchemaError(f"{what} must be a list of integer vertex ids")
    return value


def neighbour_sets(n: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def component_count(n: int, nbrs: list[set[int]]) -> int:
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in nbrs[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def face_walks(rotation: list[list[int]]) -> list[list[int]]:
    """Faces of a rotation system as vertex walks.

    Entering v along the dart (u, v), the walk leaves along (v, w) where w
    follows u in v's cyclic order.  Faces are listed by their smallest
    dart, each walk starting there; isolated vertices add one empty walk
    each, after the others.  This is the face format of planarcert's
    verdict documents.
    """
    # dart u -> rotation[u][j] is numbered first[u] + j
    first = [0] * (len(rotation) + 1)
    for v, cyc in enumerate(rotation):
        first[v + 1] = first[v] + len(cyc)
    where = [{w: j for j, w in enumerate(cyc)} for cyc in rotation]
    succ = [0] * first[-1]
    for u, cyc in enumerate(rotation):
        for j, v in enumerate(cyc):
            succ[first[u] + j] = first[v] + (where[v][u] + 1) % len(rotation[v])
    tail = [u for u, cyc in enumerate(rotation) for _ in cyc]
    used = [False] * first[-1]
    walks = []
    for u, cyc in enumerate(rotation):
        for v in sorted(cyc):
            start = first[u] + where[u][v]
            if used[start]:
                continue
            walk = []
            dart = start
            while not used[dart]:
                used[dart] = True
                walk.append(tail[dart])
                dart = succ[dart]
            walks.append(walk)
    walks.extend([] for cyc in rotation if not cyc)
    return walks


def euler_data(n: int, edges, rotation: list[list[int]]) -> tuple[list[list[int]], dict]:
    nbrs = neighbour_sets(n, edges)
    walks = face_walks(rotation)
    return walks, {
        "V": n,
        "E": len(edges),
        "F": len(walks),
        "components": component_count(n, nbrs),
    }


def planar_problem(n: int, edges, doc: dict) -> str | None:
    rotation = doc.get("rotation")
    if not isinstance(rotation, list):
        raise SchemaError("rotation must be a list")
    for cyc in rotation:
        _ids(cyc, "rotation entry")
    if len(rotation) != n:
        return "rotation does not list every vertex"
    nbrs = neighbour_sets(n, edges)
    for v, cyc in enumerate(rotation):
        if len(cyc) != len(nbrs[v]) or set(cyc) != nbrs[v]:
            return f"rotation at {v} is not its neighbourhood"
    walks, euler = euler_data(n, edges, rotation)
    genus2 = 2 * euler["components"] - euler["V"] + euler["E"] - euler["F"]
    if genus2 != 0:
        return f"rotation has genus {genus2 / 2:g}, not 0"
    if "faces" in doc and doc["faces"] != walks:
        return "face list differs from the traced faces"
    if "euler" in doc and doc["euler"] != euler:
        return "Euler counts differ from the traced faces"
    return None


def subdivision_problem(n: int, edges, cert) -> str | None:
    if not isinstance(cert, dict):
        raise SchemaError("certificate must be an object")
    pattern = cert.get("pattern")
    if pattern not in PATTERN_EDGES:
        raise SchemaError(f"unknown pattern {pattern!r}")
    branch = _ids(cert.get("branch"), "branch")
    paths = cert.get("paths")
    if not isinstance(paths, list):
        raise SchemaError("paths must be a list")
    for p in paths:
        _ids(p, "path")
    pattern_edges = PATTERN_EDGES[pattern]
    if len(branch) != (5 if pattern == "K5" else 6) or len(paths) != len(pattern_edges):
        return "wrong number of branch vertices or paths"
    if len(set(branch)) != len(branch) or not all(0 <= b < n for b in branch):
        return "branch vertices are not distinct vertices"
    nbrs = neighbour_sets(n, edges)
    owner: dict[int, int] = {b: -1 for b in branch}
    for k, ((pu, pv), p) in enumerate(zip(pattern_edges, paths)):
        if len(p) < 2 or {p[0], p[-1]} != {branch[pu], branch[pv]}:
            return f"path {k} does not join its branch vertices"
        for a, b in zip(p, p[1:]):
            if not (0 <= a < n and b in nbrs[a]):
                return f"path {k} leaves the graph's edges at {a}-{b}"
        for w in p[1:-1]:
            if w in owner:
                if owner[w] == -1:
                    return f"path {k} runs through branch vertex {w}"
                return f"paths {owner[w]} and {k} share interior vertex {w}"
            owner[w] = k
    return None


def expected_exit(n: int, edges, doc) -> int:
    """The exit code ``planarcert certify`` owes this document."""
    try:
        if not isinstance(doc, dict):
            raise SchemaError("verdict must be an object")
        status = doc.get("status")
        if status == "planar":
            problem = planar_problem(n, edges, doc)
        elif status == "nonplanar":
            problem = subdivision_problem(n, edges, doc.get("certificate"))
        else:
            raise SchemaError(f"unknown status {status!r}")
    except SchemaError:
        return EXIT_SCHEMA
    return EXIT_VALID if problem is None else EXIT_INVALID


def check_verdict(case, code: int, doc) -> str | None:
    """Judge one ``planarcert check`` result: the exit code must match the
    status, the status must match the answer known by construction, and
    the certificate must pass this module's checks."""
    if not isinstance(doc, dict) or doc.get("status") not in ("planar", "nonplanar"):
        return "no verdict document"
    planar = doc["status"] == "planar"
    if code != (0 if planar else 1):
        return f"exit code {code} for a {doc['status']} verdict"
    if case.planar is not None and planar != case.planar:
        return f"verdict {doc['status']} contradicts the construction"
    if expected_exit(case.n, case.edges, doc) != EXIT_VALID:
        return "certificate rejected by the independent checker"
    return None
