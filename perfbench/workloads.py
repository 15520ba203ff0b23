"""The three workloads: what each operation runs and how its output is
judged.

Each builder writes its input files under a work directory and returns a
Workload.  The ``ladder`` runs once per run, before the timed phase; the
timed phase repeats ``ops``, as whole passes or, for a ``stream``, one
operation at a time, until the time is up.

Ladder entries flagged ``probe`` are the scale-ceiling and known-defect
cases: the large planar graphs the backtracking searches cannot finish,
the long path whose recursion escapes ``cli.main``, and verdicts with
boolean vertex ids that ``certify`` accepts.  Their outcomes are measured
and charged (PAR-2) but not counted as failed operations.  Probes are
grouped in named ladders of growing size; once a rung fails, the larger
rungs are charged as failures without being run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checker
import corpus as C


@dataclass
class Op:
    label: str
    argv: list[str]
    # (exit code, stdout) -> None when the output is right, else the reason
    verify: Callable[[int, str], str | None]
    weight: int = 1  # operations it stands for (sweep: graphs examined)
    n: int = 0  # vertex count of the largest graph it certifies
    probe: str = ""  # probes: the name of their ladder


@dataclass
class Workload:
    name: str
    ops: list[Op]
    ladder: list[Op] = field(default_factory=list)
    stream: bool = False
    deadline: float = 60.0
    probe_deadline: float = 60.0


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# sweep: the verification campaigns
# ---------------------------------------------------------------------------

# (campaign, max-n) -> (graphs examined, key -> expected value); examined
# counts are labeled graphs (A006125 partial sums), classes (A000088) and
# connected labeled graphs (A001187); planar classes on six vertices are
# A005470; the lemma campaign characterizes K5 and the ten labeled K3,3.
KNOWN = {
    ("kuratowski", 4): (75, {"planar_count": 75}),
    ("kuratowski", 5): (1099, {"planar_count": 1098}),
    ("kuratowski-classes", 5): (34, {"planar_count": 33}),
    ("kuratowski-classes", 6): (156, {"planar_count": 142}),
    ("lemma", 4): (75, {"nonplanar_count": 0}),
    ("lemma", 6): (33867, {"nonplanar_count": 11}),
    ("chartrand-harary", 4): (44, {}),
    ("chartrand-harary", 5): (772, {}),
}


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


def _report_check(examined: int, expect: dict[str, int], split: bool):
    def verify(code: int, stdout: str) -> str | None:
        kv = _kv(stdout)
        if kv.get("passed") != "true" or code != 0:
            return f"campaign did not pass (exit {code})"
        if kv.get("graphs_examined") != str(examined):
            return f"examined {kv.get('graphs_examined')}, expected {examined}"
        for key, value in expect.items():
            if kv.get(key) != str(value):
                return f"{key} {kv.get(key)}, expected {value}"
        if split:
            counts = int(kv.get("planar_count", -1)) + int(kv.get("nonplanar_count", -1))
            if counts != examined:
                return "planar and non-planar counts do not add up"
        return None

    return verify


def build_sweep(seed: int, workdir: str, smoke: bool) -> Workload:
    """One pass = every campaign once at fixed scale, with the seeded
    menger-cubic and lifting streams split into several calls."""
    rng = random.Random(seed)
    scales = (
        {"kuratowski": 4, "kuratowski-classes": 5, "lemma": 4, "chartrand-harary": 4}
        if smoke
        else {"kuratowski": 5, "kuratowski-classes": 6, "lemma": 6, "chartrand-harary": 5}
    )
    ops = []
    for campaign, max_n in scales.items():
        examined, expect = KNOWN[(campaign, max_n)]
        # three kuratowski calls: the campaign where the repeated embedding
        # searches show, and a block of equal calls that holds the 90th
        # percentile of call latency, below the three slower calls of a
        # cycle; the many short lifting calls hold the median
        for _ in range(3 if campaign == "kuratowski" and not smoke else 1):
            ops.append(Op(
                f"{campaign}-{max_n}",
                ["harness", campaign, "--max-n", str(max_n)],
                _report_check(examined, expect, campaign.startswith("kuratowski")),
                weight=examined,
                n=max_n,
            ))
    # menger-cubic cycles sizes 8, 10, 12 and lifting cycles p = .3, .5, .7,
    # so sample counts stay multiples of three.  A menger-cubic call costs
    # 0.1 s to 2 s depending on its seed (rare 12-vertex cubic graphs make
    # the minor search slow), so its seeds are fixed, like the check ladder;
    # the run's seed draws the lifting streams.
    fixed = random.Random(0)
    streams = (("menger-cubic", 1, 3, 12, fixed), ("lifting", 2, 3, 9, rng)) if smoke else (
        ("menger-cubic", 4, 3, 12, fixed), ("lifting", 40, 24, 9, rng))
    for campaign, calls, samples, n, seeds in streams:
        for _ in range(calls):
            ops.append(Op(
                campaign,
                ["harness", campaign, "--samples", str(samples),
                 "--seed", str(seeds.randrange(2**31))],
                _report_check(samples, {}, campaign == "menger-cubic"),
                weight=samples,
                n=n,
            ))
    return Workload("sweep", ops, deadline=120.0, probe_deadline=120.0)


# ---------------------------------------------------------------------------
# check: decide and certify edge-list files
# ---------------------------------------------------------------------------


# One cycle of small-graph kinds.  Fixed shares keep the latency quantiles
# inside blocks: the median inside the 80% of graphs decided in about a
# millisecond, the 90th percentile inside the 10-vertex prisms (planar
# cubic graphs, about 5 ms).  Random cubic graphs on 10 or more vertices
# are planar or not by chance, with costs 3x apart, so their share of the
# slow block would move with the seed.
SMALL_KINDS = ("trisub",) * 5 + ("planted",) * 4 + ("gnp",) * 4 + ("cubic",) * 3 + ("prism",) * 4


def small_graph(kind: str, rng: random.Random) -> C.Case:
    """6 to 16 vertices, from families whose seed solve times stay within
    tens of milliseconds over thousands of draws.  Denser triangulated-grid
    pieces, cubic graphs on 14 or more vertices and G(n,p) on 8 or more
    vertices have tails of seconds, which would put the deadline inside
    the small-graph stream."""
    if kind == "trisub":
        shape = rng.choice([(2, 3), (2, 4), (3, 3), (2, 5), (2, 6)])
        return C.triangulated_subgraph(*shape, 0.6, rng)
    if kind == "planted":
        pattern = rng.choice(["K5", "K33"])
        bc = 5 if pattern == "K5" else 6
        n = rng.randint(bc + 1, 16)
        return C.planted_subdivision(pattern, n, rng, pendant=rng.randint(0, min(4, n - bc)))
    if kind == "gnp":
        n, p = rng.choice([(6, 0.3), (6, 0.5), (7, 0.3), (7, 0.4)])
        return C.gnp(n, p, rng)
    if kind == "prism":
        return C.prism(5, rng)
    return C.random_cubic(rng.choice([6, 8]), rng)


def _verdict_check(case: C.Case):
    def verify(code: int, stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"exit {code} without a JSON verdict"
        return checker.check_verdict(case, code, doc)

    return verify


def _check_op(case: C.Case, path: str, probe: str = "") -> Op:
    _write(path, C.edge_list_text(case))
    return Op(case.name, ["check", "--validate", path], _verdict_check(case),
              n=case.n, probe=probe)


def build_check(seed: int, workdir: str, smoke: bool) -> Workload:
    """A fixed size ladder, then a stream of seeded small graphs.

    The ladder holds the medium and large graphs the seed decides (counted
    as operations) and the probes above them.

    The medium and large graphs use one fixed labeling: their solve times
    depend on the labeling by up to a factor of ten, and the seed should
    move the small-graph stream, not the few seconds-long cases."""
    rng = random.Random(seed)
    fixed = random.Random(0)
    small = [
        small_graph(SMALL_KINDS[i % len(SMALL_KINDS)], rng)
        for i in range(20 if smoke else 400)
    ]
    if smoke:
        ladder_ops = [C.grid(3, 4, fixed), C.planted_subdivision("K5", 205, fixed, even=True)]
        ladders = {"path": [C.path(1000, fixed)], "grid": [C.grid(5, 5, fixed)]}
    else:
        ladder_ops = [
            C.grid(4, 4, fixed),
            C.subdivided_petersen(20, fixed),
            C.matching(100, fixed),
            C.matching(150, fixed),
            C.planted_subdivision("K5", 2005, fixed, even=True),
            C.planted_subdivision("K33", 2004, fixed, even=True),
        ]
        ladders = {
            "grid": [C.grid(k, k, fixed) for k in (5, 10, 30)],
            "triangulation": [C.grid(32, 32, fixed, diagonals=True)],
            "tree": [C.random_tree(k, fixed) for k in (1000, 3000)],
            "path": [C.path(k, fixed) for k in (1000, 3000)],
            "k33-in-grid": [C.k33_in_grid(30, fixed)],
        }
    ladder = [
        _check_op(c, os.path.join(workdir, f"ladder{i}-{c.name}.txt"))
        for i, c in enumerate(ladder_ops)
    ]
    rungs = [(name, c) for name, cases in ladders.items() for c in cases]
    ladder += [
        _check_op(c, os.path.join(workdir, f"probe{i}-{c.name}.txt"), name)
        for i, (name, c) in enumerate(rungs)
    ]
    ops = [
        _check_op(c, os.path.join(workdir, f"small{i}-{c.name}.txt"))
        for i, c in enumerate(small)
    ]
    # every case the seed decides takes under 5 s (7.5 s when the host is
    # slow), and every probe far over 60 s: an operation is given 20 s, a
    # probe 5 s
    return Workload("check", ops, ladder, stream=True,
                    deadline=1.0 if smoke else 20.0, probe_deadline=1.0 if smoke else 5.0)


# ---------------------------------------------------------------------------
# certify: audit stored verdicts, valid and tampered
# ---------------------------------------------------------------------------


def planar_doc(case: C.Case) -> dict:
    walks, euler = checker.euler_data(case.n, case.edges, case.rotation)
    return {"status": "planar", "rotation": case.rotation, "faces": walks, "euler": euler}


def nonplanar_doc(case: C.Case) -> dict:
    return {"status": "nonplanar", "certificate": case.certificate}


def with_boolean_ids(doc: dict) -> dict:
    """Vertex ids 0 and 1 written as JSON false and true."""
    swap = {0: False, 1: True}

    def ids(seq):
        return [swap.get(w, w) for w in seq]

    if doc["status"] == "planar":
        return {**doc, "rotation": [ids(c) for c in doc["rotation"]],
                "faces": [ids(f) for f in doc["faces"]]}
    cert = doc["certificate"]
    return {**doc, "certificate": {**cert, "branch": ids(cert["branch"]),
                                   "paths": [ids(p) for p in cert["paths"]]}}


def tampered(case: C.Case, doc: dict, rng: random.Random) -> dict[str, dict]:
    out = {}
    if doc["status"] == "planar":
        rotation = [list(c) for c in doc["rotation"]]
        v = rng.choice([v for v, c in enumerate(rotation) if len(c) >= 4])
        rotation[v][0], rotation[v][1] = rotation[v][1], rotation[v][0]
        out["swap"] = {**doc, "rotation": rotation}
        faces = [list(f) for f in doc["faces"]]
        k = rng.randrange(len(faces))
        faces[k] = faces[k][1:] + faces[k][:1]
        out["faces"] = {**doc, "faces": faces}
        out["euler"] = {**doc, "euler": {**doc["euler"], "F": doc["euler"]["F"] + 1}}
    else:
        k, detour = case.detours[0]
        cert = doc["certificate"]
        paths = [list(p) for p in cert["paths"]]
        paths[k] = detour
        out["shared"] = {**doc, "certificate": {**cert, "paths": paths}}
    return out


def _exit_check(expected: int):
    def verify(code: int, stdout: str) -> str | None:
        return None if code == expected else f"exit {code}, expected {expected}"

    return verify


def build_certify(seed: int, workdir: str, smoke: bool) -> Workload:
    """Grids and triangulated grids with rotations read off their drawings,
    and planted K5 / K3,3 subdivisions, from about 10 to about 10,000
    vertices; each valid verdict has tampered copies.  Expected exit codes
    come from the independent checker.  Five size tiers put the median
    inside the middle tier rather than on a boundary between two."""
    rng = random.Random(seed)
    sides = (3, 10) if smoke else (3, 10, 32, 55, 100)
    cases = []
    for side in sides:
        cases.append(C.grid(side, side + 1, rng))
        cases.append(C.grid(side, side + 1, rng, diagonals=True))
        n = side * (side + 1)
        cases.append(C.planted_subdivision("K5", n, rng, even=True, detour=True))
        cases.append(C.planted_subdivision("K33", n, rng, even=True, detour=True))
    ops, probes = [], []
    for i, case in enumerate(cases):
        graph = _write(os.path.join(workdir, f"{i}-{case.name}.txt"), C.edge_list_text(case))
        doc = planar_doc(case) if case.planar else nonplanar_doc(case)
        variants = {"valid": doc, **tampered(case, doc, rng),
                    "booleans": with_boolean_ids(doc)}
        for kind, variant in variants.items():
            path = _write(os.path.join(workdir, f"{i}-{case.name}-{kind}.json"),
                          json.dumps(variant))
            expected = checker.expected_exit(case.n, case.edges, variant)
            op = Op(f"{case.name}-{kind}", ["certify", graph, path], _exit_check(expected),
                    n=case.n if expected == 0 else 0,
                    probe=f"{case.name}-booleans" if kind == "booleans" else "")
            (probes if op.probe else ops).append(op)
    return Workload("certify", ops, ladder=probes, deadline=5.0, probe_deadline=5.0)


BUILDERS = {"sweep": build_sweep, "check": build_check, "certify": build_certify}
