"""Tests of the independent checker, run by ``run.py --smoke``.

Each test returns None on success or a message.  The checker must accept
the verdicts built from the corpus and reject each tamper for the reason
it was built to trigger.
"""

from __future__ import annotations

import random

import checker
import corpus as C
from workloads import nonplanar_doc, planar_doc, tampered, with_boolean_ids


def _expect(what: str, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def test_triangle_faces():
    # a triangle has an inner and an outer face, listed from their smallest darts
    walks = checker.face_walks([[1, 2], [2, 0], [0, 1]])
    return _expect("triangle faces", walks, [[0, 1, 2], [0, 2, 1]])


def test_k5_rotation_has_genus():
    k5 = [[w for w in range(5) if w != v] for v in range(5)]
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    problem = checker.planar_problem(5, edges, {"rotation": k5})
    return None if problem and "genus" in problem else f"K5 rotation passed: {problem}"


def test_grid_verdicts():
    rng = random.Random(3)
    case = C.grid(4, 5, rng)
    doc = planar_doc(case)
    problems = [_expect("valid grid", checker.expected_exit(case.n, case.edges, doc), 0)]
    bad = tampered(case, doc, rng)
    swap = checker.planar_problem(case.n, case.edges, bad["swap"])
    if not (swap and "genus" in swap):
        problems.append(f"swapped rotation not rejected for its genus: {swap}")
    for kind in ("faces", "euler"):
        problems.append(_expect(kind, checker.expected_exit(case.n, case.edges, bad[kind]), 1))
    booleans = with_boolean_ids(doc)
    problems.append(_expect("booleans", checker.expected_exit(case.n, case.edges, booleans), 2))
    return "; ".join(p for p in problems if p) or None


def test_subdivision_verdicts():
    rng = random.Random(4)
    problems = []
    for pattern in ("K5", "K33"):
        case = C.planted_subdivision(pattern, 40, rng, pendant=5, even=True, detour=True)
        doc = nonplanar_doc(case)
        valid = checker.expected_exit(case.n, case.edges, doc)
        problems.append(_expect(f"valid {pattern}", valid, 0))
        shared = tampered(case, doc, rng)["shared"]
        why = checker.subdivision_problem(case.n, case.edges, shared["certificate"])
        if not (why and "share interior" in why):
            problems.append(f"{pattern}: shared interior vertex not rejected as such: {why}")
        booleans = checker.expected_exit(case.n, case.edges, with_boolean_ids(doc))
        problems.append(_expect(f"{pattern} booleans", booleans, 2))
    return "; ".join(p for p in problems if p) or None


def test_planted_grid_certificate():
    case = C.k33_in_grid(6, random.Random(5))
    code = checker.expected_exit(case.n, case.edges, nonplanar_doc(case))
    return _expect("K3,3 in a grid", code, 0)


def run_all() -> list[str]:
    problems = []
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            message = test()
            print(f"selftest {name}: {'ok' if message is None else 'FAIL'}")
            if message:
                problems.append(f"{name}: {message}")
    return problems
