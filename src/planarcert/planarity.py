"""Top-level planarity decision with certificates.

A verdict is either Planar, carrying a genus-0 rotation and its
faces, or NonPlanar, carrying a K5 or K3,3 subdivision certificate.  The
left-right planarity test is the decision authority.  Its planar answer is
returned only after face tracing confirms genus 0; a graph it rejects gets
its certificate from the configured route: a Kuratowski subdivision
extracted with the same test as its oracle (the default), or the minor
search converted to a subdivision.  A rejected graph with no obstruction
is reported as an internal inconsistency, never as a verdict.

The face trace that confirms genus 0 checks the rotation against the graph
and yields the faces and Euler data a planar document records, so it is
also the audit of that document.  Both certifying routes run
validate_subdivision on their certificate before decide returns it, which
is the audit of a non-planar document.  So `check --validate` audits
either answer once, here, and not again.

The subdivision search, the minor search and the backtracking embedding
search stay as independent oracles: route_bits confronts all four routes
on one graph, validating each certificate they return, and the harness
campaigns run it over every small graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

from .embedding import (
    FaceSet,
    Rotation,
    find_planar_rotation,
    genus,
    lr_planar_rotation,
    trace_faces,
)
from .errors import InternalInconsistencyError, StepBudget
from .graphs import Graph
from .kuratowski import lr_kuratowski
from .subdivision import (
    Pattern,
    SubdivisionCertificate,
    find_kuratowski,
    find_minor,
    minor_to_subdivision,
    validate_subdivision,
)


class DecisionPath(enum.Enum):
    SUBDIVISION = "subdivision"
    MINOR = "minor"


@dataclass(frozen=True)
class DecisionConfig:
    """`node_budget` bounds one decision: the left-right test's oriented
    edges, then the certifying route's steps (the Kuratowski extraction's
    oriented edges, or one per connected set the minor search tries),
    all drawn from one budget.  route_bits gives the default budget to
    the backtracking embedding oracle too, which spends one unit per
    cyclic order tried; its minor bit stays unbounded.  `path` picks the
    route that certifies a non-planar answer; both routes' certificates
    are validated before a verdict carries them."""

    node_budget: int = 10**9
    path: DecisionPath = DecisionPath.SUBDIVISION

    def __post_init__(self) -> None:
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")


DEFAULT_CONFIG = DecisionConfig()


@dataclass(frozen=True)
class Verdict:
    planar: bool
    rotation: Rotation | None = None
    faces: FaceSet | None = None
    certificate: SubdivisionCertificate | None = None


def _minor_certificate(
    g: Graph, budget: StepBudget | None = None
) -> SubdivisionCertificate | None:
    minor = find_minor(g, Pattern.K5, budget) or find_minor(g, Pattern.K33, budget)
    if minor is None:
        return None
    cert = minor_to_subdivision(g, minor)
    if not validate_subdivision(g, cert):
        raise InternalInconsistencyError("minor certificate does not validate")
    return cert


def decide(g: Graph, config: DecisionConfig = DEFAULT_CONFIG) -> Verdict:
    """Planar embedding or Kuratowski certificate.

    Planarity is decided by the left-right test; the certifying route
    named by config.path runs only on graphs the test rejects."""
    budget = StepBudget(config.node_budget)
    rho = lr_planar_rotation(g, budget)
    if rho is not None:
        faces = trace_faces(g, rho)
        if faces.genus != 0:
            raise InternalInconsistencyError(
                "left-right test returned a non-planar rotation"
            )
        return Verdict(planar=True, rotation=rho, faces=faces)
    if config.path is DecisionPath.MINOR:
        cert = _minor_certificate(g, budget)
    else:
        cert = lr_kuratowski(g, budget)
    if cert is None:
        raise InternalInconsistencyError(
            "left-right test rejected a graph with no K5/K3,3 obstruction"
        )
    return Verdict(planar=False, certificate=cert)


def decide_via_minor(g: Graph, config: DecisionConfig = DEFAULT_CONFIG) -> Verdict:
    """decide with the minor search certifying non-planar answers."""
    return decide(g, replace(config, path=DecisionPath.MINOR))


class RouteBits(NamedTuple):
    """The planarity bit of each independent route on one graph.  The
    left-right, subdivision and minor bits are None when their route cannot
    certify its answer."""

    left_right: bool | None
    subdivision: bool | None
    minor: bool | None
    embedding: bool

    @property
    def agree(self) -> bool:
        return self.left_right == self.subdivision == self.minor == self.embedding


def route_bits(g: Graph) -> RouteBits:
    """Run each of the four routes once: the left-right test (a rotation
    checked for genus 0, or a Kuratowski extraction that validates), the
    backtracking embedding search (its rotation checked for genus 0), the
    subdivision search (its certificate must validate), and the minor
    search with its conversion to a subdivision certificate (which must
    validate).  The left-right test and the embedding search each get the
    default node budget."""
    emb = find_planar_rotation(g, DEFAULT_CONFIG.node_budget)
    return RouteBits(
        left_right=_left_right_bit(g),
        subdivision=_subdivision_bit(g),
        minor=_minor_bit(g),
        embedding=emb is not None and genus(g, emb) == 0,
    )


def _subdivision_bit(g: Graph) -> bool | None:
    cert = find_kuratowski(g)
    if cert is None:
        return True
    return False if validate_subdivision(g, cert) else None


def _minor_bit(g: Graph) -> bool | None:
    try:
        return _minor_certificate(g) is None
    except InternalInconsistencyError:
        return None


def _left_right_bit(g: Graph) -> bool | None:
    try:
        return decide(g).planar
    except InternalInconsistencyError:
        return None
