"""Pyramidal extensions, Egyptian position, and small fan modifications.

For a full-dimensional cone sigma with a distinguished ray rho, the base cone
is spanned by the remaining rays.  Either the base is a facet (dimension
n-1), or it is full-dimensional and rho sits beneath or beyond each of its
facet hyperplanes.  Sigma is a pyramidal extension when the base is a facet,
or when rho is beyond exactly one base facet eta and beneath all others; the
update cone is then eta + rho.  A ray is in Egyptian position when every
full-dimensional cone of its star is a pyramidal extension, and in that case
splitting each non-facet base along its beyond-facet refines the fan without
adding rays: a small modification whose exceptional walls are the etas.

Tangency (rho on a facet hyperplane of the base) is classified NotPyramidal:
the beneath/beyond dichotomy is strict here, and degenerate incidences are
reported rather than silently merged into beneath.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .cone import Cone, Position, classify_position
from .errors import InvariantError
from .exactlin import LatticeVector, dot, primitive
from .fan import Fan, WallCurveKind


class PyramidalKind(enum.Enum):
    LOW_DIM = "low_dim"          # base cone is already a facet of sigma
    PYRAMIDAL = "pyramidal"      # exactly one beyond-facet, no tangency
    NOT_PYRAMIDAL = "not_pyramidal"


@dataclass(frozen=True)
class PyramidalClassification:
    kind: PyramidalKind
    base: Cone                       # cone on the rays other than rho
    update: Optional[Cone]           # n-dimensional replacement cone, when defined
    beyond_facets: tuple[Cone, ...]  # base facets with rho beyond
    tangent_facets: tuple[Cone, ...] # base facets with rho on the hyperplane

    @property
    def splits(self) -> bool:
        """Whether the cone is replaced by two pieces in a small modification."""
        return self.kind is PyramidalKind.PYRAMIDAL


@dataclass(frozen=True)
class EgyptianReport:
    ray: int
    per_cone: tuple  # (maximal cone index, PyramidalClassification) pairs
    verdict: bool


@dataclass(frozen=True)
class ExceptionalWall:
    ray_indices: tuple[int, ...]
    siblings: tuple[int, int]  # (base cone index, update cone index) in the refined fan


@dataclass(frozen=True)
class ModificationResult:
    original: Fan
    fan: Fan
    split_cones: tuple          # (original index, (base index, update index)) pairs
    exceptional_walls: tuple[ExceptionalWall, ...]
    strict_transform_ray: int


@dataclass(frozen=True)
class ModificationChecks:
    wall_curves: tuple      # (wall rays, kind, ok)
    update_maximal: tuple   # (wall rays, ok)
    quotient_preserved: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def remaining_cone(sigma: Cone, ray: Sequence[int]) -> Cone:
    """The cone on sigma's rays other than the given one (the base cone)."""
    r = primitive(ray)
    if r not in sigma.rays:
        raise ValueError(f"{tuple(ray)} is not an extreme ray of the cone")
    others = [g for g in sigma.rays if g != r]
    return Cone.from_rays(sigma.ambient_rank, others)


def classify_pyramidal(sigma: Cone, ray: Sequence[int]) -> PyramidalClassification:
    """Classify (sigma, rho) as LowDim, Pyramidal, or NotPyramidal.

    The primitive generator represents the relative interior of rho for the
    beneath/beyond queries; the classification is constant on the open ray.
    On a Pyramidal verdict the full face lattice of sigma and of the update
    cone are checked against the beneath-and-beyond predictions.
    """
    n = sigma.ambient_rank
    if sigma.dim != n:
        raise ValueError("pyramidal classification needs a full-dimensional cone")
    r = primitive(ray)
    base = remaining_cone(sigma, r)
    if base.dim == n - 1:
        return PyramidalClassification(PyramidalKind.LOW_DIM, base, sigma, (), ())
    if base.dim != n:
        raise InvariantError("base cone of a full cone must have dimension n-1 or n")

    beyond = []
    tangent = []
    for normal, face in zip(base.facet_normals, base.facets()):
        position = classify_position(normal, r)
        if position is Position.BEYOND:
            beyond.append(face)
        elif position is Position.ON_HYPERPLANE:
            tangent.append(face)
    beyond_cones = tuple(base.face_cone(f) for f in beyond)
    tangent_cones = tuple(base.face_cone(f) for f in tangent)
    if len(beyond) != 1 or tangent:
        return PyramidalClassification(PyramidalKind.NOT_PYRAMIDAL, base, None, beyond_cones, tangent_cones)

    eta = beyond_cones[0]
    update = Cone.from_rays(n, list(eta.rays) + [r])
    _verify_pyramidal_faces(sigma, base, eta, update, r)
    return PyramidalClassification(PyramidalKind.PYRAMIDAL, base, update, (eta,), ())


def _proper_face_ray_sets(cone: Cone) -> set[frozenset]:
    sets = set()
    for k in range(cone.dim):
        for face in cone.faces(k):
            sets.add(frozenset(cone.rays[i] for i in face.ray_indices))
    return sets


def _verify_pyramidal_faces(sigma: Cone, base: Cone, eta: Cone, update: Cone, r: LatticeVector) -> None:
    """Cross-check the face lattices predicted for a pyramidal split.

    Faces here are subcones of sigma, so their extreme rays are extreme rays
    of sigma and a face is identified by its ray set; tau + rho then has ray
    set rays(tau) + {rho} without further computation.
    """
    eta_rays = frozenset(eta.rays)
    eta_faces = _proper_face_ray_sets(eta) | {eta_rays}

    predicted_sigma = {f for f in _proper_face_ray_sets(base) if f != eta_rays}
    predicted_sigma |= {f | {r} for f in eta_faces if f != eta_rays}
    if _proper_face_ray_sets(sigma) != predicted_sigma:
        raise InvariantError("face lattice of a pyramidal extension does not match the prediction")

    predicted_update = eta_faces | {f | {r} for f in eta_faces}
    actual_update = _proper_face_ray_sets(update) | {frozenset(update.rays)}
    if actual_update != predicted_update:
        raise InvariantError("face lattice of the update cone does not match the prediction")


def egyptian_report(fan: Fan, ray: int, allow_incomplete: bool = False) -> EgyptianReport:
    """Classify every full-dimensional star cone of the ray.

    The verdict is true when no star cone classifies NotPyramidal.  Complete
    fans are the intended setting; pass ``allow_incomplete`` to classify
    stars in partial fans (used by fixtures and diagnostics).
    """
    if not allow_incomplete and not fan.is_complete():
        raise ValueError("egyptian position is defined over a complete fan "
                         "(pass allow_incomplete=True to override)")
    if not 0 <= ray < len(fan.rays):
        raise ValueError(f"unknown ray index {ray}")
    n = fan.ambient_rank
    entries = []
    for ci in fan.star(ray):
        cone = fan.cones[ci]
        if cone.dim != n:
            continue
        entries.append((ci, classify_pyramidal(cone, fan.rays[ray])))
    verdict = all(cls.kind is not PyramidalKind.NOT_PYRAMIDAL for _, cls in entries)
    return EgyptianReport(ray, tuple(entries), verdict)


def small_modification(fan: Fan, ray: int, allow_incomplete: bool = False) -> ModificationResult:
    """Refine the fan by splitting every splittable star cone of the ray.

    Each star cone whose base is full-dimensional is replaced by the base and
    the update cone simultaneously; everything else is carried over
    unchanged.  The result is revalidated as a fan, keeps exactly the
    original rays, stays complete when the input was, and each split is
    checked exactly to cover its cone (``_check_split``): the two pieces
    meet exactly in the beyond facet, and every other facet of either piece
    lies in a facet hyperplane of the original cone.
    """
    report = egyptian_report(fan, ray, allow_incomplete=allow_incomplete)
    if not report.verdict:
        raise ValueError("ray not in Egyptian position")
    classifications = dict(report.per_cone)
    n = fan.ambient_rank
    gidx = {r: i for i, r in enumerate(fan.rays)}

    def to_indices(cone: Cone) -> list[int]:
        try:
            return sorted(gidx[r] for r in cone.rays)
        except KeyError as exc:  # pragma: no cover - guarded by construction
            raise InvariantError("modification introduced a new ray") from exc

    new_cones: list[list[int]] = []
    splits: list[tuple[int, tuple[int, int]]] = []
    walls: list[tuple[tuple[int, ...], tuple[int, int]]] = []
    for ci, mc in enumerate(fan.max_cones):
        cls = classifications.get(ci)
        if cls is None or not cls.splits:
            new_cones.append(list(mc))
            continue
        eta = cls.beyond_facets[0]
        _check_split(fan.cones[ci], cls.base, cls.update, eta.rays)
        base_idx = len(new_cones)
        new_cones.append(to_indices(cls.base))
        update_idx = len(new_cones)
        new_cones.append(to_indices(cls.update))
        splits.append((ci, (base_idx, update_idx)))
        walls.append((tuple(to_indices(eta)), (base_idx, update_idx)))

    refined = Fan.from_cones(n, fan.rays, new_cones)
    if refined.rays != fan.rays:
        raise InvariantError("modification must preserve the ray list")
    if not allow_incomplete and fan.is_complete() and not refined.is_complete():
        raise InvariantError("modification of a complete fan must stay complete")

    exceptional = tuple(ExceptionalWall(w, siblings) for w, siblings in walls)
    return ModificationResult(fan, refined, tuple(splits), exceptional, ray)


def _check_split(sigma: Cone, base: Cone, update: Cone, eta_rays: tuple) -> None:
    """Raise unless ``base`` and ``update`` tile ``sigma``.

    Both pieces are full-dimensional and spanned by rays of sigma.  They
    meet exactly in eta, so they lie on opposite sides of it, and
    every other facet of either piece lies in a facet hyperplane of sigma,
    so the union has no boundary inside sigma's interior; being nonempty and
    closed, it is all of sigma.
    """
    if base.meet_rays(update) != eta_rays:
        raise InvariantError("split cones do not meet exactly in the beyond facet")
    for piece in (base, update):
        for facet in piece.facets():
            rays = tuple(piece.rays[i] for i in facet.ray_indices)
            if rays == eta_rays:
                continue
            if not any(all(dot(m, r) == 0 for r in rays) for m in sigma.facet_normals):
                raise InvariantError("split cones do not cover the original cone")


def verify_modification(result: ModificationResult) -> ModificationChecks:
    """Check the orbit geometry of a small modification.

    (1) every exceptional wall lies in exactly its two sibling cones, so its
    orbit curve is projective; (2) the wall plus the distinguished ray is a
    maximal cone of the refined fan, so the strict transform meets each
    exceptional curve in a single point; (3) the quotient fan at the ray is
    unchanged up to unimodular equivalence, so the strict transform maps
    isomorphically onto the original divisor.
    """
    fan = result.fan
    rho = result.strict_transform_ray
    failures: list[str] = []
    wall_curves = []
    update_maximal = []
    for wall in result.exceptional_walls:
        ok = True
        try:
            w = fan.find_wall(wall.ray_indices)
        except ValueError:
            failures.append(f"wall {wall.ray_indices} missing from the refined fan")
            wall_curves.append((wall.ray_indices, None, False))
            update_maximal.append((wall.ray_indices, False))
            continue
        kind = fan.wall_kind(w)
        incident_ok = set(w.incident) == set(wall.siblings) and kind is WallCurveKind.PROJECTIVE
        if not incident_ok:
            failures.append(
                f"wall {wall.ray_indices}: incident cones {w.incident}, expected {wall.siblings}"
            )
            ok = False
        wall_curves.append((wall.ray_indices, kind, incident_ok))

        update_rays = {fan.rays[i] for i in wall.ray_indices} | {fan.rays[rho]}
        is_max = any(
            {fan.rays[i] for i in mc} == update_rays for mc in fan.max_cones
        )
        if not is_max:
            failures.append(f"wall {wall.ray_indices}: wall + ray is not a maximal cone")
        update_maximal.append((wall.ray_indices, is_max))

    quotient_ok = True
    before = result.original.quotient(rho)
    after = fan.quotient(rho)
    if before.isomorphism(after) is None:
        quotient_ok = False
        failures.append("quotient fan at the ray changed under the modification")

    return ModificationChecks(tuple(wall_curves), tuple(update_maximal), quotient_ok, tuple(failures))
