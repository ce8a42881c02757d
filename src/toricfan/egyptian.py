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

The verdict is read off sigma's own facets (``classify_pyramidal``), with
no base cone and no face lattice; the tests compare it with a base-cone and
face-lattice oracle (``tests/oracles.py``).  A split's base and update, the
classification's ``pieces``, are read off the same facets and eta's normal,
with no double description, and each split is proved exactly on their
facets (``_check_split``).  ``hypothesis_report`` checks the paper's whole
hypothesis at one ray.

Tangency (rho on a facet hyperplane of the base) is classified NotPyramidal:
the beneath/beyond dichotomy is strict here, and degenerate incidences are
never merged into beneath.
"""

from __future__ import annotations

import enum
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple, Optional, Sequence

from .cone import Cone, _bits, _remap
from . import divisor as divisor_ops
from .errors import InvariantError
from .exactlin import LatticeVector, dot, primitive, rational_kernel
from .fan import Fan, WallCurveKind


class PyramidalKind(enum.Enum):
    LOW_DIM = "low_dim"          # base cone is already a facet of sigma
    PYRAMIDAL = "pyramidal"      # exactly one beyond-facet, no tangency
    NOT_PYRAMIDAL = "not_pyramidal"


class _PyramidalClassification(NamedTuple):
    kind: PyramidalKind
    sigma: Cone
    ray: LatticeVector
    eta_rays: tuple = ()
    eta_normal: LatticeVector = ()


class PyramidalClassification(_PyramidalClassification):
    """The verdict on (sigma, rho).  When Pyramidal, ``eta_rays`` holds the
    beyond facet's sorted rays, ``eta_normal`` its primitive normal, inward
    for the base, and ``pieces`` the split, made on first access.  This
    subclass has no ``__slots__``, so its instances keep ``pieces`` in a
    ``__dict__`` beside the fields."""

    @cached_property
    def pieces(self) -> Optional[tuple[Cone, Cone]]:
        """(base, update) of a Pyramidal split, read off sigma's facets; None
        for any other verdict.

        By beneath-beyond (``classify_pyramidal``), with rho beyond eta
        alone and beneath every other facet of the base, the facets of
        sigma missing rho are the base's facets other than eta, and those
        through rho join rho to the ridges of eta, so they are the update's
        facets other than eta.  A facet through rho holds no ray off eta
        and rho: its hyperplane meets the base in a ridge of eta, since it
        is neither eta's hyperplane (rho is beyond) nor another base facet's
        (rho is not on one).
        """
        if self.kind is not PyramidalKind.PYRAMIDAL:
            return None
        sigma, n = self.sigma, self.sigma.ambient_rank
        i = sigma.rays.index(self.ray)
        eta = sum(1 << k for k, r in enumerate(sigma.rays) if r in self.eta_rays)
        through, missing = [], []
        for inc, m in sigma.facet_pairs():
            (through if inc >> i & 1 else missing).append((inc, m))
        base = Cone._from_facets(n, {k: r for k, r in enumerate(sigma.rays) if k != i},
                                 [(eta, self.eta_normal)] + missing)
        update = Cone._from_facets(n, {k: sigma.rays[k] for k in _bits(eta | 1 << i)},
                                   [(eta, tuple(-x for x in self.eta_normal))] + through)
        return base, update

    @property
    def splits(self) -> bool:
        """Whether the cone is replaced by two pieces in a small modification."""
        return self.kind is PyramidalKind.PYRAMIDAL


class EgyptianReport(NamedTuple):
    ray: int
    per_cone: tuple  # (maximal cone index, PyramidalClassification) pairs
    verdict: bool


class ExceptionalWall(NamedTuple):
    ray_indices: tuple[int, ...]
    siblings: tuple[int, int]  # (base cone index, update cone index) in the refined fan


class ModificationResult(NamedTuple):
    original: Fan
    fan: Fan
    split_cones: tuple          # (original index, (base index, update index)) pairs
    exceptional_walls: tuple[ExceptionalWall, ...]
    strict_transform_ray: int


class ModificationChecks(NamedTuple):
    wall_curves: tuple      # (wall rays, kind, ok)
    update_maximal: tuple   # (wall rays, ok)
    quotient_preserved: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class HypothesisReport(NamedTuple):
    """The hypothesis at one ray, step by step; a failed step leaves the later fields None."""

    egyptian: EgyptianReport
    quotient: Optional[Fan] = None
    quotient_projective: Optional[divisor_ops.ProjectivityResult] = None
    modification: Optional[ModificationResult] = None
    checks: Optional[ModificationChecks] = None
    growth: Optional[divisor_ops.GrowthReport] = None


def classify_pyramidal(sigma: Cone, ray: Sequence[int]) -> PyramidalClassification:
    """Classify (sigma, rho) as LowDim, Pyramidal, or NotPyramidal from sigma's facets.

    Let S be the other rays of sigma that share a facet with rho, O the
    rest, and B = cone(S + O) the base.  LowDim holds iff exactly one facet
    of sigma misses rho (it is then B); else Pyramidal holds iff O is
    nonempty, S spans a hyperplane m^perp and m.rho < 0 < m.x on O, with
    eta = cone(S); else NotPyramidal.  Proof by beneath-beyond (Grunbaum,
    *Convex Polytopes*, 5.2.1), using that the facets through an extreme
    ray meet in that ray:

    - LowDim: facets missing rho lie in B, and there is one; two make B
      full-dimensional.  If F is the only one, a ray off F lies only on
      facets through rho, which meet in more than its ray; so B = F.
    - Pyramidal => criterion: with rho beyond eta alone, the facets of sigma
      through rho join rho to the ridges of eta, so S = rays(eta), m is
      eta's inward normal in B, and O, the rays of B off eta, is nonempty.
    - Criterion => Pyramidal: B lies in {m >= 0} and meets m^perp in the
      (n-1)-cone cone(S): a facet eta with rho beyond.  Another facet G with
      rho beyond or on it has a ray x in O.  x lies on a facet of B with rho
      beneath, and the facets through x are linked by ridges through x, so
      rho joined to G (if on) or to a ridge between a beyond and a beneath
      facet is a facet of sigma through x and rho: x is in S, not O.

    m is re-checked in integers before a Pyramidal verdict is returned, and
    kept as ``eta_normal``.  No cone is built; a Pyramidal classification
    makes its ``pieces``, base and update, on first access from sigma's
    facets and m with no double description.
    """
    n = sigma.ambient_rank
    if sigma.dim != n:
        raise ValueError("pyramidal classification needs a full-dimensional cone")
    r = primitive(ray)
    if r not in sigma.rays:
        raise ValueError(f"{tuple(ray)} is not an extreme ray of the cone")
    i = sigma.rays.index(r)
    facets = sigma.facet_pairs()
    through = [inc for inc, _ in facets if inc >> i & 1]
    if len(facets) - len(through) == 1:
        return PyramidalClassification(PyramidalKind.LOW_DIM, sigma, r)
    near = reduce(or_, through, 0) & ~(1 << i)
    s_rays = tuple(sigma.rays[k] for k in _bits(near))
    o_rays = [x for k, x in enumerate(sigma.rays) if k != i and not near >> k & 1]
    kernel = rational_kernel(s_rays, n) if o_rays else ()
    if len(kernel) == 1:
        m = kernel[0] if dot(kernel[0], r) < 0 else tuple(-x for x in kernel[0])
        if dot(m, r) < 0 and all(dot(m, x) > 0 for x in o_rays):
            if any(dot(m, s) for s in s_rays):
                raise InvariantError("beyond-facet normal does not vanish on the facet")
            return PyramidalClassification(PyramidalKind.PYRAMIDAL, sigma, r, s_rays, m)
    return PyramidalClassification(PyramidalKind.NOT_PYRAMIDAL, sigma, r)


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
    entries = tuple((ci, classify_pyramidal(fan.cones[ci], fan.rays[ray]))
                    for ci in fan.star(ray) if fan.cones[ci].dim == fan.ambient_rank)
    verdict = all(cls.kind is not PyramidalKind.NOT_PYRAMIDAL for _, cls in entries)
    return EgyptianReport(ray, entries, verdict)


def small_modification(fan: Fan, ray: int, allow_incomplete: bool = False) -> ModificationResult:
    """Refine the fan by splitting every splittable star cone of the ray (``split_star``)."""
    return split_star(fan, egyptian_report(fan, ray, allow_incomplete=allow_incomplete))


def split_star(fan: Fan, report: EgyptianReport) -> ModificationResult:
    """The small modification from ``report = egyptian_report(fan, ray)``, classifying nothing again.

    Each star cone whose base is full-dimensional is replaced by the base and
    the update cone simultaneously; everything else is carried over
    unchanged.  The pieces are read off the star cone's facets and the beyond
    facet's normal (``PyramidalClassification.pieces``), so no double
    description runs.  The result is validated as a fan on these cones, not
    rebuilt, keeps exactly the original rays, stays complete when the input
    was, and each split is checked exactly to cover its cone
    (``_check_split``): the beyond facet is a facet of both pieces with
    opposite normals, and every other facet of either piece lies on a facet
    of the original cone.
    """
    if not report.verdict:
        raise ValueError("ray not in Egyptian position")
    classifications = dict(report.per_cone)
    gidx = {r: i for i, r in enumerate(fan.rays)}  # every piece is spanned by rays of sigma
    new_cones: list[list[int]] = []
    pieces: list[Cone] = []
    splits: list[tuple[int, tuple[int, int]]] = []
    walls: list[ExceptionalWall] = []
    for ci, mc in enumerate(fan.max_cones):
        cls = classifications.get(ci)
        if cls is None or not cls.splits:
            new_cones.append(list(mc))
            pieces.append(fan.cones[ci])
            continue
        _check_split(fan.cones[ci], *cls.pieces, cls.eta_rays)
        base_idx = len(new_cones)
        for piece in cls.pieces:
            new_cones.append(sorted(gidx[r] for r in piece.rays))
            pieces.append(piece)
        splits.append((ci, (base_idx, base_idx + 1)))
        walls.append(ExceptionalWall(tuple(sorted(gidx[r] for r in cls.eta_rays)), (base_idx, base_idx + 1)))

    refined = Fan._validated(fan.ambient_rank, fan.rays, new_cones, pieces)
    if fan.is_complete() and not refined.is_complete():
        raise InvariantError("modification of a complete fan must stay complete")
    return ModificationResult(fan, refined, tuple(splits), tuple(walls), report.ray)


def _check_split(sigma: Cone, base: Cone, update: Cone, eta_rays: tuple) -> None:
    """Raise unless ``base`` and ``update`` tile ``sigma``, read off their facets.

    Both pieces are full-dimensional and spanned by rays of sigma.  Eta must
    be a facet of both with opposite normals, so the pieces lie on opposite
    sides of its hyperplane and meet exactly in eta.  Every other facet's
    rays must lie on one facet of sigma, so that facet lies in sigma's
    boundary.  The union then has no boundary inside sigma's interior;
    being nonempty and closed, it is all of sigma.
    """
    bit = {r: 1 << k for k, r in enumerate(sigma.rays)}
    eta = reduce(or_, map(bit.__getitem__, eta_rays), 0)
    # Each piece's facets as masks over sigma's rays; a ray off sigma gets a bit on no facet of it.
    facets = []
    for piece in (base, update):
        bits = [bit.get(r, 1 << len(bit)) for r in piece.rays]
        facets += [(_remap(inc, bits), m) for inc, m in piece.facet_pairs()]
    at_eta = [m for inc, m in facets if inc == eta]
    if len(at_eta) != 2 or at_eta[1] != tuple(-x for x in at_eta[0]):
        raise InvariantError("split cones do not meet exactly in the beyond facet")
    sigma_facets = [inc for inc, _ in sigma.facet_pairs()]
    for inc, _ in facets:
        if inc != eta and not any(inc & facet == inc for facet in sigma_facets):
            raise InvariantError("split cones do not cover the original cone")


def verify_modification(result: ModificationResult) -> ModificationChecks:
    """Check the orbit geometry of a small modification.

    (1) every exceptional wall lies in exactly its two sibling cones, so its
    orbit curve is projective; (2) the wall plus the distinguished ray is a
    maximal cone of the refined fan, so the strict transform meets each
    exceptional curve in a single point; (3) the quotient fan at the ray is
    unchanged up to unimodular equivalence, so the strict transform maps
    isomorphically onto the original divisor.  Both quotients are memoized.
    """
    fan = result.fan
    rho = result.strict_transform_ray
    failures: list[str] = []
    wall_curves = []
    update_maximal = []
    cone_sets = {frozenset(mc) for mc in fan.max_cones}
    for wall in result.exceptional_walls:
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
            failures.append(f"wall {wall.ray_indices}: incident cones {w.incident}, expected {wall.siblings}")
        wall_curves.append((wall.ray_indices, kind, incident_ok))

        is_max = frozenset(wall.ray_indices) | {rho} in cone_sets
        if not is_max:
            failures.append(f"wall {wall.ray_indices}: wall + ray is not a maximal cone")
        update_maximal.append((wall.ray_indices, is_max))

    quotient_ok = result.original.quotient(rho).isomorphism(fan.quotient(rho)) is not None
    if not quotient_ok:
        failures.append("quotient fan at the ray changed under the modification")

    return ModificationChecks(tuple(wall_curves), tuple(update_maximal), quotient_ok, tuple(failures))


def hypothesis_report(fan: Fan, ray: int) -> HypothesisReport:
    """Check the paper's hypothesis at a ray of a complete fan, stopping at the first failure.

    In order: Egyptian position, a projective divisor (the quotient fan),
    the small modification split from the same classifications and
    verified, and the Chern growth fed by the degree of the quotient's
    re-checked ample witness.
    """
    egyptian = egyptian_report(fan, ray)
    if not egyptian.verdict:
        return HypothesisReport(egyptian)
    quotient = fan.quotient(ray)
    projective = divisor_ops.is_projective(quotient)
    if not projective.feasible:
        return HypothesisReport(egyptian, quotient, projective)
    modification = split_star(fan, egyptian)
    checks = verify_modification(modification)
    if not checks.passed:
        return HypothesisReport(egyptian, quotient, projective, modification, checks)
    polytope = divisor_ops.divisor_polytope(quotient, projective.witness_divisor)
    degree = divisor_ops.polytope_degree(polytope)
    growth = divisor_ops.chern_growth(fan.ambient_rank, degree)
    return HypothesisReport(egyptian, quotient, projective, modification, checks, growth)
