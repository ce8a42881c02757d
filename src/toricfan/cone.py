"""Strictly convex rational polyhedral cones.

A cone is stored by its primitive extreme ray generators (sorted, so cone
equality is plain sequence comparison) together with a derived dual
description: the equations of its linear span and inward facet normals.
Lower-dimensional cones carry relative facet normals, so membership tests,
intersections, and face queries work uniformly in any dimension.

Facets are enumerated over (dim-1)-subsets of the generators; every facet of
a finitely generated cone is generated by a subset of the generators, and the
instance sizes this package targets (around a dozen rays) keep the subset
scan cheap.  That enumeration scale is the documented limit of the module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .exactlin import (
    LatticeVector,
    cross_kernel,
    dot,
    matrix_rank,
    primitive,
    rational_kernel,
)


class Position(enum.Enum):
    """Location of a point relative to a facet hyperplane with inward normal."""

    BENEATH = "beneath"
    BEYOND = "beyond"
    ON_HYPERPLANE = "on_hyperplane"


def classify_position(normal: Sequence[int], point: Sequence) -> Position:
    """Beneath / beyond / on for an inward facet normal.

    Inward orientation means the positive side of the hyperplane contains the
    relative interior of the cone the facet belongs to.
    """
    if all(x == 0 for x in normal):
        raise ValueError("facet normal must be nonzero")
    value = dot(normal, point)
    if value > 0:
        return Position.BENEATH
    if value < 0:
        return Position.BEYOND
    return Position.ON_HYPERPLANE


@dataclass(frozen=True)
class Face:
    """A face of a cone, as indices into the parent cone's ray list."""

    ray_indices: tuple[int, ...]
    dim: int


def _sign_canonical(v: LatticeVector) -> LatticeVector:
    for x in v:
        if x < 0:
            return tuple(-y for y in v)
        if x > 0:
            return v
    return v


class Cone:
    """Strictly convex rational polyhedral cone in a fixed ambient lattice."""

    __slots__ = ("ambient_rank", "rays", "dim", "span_equations", "facet_normals",
                 "_incidence", "_faces_cache")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Cone.from_rays or Cone.from_inequalities")

    # -- construction -----------------------------------------------------

    @classmethod
    def _make(cls, ambient_rank: int, rays, dim, span_equations, facet_normals, incidence) -> "Cone":
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "span_equations", span_equations)
        object.__setattr__(self, "facet_normals", facet_normals)
        object.__setattr__(self, "_incidence", incidence)
        object.__setattr__(self, "_faces_cache", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Cone instances are immutable")

    @classmethod
    def from_rays(cls, ambient_rank: int, generators: Iterable[Sequence[int]]) -> "Cone":
        """Build the cone spanned by lattice generators.

        Generators are primitivized and deduplicated; non-extreme generators
        are dropped.  Raises if a generator is zero or the hull contains a
        line (i.e. the cone is not strictly convex).
        """
        gens = list(generators)
        if not gens:
            raise ValueError("cone needs at least one generator")
        if any(len(g) != ambient_rank for g in gens):
            raise ValueError("generator length differs from the ambient rank")
        return cls._build(ambient_rank, gens)

    @classmethod
    def _build(cls, ambient_rank: int, generators: list) -> "Cone":
        seen = {}
        for g in generators:
            seen.setdefault(primitive(g), None)
        gens = list(seen)
        if not gens:
            return cls._zero(ambient_rank)
        dim = matrix_rank(gens)
        if dim == ambient_rank:
            span_eqs: tuple = ()
        else:
            span_eqs = tuple(sorted(
                _sign_canonical(k) for k in rational_kernel(gens, ambient_rank)
            ))

        # Candidate facet normals from (dim-1)-subsets of the generators.
        # A normal is valid exactly when its generator values do not mix sign;
        # the values are well defined modulo the span equations, so any kernel
        # representative decides them.  For full-dimensional cones the kernel
        # of a subset is one generalized cross product, all in integers.
        found: dict[frozenset, LatticeVector] = {}
        full = dim == ambient_rank
        for subset in combinations(range(len(gens)), dim - 1) if dim >= 1 else ():
            sub = [gens[i] for i in subset]
            if full and sub:
                normal = cross_kernel(sub)
                if all(x == 0 for x in normal):
                    continue  # subset rank below dim - 1
                vals = [dot(normal, g) for g in gens]
            else:
                kernel = rational_kernel(sub, ambient_rank)
                if ambient_rank - len(kernel) != dim - 1:
                    continue  # subset rank below dim - 1
                normal = None
                for k in kernel:
                    values = [dot(k, g) for g in gens]
                    if any(v != 0 for v in values):
                        normal, vals = k, values
                        break
                if normal is None:
                    continue
            if all(v >= 0 for v in vals):
                pass
            elif all(v <= 0 for v in vals):
                normal, vals = tuple(-x for x in normal), [-v for v in vals]
            else:
                continue
            incident = frozenset(i for i, v in enumerate(vals) if v == 0)
            found.setdefault(incident, primitive(normal))

        # Strict convexity: every valid inequality vanishes on the lineality
        # space, so the dual description has full rank iff the cone is pointed.
        if matrix_rank(list(span_eqs) + list(found.values())) != ambient_rank:
            raise ValueError("cone contains a line")

        # A generator is extreme iff its active constraints cut out a line.
        extreme = []
        for i, g in enumerate(gens):
            active = list(span_eqs) + [n for inc, n in found.items() if i in inc]
            if matrix_rank(active) == ambient_rank - 1:
                extreme.append(i)
        extreme_set = set(extreme)
        rays = tuple(sorted(gens[i] for i in extreme))
        index_of = {g: j for j, g in enumerate(rays)}

        merged: dict[frozenset, LatticeVector] = {}
        for inc, n in found.items():
            final_inc = frozenset(index_of[gens[i]] for i in inc if i in extreme_set)
            merged.setdefault(final_inc, n)
        ordered = sorted(merged.items(), key=lambda item: (tuple(sorted(item[0])), item[1]))
        normals = tuple(n for _, n in ordered)
        incidence = tuple(inc for inc, _ in ordered)
        return cls._make(ambient_rank, rays, dim, span_eqs, normals, incidence)

    @classmethod
    def _zero(cls, ambient_rank: int) -> "Cone":
        span = tuple(tuple(1 if i == j else 0 for j in range(ambient_rank)) for i in range(ambient_rank))
        return cls._make(ambient_rank, (), 0, span, (), ())

    @classmethod
    def from_inequalities(
        cls,
        ambient_rank: int,
        equalities: Sequence[Sequence[int]],
        inequalities: Sequence[Sequence[int]],
    ) -> "Cone":
        """Back-convert a dual description {eqs = 0, ineqs >= 0} to ray form.

        The description must define a pointed cone.  Extreme rays are exactly
        the one-dimensional kernels of rank-(n-1) subsystems of active
        constraints, so a scan over constraint subsets finds them all.
        """
        eqs = [tuple(e) for e in equalities]
        ineqs = [tuple(m) for m in inequalities]
        n = ambient_rank
        if matrix_rank(eqs + ineqs) != n:
            raise ValueError("cone contains a line")
        e_rank = matrix_rank(eqs) if eqs else 0
        k = n - 1 - e_rank
        if k < 0:
            return cls._zero(n)
        candidates: dict[LatticeVector, None] = {}
        for subset in combinations(ineqs, k):
            # A one-dimensional kernel means rank n-1; it is already primitive.
            kernel = rational_kernel(eqs + list(subset), n)
            if len(kernel) != 1:
                continue
            v = kernel[0]
            values = [dot(m, v) for m in ineqs]
            if all(x >= 0 for x in values):
                candidates.setdefault(v, None)
            elif all(x <= 0 for x in values):
                candidates.setdefault(tuple(-x for x in v), None)
        if not candidates:
            return cls._zero(n)
        return cls._build(n, list(candidates))

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Cone) and self.ambient_rank == other.ambient_rank and self.rays == other.rays

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.rays))

    def __repr__(self) -> str:
        return f"Cone(rank={self.ambient_rank}, dim={self.dim}, rays={list(self.rays)})"

    def contains(self, point: Sequence) -> bool:
        """Exact membership via the dual description."""
        if len(point) != self.ambient_rank:
            raise ValueError("point length differs from the ambient rank")
        return all(dot(e, point) == 0 for e in self.span_equations) and \
            all(dot(m, point) >= 0 for m in self.facet_normals)

    def _face_sets(self) -> dict[frozenset, int]:
        """All faces as ray-index sets (closure of facet incidences under intersection)."""
        cache = self._faces_cache
        if cache is not None:
            return cache
        full = frozenset(range(len(self.rays)))
        faces: dict[frozenset, int] = {}
        stack = [full, frozenset()]
        while stack:
            s = stack.pop()
            if s in faces:
                continue
            faces[s] = matrix_rank([self.rays[i] for i in s]) if s else 0
            for inc in self._incidence:
                t = s & inc
                if t not in faces:
                    stack.append(t)
        object.__setattr__(self, "_faces_cache", faces)
        return faces

    def faces(self, k: int) -> list[Face]:
        """All k-dimensional faces, 0 <= k <= dim."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"face dimension {k} out of range 0..{self.dim}")
        sets = self._face_sets()
        return [Face(tuple(sorted(s)), k) for s in sorted(sets, key=lambda s: tuple(sorted(s)))
                if sets[s] == k]

    def facets(self) -> list[Face]:
        return self.faces(self.dim - 1) if self.dim >= 1 else []

    def face_cone(self, face: Face) -> "Cone":
        """The face as a cone in the same ambient lattice."""
        if not face.ray_indices:
            return Cone._zero(self.ambient_rank)
        return Cone._build(self.ambient_rank, [self.rays[i] for i in face.ray_indices])

    # -- relations ---------------------------------------------------------

    def meet_rays(self, other: "Cone") -> tuple[LatticeVector, ...]:
        """Sorted primitive extreme rays of the intersection with ``other``.

        The rays of ``self`` are cut successively by the other cone's span
        equations and facet inequalities (keeping boundary combinations of
        ray pairs straddling each hyperplane); the resulting generating set
        is then pruned to extreme rays by an active-constraint rank test.
        No cone is built, so fan validation can stay on ray sets.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        n = self.ambient_rank
        rays = list(self.rays)
        for eq in other.span_equations:
            rays = _cut(rays, eq, keep_positive=False)
        for m in other.facet_normals:
            rays = _cut(rays, m, keep_positive=True)
        eqs = list(self.span_equations) + list(other.span_equations)
        ineqs = list(self.facet_normals) + list(other.facet_normals)
        extreme = []
        for r in rays:
            active = eqs + [m for m in ineqs if dot(m, r) == 0]
            if matrix_rank(active) == n - 1:
                extreme.append(r)
        return tuple(sorted(extreme))

    def intersect(self, other: "Cone") -> "Cone":
        """Exact intersection: the cone built on ``meet_rays(other)``."""
        return Cone._build(self.ambient_rank, list(self.meet_rays(other)))

    def has_face(self, rays: Iterable[Sequence[int]]) -> bool:
        """Whether the cone spanned by ``rays`` (primitive extreme rays) is a face.

        A face of a polyhedral cone is spanned by the extreme rays it
        contains, and the faces are exactly the intersections of facets, so
        the test is a lookup of the ray-index set in the face lattice.
        """
        index_of = {r: i for i, r in enumerate(self.rays)}
        try:
            indices = frozenset(index_of[tuple(r)] for r in rays)
        except KeyError:
            return False
        return indices in self._face_sets()

    def is_face_of(self, other: "Cone") -> bool:
        """Whether this cone is a face of ``other``.

        Decided combinatorially: the extreme rays must nest, and their index
        set in ``other`` must be in its face lattice (``has_face``).
        """
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return other.has_face(self.rays)


def _cut(rays: list, functional: Sequence[int], keep_positive: bool) -> list:
    """One beneath-and-beyond style halfspace (or hyperplane) cut.

    Keeps the rays on the allowed side plus, for every (positive, negative)
    pair, the induced boundary ray; this preserves generation of the cut cone.
    """
    values = [dot(functional, r) for r in rays]
    kept: dict[tuple, None] = {}
    for r, v in zip(rays, values):
        if v == 0 or (keep_positive and v > 0):
            kept.setdefault(r, None)
    for (rp, vp) in ((r, v) for r, v in zip(rays, values) if v > 0):
        for (rn, vn) in ((r, v) for r, v in zip(rays, values) if v < 0):
            combo = tuple(vp * bn - vn * bp for bp, bn in zip(rp, rn))
            if any(combo):
                kept.setdefault(primitive(combo), None)
    return list(kept)
