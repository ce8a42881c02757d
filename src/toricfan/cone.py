"""Strictly convex rational polyhedral cones.

A cone is stored by its primitive extreme ray generators (sorted, so cone
equality is plain sequence comparison) together with a derived dual
description: the equations of its linear span and inward facet normals.
Lower-dimensional cones carry relative facet normals, so membership tests,
intersections, and face queries work uniformly in any dimension.

Every enumeration in the module is one incremental double-description
routine, ``exactlin._double_description`` (which ``strict_feasible`` also
runs): exact integers, an explicit lineality space, and the combinatorial
adjacency test of Fukuda & Prodon.  Building a cone from generators
primitivizes and deduplicates them, then runs it on the dual (the
generators as inequalities) for the span equations, facet normals and
facet incidences; pointedness, the extreme rays, their order and the
facets' ray sets are read off the zero sets in one pass
(``Cone._from_primitive``).  Rays known to be primitive and distinct (a
validated fan's, a run's own, a cone's own) go to that pass directly, with
no second primitivization.  Converting a dual description runs it on the
constraints themselves; meeting two cones starts it from the first cone's
rays and facet incidences and adds only the second cone's constraints.

Not every cone comes from a run of its own.  A full-dimensional cone whose
extreme rays and facets are already known is made by ``Cone._from_facets``,
which only sorts them.  Full-dimensional meets and conversions are read off
their own run that way (``Cone._read_off``); the pieces of a split star cone
(``egyptian.split_star``) and the star-quotient cones (``Fan.quotient``)
are read off a parent cone's facets, which callers get as (ray-index set,
normal) pairs from ``Cone.facet_pairs``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Sequence

from .exactlin import LatticeVector, _double_description, dot, identity_matrix, primitive


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
                 "_incidence", "_faces_cache", "_faces_by_dim")

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
        object.__setattr__(self, "_faces_by_dim", None)
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
        return cls._from_primitive(ambient_rank, list(dict.fromkeys(primitive(g) for g in generators)))

    @classmethod
    def _from_primitive(cls, ambient_rank: int, gens: list) -> "Cone":
        """The cone on ``gens``, distinct primitive generators (unchecked):
        one run, then one pass over its zero sets."""
        if not gens:
            return cls._zero(ambient_rank)
        # The dual cone {y : g.y >= 0 for every generator g} has the span's
        # orthogonal complement as lineality and the facet normals as extreme
        # rays; the zero set of a normal is the set of generators on its facet.
        lineality, normals, zeros = _double_description(ambient_rank, (), gens)
        # The minimal face is spanned by the generators on every facet, and
        # it is the largest linear subspace in the cone.
        everything = (1 << len(gens)) - 1
        if reduce(and_, zeros, everything):
            raise ValueError("cone contains a line")
        # A generator is extreme iff the facets through it hold no other
        # generator: their intersection is then the generator's own ray.
        meets = [everything] * len(gens)  # generator -> the generators on every facet through it
        for z in zeros:
            rest = z
            while rest:
                low = rest & -rest
                meets[low.bit_length() - 1] &= z
                rest ^= low
        order = sorted((i for i, m in enumerate(meets) if m == 1 << i), key=gens.__getitem__)
        # Each facet's rays as indices into the sorted extreme rays.
        ordered = sorted((tuple([j for j, i in enumerate(order) if z >> i & 1]), m)
                         for m, z in zip(normals, zeros))
        span_eqs = tuple(sorted(_sign_canonical(v) for v in lineality))
        return cls._make(ambient_rank, tuple(gens[i] for i in order), ambient_rank - len(lineality), span_eqs,
                         tuple(m for _, m in ordered), tuple(frozenset(inc) for inc, _ in ordered))

    @classmethod
    def _zero(cls, ambient_rank: int) -> "Cone":
        return cls._make(ambient_rank, (), 0, identity_matrix(ambient_rank), (), ())

    @classmethod
    def from_inequalities(
        cls,
        ambient_rank: int,
        equalities: Sequence[Sequence[int]],
        inequalities: Sequence[Sequence[int]],
    ) -> "Cone":
        """Back-convert a dual description {eqs = 0, ineqs >= 0} to ray form.

        The description must define a pointed cone: a nonzero lineality
        space raises.  One ``_double_description`` run gives the extreme rays
        and their zero sets, and ``_read_off`` makes the cone from them.
        """
        lineality, rays, zeros = _double_description(ambient_rank, equalities, inequalities)
        if lineality:
            raise ValueError("cone contains a line")
        return cls._read_off(ambient_rank, equalities, inequalities, rays, zeros)

    @classmethod
    def _read_off(cls, ambient_rank: int, equalities, inequalities, rays, zeros) -> "Cone":
        """The cone on ``rays``, the extreme rays of the pointed cone
        C = {equalities = 0, inequalities >= 0}, with ``zeros`` their zero
        sets over ``inequalities`` (as ``_double_description`` returns them).

        Equal to ``_build(ambient_rank, rays)`` in every attribute, and built
        with no second run when C is full-dimensional.  The rows of a system
        that vanish on all of C are its implicit equalities, and they cut out
        C's affine hull (Schrijver, *Theory of Linear and Integer
        Programming*, 1986, §8.2).  So with no explicit equalities and no
        inequality zero on every extreme ray, C spans Q^n.  Every facet of a
        full-dimensional cone is then defined by some row of the system, and
        a row's tight set (the rays it vanishes on) spans a face, so the
        facets' ray sets are the inclusion-maximal proper tight sets.  A
        facet's hyperplane is spanned by its rays, so every row defining it
        is a positive multiple of the one primitive inward normal.

        Zero, lower-dimensional and 1-ray cones go to ``_from_primitive``
        (the rays are primitive and distinct already), whose own run fixes
        their span equations and relative facet normals.
        """
        if equalities or len(rays) < 2 or reduce(and_, zeros):
            return cls._from_primitive(ambient_rank, rays)
        vanish = [0] * len(inequalities)  # row -> bitmask of the rays it vanishes on
        for i, z in enumerate(zeros):
            bit = 1 << i
            while z:
                low = z & -z
                vanish[low.bit_length() - 1] |= bit
                z ^= low
        tight: dict[int, int] = {}  # ray-index bitmask -> a row vanishing exactly there
        for j, t in enumerate(vanish):
            tight.setdefault(t, j)
        facets = [
            ([i for i in range(len(rays)) if t >> i & 1], primitive(inequalities[j]))
            for t, j in tight.items() if not any(t != u and t & u == t for u in tight)
        ]
        return cls._from_facets(ambient_rank, dict(enumerate(rays)), facets)

    @classmethod
    def _from_facets(cls, ambient_rank: int, rays: dict, facets) -> "Cone":
        """The full-dimensional cone with extreme rays ``rays.values()``
        (primitive) and facets ``facets``: pairs of a facet's rays, as keys
        of ``rays``, and its primitive inward normal.

        No run is made and nothing is checked: right data give the cone
        ``_build(ambient_rank, rays.values())`` in every attribute, since
        the rays, and the facets by their ray indices, are sorted as it
        sorts them.
        """
        order = sorted(rays, key=rays.__getitem__)
        position = {key: j for j, key in enumerate(order)}
        ordered = sorted((tuple(sorted(map(position.__getitem__, keys))), m) for keys, m in facets)
        return cls._make(ambient_rank, tuple(map(rays.__getitem__, order)), ambient_rank, (),
                         tuple(m for _, m in ordered), tuple(frozenset(inc) for inc, _ in ordered))

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
        """All faces as ray-index sets (closure of facet incidences under
        intersection), each with its dimension.

        The face lattice is graded, so a face's dimension is 1 + the largest
        dimension of a face strictly below it.  The faces just below a face
        are among its intersections with the facets that do not contain it,
        and those are smaller sets, so one pass in order of size suffices.
        The faces are also grouped by dimension, each group sorted once.
        """
        cache = self._faces_cache
        if cache is not None:
            return cache
        found = set()
        stack = [frozenset(range(len(self.rays))), frozenset()]
        while stack:
            s = stack.pop()
            if s in found:
                continue
            found.add(s)
            stack.extend(t for t in (s & inc for inc in self._incidence) if t not in found)
        faces: dict[frozenset, int] = {}
        for s in sorted(found, key=len):
            faces[s] = 1 + max((faces[s & inc] for inc in self._incidence if not s <= inc), default=-1)
        by_dim: list[list[Face]] = [[] for _ in range(self.dim + 1)]
        for key, k in sorted((tuple(sorted(s)), k) for s, k in faces.items()):
            by_dim[k].append(Face(key, k))
        object.__setattr__(self, "_faces_cache", faces)
        object.__setattr__(self, "_faces_by_dim", tuple(tuple(group) for group in by_dim))
        return faces

    def faces(self, k: int) -> list[Face]:
        """All k-dimensional faces, 0 <= k <= dim, sorted by ray indices."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"face dimension {k} out of range 0..{self.dim}")
        self._face_sets()
        return list(self._faces_by_dim[k])

    def facet_pairs(self) -> tuple[tuple[frozenset, LatticeVector], ...]:
        """Each facet as (the indices of its rays, its inward normal), in
        ``facets()`` order: the incidences themselves, with no ``Face`` built."""
        return tuple(zip(self._incidence, self.facet_normals))

    def facets(self) -> list[Face]:
        """The facets, in ``faces(dim - 1)`` order and aligned with
        ``facet_normals``: read off the incidences, with no face lattice."""
        return [Face(tuple(sorted(inc)), self.dim - 1) for inc in self._incidence]

    def face_cone(self, face: Face) -> "Cone":
        """The face as a cone in the same ambient lattice."""
        return Cone._from_primitive(self.ambient_rank, [self.rays[i] for i in face.ray_indices])

    # -- relations ---------------------------------------------------------

    def _meet(self, other: "Cone") -> tuple[list, list, tuple]:
        """Extreme rays of the intersection, their zero sets over the
        returned inequalities (this cone's facet normals, then ``other``'s).

        One ``_double_description`` run, started from this cone's own pair:
        its extreme rays, with zero sets read off the facet incidences, and
        no lineality.  This cone is cut out by its span equations and facet
        normals, so the pair is a valid start, and only ``other``'s span
        equations and facet normals are added; this cone's span equations
        hold on its rays already.  The zero cone starts with no rays and
        meets everything in zero.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        zeros = [0] * len(self.rays)
        for j, inc in enumerate(self._incidence):
            for i in inc:
                zeros[i] |= 1 << j
        inequalities = self.facet_normals + other.facet_normals
        _, rays, zeros = _double_description(self.ambient_rank, other.span_equations, inequalities,
                                             start=(self.rays, zeros, len(self.facet_normals)))
        return rays, zeros, inequalities

    def meet_rays(self, other: "Cone") -> tuple[LatticeVector, ...]:
        """Sorted primitive extreme rays of the intersection with ``other``.

        The rays of one warm-started ``_double_description`` run (``_meet``)
        are exactly the extreme rays of the meet, since the adjacency test
        keeps the generating set minimal after every constraint.  No cone is
        built, so fan validation can stay on ray sets.
        """
        return tuple(sorted(self._meet(other)[0]))

    def intersect(self, other: "Cone") -> "Cone":
        """Exact intersection, read off the same run as ``meet_rays``
        (``_read_off``): equal to the cone built on ``meet_rays(other)``."""
        rays, zeros, inequalities = self._meet(other)
        return Cone._read_off(self.ambient_rank, self.span_equations + other.span_equations,
                              inequalities, rays, zeros)

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

