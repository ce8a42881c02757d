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
(``Cone._from_primitive``).  The generators go into the run sorted, so
when every one is extreme, as on a valid fan, the zero sets are already the
facets' masks over the sorted rays.  Rays known to be primitive and
distinct (a validated fan's, a run's own, a cone's own) go to that pass
directly, with no second primitivization.  Converting a dual description
runs it on the constraints themselves; meeting two cones starts it from
the first cone's rays and facet incidences and adds only the second cone's
constraints.

Not every cone comes from a run of its own.  A full-dimensional meet or
conversion is read off the run that found its rays (``Cone._read_off``):
the rays are sorted once, each row's tight set is read as a mask over the
sorted rays, and the maximal ones are the facet masks, with no remap.  A
full-dimensional cone whose extreme rays and facets are already known is
made by ``Cone._from_facets``, which only sorts them: the pieces of a split
star cone (``egyptian.split_star``) and the star-quotient cones
(``Fan.quotient``) are read off a parent cone's facets, which callers get
as (ray-index mask, normal) pairs from ``Cone.facet_pairs``: bit i of a
mask stands for ``rays[i]``, from the run's zero sets to the face lattice,
which is closed under ``&`` on the masks (Kaibel & Pfetsch, "Computing the
face lattice of a polytope from its vertex-facet incidences", 2002).

A point is beneath, on or beyond a facet as the facet's inward normal is
positive, zero or negative on it (``egyptian.classify_pyramidal``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, NamedTuple, Sequence

from .exactlin import LatticeVector, _double_description, dot, identity_matrix, primitive


class Face(NamedTuple):
    """A face of a cone, as indices into the parent cone's ray list."""

    ray_indices: tuple[int, ...]
    dim: int


def _bits(mask: int) -> tuple[int, ...]:
    """The sorted indices of the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _remap(mask: int, bit_of) -> int:
    """The union of ``bit_of[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bit_of[low.bit_length() - 1]
        mask ^= low
    return out


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The incidence ``masks`` read the other way: bit j of entry i is bit i of ``masks[j]``."""
    out = [0] * width
    for j, mask in enumerate(masks):
        bit = 1 << j
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def _ordered(width: int, facets) -> tuple[tuple, tuple[int, ...]]:
    """The normals and the masks of (mask, normal) pairs over ``width`` rays,
    sorted as the masks' index tuples: with a bit set above all the rays,
    two tuples compare at the lowest bit where the masks differ, and the one
    holding it is smaller, so the bits read low to high, flipped, sort alike."""
    flip = (1 << width + 1) - 1
    ordered = sorted((bin(z ^ flip)[:1:-1], m, z) for z, m in facets)
    return tuple([m for _, m, _ in ordered]), tuple([z for _, _, z in ordered])


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
        return cls._from_primitive(ambient_rank, list(dict.fromkeys(primitive(g) for g in gens)))

    @classmethod
    def _from_primitive(cls, ambient_rank: int, gens: list) -> "Cone":
        """The cone on ``gens``, distinct primitive generators (unchecked):
        one run on them sorted, then one pass over its zero sets, which are
        already the facets' masks when every generator is extreme."""
        if not gens:
            return cls._zero(ambient_rank)
        gens = sorted(gens)
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
        order = [i for i, m in enumerate(meets) if m == 1 << i]
        facets = zip(zeros, normals)
        if len(order) < len(gens):  # each facet's rays as a mask over the extreme rays
            bit_of = [1 << order.index(i) if i in order else 0 for i in range(len(gens))]
            facets = [(_remap(z, bit_of), m) for z, m in facets]
        facet_normals, incidence = _ordered(len(order), facets)
        span_eqs = tuple(sorted(_sign_canonical(v) for v in lineality))
        return cls._make(ambient_rank, tuple(gens[i] for i in order), ambient_rank - len(lineality), span_eqs,
                         facet_normals, incidence)

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
        space raises.  The nonzero inequalities are made primitive, and one
        ``_double_description`` run gives the extreme rays and their zero
        sets, from which ``_read_off`` makes the cone.  Both row lists are
        read once, so any iterables will do.
        """
        equalities = tuple(equalities)
        inequalities = [primitive(row) if any(row) else row for row in inequalities]
        lineality, rays, zeros = _double_description(ambient_rank, equalities, inequalities)
        if lineality:
            raise ValueError("cone contains a line")
        return cls._read_off(ambient_rank, equalities, inequalities, rays, zeros)

    @classmethod
    def _read_off(cls, ambient_rank: int, equalities, inequalities, rays, zeros) -> "Cone":
        """The cone on ``rays``, the extreme rays of the pointed cone
        C = {equalities = 0, inequalities >= 0} (each nonzero row primitive),
        with ``zeros`` their zero-set bitmasks over ``inequalities``.

        Equal to ``from_rays(ambient_rank, rays)`` in every attribute (the zero
        cone when there are no rays), and built with no second run when C is
        full-dimensional.  The rows of a system that vanish on all of C are its
        implicit equalities, and they cut out C's affine hull (Schrijver,
        *Theory of Linear and Integer Programming*, 1986, §8.2).  So with no
        explicit equalities and no inequality zero on every extreme ray, C
        spans Q^n.  Every facet of a full-dimensional cone is then defined by
        some row of the system, and a row's tight set (the rays it vanishes on)
        spans a face, so the facets' ray sets are the inclusion-maximal proper
        tight sets.  A facet's hyperplane is spanned by its rays, so every row
        defining it, a primitive positive multiple of the inward normal, is
        that normal; of the rows with one tight set the first is kept.

        The rays are sorted once and the zero sets transposed in that order,
        so each tight set is already a mask over the sorted rays and the
        facets go to ``_ordered`` with no remap.  A facet holds at least n - 1
        rays, so only tight sets that large are tested, largest first, each
        against the facets accepted so far: a set under a larger tight set also
        lies under a maximal one, which is larger still and so came first.

        Zero, lower-dimensional and 1-ray cones go to ``_from_primitive``
        (the rays are primitive and distinct already), whose own run fixes
        their span equations and relative facet normals.
        """
        if equalities or len(rays) < 2 or reduce(and_, zeros):
            return cls._from_primitive(ambient_rank, rays)
        order = sorted(range(len(rays)), key=rays.__getitem__)
        tight: dict[int, LatticeVector] = {}  # mask over the sorted rays -> the first row tight exactly there
        for t, row in zip(_transpose([zeros[i] for i in order], len(inequalities)), inequalities):
            tight.setdefault(t, row)
        facets: list[int] = []
        for t in sorted([t for t in tight if t.bit_count() >= ambient_rank - 1], key=int.bit_count, reverse=True):
            if not any(t & u == t for u in facets):
                facets.append(t)
        facet_normals, incidence = _ordered(len(rays), [(t, tight[t]) for t in facets])
        return cls._make(ambient_rank, tuple([rays[i] for i in order]), ambient_rank, (), facet_normals, incidence)

    @classmethod
    def _from_facets(cls, ambient_rank: int, rays: dict, facets) -> "Cone":
        """The full-dimensional cone with extreme rays ``rays.values()``
        (primitive) and facets ``facets``: pairs of a facet's rays, as a
        mask whose bits are keys of ``rays``, and its primitive inward normal.

        No run is made and nothing is checked (a bit that is no key raises
        ``KeyError``): right data give the cone ``from_rays(ambient_rank,
        rays.values())`` in every attribute, since the rays, and the facets
        by their ray indices, are sorted as it sorts them.
        """
        order = sorted(rays, key=rays.__getitem__)
        bit_of = {key: 1 << j for j, key in enumerate(order)}
        facet_normals, incidence = _ordered(len(order), [(_remap(keys, bit_of), m) for keys, m in facets])
        return cls._make(ambient_rank, tuple(map(rays.__getitem__, order)), ambient_rank, (),
                         facet_normals, incidence)

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

    def _face_sets(self) -> dict[int, int]:
        """All faces as ray-index masks (closure of the facet masks under
        ``&``), each with its dimension.

        The facets have dimension dim - 1 and the whole cone dim.  Any other
        face of at most two rays has as many dimensions as rays, since two
        extreme rays of a pointed cone are independent.  The face lattice is
        graded, so a larger face's dimension is 1 + the largest dimension of
        a face strictly below it, among its meets with the facets that do not
        contain it: smaller sets, so one pass in order of size suffices.
        """
        faces = self._faces_cache
        if faces is not None:
            return faces
        incidence, full = self._incidence, (1 << len(self.rays)) - 1
        found, new = set(), {full, 0}
        while new:
            found |= new
            new = {s & inc for s in new for inc in incidence} - found
        faces = dict.fromkeys(incidence, self.dim - 1)
        faces[full] = self.dim
        for s in sorted(found - faces.keys(), key=int.bit_count):
            size = s.bit_count()
            faces[s] = size if size < 3 else max([faces[t] for t in [s & inc for inc in incidence] if t != s]) + 1
        object.__setattr__(self, "_faces_cache", faces)
        return faces

    def faces(self, k: int) -> list[Face]:
        """All k-dimensional faces, 0 <= k <= dim, sorted by ray indices:
        the first call groups every face by dimension, each group sorted once."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"face dimension {k} out of range 0..{self.dim}")
        by_dim = self._faces_by_dim
        if by_dim is None:
            by_dim = [[] for _ in range(self.dim + 1)]
            for key, j in sorted([(_bits(s), j) for s, j in self._face_sets().items()]):
                by_dim[j].append(Face(key, j))
            by_dim = tuple(map(tuple, by_dim))
            object.__setattr__(self, "_faces_by_dim", by_dim)
        return list(by_dim[k])

    def facet_pairs(self) -> tuple[tuple[int, LatticeVector], ...]:
        """Each facet as (the mask of its rays, bit i for ``rays[i]``, its
        inward normal), in ``facets()`` order: the incidences themselves,
        with no ``Face`` built."""
        return tuple(zip(self._incidence, self.facet_normals))

    def facets(self) -> list[Face]:
        """The facets, in ``faces(dim - 1)`` order and aligned with
        ``facet_normals``: read off the incidences, with no face lattice."""
        return [Face(_bits(inc), self.dim - 1) for inc in self._incidence]

    # -- relations ---------------------------------------------------------

    def _meet(self, other: "Cone") -> tuple[list, list, tuple]:
        """Extreme rays of the intersection, their zero sets over the
        returned inequalities (this cone's facet normals, then ``other``'s).

        One ``_double_description`` run, started from this cone's own pair:
        its extreme rays, with zero sets transposed from the facet masks, and
        no lineality.  This cone is cut out by its span equations and facet
        normals, so the pair is a valid start, and only ``other``'s span
        equations and facet normals are added; this cone's span equations
        hold on its rays already.  The zero cone starts with no rays and
        meets everything in zero.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        zeros = _transpose(self._incidence, len(self.rays))
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
        the test is a lookup of the ray-index mask in the face lattice.
        """
        bit = {r: 1 << i for i, r in enumerate(self.rays)}
        try:
            mask = reduce(or_, (bit[tuple(r)] for r in rays), 0)
        except KeyError:
            return False
        return mask in self._face_sets()

    def is_face_of(self, other: "Cone") -> bool:
        """Whether this cone is a face of ``other``.

        Decided combinatorially: the extreme rays must nest, and their index
        set in ``other`` must be in its face lattice (``has_face``).
        """
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return other.has_face(self.rays)

