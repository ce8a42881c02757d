"""Validated fans: fan axioms, completeness, stars, quotients, isomorphism.

A fan holds a global ordered ray list (the order is semantic: divisors align
to it by index) and maximal cones as ray-index subsets.  When every maximal
cone is full-dimensional, validation first tries the wall check
(``_covers_once``): every facet is shared by exactly two cones on opposite
sides, and a generic point lies in exactly one cone.  That proves a complete
fan in one pass over the facets.  Anything else (a lower-dimensional cone,
an unmatched facet, an incomplete fan or a non-fan) goes to the pairwise
check: every intersection of maximal cones must be a common face, and no
maximal cone may contain another.  A cone is built only after its ray
indices pass, so its rays, checked primitive and distinct, go straight to
``Cone._from_primitive`` with no second primitivization.  Each maximal cone
is checked in one pass: each of its rays is looked up once as a global bit
(a ray off the fan gets the sentinel bit ``len(rays)``), and those bits give
the extremality check, the used-ray mask and the facet map (a facet's mask
is the cone's less the rays off the facet).  The wall check passes on a
valid fan exactly when it is complete, so its verdict is kept, and so is
the facet map it ran on (each facet with the cones it bounds).
Walls (the codimension-one cones) are built from that map on first use;
``find_wall`` looks one up in it.  Memoized per ray: star quotients and
Egyptian reports (``egyptian.egyptian_report``); per ray vector, for every
fan alike, the quotient lattices' bases (``_quotient_lattice``).
Quotient fans and small modifications are validated, with the same checks,
on the cones they were built from.  Those cones run no double description
of their own: a quotient cone of a full-dimensional star cone is read off
that cone's facets through the ray (``_star_image``), and the pieces of a
split star cone off the cone's facets and its beyond facet
(``egyptian.small_modification``).
"""

from __future__ import annotations

import enum
from functools import cache, reduce
from math import gcd
from operator import add, and_
from typing import Iterable, NamedTuple, Optional, Sequence

from .cone import Cone, _bits, _remap
from .errors import InvariantError
from .exactlin import (LatticeVector, _abs_det, _eliminate, _lattice_block, dot, hermite_normal_form, identity_matrix,
                       primitive)


class WallCurveKind(enum.Enum):
    """Orbit-closure type of a wall, by the number of incident full cones."""

    TORUS = "torus"        # in no full-dimensional cone: A^1 minus origin
    AFFINE = "affine"      # in exactly one: A^1
    PROJECTIVE = "projective"  # in exactly two: P^1


class Wall(NamedTuple):
    """A codimension-one cone of the fan with its incident maximal cones."""

    ray_indices: tuple[int, ...]
    dim: int
    incident: tuple[int, ...]


class FanIsomorphism(NamedTuple):
    """A unimodular map together with the ray bijection it induces."""

    matrix: tuple[LatticeVector, ...]
    ray_map: tuple[int, ...]


class Fan:
    """A validated fan of strictly convex rational polyhedral cones."""

    __slots__ = ("ambient_rank", "rays", "max_cones", "cones", "_complete", "_facets", "_walls", "_quotients",
                 "_reports")

    def __init__(self, *_a, **_k):
        raise TypeError("use Fan.from_cones")

    @classmethod
    def from_cones(
        cls,
        ambient_rank: int,
        rays: Sequence[Sequence[int]],
        max_cones: Sequence[Sequence[int]],
    ) -> "Fan":
        """Validate and build a fan from global rays and ray-index cones."""
        built = (Cone._from_primitive(ambient_rank, [tuple(rays[i]) for i in mc]) for mc in max_cones)
        return cls._validated(ambient_rank, rays, max_cones, built)

    @classmethod
    def _validated(cls, n: int, rays, max_cones, built: Iterable[Cone]) -> "Fan":
        """The fan on ``max_cones``, validated on ``built``: their cones, one
        per index list, drawn after that list's index checks.

        One pass per cone: each built ray becomes one global bit (``len(rays)``
        off the fan); the bits must sum to the index mask, which proves them
        distinct, and a facet's mask is that mask less the rays off the facet."""
        ray_list = [tuple(r) for r in rays]
        for i, r in enumerate(ray_list):
            if len(r) != n:
                raise ValueError(f"ray {i} has length {len(r)}, expected {n}")
            g = gcd(*r)  # 0 exactly for the zero vector
            if g != 1:
                raise ValueError(f"ray {i} is zero" if g == 0 else f"ray {i} = {r} is not primitive")
        if len(set(ray_list)) != len(ray_list):
            raise ValueError("duplicate rays")
        if not max_cones:
            raise ValueError("fan needs at least one maximal cone")

        count = len(ray_list)
        index_of = {r: i for i, r in enumerate(ray_list)}
        mc_list: list[tuple[int, ...]] = []
        given = iter(built)
        cones: list[Cone] = []
        used = 0
        # Each facet of a full-dimensional cone, keyed by the bitmask of its global
        # ray indices, with the cones it is a facet of and their inward normals.
        facets: dict[int, list[tuple[int, LatticeVector]]] = {}
        for j, mc in enumerate(max_cones):
            idx = sorted(set(mc))
            if len(idx) != len(list(mc)):
                raise ValueError(f"maximal cone {j} repeats a ray index")
            if not idx:  # an empty list repeats no index and has none out of range
                raise ValueError("cone needs at least one generator")
            if idx[0] < 0 or idx[-1] >= count:
                raise ValueError(f"maximal cone {j} has a ray index out of range")
            cone = next(given)
            bits = [1 << index_of.get(r, count) for r in cone.rays]
            mask = sum([1 << i for i in idx])
            if sum(bits) != mask:
                raise ValueError(f"maximal cone {j} lists a non-extreme generator")
            used |= mask
            mc_list.append(tuple(idx))
            cones.append(cone)
            if cone.dim == n:
                full = (1 << len(bits)) - 1
                for inc, normal in cone.facet_pairs():
                    facets.setdefault(mask ^ _remap(full ^ inc, bits), []).append((j, normal))

        if used != (1 << count) - 1:
            unused = ~used & (used + 1)  # the lowest zero bit
            raise ValueError(f"ray {unused.bit_length() - 1} does not appear in any maximal cone")

        complete = _covers_once(n, cones, facets)
        if not complete:
            _check_pairwise(cones)

        self = object.__new__(cls)
        object.__setattr__(self, "ambient_rank", n)
        object.__setattr__(self, "rays", tuple(ray_list))
        object.__setattr__(self, "max_cones", tuple(mc_list))
        object.__setattr__(self, "cones", tuple(cones))
        object.__setattr__(self, "_complete", complete)
        object.__setattr__(self, "_facets", {mask: tuple([j for j, _ in pairs]) for mask, pairs in facets.items()})
        object.__setattr__(self, "_walls", None)
        object.__setattr__(self, "_quotients", {})
        object.__setattr__(self, "_reports", {})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Fan instances are immutable")

    @property
    def walls(self) -> tuple[Wall, ...]:
        """Every wall with its incident full cones, sorted by rays, built on first access."""
        # Every (n-1)-dimensional cone of the fan is either a facet of a
        # full-dimensional maximal cone or itself maximal of dimension n-1.
        # In a fan a full cone containing a wall meets it in a common face,
        # the whole wall, so the full cones containing a wall are exactly
        # those it is a facet of; a maximal (n-1)-cone lies in none.
        if self._walls is None:
            at = {mc: () for mc, cone in zip(self.max_cones, self.cones) if cone.dim == self.ambient_rank - 1}
            at.update((_bits(mask), incident) for mask, incident in self._facets.items())
            object.__setattr__(self, "_walls", tuple(self._wall(key, at[key]) for key in sorted(at)))
        return self._walls

    def _wall(self, key: tuple[int, ...], incident: tuple[int, ...]) -> Wall:
        """The wall on the sorted ray indices ``key``, a facet of the cones ``incident``."""
        if len(incident) > 2:
            raise InvariantError("wall incident to more than two full cones in a validated fan")
        return Wall(key, self.ambient_rank - 1, incident)

    # -- queries -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.rays, self.max_cones))

    def __repr__(self) -> str:
        return f"Fan(rank={self.ambient_rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def ray_index(self, ray: Sequence[int]) -> int:
        r = primitive(ray)
        try:
            return self.rays.index(r)
        except ValueError:
            raise ValueError(f"unknown ray {tuple(ray)}") from None

    def is_complete(self) -> bool:
        """Whether the cones cover the space: the wall check's verdict, kept from validation."""
        return self._complete

    def star(self, ray: int) -> tuple[int, ...]:
        """Indices of the maximal cones containing the given ray."""
        if not 0 <= ray < len(self.rays):
            raise ValueError(f"unknown ray index {ray}")
        return tuple(i for i, mc in enumerate(self.max_cones) if ray in mc)

    def quotient(self, ray: int) -> "Fan":
        """The star fan in the quotient lattice by the ray, memoized per ray (errors are not).

        The quotient coordinates come from a Hermite-form completion of the
        primitive ray generator to a lattice basis (``_quotient_lattice``,
        cached per ray vector, for every fan with that ray), so the
        result is deterministic.  The star cones correspond one-to-one to the
        maximal cones of the quotient; this is re-verified during validation.

        A full-dimensional star cone's image is read off its own facets
        (``_star_image``), with no double description; a lower-dimensional
        one (only in an incomplete fan) is built from its projected rays.
        At a ray that is itself a maximal cone (again only in an incomplete
        fan) the quotient is the zero fan, which no ``Fan`` holds: that raises.
        """
        if ray in self._quotients:
            return self._quotients[ray]
        star = self.star(ray)  # nonempty: validation puts every ray in a maximal cone
        if self.ambient_rank < 2:
            raise ValueError(f"quotient needs a fan of dimension at least 2, not {self.ambient_rank}")
        if (ray,) in self.max_cones:
            raise ValueError(f"ray {ray} is itself a maximal cone: its star quotient is the zero fan, "
                             "which a Fan cannot hold")
        n = self.ambient_rank
        l_rho = self.rays[ray]
        proj_rows, section = _quotient_lattice(l_rho)
        # The primitive image of every other ray of the star, each projected once.
        others = {self.rays[k] for ci in star for k in self.max_cones[ci]} - {l_rho}
        image = {x: primitive(tuple(dot(row, x) for row in proj_rows)) for x in others}
        mapped: dict[LatticeVector, LatticeVector] = {}  # each wall's normals, mapped once

        def normal_image(m):  # the cone across a wall has the opposite normal
            if m not in mapped:
                mapped[m] = tuple(dot(m, w) for w in section)
                mapped[tuple(-x for x in m)] = tuple(-x for x in mapped[m])
            return mapped[m]

        q_rays: list[LatticeVector] = []
        q_index: dict[LatticeVector, int] = {}
        q_cones: list[list[int]] = []
        images = []
        for ci in star:
            sigma = self.cones[ci]
            if sigma.dim == n:
                cone = _star_image(sigma, sigma.rays.index(l_rho), image, normal_image)
            else:
                cone = Cone.from_rays(n - 1, [image[x] for x in sigma.rays if x != l_rho])
            images.append(cone)
            idx = []
            for r in cone.rays:
                if r not in q_index:
                    q_index[r] = len(q_rays)
                    q_rays.append(r)
                idx.append(q_index[r])
            q_cones.append(sorted(idx))
        if len({c.rays for c in images}) != len(star):
            raise InvariantError("star cones collapse in the quotient")
        self._quotients[ray] = Fan._validated(n - 1, q_rays, q_cones, images)
        return self._quotients[ray]

    def wall_kind(self, wall: Wall) -> WallCurveKind:
        """Torus / affine / projective classification of a wall's orbit curve."""
        if wall.dim != self.ambient_rank - 1:
            raise ValueError("wall must have dimension n-1")
        count = len(wall.incident)
        if count == 0:
            return WallCurveKind.TORUS
        if count == 1:
            return WallCurveKind.AFFINE
        if count == 2:
            return WallCurveKind.PROJECTIVE
        raise InvariantError("a wall of a valid fan lies in at most two full cones")

    def find_wall(self, ray_indices: Iterable[int]) -> Wall:
        """The wall on the given rays, from the facet map or the maximal (n-1)-cones."""
        key = tuple(sorted(ray_indices))
        if len(set(key)) == len(key) and min(key, default=0) >= 0:
            incident = self._facets.get(sum(1 << i for i in key))
            if incident is not None:
                return self._wall(key, incident)
            if key in self.max_cones and self.cones[self.max_cones.index(key)].dim == self.ambient_rank - 1:
                return self._wall(key, ())
        raise ValueError(f"no wall with rays {key}")

    def isomorphism(self, other: "Fan") -> Optional[FanIsomorphism]:
        """Search for a unimodular map carrying this fan onto the other.

        Candidate images of a spanning ray subset determine the matrix; the
        search prunes on ray valences and verifies that the map sends
        primitive generators to primitive generators and maximal cones to
        maximal cones.  Requires the rays to span the ambient space (true for
        complete fans and their star quotients); identical fans are accepted
        regardless.
        """
        if self.rays == other.rays and set(self.max_cones) == set(other.max_cones):
            return FanIsomorphism(identity_matrix(self.ambient_rank), tuple(range(len(self.rays))))
        if self.ambient_rank != other.ambient_rank:
            return None
        n = self.ambient_rank
        if len(self.rays) != len(other.rays) or len(self.max_cones) != len(other.max_cones):
            return None
        if sorted(len(mc) for mc in self.max_cones) != sorted(len(mc) for mc in other.max_cones):
            return None

        def valences(fan):
            v = [0] * len(fan.rays)
            for mc in fan.max_cones:
                for i in mc:
                    v[i] += 1
            return v

        val1, val2 = valences(self), valences(other)
        if sorted(val1) != sorted(val2):
            return None
        # One elimination of [rays as columns | I]: its pivot columns are the greedy spanning
        # subset, the columns of R, every pivot ends equal to d = |det R|, and the last n
        # columns end as d * R^{-1} (``_eliminate``).
        work = [list(row) + list(e) for row, e in zip(zip(*self.rays), identity_matrix(n))]
        pivot = _eliminate(work, len(self.rays))
        # Non-spanning fans: only the identity case above is handled.  other needs no rank test:
        # an accepted map is unimodular and maps the rays bijectively, so other then spans too.
        if len(pivot) < n:
            return None
        scale = work[0][pivot[0]]
        scaled_cols = tuple(zip(*[row[-n:] for row in work]))

        other_index = {r: i for i, r in enumerate(other.rays)}
        other_cone_sets = {frozenset(mc) for mc in other.max_cones}
        candidates_by_pos = [
            [j for j in range(len(other.rays)) if val2[j] == val1[pivot[k]]]
            for k in range(n)
        ]

        def try_assignment(images: tuple[int, ...]) -> Optional[FanIsomorphism]:
            s_cols = tuple(zip(*[other.rays[j] for j in images]))
            # A @ R = S  =>  A = S @ R^{-1} = S @ scaled_cols / scale
            raw = [[dot(s_cols[i], col) for col in scaled_cols] for i in range(n)]
            if any(x % scale for row in raw for x in row):
                return None
            # An integral A is unimodular iff |det A| = |det S| / |det R| is 1.
            if _abs_det(s_cols) != scale:
                return None
            a = tuple(tuple(x // scale for x in row) for row in raw)
            ray_map = []
            for r in self.rays:
                img = tuple(dot(row, r) for row in a)
                j = other_index.get(img)
                if j is None:
                    return None
                ray_map.append(j)
            mapped = {frozenset(ray_map[i] for i in mc) for mc in self.max_cones}
            if mapped != other_cone_sets:
                return None
            return FanIsomorphism(a, tuple(ray_map))

        def search(depth: int, chosen: list[int]) -> Optional[FanIsomorphism]:
            if depth == n:
                return try_assignment(tuple(chosen))
            for j in candidates_by_pos[depth]:
                if j in chosen:
                    continue
                chosen.append(j)
                found = search(depth + 1, chosen)
                if found is not None:
                    return found
                chosen.pop()
            return None

        return search(0, [])


def _covers_once(n: int, cones: Sequence[Cone], facets: dict) -> bool:
    """Whether full-dimensional cones form a complete fan, by the wall check.

    ``facets`` maps each facet, as the bitmask of its global ray indices, to
    the cones it is a facet of and their inward normals.  Three exact tests:

    1. Wall matching: every facet is a facet of exactly two cones.
    2. Opposite sides: the two cones' primitive inward normals at the
       facet are negatives of each other.  Both vanish on the facet's
       hyperplane, so they are equal or opposite, and opposite is the same
       as every ray of each cone off the facet being strictly negative on
       the other cone's normal.
    3. Covering degree 1: exactly one cone contains a generic point.  The
       point is p + e*x_1 + e^2*x_2 + ... for p the sum of cone 0's rays and
       a small e > 0, so a normal m is positive on it iff
       (m.p, m_1, ..., m_n) is lexicographically positive, and no normal
       vanishes on it.  Cone 0 always contains it.

    A False answer sends the caller to the pairwise check, and on a fan that
    passes it means incomplete: a complete fan's maximal cones are
    full-dimensional, each facet lies in two of them with opposite normals,
    and a point on no facet lies in exactly one, so all three tests pass.
    A True answer proves a complete fan (the covering-degree argument for
    subdivisions, De Loera, Rambau & Santos, *Triangulations*, 2010, with
    the fan axioms of Cox, Little & Schenck, *Toric Varieties*, 1.2):

    *The degree is constant.*  Let K be the union of the faces of
    codimension >= 2 of all cones, and d(y) the number of cones containing
    y, for y on no facet.  A point y outside K that lies on a facet F lies
    in its relative interior and on no other facet of F's two cones, so
    near y those two cones are the two closed half-spaces of F's
    hyperplane (test 2) and count once at each nearby point off it.  Every
    other cone through y has y in its interior.  So d is constant near
    every point outside K.  K has codimension 2, so its complement is
    connected and d is constant; by test 3 it is 1.  Hence the cones cover
    R^n and their interiors are disjoint, so none contains another.

    *The cones around each face close up exactly once.*  Fix a point x,
    and call two cones through x adjacent when they share a facet through
    x.  Adjacent cones have the same smallest face through x: the smallest
    face of the shared facet through x.  Take a ball B around x that meets
    no cone and no facet missing x.  Every facet meeting B of a cone
    through x then has its partner in the same adjacency class, so the
    argument above, run in B on one class, shows that the class covers
    each point of B off the facets a constant number of times, at least
    once.  The whole degree is 1, so all cones through x form one class
    and share their smallest face F(x) through x.

    *Face to face.*  For cones s, t take x in the relative interior of
    s & t.  Then F(x) is in s & t, and each y in s & t lies in F(x),
    because x is inside a segment of s & t from y.  So s & t = F(x) is a
    face of both.  Every Y_u cone is a circuit, not a simplex, so nothing
    here assumes simplicial cones.
    """
    if any(cone.dim != n for cone in cones):
        return False
    for pairs in facets.values():
        if len(pairs) != 2:
            return False
        (_, m), (_, m2) = pairs
        if any(map(add, m, m2)):
            return False
    p = [sum(column) for column in zip(*cones[0].rays)]
    zero = (0,) * n

    def contains_generic_point(cone: Cone) -> bool:  # stops at the first normal negative on the point
        return all((v := dot(m, p)) > 0 or v == 0 and m > zero for m in cone.facet_normals)

    return sum(map(contains_generic_point, cones)) == 1


@cache
def _quotient_lattice(l_rho: LatticeVector) -> tuple[tuple, tuple]:
    """(projection rows, section) of the quotient by the primitive ``l_rho``.

    The Hermite form l_rho @ U = e_0 makes columns 1..n-1 of U integer
    coordinates with kernel Z*l_rho.  U's lattice block has E U = d I with
    d = |det U| = 1, so E = U^-1, and rows 1..n-1 of U^-1 lift the quotient
    basis, which is re-checked.  Cached per ray vector; errors are not.
    """
    h, u = hermite_normal_form([l_rho])
    if h[0][0] != 1 or any(h[0][1:]):
        raise InvariantError("primitive ray should complete to a lattice basis")
    proj_rows = tuple(zip(*u))[1:]
    section = _lattice_block(u)[1][1:]
    if tuple(tuple(dot(p, w) for p in proj_rows) for w in section) != identity_matrix(len(l_rho) - 1):
        raise InvariantError("quotient section does not lift the quotient basis")
    return proj_rows, section


def _star_image(sigma: Cone, i: int, image: dict, normal_image) -> Cone:
    """The image of the full-dimensional cone ``sigma`` in the quotient by
    its ray ``i``, read off sigma's facet masks (bit k for ``sigma.rays[k]``)
    with no double description: ``image`` maps each other ray to its
    primitive image, and ``normal_image`` maps a normal m through the
    section, whose lifts w_j of the quotient basis give (m.w_j)_j.
    The faces of the image are the images of the faces of sigma through the
    ray (Fulton, *Introduction to Toric Varieties*, 1993, §3.1):

    - Rays: the images of the rays x adjacent to the ray, i.e. those for
      which the facets through both meet in {ray, x} alone (in dimension 2
      no facet holds both, and the meet of none is sigma).  A face through
      the ray maps onto a face of one dimension less, so the 2-faces
      cone(ray, x) map onto the image's extreme rays, one each.
    - Facets: the image of each facet through the ray, with the image's
      rays that lie on it.  Its normal m vanishes on the ray, so
      m = m'.project with m'_j = m.w_j for the section's lifts w_j; m' is
      inward because m'.project(x) = m.x, and primitive because m is.
    """
    through = [(inc, m) for inc, m in sigma.facet_pairs() if inc >> i & 1]
    everything = (1 << len(sigma.rays)) - 1  # the meet of no facets: sigma itself
    rays = {k: image[sigma.rays[k]] for k in range(len(sigma.rays))
            if k != i and reduce(and_, (inc for inc, _ in through if inc >> k & 1), everything) == 1 << i | 1 << k}
    kept = sum(1 << k for k in rays)
    facets = [(inc & kept, normal_image(m)) for inc, m in through]
    return Cone._from_facets(sigma.ambient_rank - 1, rays, facets)


def _check_pairwise(cones: Sequence[Cone]) -> None:
    """Raise unless every two cones meet in a common face and neither
    contains the other."""
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = cones[i].meet_rays(cones[j])
            if meet == cones[i].rays or meet == cones[j].rays:
                raise ValueError(f"redundant maximal cone: {i} and {j} are nested")
            if not (cones[i].has_face(meet) and cones[j].has_face(meet)):
                raise ValueError(
                    f"not a fan: cones {i},{j} overlap badly; intersection rays {list(meet)}"
                )
