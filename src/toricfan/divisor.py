"""Toric divisors: Cartier data, class and Picard groups, ampleness,
projectivity, divisor polytopes and their degrees.

A divisor is a plain sequence of integer coefficients, one per fan ray, in
the fan's ray order.  Cartier data assigns to every maximal cone a character
vector that evaluates to minus the coefficient on each of the cone's rays;
the divisor is Cartier when integral characters exist, Q-Cartier when
rational ones do.  One rational character per cone (``_characters``)
decides both, and the lcm of its denominators is the Cartier index,
re-checked in integers.  One lattice block per maximal cone, cached
(``_cone_block``), gives its characters and its linear relations, and on a
full-dimensional cone its strict-convexity rows in divisor coordinates,
for the Picard group and projectivity.
Divisor polytopes take one double description, and projectivity is one
``strict_feasible`` system.  The degree d! * vol(P) of an integral
polytope is the normalized volume of a pulling triangulation of the cone
over P: a sum of |det| per simplex, each one elimination's last pivot.
All decisions are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .cone import Cone
from .errors import InvariantError
from .exactlin import (
    FGAbelianGroup,
    StrictSystem,
    _abs_det,
    _double_description,
    _lattice_block,
    cokernel_group,
    dot,
    mat_vec,
    matrix_rank,
    primitive,
    strict_feasible,
    transpose,
)
from .fan import Fan

ToricDivisor = Sequence[int]


class CartierData(NamedTuple):
    """One character per maximal cone; `mode` records integral vs rational."""

    characters: tuple
    mode: str


class Polytope(NamedTuple):
    """Intersection of halfspaces {m : normal . m >= -offset}, with vertices."""

    inequalities: tuple  # (normal, offset) pairs
    vertices: tuple


class GrowthReport(NamedTuple):
    """Predicted leading term of the top Chern numbers of the induced bundle family."""

    n: int
    degree: int
    statement: str
    note: str = "coefficients below the leading term are not determined"


class ProjectivityResult(NamedTuple):
    feasible: bool
    witness_divisor: Optional[tuple[int, ...]]
    witness_data: Optional[CartierData]

    def __bool__(self) -> bool:
        return self.feasible


def _check_divisor(fan: Fan, divisor: ToricDivisor) -> tuple[int, ...]:
    coeffs = tuple(divisor)
    if len(coeffs) != len(fan.rays):
        raise ValueError(
            f"divisor has {len(coeffs)} coefficients but the fan has {len(fan.rays)} rays"
        )
    for x in coeffs:
        if type(x) is not int:
            raise ValueError(f"divisor coefficient {x!r} is not an integer")
    return coeffs


@cache
def _cone_block(rays: tuple) -> tuple:
    """``(d, E, relations)`` of the cone on ``rays`` (A), from ``_lattice_block``:
    A E A = d A, with E A = d I on a full-dimensional cone, and the
    primitive R_j, R_j A = 0, are a basis of the cone's linear relations.
    Cached per ray tuple."""
    return _lattice_block(rays)[:3]


def _characters(fan: Fan, coeffs: Sequence[int]) -> Optional[tuple[tuple[int, tuple[int, ...]], ...]]:
    """One rational character per maximal cone sigma, m_sigma(l_k) = -a_k on
    its rays, as ``(d, numerators)``, or None when D is not Q-Cartier.

    It is E b / d, b = -a on sigma's rays, if every relation of
    ``_cone_block`` vanishes on b: the unique character on a
    full-dimensional sigma, and on a lower-dimensional one a character that
    is integral whenever D has an integral one on sigma (``_lattice_block``).
    As c m_sigma is the same block's character of c*D, c*D is Cartier iff
    every c m_sigma is integral: the Cartier index is the lcm of their
    denominators (``_least_multiple``).
    """
    characters = []
    for mc in fan.max_cones:
        b = [-coeffs[k] for k in mc]
        d, e, relations = _cone_block(tuple(fan.rays[k] for k in mc))
        if any(dot(row, b) for row in relations):
            return None
        characters.append((d, mat_vec(e, b)))
    return tuple(characters)


def _least_multiple(characters) -> int:
    """The least c >= 1 with c*D Cartier (see ``_characters``): the lcm of d / gcd(d, numerators)."""
    return lcm(*(d // gcd(d, *nums) for d, nums in characters))


def cartier_data(fan: Fan, divisor: ToricDivisor, mode: str = "integral") -> Optional[CartierData]:
    """Per-cone characters m with m(l_k) = -a_k on each cone's rays, or None.

    ``integral`` decides Cartier, ``rational`` decides Q-Cartier, both on
    the characters of ``_characters``: unique on a full-dimensional cone,
    the Hermite one on a lower-dimensional cone.
    """
    if mode not in ("integral", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    characters = _characters(fan, _check_divisor(fan, divisor))
    if characters is None:
        return None
    if mode == "rational":
        return CartierData(tuple(tuple(Fraction(x, d) for x in nums) for d, nums in characters), mode)
    if any(x % d for d, nums in characters for x in nums):
        return None
    return CartierData(tuple(tuple(x // d for x in nums) for d, nums in characters), mode)


def cartier_index(fan: Fan, divisor: ToricDivisor) -> Optional[int]:
    """Least c >= 1 with c*D Cartier, or None when D is not even Q-Cartier:
    the lcm of the characters' denominators (``_characters`` proves it least),
    re-checked in integers, as c*m_sigma is -c*a_k on each ray k of sigma."""
    coeffs = _check_divisor(fan, divisor)
    characters = _characters(fan, coeffs)
    if characters is None:
        return None
    index = _least_multiple(characters)
    for mc, (d, nums) in zip(fan.max_cones, characters):
        point, rest = zip(*(divmod(index * x, d) for x in nums))
        if any(rest) or any(dot(point, fan.rays[k]) != -index * coeffs[k] for k in mc):
            raise InvariantError("the Cartier index does not give an integral character")
    return index


def class_group(fan: Fan) -> FGAbelianGroup:
    """Cokernel of the character lattice mapping into ray-indexed divisors."""
    if matrix_rank(fan.rays) != fan.ambient_rank:
        raise ValueError("rays do not span the ambient space")
    return cokernel_group(fan.rays, len(fan.rays))


def _cone_rows(fan: Fan, mc, outside=()) -> list[tuple[int, ...]]:
    """Ray-indexed rows of a full-dimensional sigma: its relations, then one per ``outside`` ray.

    ``_cone_block``'s relations R_j, then at each outside ray k the primitive
    v with v_k = d, -E^T l_k on sigma and 0 elsewhere: ``sum_j v_j l_j = 0``,
    and v . a = d * (a_k + m_sigma(l_k)) with m_sigma = E b / d (b = -a on
    sigma), the strict-convexity row of sigma at k scaled by d > 0.
    """
    d, e, relations = _cone_block(tuple(fan.rays[k] for k in mc))
    columns = transpose(e)
    vectors = [dict(zip(mc, v)) for v in relations]
    vectors += [dict(zip(mc + (k,), [-dot(c, fan.rays[k]) for c in columns] + [d])) for k in outside]
    return [primitive([v.get(j, 0) for j in range(len(fan.rays))]) for v in vectors]


def picard_group(fan: Fan) -> FGAbelianGroup:
    """Cartier divisors modulo principal divisors: a free group, of exact rank.

    Each linear relation ``lambda`` among the rays of a maximal cone sigma
    (``sum_i lambda_i l_i = 0``; a simplicial cone has none) becomes a
    ray-indexed row, re-checked in integers: every principal divisor, a
    column of the ray matrix, must vanish on it.  Then ``rank Pic = r - n -
    rank(rows)`` and Pic has no torsion (Cox, Little & Schenck, *Toric
    Varieties*, Prop. 4.2.5; Fulton 1993, section 3.4).  Proof: on a complete
    fan every maximal cone is full-dimensional, so ``a`` is Q-Cartier iff
    every relation vanishes on it (``_characters``).  Clearing denominators,
    Cartier divisors span that space: rank CDiv = r - rank(rows).  The rays
    span, so M embeds: rank Pic = rank CDiv - n.  If ``d * D = div(m)``, then
    ``d * m_sigma = m`` on a full-dimensional sigma, so ``m / d = m_sigma``
    is integral and ``D = div(m_sigma)``.
    """
    if not fan.is_complete():
        raise ValueError("picard group computation requires a complete fan")
    n = fan.ambient_rank
    rows = [row for mc in fan.max_cones if len(mc) > n for row in _cone_rows(fan, mc)]
    principals = transpose(fan.rays)
    if any(any(mat_vec(principals, row)) for row in rows):
        raise InvariantError("principal divisor is not Cartier: a cone relation does not vanish on it")
    return FGAbelianGroup(len(fan.rays) - n - matrix_rank(rows))


def is_ample(fan: Fan, divisor: ToricDivisor) -> bool:
    """Strict convexity of the support function of a Cartier divisor.

    The criterion is m_sigma(l_k) > -a_k for every maximal cone sigma and
    every ray k outside it, compared exactly.
    """
    coeffs = _check_divisor(fan, divisor)
    if not fan.is_complete():
        raise ValueError("ampleness requires a complete fan")
    data = cartier_data(fan, coeffs, mode="integral")
    if data is None:
        raise ValueError("ampleness undefined for non-Cartier input")
    return _strictly_convex(fan, coeffs, data.characters)


def _strictly_convex(fan: Fan, coeffs, characters) -> bool:
    """Whether m_sigma(l_k) > -a_k for every maximal cone sigma and ray k
    outside it, given the Cartier data of the divisor."""
    for mc, character in zip(fan.max_cones, characters):
        inside = set(mc)
        for k, ray in enumerate(fan.rays):
            if k not in inside and dot(character, ray) <= -coeffs[k]:
                return False
    return True


def is_projective(fan: Fan) -> ProjectivityResult:
    """Search for an ample divisor in divisor coordinates.

    Each maximal cone's ``_cone_block`` gives its relations, whose common
    zeros are the Q-Cartier divisors, and its strict-convexity rows
    (``_cone_rows``), which on a complete fan decide ampleness (Cox, Little
    & Schenck, *Toric Varieties*, ch. 6).  ``strict_feasible`` decides
    {relations = 0, rows > 0}.  The witness sums its extreme rays, each
    scaled to its least Cartier multiple (``_least_multiple``, on the same
    blocks), so it is Cartier and still positive on every row.  Its Cartier
    data and strict convexity are re-checked.
    """
    if not fan.is_complete():
        raise ValueError("projectivity test requires a complete fan")
    n, r = fan.ambient_rank, len(fan.rays)
    equalities, stricts = [], []
    for mc in fan.max_cones:
        rows = _cone_rows(fan, mc, [k for k in range(r) if k not in mc])
        equalities += rows[:len(mc) - n]
        stricts += rows[len(mc) - n:]
    result = strict_feasible(StrictSystem(tuple(equalities), tuple(stricts), r))
    if not result.feasible:
        return ProjectivityResult(False, None, None)
    terms = [(_least_multiple(_characters(fan, ray)), ray) for ray in result.rays]
    divisor = tuple(sum(c * ray[k] for c, ray in terms) for k in range(r))
    data = cartier_data(fan, divisor)
    if data is None or not _strictly_convex(fan, divisor, data.characters):
        raise InvariantError("projectivity witness is not an ample Cartier divisor")
    return ProjectivityResult(True, divisor, data)


def divisor_polytope(fan: Fan, divisor: ToricDivisor) -> Polytope:
    """The polytope P = {m : l_ray(m) >= -a_ray}, with exact rational vertices.

    P is the slice t = 1 of C = {(m, t) : l_ray(m) + a_ray*t >= 0, t >= 0}.
    C has a line iff the rays do not span, its face t = 0 is P's recession
    cone, and its extreme rays with t > 0 are the vertices m/t of P.
    """
    coeffs = _check_divisor(fan, divisor)
    n = fan.ambient_rank
    rows = [ray + (a,) for ray, a in zip(fan.rays, coeffs)] + [(0,) * n + (1,)]
    lineality, rays, _ = _double_description(n + 1, (), rows)
    if lineality:
        raise ValueError("polytope is unbounded: rays do not span")
    if any(r[n] == 0 for r in rays):
        raise ValueError("polytope is unbounded")
    vertices = sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays)
    ineqs = tuple(zip(fan.rays, coeffs))
    return Polytope(ineqs, tuple(vertices))


def polytope_degree(polytope: Polytope) -> int:
    """The degree d! * vol(P) of a full-dimensional integral polytope P in Q^d.

    The cone over P x {1} has the lifted vertices (v, 1) as its rays and the
    cones over P's faces as its faces.  Pulling each face's smallest ray
    cones every facet of the face that misses it over that ray, recursively,
    which cuts P into lattice simplices (De Loera, Rambau & Santos,
    *Triangulations*, 2010).  A simplex's normalized volume is |det| of its
    lifted vertices, the last pivot of one elimination (``_abs_det``).
    """
    if not polytope.vertices:
        raise ValueError("empty polytope")
    if any(Fraction(x).denominator != 1 for v in polytope.vertices for x in v):
        raise ValueError("scale divisor to its Cartier index first: polytope has non-integral vertices")
    d = len(polytope.vertices[0])
    cone = Cone.from_rays(d + 1, [tuple(int(x) for x in v) + (1,) for v in polytope.vertices])
    if cone.dim != d + 1:
        raise ValueError(f"polytope has affine dimension {cone.dim - 1}, expected {d}")
    faces = cone._face_sets()

    @cache
    def simplices(face: int) -> list[tuple[int, ...]]:  # face: a ray-index mask
        apex = (face & -face).bit_length() - 1
        if face == 1 << apex:
            return [(apex,)]
        facets = {face & inc for inc in cone._incidence}
        return [(apex,) + s for facet in facets if not facet >> apex & 1 and faces[facet] == faces[face] - 1
                for s in simplices(facet)]

    return sum(_abs_det([cone.rays[i] for i in s]) for s in simplices((1 << len(cone.rays)) - 1))


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _power(base: str, exp: int) -> str:
    if exp == 0:
        return "1"
    if exp == 1:
        return base
    return base + str(exp).translate(_SUPERSCRIPTS)


def chern_growth(n: int, degree: int) -> GrowthReport:
    """The leading-term statement degree * t^(n-1) for the bundle family.

    Only the top coefficient is pinned down by the degree of the ample class;
    everything below it is reported as unknown.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if degree < 1:
        raise ValueError("degree must be positive")
    lead = _power("t", n - 1)
    term = lead if degree == 1 else f"{degree}{lead}"
    statement = f"c{str(n).translate(_SUBSCRIPTS)}(E_t) = {term} + O({_power('t', n - 2)})"
    return GrowthReport(n, degree, statement)
