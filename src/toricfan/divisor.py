"""Toric divisors: Cartier data, class and Picard groups, ampleness,
projectivity, divisor polytopes, and lattice-point degree computations.

A divisor is a plain sequence of integer coefficients, one per fan ray, in
the fan's ray order.  Cartier data assigns to every maximal cone a character
vector that evaluates to minus the coefficient on each of the cone's rays;
the divisor is Cartier when integral characters exist, Q-Cartier when
rational ones do.  One rational character per cone (``_characters``; the
Hermite one on a lower-dimensional cone) decides both, and the lcm of its
denominators is the Cartier index, re-checked in integers.  One per-cone
construction serves the Picard group and projectivity: a rational kernel of
a cone's rays followed by the rays outside it gives the cone's linear
relations and its strict-convexity rows, all in divisor coordinates.
Divisor polytopes and the projectivity search each take one double
description.  All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import factorial, floor, ceil, lcm
from operator import and_
from typing import Optional, Sequence

from .errors import InvariantError, ResourceLimitError
from .exactlin import (
    FGAbelianGroup,
    _double_description,
    _hermite_coordinates,
    cokernel_group,
    dot,
    mat_vec,
    matrix_rank,
    rational_kernel,
    solve_linear,
    transpose,
)
from .fan import Fan

ToricDivisor = Sequence[int]

# Safety valve on the box that ``count_lattice_points`` scans point by point;
# the instances this package targets stay far below this.
_BOX_POINT_LIMIT = 1_000_000


@dataclass(frozen=True)
class CartierData:
    """One character per maximal cone; `mode` records integral vs rational."""

    characters: tuple
    mode: str


@dataclass(frozen=True)
class Polytope:
    """Intersection of halfspaces {m : normal . m >= -offset}, with vertices."""

    inequalities: tuple  # (normal, offset) pairs
    vertices: tuple


@dataclass(frozen=True)
class GrowthReport:
    """Predicted leading term of the top Chern numbers of the induced bundle family."""

    n: int
    degree: int
    statement: str
    note: str = "coefficients below the leading term are not determined"


@dataclass(frozen=True)
class ProjectivityResult:
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
    return coeffs


def _characters(fan: Fan, coeffs: Sequence[int]) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """One rational character per maximal cone sigma, m_sigma(l_k) = -a_k on
    its rays, or None when D is not Q-Cartier.

    On a full-dimensional sigma it is the unique solution.  On a lower-
    dimensional one it is U' y from ``_hermite_coordinates`` on sigma's rays,
    and integral characters of c*D on sigma exist iff c y is integral, iff
    c U' y is, U' being part of a unimodular U.  Either way c*D is Cartier
    iff every c m_sigma is integral: the Cartier index is the lcm of their
    denominators (``_least_multiple``).
    """
    characters = []
    for mc, cone in zip(fan.max_cones, fan.cones):
        rows = [fan.rays[k] for k in mc]
        rhs = [-coeffs[k] for k in mc]
        if cone.dim == fan.ambient_rank:
            sol = solve_linear(rows, rhs)
            character = None if sol is None else sol.particular
        else:
            y, basis, _ = _hermite_coordinates(rows, rhs)
            character = None if y is None else mat_vec(basis, y)
        if character is None:
            return None
        characters.append(character)
    return tuple(characters)


def _least_multiple(characters) -> int:
    """The lcm of the characters' denominators: the least c >= 1 with c*D Cartier (see ``_characters``)."""
    return lcm(*(x.denominator for character in characters for x in character))


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
        return CartierData(characters, mode)
    if any(x.denominator != 1 for character in characters for x in character):
        return None
    return CartierData(tuple(tuple(x.numerator for x in character) for character in characters), mode)


def is_q_cartier(fan: Fan, divisor: ToricDivisor) -> bool:
    return _characters(fan, _check_divisor(fan, divisor)) is not None


def cartier_index(fan: Fan, divisor: ToricDivisor) -> Optional[int]:
    """Least c >= 1 with c*D Cartier, or None when D is not even Q-Cartier:
    the lcm of the characters' denominators (``_characters`` proves it least),
    re-checked in integers, as c*m_sigma is -c*a_k on each ray k of sigma."""
    coeffs = _check_divisor(fan, divisor)
    characters = _characters(fan, coeffs)
    if characters is None:
        return None
    index = _least_multiple(characters)
    for mc, character in zip(fan.max_cones, characters):
        point, rest = zip(*(divmod(index * x.numerator, x.denominator) for x in character))
        if any(rest) or any(dot(point, fan.rays[k]) != -index * coeffs[k] for k in mc):
            raise InvariantError("the Cartier index does not give an integral character")
    return index


def class_group(fan: Fan) -> FGAbelianGroup:
    """Cokernel of the character lattice mapping into ray-indexed divisors."""
    if matrix_rank(fan.rays) != fan.ambient_rank:
        raise ValueError("rays do not span the ambient space")
    return cokernel_group(fan.rays, len(fan.rays))


def _cone_rows(fan: Fan, mc, outside=()) -> list[list[int]]:
    """Ray-indexed rows of one rational kernel of sigma's rays, then ``outside``'s.

    On a full-dimensional sigma all n pivots fall in sigma's columns, so
    the free columns are sigma's |sigma| - n others, whose rows are sigma's
    linear relations, then one per outside ray k: a row v, zero off sigma
    and k, with v_k > 0 and ``sum_j v_j l_j = 0``.  On a divisor a with
    character m_sigma on sigma, v . a = v_k * (a_k + m_sigma(l_k)): v is
    the strict-convexity row of sigma at k, scaled by v_k.
    """
    order = list(mc) + list(outside)
    rows = []
    for vector in rational_kernel(transpose([fan.rays[k] for k in order])):
        row = [0] * len(fan.rays)
        for k, c in zip(order, vector):
            row[k] = c
        rows.append(row)
    return rows


def picard_group(fan: Fan) -> FGAbelianGroup:
    """Cartier divisors modulo principal divisors: a free group, of exact rank.

    Each linear relation ``lambda`` among the rays of a maximal cone sigma
    (``sum_i lambda_i l_i = 0``; a simplicial cone has none) becomes a
    ray-indexed row, re-checked in integers: every principal divisor, a
    column of the ray matrix, must vanish on it.  Then ``rank Pic = r - n -
    rank(rows)`` and Pic has no torsion (Cox, Little & Schenck, *Toric
    Varieties*, Prop. 4.2.5; Fulton 1993, section 3.4).  Proof: on a complete
    fan every maximal cone is full-dimensional, so characters are fixed by
    coefficients, and ``a`` is Q-Cartier iff each ``a`` restricted to sigma
    lies in the column span of sigma's rays, iff every relation vanishes on
    it.  Clearing denominators, Cartier divisors span that space: rank CDiv
    = r - rank(rows).  The rays span, so M embeds: rank Pic = rank CDiv - n.
    If ``d * D = div(m)``, then ``d * m_sigma = m`` on a full-dimensional
    sigma, so ``m / d = m_sigma`` is integral and ``D = div(m_sigma)``.
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

    ``_cone_rows`` gives each maximal cone's relations, whose common zeros
    are the Q-Cartier divisors, and its strict-convexity rows, which on a
    complete fan decide ampleness (Cox, Little & Schenck, *Toric
    Varieties*, ch. 6).  One double description gives {relations = 0, rows
    >= 0}; as in ``strict_feasible``, the strict system is infeasible iff
    some row vanishes on every extreme ray.  Otherwise the witness is the
    sum of each ray's least Cartier multiple (``_least_multiple``): it is
    Cartier, and every row is nonnegative on each term and positive on one.
    Its Cartier data and strict convexity are re-checked.
    """
    if not fan.is_complete():
        raise ValueError("projectivity test requires a complete fan")
    n, r = fan.ambient_rank, len(fan.rays)
    equalities, stricts = [], []
    for mc in fan.max_cones:
        rows = _cone_rows(fan, mc, [k for k in range(r) if k not in mc])
        equalities += rows[:len(mc) - n]
        stricts += rows[len(mc) - n:]
    _, rays, zeros = _double_description(r, equalities, stricts)
    if reduce(and_, zeros, (1 << len(stricts)) - 1):
        return ProjectivityResult(False, None, None)
    terms = [(_least_multiple(_characters(fan, ray)), ray) for ray in rays]
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


def count_lattice_points(polytope: Polytope, scale: int = 1) -> int:
    """Number of integer points of ``scale * polytope`` (box scan, exact)."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if not polytope.vertices:
        return 0
    dim = len(polytope.vertices[0])
    sides = [range(min(floor(scale * v[i]) for v in polytope.vertices),
                   max(ceil(scale * v[i]) for v in polytope.vertices) + 1) for i in range(dim)]
    box = 1
    for side in sides:
        box *= side.stop - side.start
    if box > _BOX_POINT_LIMIT:
        raise ResourceLimitError(f"lattice-point scan of {box} points passes its {_BOX_POINT_LIMIT}-point limit")
    bounds = [(normal, -scale * offset) for normal, offset in polytope.inequalities]
    return sum(all(dot(normal, point) >= b for normal, b in bounds) for point in product(*sides))


def polytope_degree(polytope: Polytope, intrinsic_dim: int) -> tuple[tuple[Fraction, ...], int]:
    """Lattice-point counting polynomial of a bounded integral polytope.

    Counts points of t*P for t = d down to 0 (the largest box first, so the
    scan limit is met before any scan), solves the Vandermonde system for the
    counting polynomial, and returns it (coefficients ascending) with the
    degree d! * leading coefficient, an integer for integral polytopes.
    """
    if not polytope.vertices:
        raise ValueError("empty polytope")
    for v in polytope.vertices:
        if any(Fraction(x).denominator != 1 for x in v):
            raise ValueError("scale divisor to its Cartier index first: polytope has non-integral vertices")
    base = polytope.vertices[0]
    diffs = [tuple(x - y for x, y in zip(v, base)) for v in polytope.vertices[1:]]
    actual_dim = matrix_rank(diffs) if diffs else 0
    if actual_dim != intrinsic_dim:
        raise ValueError(f"polytope has affine dimension {actual_dim}, expected {intrinsic_dim}")
    d = intrinsic_dim
    counts = [count_lattice_points(polytope, t) for t in range(d, -1, -1)][::-1]
    coeffs = solve_linear([[t**k for k in range(d + 1)] for t in range(d + 1)], counts).particular
    leading = coeffs[d] * factorial(d)
    if leading.denominator != 1:
        raise InvariantError("integral polytope produced a non-integral degree")
    return coeffs, int(leading)


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
