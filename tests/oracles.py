"""Independent oracles used to cross-check the library.

Everything here is deliberately self-contained: its own determinant, its own
Cramer solve, plain enumeration.  Nothing imports the solver paths under
test, so agreement between an oracle and the library is meaningful.  The
exceptions are earlier library paths, kept as references for the ones that
replaced them.  ``cartier_lattice`` is the cone-by-cone Hermite lattice of
T-Cartier divisors, built on the library's integral kernels;
``picard_by_cartier_lattice`` reads the Picard group off it with
``smith_by_pivoting``, the library's earlier pivot-and-restart Smith form,
and ``projective_by_cartier_lattice`` decides projectivity on it with
``strict_feasible``.  ``cartier_index_by_scan`` tries every divisor of the
denominator lcm with one integral ``solve_linear`` per cone, the bound
coming from one rational ``solve_linear`` per cone, not from the library's
per-cone characters.
``reference_build`` is the cone layer's earlier read-off, on the same double
description as the one-pass read-off that replaced it.
``count_lattice_points``, ``counting_polynomial`` and ``scan_degree`` are the
library's earlier degree: a bounding-box scan of t*P for t = 0..d and a
Vandermonde solve, the reference for the triangulation's volume on small
polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, factorial, floor, gcd, lcm

from toricfan.cone import Cone, _sign_canonical
from toricfan.divisor import ProjectivityResult, _strictly_convex, cartier_data
from toricfan.exactlin import (
    FGAbelianGroup,
    StrictSystem,
    _double_description,
    dot,
    hermite_normal_form,
    identity_matrix,
    mat_vec,
    primitive,
    solve_linear,
    strict_feasible,
    transpose,
)
from toricfan.errors import ResourceLimitError


def det_cofactor(m) -> int:
    """Recursive cofactor determinant over the integers."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def det_bareiss(m) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination.

    After step k every entry of the trailing block is a (k+1) x (k+1) minor
    of the input, so the division by the previous pivot is exact (Sylvester's
    identity) and the last entry is the determinant.  A zero pivot is
    swapped with a row below it, which flips the sign.
    """
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


def cramer_numerators(rows, rhs):
    """``(d, numerators)`` with the unique solution of a square integer system
    equal to numerators / d and d > 0, or None if the system is singular."""
    d = det_bareiss(rows)
    if d == 0:
        return None
    n = len(rows)
    sign = 1 if d > 0 else -1
    nums = tuple(sign * det_bareiss([[rows[i][k] if k != j else rhs[i] for k in range(n)] for i in range(n)])
                 for j in range(n))
    return sign * d, nums


def _cleared(row) -> tuple[int, ...]:
    """The row times the lcm of its denominators."""
    den = lcm(*(Fraction(x).denominator for x in row))
    return tuple(int(Fraction(x) * den) for x in row)


def feasible_by_vertex_enumeration(dim, equalities, strict_rows) -> bool:
    """Feasibility of {eq = 0, strict > 0} by basic-solution enumeration.

    Uses the slack form strict >= 1 (equivalent by homogeneity) inside a box
    whose size dominates every Cramer-rule basic solution of the system, so
    the boxed polytope is nonempty iff the original one is; a nonempty
    polytope inside a box has a vertex, and every vertex is the unique
    solution of some dim-subset of constraint rows.  Rational rows are first
    scaled to integer rows, which keeps both {= 0} and {> 0}, so that the box
    bound holds.
    """
    equalities = [_cleared(e) for e in equalities]
    strict_rows = [_cleared(s) for s in strict_rows]
    rows = []
    rhs = []
    for e in equalities:
        rows.append(tuple(e))
        rhs.append(0)
        rows.append(tuple(-x for x in e))
        rhs.append(0)
    for s in strict_rows:
        rows.append(tuple(s))
        rhs.append(1)
    bound = 1
    for row in rows:
        for x in row:
            bound = max(bound, abs(x))
    box = dim ** max(dim, 1) * bound ** dim + 1
    for i in range(dim):
        unit = tuple(1 if k == i else 0 for k in range(dim))
        rows.append(unit)
        rhs.append(-box)
        rows.append(tuple(-x for x in unit))
        rhs.append(-box)

    def satisfied(d, nums) -> bool:
        """Whether the point nums / d (d > 0) meets every constraint, in integers."""
        return (all(_dot(e, nums) == 0 for e in equalities)
                and all(_dot(s, nums) >= d for s in strict_rows)
                and all(-box * d <= p <= box * d for p in nums))

    for subset in combinations(range(len(rows)), dim):
        candidate = cramer_numerators([rows[i] for i in subset], [rhs[i] for i in subset])
        if candidate is not None and satisfied(*candidate):
            return True
    return False


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def kernel_basis(rows, n):
    """Primitive integer basis of {x in Q^n : rows @ x = 0}, by Fraction RREF."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][free]
        den = 1
        for x in v:
            den = lcm(den, x.denominator)
        basis.append(_primitive([int(x * den) for x in v]))
    return basis


def brute_force_extreme_rays(n, equalities, inequalities):
    """Sorted primitive extreme rays of the pointed cone {e.x = 0, a.x >= 0} in Q^n (n >= 2).

    An extreme ray of a pointed cone is the kernel of n-1 independent
    constraint rows tight on it, so a scan over every (n-1)-subset of rows
    finds them all: when the subset's generalized cross product (cofactor
    minors) is nonzero it spans the subset's kernel, and whichever sign of it
    satisfies every constraint is an extreme ray.
    """
    rows = [tuple(r) for r in equalities] + [tuple(r) for r in inequalities]
    found = set()
    for subset in combinations(rows, n - 1):
        v = tuple((-1) ** j * det_bareiss([[row[k] for k in range(n) if k != j] for row in subset])
                  for j in range(n))
        if not any(v):
            continue
        for w in (v, tuple(-x for x in v)):
            if all(_dot(e, w) == 0 for e in equalities) and all(_dot(a, w) >= 0 for a in inequalities):
                found.add(_primitive(w))
    return tuple(sorted(found))


def subset_vertex_polytope(n, rays, coeffs):
    """Sorted vertices of {m in Q^n : l_k.m >= -a_k}, by solving every n-subset of rows.

    Raises ``ValueError`` with ``divisor_polytope``'s messages: when the rays
    do not span, and when the recession cone {m : l_k.m >= 0} is nonzero.
    Otherwise the polytope is bounded, and each vertex is the unique
    solution of n of its rows that meets every row; an empty polytope has
    no vertices.
    """
    if kernel_basis(rays, n):
        raise ValueError("polytope is unbounded: rays do not span")
    if brute_force_extreme_rays(n, [], rays):
        raise ValueError("polytope is unbounded")
    vertices = set()
    for subset in combinations(range(len(rays)), n):
        solved = cramer_numerators([rays[k] for k in subset], [-coeffs[k] for k in subset])
        if solved is None:
            continue
        d, nums = solved
        if all(_dot(ray, nums) >= -a * d for ray, a in zip(rays, coeffs)):
            vertices.add(tuple(Fraction(x, d) for x in nums))
    return tuple(sorted(vertices))


def wall_criterion_complete(fan) -> bool:
    """Completeness by the wall criterion: every maximal cone is full-dimensional,
    every wall lies in exactly two of them, and a search across the walls
    from cone 0 reaches every cone."""
    if any(cone.dim != fan.ambient_rank for cone in fan.cones):
        return False
    if any(len(wall.incident) != 2 for wall in fan.walls):
        return False
    adjacency = {i: set() for i in range(len(fan.max_cones))}
    for wall in fan.walls:
        a, b = wall.incident
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return len(seen) == len(fan.max_cones)


def brute_force_facets(n, generators):
    """``(span_equations, normals)`` of the cone on nonzero generators.

    The facet normals are the extreme rays of the dual cone cut down to the
    linear span S of the generators, {y in S : g.y >= 0}, which is pointed;
    for a full-dimensional cone they are the unique primitive inward normals.
    """
    gens = sorted({_primitive(g) for g in generators})
    equations = kernel_basis(gens, n)
    return equations, brute_force_extreme_rays(n, equations, gens)


def brute_force_cone(n, generators):
    """``(rays, span_equations, normals, faces)`` of the cone on nonzero generators, or None.

    None means the cone contains a line, which happens iff the dual of
    ``brute_force_facets`` has empty interior in the span S, i.e. its rays
    span less than S.  ``faces`` maps each face, as a frozenset of rays, to
    its dimension (see ``_face_sets``).
    """
    equations, normals = brute_force_facets(n, generators)
    dim = n - len(equations)
    if n - len(kernel_basis(normals, n)) != dim:
        return None
    rays = brute_force_extreme_rays(n, equations, normals)
    faces = _face_sets(rays, normals)
    return rays, equations, normals, {f: n - len(kernel_basis(f, n)) if f else 0 for f in faces}


def _face_sets(rays, normals):
    """The faces, as frozensets of rays, of the cone with these extreme rays and facet normals.

    A set of rays is a face iff it is every ray on all the normals that
    vanish on it (faces are intersections of facets).
    """
    tight = {r: {j for j, m in enumerate(normals) if _dot(m, r) == 0} for r in rays}
    faces = []
    for k in range(len(rays) + 1):
        for subset in combinations(rays, k):
            on = set(range(len(normals))).intersection(*(tight[r] for r in subset))
            if subset == tuple(r for r in rays if on <= tight[r]):
                faces.append(frozenset(subset))
    return faces


def brute_force_pyramidal(n, generators):
    """``{ray: (kind, eta, base, beyond, tangent)}`` for a full-dimensional pointed cone.

    The beneath/beyond method on the base cone at each ray rho, the cone on
    the other rays: ``low_dim`` when the base has dimension n - 1;
    otherwise each base facet has rho beyond, beneath or on its hyperplane,
    and the cone is ``pyramidal`` when exactly one facet eta has rho beyond
    and none has it on.  ``beyond`` and ``tangent`` are sets of facets, each
    a frozenset of rays; ``eta`` is None unless pyramidal.  A pyramidal
    verdict asserts the face lattices the beneath-beyond theorem predicts:
    the cone's proper faces are the base's other than eta and the base
    itself, plus rho joined to each proper face of eta; the update cone
    eta + rho has the faces of eta, each also joined to rho.
    """
    def cone(rays):
        # Extreme rays of the whole cone are extreme in every cone they span.
        rays = tuple(sorted(rays))
        equations, normals = brute_force_facets(n, rays)
        return rays, _face_sets(rays, normals), equations, normals

    equations, normals = brute_force_facets(n, generators)
    rays = brute_force_extreme_rays(n, equations, normals)
    proper = set(_face_sets(rays, normals)) - {frozenset(rays)}
    out = {}
    for rho in rays:
        base_rays, base_faces, base_eqs, base_normals = cone([r for r in rays if r != rho])
        if base_eqs:
            out[rho] = ("low_dim", None, base_rays, set(), set())
            continue
        beyond, tangent = set(), set()
        for m in base_normals:
            facet = frozenset(r for r in base_rays if _dot(m, r) == 0)
            if _dot(m, rho) < 0:
                beyond.add(facet)
            elif _dot(m, rho) == 0:
                tangent.add(facet)
        if len(beyond) != 1 or tangent:
            out[rho] = ("not_pyramidal", None, base_rays, beyond, tangent)
            continue
        (eta,) = beyond
        eta_faces = {f for f in base_faces if f <= eta}
        predicted = {f for f in base_faces if f != eta and f != frozenset(base_rays)}
        predicted |= {f | {rho} for f in eta_faces if f != eta}
        assert proper == predicted, "face lattice of the pyramidal extension"
        update_faces = cone(list(eta) + [rho])[1]
        assert set(update_faces) == eta_faces | {f | {rho} for f in eta_faces}, "face lattice of the update cone"
        out[rho] = ("pyramidal", eta, base_rays, beyond, tangent)
    return out


def brute_force_meet(n, generators_a, generators_b):
    """Extreme rays of the meet of two pointed cones, from the oracle's own dual descriptions."""
    eqs_a, normals_a = brute_force_facets(n, generators_a)
    eqs_b, normals_b = brute_force_facets(n, generators_b)
    return brute_force_extreme_rays(n, eqs_a + eqs_b, normals_a + normals_b)


# -- the double-description routine in its plain form: generator inner
# products, a gcd loop and an adjacency scan over every ray but p and q.
# ``cone._double_description`` must return the identical triple, order
# included, so this copy keeps its own ``dot`` and ``primitive``.

def _reference_dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def _reference_primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _reference_shift(v, value, pivot, scale):
    if value == 0:
        return v
    return _reference_primitive(tuple(scale * x - value * p for x, p in zip(v, pivot)))


def reference_double_description(n, equalities, inequalities):
    """``(lineality, rays, zeros)`` of {e.x = 0, a.x >= 0} in Q^n, in the order
    ``cone._double_description`` returns them (see its docstring)."""
    lineality = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list = []
    zeros: list = []
    done = 0  # bitmask of the inequalities added so far
    constraints = [(0, e) for e in equalities] + [(1 << j, a) for j, a in enumerate(inequalities)]
    for bit, a in constraints:
        values = [_reference_dot(a, v) for v in lineality]
        k = next((k for k, value in enumerate(values) if value), None)
        if k is not None:
            pivot, scale = lineality.pop(k), values.pop(k)
            if scale < 0:
                pivot, scale = tuple(-x for x in pivot), -scale
            lineality = [_reference_shift(v, value, pivot, scale) for v, value in zip(lineality, values)]
            rays = [_reference_shift(r, _reference_dot(a, r), pivot, scale) for r in rays]
            if bit:
                zeros = [z | bit for z in zeros]
                rays.append(pivot)
                zeros.append(done)
        else:
            values = [_reference_dot(a, r) for r in rays]
            kept = [(r, z | bit if v == 0 else z) for r, z, v in zip(rays, zeros, values)
                    if v == 0 or (bit and v > 0)]
            for p, vp in enumerate(values):
                if vp <= 0:
                    continue
                for q, vq in enumerate(values):
                    if vq >= 0:
                        continue
                    common = zeros[p] & zeros[q]
                    if any(z & common == common for r, z in enumerate(zeros) if r != p and r != q):
                        continue
                    edge = tuple(vp * x - vq * y for x, y in zip(rays[q], rays[p]))
                    kept.append((_reference_primitive(edge), common | bit))
            rays = [r for r, _ in kept]
            zeros = [z for _, z in kept]
        done |= bit
    return lineality, rays, zeros


def scan_integral_solutions(rows, rhs, box=10):
    """All integer solutions of rows @ x = rhs with coordinates in [-box, box], by a full scan."""
    cols = len(rows[0])
    out = []
    for point in product(range(-box, box + 1), repeat=cols):
        if all(sum(a * p for a, p in zip(row, point)) == b for row, b in zip(rows, rhs)):
            out.append(point)
    return out


def brute_force_integral_solutions(rows, rhs, box=10):
    """``scan_integral_solutions`` with the last coordinate solved, not scanned.

    The first cols - 1 coordinates are scanned; one row whose last
    coefficient c is nonzero then fixes the last one, which must be an
    integer (c divides the rest of the row) inside the box, and every row is
    checked on the point.  The solutions come out in the full scan's order.
    A zero last column falls back to the full scan.
    """
    pivot = next((i for i, row in enumerate(rows) if row[-1]), None)
    if pivot is None:
        return scan_integral_solutions(rows, rhs, box)
    row, b = rows[pivot], rhs[pivot]
    out = []
    for head in product(range(-box, box + 1), repeat=len(row) - 1):
        rest = b - sum(a * p for a, p in zip(row, head))
        if rest % row[-1] == 0 and -box <= rest // row[-1] <= box:
            point = head + (rest // row[-1],)
            if all(sum(a * p for a, p in zip(r, point)) == v for r, v in zip(rows, rhs)):
                out.append(point)
    return out


def gcd_of_minors(m, k) -> int:
    """gcd of all k x k minors (0 when every such minor vanishes)."""
    rows = len(m)
    cols = len(m[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            minor = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det_cofactor(minor)))
    return g


def count_triangle_interior(t: int) -> int:
    """Interior lattice points of t * (unit triangle), by direct scan."""
    count = 0
    for x in range(1, t):
        for y in range(1, t - x):
            if x + y < t:
                count += 1
    return count


# The box scan refuses larger boxes: they take seconds, and the library's
# volume needs no scan.
BOX_POINT_LIMIT = 1_000_000


def count_lattice_points(polytope, scale: int = 1) -> int:
    """Integer points of ``scale * polytope``, by a scan of its bounding box.

    Raises ``ResourceLimitError`` when the box holds more than
    ``BOX_POINT_LIMIT`` points.
    """
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
    if box > BOX_POINT_LIMIT:
        raise ResourceLimitError(f"lattice-point scan of {box} points passes its {BOX_POINT_LIMIT}-point limit")
    bounds = [(normal, -scale * offset) for normal, offset in polytope.inequalities]
    return sum(all(_dot(normal, point) >= b for normal, b in bounds) for point in product(*sides))


def counting_polynomial(polytope) -> tuple[Fraction, ...]:
    """Coefficients, ascending, of t -> #(t*P) for an integral polytope P in Q^d.

    Counts t*P for t = d down to 0 (the box at t = d is the largest, so the
    scan limit is met before any scan) and solves the Vandermonde system by
    ``cramer_numerators``.
    """
    d = len(polytope.vertices[0])
    counts = [count_lattice_points(polytope, t) for t in range(d, -1, -1)][::-1]
    den, nums = cramer_numerators([[t ** k for k in range(d + 1)] for t in range(d + 1)], counts)
    return tuple(Fraction(x, den) for x in nums)


def scan_degree(polytope) -> Fraction:
    """d! times the counting polynomial's leading coefficient: the degree
    d! * vol(P) when P is d-dimensional, by the box scan."""
    coeffs = counting_polynomial(polytope)
    return coeffs[-1] * factorial(len(coeffs) - 1)


def _combine(coeffs, vectors):
    """The integer combination of ``vectors`` with the leading ``coeffs``."""
    out = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [x + c * y for x, y in zip(out, vec)]
    return tuple(out)


def cartier_lattice(fan):
    """The T-Cartier divisors with their Cartier data, in a Hermite basis.

    A basis of the integer solutions of ``m_sigma(l_k) + a_k = 0`` over the
    maximal cones and their rays.  Each vector holds one coefficient per ray,
    then ``s`` blocks of ``n`` character coordinates, one block per maximal
    cone.  On a complete fan the characters are fixed by the coefficients,
    so the column echelon form puts every pivot on a coefficient: basis
    vector ``j`` is zero on the coefficients before its pivot.

    Built cone by cone from the coefficient unit vectors: cone sigma keeps
    the integer combinations ``c`` of the current basis ``B`` that agree
    with a character ``m`` on its rays, the integral kernel ``(c, m)`` of
    ``[B on sigma's rays | rays of sigma]``, and ``c @ B`` gains ``m`` as
    sigma's block.  They are a basis of the lattice of the cones so far; a
    lattice has one column Hermite basis, whatever basis it starts from.
    """
    basis = identity_matrix(len(fan.rays))
    for mc in fan.max_cones:
        rows = [tuple(b[k] for b in basis) + fan.rays[k] for k in mc]
        kernel = solve_linear(rows, [0] * len(rows), mode="integral").kernel
        basis = [_combine(v, basis) + v[len(basis):] for v in kernel]
    h, _ = hermite_normal_form(transpose(basis))
    return tuple(col for col in transpose(h) if any(col))


def projective_by_cartier_lattice(fan):
    """Projectivity of a complete fan decided in a basis of the Cartier lattice.

    Strict convexity is one strict row per maximal cone sigma and ray k
    outside it, ``m_sigma(l_k) + a_k > 0``, in the coordinates of
    ``cartier_lattice``.  The integral witness of ``strict_feasible`` is a
    lattice point, which carries the ample divisor and its characters
    together; both are checked before they are returned.
    """
    n, r = fan.ambient_rank, len(fan.rays)
    lattice = cartier_lattice(fan)
    stricts = []
    for ci, mc in enumerate(fan.max_cones):
        for k, ray in enumerate(fan.rays):
            if k not in mc:
                stricts.append(tuple(v[k] + dot(v[r + ci * n:r + (ci + 1) * n], ray) for v in lattice))
    result = strict_feasible(StrictSystem((), tuple(stricts), len(lattice)))
    if not result.feasible:
        return ProjectivityResult(False, None, None)
    point = mat_vec(transpose(lattice), result.witness)
    divisor = tuple(point[:r])
    data = cartier_data(fan, divisor)
    characters = tuple(tuple(point[r + ci * n:r + (ci + 1) * n]) for ci in range(len(fan.max_cones)))
    if data is None or data.characters != characters:
        raise AssertionError("lattice witness characters are not the Cartier data of its divisor")
    if not _strictly_convex(fan, divisor, characters):
        raise AssertionError("lattice witness failed the ampleness check")
    return ProjectivityResult(True, divisor, data)


def _cone_systems(fan, divisor):
    """Per maximal cone, its ray rows and the right-hand side -a_k on them."""
    for mc in fan.max_cones:
        yield [fan.rays[k] for k in mc], [-divisor[k] for k in mc]


def denominator_lcm(fan, divisor):
    """The lcm of the denominators of each cone's rational solve (free
    coordinates pinned to zero), a Cartier multiple of the divisor, or None
    when it is not Q-Cartier."""
    bound = 1
    for rows, rhs in _cone_systems(fan, divisor):
        sol = solve_linear(rows, rhs)
        if sol is None:
            return None
        bound = lcm(bound, *(x.denominator for x in sol.particular))
    return bound


def cartier_index_by_scan(fan, divisor):
    """Least c >= 1 with c*D Cartier, or None when D is not Q-Cartier, by
    trying every divisor of ``denominator_lcm`` L in increasing order, each
    with one integral solve per cone.  The loop runs over ``range(1, L + 1)``:
    keep L small."""
    bound = denominator_lcm(fan, divisor)
    if bound is None:
        return None
    for c in range(1, bound + 1):
        if bound % c == 0 and all(solve_linear(rows, [c * b for b in rhs], mode="integral") is not None
                                  for rows, rhs in _cone_systems(fan, divisor)):
            return c
    raise AssertionError("the denominator lcm itself must give a Cartier multiple")


def smith_by_pivoting(m):
    """Smith normal form ``S = U @ M @ V`` by pivoting on a least entry.

    A least nonzero entry of the trailing block moves to the pivot, which
    clears its column and row by division with remainder, restarting
    whenever a remainder becomes the new, smaller pivot; a trailing entry
    the pivot does not divide is added into the pivot row, and the loop
    repeats until the pivot divides the whole block.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(rows)]
    v = [list(row) for row in identity_matrix(cols)]

    def row_axpy(dst, src, q):
        if q:
            a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def col_axpy(dst, src, q):
        if q:
            for r in a:
                r[dst] -= q * r[src]
            for r in v:
                r[dst] -= q * r[src]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_axpy(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_axpy(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                             if a[i][j] % a[t][t] != 0), None)
            if offender is None:
                break
            row_axpy(t, offender, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(map(tuple, v))


def picard_by_cartier_lattice(fan):
    """Pic of a complete fan as a quotient of lattices, torsion included.

    The coefficient parts of the Cartier lattice (``cartier_lattice``)
    are a column echelon basis of the Cartier divisors; the principal divisors
    are expressed in it by forward substitution down its pivots, checked in
    integers, and the quotient read off ``smith_by_pivoting``.
    """
    num_rays = len(fan.rays)
    lattice = cartier_lattice(fan)
    if not lattice:
        raise AssertionError("complete fan admits no Cartier divisors at all")
    basis = [[v[k] for v in lattice] for k in range(num_rays)]  # num_rays x rank
    pivots = [next((k for k in range(num_rays) if v[k]), None) for v in lattice]
    if None in pivots:
        raise AssertionError("Cartier lattice has a basis vector with no coefficient")

    # Principal divisors: the ray-evaluation image of the character lattice.
    coords = []
    for principal in zip(*fan.rays):
        x: list[int] = []
        for c, k in enumerate(pivots):  # an inexact division fails the check below
            x.append((principal[k] - dot(basis[k][:c], x)) // basis[k][c])
        if mat_vec(basis, x) != principal:
            raise AssertionError("principal divisor is not Cartier")
        coords.append(x)
    relation_matrix = [list(col) for col in zip(*coords)]  # rank x n
    s, _, _ = smith_by_pivoting(relation_matrix)
    nonzero = [d for d in (s[i][i] for i in range(min(len(s), len(s[0])))) if d]
    return FGAbelianGroup(len(lattice) - len(nonzero), tuple(d for d in nonzero if d >= 2))


def reference_build(ambient_rank, generators):
    """The cone on the generators as ``Cone.from_rays`` built it before the
    one-pass read-off, with the same checks and messages: primitivize and
    deduplicate, run the double description on the dual, then find the
    extreme generators by one meet of facet masks per generator and the
    facets' rays by a dictionary lookup per (facet, ray) pair."""
    gens = list(generators)
    if not gens:
        raise ValueError("cone needs at least one generator")
    if any(len(g) != ambient_rank for g in gens):
        raise ValueError("generator length differs from the ambient rank")
    gens = list(dict.fromkeys(primitive(g) for g in gens))
    lineality, normals, zeros = _double_description(ambient_rank, (), gens)

    def on_all(masks) -> int:
        out = (1 << len(gens)) - 1
        for z in masks:
            out &= z
        return out

    if on_all(zeros):
        raise ValueError("cone contains a line")
    extreme = [i for i in range(len(gens)) if on_all(z for z in zeros if z >> i & 1) == 1 << i]
    rays = tuple(sorted(gens[i] for i in extreme))
    index_of = {g: j for j, g in enumerate(rays)}
    ordered = sorted(
        (tuple(sorted(index_of[gens[i]] for i in extreme if z >> i & 1)), m)
        for m, z in zip(normals, zeros)
    )
    span_eqs = tuple(sorted(_sign_canonical(v) for v in lineality))
    return Cone._make(ambient_rank, rays, ambient_rank - len(lineality), span_eqs,
                      tuple(m for _, m in ordered), tuple(sum(1 << i for i in inc) for inc, _ in ordered))
