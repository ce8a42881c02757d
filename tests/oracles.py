"""Independent oracles used to cross-check the library.

Everything here is deliberately self-contained: its own determinant, its own
Cramer solve, plain enumeration.  Nothing imports the solver paths under
test, so agreement between an oracle and the library is meaningful.  The one
exception, ``picard_by_cartier_lattice``, computes the Picard group from the
library's Cartier lattice and Smith normal form, which ``picard_group`` no
longer uses.  ``reference_build`` is the cone layer's earlier read-off, kept
as the reference for the one-pass read-off that replaced it, on the same
double description.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from toricfan.cone import Cone, _sign_canonical
from toricfan.divisor import _cartier_lattice
from toricfan.exactlin import _double_description, cokernel_group, dot, mat_vec, primitive


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


def picard_by_cartier_lattice(fan):
    """Pic of a complete fan as a quotient of lattices, torsion included.

    The coefficient parts of the Cartier lattice (``divisor._cartier_lattice``)
    are a column echelon basis of the Cartier divisors; the principal divisors
    are expressed in it by forward substitution down its pivots, checked in
    integers, and the quotient read off a Smith normal form.
    """
    num_rays = len(fan.rays)
    lattice = _cartier_lattice(fan)
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
    return cokernel_group(relation_matrix, len(lattice))


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
                      tuple(m for _, m in ordered), tuple(frozenset(inc) for inc, _ in ordered))
