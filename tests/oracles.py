"""Independent oracles used to cross-check the library.

Everything here is deliberately self-contained: its own determinant, its own
Cramer solve, plain enumeration.  Nothing imports the solver paths under
test, so agreement between an oracle and the library is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm


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


def cramer_solve(rows, rhs):
    """Unique rational solution of a square integer system, or None if singular."""
    d = det_cofactor(rows)
    if d == 0:
        return None
    n = len(rows)
    out = []
    for j in range(n):
        col = [[rows[i][k] if k != j else rhs[i] for k in range(n)] for i in range(n)]
        out.append(Fraction(det_cofactor(col), d))
    return tuple(out)


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

    def satisfied(point) -> bool:
        for e in equalities:
            if sum(a * p for a, p in zip(e, point)) != 0:
                return False
        for s in strict_rows:
            if sum(a * p for a, p in zip(s, point)) < 1:
                return False
        return all(-box <= p <= box for p in point)

    for subset in combinations(range(len(rows)), dim):
        candidate = cramer_solve([rows[i] for i in subset], [rhs[i] for i in subset])
        if candidate is not None and satisfied(candidate):
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
        v = tuple((-1) ** j * det_cofactor([[row[k] for k in range(n) if k != j] for row in subset])
                  for j in range(n))
        if not any(v):
            continue
        for w in (v, tuple(-x for x in v)):
            if all(_dot(e, w) == 0 for e in equalities) and all(_dot(a, w) >= 0 for a in inequalities):
                found.add(_primitive(w))
    return tuple(sorted(found))


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
    span less than S.  The extreme rays are those of {x in S : m.x >= 0 for
    every normal m}.  ``faces`` maps each face, as a frozenset of rays, to
    its dimension: a set of rays is a face iff it is every ray on all the
    normals that vanish on it (faces are intersections of facets).
    """
    equations, normals = brute_force_facets(n, generators)
    dim = n - len(equations)
    if n - len(kernel_basis(normals, n)) != dim:
        return None
    rays = brute_force_extreme_rays(n, equations, normals)
    faces = {}
    for k in range(len(rays) + 1):
        for subset in combinations(rays, k):
            on = [m for m in normals if all(_dot(m, r) == 0 for r in subset)]
            if subset == tuple(r for r in rays if all(_dot(m, r) == 0 for m in on)):
                faces[frozenset(subset)] = n - len(kernel_basis(subset, n)) if subset else 0
    return rays, equations, normals, faces


def brute_force_meet(n, generators_a, generators_b):
    """Extreme rays of the meet of two pointed cones, from the oracle's own dual descriptions."""
    eqs_a, normals_a = brute_force_facets(n, generators_a)
    eqs_b, normals_b = brute_force_facets(n, generators_b)
    return brute_force_extreme_rays(n, eqs_a + eqs_b, normals_a + normals_b)


def brute_force_integral_solutions(rows, rhs, box=10):
    """All integer solutions of rows @ x = rhs with coordinates in [-box, box]."""
    cols = len(rows[0])
    out = []
    for point in product(range(-box, box + 1), repeat=cols):
        if all(sum(a * p for a, p in zip(row, point)) == b for row, b in zip(rows, rhs)):
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
