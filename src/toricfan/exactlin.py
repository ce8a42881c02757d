"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers.  Rank,
kernels, rational solving and determinants share one fraction-free
Gauss-Jordan (Bareiss) elimination on integer rows, ``_eliminate``, whose
pivots all end equal to one minor d; ``fractions.Fraction`` appears only in
rational particular solutions.  Beside an identity block it gives
``Fan.isomorphism`` its spanning rays and d times their inverse, and
``_lattice_block`` an E with A E A = d A, run again on the nonzero columns
of a rank-deficient A's column Hermite form: every integral solve, every
cone's characters (``divisor._cone_block``) and a star quotient's section
(the inverse of a ray's Hermite completion).  |det| is its last pivot
(``_abs_det``); the Smith form alternates Hermite forms of M and M^T.
Polyhedral questions share one integer double-description routine,
``_double_description``: the cone layer (``toricfan.cone``) builds, converts
and meets cones with it (a meet starts from one cone's known rays and adds
only the other's constraints), and ``strict_feasible`` decides a homogeneous
strict system with it, such as projectivity's, and returns an integral
witness.  No floating point is used anywhere in the package: all downstream
geometry (cones, fans, divisors) reduces to exact lattice computations built
on the primitives in this module.

Conventions:

* Vectors are tuples; matrices are tuples of row tuples.
* Hermite normal form is column-style: ``H = M @ U`` with ``U`` unimodular,
  ``H`` lower-triangular echelon, pivots positive, entries right of a pivot
  zero, and entries left of a pivot in its row reduced into ``[0, pivot)``.
* Smith normal form is ``S = U @ M @ V`` with both transforms unimodular and
  the diagonal entries forming a divisibility chain.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import compress
from math import gcd, lcm
from operator import and_, mul
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError, ResourceLimitError

LatticeVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]
IntegerMatrix = tuple[LatticeVector, ...]

# Double-description safety valve on the rays held at once; the instances this
# package targets stay far below this.
_DD_RAY_LIMIT = 200_000


def dot(a: Sequence, b: Sequence):
    """Exact inner product; lengths must agree."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


@cache
def identity_matrix(k: int) -> IntegerMatrix:
    """The k x k identity, made once per k: the rows are tuples, so sharing is safe."""
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def primitive(v: Sequence[int]) -> LatticeVector:
    """Divide an integer vector by the gcd of its entries.

    The result generates the same ray; raises on the zero vector, which has
    no primitive representative.
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def _integer_rows(rows: Sequence[Sequence], width: int) -> list[list[int]]:
    """Each row, refused unless it has ``width`` entries, scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        if set(map(type, row)) <= {int}:
            out.append(list(row))
        else:
            fr = [Fraction(x) for x in row]
            den = lcm(*[x.denominator for x in fr])
            out.append([x.numerator * (den // x.denominator) for x in fr])
    return out


def _eliminate(work: list[list[int]], cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place; returns the pivot columns.

    Pivots are taken in the first ``cols`` columns only, so an augmented
    right-hand side is carried along but never pivoted on.  Each pivot row
    is made positive, and every other row becomes ``(row * p - pivot_row *
    q) // prev``, prev the previous pivot (Bareiss, *Math. Comp.* 22, 1968).
    After k pivots a row past the pivot rows holds the (k+1)-minors on the
    pivot rows and columns and its own, and pivot row i the k-minors on the
    pivot rows and columns with column i swapped for the entry's (Sylvester,
    Cramer; some input rows negated).  So each division is exact, every
    pivot ends as one d > 0, alone in its column, and the rows past the rank
    are zero in the first ``cols`` columns.  An identity block beside square
    pivot columns M ends as d * M^-1 (the adjugate up to sign): d = |det M|.
    """
    rows_n = len(work)
    pivots: list[int] = []
    prev = 1
    for col in range(cols):
        r = len(pivots)
        for pivot in range(r, rows_n):
            if work[pivot][col]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        pr = work[r]
        p = pr[col]
        for i, row in enumerate(work):
            q = row[col]
            if i != r and (q or p != prev):
                work[i] = [(x * p - y * q) // prev for x, y in zip(row, pr)]
        prev = p
        pivots.append(col)
        if len(pivots) == rows_n:
            break
    return pivots


def _abs_det(m: Sequence[Sequence[int]]) -> int:
    """|det m| of a nonempty square integer matrix: ``_eliminate``'s last pivot, or 0 when singular."""
    work = [list(row) for row in m]
    _eliminate(work, len(work))
    return work[-1][-1]


def _kernel_of(work: list[list[int]], pivots: list[int], cols: int) -> tuple[LatticeVector, ...]:
    """Primitive kernel vectors, one per free column f: d at f and -row[f] at each pivot row's pivot."""
    free = [True] * cols
    for p in pivots:
        free[p] = False
    d = work[0][pivots[0]] if pivots else 1
    basis = []
    for f in compress(range(cols), free):
        vec = [0] * cols
        vec[f] = d
        for row, p in zip(work, pivots):
            vec[p] = -row[f]
        basis.append(primitive(vec))
    return tuple(basis)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals: the pivot count of the fraction-free elimination."""
    if not rows:
        return 0
    cols = len(rows[0])
    return len(_eliminate(_integer_rows(rows, cols), cols))


def rational_kernel(rows: Sequence[Sequence], width: Optional[int] = None) -> tuple[LatticeVector, ...]:
    """Basis of the rational kernel {x : rows @ x = 0}, as primitive integer vectors.

    Vector ``i`` is a positive multiple of the reduced-row-echelon basis
    vector for the ``i``-th free column.  ``width`` must match the rows, and
    must be supplied when there are none (the kernel is then the whole space).
    """
    if not rows:
        if width is None:
            raise ValueError("kernel of an empty system needs an explicit width")
        return identity_matrix(width)
    cols = len(rows[0]) if width is None else width
    work = _integer_rows(rows, cols)
    return _kernel_of(work, _eliminate(work, cols), cols)


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Column-style Hermite normal form.

    Returns ``(H, U)`` with ``H = M @ U``, ``U`` unimodular, and ``H`` in
    lower-triangular column echelon form: pivots positive, entries to the
    right of each pivot zero, entries left of a pivot in its row reduced
    modulo the pivot.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    # Work column-major: every operation is a column operation.
    h = [[m[i][j] for i in range(rows)] for j in range(cols)]
    u = [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]

    def axpy(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        hd, hs = h[dst], h[src]
        for i in range(rows):
            hd[i] -= q * hs[i]
        ud, us = u[dst], u[src]
        for i in range(cols):
            ud[i] -= q * us[i]

    pivot_col = 0
    for i in range(rows):
        if pivot_col >= cols:
            break
        while True:
            nonzero = [j for j in range(pivot_col, cols) if h[j][i] != 0]
            if not nonzero:
                break
            j0 = min(nonzero, key=lambda j: (abs(h[j][i]), j))
            if j0 != pivot_col:
                h[pivot_col], h[j0] = h[j0], h[pivot_col]
                u[pivot_col], u[j0] = u[j0], u[pivot_col]
            if len(nonzero) == 1 and h[pivot_col][i] != 0:
                break
            for j in range(pivot_col + 1, cols):
                if h[j][i] != 0:
                    axpy(j, pivot_col, h[j][i] // h[pivot_col][i])
        if h[pivot_col][i] == 0:
            continue  # no pivot in this row
        if h[pivot_col][i] < 0:
            h[pivot_col] = [-x for x in h[pivot_col]]
            u[pivot_col] = [-x for x in u[pivot_col]]
        p = h[pivot_col][i]
        for j in range(pivot_col):
            axpy(j, pivot_col, h[j][i] // p)
        pivot_col += 1

    hm = tuple(tuple(h[j][i] for j in range(cols)) for i in range(rows))
    um = tuple(tuple(u[j][i] for j in range(cols)) for i in range(cols))
    return hm, um


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Smith normal form ``S = U @ M @ V`` with a divisibility chain on the diagonal.

    Column Hermite forms of A and of its transpose alternate, each
    transform multiplied into V or U, until A is diagonal (Kannan & Bachem,
    SIAM J. Comput. 1979).  This ends: each form's first pivot divides the
    last one's, and once they are equal the first row and column hold that
    pivot alone, which every later form keeps; the trailing block then goes
    the same way.  The last form is echelon, so the positive entries come
    first.  Each pair (d_i, d_j), i < j, with d_i not dividing d_j becomes
    (gcd, lcm) by one unimodular 2 x 2 step on each side, which leaves d_i
    dividing every later entry.
    """
    a, right = hermite_normal_form(m)
    left, flipped = identity_matrix(len(m)), False  # a = left @ M @ right, or M^T when flipped
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a, w = hermite_normal_form(transpose(a))  # a^T @ w = right^T @ (M or M^T)^T @ left^T @ w
        left, right, flipped = transpose(right), mat_mul(transpose(left), w), not flipped
    a, u, v = (transpose(a), transpose(right), transpose(left)) if flipped else (a, left, right)
    a, u, v = [list(row) for row in a], [list(row) for row in u], [list(row) for row in v]
    rank = sum(1 for i in range(min(len(a), len(v))) if a[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = a[i][i], a[j][j]
            if y % x == 0:
                continue
            g = gcd(x, y)
            s = pow(x // g, -1, y // g)  # s*x = g mod y, so g = s*x + t*y
            t = (g - s * x) // y
            # [[s, t], [-y/g, x/g]] diag(x, y) [[1, -t*y/g], [1, s*x/g]] = diag(g, x*y/g).
            a[i][i], a[j][j] = g, x * y // g
            u[i], u[j] = ([s * e + t * f for e, f in zip(u[i], u[j])],
                          [(x * f - y * e) // g for e, f in zip(u[i], u[j])])
            for row in v:
                row[i], row[j] = row[i] + row[j], (s * x * row[j] - t * y * row[i]) // g
    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(map(tuple, v))


class LinearSolution(NamedTuple):
    """A particular solution together with a kernel basis."""

    particular: tuple
    kernel: tuple


def solve_linear(a: Sequence[Sequence], b: Sequence, mode: str = "rational") -> Optional[LinearSolution]:
    """Solve ``a @ x = b`` exactly.

    In ``rational`` mode returns a particular rational solution and a basis of
    the rational kernel, or ``None`` when inconsistent.  In ``integral`` mode
    returns an integer particular solution and a basis of the full integer
    kernel lattice (read off ``_lattice_block``), or ``None`` when no integer
    solution exists.
    """
    if mode not in ("rational", "integral"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} rows vs {len(b)} right-hand sides")
    if not a:
        raise ValueError("empty system has unknown width")
    cols = len(a[0])

    if mode == "rational":
        work = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)], cols + 1)
        pivots = _eliminate(work, cols)
        if any(row[cols] for row in work[len(pivots):]):
            return None  # a zero row with a nonzero right-hand side: inconsistent
        particular = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            particular[p] = Fraction(work[r][cols], work[r][p])
        return LinearSolution(tuple(particular), _kernel_of(work, pivots, cols))

    # Integral mode: clear denominators row by row, then read the lattice block.
    scaled = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)], cols + 1)
    d, e, relations, kernel = _lattice_block([row[:cols] for row in scaled])
    rhs = [row[cols] for row in scaled]
    x = mat_vec(e, rhs)
    if any(dot(row, rhs) for row in relations) or any(v % d for v in x):
        return None
    particular = tuple([v // d for v in x])
    if any(dot(row[:cols], particular) != row[cols] for row in scaled):
        raise InvariantError("hermite form is not A @ U: its solution breaks a row of A")
    return LinearSolution(particular, kernel)


def _lattice_block(a: Sequence[Sequence[int]]) -> tuple:
    """``(d, E, relations, kernel)`` of a nonempty integer matrix A (m x n).

    A E A = d A with d > 0 dividing every entry of E A; the primitive
    relations are a basis of {r : r A = 0}, the kernel one of the integer
    lattice {x : A x = 0}.  So A x = b is solvable iff every relation
    vanishes on b, and then E b / d solves it, integrally if anything does.
    One ``_eliminate`` of [A | I] ends with pivot rows (d e_i | W_i), then
    rows (0 | R_j).  At full column rank E = W, so E A = d I.  Otherwise the
    nonzero columns H' of the Hermite form H = A U are a basis of A Z^n, the
    same elimination of [H' | I] gives W H' = d I and the relations, U's
    other columns are the kernel, and E = U' W, U' the matching columns:
    E b = d U' y for H' y = b, and U' y is integral iff y is.
    """
    m, n = len(a), len(a[0])
    work = [list(row) + list(e) for row, e in zip(a, identity_matrix(m))]
    rank = len(_eliminate(work, n))
    u = kernel = ()
    if rank < n:
        h, u = hermite_normal_form(a)
        kernel = tuple(zip(*u))[rank:]
        work = [list(row[:rank]) + list(e) for row, e in zip(h, identity_matrix(m))]
        _eliminate(work, rank)
    w = tuple(tuple(row[rank:]) for row in work[:rank])
    e = tuple(tuple(sum(x * v[j] for x, v in zip(row, w)) for j in range(m)) for row in u) if u else w
    return work[0][0] if rank else 1, e, tuple(primitive(row[rank:]) for row in work[rank:]), kernel


# ---------------------------------------------------------------------------
# Polyhedral cones and strict feasibility via the double-description method


def _double_description(n: int, equalities, inequalities, start=None) -> tuple[list, list, list]:
    """Lineality basis, extreme rays and zero sets of {e.x = 0, a.x >= 0} in Q^n.

    The cone is the lineality span plus the cone on the rays, and every
    returned vector is primitive.  The zero set of a ray is a bitmask over
    ``inequalities``: bit j is set iff the j-th inequality vanishes on it.

    The constraints are added one at a time (equalities first) to the
    whole space, which is all lineality (Motzkin, Raiffa, Thompson & Thrall
    1953; Fukuda & Prodon, "Double description method revisited", 1996).
    A constraint that is nonzero on the lineality L pivots one vector l of
    L out: every other vector of L and every ray is shifted along l into the
    constraint's hyperplane, which keeps its values on the earlier
    constraints, and l becomes a new ray (inequality) or is dropped
    (equality).  The rays stay extreme, since all but l lie in the
    hyperplane.  Any other constraint splits the rays by sign, keeps the
    allowed side, and combines each adjacent (positive, negative) pair into
    the ray where their edge crosses the hyperplane.  That cut is one signed
    pass over the rays: it keeps the rays, with their new zero sets, and it
    gathers the (ray, zero set, value) triples of either side, which the
    pairs combine from directly.  While the lineality is still the identity,
    as on a cold start before the first pivot, a row's values on it are its
    own entries, so they are read, not computed.

    Why the combinatorial adjacency test suffices: modulo L the cone is
    pointed and the rays are exactly its extreme rays, one each.  The
    smallest face containing rays p and q is cut out by the constraints tight
    at p + q, which are those of Z(p) & Z(q), and its extreme rays are the
    rays r with Z(r) containing Z(p) & Z(q).  A pointed face with only two
    extreme rays is two-dimensional, so p and q span an edge iff no third ray
    passes that test.  The rays of the cut cone are the kept rays plus the
    crossings of edges, so the set stays minimal and the test stays valid
    for the next constraint.  Keeping L apart is what makes the argument
    hold, since a cone with a line has no extreme rays.  Rays p and q always
    pass the superset test themselves, so the scan stops at a third ray that
    passes, and every constraint's width is checked once on entry.  Holding
    more than ``_DD_RAY_LIMIT`` rays raises ``ResourceLimitError``.

    A cold start takes every (positive, negative) pair as an edge, with no
    scan, until a cut makes a crossing ray.  Every constraint before that
    pivoted, shifting L and the rays by multiples of l and then keeping l as
    a ray or dropping it, or cut with no crossing, keeping some of the rays,
    so they stay linearly independent: the cone modulo L is simplicial, and
    any two of its rays span a face.  Later cuts and warm starts scan.

    ``start = (rays, zeros, k)`` begins from a known pointed pair instead of
    the whole space: the extreme rays, one each, of a cone C cut out by the
    first k inequalities and by equalities that are not passed, with their
    zero sets over those k inequalities, and no lineality.  Only
    ``equalities`` and ``inequalities[k:]`` are then added, and the result
    describes C met with them.  The pair is what the run above holds once
    C's own constraints are in: L is zero, the rays are C's extreme rays,
    and since C is cut out by those constraints, the face of C through p + q
    is cut out by the rows tight at p + q, which is all the adjacency test
    needs.  The unpassed equalities hold on every ray and so on every
    combination of rays.  A start with no rays is the zero cone, and every
    cut of it stays zero.  Inequalities before k are neither re-added nor
    width-checked.
    """
    if start is None:
        lineality = list(identity_matrix(n))
        rays, zeros, known = [], [], 0
    else:
        lineality = []
        rays, zeros, known = list(start[0]), list(start[1]), start[2]
        if len(rays) > _DD_RAY_LIMIT:
            raise ResourceLimitError(f"double description passed its {_DD_RAY_LIMIT}-ray limit")
    done = (1 << known) - 1  # bitmask of the inequalities added so far
    scan = start is not None  # a cold start takes every pair as an edge until a cut crosses
    fresh = start is None  # the lineality is still the identity, so a row's values are its entries
    constraints = [(0, e) for e in equalities] + [(1 << j, a) for j, a in enumerate(inequalities) if j >= known]
    for _, a in constraints:
        if len(a) != n:
            raise ValueError(f"dimension mismatch: {len(a)} vs {n}")
    for bit, a in constraints:
        values = list(a) if fresh else [sum(map(mul, a, v)) for v in lineality]
        k = next(compress(range(len(values)), values), None)
        if k is not None:
            fresh = False
            pivot, scale = lineality.pop(k), values.pop(k)
            if scale < 0:
                pivot, scale = tuple([-x for x in pivot]), -scale
            # Each vector v becomes v - (value / scale) * pivot, made primitive.
            vectors = lineality + rays
            values += [sum(map(mul, a, r)) for r in rays]
            for j, value in enumerate(values):
                if value:
                    v = [scale * x - value * p for x, p in zip(vectors[j], pivot)]
                    g = gcd(*v)
                    vectors[j] = tuple(v) if g == 1 else tuple([x // g for x in v])
            lineality, rays = vectors[:len(lineality)], vectors[len(lineality):]
            if bit:
                zeros = [z | bit for z in zeros]
                rays.append(pivot)
                zeros.append(done)
                if len(rays) > _DD_RAY_LIMIT:
                    raise ResourceLimitError(f"double description passed its {_DD_RAY_LIMIT}-ray limit")
        else:
            kept_rays, kept_zeros, positive, negative = [], [], [], []
            for r, z in zip(rays, zeros):
                v = sum(map(mul, a, r))
                if v > 0:
                    if bit:
                        kept_rays.append(r)
                        kept_zeros.append(z)
                    positive.append((r, z, v))
                elif v:
                    negative.append((r, z, v))
                else:
                    kept_rays.append(r)
                    kept_zeros.append(z | bit)
            for rp, zp, vp in positive:
                for rq, zq, vq in negative:
                    common = zp & zq
                    passes = 0
                    for z in zeros if scan else ():
                        if z & common == common:
                            passes += 1
                            if passes == 3:
                                break
                    else:
                        edge = [vp * x - vq * y for x, y in zip(rq, rp)]
                        g = gcd(*edge)
                        kept_rays.append(tuple(edge) if g == 1 else tuple([x // g for x in edge]))
                        kept_zeros.append(common | bit)
                        if len(kept_rays) > _DD_RAY_LIMIT:
                            raise ResourceLimitError(f"double description passed its {_DD_RAY_LIMIT}-ray limit")
            rays, zeros = kept_rays, kept_zeros
            scan = scan or bool(positive and negative)
        done |= bit
    return lineality, rays, zeros


class _StrictSystem(NamedTuple):
    equalities: tuple
    strict_inequalities: tuple
    dim: int


class StrictSystem(_StrictSystem):
    """A homogeneous system: equality rows ``= 0`` and strict rows ``> 0``,
    each kept as a tuple of tuples."""

    __slots__ = ()

    def __new__(cls, equalities: Sequence[Sequence], strict_inequalities: Sequence[Sequence], dim: int):
        equalities, strict_inequalities = tuple(map(tuple, equalities)), tuple(map(tuple, strict_inequalities))
        for row in equalities + strict_inequalities:
            if len(row) != dim:
                raise ValueError(f"row of length {len(row)} in a system of dimension {dim}")
        return super().__new__(cls, equalities, strict_inequalities, dim)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: Optional[LatticeVector]
    rays: tuple = ()  # the extreme rays whose sum is the witness; () when infeasible

    def __bool__(self) -> bool:
        return self.feasible


def strict_feasible(system: StrictSystem) -> FeasibilityResult:
    """Decide ``equalities = 0`` and ``strict rows > 0`` exactly.

    With denominators cleared row by row, ``_double_description`` gives the
    cone {equalities = 0, strict rows >= 0} as its lineality space plus the
    cone on its extreme rays.  Every row is >= 0 on the cone and 0 on its
    lineality, so a strict row that vanishes on every extreme ray vanishes on
    the whole cone: the system is infeasible exactly when some strict row is
    in every ray's zero set.  Otherwise each strict row is positive on some
    extreme ray and nonnegative on the others, so the sum of the extreme rays
    is an integral witness.  It is re-checked against every row, in
    integers, and returned with the rays, which projectivity scales first.
    """
    equalities = _integer_rows(system.equalities, system.dim)
    stricts = _integer_rows(system.strict_inequalities, system.dim)
    _, rays, zeros = _double_description(system.dim, equalities, stricts)
    if reduce(and_, zeros, (1 << len(stricts)) - 1):
        return FeasibilityResult(False, None)
    witness = tuple(sum(r[i] for r in rays) for i in range(system.dim))
    if any(dot(row, witness) for row in equalities) or any(dot(row, witness) <= 0 for row in stricts):
        raise InvariantError("strict feasibility witness violates its system")
    return FeasibilityResult(True, witness, tuple(rays))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups (for divisor class computations)


class _FGAbelianGroup(NamedTuple):
    rank: int
    invariant_factors: tuple[int, ...] = ()


class FGAbelianGroup(_FGAbelianGroup):
    """Rank plus invariant factors ``d_1 | d_2 | ...`` (all >= 2), kept as a tuple."""

    __slots__ = ()

    def __new__(cls, rank: int, invariant_factors: Sequence[int] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        factors = tuple(invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, rank, factors)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel_group(m: Sequence[Sequence[int]], target_rank: int) -> FGAbelianGroup:
    """The group ``Z^target_rank / column-lattice(m)`` via Smith normal form."""
    if not m or not m[0]:
        return FGAbelianGroup(target_rank)
    s, _, _ = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    nonzero = [d for d in diag if d != 0]
    return FGAbelianGroup(target_rank - len(nonzero), tuple(d for d in nonzero if d >= 2))
