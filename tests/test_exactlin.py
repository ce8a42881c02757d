"""Exact linear algebra: normal forms, solving, and strict feasibility."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    brute_force_integral_solutions,
    det_bareiss,
    det_cofactor,
    feasible_by_vertex_enumeration,
    gcd_of_minors,
    integral_solvable,
    scan_integral_solutions,
    smith_by_pivoting,
)
from toricfan import exactlin
from toricfan.errors import InvariantError, ResourceLimitError
from toricfan.exactlin import (
    FGAbelianGroup,
    StrictSystem,
    cokernel_group,
    dot,
    hermite_normal_form,
    identity_matrix,
    mat_mul,
    mat_vec,
    matrix_rank,
    primitive,
    rational_kernel,
    smith_normal_form,
    solve_linear,
    strict_feasible,
)


def hnf_shape_ok(h) -> bool:
    """Column echelon: pivots positive on strictly increasing rows, entries
    right of a pivot zero, entries left of a pivot reduced mod the pivot."""
    rows = len(h)
    cols = len(h[0]) if rows else 0
    pivots = []
    for j in range(cols):
        rows_nonzero = [i for i in range(rows) if h[i][j] != 0]
        if not rows_nonzero:
            if any(any(h[i][jj] != 0 for i in range(rows)) for jj in range(j + 1, cols)):
                return False  # zero column before a nonzero one
            break
        pivots.append((rows_nonzero[0], j))
    prev_row = -1
    for r, j in pivots:
        if r <= prev_row:
            return False
        prev_row = r
        p = h[r][j]
        if p <= 0:
            return False
        if any(h[r][jj] != 0 for jj in range(j + 1, cols)):
            return False
        if any(not 0 <= h[r][jj] < p for jj in range(j)):
            return False
    return True


def test_bareiss_oracle_matches_cofactor_expansion():
    # The oracles' two determinants on random integer matrices up to 5 x 5,
    # a third of them made singular by repeating a row, and with zero
    # leading entries that force a row swap.
    rng = random.Random(0xBA4E155)
    swaps = singular = 0
    for case in range(300):
        size = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        if size > 1 and case % 3 == 0:
            m[-1] = list(m[0])
        m[0][0] *= case % 2
        swaps += m[0][0] == 0 and size > 1
        d = det_bareiss(m)
        singular += d == 0
        assert d == det_cofactor(m)
    assert swaps > 50 and singular > 80


def test_integral_solutions_oracle_matches_full_scan():
    # The oracle that solves for the last coordinate against the plain box
    # scan, on seeded small systems: a zero last column (the fallback),
    # planted solutions, and rational rows.
    rng = random.Random(0x5CA7)
    kinds = set()
    for case in range(150):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if case % 5 == 0:
            for row in a:
                row[-1] = 0
        if case % 2:  # planted: an integer solution exists
            b = list(mat_vec(a, [rng.randint(-4, 4) for _ in range(cols)]))
        else:
            b = [rng.randint(-6, 6) for _ in range(rows)]
        if case % 7 == 3:
            a = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in a]
        fast = brute_force_integral_solutions(a, b, box=4)
        assert fast == scan_integral_solutions(a, b, box=4)
        kinds.add((bool(fast), any(row[-1] for row in a)))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_smith_solvability_oracle_matches_the_scan_and_the_library():
    # The Cartier-index oracle's integral solvability, read off its own Smith
    # form, against the box scan and the library's integral solve, on seeded
    # systems of every rank, a third of them with a planted solution.
    rng = random.Random(0x5E17)
    seen = set()
    for case in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if case % 3 == 0:
            b = list(mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)]))
        else:
            b = [rng.randint(-6, 6) for _ in range(rows)]
        solvable = integral_solvable(a, b)
        if brute_force_integral_solutions(a, b, box=4):
            assert solvable, (a, b)
        assert solvable == (solve_linear(a, b, mode="integral") is not None), (a, b)
        seen.add((solvable, matrix_rank(a) < min(rows, cols)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form(identity_matrix(3))
        assert h == identity_matrix(3)
        assert u == identity_matrix(3)

    def test_zero(self):
        z = ((0, 0), (0, 0))
        h, u = hermite_normal_form(z)
        assert h == z
        assert u == identity_matrix(2)

    def test_det_invariance(self):
        m = ((2, 4), (1, 3))
        h, u = hermite_normal_form(m)
        assert abs(det_bareiss(h)) == 2
        assert abs(det_bareiss(u)) == 1
        assert mat_mul(m, u) == h
        assert hnf_shape_ok(h)

    def test_random_shapes(self):
        rng = random.Random(11)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
            h, u = hermite_normal_form(m)
            assert abs(det_bareiss(u)) == 1
            assert mat_mul(m, u) == h
            assert hnf_shape_ok(h)


class TestSmith:
    def test_identity(self):
        s, u, v = smith_normal_form(identity_matrix(2))
        assert s == identity_matrix(2)

    def test_forced_gcd(self):
        s, u, v = smith_normal_form(((2, 0), (0, 3)))
        assert s == ((1, 0), (0, 6))
        assert mat_mul(mat_mul(u, ((2, 0), (0, 3))), v) == s

    def test_diag_2_2(self):
        s, _, _ = smith_normal_form(((2, 0), (0, 2)))
        assert s == ((2, 0), (0, 2))

    def test_random_decomposition(self):
        rng = random.Random(23)
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = tuple(tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
            s, u, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == s
            assert abs(det_bareiss(u)) == abs(det_bareiss(v)) == 1
            diag = [s[i][i] for i in range(min(rows, cols))]
            for i in range(len(s)):
                for j in range(len(s[0])):
                    if i != j:
                        assert s[i][j] == 0
            nonzero = [d for d in diag if d]
            assert all(d > 0 for d in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_minors_oracle_small(self):
        rng = random.Random(31)
        for _ in range(30):
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
            s, _, _ = smith_normal_form(m)
            diag = [s[i][i] for i in range(4)]
            prod = 1
            for k in range(1, 5):
                prod *= diag[k - 1]
                assert abs(prod) == gcd_of_minors(m, k)


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, -4, 6)) == (1, -2, 3)
        assert primitive((0, 0, 1)) == (0, 0, 1)

    def test_zero_rejected(self):
        for v in ((0, 0, 0), [0, 0], ()):
            with pytest.raises(ValueError, match="no primitive representative"):
                primitive(v)

    def test_entries_are_ints(self):
        # bool is an int subclass with gcd 1; the result must still hold plain ints.
        p = primitive((True, 0))
        assert p == (1, 0) and all(type(x) is int for x in p)

    def test_idempotent_and_direction_preserving(self):
        rng = random.Random(5)
        for _ in range(200):
            v = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 4)))
            if all(x == 0 for x in v):
                continue
            p = primitive(v)
            assert primitive(p) == p
            g = next(x // px for x, px in zip(v, p) if px != 0)
            assert g > 0
            assert tuple(g * x for x in p) == v


class TestSolveLinear:
    def test_identity_system(self):
        sol = solve_linear(identity_matrix(2), (1, 2))
        assert sol.particular == (1, 2)
        assert sol.kernel == ()

    def test_kernel_line(self):
        sol = solve_linear([[1, 1]], [0])
        assert sol.particular == (0, 0)
        assert len(sol.kernel) == 1
        assert dot(sol.kernel[0], (1, 1)) == 0

    def test_no_integer_solution(self):
        assert solve_linear([[2]], [3], mode="integral") is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_linear([[1, 0]], [1, 2])

    def test_integral_planted_solutions(self):
        rng = random.Random(47)
        for _ in range(60):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            x0 = [rng.randint(-10, 10) for _ in range(cols)]
            b = mat_vec(a, x0)
            sol = solve_linear(a, b, mode="integral")
            assert sol is not None
            assert mat_vec(a, sol.particular) == tuple(b)
            for k in sol.kernel:
                assert all(v == 0 for v in mat_vec(a, k))

    def test_integral_brute_force_agreement_small(self):
        # Up to 4 rows on at most 3 columns, so some rows carry no Hermite
        # pivot and are pure consistency checks; every fourth system has
        # Fraction entries, which are cleared row by row.
        rng = random.Random(53)
        seen = set()
        for t in range(80):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 3)
            a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            if t % 2:  # planted: an integer solution exists
                b = list(mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)]))
            else:
                b = [rng.randint(-6, 6) for _ in range(rows)]
            if t % 4 == 3:
                a = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in a]
                b = [Fraction(x, rng.randint(1, 3)) for x in b]
            sol = solve_linear(a, b, mode="integral")
            brute = brute_force_integral_solutions(a, b)
            if brute:
                assert sol is not None
            if sol is not None:
                assert mat_vec(a, sol.particular) == tuple(b)
                assert all(v == 0 for k in sol.kernel for v in mat_vec(a, k))
                if t % 4 != 3:
                    assert sol.kernel == solve_linear(a, [0] * len(a), mode="integral").kernel
            else:
                assert not brute
            seen.add((sol is not None, rows > matrix_rank(a), t % 4 == 3))
        # Solved and unsolvable, with and without rows off the pivots, both entry kinds.
        assert {(s, r) for s, r, _ in seen} == {(True, True), (True, False), (False, True), (False, False)}
        assert {f for _, _, f in seen} == {True, False}

    def test_hermite_form_mismatch_is_an_invariant_error(self, monkeypatch):
        # A rank-deficient system reads the Hermite form.  H = (1 0) is
        # echelon, but U = diag(2, 1) makes H != A @ U: the solution read
        # off H breaks its own pivot row 0 when checked against A.
        monkeypatch.setattr(exactlin, "hermite_normal_form", lambda m: (((1, 0),), ((2, 0), (0, 1))))
        with pytest.raises(InvariantError, match="hermite"):
            solve_linear([[1, 0]], [1], mode="integral")


class TestStrictFeasible:
    def test_single_variable(self):
        res = strict_feasible(StrictSystem((), ((1,),), 1))
        assert res.feasible and res.witness[0] > 0

    def test_contradiction(self):
        res = strict_feasible(StrictSystem((), ((1,), (-1,)), 1))
        assert not res.feasible

    def test_p2_convexity_system(self):
        # Characters of the three maximal cones of the plane fan, 2 unknowns
        # each: agreement on shared rays, strict convexity across cones.
        rays = [(1, 0), (0, 1), (-1, -1)]
        cones = [(0, 1), (0, 2), (1, 2)]
        def block(ci, vec, sign=1):
            row = [0] * 6
            row[2 * ci:2 * ci + 2] = [sign * x for x in vec]
            return row
        equalities = []
        stricts = []
        for k, ray in enumerate(rays):
            containing = [ci for ci, mc in enumerate(cones) if k in mc]
            first = containing[0]
            for other in containing[1:]:
                equalities.append([a + b for a, b in zip(block(first, ray), block(other, ray, -1))])
        for ci, mc in enumerate(cones):
            for k, ray in enumerate(rays):
                if k in mc:
                    continue
                tau = next(c for c, m in enumerate(cones) if k in m)
                stricts.append([a + b for a, b in zip(block(ci, ray), block(tau, ray, -1))])
        system = StrictSystem(tuple(tuple(r) for r in equalities), tuple(tuple(r) for r in stricts), 6)

        # Independent witness: the standard degree-one characters, checked by
        # plain substitution before the solver is consulted.
        hand = (0, 0, 0, 1, 1, 0)
        for row in system.equalities:
            assert dot(row, hand) == 0
        for row in system.strict_inequalities:
            assert dot(row, hand) > 0

        res = strict_feasible(system)
        assert res.feasible
        for row in system.equalities:
            assert dot(row, res.witness) == 0
        for row in system.strict_inequalities:
            assert dot(row, res.witness) > 0

    def test_vertex_enumeration_agreement_small(self):
        # Up to three equalities, so full-rank equality blocks (an empty
        # kernel) occur; about one entry in five is a proper fraction.
        rng = random.Random(61)
        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(2, 3)) if rng.randint(0, 4) == 0 else rng.randint(-3, 3)
        for _ in range(120):
            dim = rng.randint(1, 3)
            n_eq = rng.randint(0, 3)
            n_strict = rng.randint(1, 8 - n_eq)
            eqs = tuple(tuple(entry() for _ in range(dim)) for _ in range(n_eq))
            stricts = tuple(tuple(entry() for _ in range(dim)) for _ in range(n_strict))
            res = strict_feasible(StrictSystem(eqs, stricts, dim))
            assert res.feasible == feasible_by_vertex_enumeration(dim, eqs, stricts)
            if res.feasible:
                assert all(dot(row, res.witness) == 0 for row in eqs)
                assert all(dot(row, res.witness) > 0 for row in stricts)

    def test_witness_is_the_sum_of_the_returned_rays(self):
        # Projectivity scales each returned ray before summing, so the rays
        # themselves must lie in the closed cone and add up to the witness.
        rng = random.Random(62)
        seen = set()
        for _ in range(120):
            dim = rng.randint(1, 4)
            n_eq = rng.randint(0, 2)
            eqs = tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n_eq))
            stricts = tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6)))
            res = strict_feasible(StrictSystem(eqs, stricts, dim))
            seen.add(res.feasible)
            if not res.feasible:
                assert res.rays == () and res.witness is None
                continue
            assert tuple(map(sum, zip(*res.rays))) == res.witness
            for ray in res.rays:
                assert all(dot(row, ray) == 0 for row in eqs)
                assert all(dot(row, ray) >= 0 for row in stricts)
        assert seen == {True, False}

    @pytest.mark.parametrize("system", [
        StrictSystem((), ((1, 0), (0, 1)), 2),
        StrictSystem(((1, -1, 0),), ((1, 0, 0), (0, 0, 1)), 3),
    ])
    def test_witness_is_rechecked(self, monkeypatch, system):
        assert strict_feasible(system).feasible
        # One ray on which no strict row vanishes, but which breaks a strict row.
        monkeypatch.setattr(exactlin, "_double_description", lambda n, eqs, ineqs: ([], [(-1,) * n], [0]))
        with pytest.raises(InvariantError, match="witness violates"):
            strict_feasible(system)

    def test_witness_is_integral(self):
        system = StrictSystem(((Fraction(1, 2), Fraction(-1, 3), 0),), ((1, 0, 0), (0, 0, Fraction(2, 5))), 3)
        res = strict_feasible(system)
        assert res.feasible and all(type(x) is int for x in res.witness)

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            StrictSystem(((1, 0),), (), 1)

    def test_generator_rows_are_kept(self):
        # The length check reads the rows once; a stored generator would then be empty.
        system = StrictSystem((), (r for r in [(1, 0), (-1, 0)]), 2)
        assert system.strict_inequalities == ((1, 0), (-1, 0))
        assert not strict_feasible(system).feasible
        assert StrictSystem((r for r in [(1, -1)]), [(1, 0)], 2).equalities == ((1, -1),)

    def test_list_rows_are_kept_as_tuples(self):
        from_lists = StrictSystem([[1, -1, 0]], [[1, 0, 0], [0, 0, 1]], 3)
        from_tuples = StrictSystem(((1, -1, 0),), ((1, 0, 0), (0, 0, 1)), 3)
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert type(from_lists.equalities) is tuple and all(type(r) is tuple for r in from_lists.strict_inequalities)

    def test_replace_keeps_rows_as_tuples(self):
        system = StrictSystem((), ((1, 0),), 2)._replace(strict_inequalities=iter([[0, 1], [1, 1]]))
        expected = StrictSystem((), ((0, 1), (1, 1)), 2)
        assert system == expected and hash(system) == hash(expected)
        assert strict_feasible(system).feasible

    def test_row_limit_is_a_resource_limit(self, monkeypatch):
        system = StrictSystem((), ((1, 1), (1, -1), (-1, 2)), 2)
        assert strict_feasible(system).feasible
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 1)
        with pytest.raises(ResourceLimitError, match="1-ray limit") as info:
            strict_feasible(system)
        assert not isinstance(info.value, InvariantError)


class TestFGAbelianGroup:
    def test_trivial(self):
        g = FGAbelianGroup(0)
        assert g.is_trivial and str(g) == "0"

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        g = FGAbelianGroup(2, (2, 6))
        assert not g.is_trivial
        assert str(g) == "Z^2 + Z/2 + Z/6"

    def test_keeps_the_checked_tuple(self):
        g = FGAbelianGroup(0, [2, 4])
        assert g.invariant_factors == (2, 4) and type(g.invariant_factors) is tuple
        assert g == FGAbelianGroup(0, (2, 4))
        assert hash(g) == hash(FGAbelianGroup(0, (2, 4)))
        assert g._replace(invariant_factors=iter([3])).invariant_factors == (3,)

    def test_cokernel_of_no_columns_is_free(self):
        # No generators, so nothing is divided out: Z^r itself.
        assert cokernel_group([], 3) == FGAbelianGroup(3)
        assert cokernel_group([[], []], 2) == FGAbelianGroup(2)


# ---------------------------------------------------------------------------
# The fraction-free elimination behind rank, kernel and rational solving,
# against sympy (a dev-only oracle) and by exact properties.


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _seeded_matrices(seed: int, count: int):
    """Integer and Fraction matrices with zero rows, repeated rows, wide and
    tall shapes, and planted rank deficiency."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if t % 3 == 0:  # rank at most k: a product of thin factors
            k = rng.randint(1, min(rows, cols))
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)]
            m = [list(r) for r in mat_mul(left, right)]
        else:
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m.insert(rng.randint(0, len(m)), [0] * cols)
        if rng.random() < 0.3:
            m.append(list(rng.choice(m)))
        if t % 4 == 1:
            m = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in m]
        out.append(m)
    return out


def _rational(v) -> list[Fraction]:
    return [Fraction(int(x.p), int(x.q)) for x in v]


def _positive_multiple(k, v) -> bool:
    parallel = all(k[a] * v[b] == k[b] * v[a] for a in range(len(k)) for b in range(len(k)))
    return parallel and dot(k, v) > 0


def _check_kernel(m, kernel):
    assert len(kernel) == len(m[0]) - matrix_rank(m)
    for k in kernel:
        assert all(type(x) is int for x in k)
        assert primitive(k) == tuple(k)
        assert all(v == 0 for v in mat_vec(m, k))


def test_leading_zero_row_changes_only_its_own_bit():
    """A zero inequality cuts the cold start's empty ray set and crosses
    nothing, so the rays stay independent and the next cut still takes
    every pair as an edge; the run must match the one without the row, its
    zero sets shifted by the row's bit, which every ray has."""
    rng = random.Random(3602)
    crossed = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        eqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 8))]
        lineality, rays, zeros = exactlin._double_description(n, eqs, ineqs)
        got = exactlin._double_description(n, eqs, [(0,) * n] + ineqs)
        assert got == (lineality, rays, [z << 1 | 1 for z in zeros]), (n, eqs, ineqs)
        crossed += len(rays) > n - len(lineality)  # more rays than independent ones: some cut crossed
    assert crossed >= 50, crossed


class TestEliminationDifferential:
    def test_rank_and_kernel_match_sympy(self, sympy):
        for m in _seeded_matrices(71, 150):
            sm = sympy.Matrix(m)
            assert matrix_rank(m) == sm.rank()
            kernel = rational_kernel(m)
            null = sm.nullspace()
            assert len(kernel) == len(null)
            for k, v in zip(kernel, null):
                assert _positive_multiple(k, _rational(v))
            _check_kernel(m, kernel)

    def test_rank_of_a_large_random_matrix(self, sympy):
        # Without gcd reduction, entries double in length with every pivot.
        # The oracle is sympy's rank over QQ (Matrix.rank takes seconds here).
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(89)
        m = [[rng.randint(-9, 9) for _ in range(22)] for _ in range(22)]
        deficient = m[:-1] + [[x - 2 * y for x, y in zip(m[0], m[1])]]
        for matrix, rank in ((m, 22), (deficient, 21)):
            oracle = DomainMatrix.from_Matrix(sympy.Matrix(matrix)).convert_to(sympy.QQ).rank()
            assert matrix_rank(matrix) == oracle == rank

    def test_rational_solve_matches_sympy_rref(self, sympy):
        rng = random.Random(73)
        seen = set()
        for m in _seeded_matrices(79, 150):
            cols = len(m[0])
            if rng.random() < 0.5:  # consistent: b in the column space
                x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                b = list(mat_vec(m, x0))
            else:  # inconsistent whenever m is rank deficient
                b = [rng.randint(-3, 3) for _ in m]
            sol = solve_linear(m, b)
            reduced, pivots = sympy.Matrix(m).row_join(sympy.Matrix(b)).rref()
            if cols in pivots:
                assert sol is None
                seen.add("inconsistent")
                continue
            seen.add("solved")
            expected = [Fraction(0)] * cols
            for r, p in enumerate(pivots):
                expected[p] = _rational([reduced[r, cols]])[0]
            assert sol.particular == tuple(expected)
            assert mat_vec(m, sol.particular) == tuple(b)
            assert sol.kernel == rational_kernel(m)
        assert seen == {"inconsistent", "solved"}

    def test_shapes_and_degenerate_rows(self):
        assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert rational_kernel([[0, 0]]) == ((1, 0), (0, 1))
        assert rational_kernel([], 2) == ((1, 0), (0, 1))
        assert rational_kernel([[2, 4, 6], [1, 2, 3]]) == ((-2, 1, 0), (-3, 0, 1))
        assert rational_kernel([[Fraction(1, 2), Fraction(1, 3)]]) == ((-2, 3),)
        assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
        assert solve_linear([[0, 0]], [0]).particular == (0, 0)
        sol = solve_linear([[2, 0], [0, 3], [2, 3]], [1, 1, 2])
        assert sol.particular == (Fraction(1, 2), Fraction(1, 3)) and sol.kernel == ()
        # Ragged rows, and a kernel width the rows do not have, are refused on entry.
        for call in (lambda: rational_kernel([[1], [1, 2, 3]]),
                     lambda: matrix_rank([[1, 0, 0], [0, 1]]),
                     lambda: matrix_rank([[1, 2], [3]]),
                     lambda: rational_kernel([[1, 2]], 3),
                     lambda: solve_linear([[1, 2], [3]], [0, 0])):
            with pytest.raises(ValueError, match="ragged matrix"):
                call()


def test_elimination_properties(sympy):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entries = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))

    @st.composite
    def systems(draw):
        cols = draw(st.integers(1, 6))
        m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=6))
        x0 = draw(st.lists(entries, min_size=cols, max_size=cols))
        return m, x0

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(systems())
    def check(system):
        m, x0 = system
        kernel = rational_kernel(m)
        _check_kernel(m, kernel)
        for k, v in zip(kernel, sympy.Matrix(m).nullspace()):
            assert _positive_multiple(k, _rational(v))
        b = mat_vec(m, x0)
        sol = solve_linear(m, b)
        assert sol is not None and mat_vec(m, sol.particular) == b
        assert sol.kernel == kernel

    check()


class TestBareissElimination:
    """``_eliminate`` is fraction-free Gauss-Jordan with exact division by the
    previous pivot: every pivot ends equal to one minor d > 0, so an identity
    block beside a square M ends as d * M^-1 and the last pivot is |det M|.
    Checked against cofactor expansion, not ``det_bareiss``, which is the
    same algorithm."""

    @staticmethod
    def square(rng, n):
        if rng.random() < 0.3:  # singular: a product through a thinner middle
            k = rng.randint(0, n - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            return [list(row) for row in mat_mul(left, right)] if k else [[0] * n for _ in range(n)]
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

    def test_abs_det_matches_cofactor_expansion(self):
        rng = random.Random(3701)
        singular = 0
        for n in range(1, 6):
            for _ in range(80):
                m = self.square(rng, n)
                det = det_cofactor(m)
                assert exactlin._abs_det(m) == abs(det), m
                singular += det == 0
        assert singular >= 100, singular

    def test_identity_block_ends_as_the_adjugate(self):
        rng = random.Random(3702)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 5)
            m = self.square(rng, n)
            det = det_cofactor(m)
            if not det:
                continue
            work = [row + list(e) for row, e in zip(m, identity_matrix(n))]
            assert exactlin._eliminate(work, n) == list(range(n))
            d = abs(det)
            assert [row[:n] for row in work] == [[d * x for x in e] for e in identity_matrix(n)]
            block = [row[n:] for row in work]
            assert mat_mul(m, block) == tuple(tuple(d * x for x in e) for e in identity_matrix(n))
            # d * M^-1 = (d / det) * adj(M), adj(M)[i][j] the (j, i) cofactor.
            for i in range(n):
                for j in range(n):
                    minor = [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(m) if r != j]
                    cofactor = (-1) ** (i + j) * (det_cofactor(minor) if minor else 1)
                    assert block[i][j] * det == d * cofactor
            checked += 1

    def test_pivots_are_one_minor_on_any_shape(self):
        checked = deficient = 0
        for m in _seeded_matrices(3703, 150):
            cols = len(m[0])
            work = exactlin._integer_rows(m, cols)
            rows = [list(row) for row in work]
            pivots = exactlin._eliminate(work, cols)
            r = len(pivots)
            assert r == matrix_rank(m)
            if not r:
                assert all(not any(row) for row in rows)
                continue
            d = work[0][pivots[0]]
            assert d > 0
            for i, p in enumerate(pivots):
                assert [row[p] for row in work] == [d if k == i else 0 for k in range(len(work))]
            assert all(not any(row[:cols]) for row in work[r:])
            # d is |an r-minor| of the input on the pivot columns, and no (r+1)-minor is nonzero.
            minors = {abs(det_cofactor([[row[p] for p in pivots] for row in chosen]))
                      for chosen in combinations(rows, r)}
            assert d in minors
            assert not any(det_cofactor([[row[c] for c in cs] for row in chosen])
                           for chosen in combinations(rows, r + 1) for cs in combinations(range(cols), r + 1))
            checked += 1
            deficient += r < min(len(rows), cols)
        assert checked >= 120 and deficient >= 40, (checked, deficient)


def test_strict_feasible_equality_pivots():
    """Equalities pivot the lineality in ``_double_description``: the verdict
    must match the system rewritten in a basis K of the equalities' kernel,
    with no equalities, and must not move when rows are scaled by positive
    integers."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entries = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)))
    seen = set()

    @st.composite
    def systems(draw):
        dim = draw(st.integers(1, 6))
        row = st.lists(entries, min_size=dim, max_size=dim)
        eqs = draw(st.lists(row, min_size=1, max_size=dim))
        stricts = draw(st.lists(row, max_size=dim + 1))
        scales = draw(st.lists(st.integers(1, 5), min_size=len(eqs) + len(stricts),
                               max_size=len(eqs) + len(stricts)))
        return dim, eqs, stricts, scales

    @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hyp.given(systems())
    def check(case):
        dim, eqs, stricts, scales = case
        verdict = strict_feasible(StrictSystem(tuple(eqs), tuple(stricts), dim)).feasible
        kernel = rational_kernel(eqs)
        reduced = tuple(tuple(dot(row, k) for k in kernel) for row in stricts)
        assert strict_feasible(StrictSystem((), reduced, len(kernel))).feasible == verdict
        scaled = [[c * x for x in row] for c, row in zip(scales, eqs + stricts)]
        rescaled = StrictSystem(tuple(scaled[:len(eqs)]), tuple(scaled[len(eqs):]), dim)
        assert strict_feasible(rescaled).feasible == verdict
        seen.add((verdict, len(kernel) < dim))

    check()
    # Both verdicts, each with equalities that cut the space down.
    assert {(True, True), (False, True)} <= seen


# ---------------------------------------------------------------------------
# The lattice kernels (Hermite and Smith forms, integral kernels) by exact
# properties, with sympy as a dev-only oracle for determinants and ranks.


def _integer_matrices(st, max_rows: int = 5, max_cols: int = 7):
    """Small integer matrices, dense or with a planted rank deficiency."""

    @st.composite
    def matrices(draw):
        rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
        entries = st.integers(-6, 6)

        def block(r, c):
            return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

        if draw(st.booleans()):  # rank at most k: a product of thin factors
            k = draw(st.integers(1, min(rows, cols)))
            return mat_mul(block(rows, k), block(k, cols))
        return tuple(tuple(row) for row in block(rows, cols))

    return matrices()


def _unimodular(sympy, m) -> bool:
    return sympy.Matrix(m).det() in (1, -1)


def test_hermite_properties(sympy):
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(_integer_matrices(hyp.strategies))
    def check(m):
        h, u = hermite_normal_form(m)
        assert mat_mul(m, u) == h
        assert _unimodular(sympy, u)
        assert hnf_shape_ok(h)

    check()


def test_smith_properties(sympy):
    hyp = pytest.importorskip("hypothesis")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(_integer_matrices(hyp.strategies))
    def check(m):
        s, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert _unimodular(sympy, u) and _unimodular(sympy, v)
        rows, cols = len(m), len(m[0])
        assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        diag = [s[i][i] for i in range(min(rows, cols))]
        rank = sympy.Matrix(m).rank()
        assert all(d > 0 for d in diag[:rank]) and not any(diag[rank:])
        assert all(b % a == 0 for a, b in zip(diag[:rank], diag[1:rank]))
        expected = normalforms.invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        assert diag[:rank] == sorted(abs(int(d)) for d in expected if d)

    check()


SMITH_EDGE_SHAPES = ([], [[0, 0], [0, 0]], [[0], [5]], [[4, 6]], [[0, 4], [6, 0]], [[2, 0, 0], [0, 0, 0], [0, 0, 3]])


def _check_smith_against_pivoting(m):
    s, u, v = smith_normal_form(m)
    reference, _, _ = smith_by_pivoting(m)
    assert s == reference, m
    if m:
        assert mat_mul(mat_mul(u, m), v) == s, m
        assert abs(det_bareiss(u)) == abs(det_bareiss(v)) == 1, m
    else:
        assert s == u == v == ()


@pytest.mark.parametrize("m", SMITH_EDGE_SHAPES)
def test_smith_matches_pivoting_on_edge_shapes(m):
    _check_smith_against_pivoting(m)


def test_smith_matches_pivoting():
    """The alternating Hermite forms against the pivot-and-restart loop they replaced."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(_integer_matrices(hyp.strategies))
    def check(m):
        _check_smith_against_pivoting(m)

    check()


def test_integral_kernel_properties(sympy):
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(_integer_matrices(hyp.strategies))
    def check(m):
        kernel = solve_linear(m, [0] * len(m), mode="integral").kernel
        assert len(kernel) == len(m[0]) - sympy.Matrix(m).rank()
        for k in kernel:
            assert all(x == 0 for x in mat_vec(m, k))
        if kernel:  # saturated: the kernel lattice is all of ker(m) in Z^cols
            assert gcd_of_minors(kernel, len(kernel)) == 1

    check()
