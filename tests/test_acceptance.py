"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Every assertion is exact (no tolerances anywhere); the stated
runtime budgets are asserted per instance.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oracles import (
    brute_force_integral_solutions,
    det_bareiss,
    feasible_by_vertex_enumeration,
    gcd_of_minors,
)
from toricfan.cone import Cone
from toricfan.divisor import (
    cartier_data,
    cartier_index,
    chern_growth,
    count_lattice_points,
    divisor_polytope,
    is_ample,
    is_projective,
    picard_group,
    polytope_degree,
)
from toricfan.egyptian import PyramidalKind, classify_pyramidal, egyptian_report, small_modification, verify_modification
from toricfan.exactlin import StrictSystem, mat_vec, smith_normal_form, solve_linear, strict_feasible
from toricfan.families import projective_space_fan, verify_yu_combinatorics
from toricfan.fan import WallCurveKind

GRID_N = (3, 4, 5)
GRID_U = (1, 2, 3)

# Cartier index of the distinguished prime divisor on the modified fan,
# computed once by this implementation and frozen as a regression value.
MODIFIED_INDEX = {(n, u): 1 for n in GRID_N for u in GRID_U}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def unit_divisor(fan, ray):
    return [1 if i == ray else 0 for i in range(len(fan.rays))]


def test_criterion_1_trivial_picard(yu_grid):
    with criterion(1, "Pic(Y_u) = 0 for u > 1 over the (n,u) grid"):
        for n in GRID_N:
            for u in (2, 3):
                fan = yu_grid(n, u).fan
                start = time.perf_counter()
                group = picard_group(fan)
                elapsed = time.perf_counter() - start
                assert group.rank == 0 and group.invariant_factors == (), (n, u, group)
                assert elapsed < 1.0, f"picard_group({n},{u}) took {elapsed:.2f}s"


def test_criterion_2_projectivity(yu_grid):
    with criterion(2, "Y_1 projective with an ample integral witness; Y_u infeasible for u > 1"):
        for n in GRID_N:
            fan = yu_grid(n, 1).fan
            start = time.perf_counter()
            result = is_projective(fan)
            elapsed = time.perf_counter() - start
            assert result.feasible, (n, 1)
            assert all(isinstance(a, int) for a in result.witness_divisor)
            assert is_ample(fan, result.witness_divisor)
            assert elapsed < 2.0, f"is_projective({n},1) took {elapsed:.2f}s"
            for u in (2, 3):
                fan = yu_grid(n, u).fan
                start = time.perf_counter()
                result = is_projective(fan)
                elapsed = time.perf_counter() - start
                assert not result.feasible, (n, u)
                assert elapsed < 2.0, f"is_projective({n},{u}) took {elapsed:.2f}s"


def test_criterion_3_egyptian_and_quotient(yu_grid):
    with criterion(3, "ray e in Egyptian position and quotient fan unimodular to P^(n-1)"):
        for n in GRID_N:
            standard = projective_space_fan(n - 1)
            for u in GRID_U:
                fan = yu_grid(n, u).fan
                start = time.perf_counter()
                report = egyptian_report(fan, 0)
                quotient = fan.quotient(0)
                iso = quotient.isomorphism(standard)
                elapsed = time.perf_counter() - start
                assert report.verdict, (n, u)
                assert iso is not None, (n, u)
                assert abs(det_bareiss(iso.matrix)) == 1
                assert elapsed < 2.0, f"egyptian+iso({n},{u}) took {elapsed:.2f}s"


def test_criterion_4_small_modification(yu_grid):
    with criterion(4, "small modification: complete, 2n + C(n,2) cones, n projective walls, verified"):
        for n in GRID_N:
            for u in GRID_U:
                fan = yu_grid(n, u).fan
                start = time.perf_counter()
                result = small_modification(fan, 0)
                checks = verify_modification(result)
                elapsed = time.perf_counter() - start
                expected_cones = 2 * n + n * (n - 1) // 2
                assert result.fan.is_complete(), (n, u)
                assert len(result.fan.max_cones) == expected_cones, (n, u)
                assert len(result.exceptional_walls) == n, (n, u)
                assert checks.passed, (n, u, checks.failures)
                for _, kind, ok in checks.wall_curves:
                    assert ok and kind is WallCurveKind.PROJECTIVE
                assert all(ok for _, ok in checks.update_maximal)
                assert checks.quotient_preserved
                assert elapsed < 2.0, f"modification({n},{u}) took {elapsed:.2f}s"


def test_criterion_5_q_cartier_on_modified_fan(yu_grid):
    with criterion(5, "divisor of e is Q-Cartier on the modified fan with the frozen index"):
        for n in GRID_N:
            for u in GRID_U:
                fan = yu_grid(n, u).fan
                modified = small_modification(fan, 0).fan
                divisor = unit_divisor(modified, 0)
                assert cartier_data(modified, divisor, mode="rational") is not None, (n, u)
                index = cartier_index(modified, divisor)
                assert index == MODIFIED_INDEX[(n, u)], (n, u, index)
                # while here: the divisor is not Q-Cartier before modification
                assert cartier_data(fan, unit_divisor(fan, 0), mode="rational") is None, (n, u)


def test_criterion_6_random_3d_cones():
    with criterion(6, "500 seeded random 3-dimensional cones classify LowDim or Pyramidal"):
        rng = random.Random(0x3D5EED)
        start = time.perf_counter()
        built = 0
        while built < 500:
            sample = {
                (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(11)
            }
            sample.discard((0, 0, 0))
            try:
                cone = Cone.from_rays(3, sorted(sample))
            except ValueError:
                continue
            if cone.dim != 3 or not 4 <= len(cone.rays) <= 8:
                continue
            built += 1
            for ray in cone.rays:
                cls = classify_pyramidal(cone, ray)
                assert cls.kind is not PyramidalKind.NOT_PYRAMIDAL, (cone.rays, ray)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"500 cones took {elapsed:.2f}s"


def test_criterion_7_growth_leading_term(yu_grid):
    with criterion(7, "degree 1 from the quotient counting polynomial and the growth statement"):
        fan = yu_grid(3, 2).fan
        quotient = fan.quotient(0)
        polytope = divisor_polytope(quotient, unit_divisor(quotient, 0))
        counts = [count_lattice_points(polytope, t) for t in range(3)]
        assert counts == [1, 3, 6]  # binomial(t+2, 2) at t = 0, 1, 2
        ehrhart, degree = polytope_degree(polytope, 2)
        assert ehrhart == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        assert degree == 1
        growth = chern_growth(3, degree)
        assert growth.statement == "c₃(E_t) = t² + O(t)"
        assert "not determined" in growth.note


def test_criterion_8a_strict_feasibility_oracle():
    with criterion(8, "oracle suites: feasibility, integral solve, invariant factors, round trip"):
        rng = random.Random(0x8A)
        for _ in range(200):
            dim = rng.randint(1, 4)
            n_eq = rng.randint(0, 2)
            n_strict = rng.randint(1, 8 - n_eq)
            eqs = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_eq))
            stricts = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_strict))
            result = strict_feasible(StrictSystem(eqs, stricts, dim))
            assert result.feasible == feasible_by_vertex_enumeration(dim, eqs, stricts)

        rng = random.Random(0x8B)
        for case in range(200):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            if case % 2 == 0:
                x0 = [rng.randint(-10, 10) for _ in range(cols)]
                b = list(mat_vec(a, x0))
            else:
                b = [rng.randint(-6, 6) for _ in range(rows)]
            sol = solve_linear(a, b, mode="integral")
            brute = brute_force_integral_solutions(a, b)
            if brute:
                assert sol is not None
            if sol is None:
                assert not brute
            else:
                assert mat_vec(a, sol.particular) == tuple(b)
                for k in sol.kernel:
                    assert all(v == 0 for v in mat_vec(a, k))

        rng = random.Random(0x8C)
        for _ in range(100):
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
            s, _, _ = smith_normal_form(m)
            product = 1
            for k in range(1, 5):
                product *= s[k - 1][k - 1]
                assert abs(product) == gcd_of_minors(m, k)

        fixtures = [
            Cone.from_rays(2, [(1, 0), (0, 1)]),
            Cone.from_rays(2, [(1, 0), (1, 2)]),
            Cone.from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
            Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            Cone.from_rays(3, [(1, 0, 0), (0, 1, 0)]),
            Cone.from_rays(3, [(0, 0, 1)]),
            Cone.from_rays(4, [(1, 1, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1)]),
            Cone.from_rays(4, [(1, 1, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1), (0, 3, -1, 1)]),
        ]
        for cone in fixtures:
            back = Cone.from_inequalities(cone.ambient_rank, cone.span_equations, cone.facet_normals)
            assert back == cone


def test_criterion_9_family_combinatorics(yu_grid):
    with criterion(9, "circuit relations, facet lists, and intersection tables over the grid"):
        for n in GRID_N:
            for u in GRID_U:
                report = verify_yu_combinatorics(yu_grid(n, u))
                assert report.passed, (n, u, report.failures)
