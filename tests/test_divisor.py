"""Divisors: Cartier data, index, class/Picard groups, ampleness,
projectivity, polytopes and their degrees, growth statements."""

import random
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import gcd

import pytest

import oracles
from oracles import (
    cartier_index_by_scan,
    cartier_lattice,
    count_lattice_points,
    count_triangle_interior,
    counting_polynomial,
    det_bareiss,
    gcd_of_minors,
    picard_by_cartier_lattice,
    projective_by_cartier_lattice,
    scan_degree,
    subset_vertex_polytope,
)
from test_fan import count_hermite_forms, cross_polytope_fan, cube_face_fan, random_complete_threefolds, random_face_fan
from toricfan import divisor
from toricfan.cone import Cone
from toricfan.divisor import (
    cartier_data,
    cartier_index,
    chern_growth,
    class_group,
    divisor_polytope,
    is_ample,
    is_projective,
    picard_group,
    polytope_degree,
)
from toricfan import exactlin
from toricfan import fan as fan_module
from toricfan.errors import InvariantError, ResourceLimitError
from toricfan.exactlin import (
    StrictSystem,
    dot,
    hermite_normal_form,
    identity_matrix,
    mat_mul,
    mat_vec,
    primitive,
    smith_normal_form,
    solve_linear,
    strict_feasible,
    transpose,
)
from toricfan.egyptian import small_modification
from toricfan.families import projective_space_fan, yu_fan
from toricfan.fan import Fan


# An incomplete 4-fan whose rational characters for LARGE_LCM_DIVISOR have
# denominators of lcm 333,839,880, itself the Cartier index.
LARGE_LCM_FAN = (
    4,
    [(-2, -2, 2, 3), (-2, 3, 2, 3), (-1, -2, -1, 3), (-1, 3, -2, 1), (0, 0, -1, 0),
     (2, 0, 0, -3), (2, 0, 3, 1), (2, 3, 1, 2), (3, 2, 0, -1)],
    [[0, 1, 3, 5], [0, 1, 5, 6], [1, 2, 3, 7], [0, 2, 5, 6], [0, 1, 2, 7], [2, 4, 7, 8],
     [1, 6, 7, 8], [2, 5, 6, 8], [1, 5, 6, 8], [1, 3, 5, 8], [2, 6, 7, 8], [0, 2, 3, 4],
     [1, 3, 7, 8], [0, 1, 2, 3], [2, 4, 5, 8]],
)
LARGE_LCM_DIVISOR = (0, 0, 3, 2, 3, 2, 1, 0, 3)

# Lower-dimensional maximal cones: a ray (2, 1, 0), on which the rational
# solve's character is not the integral one, beside a 2-cone and a ray; and
# the square cone in x_4 = 0 of Q^4, whose rays satisfy one relation, beside
# the ray e_4.
LOW_FAN = (3, [(2, 1, 0), (0, 1, 2), (2, 0, 1), (1, 1, 3)], [[0], [1, 2], [3]])
SQUARE_FAN = (4, [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1)], [[0, 1, 2, 3], [4]])

COMPLETE_FIXTURES = (
    "p1_fan", "p2_fan", "p3_fan", "p1xp1_fan", "weighted_p112_fan",
    "suspension_fan", "cube_suspension_fan",
)


def _chained_agreement_feasible(fan) -> bool:
    """Projectivity from the per-cone definition: a reference oracle.

    Unknowns are one character per maximal cone.  The characters of the
    cones containing a ray agree on it (each chained to the first such
    cone), and every character exceeds that agreed value on each ray
    outside its cone.
    """
    n = fan.ambient_rank
    width = len(fan.max_cones) * n
    containing = [[ci for ci, mc in enumerate(fan.max_cones) if k in mc] for k in range(len(fan.rays))]

    def row(ray, plus, minus):
        out = [0] * width
        out[plus * n:(plus + 1) * n] = ray
        out[minus * n:(minus + 1) * n] = [-x for x in ray]
        return tuple(out)

    equalities = tuple(
        row(fan.rays[k], cones[0], other) for k, cones in enumerate(containing) for other in cones[1:]
    )
    stricts = tuple(
        row(fan.rays[k], ci, containing[k][0])
        for ci, mc in enumerate(fan.max_cones)
        for k in range(len(fan.rays))
        if k not in mc
    )
    return strict_feasible(StrictSystem(equalities, stricts, width)).feasible


def _monolithic_kernel(fan):
    """The integral kernel of the Cartier condition as one system:
    ``a_k + m_sigma(l_k) = 0`` for every maximal cone sigma and ray k of it,
    in the unknowns ``(a_1, ..., a_r, m_1, ..., m_s)``, coefficients first."""
    n, r = fan.ambient_rank, len(fan.rays)
    width = r + len(fan.max_cones) * n
    rows = []
    for ci, mc in enumerate(fan.max_cones):
        for k in mc:
            row = [0] * width
            row[k] = 1
            row[r + ci * n:r + (ci + 1) * n] = fan.rays[k]
            rows.append(row)
    return solve_linear(rows, [0] * len(rows), mode="integral").kernel


def _monolithic_cartier_lattice(fan):
    """The Cartier lattice from one integral kernel of the whole system, in
    column Hermite form: a reference for the cone-by-cone construction."""
    h, _ = hermite_normal_form(transpose(_monolithic_kernel(fan)))
    return tuple(col for col in transpose(h) if any(col))


def _reference_fans(request, yu_grid):
    """Complete fans for the reference comparisons: the fixtures, 40 random
    surfaces, the Y grid, and the 3-cube, 4-cube and 4-cross-polytope fans."""
    fans = [request.getfixturevalue(name) for name in COMPLETE_FIXTURES]
    fans += random_complete_surface_fans(seed=7, count=40)
    fans += [yu_grid(n, u).fan for n in range(3, 7) for u in range(1, 4)]
    fans += [Fan.from_cones(*case) for case in (cube_face_fan(3), cube_face_fan(4), cross_polytope_fan(4))]
    return fans


def _angle_order(a, b) -> int:
    """Exact counter-clockwise order of nonzero plane vectors, from the positive x-axis."""
    half_a = a[1] < 0 or (a[1] == 0 and a[0] < 0)
    half_b = b[1] < 0 or (b[1] == 0 and b[0] < 0)
    if half_a != half_b:
        return 1 if half_a else -1
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def random_complete_surface_fans(seed: int, count: int):
    """Seeded complete 2-D fans: rays sorted by angle, consecutive pairs as cones."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        raw = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))]
        rays = sorted({primitive(v) for v in raw if v != (0, 0)}, key=cmp_to_key(_angle_order))
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        # Every consecutive angle below pi: the cones are strictly convex and cover the plane.
        if len(rays) < 3 or any(a[0] * b[1] - a[1] * b[0] <= 0 for a, b in pairs):
            continue
        fans.append(Fan.from_cones(2, rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))]))
    return fans


class TestCartierData:
    def test_zero_divisor(self, p2_fan):
        data = cartier_data(p2_fan, [0, 0, 0])
        assert all(m == (0, 0) for m in data.characters)

    def test_prime_divisor_on_smooth_fan(self, p2_fan):
        data = cartier_data(p2_fan, [1, 0, 0])
        assert data is not None
        for mc, m in zip(p2_fan.max_cones, data.characters):
            for k in mc:
                expected = -1 if k == 0 else 0
                assert dot(m, p2_fan.rays[k]) == expected

    def test_rational_vs_integral_on_weighted_fan(self, weighted_p112_fan):
        assert cartier_data(weighted_p112_fan, [1, 0, 0], mode="integral") is None
        rational = cartier_data(weighted_p112_fan, [1, 0, 0], mode="rational")
        assert rational is not None
        assert any(Fraction(x).denominator == 2 for m in rational.characters for x in m)

    def test_length_mismatch(self, p2_fan):
        with pytest.raises(ValueError, match="coefficients"):
            cartier_data(p2_fan, [1, 0])

    def test_scaling_law(self, weighted_p112_fan):
        base = cartier_data(weighted_p112_fan, [1, 0, 0], mode="rational")
        for c in (2, 3, 5):
            scaled = cartier_data(weighted_p112_fan, [c, 0, 0], mode="rational")
            for m, cm in zip(base.characters, scaled.characters):
                assert tuple(c * x for x in m) == tuple(cm)


class TestCartierIndex:
    def test_smooth_complete(self, p2_fan, p1xp1_fan):
        assert cartier_index(p2_fan, [1, 0, 0]) == 1
        assert cartier_index(p1xp1_fan, [1, 1, 0, 0]) == 1

    def test_half_character_forces_even_index(self, weighted_p112_fan):
        # the unique rational character takes a half-integral value, so the
        # index is even; 2D is Cartier by direct substitution
        assert cartier_index(weighted_p112_fan, [1, 0, 0]) == 2
        assert cartier_data(weighted_p112_fan, [2, 0, 0], mode="integral") is not None

    def test_non_q_cartier(self, suspension_fan):
        # D for the apex ray of the square cone: the circuit relation on the
        # four square rays is incompatible with a single character
        assert cartier_index(suspension_fan, [1, 0, 0, 0, 0]) is None
        assert cartier_data(suspension_fan, [1, 0, 0, 0, 0], mode="rational") is None

    def test_index_of_multiples(self, weighted_p112_fan):
        # index(cD) = index(D) / gcd(c, index(D))
        index = cartier_index(weighted_p112_fan, [1, 0, 0])
        for c in (1, 2, 3, 4):
            scaled = cartier_index(weighted_p112_fan, [c, 0, 0])
            assert scaled == index // gcd(c, index)

    def test_closed_form_on_a_large_denominator_lcm(self):
        # Trying every divisor of the lcm took 24 s here.
        fan = Fan.from_cones(*LARGE_LCM_FAN)
        started = time.perf_counter()
        index = cartier_index(fan, LARGE_LCM_DIVISOR)
        elapsed = time.perf_counter() - started
        assert index == 333_839_880
        assert elapsed < 0.5, f"cartier_index took {elapsed:.2f}s"

    def test_lower_dimensional_cones_match_the_scan(self):
        # A lower-dimensional cone's character is not unique.  On the ray
        # (2, 1, 0) the rational solve pins it to (-a_0 / 2, 0, 0), yet
        # (0, -a_0, 0) is integral: the index reads coordinates in a Hermite
        # basis instead.
        fan = Fan.from_cones(*LOW_FAN)
        assert cartier_index(fan, (1, 0, 0, 0)) == 1
        assert cartier_index(Fan.from_cones(2, [(2, 1), (0, 1)], [[0, 1]]), (1, 0)) == 2
        rng = random.Random(23)
        for _ in range(30):
            d = tuple(rng.randint(-3, 5) for _ in fan.rays)
            assert cartier_index(fan, d) == cartier_index_by_scan(fan, d), d

    def test_lower_dimensional_relation_must_vanish(self):
        # The square's relation l_0 + l_2 = l_1 + l_3 is 2 on (1, 0, 1, 0):
        # no character of any multiple exists on the square cone.
        fan = Fan.from_cones(*SQUARE_FAN)
        assert cartier_data(fan, (1, 0, 1, 0, 0)) is None
        assert cartier_data(fan, (1, 0, 1, 0, 0), mode="rational") is None
        assert cartier_index(fan, (1, 0, 1, 0, 0)) is None is cartier_index_by_scan(fan, (1, 0, 1, 0, 0))
        assert cartier_index(fan, (1, 1, 1, 1, 3)) == 1 == cartier_index_by_scan(fan, (1, 1, 1, 1, 3))

    def test_rational_characters_carry_the_index(self):
        # On the ray (2, 1, 0) the rref solve gave D = (1, 0, 0, 0) the character
        # (-1/2, 0, 0) although D is Cartier: each character's denominators must
        # divide the index, and D is Cartier exactly when the index is 1.
        fan = Fan.from_cones(*LOW_FAN)
        rng = random.Random(23)
        divisors = [(1, 0, 0, 0)] + [tuple(rng.randint(-3, 5) for _ in fan.rays) for _ in range(30)]
        for d in divisors:
            index = cartier_index(fan, d)
            rational = cartier_data(fan, d, mode="rational")
            assert (index is None) == (rational is None), d
            if index is not None:
                assert all((index * x).denominator == 1 for m in rational.characters for x in m), d
                assert (cartier_data(fan, d) is not None) == (index == 1), d
        assert cartier_index(fan, (1, 0, 0, 0)) == 1

    def test_index_is_rechecked(self, weighted_p112_fan, monkeypatch):
        # An index too small for a half-integral character must not pass.
        monkeypatch.setattr(divisor, "_least_multiple", lambda characters: 1)
        assert cartier_index(weighted_p112_fan, [2, 0, 0]) == 1
        with pytest.raises(InvariantError, match="integral character"):
            cartier_index(weighted_p112_fan, [1, 0, 0])


def _block_fans(yu_grid):
    """Complete fans with non-simplicial cones: the 3- and 4-cube face fans,
    Y_{n,u} for n = 3..5, and the threefold campaign's 35 fans."""
    fans = [Fan.from_cones(*cube_face_fan(3)), Fan.from_cones(*cube_face_fan(4))]
    fans += [yu_grid(n, u).fan for n in range(3, 6) for u in range(1, 4)]
    return fans + [fan for seed, count in ((0, 26), (4, 9)) for fan in random_complete_threefolds(seed, count)]


def _q_cartier_space(fan):
    """A basis of the Q-Cartier divisors from ``oracles.kernel_basis`` alone:
    the common kernel of every cone's ray relations, spread to ray indices."""
    rows = []
    for mc in fan.max_cones:
        for relation in oracles.kernel_basis(transpose([fan.rays[k] for k in mc]), len(mc)):
            row = [0] * len(fan.rays)
            for k, c in zip(mc, relation):
                row[k] = c
            rows.append(row)
    return oracles.kernel_basis(rows, len(fan.rays))


def _dict_cone_rows(fan, mc, outside=()):
    """``_cone_rows`` as it was assembled before its rows were placed by
    index: each row a dict from ray index to entry, spread and made primitive."""
    d, e, relations = divisor._cone_block(tuple(fan.rays[k] for k in mc))
    columns = transpose(e)
    vectors = [dict(zip(mc, v)) for v in relations]
    vectors += [dict(zip(mc + (k,), [-dot(c, fan.rays[k]) for c in columns] + [d])) for k in outside]
    return [primitive([v.get(j, 0) for j in range(len(fan.rays))]) for v in vectors]


class TestConeBlock:
    """``_cone_block`` and what is read off it, on complete fans with
    non-simplicial cones, against the oracles' Cramer solves and scan."""

    def test_characters_and_index_match_the_oracles(self, yu_grid):
        # Random divisors (on a non-simplicial fan mostly not Q-Cartier) and
        # random combinations of a Q-Cartier basis.  The index scan tries
        # every c up to the denominator lcm, so it runs only where that is
        # at most 2,000; on the random threefolds most lcms are far larger.
        rng = random.Random(41)
        outcomes, scanned = set(), 0
        for fan in _block_fans(yu_grid):
            n, space = fan.ambient_rank, _q_cartier_space(fan)
            divisors = [tuple(rng.randint(-2, 3) for _ in fan.rays) for _ in range(2)]
            for _ in range(3):
                weights = [rng.randint(-2, 2) for _ in space]
                divisors.append(tuple(sum(w * v[k] for w, v in zip(weights, space)) for k in range(len(fan.rays))))
            for d in divisors:
                characters, disagrees = [], False
                for mc in fan.max_cones:
                    basis = next(s for s in combinations(mc, n) if oracles.det_bareiss([fan.rays[k] for k in s]))
                    den, nums = oracles.cramer_numerators([fan.rays[k] for k in basis], [-d[k] for k in basis])
                    disagrees |= any(dot(nums, fan.rays[k]) != -d[k] * den for k in mc)
                    characters.append(tuple(Fraction(x, den) for x in nums))
                rational = cartier_data(fan, d, mode="rational")
                assert (rational is None) == disagrees, (fan.rays, d)
                assert rational is None or rational.characters == tuple(characters), (fan.rays, d)
                bound = oracles.denominator_lcm(fan, d)
                if bound is None or bound <= 2000:
                    index = cartier_index(fan, d)
                    assert index == cartier_index_by_scan(fan, d), (fan.rays, d)
                    outcomes.add("none" if index is None else "one" if index == 1 else "more")
                    scanned += 1
        assert outcomes == {"none", "one", "more"} and scanned >= 100

    def test_block_inverts_and_relates(self, yu_grid):
        # E A = d I, R A = 0, and R is a primitive basis of the relations.
        for fan in _block_fans(yu_grid):
            n = fan.ambient_rank
            for mc in fan.max_cones:
                rays = tuple(fan.rays[k] for k in mc)
                d, e, relations = divisor._cone_block(rays)
                assert d > 0 and mat_mul(e, rays) == tuple(tuple(d * x for x in row) for row in identity_matrix(n))
                assert not any(map(any, mat_mul(relations, rays)))
                assert len(relations) == len(mc) - n and all(gcd(*row) == 1 for row in relations)
                assert len(oracles.kernel_basis(relations, len(mc))) == n

    def test_rows_match_the_dict_assembly(self, yu_grid):
        # Row for row, relations alone and with every outside ray's strict row.
        fans = [yu_grid(n, u).fan for n in range(3, 7) for u in range(1, 4)]
        fans += [Fan.from_cones(*case) for case in (cube_face_fan(3), cube_face_fan(4), cross_polytope_fan(4))]
        fans += [fan for seed, count in ((0, 26), (4, 9)) for fan in random_complete_threefolds(seed, count)]
        relations = stricts = 0
        for fan in fans:
            for mc in fan.max_cones:
                outside = [k for k in range(len(fan.rays)) if k not in mc]
                assert divisor._cone_rows(fan, mc) == _dict_cone_rows(fan, mc), (fan.rays, mc)
                rows = divisor._cone_rows(fan, mc, outside)
                assert rows == _dict_cone_rows(fan, mc, outside), (fan.rays, mc)
                assert all(type(row) is tuple and len(row) == len(fan.rays) for row in rows)
                relations += len(rows) - len(outside)
                stricts += len(outside)
        assert (len(fans), relations, stricts) == (50, 207, 2738)

    def test_lower_dimensional_blocks(self):
        # A E A = d A, R A = 0 and d | E A, which fails without the Hermite
        # step on the ray (2, 1, 0); R is a primitive basis of the relations.
        # The facets of one 4-cube cone are non-simplicial 3-cones in Q^4.
        cube = Fan.from_cones(*cube_face_fan(4)).cones[0]
        boundary = Fan.from_cones(4, cube.rays, [f.ray_indices for f in cube.facets()])
        seen = 0
        for fan in (Fan.from_cones(*LOW_FAN), Fan.from_cones(*SQUARE_FAN), boundary):
            for mc, cone in zip(fan.max_cones, fan.cones):
                a = tuple(fan.rays[k] for k in mc)
                d, e, relations = divisor._cone_block(a)
                ea = mat_mul(e, a)
                assert d > 0 and mat_mul(a, ea) == tuple(tuple(d * x for x in row) for row in a)
                assert not any(map(any, mat_mul(relations, a))) and not any(x % d for row in ea for x in row)
                assert len(relations) == len(mc) - cone.dim and all(gcd(*row) == 1 for row in relations)
                assert len(oracles.kernel_basis(relations, len(mc))) == cone.dim
                seen += cone.dim < fan.ambient_rank and len(mc) > cone.dim
        assert seen == 7  # non-simplicial and lower-dimensional: the square and the six cube facets

    def test_each_cone_is_eliminated_once(self, monkeypatch):
        # After one is_projective, Cartier data, index and Picard group read
        # cached blocks, on the fan, on an equal fan built afresh, and on the
        # small modification, whose is_projective eliminates only new cones.
        # An incomplete fan's lower-dimensional cones are cached too.
        eliminations = []
        block = divisor._lattice_block
        monkeypatch.setattr(divisor, "_lattice_block", lambda a: eliminations.append(a) or block(a))
        divisor._cone_block.cache_clear()
        fan = yu_fan(4, 1).fan
        witness = is_projective(fan).witness_divisor
        assert len(eliminations) == len(fan.max_cones)
        modified = small_modification(fan, 0).fan
        cones = [{tuple(f.rays[k] for k in mc) for mc in f.max_cones} for f in (fan, modified)]
        eliminations.clear()
        is_projective(modified)
        assert len(eliminations) == len(cones[1] - cones[0]) > 0
        eliminations.clear()
        fans = (fan, yu_fan(4, 1).fan, modified)
        assert [cartier_index(f, witness) for f in fans] == [1, 1, 1]
        assert all(cartier_data(f, witness) is not None for f in fans)
        assert [picard_group(f).rank for f in fans] == [1, 1, 2]
        assert eliminations == []
        low = Fan.from_cones(*LOW_FAN)
        assert cartier_index(low, (1, 0, 0, 0)) == 1 and len(eliminations) == len(low.max_cones)
        assert cartier_data(Fan.from_cones(*LOW_FAN), (1, 0, 0, 0), mode="rational") is not None
        assert len(eliminations) == len(low.max_cones)


class TestClassGroup:
    def test_p2(self, p2_fan):
        g = class_group(p2_fan)
        assert (g.rank, g.invariant_factors) == (1, ())

    def test_p1xp1(self, p1xp1_fan):
        g = class_group(p1xp1_fan)
        assert (g.rank, g.invariant_factors) == (2, ())

    def test_yu_rank_and_torsion_via_minor_oracle(self, yu_grid):
        yu = yu_grid(3, 2)
        g = class_group(yu.fan)
        assert g.rank == 8 - 3
        # cross-check the invariant factors with the gcd-of-minors oracle
        s, _, _ = smith_normal_form(yu.fan.rays)
        diag = [s[i][i] for i in range(3)]
        prod = 1
        for k in range(1, 4):
            prod *= diag[k - 1]
            assert abs(prod) == gcd_of_minors([list(r) for r in yu.fan.rays], k)
        assert g.invariant_factors == ()

    def test_non_spanning_rejected(self):
        from toricfan.fan import Fan
        f = Fan.from_cones(2, [(1, 0)], [[0]])
        with pytest.raises(ValueError, match="span"):
            class_group(f)


class TestPicardGroup:
    def test_smooth_complete_equals_class_group(self, p1_fan, p2_fan, p1xp1_fan, p3_fan):
        for fan in (p1_fan, p2_fan, p1xp1_fan, p3_fan, Fan.from_cones(*cross_polytope_fan(4))):
            for mc in fan.max_cones:
                assert abs(det_bareiss([fan.rays[k] for k in mc])) == 1
            pic = picard_group(fan)
            cl = class_group(fan)
            assert (pic.rank, pic.invariant_factors) == (cl.rank, cl.invariant_factors)

    def test_incomplete_rejected(self):
        from toricfan.fan import Fan
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        with pytest.raises(ValueError, match="complete"):
            picard_group(f)

    def test_principal_coordinates_are_checked(self, monkeypatch):
        # Every cone of the 3-cube's face fan has 4 rays in rank 3, so one
        # relation each.  A unit vector is no relation among nonzero rays,
        # and the principal divisors fail to vanish on it.  It is fed in
        # through ``_cone_block``, past the cache of the true blocks.
        cube = Fan.from_cones(*cube_face_fan(3))
        assert picard_group(cube).rank == 1
        block = divisor._cone_block
        monkeypatch.setattr(divisor, "_cone_block", lambda rays: block(rays)[:2] + (((1,) + (0,) * (len(rays) - 1),),))
        with pytest.raises(InvariantError, match="principal divisor is not Cartier"):
            picard_group(cube)

    def test_matches_cartier_lattice_oracle(self, request, yu_grid):
        fans = _reference_fans(request, yu_grid)
        fans += [small_modification(yu_grid(n, u).fan, 0).fan for n in range(3, 7) for u in range(1, 4)]
        for fan in fans:
            pic, reference = picard_group(fan), picard_by_cartier_lattice(fan)
            assert (pic.rank, pic.invariant_factors) == (reference.rank, reference.invariant_factors), fan.rays


class TestCartierLattice:
    """The cone-by-cone lattice oracle against one monolithic kernel."""

    def test_matches_monolithic_reference(self, request, yu_grid):
        for fan in _reference_fans(request, yu_grid):
            assert cartier_lattice(fan) == _monolithic_cartier_lattice(fan), fan.rays

    def test_congruence_on_weighted_fan(self, weighted_p112_fan):
        # a_0 D_0 + a_1 D_1 + a_2 D_2 is Cartier exactly when a_0 = a_2 mod 2.
        lattice = cartier_lattice(weighted_p112_fan)
        assert [v[:3] for v in lattice] == [(1, 0, 1), (0, 1, 0), (0, 0, 2)]
        assert lattice == _monolithic_cartier_lattice(weighted_p112_fan)
        for a in product(range(-2, 3), repeat=3):
            assert cartier_index(weighted_p112_fan, a) == (1 if (a[0] - a[2]) % 2 == 0 else 2), a


class TestAmpleness:
    def test_degree_one_on_p1(self, p1_fan):
        assert is_ample(p1_fan, [1, 0])

    def test_anti_ample(self, p2_fan):
        assert not is_ample(p2_fan, [-1, 0, 0])

    def test_one_one_on_p1xp1(self, p1xp1_fan):
        assert is_ample(p1xp1_fan, [1, 1, 0, 0])

    def test_degenerate_not_ample(self, p1xp1_fan):
        # pulled back from a projection: convex but not strictly
        assert not is_ample(p1xp1_fan, [1, 0, 1, 0])

    def test_non_cartier_rejected(self, weighted_p112_fan):
        with pytest.raises(ValueError, match="ampleness undefined"):
            is_ample(weighted_p112_fan, [1, 0, 0])

    def test_multiples_stay_ample(self, p2_fan, p1xp1_fan, weighted_p112_fan):
        cases = [
            (p2_fan, [1, 0, 0]),
            (p1xp1_fan, [1, 1, 0, 0]),
            (weighted_p112_fan, [2, 0, 0]),
        ]
        for fan, divisor in cases:
            assert is_ample(fan, divisor)
            for c in (2, 3, 7):
                assert is_ample(fan, [c * a for a in divisor])


class TestProjectivity:
    def test_p2(self, p2_fan):
        result = is_projective(p2_fan)
        assert result.feasible
        assert is_ample(p2_fan, result.witness_divisor)

    def test_p1xp1_and_p3(self, p1xp1_fan, p3_fan):
        for fan in (p1xp1_fan, p3_fan):
            result = is_projective(fan)
            assert result.feasible
            assert is_ample(fan, result.witness_divisor)

    def test_witness_characters_match_divisor(self, request, yu_grid):
        fans = [request.getfixturevalue(name) for name in COMPLETE_FIXTURES]
        fans += [yu_grid(3, 1).fan, yu_grid(4, 1).fan]
        for fan in fans:
            result = is_projective(fan)
            assert result.feasible, fan.rays
            assert result.witness_data == cartier_data(fan, result.witness_divisor)
            for mc, m in zip(fan.max_cones, result.witness_data.characters):
                for k in mc:
                    assert dot(m, fan.rays[k]) == -result.witness_divisor[k]
            assert is_ample(fan, result.witness_divisor)

    def test_random_complete_surfaces_are_projective(self, monkeypatch):
        # Every complete toric surface is projective.  The double description
        # of the strict system holds at most 18 rays on these fans.
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 1000)
        for fan in random_complete_surface_fans(seed=7, count=40):
            result = is_projective(fan)
            assert result.feasible, fan.rays
            assert is_ample(fan, result.witness_divisor)

    def test_fm_size_does_not_depend_on_the_basis(self, monkeypatch):
        # The strict system in the raw coefficient-first kernel basis of the
        # Cartier lattice, not its Hermite basis.  Fourier-Motzkin elimination
        # needed 35,000 rows on this fan (5,000 with Chernikov's rule); the
        # double description holds at most 18 rays, as in the Hermite basis.
        fan = random_complete_surface_fans(seed=7, count=40)[8]
        assert fan.rays == ((2, 1), (3, 2), (1, 1), (-3, 1), (-4, -1), (-3, -1), (2, -3), (3, -2))
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 50)
        lattice = _monolithic_kernel(fan)
        n, r = fan.ambient_rank, len(fan.rays)
        blocks = [slice(r + ci * n, r + (ci + 1) * n) for ci in range(len(fan.max_cones))]
        stricts = tuple(
            tuple(v[k] + dot(v[block], ray) for v in lattice)
            for mc, block in zip(fan.max_cones, blocks)
            for k, ray in enumerate(fan.rays)
            if k not in mc
        )
        result = strict_feasible(StrictSystem((), stricts, len(lattice)))
        assert result.feasible
        point = mat_vec(transpose(lattice), result.witness)
        assert divisor._strictly_convex(fan, point[:r], [point[block] for block in blocks])

    def test_agrees_with_chained_agreement_oracle(self, request, yu_grid):
        fans = [request.getfixturevalue(name) for name in COMPLETE_FIXTURES]
        fans += random_complete_surface_fans(seed=6, count=15)
        fans += [yu_grid(n, u).fan for n in (3, 4) for u in (1, 2, 3)]
        verdicts = [is_projective(fan).feasible for fan in fans]
        assert verdicts == [_chained_agreement_feasible(fan) for fan in fans]
        assert True in verdicts and False in verdicts

    def test_agrees_with_cartier_lattice_oracle(self, request, yu_grid):
        # The verdicts of the Hermite-lattice search it replaced; every
        # witness of either is re-checked ample.
        fans = _reference_fans(request, yu_grid) + random_complete_threefolds(seed=5, count=6)
        fans += [small_modification(yu_grid(n, u).fan, 0).fan for n in range(3, 7) for u in range(1, 4)]
        verdicts = []
        for fan in fans:
            result, reference = is_projective(fan), projective_by_cartier_lattice(fan)
            assert result.feasible == reference.feasible, fan.rays
            for found in (result, reference):
                assert not found.feasible or is_ample(fan, found.witness_divisor), fan.rays
            verdicts.append(result.feasible)
        assert True in verdicts and False in verdicts

    def test_witness_is_rechecked(self, p2_fan, monkeypatch):
        # Extreme rays left unscaled sum to a non-Cartier divisor here, which must not pass.
        monkeypatch.setattr(divisor, "_least_multiple", lambda characters: 1)
        assert is_projective(p2_fan).feasible
        weighted = Fan.from_cones(2, [(1, 0), (1, 2), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
        with pytest.raises(InvariantError, match="not an ample Cartier divisor"):
            is_projective(weighted)

    def test_incomplete_rejected(self):
        from toricfan.fan import Fan
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        with pytest.raises(ValueError, match="complete"):
            is_projective(f)


class TestPolytopes:
    """``polytope_degree`` on small polytopes, with the counting polynomial
    and the box scan of ``oracles`` beside it."""

    def test_unit_triangle(self, p2_fan):
        p = divisor_polytope(p2_fan, [1, 0, 0])
        assert len(p.vertices) == 3
        assert counting_polynomial(p) == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        assert polytope_degree(p) == 1

    def test_segment_of_length_two(self, p1_fan):
        p = divisor_polytope(p1_fan, [2, 0])
        assert counting_polynomial(p) == (Fraction(1), Fraction(2))
        assert polytope_degree(p) == 2

    def test_zero_divisor_point(self, p2_fan):
        p = divisor_polytope(p2_fan, [0, 0, 0])
        assert p.vertices == ((Fraction(0), Fraction(0)),)
        assert counting_polynomial(p) == (Fraction(1), Fraction(0), Fraction(0))
        with pytest.raises(ValueError, match="affine dimension 0, expected 2"):
            polytope_degree(p)

    def test_unit_3_simplex(self, p3_fan):
        p = divisor_polytope(p3_fan, [1, 0, 0, 0])
        # binomial(t+3, 3)
        assert counting_polynomial(p) == (Fraction(1), Fraction(11, 6), Fraction(1), Fraction(1, 6))
        assert polytope_degree(p) == 1

    def test_non_integral_vertices_rejected(self, weighted_p112_fan):
        p = divisor_polytope(weighted_p112_fan, [1, 0, 0])
        with pytest.raises(ValueError, match="Cartier index"):
            polytope_degree(p)

    def test_empty_and_flat_polytopes_rejected(self, p1xp1_fan, p2_fan):
        with pytest.raises(ValueError, match="empty polytope"):
            polytope_degree(divisor_polytope(p2_fan, [-1, 0, 0]))
        with pytest.raises(ValueError, match="affine dimension 1, expected 2"):
            polytope_degree(divisor_polytope(p1xp1_fan, [2, 0, 0, 0]))

    def test_ehrhart_reciprocity_smoke(self, p2_fan):
        # interior counts of the t-dilated unit triangle: (t-1)(t-2)/2
        p = divisor_polytope(p2_fan, [1, 0, 0])
        ehrhart = counting_polynomial(p)
        for t in range(2, 7):
            predicted = sum(c * (-t) ** k for k, c in enumerate(ehrhart))
            assert abs(predicted) == count_triangle_interior(t)

    def test_counting_matches_box_scan(self, p1xp1_fan):
        p = divisor_polytope(p1xp1_fan, [2, 3, 0, 0])
        assert count_lattice_points(p, 1) == 3 * 4
        assert polytope_degree(p) == scan_degree(p) == 2 * 2 * 3  # 2! * area of a 2x3 box

    def test_y_grid_ample_degrees_run_no_hermite_form(self, monkeypatch):
        # Each simplex's normalized volume is |det|, the last pivot of one elimination.
        polytopes = {}
        for n in range(5, 9):
            fan = yu_fan(n, 1).fan
            polytopes[n] = divisor_polytope(fan, is_projective(fan).witness_divisor)
        calls = count_hermite_forms(monkeypatch)
        assert {n: polytope_degree(p) for n, p in polytopes.items()} == {5: 75, 6: 186, 7: 441, 8: 1016}
        assert calls == []

    def test_sheared_and_dilated(self, p2_fan, p3_fan):
        # Dilation by c multiplies the degree by c^d, far past any box scan;
        # a unimodular image (P^2 under (x, y) -> (x + y, y)) keeps it.
        for fan in (p2_fan, p3_fan):
            d = fan.ambient_rank
            for c in (1, 2, 5, 100000):
                assert polytope_degree(divisor_polytope(fan, (c,) + (0,) * d)) == c ** d
        sheared = Fan.from_cones(2, [(1, 0), (1, 1), (-2, -1)], [[0, 1], [1, 2], [0, 2]])
        assert polytope_degree(divisor_polytope(sheared, [3, 0, 0])) == 9

    def test_box_scan_limit(self, p1xp1_fan, p2_fan, monkeypatch):
        # The oracle asks scales largest first: the box at t = d is the
        # largest, so a polytope past the limit raises before any smaller t
        # is scanned.
        asked, scanned = [], []

        def recorder(polytope, scale=1):
            asked.append(scale)
            count = count_lattice_points(polytope, scale)
            scanned.append(scale)
            return count

        monkeypatch.setattr(oracles, "count_lattice_points", recorder)
        with pytest.raises(ResourceLimitError, match="point limit"):
            scan_degree(divisor_polytope(p2_fan, [100000, 0, 0]))
        assert asked == [2] and scanned == []
        asked.clear()
        assert scan_degree(divisor_polytope(p2_fan, [1, 0, 0])) == 1
        assert asked == [2, 1, 0]
        p = divisor_polytope(p1xp1_fan, [2, 3, 0, 0])  # a 3 x 4 box of points
        monkeypatch.setattr(oracles, "BOX_POINT_LIMIT", 12)
        assert count_lattice_points(p, 1) == 12
        monkeypatch.setattr(oracles, "BOX_POINT_LIMIT", 11)
        with pytest.raises(ResourceLimitError):
            count_lattice_points(p, 1)


def random_lattice_polytope(rng: random.Random, d: int, box: int):
    """The hull of d + 1 to d + 6 random points in [-box, box]^d, with its
    facet inequalities, or None when it is not full-dimensional: the facets
    and vertices of the cone over the points lifted by 1."""
    points = {tuple(rng.randint(-box, box) for _ in range(d)) + (1,) for _ in range(rng.randint(d + 1, d + 6))}
    hull = Cone.from_rays(d + 1, sorted(points))
    if hull.dim < d + 1:
        return None
    inequalities = tuple((m[:d], m[d]) for m in hull.facet_normals)
    return divisor.Polytope(inequalities, tuple(tuple(Fraction(x) for x in v[:d]) for v in hull.rays))


class TestDegreeDifferential:
    """The triangulation's volume against the box scan of ``oracles``
    wherever the scan finishes within ``SCAN_LIMIT`` box points: on the ample
    witnesses of seeded complete surfaces and threefolds and of the Y grid,
    and on random lattice polytopes in dimensions 2-4."""

    SCAN_LIMIT = 10_000

    def _compare(self, polytopes, monkeypatch):
        monkeypatch.setattr(oracles, "BOX_POINT_LIMIT", self.SCAN_LIMIT)
        compared = past = 0
        for polytope in polytopes:
            degree = polytope_degree(polytope)
            try:
                want = scan_degree(polytope)
            except ResourceLimitError:
                past += 1
                continue
            assert degree == want, polytope
            compared += 1
        return compared, past

    @staticmethod
    def _witness_polytopes(fans):
        for fan in fans:
            witness = is_projective(fan).witness_divisor
            if witness is not None:
                yield divisor_polytope(fan, witness)

    def test_surface_witnesses(self, monkeypatch):
        fans = random_complete_surface_fans(seed=16, count=60)
        compared, past = self._compare(self._witness_polytopes(fans), monkeypatch)
        assert compared >= 35, (compared, past)

    def test_threefold_witnesses(self, monkeypatch):
        # Their witnesses are sums of extreme rays (ROADMAP item 3), so few
        # boxes are small enough to scan.
        fans = random_complete_threefolds(seed=0, count=40)
        compared, past = self._compare(self._witness_polytopes(fans), monkeypatch)
        assert compared >= 1 and compared + past >= 30, (compared, past)

    def test_y_grid_witnesses(self, yu_grid, monkeypatch):
        fans = []
        for n in range(3, 7):
            for u in range(1, 4):
                yu = yu_grid(n, u)
                fans.append(yu.fan.quotient(yu.e_index()))
                if u == 1:
                    fans.append(yu.fan)
        compared, past = self._compare(self._witness_polytopes(fans), monkeypatch)
        assert compared >= 14, (compared, past)

    @pytest.mark.parametrize("d, box, count", [(2, 3, 40), (3, 2, 40), (4, 1, 20)])
    def test_random_lattice_polytopes(self, monkeypatch, d, box, count):
        rng = random.Random(26 + d)
        polytopes = []
        while len(polytopes) < count:
            polytope = random_lattice_polytope(rng, d, box)
            if polytope is not None:
                polytopes.append(polytope)
        compared, past = self._compare(polytopes, monkeypatch)
        assert compared == count, (compared, past)


class TestIntersectionOracle:
    """``polytope_degree`` against ``oracles.intersection_degree``, the toric
    intersection recursion.  The oracle runs no library code: it reads the
    fan's rays and maximal cones and does its own Fraction solves, lattice
    projections and facet scans.  What it trusts is its input, a complete
    fan as ``Fan.from_cones`` validated it, and the witnesses come from
    ``is_projective``.  The library's degree is taken first; the oracle then
    runs with ``_eliminate``, ``_characters`` and ``polytope_degree`` made
    to raise, so it cannot reach them."""

    @staticmethod
    def _face_fans():
        for d, seeds in ((3, range(8)), (4, range(4))):
            for seed in seeds:
                rng = random.Random(38 + seed)
                fan = None
                while fan is None:
                    fan = random_face_fan(rng, d, box=2)
                yield fan

    def test_degrees_agree(self, p2_fan, monkeypatch):
        cases = [(p2_fan, (1, 1, 1), 9)]
        for make, want in ((cube_face_fan, 8), (cross_polytope_fan, 48)):
            fan = Fan.from_cones(*make(3))
            cases.append((fan, (1,) * len(fan.rays), want))
        for n, want in ((3, 9), (4, 28), (5, 75), (6, 186)):  # Y_{7,1}'s 441 takes the oracle 2 s
            fan = yu_fan(n, 1).fan
            cases.append((fan, is_projective(fan).witness_divisor, want))
        for fan in self._face_fans():
            cases.append((fan, is_projective(fan).witness_divisor, None))
        degrees = [polytope_degree(divisor_polytope(fan, coeffs)) for fan, coeffs, _ in cases]
        assert all(want in (None, degree) for (_, _, want), degree in zip(cases, degrees))

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the library")

        for module, name in ((exactlin, "_eliminate"), (fan_module, "_eliminate"),
                             (divisor, "_characters"), (divisor, "polytope_degree")):
            monkeypatch.setattr(module, name, forbidden)
        for (fan, coeffs, _), degree in zip(cases, degrees):
            assert oracles.intersection_degree(fan.rays, fan.max_cones, coeffs) == degree, (fan.rays, coeffs)


def polytope_inputs(yu_grid):
    """(fan, divisor) pairs: ample witnesses of the Y quotients and of Y_{n,1},
    random divisors on Y_{n,u} for n < 6, multiples and negatives of H on
    P^1..P^4, random complete surfaces, and incomplete or non-spanning fans."""
    rng = random.Random(16)
    pairs = []
    for n in range(3, 7):
        for u in range(1, 4):
            yu = yu_grid(n, u)
            quotient = yu.fan.quotient(yu.e_index())
            pairs.append((quotient, is_projective(quotient).witness_divisor))
            if u == 1:
                pairs.append((yu.fan, is_projective(yu.fan).witness_divisor))
            if n < 6:  # the subset enumeration takes 0.5 s on each Y_6 divisor
                pairs.append((yu.fan, tuple(rng.randint(-1, 3) for _ in yu.fan.rays)))
    for d in range(1, 5):
        for c in (-1, 0, 1, 2, 3):
            pairs.append((projective_space_fan(d), (c,) + (0,) * d))
    for fan in random_complete_surface_fans(seed=16, count=60):
        pairs.append((fan, tuple(rng.randint(-1, 3) for _ in fan.rays)))
    incomplete = [
        Fan.from_cones(2, [(1, 0)], [[0]]),
        Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]]),
        Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [0, 2]]),
        Fan.from_cones(2, [(1, 0), (-1, 0)], [[0], [1]]),
        Fan.from_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1], [2]]),
    ]
    for fan in incomplete:
        pairs += [(fan, tuple(rng.randint(-1, 3) for _ in fan.rays)) for _ in range(3)]
    return pairs


def _polytope_or_error(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


class TestPolytopeVertices:
    """``divisor_polytope`` against the subset enumeration it replaced."""

    def test_agrees_with_subset_enumeration(self, yu_grid):
        outcomes = set()
        for fan, d in polytope_inputs(yu_grid):
            got = _polytope_or_error(lambda: divisor_polytope(fan, d).vertices)
            want = _polytope_or_error(subset_vertex_polytope, fan.ambient_rank, fan.rays, d)
            assert got == want, (fan, d)
            outcomes.add(got if isinstance(got, str) else bool(got))
        assert outcomes == {True, False, "polytope is unbounded", "polytope is unbounded: rays do not span"}

    def test_error_paths(self, p1_fan, p2_fan):
        with pytest.raises(ValueError, match="^polytope is unbounded: rays do not span$"):
            divisor_polytope(Fan.from_cones(2, [(1, 0)], [[0]]), [1])
        with pytest.raises(ValueError, match="^polytope is unbounded$"):
            divisor_polytope(Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]]), [0, 0])
        assert divisor_polytope(p1_fan, [-1, -1]).vertices == ()
        assert divisor_polytope(p2_fan, [-1, 0, 0]).vertices == ()

    def test_one_double_description(self, yu_grid, monkeypatch):
        yu = yu_grid(4, 1)
        witness = is_projective(yu.fan).witness_divisor
        calls = []
        double_description = divisor._double_description

        def counting(*args):
            calls.append(args[0])
            return double_description(*args)

        def refused(*args, **kwargs):
            raise AssertionError("divisor_polytope left the double description")

        monkeypatch.setattr(divisor, "_double_description", counting)
        for name in ("_cone_block", "matrix_rank"):
            monkeypatch.setattr(divisor, name, refused)
        monkeypatch.setattr(Cone, "_from_primitive", classmethod(refused))
        assert divisor_polytope(yu.fan, witness).vertices
        assert calls == [5]


class TestGrowth:
    def test_statements(self):
        assert chern_growth(3, 1).statement == "c₃(E_t) = t² + O(t)"
        assert chern_growth(4, 5).statement == "c₄(E_t) = 5t³ + O(t²)"
        assert chern_growth(2, 1).statement == "c₂(E_t) = t + O(1)"

    def test_note_marks_lower_terms_unknown(self):
        assert "not determined" in chern_growth(3, 1).note

    def test_validation(self):
        with pytest.raises(ValueError, match="degree"):
            chern_growth(3, 0)
        with pytest.raises(ValueError, match="dimension"):
            chern_growth(1, 1)
