"""Pyramidal classification, Egyptian position, small modifications."""

import random
import time

import pytest

import toricfan.fan as fan_module
from oracles import brute_force_pyramidal, intersection_degree
from test_fan import (attributes, count_hermite_forms, cross_polytope_fan, cube_face_fan, random_complete_threefolds,
                      random_face_fan)
from toricfan import cli
from toricfan.cone import Cone
from toricfan.divisor import cartier_data, is_projective
from toricfan.egyptian import (
    ExceptionalWall,
    PyramidalKind,
    _check_split,
    classify_pyramidal,
    egyptian_report,
    hypothesis_report,
    small_modification,
    verify_modification,
)
from toricfan.errors import InvariantError
from toricfan.exactlin import dot, matrix_rank
from toricfan.families import projective_space_fan, yu_fan, yu_report
from toricfan.fan import Fan

SQUARE_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
PENTAGON_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (1, -1, 1)]
HEXAGON_RAYS = [(2, 0, 1), (1, 2, 1), (-1, 2, 1), (-2, 0, 1), (-1, -2, 1), (1, -2, 1)]
NOT_PYRAMIDAL_RAYS = [(1, 1, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1), (0, 3, -1, 1)]
# Star cones of random 4-D face fans, ``random_face_fan(random.Random(seed), 4, box)``,
# as (seed, box, cone index, rays, rho).  At rho the first has two beyond facets and
# the second one beyond facet with the other rays beneath it: a split.
FACE_FAN_NOT_PYRAMIDAL = (5, 1, 1, [(-1, -1, -1, -1), (-1, -1, -1, 0), (-1, -1, 0, 0), (0, -1, -1, -1),
                                    (0, -1, 1, -1), (1, -1, -1, 1)], (-1, -1, 0, 0))
FACE_FAN_SPLIT = (1, 1, 9, [(-1, 1, 0, 0), (0, -1, -1, -1), (1, -1, 0, -1), (1, -1, 1, -1), (1, 1, -1, 0)],
                  (-1, 1, 0, 0))


def random_pointed_cone(rng, min_rays=4, max_rays=8):
    """Seeded pointed 3-dimensional cones with a prescribed ray count."""
    while True:
        sample = {
            (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(max_rays + 3)
        }
        sample.discard((0, 0, 0))
        try:
            cone = Cone.from_rays(3, sorted(sample))
        except ValueError:
            continue
        if cone.dim == 3 and min_rays <= len(cone.rays) <= max_rays:
            return cone


class TestClassify:
    def test_simplicial_is_low_dim(self):
        simplex = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        cls = classify_pyramidal(simplex, (0, 0, 1))
        assert cls.kind is PyramidalKind.LOW_DIM
        assert cls.pieces is None and not cls.splits

    def test_unknown_ray(self):
        cone = Cone.from_rays(3, SQUARE_RAYS)
        with pytest.raises(ValueError, match="not an extreme ray"):
            classify_pyramidal(cone, (1, 1, 1))

    def test_square_cone_is_pyramidal(self):
        cone = Cone.from_rays(3, SQUARE_RAYS)
        cls = classify_pyramidal(cone, (1, 0, 1))
        assert cls.kind is PyramidalKind.PYRAMIDAL
        assert cls.eta_rays == ((0, -1, 1), (0, 1, 1))
        base, update = cls.pieces
        assert base.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 1))
        assert update.rays == ((0, -1, 1), (0, 1, 1), (1, 0, 1))

    def test_not_pyramidal_fixture(self):
        cone = Cone.from_rays(4, NOT_PYRAMIDAL_RAYS)
        rho = (0, 3, -1, 1)
        cls = classify_pyramidal(cone, rho)
        assert cls.kind is PyramidalKind.NOT_PYRAMIDAL and cls.pieces is None
        kind, _, base_rays, beyond, tangent = brute_force_pyramidal(4, NOT_PYRAMIDAL_RAYS)[rho]
        assert kind == "not_pyramidal" and not tangent
        assert beyond == {frozenset(NOT_PYRAMIDAL_RAYS[:4]), frozenset([(1, 1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1)])}
        # substitution oracle: each beyond facet of the oracle is supported by
        # an inward normal of the cold-built base cone that is negative on rho
        base = Cone.from_rays(4, base_rays)
        for facet in beyond:
            normal = next(m for m in base.facet_normals if {r for r in base.rays if dot(m, r) == 0} == facet)
            assert all(dot(normal, r) >= 0 for r in base.rays)
            assert dot(normal, rho) < 0

    def test_lower_dimensional_cone_rejected(self):
        flat = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="full-dimensional"):
            classify_pyramidal(flat, (1, 0, 0))

    def test_three_dimensional_cones_always_pyramidal(self):
        # seeded random pointed cones: LowDim or Pyramidal, never NotPyramidal
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            cone = random_pointed_cone(rng)
            for ray in cone.rays:
                cls = classify_pyramidal(cone, ray)
                assert cls.kind is not PyramidalKind.NOT_PYRAMIDAL

    def test_low_dim_iff_base_has_codimension_one(self):
        rng = random.Random(0xBEEF)
        for _ in range(40):
            cone = random_pointed_cone(rng)
            for ray in cone.rays:
                cls = classify_pyramidal(cone, ray)
                expected_low = Cone.from_rays(3, [r for r in cone.rays if r != ray]).dim == 2
                assert (cls.kind is PyramidalKind.LOW_DIM) == expected_low


class TestPyramidalFaceLattice:
    def test_square_cone_prediction(self):
        # The face-lattice predictions are checked on many cones by the
        # oracle of TestOracleDifferential; this repeats the sigma check
        # explicitly at one fixture.
        cone = Cone.from_rays(3, SQUARE_RAYS)
        cls = classify_pyramidal(cone, (1, 0, 1))
        eta_rays = frozenset(cls.eta_rays)
        base, _ = cls.pieces
        base_faces = {
            frozenset(base.rays[i] for i in f.ray_indices)
            for k in range(base.dim) for f in base.faces(k)
        }
        eta_cone = Cone.from_rays(3, cls.eta_rays)
        eta_faces = {
            frozenset(eta_cone.rays[i] for i in f.ray_indices)
            for k in range(eta_cone.dim + 1) for f in eta_cone.faces(k)
        }
        predicted = {f for f in base_faces if f != eta_rays}
        predicted |= {f | {(1, 0, 1)} for f in eta_faces if f != eta_rays}
        actual = {
            frozenset(cone.rays[i] for i in f.ray_indices)
            for k in range(3) for f in cone.faces(k)
        }
        assert actual == predicted


class TestOracleDifferential:
    """The facet-incidence classifier against ``oracles.brute_force_pyramidal``."""

    @staticmethod
    def agree(cone):
        """The kinds the oracle and the library agree on at every ray of the cone."""
        kinds = set()
        for ray, (kind, eta, base, beyond, tangent) in brute_force_pyramidal(cone.ambient_rank, cone.rays).items():
            cls = classify_pyramidal(cone, ray)
            assert cls.kind.value == kind, (cone.rays, ray)
            assert (frozenset(cls.eta_rays) if cls.eta_rays else None) == eta
            if cls.splits:  # rho is beyond eta alone; pieces read off the cone's facets equal cold builds
                assert beyond == {eta}
                assert cls.pieces[0].rays == base
                for piece in cls.pieces:
                    assert attributes(piece) == attributes(Cone.from_rays(piece.ambient_rank, piece.rays))
            else:
                assert cls.pieces is None
            kinds.add(kind)
        return kinds

    def test_random_cones(self):
        rng = random.Random(0xFACE7)
        kinds = {n: set() for n in (3, 4, 5)}
        for n, count in ((3, 40), (4, 30), (5, 12)):
            built = 0
            while built < count:
                sample = {tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (rng.randint(1, 3),)
                          for _ in range(n + rng.randint(0, 2))}
                cone = Cone.from_rays(n, sorted(sample))
                if cone.dim != n:
                    continue
                built += 1
                kinds[n] |= self.agree(cone)
        assert kinds[3] == {"low_dim", "pyramidal"}
        assert kinds[4] == kinds[5] == {"low_dim", "pyramidal", "not_pyramidal"}

    def test_star_cones_of_the_yu_grid(self, yu_grid):
        kinds = set()
        for n in (3, 4, 5):
            for u in (1, 2, 3):
                fan = yu_grid(n, u).fan
                for cone in fan.cones:
                    if cone.dim == n:
                        kinds |= self.agree(cone)
        assert kinds == {"pyramidal", "not_pyramidal"}

    def test_witness_is_rechecked(self, monkeypatch):
        # A normal negative on rho and positive off the facet, but not zero
        # on it, must not pass as eta's normal.
        import toricfan.egyptian as egyptian
        monkeypatch.setattr(egyptian, "rational_kernel", lambda rows, width: ((-2, 1, 1),))
        with pytest.raises(InvariantError, match="beyond-facet normal"):
            classify_pyramidal(Cone.from_rays(3, SQUARE_RAYS), (1, 0, 1))


class TestEgyptianReport:
    def test_suspension_fan(self, suspension_fan):
        report = egyptian_report(suspension_fan, 0)
        assert report.verdict
        kinds = {ci: cls.kind for ci, cls in report.per_cone}
        assert kinds[0] is PyramidalKind.PYRAMIDAL
        assert all(k is PyramidalKind.LOW_DIM for ci, k in kinds.items() if ci != 0)

    def test_every_ray_of_complete_3d_fans(self, suspension_fan, p3_fan, yu_grid):
        for fan in (suspension_fan, p3_fan, yu_grid(3, 2).fan):
            for ray in range(len(fan.rays)):
                assert egyptian_report(fan, ray).verdict

    def test_one_dimensional_fan(self, p1_fan):
        # A ray cone is a pyramid over the zero cone: the verdict needs no base.
        report = egyptian_report(p1_fan, 0)
        assert report.verdict
        (_, cls), = report.per_cone
        assert cls.kind is PyramidalKind.LOW_DIM and cls.pieces is None
        assert small_modification(p1_fan, 0).fan == p1_fan

    def test_not_pyramidal_star_fails(self):
        # the four-dimensional fixture as a one-cone fan, star accepted in
        # test mode (the fan is not complete)
        fan = Fan.from_cones(4, NOT_PYRAMIDAL_RAYS, [list(range(6))])
        report = egyptian_report(fan, 5, allow_incomplete=True)
        assert not report.verdict

    def test_incomplete_rejected_by_default(self):
        fan = Fan.from_cones(4, NOT_PYRAMIDAL_RAYS, [list(range(6))])
        with pytest.raises(ValueError, match="complete"):
            egyptian_report(fan, 5)

    def test_tangency_forces_not_pyramidal(self, cube_suspension_fan):
        # deleting a cube ray leaves it on three base facet hyperplanes:
        # tangencies are reported, never merged into beneath
        report = egyptian_report(cube_suspension_fan, 0)
        assert not report.verdict
        top = dict(report.per_cone)[0]
        assert top.kind is PyramidalKind.NOT_PYRAMIDAL
        _, _, _, beyond, tangent = brute_force_pyramidal(top.sigma.ambient_rank, top.sigma.rays)[top.ray]
        assert len(beyond) == 1
        assert len(tangent) == 3


class TestSmallModification:
    def test_identity_on_simplicial_fan(self, p3_fan):
        result = small_modification(p3_fan, 0)
        assert result.fan == p3_fan
        assert not result.exceptional_walls
        checks = verify_modification(result)
        assert checks.passed

    def test_suspension_fan_single_split(self, suspension_fan):
        result = small_modification(suspension_fan, 0)
        assert len(result.split_cones) == 1
        assert len(result.fan.max_cones) == 6
        assert result.fan.rays == suspension_fan.rays
        assert result.fan.is_complete()
        (wall,) = result.exceptional_walls
        assert [suspension_fan.rays[i] for i in wall.ray_indices] == [(0, 1, 1), (0, -1, 1)]
        checks = verify_modification(result)
        assert checks.passed

    def test_not_egyptian_rejected(self):
        fan = Fan.from_cones(4, NOT_PYRAMIDAL_RAYS, [list(range(6))])
        with pytest.raises(ValueError, match="Egyptian position"):
            small_modification(fan, 5, allow_incomplete=True)

    def test_corrupted_result_fails_verification(self, suspension_fan):
        result = small_modification(suspension_fan, 0)
        # drop one sibling cone: the exceptional wall loses an incident cone
        (wall,) = result.exceptional_walls
        keep = [mc for i, mc in enumerate(result.fan.max_cones) if i != wall.siblings[1]]
        broken_fan = Fan.from_cones(3, result.fan.rays, keep)
        broken = result._replace(fan=broken_fan)
        checks = verify_modification(broken)
        assert not checks.passed
        assert any("wall" in f for f in checks.failures)

    def test_wall_missing_from_the_refined_fan(self, yu_grid):
        # (1, 2, 3) spans no cone of the refined Y_{3,1}: it is no wall to find.
        result = small_modification(yu_grid(3, 1).fan, 0)
        extra = ExceptionalWall((1, 2, 3), (0, 1))
        checks = verify_modification(result._replace(exceptional_walls=result.exceptional_walls + (extra,)))
        assert not checks.passed and checks.failures == ("wall (1, 2, 3) missing from the refined fan",)
        assert checks.wall_curves[-1] == ((1, 2, 3), None, False)
        assert checks.update_maximal[-1] == ((1, 2, 3), False)
        assert verify_modification(result).passed

    def test_wall_plus_a_ray_on_it_is_not_maximal(self, suspension_fan):
        result = small_modification(suspension_fan, 0)
        (wall,) = result.exceptional_walls
        # A ray of the wall itself adds nothing to it, and a wall is no maximal cone.
        checks = verify_modification(result._replace(strict_transform_ray=wall.ray_indices[0]))
        assert checks.update_maximal == ((wall.ray_indices, False),)
        assert f"wall {wall.ray_indices}: wall + ray is not a maximal cone" in checks.failures

    def test_preserves_rays_and_makes_divisor_q_cartier(self, suspension_fan, yu_grid):
        for fan, ray in ((suspension_fan, 0), (yu_grid(3, 2).fan, 0)):
            result = small_modification(fan, ray)
            assert result.fan.rays == fan.rays
            divisor = [1 if i == ray else 0 for i in range(len(fan.rays))]
            # the star of the ray now has codimension-one bases everywhere
            for ci in result.fan.star(ray):
                cone = result.fan.cones[ci]
                base = Cone.from_rays(fan.ambient_rank, [r for r in cone.rays if r != fan.rays[ray]])
                assert base.dim == fan.ambient_rank - 1
            assert cartier_data(result.fan, divisor, mode="rational") is not None


class TestFaceFanFixtures:
    """One NotPyramidal star cone and one that splits, drawn from random 4-D face fans.

    Each agrees with the base-cone oracle at every ray, and its verdict at
    rho comes from one ``rational_kernel`` call for the beyond-facet normal.
    """

    @staticmethod
    def classified(fixture, monkeypatch):
        import toricfan.egyptian as egyptian
        seed, box, ci, rays, rho = fixture
        cone = random_face_fan(random.Random(seed), 4, box).cones[ci]
        assert cone.rays == tuple(rays)
        TestOracleDifferential.agree(cone)
        kernels, kernel = [], egyptian.rational_kernel

        def recorded(*args):
            kernels.append(kernel(*args))
            return kernels[-1]

        monkeypatch.setattr(egyptian, "rational_kernel", recorded)
        cls = classify_pyramidal(cone, rho)
        assert len(kernels) == 1
        return cone, cls

    def test_not_pyramidal(self, monkeypatch):
        cone, cls = self.classified(FACE_FAN_NOT_PYRAMIDAL, monkeypatch)
        assert cls.kind is PyramidalKind.NOT_PYRAMIDAL
        _, _, _, beyond, tangent = brute_force_pyramidal(4, cone.rays)[cls.ray]
        assert len(beyond) == 2 and not tangent

    def test_pyramidal_split(self, monkeypatch):
        cone, cls = self.classified(FACE_FAN_SPLIT, monkeypatch)
        assert cls.kind is PyramidalKind.PYRAMIDAL and cls.splits
        _check_split(cone, *cls.pieces, cls.eta_rays)


class TestSplitCoverage:
    """The exact check that a split's two pieces tile the original cone."""

    @staticmethod
    def pieces(rays, base, update, eta):
        def cone(indices):
            return Cone.from_rays(3, [rays[i] for i in indices])
        return cone(range(len(rays))), cone(base), cone(update), tuple(sorted(rays[i] for i in eta))

    def test_square_split_covers(self):
        _check_split(*self.pieces(SQUARE_RAYS, (0, 1, 2), (0, 2, 3), (0, 2)))

    def test_pentagon_gap_rejected(self):
        # The pieces meet exactly in eta = (p0, p2), but their union misses
        # the triangle (p0, p3, p4): the facet (p0, p3) is inside sigma.
        with pytest.raises(InvariantError, match="do not cover"):
            _check_split(*self.pieces(PENTAGON_RAYS, (0, 1, 2), (0, 2, 3), (0, 2)))

    def test_overlapping_pieces_rejected(self):
        # (p0, p1, p2) and (p1, p2, p3) lie on the same side of (p1, p2).
        with pytest.raises(InvariantError, match="meet exactly"):
            _check_split(*self.pieces(PENTAGON_RAYS, (0, 1, 2), (1, 2, 3), (1, 2)))

    def test_pieces_on_the_same_side_of_a_diagonal_rejected(self):
        # eta = (p0, p3) is a facet of both (p0, p1, p3) and (p0, p2, p3),
        # with equal normals: both pieces lie on the p1, p2 side of it.
        with pytest.raises(InvariantError, match="meet exactly"):
            _check_split(*self.pieces(HEXAGON_RAYS, (0, 1, 3), (0, 2, 3), (0, 3)))

    def test_cube_fan_modification(self):
        # The face fan of the 3-cube: six square cones, three in each star.
        from itertools import product
        rays = list(product([-1, 1], repeat=3))
        cones = [[i for i, r in enumerate(rays) if r[axis] == sign] for axis in range(3) for sign in (-1, 1)]
        fan = Fan.from_cones(3, rays, cones)
        result = small_modification(fan, 0)
        assert len(result.split_cones) == 3
        assert result.fan.is_complete() and len(result.fan.max_cones) == 9
        assert verify_modification(result).passed


COMPLETE_3D_FANS = {
    "P3": lambda: projective_space_fan(3),
    "Y_3_1": lambda: yu_fan(3, 1).fan,
    "Y_3_2": lambda: yu_fan(3, 2).fan,
    "Y_3_3": lambda: yu_fan(3, 3).fan,
    "cube_3": lambda: Fan.from_cones(*cube_face_fan(3)),
    "cross_3": lambda: Fan.from_cones(*cross_polytope_fan(3)),
}


# Sigma' x P^1, with Sigma' the first non-projective draw of
# ``random_complete_threefolds(0, 40)``: its rays lifted by a 0 coordinate,
# then (0, 0, 0, 1) and (0, 0, 0, -1), each added to every cone.
SIGMA_PRIME_RAYS = [(-2, -1, -2), (-1, 1, 0), (0, 1, 1), (1, -2, 1), (2, 3, 1), (3, -3, 1), (3, -1, 1), (1, 0, -1)]
SIGMA_PRIME_CONES = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 7), (0, 5, 7), (2, 3, 5), (2, 5, 6),
                     (4, 6, 7), (5, 6, 7), (1, 2, 6), (1, 4, 6)]


def sigma_prime_times_p1():
    rays = [r + (0,) for r in SIGMA_PRIME_RAYS] + [(0, 0, 0, 1), (0, 0, 0, -1)]
    return Fan.from_cones(4, rays, [list(c) + [k] for c in SIGMA_PRIME_CONES for k in (8, 9)])


class TestHypothesisReport:
    """The paper's hypothesis at a ray, checked by ``hypothesis_report``."""

    def test_sigma_prime_times_p1_reaches_every_branch(self):
        # Rays 8 and 9: every star cone is LowDim, so the ray is Egyptian,
        # and the quotient is Sigma', which is not projective.  Rays 0-7
        # reach the growth statement; ray 0's quotient witness has a box of
        # 1,335,220 points at t = 3, past the oracle's 10^6-point scan.
        assert not is_projective(Fan.from_cones(3, SIGMA_PRIME_RAYS, SIGMA_PRIME_CONES)).feasible
        fan = sigma_prime_times_p1()
        assert fan.is_complete()
        for ray in (8, 9):
            report = hypothesis_report(fan, ray)
            assert report.egyptian.verdict
            assert all(c.kind is PyramidalKind.LOW_DIM for _, c in report.egyptian.per_cone)
            assert not report.quotient_projective.feasible
            assert report.quotient.isomorphism(Fan.from_cones(3, SIGMA_PRIME_RAYS, SIGMA_PRIME_CONES)) is not None
            assert report.modification is None and report.checks is None and report.growth is None
        degrees = []
        for ray in range(8):
            report = hypothesis_report(fan, ray)
            assert report.egyptian.verdict and report.quotient_projective.feasible and report.checks.passed
            degrees.append(report.growth.degree)
            assert report.growth.statement.startswith(f"c₄(E_t) = {report.growth.degree}t³")
        assert degrees == [31914, 129, 213, 30, 1539, 12342, 2052, 2808]

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_yu_report_past_the_acceptance_grid(self, n):
        # The quotient is P^(n-1), and its unit divisor has degree 1.
        for u in (1, 2, 3):
            report = yu_report(n, u)
            assert report.egyptian.verdict and report.modification_checks.passed, (n, u)
            assert report.divisor_fan_iso is not None and report.projective.feasible == (u == 1)
            assert report.growth.degree == 1, (n, u)

    def test_campaign_on_random_threefolds(self):
        # The threefold statement at every ray of 35 seeded complete 3-fans,
        # four of them flipped out of the projective ones, keyed by (seed,
        # index): every star quotient is a complete 2-fan, so projective.
        # Each growth degree is also the intersection recursion's D^2.
        fans = {(seed, i): fan for seed, count in ((0, 26), (4, 9))
                for i, fan in enumerate(random_complete_threefolds(seed, count))}
        non_projective = {key for key, fan in fans.items() if not is_projective(fan).feasible}
        assert non_projective == {(0, 0), (0, 25), (4, 7), (4, 8)}
        rays = 0
        for key, fan in fans.items():
            for ray in range(len(fan.rays)):
                report = hypothesis_report(fan, ray)
                assert report.growth is not None, (key, ray)
                quotient, witness = report.quotient, report.quotient_projective.witness_divisor
                assert intersection_degree(quotient.rays, quotient.max_cones, witness) == report.growth.degree, \
                    (key, ray)
                rays += 1
        assert rays == 257

    @pytest.mark.parametrize("name", sorted(COMPLETE_3D_FANS))
    def test_threefold_statement_at_every_ray(self, name):
        # Complete threefolds: every ray is in Egyptian position with a
        # projective divisor, so the statement holds at each (42 pairs).
        fan = COMPLETE_3D_FANS[name]()
        for ray in range(len(fan.rays)):
            report = hypothesis_report(fan, ray)
            assert report.egyptian.verdict and report.quotient_projective.feasible, (name, ray)
            assert report.checks.passed and report.growth.degree >= 1, (name, ray)

    def test_stops_after_a_failed_egyptian_verdict(self, cube_suspension_fan):
        report = hypothesis_report(cube_suspension_fan, 0)
        assert not report.egyptian.verdict
        later = [name for name in report._fields if name != "egyptian"]
        assert all(getattr(report, name) is None for name in later)

    def test_stops_after_a_non_projective_divisor(self, p3_fan, monkeypatch):
        # No fixture has an Egyptian ray with a non-projective divisor, so the
        # quotient's projectivity verdict is forced false here.
        from toricfan import divisor
        monkeypatch.setattr(divisor, "is_projective", lambda fan: divisor.ProjectivityResult(False, None, None))
        report = hypothesis_report(p3_fan, 0)
        assert report.egyptian.verdict and report.quotient is not None
        assert not report.quotient_projective.feasible
        assert report.modification is None and report.checks is None and report.growth is None

    def test_one_quotient_per_fan(self, monkeypatch):
        # The original fan's quotient is built once, memoized on the fan and
        # shared with the modification check; the refined fan's quotient is
        # the only other one built, and a second check builds neither.
        fan = yu_fan(6, 2).fan
        imaged = count_star_images(monkeypatch)
        report = hypothesis_report(fan, 0)
        assert report.growth is not None
        assert imaged == star_cones(fan, 0) + star_cones(report.modification.fan, 0)
        imaged.clear()
        assert verify_modification(report.modification) == report.checks
        assert imaged == []

    def test_modify_after_egyptian_images_the_star_once(self, monkeypatch):
        # The benchmark's order: the egyptian question takes the quotient,
        # then modify's check finds it memoized on the same fan.
        fan = yu_fan(5, 2).fan
        imaged = count_star_images(monkeypatch)
        assert egyptian_report(fan, 0).verdict
        quotient = fan.quotient(0)
        assert imaged == star_cones(fan, 0)
        result = small_modification(fan, 0)
        assert verify_modification(result).passed
        assert imaged == star_cones(fan, 0) + star_cones(result.fan, 0)
        assert fan.quotient(0) is quotient

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_memoized_quotient_keeps_the_acceptance_verdicts(self, n):
        # hypothesis_report reuses its quotient in the modification check;
        # each step on a fan of its own, with no quotient shared, agrees.
        for u in (1, 2, 3):
            report = hypothesis_report(yu_fan(n, u).fan, 0)
            quotient = yu_fan(n, u).fan.quotient(0)
            checks = verify_modification(small_modification(yu_fan(n, u).fan, 0))
            assert report.egyptian.verdict and checks.passed, (n, u)
            assert (report.quotient.rays, report.quotient.max_cones) == (quotient.rays, quotient.max_cones)
            assert report.quotient_projective.feasible and is_projective(quotient).feasible
            assert report.checks == checks and report.growth is not None


def count_star_images(monkeypatch):
    """Record the star cone of every quotient image ``_star_image`` makes from now on."""
    calls = []
    star_image = fan_module._star_image

    def counting(sigma, *args):
        calls.append(sigma)
        return star_image(sigma, *args)

    monkeypatch.setattr(fan_module, "_star_image", counting)
    return calls


def star_cones(fan, ray):
    return [fan.cones[ci] for ci in fan.star(ray)]


class TestOneClassificationPerCall:
    """Each full-dimensional star cone of the ray is classified exactly once."""

    @pytest.fixture
    def classified(self, monkeypatch):
        import toricfan.egyptian as egyptian
        calls = []
        classify = egyptian.classify_pyramidal

        def counting(sigma, ray):
            calls.append(sigma.rays)
            return classify(sigma, ray)

        monkeypatch.setattr(egyptian, "classify_pyramidal", counting)
        return calls

    @staticmethod
    def star_cones(fan, ray):
        return sorted(fan.cones[ci].rays for ci in fan.star(ray) if fan.cones[ci].dim == fan.ambient_rank)

    @pytest.mark.parametrize("command", ["modify", "report"])
    def test_cli(self, command, classified, yu_grid, tmp_path, capsys):
        fan = yu_grid(3, 2).fan
        path = tmp_path / "y.json"
        path.write_text(cli.fan_to_json(fan))
        assert cli.run([command, "--fan", str(path), "--ray", "0"]) == cli.EXIT_OK
        assert sorted(classified) == self.star_cones(fan, 0)

    def test_yu_report(self, classified, yu_grid):
        yu_report(3, 2)
        assert sorted(classified) == self.star_cones(yu_grid(3, 2).fan, 0)

    def test_small_modification(self, classified):
        fan = yu_fan(3, 2).fan  # fresh: a shared fan may already hold its report
        small_modification(fan, 0)
        assert sorted(classified) == self.star_cones(fan, 0)

    def test_second_call_classifies_nothing(self, classified):
        fan = yu_fan(3, 2).fan
        report = egyptian_report(fan, 0)
        first = small_modification(fan, 0)
        assert sorted(classified) == self.star_cones(fan, 0)
        classified.clear()
        assert egyptian_report(fan, 0) is report
        second = small_modification(fan, 0)
        assert classified == []
        assert second == first and all(a is b for a, b in zip(second.fan.cones, first.fan.cones))

    def test_checks_run_on_every_call(self, classified):
        fan = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])  # incomplete
        report = egyptian_report(fan, 1, allow_incomplete=True)
        with pytest.raises(ValueError, match="complete fan"):
            egyptian_report(fan, 1)
        with pytest.raises(ValueError, match="unknown ray index 3"):
            egyptian_report(fan, 3, allow_incomplete=True)
        assert egyptian_report(fan, 1, allow_incomplete=True) is report
        assert len(classified) == 2  # both star cones, once

    def test_a_failed_call_stores_nothing(self, monkeypatch):
        import toricfan.egyptian as egyptian
        fan = yu_fan(3, 2).fan

        def failing(sigma, ray):
            raise InvariantError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(egyptian, "classify_pyramidal", failing)
            with pytest.raises(InvariantError, match="injected"):
                egyptian_report(fan, 0)
        assert egyptian_report(fan, 0).verdict


class TestSharedQuotientLattice:
    """A small modification keeps the rays, so its quotients read the fan's cached lattices."""

    def test_verify_modification_runs_no_hermite_form(self, monkeypatch):
        fan = yu_fan(4, 2).fan
        result = small_modification(fan, 0)
        fan.quotient(0)
        calls = count_hermite_forms(monkeypatch)
        checks = verify_modification(result)
        assert checks.passed and checks.quotient_preserved
        assert calls == []

    def test_cli_modify_runs_one_hermite_form(self, monkeypatch, tmp_path):
        path = tmp_path / "y.json"
        path.write_text(cli.fan_to_json(yu_fan(3, 2).fan))
        fan_module._quotient_lattice.cache_clear()  # the cache is process-wide
        calls = count_hermite_forms(monkeypatch)
        assert cli.run(["modify", "--fan", str(path), "--ray", "0"]) == cli.EXIT_OK
        assert len(calls) == 1  # the ray's completion, for both quotients
