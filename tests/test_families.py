"""The Y_u family: construction, combinatorics, and the pipeline report."""

from itertools import combinations

import pytest

from toricfan.cone import Cone
from toricfan.divisor import is_ample
from toricfan.families import (
    YuConfig,
    projective_space_fan,
    verify_yu_combinatorics,
    yu_fan,
    yu_report,
)
from toricfan.fan import Fan


class TestConstruction:
    def test_counts_n3(self, yu_grid):
        yu = yu_grid(3, 1)
        assert len(yu.fan.rays) == 8
        assert len(yu.fan.max_cones) == 6
        assert yu.fan.is_complete()

    def test_counts_n4(self, yu_grid):
        yu = yu_grid(4, 2)
        assert len(yu.fan.rays) == 10
        assert len(yu.fan.max_cones) == 10

    def test_last_ray_depends_on_u(self, yu_grid):
        yu = yu_grid(3, 2)
        assert yu.fan.rays[yu.g_index(3)] == (1, 1, -2)

    def test_ray_order_fixed(self, yu_grid):
        yu = yu_grid(3, 1)
        assert yu.fan.rays == (
            (0, 0, 1),                       # e
            (1, 0, 0), (0, 1, 0), (-1, -1, 0),  # f_1..f_3
            (-1, 0, -1), (0, -1, -1), (1, 1, -1),  # g_1..g_3
            (0, 0, -1),                      # h
        )

    def test_deterministic(self):
        a = yu_fan(3, 2)
        b = yu_fan(3, 2)
        assert a.fan == b.fan
        assert a.labels == b.labels

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            yu_fan(2, 1)
        with pytest.raises(ValueError, match="positive"):
            yu_fan(3, 0)

    def test_every_cone_is_a_circuit(self, yu_grid):
        # n + 1 generators in rank n, any n of them independent
        from toricfan.exactlin import matrix_rank
        yu = yu_grid(4, 1)
        for mc in yu.fan.max_cones:
            assert len(mc) == 5
            gens = [yu.fan.rays[i] for i in mc]
            assert matrix_rank(gens) == 4
            for skip in range(5):
                assert matrix_rank([g for i, g in enumerate(gens) if i != skip]) == 4

    def test_star_of_e(self, yu_grid):
        yu = yu_grid(3, 2)
        assert yu.fan.star(yu.e_index()) == tuple(range(3))

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("u", range(1, 4))
    def test_rays_cones_and_labels(self, n, u):
        # e = e_n, f_i = e_i (i < n), f_n = -(f_1 + ... + f_{n-1}), h = -e,
        # g_i = h - f_i (i < n), g_n = u*h - f_n.
        unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        f = unit[:-1] + [(-1,) * (n - 1) + (0,)]
        g = [tuple(-x for x in v[:-1]) + (-1,) for v in unit[:-1]] + [(1,) * (n - 1) + (-u,)]
        rays = (unit[-1], *f, *g, (0,) * (n - 1) + (-1,))
        pairs = list(combinations(range(1, n + 1), 2))
        cones = [tuple(sorted({0, n + i} | set(range(1, n + 1)) - {i})) for i in range(1, n + 1)]
        cones += [tuple(sorted({2 * n + 1, n + i, n + j} | set(range(1, n + 1)) - {i, j})) for i, j in pairs]
        labels = tuple(f"sigma_{i}" for i in range(1, n + 1)) + tuple(f"sigma_{i}{j}" for i, j in pairs)
        yu = yu_fan(n, u)
        assert yu.fan.rays == rays
        assert tuple(map(tuple, yu.fan.max_cones)) == tuple(cones)
        assert yu.labels == labels

    def test_labels_distinct_past_two_digit_indices(self):
        # Without a separator sigma_12 would name both sigma_12 and sigma_1,2 from n = 12 on.
        for n in range(3, 14):
            labels = yu_fan(n, 1).labels
            assert len(set(labels)) == len(labels), n
        assert yu_fan(9, 1).labels[9:11] == ("sigma_12", "sigma_13")
        assert yu_fan(12, 1).labels[11:13] == ("sigma_12", "sigma_1,2")


class TestCombinatorics:
    @pytest.mark.parametrize("n,u", [(3, 1), (3, 2), (4, 3), (5, 1)])
    def test_tables(self, yu_grid, n, u):
        report = verify_yu_combinatorics(yu_grid(n, u))
        assert report.passed, report.failures

    def test_config_swap_fails_the_circuits_through_u(self, yu_grid):
        # u enters only the relations of sigma_n (u*e) and sigma_in ((u + 1)*h).
        yu = yu_grid(4, 2)._replace(config=YuConfig(4, 1))
        report = verify_yu_combinatorics(yu)
        assert report.failures == tuple(f"circuit of sigma_{c} failed" for c in ("4", "14", "24", "34"))

    def test_a_wrong_meet_fails_every_nonzero_intersection(self, monkeypatch):
        yu = yu_fan(3, 1)
        meet_rays = Cone.meet_rays
        monkeypatch.setattr(Cone, "meet_rays", lambda self, other: meet_rays(self, other)[1:])
        failures = verify_yu_combinatorics(yu).failures
        # 15 pairs of the 6 cones; sigma_i meets sigma_jk ({i, j, k} = {1, 2, 3}) in zero.
        assert len(failures) == 12
        assert all("meet" in f for f in failures)

    def test_a_missing_facet_fails_every_cone(self, monkeypatch):
        yu = yu_fan(3, 1)
        facets = Cone.facets
        monkeypatch.setattr(Cone, "facets", lambda self: facets(self)[1:])
        failures = verify_yu_combinatorics(yu).failures
        assert len(failures) == 6
        assert all("facets" in f for f in failures)

    def test_corrupted_fan_fails(self, yu_grid):
        yu = yu_grid(3, 1)
        # swap one ray: h becomes (0, 1, -1) instead of (0, 0, -1)
        rays = list(yu.fan.rays)
        rays[yu.h_index()] = (0, 1, -1)
        try:
            broken_fan = Fan.from_cones(3, rays, [list(mc) for mc in yu.fan.max_cones])
        except ValueError:
            return  # the corruption already fails fan validation: acceptable
        broken = yu._replace(fan=broken_fan)
        report = verify_yu_combinatorics(broken)
        assert not report.passed
        assert any("circuit" in f for f in report.failures)


class TestPipeline:
    def test_u2_full_story(self):
        report = yu_report(3, 2)
        assert report.picard.is_trivial
        assert not report.projective.feasible
        assert report.egyptian.verdict
        assert len(report.modification.fan.max_cones) == 9
        assert len(report.modification.exceptional_walls) == 3
        assert report.modification_checks.passed
        assert report.divisor_fan_iso is not None
        assert report.growth is not None
        assert report.growth.degree == 1
        assert report.growth.statement == "c₃(E_t) = t² + O(t)"

    def test_u1_projective(self):
        report = yu_report(3, 1)
        assert report.picard.rank == 1
        assert report.projective.feasible
        yu = yu_fan(3, 1)
        assert is_ample(yu.fan, report.projective.witness_divisor)

    def test_n4_quotient(self):
        report = yu_report(4, 2)
        assert report.picard.is_trivial
        assert report.egyptian.verdict
        assert report.divisor_fan_iso is not None
        q = yu_fan(4, 2).fan.quotient(0)
        assert q.isomorphism(projective_space_fan(3)) is not None


class TestQuotientIsProjectiveSpace:
    @pytest.mark.parametrize("n,u", [(3, 1), (3, 3), (4, 2)])
    def test_quotient_fan(self, yu_grid, n, u):
        fan = yu_grid(n, u).fan
        q = fan.quotient(0)
        assert len(q.rays) == n
        assert len(q.max_cones) == n
        assert q.isomorphism(projective_space_fan(n - 1)) is not None


def fresh_projective_space_fan(d):
    """The fan of projective d-space built and validated afresh, sharing nothing with the memo."""
    memo = projective_space_fan(d)
    return Fan.from_cones(d, memo.rays, [list(mc) for mc in memo.max_cones])


class TestProjectiveSpaceFanIsShared:
    """``projective_space_fan`` makes each fan once; every later call returns that fan."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_one_fan_per_dimension(self, d):
        assert projective_space_fan(d) is projective_space_fan(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_a_fresh_build(self, d):
        memo, fresh = projective_space_fan(d), fresh_projective_space_fan(d)
        assert memo is not fresh
        assert (memo.rays, memo.max_cones) == (fresh.rays, fresh.max_cones)
        assert memo.rays[-1] == (-1,) * d and len(memo.max_cones) == d + 1
        for a, b in zip(memo.cones, fresh.cones, strict=True):
            assert (a.rays, a.facet_normals, a.facet_pairs()) == (b.rays, b.facet_normals, b.facet_pairs())
        assert memo.is_complete() and fresh.is_complete()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_quotients_match_a_fresh_build(self, d):
        memo, fresh = projective_space_fan(d), fresh_projective_space_fan(d)
        for ray in range(d + 1):
            q, r = memo.quotient(ray), fresh.quotient(ray)
            assert (q.ambient_rank, q.rays, q.max_cones) == (r.ambient_rank, r.rays, r.max_cones)

    def test_later_calls_validate_nothing(self, monkeypatch):
        projective_space_fan(4)
        built = []
        from_cones = Fan.from_cones.__func__
        monkeypatch.setattr(Fan, "from_cones", classmethod(lambda cls, *a: built.append(a) or from_cones(cls, *a)))
        for _ in range(3):
            projective_space_fan(4)
        assert built == []
        fresh_projective_space_fan(4)  # a fan of its own is validated in full
        assert len(built) == 1
