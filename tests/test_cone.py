"""Cones: construction, dual descriptions, faces, intersections, positions."""

import random
import time
from itertools import combinations

import pytest

from oracles import brute_force_meet, feasible_by_vertex_enumeration
from toricfan import cone as cone_module, exactlin
from toricfan.cone import Cone
from toricfan.errors import InvariantError, ResourceLimitError
from toricfan.exactlin import dot

SQUARE_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


@pytest.fixture(scope="module")
def quadrant():
    return Cone.from_rays(2, [(1, 0), (0, 1)])


@pytest.fixture(scope="module")
def square_cone():
    return Cone.from_rays(3, SQUARE_RAYS)


class TestConstruction:
    def test_quadrant(self, quadrant):
        assert quadrant.rays == ((0, 1), (1, 0))
        assert set(quadrant.facet_normals) == {(1, 0), (0, 1)}

    def test_square_cone_normals_by_substitution(self, square_cone):
        # Each normal must vanish on exactly two adjacent square rays and be
        # positive on the other two.
        assert len(square_cone.facet_normals) == 4
        for normal in square_cone.facet_normals:
            values = [dot(normal, r) for r in square_cone.rays]
            assert sorted(values) == [0, 0, 2, 2]
        assert set(square_cone.facet_normals) == {
            (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)
        }

    def test_line_rejected(self):
        with pytest.raises(ValueError, match="contains a line"):
            Cone.from_rays(2, [(1, 0), (-1, 0)])

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="no primitive representative"):
            Cone.from_rays(2, [(0, 0), (1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one generator"):
            Cone.from_rays(2, [])

    def test_generator_entries_become_ints(self):
        c = Cone.from_rays(2, [(True, False), (0, 1)])
        assert c.rays == ((0, 1), (1, 0))
        assert all(type(x) is int for r in c.rays for x in r)

    @pytest.mark.parametrize("eqs, ineqs", [
        ([(1, 0)], []), ([(1, 0, 0, 0)], []), ([], [(1, 0)]), ([], [(1, 0, 0, 0)]),
        ([(1, 0, 0)], [(0, 1, 0), (0, 0)]),
    ])
    def test_row_width_mismatch_rejected(self, eqs, ineqs):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Cone.from_inequalities(3, eqs, ineqs)

    def test_row_width_checked_before_the_cone_shrinks_to_zero(self):
        # The equalities leave {0}, so no inner product would ever meet the short row.
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            Cone.from_inequalities(2, [(1, 0), (0, 1)], [(1,)])

    def test_generators_primitivized_and_deduplicated(self):
        c = Cone.from_rays(2, [(2, 0), (1, 0), (0, 3)])
        assert c.rays == ((0, 1), (1, 0))

    def test_non_extreme_generator_dropped(self):
        c = Cone.from_rays(2, [(1, 0), (1, 1), (0, 1)])
        assert c.rays == ((0, 1), (1, 0))

    def test_simplicial_normals(self):
        c = Cone.from_rays(2, [(1, 0), (1, 2)])
        assert set(c.facet_normals) == {(0, 1), (2, -1)}
        # substitution check
        assert dot((0, 1), (1, 0)) == 0 and dot((0, 1), (1, 2)) == 2
        assert dot((2, -1), (1, 2)) == 0 and dot((2, -1), (1, 0)) == 2

    def test_first_octant(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert set(c.facet_normals) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_lower_dimensional_cone(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0)])
        assert c.dim == 2
        assert c.span_equations == ((0, 0, 1),)
        assert c.contains((2, 3, 0))
        assert not c.contains((2, 3, 1))
        assert not c.contains((-1, 0, 0))


class TestFaces:
    def test_quadrant_rays(self, quadrant):
        faces = quadrant.faces(1)
        assert [f.ray_indices for f in faces] == [(0,), (1,)]

    def test_square_cone_two_faces(self, square_cone):
        faces = square_cone.faces(2)
        assert len(faces) == 4
        # exactly the four adjacent ray pairs; never the two diagonals
        def idx(v):
            return square_cone.rays.index(v)
        adjacent = {
            tuple(sorted((idx((1, 0, 1)), idx((0, 1, 1))))),
            tuple(sorted((idx((0, 1, 1)), idx((-1, 0, 1))))),
            tuple(sorted((idx((-1, 0, 1)), idx((0, -1, 1))))),
            tuple(sorted((idx((0, -1, 1)), idx((1, 0, 1))))),
        }
        assert {f.ray_indices for f in faces} == adjacent

    def test_full_face_is_cone(self, square_cone):
        top = square_cone.faces(3)
        assert len(top) == 1
        assert top[0].ray_indices == tuple(range(4))

    def test_zero_face(self, quadrant):
        assert [f.ray_indices for f in quadrant.faces(0)] == [()]

    def test_out_of_range(self, quadrant):
        with pytest.raises(ValueError, match="out of range"):
            quadrant.faces(3)

    def test_face_counts_simplicial(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert [len(c.faces(k)) for k in range(4)] == [1, 3, 3, 1]

    def test_face_counts_square(self, square_cone):
        assert [len(square_cone.faces(k)) for k in range(4)] == [1, 4, 4, 1]

    def test_faces_closed_under_intersection(self, square_cone):
        sets = [frozenset(f.ray_indices) for k in range(4) for f in square_cone.faces(k)]
        for a in sets:
            for b in sets:
                assert a & b in sets


class TestIntersect:
    def test_shared_ray(self, quadrant):
        other = Cone.from_rays(2, [(0, 1), (-1, 0)])
        assert quadrant.intersect(other).rays == ((0, 1),)

    def test_idempotent(self, quadrant, square_cone):
        assert quadrant.intersect(quadrant) == quadrant
        assert square_cone.intersect(square_cone) == square_cone

    def test_commutative_and_monotone(self):
        rng = random.Random(7)
        for _ in range(40):
            gens1 = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
            gens2 = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
            c1 = Cone.from_rays(3, gens1)
            c2 = Cone.from_rays(3, gens2)
            meet = c1.intersect(c2)
            assert meet == c2.intersect(c1)
            for r in meet.rays:
                assert c1.contains(r) and c2.contains(r)

    def test_full_dimensional_overlap(self):
        c1 = Cone.from_rays(2, [(1, 0), (1, 2)])
        c2 = Cone.from_rays(2, [(1, 1), (0, 1)])
        meet = c1.intersect(c2)
        assert meet.rays == ((1, 1), (1, 2))
        # interior point of both witnesses the bad overlap
        assert c1.contains((2, 3)) and c2.contains((2, 3))

    def test_ray_limit_is_a_resource_limit(self, monkeypatch, square_cone):
        other = Cone.from_rays(3, [(1, 1, 1), (-1, 1, 1), (0, -1, 1)])
        assert square_cone.intersect(other).dim == 3
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 2)
        calls = [lambda: square_cone.intersect(other), lambda: square_cone.meet_rays(other),
                 lambda: other.meet_rays(square_cone),
                 lambda: Cone.from_inequalities(3, square_cone.span_equations, square_cone.facet_normals)]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="2-ray limit") as info:
                call()
            assert not isinstance(info.value, InvariantError)

    def test_zero_cone_meets_everything_in_zero(self):
        # The zero cone has no rays and no facets: its double description
        # must start from that pair, not from the whole space.
        zero = Cone.from_rays(2, [(1, 0)]).intersect(Cone.from_rays(2, [(-1, 0)]))
        assert zero.rays == () and zero.dim == 0 and zero.facet_normals == ()
        c = Cone.from_rays(2, [(1, 0), (1, 2)])
        assert zero.meet_rays(c) == c.meet_rays(zero) == ()
        for meet in (zero.intersect(c), c.intersect(zero), zero.intersect(zero)):
            assert (meet.rays, meet.dim, meet.span_equations, meet.facet_normals, meet._incidence) == \
                ((), 0, ((1, 0), (0, 1)), (), ())
        half_line = Cone.from_rays(1, [(1,)])
        opposite = Cone.from_rays(1, [(-1,)])
        assert half_line.meet_rays(half_line) == ((1,),)
        meet = half_line.intersect(half_line)
        assert (meet.rays, meet.dim, meet.facet_normals, meet._incidence) == (((1,),), 1, ((1,),), (0,))
        assert half_line.meet_rays(opposite) == opposite.meet_rays(half_line) == ()
        assert half_line.intersect(opposite).dim == 0

    def test_iterator_rows_give_the_same_cone_in_one_run(self, monkeypatch, square_cone):
        # Both row lists are read once; an exhausted iterator of equalities
        # would still be truthy and send the read-off to a second, cold run.
        runs = []
        dd = cone_module._double_description
        monkeypatch.setattr(cone_module, "_double_description", lambda *a, **k: runs.append(a) or dd(*a, **k))
        back = Cone.from_inequalities(3, iter(square_cone.span_equations), iter(square_cone.facet_normals))
        assert (back.rays, back.dim, back.span_equations, back.facet_normals, back._incidence) == \
            (square_cone.rays, 3, (), square_cone.facet_normals, square_cone._incidence)
        assert len(runs) == 1
        flat = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0)])
        assert Cone.from_inequalities(3, (e for e in flat.span_equations), flat.facet_normals) == flat

    @pytest.mark.parametrize("where", ["last", "first", "both"])
    def test_zero_rows_give_the_same_cone_in_one_run(self, monkeypatch, square_cone, where):
        # A zero row vanishes on every ray but cuts nothing: it is no implicit
        # equality, so it sends the read-off to no second run, and its tight
        # set, every ray, is no facet.
        runs = []
        dd = cone_module._double_description
        monkeypatch.setattr(cone_module, "_double_description", lambda *a, **k: runs.append(a) or dd(*a, **k))
        zero, normals = [(0, 0, 0)], list(square_cone.facet_normals)
        rows = {"last": normals + zero, "first": zero + normals, "both": zero + normals + zero}[where]
        back = Cone.from_inequalities(3, [], rows)
        assert len(runs) == 1
        plain = Cone.from_inequalities(3, [], normals)
        for cone in (back, plain):
            assert (cone.rays, cone.dim, cone.span_equations, cone.facet_normals, cone._incidence) == \
                (square_cone.rays, 3, (), square_cone.facet_normals, square_cone._incidence)

    def test_zero_row_beside_an_implicit_equality_still_runs_again(self, monkeypatch):
        runs = []
        dd = cone_module._double_description
        monkeypatch.setattr(cone_module, "_double_description", lambda *a, **k: runs.append(a) or dd(*a, **k))
        flat = Cone.from_inequalities(3, [], [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(runs) == 2
        assert flat == Cone.from_rays(3, [(0, 1, 0), (0, 0, 1)]) and flat.dim == 2

    def test_zero_intersection(self):
        c1 = Cone.from_rays(2, [(1, 0)])
        c2 = Cone.from_rays(2, [(-1, 1)])
        meet = c1.intersect(c2)
        assert meet.rays == () and meet.dim == 0


class TestIsFaceOf:
    def test_ray_of_quadrant(self, quadrant):
        assert Cone.from_rays(2, [(1, 0)]).is_face_of(quadrant)

    def test_interior_ray_is_not_a_face(self, quadrant):
        assert not Cone.from_rays(2, [(1, 1)]).is_face_of(quadrant)

    def test_cone_is_its_own_face(self, square_cone):
        assert square_cone.is_face_of(square_cone)

    def test_zero_cone_is_a_face(self, quadrant):
        meet = Cone.from_rays(2, [(1, 0)]).intersect(Cone.from_rays(2, [(0, 1)]))
        assert meet.is_face_of(quadrant)

    def test_two_face_of_square(self, square_cone):
        edge = Cone.from_rays(3, [(1, 0, 1), (0, 1, 1)])
        assert edge.is_face_of(square_cone)
        diagonal = Cone.from_rays(3, [(1, 0, 1), (-1, 0, 1)])
        assert not diagonal.is_face_of(square_cone)


def _random_cone(rng, d, k):
    """A full-dimensional cone on k random generators; the last coordinate keeps it pointed."""
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.randint(1, 3),) for _ in range(k)]
        cone = Cone.from_rays(d, gens)
        if cone.dim == d:
            return cone


def _face_by_lp(face, cone):
    """The LP definition: the rays nest, and some functional vanishes on the
    face and is positive on every other ray of the cone."""
    if not set(face.rays) <= set(cone.rays):
        return False
    outside = [r for r in cone.rays if r not in face.rays]
    return feasible_by_vertex_enumeration(cone.ambient_rank, list(face.rays), outside)


class TestFaceLatticeDifferential:
    """``is_face_of`` (a face-lattice lookup) against the LP definition, and
    ``meet_rays`` against ``intersect``, on seeded random cones."""

    @pytest.mark.parametrize("d, sizes, seed", [(3, (3, 4, 5, 6, 4, 5, 6), 31), (4, (5, 6), 41)])
    def test_face_cones_and_ray_subsets(self, d, sizes, seed):
        rng = random.Random(seed)
        verdicts = set()
        for k in sizes:
            cone = _random_cone(rng, d, k)
            for j in range(d + 1):
                for face in cone.faces(j):
                    sub = Cone._from_primitive(d, [cone.rays[i] for i in face.ray_indices])
                    assert sub.is_face_of(cone) and _face_by_lp(sub, cone), (cone, face)
            for size in range(2, len(cone.rays)):
                sub = Cone.from_rays(d, rng.sample(cone.rays, size))
                verdict = sub.is_face_of(cone)
                assert verdict == _face_by_lp(sub, cone), (cone, sub)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("d, k, count, seed", [
        (3, 5, 8, 32), (3, 6, 6, 33), (4, 4, 8, 42), (4, 5, 6, 44), (4, 6, 6, 52),
    ])
    def test_pairwise_meets(self, d, k, count, seed):
        rng = random.Random(seed)
        cones = [_random_cone(rng, d, k) for _ in range(count)]
        verdicts = set()
        for a, b in combinations(cones, 2):
            rays = a.meet_rays(b)
            meet = a.intersect(b)
            assert rays == b.meet_rays(a) == meet.rays
            for cone in (a, b):
                verdict = meet.is_face_of(cone)
                assert verdict == _face_by_lp(meet, cone), (a, b)
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestMeetGrowthPair:
    """A pair of non-simplicial 3-D cones whose meet, by successive halfspace
    cuts that kept every straddling combination, grew 6 -> 3.6 M generators
    over six cuts and took about 88 s (``bench/NOTES.md``, "Deadlines")."""

    A = ((-2, 3, 3), (-1, -4, 2), (-1, -1, 1), (-1, 0, 1), (0, 2, 1), (4, 2, 1))
    B = ((-4, 4, 1), (-3, -2, 3), (-2, 3, 1), (0, -3, 2), (1, 1, 1), (4, -2, 3))

    def test_meet_is_exact_within_budget(self):
        a, b = Cone.from_rays(3, self.A), Cone.from_rays(3, self.B)
        start = time.perf_counter()
        rays = a.meet_rays(b)
        elapsed = time.perf_counter() - start
        assert rays == b.meet_rays(a) == brute_force_meet(3, self.A, self.B)
        assert len(rays) == 8
        assert elapsed < 0.1, f"the meet took {elapsed:.3f}s"


class TestClassifyPosition:
    """A point is beneath, on or beyond a facet as the inward normal is
    positive, zero or negative on it."""

    def test_rays_off_a_facet_classify_beneath(self, square_cone, quadrant):
        # forced by the inward orientation of facet normals
        for cone in (square_cone, quadrant):
            for normal in cone.facet_normals:
                assert all(dot(normal, ray) >= 0 for ray in cone.rays)
                assert any(dot(normal, ray) > 0 for ray in cone.rays)


class TestRoundTrip:
    def fixtures(self):
        yield Cone.from_rays(2, [(1, 0), (0, 1)])
        yield Cone.from_rays(2, [(1, 0), (1, 2)])
        yield Cone.from_rays(3, SQUARE_RAYS)
        yield Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        yield Cone.from_rays(3, [(1, 0, 0), (0, 1, 0)])
        yield Cone.from_rays(3, [(0, 0, 1)])
        yield Cone.from_rays(4, [(1, 1, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1)])

    def test_rays_to_facets_to_rays(self):
        for cone in self.fixtures():
            back = Cone.from_inequalities(cone.ambient_rank, cone.span_equations, cone.facet_normals)
            assert back == cone, cone

    def test_normals_and_facets_align(self):
        # egyptian.PyramidalClassification zips the base cone's facet_normals with facets().
        rng = random.Random(43)
        random_cones = [_random_cone(rng, d, k) for d, k in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7))]
        for cone in list(self.fixtures()) + random_cones:
            facets = cone.facets()
            assert len(facets) == len(cone.facet_normals), cone
            for normal, facet in zip(cone.facet_normals, facets):
                on = tuple(i for i, r in enumerate(cone.rays) if dot(normal, r) == 0)
                assert on == facet.ray_indices, (cone, normal)

    def test_every_normal_supports_a_facet(self):
        for cone in self.fixtures():
            for normal in cone.facet_normals:
                values = [dot(normal, r) for r in cone.rays]
                assert all(v >= 0 for v in values)
                incident = [cone.rays[i] for i, v in enumerate(values) if v == 0]
                from toricfan.exactlin import matrix_rank
                if cone.dim >= 1:
                    assert matrix_rank(incident) == cone.dim - 1 if incident else cone.dim == 1
