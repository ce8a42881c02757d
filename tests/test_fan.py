"""Fans: validation, completeness, stars, quotients, walls, isomorphism."""

import random
from itertools import product

import pytest

import toricfan.fan as fan_module
from toricfan import divisor, exactlin
from oracles import wall_criterion_complete
from toricfan.cone import Cone
from toricfan.egyptian import classify_pyramidal, egyptian_report, small_modification
from toricfan.errors import InvariantError
from toricfan.exactlin import dot, hermite_normal_form, primitive, transpose
from toricfan.fan import Fan, Wall, WallCurveKind
from toricfan.families import projective_space_fan, yu_fan


class TestValidation:
    def test_p1(self, p1_fan):
        assert len(p1_fan.max_cones) == 2

    def test_p2(self, p2_fan):
        assert len(p2_fan.walls) == 3

    def test_overlapping_cones_rejected(self):
        with pytest.raises(ValueError, match="overlap badly"):
            Fan.from_cones(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [[0, 1], [2, 3]])

    def test_nested_cones_rejected(self):
        with pytest.raises(ValueError, match="redundant maximal cone"):
            Fan.from_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]])

    def test_unused_ray_rejected(self):
        with pytest.raises(ValueError, match="does not appear"):
            Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]])

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(ValueError, match="not primitive"):
            Fan.from_cones(2, [(2, 0), (0, 1)], [[0, 1]])

    def test_non_extreme_listed_generator_rejected(self):
        with pytest.raises(ValueError, match="non-extreme"):
            Fan.from_cones(2, [(1, 0), (1, 1), (0, 1)], [[0, 1, 2]])

    def test_order_independence(self, p2_fan):
        rng = random.Random(3)
        cones = [list(mc) for mc in p2_fan.max_cones]
        for _ in range(5):
            rng.shuffle(cones)
            shuffled = Fan.from_cones(2, p2_fan.rays, cones)
            assert shuffled.is_complete()
            assert {w.ray_indices for w in shuffled.walls} == {w.ray_indices for w in p2_fan.walls}


class TestCompleteness:
    def test_p2_complete(self, p2_fan):
        assert p2_fan.is_complete()

    def test_p2_minus_cone_incomplete(self, p2_fan):
        partial = Fan.from_cones(2, p2_fan.rays, [[0, 1], [0, 2]])
        assert not partial.is_complete()

    def test_p1xp1_and_p3(self, p1xp1_fan, p3_fan):
        assert p1xp1_fan.is_complete()
        assert p3_fan.is_complete()

    def test_single_cone_incomplete(self):
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        assert not f.is_complete()


class TestStar:
    def test_p2_star_sizes(self, p2_fan):
        for ray in range(3):
            assert len(p2_fan.star(ray)) == 2

    def test_single_cone(self):
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        assert f.star(0) == (0,)

    def test_unknown_ray(self, p2_fan):
        with pytest.raises(ValueError, match="unknown ray"):
            p2_fan.star(7)


class TestQuotient:
    def test_single_cone_quotient(self):
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        q = f.quotient(0)
        assert q.ambient_rank == 1
        assert q.max_cones == ((0,),)

    def test_quotient_cone_count_matches_star(self, p3_fan):
        for ray in range(len(p3_fan.rays)):
            q = p3_fan.quotient(ray)
            assert len(q.max_cones) == len(p3_fan.star(ray))

    def test_one_dimensional_fan_has_no_quotient(self, p1_fan):
        with pytest.raises(ValueError, match="dimension at least 2, not 1"):
            p1_fan.quotient(0)

    def test_p3_quotient_is_p2(self, p3_fan):
        q = p3_fan.quotient(0)
        assert q.isomorphism(projective_space_fan(2)) is not None

    def test_quotient_is_memoized_per_ray(self, p3_fan):
        for ray in range(len(p3_fan.rays)):
            assert p3_fan.quotient(ray) is p3_fan.quotient(ray)
        assert p3_fan.quotient(0) is not p3_fan.quotient(1)

    def test_section_is_the_inverse_read_by_the_old_hermite_form(self):
        rng = random.Random(3601)
        for n in range(2, 7):
            for bound in [1] * 20 + [9] * 40 + [99] * 20:
                v = [0] * n
                while not any(v):
                    v = [rng.randint(-bound, bound) for _ in range(n)]
                v = primitive(v)
                _, u = hermite_normal_form([v])
                _, w = hermite_normal_form(transpose(u))  # (U^T)^-1, the section's old source
                proj_rows, section = fan_module._quotient_lattice(v)
                assert section == tuple(tuple(row[j] for row in w) for j in range(1, n))
                assert proj_rows == tuple(tuple(row[j] for row in u) for j in range(1, n))
                assert all(dot(row, v) == 0 for row in proj_rows)

    def test_section_lift_is_rechecked(self, monkeypatch):
        eliminate = exactlin._eliminate

        def flipped(work, cols):  # the right pivots, and one lift's sign wrong
            pivots = eliminate(work, cols)
            work[1][cols:] = [-x for x in work[1][cols:]]
            return pivots

        fan = Fan.from_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                             [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        monkeypatch.setattr(exactlin, "_eliminate", flipped)  # the one the lattice block runs
        fan_module._quotient_lattice.cache_clear()  # the cache is process-wide
        with pytest.raises(InvariantError, match="section does not lift"):
            fan.quotient(0)
        assert fan_module._quotient_lattice.cache_info().currsize == 0 and fan._quotients == {}

    def test_lattice_is_memoized_per_ray_vector(self, monkeypatch):
        fan = yu_fan(3, 1).fan
        refined = small_modification(fan, 0).fan
        fresh = Fan.from_cones(*as_case(fan))  # equal to fan, with no quotient memoized
        fan_module._quotient_lattice.cache_clear()  # the cache is process-wide
        calls = count_hermite_forms(monkeypatch)
        for each in (fan, refined, fresh):
            for ray in range(len(fan.rays)):
                each.quotient(ray)
            assert calls == [[r] for r in fan.rays]  # one completion per ray vector

    def test_ray_that_is_a_maximal_cone_has_the_zero_quotient(self, monkeypatch):
        fan = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]])
        built = count_builds(monkeypatch)
        for _ in range(2):  # raised on every call: errors are not memoized
            with pytest.raises(ValueError, match="^ray 2 is itself a maximal cone: its star "
                                                 "quotient is the zero fan, which a Fan cannot hold$"):
                fan.quotient(2)
        assert built == []  # raised before any cone is built
        assert fan.quotient(0).max_cones == ((0,),)


class TestWalls:
    def test_complete_fan_walls_projective(self, p2_fan, p1xp1_fan, p3_fan, yu_grid):
        fans = [p2_fan, p1xp1_fan, p3_fan, yu_grid(3, 2).fan, yu_grid(4, 1).fan]
        for fan in fans:
            assert fan.walls
            for w in fan.walls:
                assert fan.wall_kind(w) is WallCurveKind.PROJECTIVE

    def test_affine_wall(self):
        f = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        w = f.find_wall([0])
        assert f.wall_kind(w) is WallCurveKind.AFFINE

    def test_torus_wall(self):
        f = Fan.from_cones(2, [(1, 0)], [[0]])
        (w,) = f.walls
        assert w.ray_indices == (0,)
        assert f.wall_kind(w) is WallCurveKind.TORUS

    def test_wrong_dimension_rejected(self, p2_fan):
        from toricfan.fan import Wall
        with pytest.raises(ValueError, match="dimension n-1"):
            p2_fan.wall_kind(Wall((0, 1), 2, (0,)))


class TestIsomorphism:
    def test_reflexive(self, p2_fan, p1xp1_fan, p3_fan):
        for fan in (p2_fan, p1xp1_fan, p3_fan):
            iso = fan.isomorphism(fan)
            assert iso is not None

    def test_permuted_p2(self, p2_fan):
        permuted = Fan.from_cones(2, [(0, 1), (-1, -1), (1, 0)], [[0, 2], [0, 1], [1, 2]])
        iso = p2_fan.isomorphism(permuted)
        assert iso is not None
        # the witness actually maps rays onto rays
        for i, j in enumerate(iso.ray_map):
            image = tuple(sum(row[k] * p2_fan.rays[i][k] for k in range(2)) for row in iso.matrix)
            assert image == permuted.rays[j]

    def test_symmetry(self, p2_fan):
        permuted = Fan.from_cones(2, [(0, 1), (-1, -1), (1, 0)], [[0, 2], [0, 1], [1, 2]])
        assert permuted.isomorphism(p2_fan) is not None

    def test_different_ray_counts(self, p2_fan, p1xp1_fan):
        assert p2_fan.isomorphism(p1xp1_fan) is None
        assert p1xp1_fan.isomorphism(p2_fan) is None

    def test_invariant_under_recoordinatization(self, p2_fan):
        # apply the unimodular map (x, y) -> (x + y, y)
        def remap(v):
            return (v[0] + v[1], v[1])
        from toricfan.exactlin import primitive
        rays = [primitive(remap(r)) for r in p2_fan.rays]
        moved = Fan.from_cones(2, rays, [list(mc) for mc in p2_fan.max_cones])
        assert p2_fan.isomorphism(moved) is not None
        assert moved.isomorphism(p2_fan) is not None

    def test_weighted_not_isomorphic_to_smooth(self, p2_fan, weighted_p112_fan):
        assert p2_fan.isomorphism(weighted_p112_fan) is None

    def test_image_under_a_non_unimodular_map(self, p1xp1_fan):
        # [[1, 1], [1, -1]] (det -2) carries the rays of P^1 x P^1 onto (+-1, +-1)
        # and its cones onto cones: the valences agree and an integral matrix maps
        # rays to rays, so only the unimodularity check rejects it.
        rays = [(1, 1), (1, -1), (-1, -1), (-1, 1)]
        rotated = Fan.from_cones(2, rays, [list(mc) for mc in p1xp1_fan.max_cones])
        assert rotated.is_complete()
        assert p1xp1_fan.isomorphism(rotated) is None
        assert rotated.isomorphism(p1xp1_fan) is None

    def test_orientation_reversing_map_is_accepted(self):
        # A smooth complete surface with self-intersections -1, -1, -3, -1, -2, -1, 0 around
        # its rays: no symmetry of that cycle, so the only map onto its mirror image is the
        # mirror itself, of det -1.  The search compares |det S| with the pivot d.
        rays = [(1, 0), (1, 1), (0, 1), (-1, 2), (-1, 1), (-1, 0), (0, -1)]
        cones = [[i, (i + 1) % 7] for i in range(7)]
        fan = Fan.from_cones(2, rays, cones)
        mirror = Fan.from_cones(2, [(x, -y) for x, y in rays], cones)
        for source, target in ((fan, mirror), (mirror, fan)):
            iso = source.isomorphism(target)
            assert iso is not None and iso.matrix == ((1, 0), (0, -1))
            assert iso.ray_map == tuple(range(7))

    def test_runs_no_hermite_form(self, monkeypatch, p1xp1_fan):
        # R^-1 and d come from one elimination and |det S| from another, so accepted and
        # rejected maps alike run no Hermite form (the quotients, whose completions do, are
        # built before counting starts).
        pairs = [(yu_fan(n, u).fan.quotient(0), projective_space_fan(n - 1)) for n in (3, 4, 5) for u in (1, 2)]
        rotated = Fan.from_cones(2, [(1, 1), (1, -1), (-1, -1), (-1, 1)], [list(mc) for mc in p1xp1_fan.max_cones])
        calls = count_hermite_forms(monkeypatch)
        dets = []
        abs_det = fan_module._abs_det
        monkeypatch.setattr(fan_module, "_abs_det", lambda m: dets.append(m) or abs_det(m))
        assert all(q.isomorphism(pn) is not None for q, pn in pairs)
        assert p1xp1_fan.isomorphism(rotated) is None
        assert calls == [] and len(dets) >= len(pairs) + 1

    def test_invariants_rejected_before_the_search(self, p1_fan, p2_fan):
        # Equal ray and cone counts throughout; each pair differs first in the ambient
        # rank, then in the cone sizes (1 and 2 against 2 and 2), then in the valences
        # (cones of sizes 3, 3 and 2: rays 0 and 1 in two cones against ray 0 in three).
        sizes = (Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]]),
                 Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]]))
        valences = (Fan.from_cones(3, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (-1, -1, -1)],
                                   [[0, 1, 2], [0, 1, 3], [4, 5]]),
                    Fan.from_cones(3, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, -1, -1)],
                                   [[0, 1, 2], [0, 3, 4], [0, 5]]))
        for source, target in ((p1_fan, p2_fan), sizes, valences):
            assert source.isomorphism(target) is None and target.isomorphism(source) is None

    def test_rays_mapped_onto_rays_but_not_the_cones(self):
        # (1, 0), (0, 1), (-1, -2) satisfy one relation, l_0 + 2 l_1 + l_2 = 0, so the
        # maps that permute them are the identity and the swap of rays 0 and 2.  Both
        # carry every ray onto a ray, and neither carries the cones {0, 1}, {2} onto
        # {0, 2}, {1}.
        rays = [(1, 0), (0, 1), (-1, -2)]
        source, target = Fan.from_cones(2, rays, [[0, 1], [2]]), Fan.from_cones(2, rays, [[0, 2], [1]])
        assert source.isomorphism(target) is None and target.isomorphism(source) is None
        swapped = Fan.from_cones(2, rays, [[1, 2], [0]])
        assert source.isomorphism(swapped).ray_map == (2, 1, 0)

    def test_spanning_against_non_spanning(self):
        # Same ray and cone counts, cone sizes and valences.  From the spanning side the
        # search runs and accepts no map, since a unimodular map keeps the rays spanning;
        # from the other side the pivot pass finds too few pivots.
        spanning = Fan.from_cones(2, [(1, 0), (0, 1)], [[0], [1]])
        line = Fan.from_cones(2, [(1, 0), (-1, 0)], [[0], [1]])
        assert spanning.isomorphism(line) is None
        assert line.isomorphism(spanning) is None


class TestProjectiveSpaceFan:
    def test_small_cases(self):
        for d in (1, 2, 3, 4):
            f = projective_space_fan(d)
            assert len(f.rays) == d + 1
            assert len(f.max_cones) == d + 1
            assert f.is_complete()


def count_hermite_forms(monkeypatch) -> list:
    """Count every Hermite form run from now on, wherever the library looks it up."""
    calls = []
    hermite = exactlin.hermite_normal_form
    for module in (exactlin, fan_module, divisor):
        monkeypatch.setattr(module, "hermite_normal_form", lambda m: calls.append(m) or hermite(m), raising=False)
    return calls


def cube_face_fan(d):
    rays = list(product([-1, 1], repeat=d))
    cones = [[i for i, r in enumerate(rays) if r[axis] == sign] for axis in range(d) for sign in (-1, 1)]
    return d, rays, cones


def cross_polytope_fan(d):
    rays = [tuple(sign * int(i == j) for j in range(d)) for i in range(d) for sign in (1, -1)]
    cones = [[2 * i + side for i, side in enumerate(sides)] for sides in product((0, 1), repeat=d)]
    return d, rays, cones


def as_case(fan):
    return fan.ambient_rank, fan.rays, [list(mc) for mc in fan.max_cones]


def random_face_fan(rng: random.Random, d: int, box: int = 3):
    """The face fan of the hull of d + 3 to d + 7 random points in
    [-box, box]^d, or None when the origin is not inside the hull: a complete
    fan, and a projective one.  A small box puts many points on one facet."""
    points = {tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(rng.randint(d + 3, d + 7))}
    hull = Cone.from_rays(d + 1, [p + (1,) for p in points])
    if hull.dim < d + 1 or any(m[d] <= 0 for m in hull.facet_normals):
        return None
    rays = [primitive(v[:d]) for v in hull.rays]
    return Fan.from_cones(d, rays, [[i for i in range(len(rays)) if inc >> i & 1] for inc, _ in hull.facet_pairs()])


def random_cone_subset(rng: random.Random, fan):
    """The fan on a random proper subset of the fan's maximal cones,
    reindexed to the rays they use: an incomplete fan."""
    kept = sorted(rng.sample(fan.max_cones, rng.randint(1, len(fan.max_cones) - 1)))
    used = sorted({i for mc in kept for i in mc})
    cones = [[used.index(i) for i in mc] for mc in kept]
    return Fan.from_cones(fan.ambient_rank, [fan.rays[i] for i in used], cones)


def random_complete_threefolds(seed: int, count: int):
    """Seeded complete 3-D fans: the face fan of the hull of 6-10 random
    points in [-3, 3]^3 around the origin (``random_face_fan``), then 0-6
    random 2-2 flips, where cones (x, y, c) and (x, y, d) become (x, c, d)
    and (y, c, d).  A flip is kept only when ``Fan.from_cones`` validates the
    result and it is complete, so flips can leave the projective fans."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        fan = random_face_fan(rng, 3)
        if fan is None:
            continue
        rays = fan.rays
        for _ in range(rng.randint(0, 6)):
            wall = rng.choice(fan.walls)
            pair = [fan.max_cones[j] for j in wall.incident]
            if len(wall.ray_indices) != 2 or any(len(mc) != 3 for mc in pair):
                continue
            x, y = wall.ray_indices
            (c,), (d,) = (set(mc) - {x, y} for mc in pair)
            cones = [list(mc) for j, mc in enumerate(fan.max_cones) if j not in wall.incident]
            try:
                flipped = Fan.from_cones(3, rays, cones + [[x, c, d], [y, c, d]])
            except ValueError:
                continue
            if flipped.is_complete():
                fan = flipped
        fans.append(fan)
    return fans


@pytest.fixture(scope="module")
def random_threefolds():
    return random_complete_threefolds(seed=5, count=6)


def attributes(cone):
    """Every attribute of a cone, the facet incidences included."""
    return (cone.ambient_rank, cone.rays, cone.dim, cone.span_equations, cone.facet_normals,
            cone.facet_pairs())


def derived_cones(fan, ray):
    """The base and update of every Pyramidal star cone of the ray, and the
    cones of the quotient fan by it."""
    n = fan.ambient_rank
    pieces = []
    for ci in fan.star(ray):
        if fan.cones[ci].dim == n:
            cls = classify_pyramidal(fan.cones[ci], fan.rays[ray])
            if cls.splits:
                pieces += cls.pieces
    return pieces + list(fan.quotient(ray).cones if n > 1 else ())


# Five rays around the origin, each cone joining every second one: every ray
# is a facet of two cones on opposite sides, but the cones wind twice.
PENTAGRAM = (2, [(5, 2), (0, 1), (-5, 2), (-3, -4), (3, -4)], [[0, 2], [1, 3], [2, 4], [3, 0], [4, 1]])

OCTAHEDRON_RAYS = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0)]

BROKEN = {
    "overlap": (2, [(1, 0), (1, 2), (1, 1), (0, 1)], [[0, 1], [2, 3]]),
    "nested": (2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]]),
    "duplicate": (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [0, 2], [1, 2], [0, 1]]),
    # The upper cone over (x, y) meets two lower cones split at x + y.
    "subdivided_wall": (3, OCTAHEDRON_RAYS, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
                                             [0, 6, 5], [6, 1, 5], [1, 2, 5], [2, 3, 5], [3, 0, 5]]),
    "lower_dimensional": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [[0, 1], [0, 2], [1, 2], [3]]),
    "face_as_cone": (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [0, 2], [1, 2], [2]]),
    "pentagram": PENTAGRAM,
    # A cone listed twice inside another: every facet lies in exactly two
    # cones and the generic point from cone 0 in one, but the two copies lie
    # on the same side of their facets.
    "doubled_inside": (2, [(1, 0), (0, 1), (-1, -1), (-1, 1), (-2, -1)],
                       [[0, 1], [1, 2], [0, 2], [3, 4], [3, 4]]),
}

BROKEN_ERRORS = {
    "overlap": "not a fan: cones 0,1 overlap badly",
    "nested": "redundant maximal cone: 0 and 1 are nested",
    "duplicate": "redundant maximal cone: 0 and 3 are nested",
    "subdivided_wall": "not a fan: cones 0,4 overlap badly",
    "lower_dimensional": "redundant maximal cone: 0 and 3 are nested",
    "face_as_cone": "redundant maximal cone: 1 and 3 are nested",
    "pentagram": "not a fan: cones 0,1 overlap badly",
    "doubled_inside": "redundant maximal cone: 1 and 3 are nested",
}


def outcome(case):
    """The ValueError text, or max cones, walls and completeness."""
    n, rays, cones = case
    try:
        fan = Fan.from_cones(n, rays, cones)
    except ValueError as exc:
        return str(exc)
    return fan.max_cones, fan.walls, fan.is_complete()


def both_checks(case):
    """The outcome with the wall check, whether it accepted, and the
    outcome of the pairwise check alone."""
    accepted = []
    wall_check = fan_module._covers_once

    def spy(*args):
        accepted.append(wall_check(*args))
        return accepted[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_module, "_covers_once", spy)
        fast = outcome(case)
        mp.setattr(fan_module, "_covers_once", lambda *args: False)
        pairwise = outcome(case)
    return fast, accepted == [True], pairwise


def subset_scan_walls(fan):
    """Walls from the face lattices, incident cones by a ray-subset scan."""
    n = fan.ambient_rank
    full = [j for j, cone in enumerate(fan.cones) if cone.dim == n]
    keys = {tuple(sorted(fan.rays.index(fan.cones[j].rays[k]) for k in face.ray_indices))
            for j in full for face in fan.cones[j].faces(n - 1)}
    keys |= {mc for mc, cone in zip(fan.max_cones, fan.cones) if cone.dim == n - 1}
    return tuple(Wall(key, n - 1, tuple(j for j in full if set(key) <= set(fan.max_cones[j])))
                 for key in sorted(keys))


class TestWallCheck:
    """The wall check against the pairwise check it short-cuts."""

    def valid_fans(self, request):
        fixtures = ["p1_fan", "p2_fan", "p3_fan", "p1xp1_fan", "weighted_p112_fan",
                    "suspension_fan", "cube_suspension_fan"]
        fans = [request.getfixturevalue(name) for name in fixtures]
        yu_grid = request.getfixturevalue("yu_grid")
        for n in range(3, 7):
            for u in range(1, 4):
                yu = yu_grid(n, u)
                fans += [yu.fan, small_modification(yu.fan, yu.e_index()).fan, yu.fan.quotient(0)]
        fans += [Fan.from_cones(*case) for case in (cube_face_fan(3), cube_face_fan(4), cross_polytope_fan(4))]
        return fans + request.getfixturevalue("random_threefolds")

    def test_valid_fans_agree(self, request, random_threefolds):
        fans = self.valid_fans(request)
        assert len(fans) == 46 + len(random_threefolds)
        for fan in fans:
            fast, accepted, pairwise = both_checks(as_case(fan))
            assert fast == (fan.max_cones, fan.walls, True)
            # Forcing the wall check to False also forces the kept verdict.
            assert pairwise[:2] == fast[:2]
            assert accepted, fan
            assert fan.walls == subset_scan_walls(fan)

    def test_completeness_matches_the_wall_criterion(self, request, yu_grid, p2_fan):
        from test_divisor import random_complete_surface_fans  # test_divisor imports this module

        surfaces = random_complete_surface_fans(seed=7, count=40)
        yu = yu_grid(4, 2).fan
        incomplete = [Fan.from_cones(*case) for case in (
            (4, yu.rays, [list(mc) for mc in yu.max_cones[1:]]),
            (2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]]),
            (2, [(1, 0), (0, 1)], [[0, 1]]),
            (2, [(1, 0)], [[0]]),
            (2, p2_fan.rays, [[0, 1], [0, 2]]),
        )]
        incomplete += [Fan.from_cones(2, fan.rays, fan.max_cones[1:]) for fan in surfaces]
        for fan in self.valid_fans(request) + surfaces + incomplete:
            assert fan.is_complete() == wall_criterion_complete(fan), fan
        assert not any(fan.is_complete() for fan in incomplete)

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_inputs_keep_pairwise_errors(self, name):
        fast, accepted, pairwise = both_checks(BROKEN[name])
        assert not accepted
        assert isinstance(fast, str) and fast == pairwise
        assert fast.startswith(BROKEN_ERRORS[name])

    def test_incomplete_fans_fall_back(self, yu_grid):
        yu = yu_grid(4, 2).fan
        cases = [
            (4, yu.rays, [list(mc) for mc in yu.max_cones[1:]]),
            (2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]]),
            (2, [(1, 0), (0, 1)], [[0, 1]]),
        ]
        for case in cases:
            fast, accepted, pairwise = both_checks(case)
            assert fast == pairwise and not accepted
            fan = Fan.from_cones(*case)
            assert not fan.is_complete()
            assert fan.walls == subset_scan_walls(fan)

    def test_pentagram_fails_only_the_degree(self):
        n, rays, cones = PENTAGRAM
        pieces = [Cone.from_rays(n, [rays[i] for i in mc]) for mc in cones]
        for ray in rays:
            normals = [m for cone in pieces for face, m in zip(cone.facets(), cone.facet_normals)
                       if [cone.rays[k] for k in face.ray_indices] == [ray]]
            assert len(normals) == 2
            assert normals[0] == tuple(-x for x in normals[1])
        assert sum(cone.contains((1, 0)) for cone in pieces) == 2

    def test_complete_fans_skip_pairwise_meets(self, monkeypatch):
        yu = yu_fan(6, 2)
        refined = small_modification(yu.fan, yu.e_index()).fan

        def no_meet(self, other):
            raise AssertionError("pairwise check reached")

        monkeypatch.setattr(Cone, "meet_rays", no_meet)
        assert yu_fan(6, 2).fan.walls == yu.fan.walls
        again = Fan.from_cones(*as_case(refined))
        assert again.walls == refined.walls and again.is_complete()


class TestFindWall:
    """``find_wall`` reads the facet map that validation keeps, with no wall list built."""

    def fans(self, request):
        affine = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        torus = Fan.from_cones(2, [(1, 0)], [[0]])
        both = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]])
        return TestWallCheck().valid_fans(request) + [affine, torus, both]

    def test_every_wall_found_before_the_walls_are_built(self, request):
        kinds = set()
        for fan in self.fans(request):
            fresh = Fan.from_cones(*as_case(fan))
            found = [fresh.find_wall(w.ray_indices) for w in fan.walls]
            assert fresh._walls is None
            assert found == list(fan.walls) == list(fresh.walls)
            kinds |= {fan.wall_kind(w) for w in found}
        assert kinds == set(WallCurveKind)

    def test_ray_sets_that_are_not_walls_rejected(self, request):
        for fan in self.fans(request):
            n, wall = fan.ambient_rank, fan.walls[0].ray_indices
            keys = [(-1,), (len(fan.rays),), wall + wall[:1]]
            keys += [mc for mc, cone in zip(fan.max_cones, fan.cones) if cone.dim == n]
            keys += [(i,) for i in range(len(fan.rays)) if n > 2]  # rays below the walls
            for key in keys:
                if key != wall:
                    with pytest.raises(ValueError, match="no wall with rays"):
                        fan.find_wall(key)


def count_builds(monkeypatch):
    """Record the ambient rank of every ``Cone._from_primitive`` call from now
    on: every cone built by a double description of its own, by
    ``Cone.from_rays`` and fan loads alike, goes through it."""
    calls = []
    build = Cone._from_primitive

    def counting(cls, n, generators):
        calls.append(n)
        return build(n, generators)

    monkeypatch.setattr(Cone, "_from_primitive", classmethod(counting))
    return calls


class TestConeReuse:
    """Refined fans and quotients are validated on the cones they were built
    from; rebuilding them from index lists must change nothing."""

    def reused_fans(self, request):
        fixtures = ["p2_fan", "p3_fan", "p1xp1_fan", "weighted_p112_fan", "suspension_fan",
                    "cube_suspension_fan"]
        sources = [request.getfixturevalue(name) for name in ["p1_fan"] + fixtures]
        sources += [Fan.from_cones(*case) for case in (cube_face_fan(3), cross_polytope_fan(3), cross_polytope_fan(4))]
        fans = []
        for fan in sources:
            for ray in range(len(fan.rays)):
                if egyptian_report(fan, ray).verdict:
                    fans.append(small_modification(fan, ray).fan)
                if fan.ambient_rank > 1:
                    fans.append(fan.quotient(ray))
        yu_grid = request.getfixturevalue("yu_grid")
        for n in range(3, 7):
            for u in range(1, 4):
                yu = yu_grid(n, u)
                refined = small_modification(yu.fan, yu.e_index()).fan
                fans += [refined, yu.fan.quotient(yu.e_index()), refined.quotient(yu.e_index())]
        randoms = request.getfixturevalue("random_threefolds")
        return fans + [fan.quotient(ray) for fan in randoms for ray in range(len(fan.rays))]

    def test_rebuilt_from_index_lists_agrees(self, request, random_threefolds):
        fans = self.reused_fans(request)
        assert len(fans) == 130 + sum(len(fan.rays) for fan in random_threefolds)
        for fan in fans:
            again = Fan.from_cones(*as_case(fan))
            assert (again.rays, again.max_cones, again.walls) == (fan.rays, fan.max_cones, fan.walls)
            for cone, fresh in zip(fan.cones, again.cones):
                assert attributes(cone) == attributes(fresh)

    def test_derived_cones_equal_cold_builds(self, yu_grid, random_threefolds):
        # Split pieces and quotient cones are read off the parent's facets;
        # each must be the cone a double description builds on its rays.
        fans = [yu_grid(n, u).fan for n in range(3, 7) for u in range(1, 4)]
        fans += [yu_fan(7, u).fan for u in range(1, 4)] + random_threefolds
        splits = 0
        for fan in fans:
            for ray in range(len(fan.rays)):
                for cone in derived_cones(fan, ray):
                    assert attributes(cone) == attributes(Cone.from_rays(cone.ambient_rank, cone.rays))
                    splits += cone.ambient_rank == fan.ambient_rank
        assert splits > 0

    def test_quotient_of_a_lower_dimensional_star_cone(self, monkeypatch):
        # The flat cone (e1, -e2 - e3) meets the orthant in the ray e1: an
        # incomplete fan whose star at e1 holds a cone of each dimension.
        fan = Fan.from_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)], [[0, 1, 2], [0, 3]])
        built = count_builds(monkeypatch)
        quotient = fan.quotient(0)
        assert built == [2]  # the flat cone's image alone takes the from_rays fallback
        assert [cone.dim for cone in quotient.cones] == [2, 1] and not quotient.is_complete()
        for cone in quotient.cones:
            assert attributes(cone) == attributes(Cone.from_rays(2, cone.rays))

    def test_misaligned_cones_rejected_as_non_extreme(self, p2_fan, yu_grid):
        with pytest.raises(ValueError) as non_extreme:
            Fan.from_cones(2, [(1, 0), (1, 1), (0, 1)], [[0, 1, 2]])
        yu = yu_grid(4, 2)
        for fan in (p2_fan, small_modification(yu.fan, yu.e_index()).fan):
            n, rays, cones = as_case(fan)
            with pytest.raises(ValueError) as misaligned:
                Fan._validated(n, rays, cones, fan.cones[1:] + fan.cones[:1])
            assert str(misaligned.value) == str(non_extreme.value)

    def test_cones_with_rays_off_the_fan_rejected_as_non_extreme(self, p3_fan):
        # Validation looks each ray of a handed-in cone up as a global bit; a
        # ray off the fan must not pass for a listed one, whichever it replaces.
        n, rays, cones = as_case(p3_fan)
        outside = [(1, 1, -1), (1, 2, 3)]
        listed = [rays[i] for i in cones[0]]
        for given in (outside[:1] + listed[1:],           # ray 0 swapped for a foreign one
                      listed + outside[:1],               # every listed ray and one more
                      listed[:1] + outside):              # two foreign rays
            cone = Cone.from_rays(n, given)
            assert set(cone.rays) == set(given)
            with pytest.raises(ValueError) as off_fan:
                Fan._validated(n, rays, cones, [cone] + list(p3_fan.cones[1:]))
            assert str(off_fan.value) == "maximal cone 0 lists a non-extreme generator"

    def test_build_counter_counts_every_cone_of_a_load(self, monkeypatch):
        built = count_builds(monkeypatch)
        for case in (cube_face_fan(3), cross_polytope_fan(4)):
            Fan.from_cones(*case)
        assert built == [3] * 6 + [4] * 16
        Cone.from_rays(2, [(2, 0), (0, 1), (1, 1)])
        assert built[-1] == 2 and len(built) == 23

    def test_small_modification_builds_only_the_pieces(self, yu_grid, monkeypatch):
        fan = yu_grid(6, 2).fan
        egyptian_report(fan, 0)  # the star is classified before counting
        built = count_builds(monkeypatch)
        result = small_modification(fan, 0)
        assert result.split_cones
        assert len(built) == 0  # the pieces are read off their cones' facets

    def test_quotient_builds_one_cone_per_star_cone(self, monkeypatch):
        fan = yu_fan(6, 2).fan  # fresh: a shared fan may hold its quotient already
        built = count_builds(monkeypatch)
        quotient = fan.quotient(0)
        assert len(fan.star(0)) == len(quotient.max_cones)
        assert built == []  # each image is read off its star cone's facets
