"""Facet masks against an incidence read with no double-description bookkeeping.

A cone holds each facet's rays as an int bitmask over its sorted rays, bit i
for ``rays[i]``, built from a run's zero sets, remapped, transposed or read
off a parent cone's masks.  Here every mask is recomputed from scratch: the
rays a facet's normal vanishes on.  ``facets()`` must list the same bits,
and ``has_face`` must agree, on every subset of the rays, with the face sets
``oracles._face_sets`` finds by brute force from brute-force normals.
"""

import random
from itertools import combinations

from oracles import _face_sets, brute_force_facets
from test_cone_build import random_generators
from test_fan import cross_polytope_fan, cube_face_fan, derived_cones
from toricfan.cone import Cone
from toricfan.fan import Fan


def check_incidence(cone):
    rays = cone.rays
    masks = [inc for inc, _ in cone.facet_pairs()]
    for inc, m in cone.facet_pairs():
        assert inc == sum(1 << i for i, r in enumerate(rays) if sum(a * b for a, b in zip(m, r)) == 0), cone
    assert [f.ray_indices for f in cone.facets()] == \
        [tuple(i for i in range(len(rays)) if inc >> i & 1) for inc in masks], cone
    faces = set(_face_sets(rays, brute_force_facets(cone.ambient_rank, rays)[1]))
    for k in range(len(rays) + 1):
        for subset in combinations(rays, k):
            assert cone.has_face(subset) == (frozenset(subset) in faces), (cone, subset)
    assert not cone.has_face(rays + (tuple(-x for x in rays[0]),))


def test_random_cones():
    """Seeded cones in dimensions 2 to 5, lower-dimensional ones included;
    the tally checks that both kinds occur."""
    rng = random.Random(2002)
    seen = {"full-dimensional": 0, "lower-dimensional": 0}
    while min(seen.values()) < 150:
        n, gens = random_generators(rng)
        try:
            cone = Cone.from_rays(n, gens)
        except ValueError:  # no generators, or a line
            continue
        check_incidence(cone)
        seen["full-dimensional" if cone.dim == n else "lower-dimensional"] += 1


def test_random_meets():
    """Meets of seeded cones in dimensions 2 to 5 in the halfspace x_n > 0,
    so that most pairs overlap.  A meet's start zero sets are transposed
    from the first cone's masks.  Meets of more than 10 rays are left out:
    the oracle scans every subset of the rays."""
    rng = random.Random(1953)

    def cone(n):
        gens = [tuple(rng.randint(-2, 2) for _ in range(n - 1)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(2, n + 2))]
        return Cone.from_rays(n, gens)

    seen = {"full-dimensional": 0, "lower-dimensional": 0}
    while min(seen.values()) < 60:
        n = rng.randint(2, 5)
        meet = cone(n).intersect(cone(n))
        if meet.rays and len(meet.rays) <= 10:
            check_incidence(meet)
            seen["full-dimensional" if meet.dim == n else "lower-dimensional"] += 1


def test_fan_cones_and_derived_cones(yu_grid):
    """Every cone of Y_u (n = 3..6, u = 1..3) and of the 3- and 4-dimensional
    cube and cross-polytope fans, then every split piece and quotient cone
    of each of their rays."""
    fans = [yu_grid(n, u).fan for n in range(3, 7) for u in range(1, 4)]
    fans += [Fan.from_cones(*case(d)) for case in (cube_face_fan, cross_polytope_fan) for d in (3, 4)]
    seen = {"split piece": 0, "quotient cone": 0}
    for fan in fans:
        for cone in fan.cones:
            check_incidence(cone)
        for ray in range(len(fan.rays)):
            for cone in derived_cones(fan, ray):
                check_incidence(cone)
                seen["split piece" if cone.ambient_rank == fan.ambient_rank else "quotient cone"] += 1
    assert min(seen.values()) > 0, seen
