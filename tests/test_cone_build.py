"""The one-pass read-off of cone builds against the earlier read-off.

``Cone._from_primitive`` reads pointedness, the extreme rays, their order
and the facets' ray sets off the double description's zero sets in one pass;
``oracles.reference_build`` is the read-off it replaced, run on the same
double description.  Every build must match it attribute for attribute, or
raise with the same message: from generators, from a fan's validated rays,
and from a cone's own rays (faces and bases), the last two with no second
primitivization.  Fan loads must match fans validated on reference-built
cones.
"""

import random

import pytest

from oracles import reference_build
from test_fan import (as_case, attributes, cross_polytope_fan, cube_face_fan, random_complete_threefolds,
                      random_cone_subset)
from toricfan.cone import Cone
from toricfan.exactlin import primitive
from toricfan.fan import Fan


def outcome(build, n, generators):
    """A build's attributes, or the message of the ``ValueError`` it raises."""
    try:
        return attributes(build(n, generators))
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def random_threefolds():
    return random_complete_threefolds(seed=5, count=6)


def fan_cases(yu_grid, random_threefolds):
    """Y_u for n = 3..6 and u = 1..3, the 3-/4-cube and 4-cross-polytope fans,
    and the random complete 3-fans, as (n, rays, max_cones)."""
    cases = [as_case(yu_grid(n, u).fan) for n in range(3, 7) for u in range(1, 4)]
    cases += [cube_face_fan(3), cube_face_fan(4), cross_polytope_fan(4)]
    return cases + [as_case(fan) for fan in random_threefolds]


def random_generators(rng):
    """Generators in Q^n, n = 2..5: images of small integer vectors under a
    random n x d matrix (the identity when d = n), pointed two times in three,
    then with repeated, non-primitive and non-extreme generators mixed in."""
    n = rng.randint(2, 5)
    d = n if rng.random() < 0.6 else rng.randint(1, n - 1)
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)] if d == n else \
        [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
    pointed = rng.random() < 2 / 3
    gens = []
    for _ in range(rng.randint(1, n + 3)):
        c = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2) if pointed else rng.randint(-2, 2)]
        g = tuple(sum(x * row[i] for x, row in zip(c, basis)) for i in range(n))
        if any(g):
            gens.append(g)
    for _ in range(rng.randint(0, 2)):
        if gens:
            a, b = rng.choice(gens), rng.choice(gens)
            extra = rng.choice([a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b))])
            if any(extra):
                gens.insert(rng.randint(0, len(gens)), extra)
    return n, gens


def test_random_builds_match_the_reference_read_off():
    """3,200 seeded generator lists; the tally checks that every kind of
    input occurs."""
    rng = random.Random(2024)
    seen = {"repeated": 0, "non-primitive": 0, "non-extreme": 0, "lower-dimensional": 0, "line": 0}
    cases = 0
    while cases < 3200:
        n, gens = random_generators(rng)
        if not gens:
            continue
        cases += 1
        expected = outcome(reference_build, n, gens)
        assert outcome(Cone.from_rays, n, gens) == expected, (n, gens)
        distinct = list(dict.fromkeys(map(primitive, gens)))
        assert outcome(Cone._from_primitive, n, distinct) == expected, (n, gens)
        seen["repeated"] += len(set(gens)) < len(gens)
        seen["non-primitive"] += any(primitive(g) != g for g in gens)
        if isinstance(expected, str):
            assert expected == "cone contains a line"
            seen["line"] += 1
        else:
            seen["non-extreme"] += len(expected[1]) < len(distinct)
            seen["lower-dimensional"] += expected[2] < n
    assert min(seen.values()) >= 100, seen


def test_fan_cones_match_the_reference_read_off(yu_grid, random_threefolds):
    """Each maximal cone, built as a fan load builds it and by ``from_rays``;
    then its facets and its base at its first ray, built by ``_from_primitive``
    on the cone's own rays directly."""
    for n, rays, cones in fan_cases(yu_grid, random_threefolds):
        for mc in cones:
            gens = [tuple(rays[i]) for i in mc]
            expected = outcome(reference_build, n, gens)
            assert outcome(Cone._from_primitive, n, gens) == expected
            assert outcome(Cone.from_rays, n, gens) == expected
            cone = Cone._from_primitive(n, gens)
            for face in cone.facets():
                face_rays = [cone.rays[i] for i in face.ray_indices]
                assert attributes(Cone._from_primitive(n, face_rays)) == outcome(reference_build, n, face_rays)
            base_rays = list(cone.rays[1:])
            assert attributes(Cone._from_primitive(n, base_rays)) == outcome(reference_build, n, base_rays)


def load(case, build=None):
    """The fan's verdict, facet map, walls and cones, or the validation message.

    With ``build`` the fan is validated on cones it builds, drawn as
    ``Fan.from_cones`` draws its own."""
    n, rays, cones = case
    try:
        if build is None:
            fan = Fan.from_cones(n, rays, cones)
        else:
            fan = Fan._validated(n, rays, cones, (build(n, [rays[i] for i in mc]) for mc in cones))
    except ValueError as exc:
        return str(exc)
    return fan.is_complete(), fan._facets, fan.walls, [attributes(cone) for cone in fan.cones]


def test_fan_loads_match_validation_on_reference_cones(yu_grid, random_threefolds):
    cases = fan_cases(yu_grid, random_threefolds)
    rng = random.Random(22)
    for fan in random_threefolds:  # incomplete fans take the pairwise check
        cases += [as_case(random_cone_subset(rng, fan)) for _ in range(3)]
    rejected = [
        (2, [(1, 0), (1, 1), (0, 1)], [[0, 1, 2]]),          # a non-extreme generator
        (2, [(1, 0), (-1, 0), (0, 1)], [[0, 1, 2]]),         # a line
        (2, [(1, 0), (1, 2), (2, 1), (0, 1)], [[0, 1], [2, 3]]),  # overlap
        (2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]]),     # nested
        (2, [(2, 0), (0, 1)], [[0, 1]]),                     # a non-primitive ray
        (2, [(1, 0), (1, 0)], [[0, 1]]),                     # duplicate rays
        (2, [(1, 0), (0, 1)], [[0, 0, 1]]),                  # a repeated index
        (2, [(1, 0), (0, 1)], [[0, 5]]),                     # an index out of range
        (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]]),           # an unused ray
        (2, [(1, 0), (0, 1)], []),                           # no cone
        (2, [(1, 0), (0, 1)], [[0, 1], []]),                 # an empty cone
        (2, [(1, 0), (0, 1)], [[0, -1]]),                    # a negative index
        (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1]]),   # two unused rays
    ]
    verdicts = set()
    for case in cases + rejected:
        expected = load(case, reference_build)
        assert load(case) == expected, case
        verdicts.add(expected if isinstance(expected, str) else expected[0])
    # The last two cases repeat the messages of the out-of-range and the unused-ray case.
    assert {True, False} <= verdicts and len(verdicts) == len(rejected)
    assert load(rejected[-2]) == "maximal cone 0 has a ray index out of range"
    assert load(rejected[-1]) == "ray 2 does not appear in any maximal cone"  # the lower of rays 2 and 3


def test_builds_do_not_depend_on_generator_order(yu_grid, random_threefolds):
    """Three seeded shuffles of each generator list build the same cone, or
    raise the same message, through ``from_rays`` and, deduplicated, through
    ``_from_primitive``: the seeded lists of the read-off test and every
    maximal cone of the fan cases.  A fan load with each index list shuffled
    gives the same fan.  The tally keeps the lists that reach the read-off's
    other branches: lower-dimensional cones, whose span equations come from
    the run's lineality, and non-extreme generators, whose zero sets are
    remapped."""
    rng = random.Random(2024)
    lists = [random_generators(rng) for _ in range(1200)]
    cases = fan_cases(yu_grid, random_threefolds)
    lists += [(n, [tuple(rays[i]) for i in mc]) for n, rays, cones in cases for mc in cones]
    seen = {"lower-dimensional": 0, "non-extreme": 0}
    shuffle = random.Random(33)
    for n, gens in lists:
        if not gens:
            continue
        expected = outcome(Cone.from_rays, n, gens)
        for _ in range(3):
            shuffled = shuffle.sample(gens, len(gens))
            assert outcome(Cone.from_rays, n, shuffled) == expected, (n, gens, shuffled)
            distinct = list(dict.fromkeys(map(primitive, shuffled)))
            assert outcome(Cone._from_primitive, n, distinct) == expected, (n, gens, shuffled)
        if not isinstance(expected, str):
            seen["lower-dimensional"] += expected[2] < n
            seen["non-extreme"] += len(expected[1]) < len(set(map(primitive, gens)))
    assert min(seen.values()) >= 100, seen
    for n, rays, cones in cases:
        expected = load((n, rays, cones))
        for _ in range(3):
            assert load((n, rays, [shuffle.sample(mc, len(mc)) for mc in cones])) == expected
