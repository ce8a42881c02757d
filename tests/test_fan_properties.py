"""Property tests of fans: the order of the maximal cones, and isomorphism.

The wall check takes its generic point from cone 0, so a permutation of
the cones moves that point; the verdict, the walls and completeness must not
move with it.  Cases are complete fans, incomplete fans and broken inputs.

``Fan.isomorphism`` must find a map from a fan to its image under a random
unimodular matrix, with the image's rays and cones listed in a random order.
"""

import pytest

from oracles import det_bareiss
from test_divisor import random_complete_surface_fans
from test_fan import BROKEN, as_case, cross_polytope_fan, cube_face_fan
from toricfan.exactlin import mat_vec
from toricfan.families import projective_space_fan, yu_fan
from toricfan.fan import Fan

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies
SETTINGS = hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)

_yu42 = as_case(yu_fan(4, 2).fan)
CASES = [
    as_case(projective_space_fan(3)),
    as_case(yu_fan(3, 2).fan),
    as_case(yu_fan(4, 1).fan),
    _yu42,
    (4, _yu42[1], _yu42[2][1:]),
    cube_face_fan(3),
    cross_polytope_fan(3),
    (2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]]),
    *BROKEN.values(),
]


@st.composite
def permuted_cases(draw):
    n, rays, cones = draw(st.sampled_from(CASES))
    order = draw(st.permutations(range(len(cones))))
    return (n, rays, cones), order


def validated(case):
    try:
        return Fan.from_cones(*case)
    except ValueError:
        return None


@hyp.settings(SETTINGS)
@hyp.given(permuted_cases())
def test_cone_order_is_irrelevant(drawn):
    (n, rays, cones), order = drawn
    before = validated((n, rays, cones))
    after = validated((n, rays, [cones[j] for j in order]))
    assert (before is None) == (after is None)
    if before is None:
        return
    assert after.is_complete() == before.is_complete()
    # Cone j of the permuted fan is cone order[j] of the original.
    assert {w.ray_indices: {order[j] for j in w.incident} for w in after.walls} == \
        {w.ray_indices: set(w.incident) for w in before.walls}


ISO_FANS = [
    projective_space_fan(2),
    projective_space_fan(3),
    *(yu_fan(n, u).fan for n in (3, 4) for u in (1, 2)),
    *random_complete_surface_fans(7, 3),
]


@st.composite
def unimodular_images(draw):
    fan = draw(st.sampled_from(ISO_FANS))
    n = fan.ambient_rank
    # A product of elementary matrices: row i += k * row j, or row i negated.
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=6)):
        a[i] = [-x for x in a[i]] if i == j else [x + k * y for x, y in zip(a[i], a[j])]
    order = draw(st.permutations(range(len(fan.rays))))
    rays = [mat_vec(a, fan.rays[i]) for i in order]
    position = {old: new for new, old in enumerate(order)}
    cones = [[position[i] for i in mc] for mc in draw(st.permutations(fan.max_cones))]
    return fan, Fan.from_cones(n, rays, cones)


@hyp.settings(SETTINGS, max_examples=40)
@hyp.given(unimodular_images())
def test_isomorphism_under_unimodular_maps(drawn):
    fan, image = drawn
    iso = fan.isomorphism(image)
    assert iso is not None
    assert abs(det_bareiss(iso.matrix)) == 1
    for i, ray in enumerate(fan.rays):
        assert mat_vec(iso.matrix, ray) == image.rays[iso.ray_map[i]]
    assert {frozenset(iso.ray_map[i] for i in mc) for mc in fan.max_cones} == set(map(frozenset, image.max_cones))
