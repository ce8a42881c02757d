"""Property tests of fan validation: the order of the maximal cones.

The wall check takes its generic point from cone 0, so a permutation of
the cones moves that point; the verdict, the walls and completeness must not
move with it.  Cases are complete fans, incomplete fans and broken inputs.
"""

import pytest

from test_fan import BROKEN, as_case, cross_polytope_fan, cube_face_fan
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
