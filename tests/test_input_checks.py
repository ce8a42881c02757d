"""Input checks of the library that no other test raises, with their messages.

Each row calls the library with one bad argument and expects one exception
with one whole message.  Immutability is checked here too: a fan memoizes
its quotients per ray index, which is sound only because its rays cannot be
reassigned.
"""

import re
from fractions import Fraction

import pytest

from toricfan.cone import Cone
from toricfan.divisor import cartier_data, cartier_index, divisor_polytope, is_ample, is_projective
from toricfan.exactlin import StrictSystem, dot, hermite_normal_form, rational_kernel, solve_linear, strict_feasible
from toricfan.families import projective_space_fan
from toricfan.fan import Fan, Wall

P2 = projective_space_fan(2)
P3 = projective_space_fan(3)
QUADRANT = Fan.from_cones(2, [(1, 0), (0, 1)], [[0, 1]])
PLANE_CONE = Cone.from_rays(2, [(1, 0), (0, 1)])
SPACE_CONE = Cone.from_rays(3, [(1, 0, 0)])


def assign_rays(record):
    record.rays = ()


# (id, the call, the exception, its message)
CHECKS = [
    ("from_rays", lambda: Cone.from_rays(2, [(1, 0, 0)]),
     ValueError, "generator length differs from the ambient rank"),
    ("contains", lambda: PLANE_CONE.contains((1, 0, 0)), ValueError, "point length differs from the ambient rank"),
    ("intersect", lambda: PLANE_CONE.intersect(SPACE_CONE), ValueError, "ambient rank mismatch"),
    ("meet_rays", lambda: PLANE_CONE.meet_rays(SPACE_CONE), ValueError, "ambient rank mismatch"),
    ("is_face_of", lambda: PLANE_CONE.is_face_of(SPACE_CONE), ValueError, "ambient rank mismatch"),
    ("ray_index", lambda: P2.ray_index((1, 1)), ValueError, "unknown ray (1, 1)"),
    ("Fan()", lambda: Fan(), TypeError, "use Fan.from_cones"),
    ("Cone()", lambda: Cone(), TypeError, "use Cone.from_rays or Cone.from_inequalities"),
    ("fan.rays", lambda: assign_rays(P2), AttributeError, "Fan instances are immutable"),
    ("cone.rays", lambda: assign_rays(PLANE_CONE), AttributeError, "Cone instances are immutable"),
    ("dot", lambda: dot((1, 2), (1,)), ValueError, "dimension mismatch: 2 vs 1"),
    ("rational_kernel", lambda: rational_kernel([]), ValueError, "kernel of an empty system needs an explicit width"),
    ("hermite_normal_form", lambda: hermite_normal_form([[1, 2], [3]]), ValueError, "ragged matrix"),
    ("solve_linear mode", lambda: solve_linear([[1]], [1], mode="modular"), ValueError, "unknown mode 'modular'"),
    ("solve_linear empty", lambda: solve_linear([], []), ValueError, "empty system has unknown width"),
    ("cartier_data mode", lambda: cartier_data(P2, (1, 0, 0), mode="modular"), ValueError, "unknown mode 'modular'"),
    ("is_ample", lambda: is_ample(QUADRANT, (0, 0)), ValueError, "ampleness requires a complete fan"),
    ("cartier_data float", lambda: cartier_data(P3, [0.5, 0, 0, 0]), ValueError,
     "divisor coefficient 0.5 is not an integer"),
    ("cartier_index Fraction", lambda: cartier_index(P3, [Fraction(1, 2), 0, 0, 0]), ValueError,
     "divisor coefficient Fraction(1, 2) is not an integer"),
    ("divisor_polytope Fraction", lambda: divisor_polytope(P3, [0, Fraction(1, 2), 0, 0]), ValueError,
     "divisor coefficient Fraction(1, 2) is not an integer"),
    ("is_ample bool", lambda: is_ample(P3, [True, 0, 0, 0]), ValueError, "divisor coefficient True is not an integer"),
    ("from_cones ray length", lambda: Fan.from_cones(2, [(1, 0), (0, 1, 0)], [[0, 1]]), ValueError,
     "ray 1 has length 3, expected 2"),
    ("wall_kind dimension", lambda: P2.wall_kind(Wall((0, 1), 2, (0,))), ValueError, "wall must have dimension n-1"),
    ("wall_kind count", lambda: P2.wall_kind(Wall((0,), 1, (0, 1, 2))), ValueError,
     "a wall lies in at most two full cones, not 3"),
    ("projective_space_fan", lambda: projective_space_fan(0), ValueError, "dimension must be positive"),
    ("ray_index float", lambda: P2.ray_index((1.0, 0)), ValueError, "vector (1.0, 0) has a non-integer entry"),
    ("from_rays float", lambda: Cone.from_rays(2, [(1.0, 0), (0, 1)]), ValueError,
     "vector (1.0, 0) has a non-integer entry"),
    ("from_cones float ray", lambda: Fan.from_cones(2, [(1.0, 0), (0, 1)], [[0, 1]]), ValueError,
     "ray 0 = (1.0, 0) has a non-integer entry"),
    ("from_cones float index", lambda: Fan.from_cones(2, [(1, 0), (0, 1)], [[0.0, 1]]), ValueError,
     "maximal cone 0 has a non-integer ray index"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_bad_input_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_bool_entries_are_integers():
    # bool is an int subclass: True and False pass as 1 and 0, as they always have.
    assert P2.ray_index((True, False)) == 0
    assert Cone.from_rays(2, [(True, 0), (0, 1)]).rays == PLANE_CONE.rays
    assert Fan.from_cones(2, [(True, 0), (0, 1)], [[False, True]]).max_cones == QUADRANT.max_cones


def test_results_are_true_exactly_when_feasible():
    # Without their __bool__ these 3-field tuples would always be true.
    infeasible = strict_feasible(StrictSystem((), ((1,), (-1,)), 1))  # x > 0 and -x > 0
    assert not infeasible.feasible and bool(infeasible) is False
    assert bool(is_projective(P2)) is True
