"""
Toric divisors: Cartier data, Picard groups, ampleness, degrees
===============================================================

A divisor is a list of integer coefficients, one per fan ray.  Cartier data
assigns a character to every maximal cone; existence over the integers
decides Cartier, over the rationals Q-Cartier.  The class group is read
off a Smith normal form of the ray matrix; the Picard group of a complete
fan is free, and its rank comes from the linear relations among each
maximal cone's rays.
"""

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
from toricfan.fan import Fan

plane = Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [0, 2], [1, 2]])

# On a smooth complete fan every divisor is Cartier and the Picard group
# equals the class group.
print("class group:", class_group(plane))
print("picard group:", picard_group(plane))
data = cartier_data(plane, [1, 0, 0])
print("characters of the coordinate-line divisor:", data.characters)

# A simplicial but non-smooth fan: the distinguished divisor needs index 2.
weighted = Fan.from_cones(2, [(1, 0), (0, 1), (-1, -2)], [[0, 1], [0, 2], [1, 2]])
print("\nCartier index on the weighted fan:", cartier_index(weighted, [1, 0, 0]))
print("integral characters exist:", cartier_data(weighted, [1, 0, 0]) is not None)
print("after doubling:", cartier_data(weighted, [2, 0, 0]) is not None)

# Ampleness is strict convexity of the support function: each cone's
# character must beat the agreed value on every outside ray.
print("\nample [1,0,0] on the plane fan:", is_ample(plane, [1, 0, 0]))
print("ample [-1,0,0]:", is_ample(plane, [-1, 0, 0]))

# Projectivity searches for any ample divisor at once; the witness divisor
# is integral and re-checked for ampleness before it is returned.
result = is_projective(plane)
print("\nprojective:", result.feasible, " witness:", result.witness_divisor)

# The divisor polytope's lattice points are the sections; its degree is
# d! * vol(P), the normalized volume of a triangulation into lattice
# simplices.  3H is the triangle of legs 3, of degree 9.
polytope = divisor_polytope(plane, [1, 0, 0])
degree = polytope_degree(polytope)
print("\npolytope vertices:", polytope.vertices)
print("degree:", degree)
print("degree of 3H:", polytope_degree(divisor_polytope(plane, [3, 0, 0])))

# The degree of an ample class on an (n-1)-dimensional divisor drives the
# leading term of the top Chern numbers of the induced rank-n bundles.
print("\n" + chern_growth(3, degree).statement)
