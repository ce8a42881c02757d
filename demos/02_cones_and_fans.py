"""
Cones, beneath-and-beyond, and validated fans
=============================================

A cone is stored by its primitive extreme rays together with a dual facet
description, so membership, faces, and intersections are all exact.  A fan
is a set of cones that pairwise meet in common faces; validation checks
that axiom and precomputes the wall table.
"""

from toricfan.cone import Cone
from toricfan.egyptian import classify_pyramidal
from toricfan.fan import Fan, WallCurveKind

# The cone over a unit square, embedded at height one.  Four rays, four
# facet normals, and a face lattice with four two-dimensional faces.
square = Cone.from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
print("rays:", square.rays)
print("facet normals:", square.facet_normals)
print("2-faces:", [f.ray_indices for f in square.faces(2)])

# Intersections are exact too.  The neighbour lies beyond the square cone's
# facet on (1,0,1) and (0,1,1), so the two meet in that common face.
neighbour = Cone.from_rays(3, [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
meet = square.intersect(neighbour)
print(f"\nmeet: {meet.rays}  face of square: {meet.is_face_of(square)}  "
      f"face of neighbour: {meet.is_face_of(neighbour)}")

# Redundant generators are dropped and inputs are primitivized.
c = Cone.from_rays(2, [(2, 0), (1, 1), (0, 1)])
print("\nextreme rays only:", c.rays)

# Beneath / beyond: the base cone on the other three square rays has the
# ray (1,0,1) beyond its x = 0 facet alone and beneath the others, so the
# square cone is a pyramidal extension: it splits along that facet into the
# base and the update cone facet + ray -- the heart of small modifications.
verdict = classify_pyramidal(square, (1, 0, 1))
print("\nverdict at (1, 0, 1):", verdict.kind.value)
print("beyond facet:", verdict.eta_rays)
base, update = verdict.pieces
print("base:", base.rays)
print("update:", update.rays)

# Fans validate the pairwise-intersection axiom.  Two full-dimensional cones
# overlapping in a full-dimensional region are rejected with the offending
# intersection.
try:
    Fan.from_cones(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [[0, 1], [2, 3]])
except ValueError as e:
    print("\nrejected:", e)

# The plane fan of three cones is complete: every wall bounds exactly two
# maximal cones and the adjacency graph is connected.  Each wall carries a
# projective orbit curve.
plane = Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [0, 2], [1, 2]])
print("\ncomplete:", plane.is_complete())
for wall in plane.walls:
    print("wall", wall.ray_indices, "->", plane.wall_kind(wall).value)

# The star of a ray projects to the fan of its divisor.  For the fan of the
# product of two lines, the quotient at any ray is the fan of a line.
product = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                         [[0, 1], [1, 2], [2, 3], [0, 3]])
quotient = product.quotient(0)
print("\nquotient rays:", quotient.rays, "cones:", quotient.max_cones)
