"""
Exact integer linear algebra and strict feasibility
===================================================

Everything in toricfan runs on arbitrary-precision integers and fractions;
there is no floating point anywhere.  This script walks through the three
workhorses: Hermite form, Smith form, and the strict-feasibility solver.
"""

from fractions import Fraction

from toricfan.exactlin import (
    StrictSystem,
    hermite_normal_form,
    mat_mul,
    smith_normal_form,
    solve_linear,
    strict_feasible,
)

# Hermite normal form works by column operations: H = M @ U with U
# unimodular and H in lower-triangular echelon form.
m = ((2, 4), (1, 3))
h, u = hermite_normal_form(m)
print("M =", m)
print("H =", h, " U =", u)
print("M @ U == H:", mat_mul(m, u) == h)

# Smith normal form diagonalizes with transforms on both sides; the diagonal
# entries form a divisibility chain.  diag(2, 3) becomes diag(1, 6).
s, us, vs = smith_normal_form(((2, 0), (0, 3)))
print("\nSmith form of diag(2, 3):", s)

# Linear systems can be solved over the rationals or over the integers.
# 2x = 3 has a rational solution but no integral one.
print("\nrational 2x = 3:", solve_linear([[2]], [3], mode="rational").particular)
print("integral 2x = 3:", solve_linear([[2]], [3], mode="integral"))

# Strict homogeneous systems (equalities = 0, strict rows > 0) are decided
# by the exact double-description method: the system is infeasible exactly
# when some strict row vanishes on every extreme ray of the cone
# {equalities = 0, strict rows >= 0}.  Otherwise the sum of the extreme rays
# is an integral witness, verified against every constraint before it comes
# back.
system = StrictSystem(
    equalities=((1, 1, -2),),
    strict_inequalities=((1, 0, 0), (0, 1, 0)),
    dim=3,
)
result = strict_feasible(system)
print("\nfeasible:", result.feasible, " witness:", result.witness)

contradiction = StrictSystem((), ((1,), (-1,)), 1)
print("x > 0 and -x > 0:", strict_feasible(contradiction).feasible)
