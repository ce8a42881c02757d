"""Exact rational arithmetic for polyhedral fans, toric divisors, and fan modifications."""

from .errors import InvariantError, ResourceLimitError
from .exactlin import (
    FGAbelianGroup,
    FeasibilityResult,
    LinearSolution,
    StrictSystem,
    hermite_normal_form,
    primitive,
    smith_normal_form,
    solve_linear,
    strict_feasible,
)

__all__ = [
    "InvariantError",
    "ResourceLimitError",
    "FGAbelianGroup",
    "FeasibilityResult",
    "LinearSolution",
    "StrictSystem",
    "hermite_normal_form",
    "primitive",
    "smith_normal_form",
    "solve_linear",
    "strict_feasible",
]
