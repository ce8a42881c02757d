"""The Y_u family of complete fans and its verification pipeline.

For n >= 3 and u >= 1, the fan Delta_u lives on 2n + 2 rays
(e, f_1..f_n, g_1..g_n, h, in that fixed order) with C(n+1, 2) maximal
cones: n cones through e and one cone per unordered pair {i, j} through h.
Each maximal cone has n + 1 generators forming a circuit, written down
once in ``_circuits``: the cones, labels, facet lists and intersections all
read from it.  The family is interesting because the resulting complete
toric variety is projective exactly for u = 1, has trivial Picard group
for u > 1, and always carries the ray e in Egyptian position with divisor
isomorphic to projective (n-1)-space; the pipeline report below recomputes
each of those statements from scratch.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .divisor import GrowthReport, ProjectivityResult, cartier_index, is_ample, is_projective, picard_group
from .egyptian import EgyptianReport, ModificationChecks, ModificationResult, hypothesis_report
from .errors import InvariantError
from .exactlin import FGAbelianGroup
from .fan import Fan, FanIsomorphism


class _YuConfig(NamedTuple):
    n: int
    u: int


class YuConfig(_YuConfig):
    __slots__ = ()

    def __new__(cls, n: int, u: int):
        if n < 3:
            raise ValueError("n must be at least 3")
        if u < 1:
            raise ValueError("u must be positive")
        return super().__new__(cls, n, u)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class YuFan(NamedTuple):
    """The fan of Y_u with its labelled maximal cones.

    Ray order: index 0 is e, indices 1..n are f_1..f_n, indices n+1..2n are
    g_1..g_n, index 2n+1 is h.  Cone order: sigma_1..sigma_n, then sigma_ij
    for pairs i < j in lexicographic order.
    """

    config: YuConfig
    fan: Fan
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def u(self) -> int:
        return self.config.u

    def e_index(self) -> int:
        return 0

    def g_index(self, i: int) -> int:
        return self.n + i

    def h_index(self) -> int:
        return 2 * self.n + 1


def _circuits(n: int, u: int) -> list[tuple[str, dict[int, int], dict[int, int]]]:
    """The maximal cones of Delta_u, each once, as (label, positive,
    negative): two maps from ray index to coefficient whose weighted ray
    sums are equal, and whose keys together are the cone's rays.  Pair
    labels are ``sigma_ij`` below n = 10 and ``sigma_i,j`` from there on, so
    that with two-digit indices sigma_1,2 stays apart from sigma_12."""
    fs = range(1, n + 1)
    sep = "," if n >= 10 else ""
    table = [(f"sigma_{i}", {0: u if i == n else 1, n + i: 1}, {k: 1 for k in fs if k != i}) for i in fs]
    for i, j in combinations(fs, 2):
        rest = {k: 1 for k in fs if k not in (i, j)}
        table.append((f"sigma_{i}{sep}{j}", {n + i: 1, n + j: 1}, {2 * n + 1: u + 1 if j == n else 2, **rest}))
    return table


def yu_fan(n: int, u: int) -> YuFan:
    """Build and validate the fan Delta_u in dimension n."""
    config = YuConfig(n, u)

    def unit(i: int) -> list[int]:
        return [1 if k == i else 0 for k in range(n)]

    e = unit(n - 1)
    f = [unit(i - 1) for i in range(1, n)]
    f.append([-1] * (n - 1) + [0])          # f_n = -(f_1 + ... + f_{n-1})
    h = [-x for x in e]
    g = [[hh - ff for hh, ff in zip(h, f[i - 1])] for i in range(1, n)]
    g.append([u * hh - ff for hh, ff in zip(h, f[n - 1])])  # g_n = u*h - f_n

    rays = [tuple(e)] + [tuple(v) for v in f] + [tuple(v) for v in g] + [tuple(h)]
    table = _circuits(n, u)
    fan = Fan.from_cones(n, rays, [sorted(pos | neg) for _, pos, neg in table])
    if not fan.is_complete():
        raise InvariantError("the family fan must be complete")
    return YuFan(config, fan, tuple(label for label, _, _ in table))


class YuCombinatoricsReport(NamedTuple):
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_yu_combinatorics(yu: YuFan) -> YuCombinatoricsReport:
    """Check each cone's circuit relation and facet list, and every pair's
    intersection, against ``_circuits`` by exact set equalities; a mismatch
    is not raised but reported as a failure item named by the cones' labels.

    1. Circuits: each relation holds on the rays, and its keys are the
       cone's ray indices.
    2. Facets: exactly ``cone - {p, q}`` for p positive and q negative.
       The relation is the cone's only one (any n of its n + 1 rays are
       independent) and uses every ray, so a functional m >= 0 on the cone
       that vanishes on a face F forces the rays off F, where m > 0, to
       meet both sides.  A facet thus misses some p and some q, and the
       n - 1 independent rays left span it; conversely their normal that is
       positive on p is positive on q too, by the relation.
    3. Intersections: in a fan, sigma meet tau is a face of both, spanned
       by their common rays, so every pair's ``meet_rays`` is that set.
    """
    fan = yu.fan
    table = _circuits(yu.n, yu.u)
    failures: list[str] = []

    def weighted(coefficients: dict[int, int]) -> tuple[int, ...]:
        return tuple(sum(c * fan.rays[k][x] for k, c in coefficients.items()) for x in range(fan.ambient_rank))

    def indices(found) -> frozenset[int]:
        return frozenset(fan.ray_index(r) for r in found)

    for (label, pos, neg), mc, cone in zip(table, fan.max_cones, fan.cones):
        if weighted(pos) != weighted(neg) or sorted(pos | neg) != list(mc):
            failures.append(f"circuit of {label} failed")
        predicted = {frozenset(mc) - {p, q} for p in pos for q in neg}
        if {indices(cone.rays[k] for k in face.ray_indices) for face in cone.facets()} != predicted:
            failures.append(f"facets of {label} do not match")
    for a, b in combinations(range(len(table)), 2):
        if indices(fan.cones[a].meet_rays(fan.cones[b])) != set(fan.max_cones[a]) & set(fan.max_cones[b]):
            failures.append(f"{table[a][0]} meet {table[b][0]} mismatch")

    return YuCombinatoricsReport(tuple(failures))


def projective_space_fan(d: int) -> Fan:
    """The standard complete fan of projective d-space.

    Rays are the d standard basis vectors plus their negated sum; maximal
    cones are all d-subsets of the d + 1 rays.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    rays = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    rays.append(tuple([-1] * d))
    cones = [sorted(c) for c in combinations(range(d + 1), d)]
    return Fan.from_cones(d, rays, cones)


class PipelineReport(NamedTuple):
    """Aggregated verdicts for one member of the family."""

    config: YuConfig
    picard: FGAbelianGroup
    projective: ProjectivityResult
    egyptian: EgyptianReport
    modification: Optional[ModificationResult]
    modification_checks: Optional[ModificationChecks]
    modified_cartier_index: Optional[int]
    divisor_fan_iso: Optional[FanIsomorphism]
    growth: Optional[GrowthReport]


def yu_report(n: int, u: int) -> PipelineReport:
    """Run the whole pipeline for one (n, u).

    ``hypothesis_report`` at the ray e, plus the Picard group, the
    projectivity verdict with witness, the identification of the quotient
    with projective (n-1)-space, and the Cartier index of the
    strict-transform divisor.  The growth is fed by the degree of the
    quotient's ample witness; for n = 3..10, u = 1..3 that witness is the
    unit divisor (1, 0, ..., 0), of degree 1, checked ample here.
    """
    yu = yu_fan(n, u)
    fan = yu.fan
    rho = yu.e_index()

    picard = picard_group(fan)
    projective = is_projective(fan)
    report = hypothesis_report(fan, rho)
    quotient = report.quotient
    iso = quotient.isomorphism(projective_space_fan(n - 1)) if quotient is not None else None

    mod_index = None
    if report.modification is not None:
        unit_divisor = [1 if i == rho else 0 for i in range(len(fan.rays))]
        mod_index = cartier_index(report.modification.fan, unit_divisor)

    if report.growth is not None:
        unit_divisor = [1 if i == 0 else 0 for i in range(len(quotient.rays))]
        if not is_ample(quotient, unit_divisor):
            raise InvariantError("the unit divisor on the quotient must be ample")

    return PipelineReport(
        config=yu.config,
        picard=picard,
        projective=projective,
        egyptian=report.egyptian,
        modification=report.modification,
        modification_checks=report.checks,
        modified_cartier_index=mod_index,
        divisor_fan_iso=iso,
        growth=report.growth,
    )
