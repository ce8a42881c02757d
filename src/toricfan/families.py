"""The Y_u family of complete fans and its verification pipeline.

For n >= 3 and u >= 1, the fan Delta_u lives on 2n + 2 rays
(e, f_1..f_n, g_1..g_n, h, in that fixed order) with C(n+1, 2) maximal
cones: n cones through e and one cone per unordered pair {i, j} through h.
Each maximal cone has n + 1 generators forming a circuit, which pins down
its facet structure.  The family is interesting because the resulting
complete toric variety is projective exactly for u = 1, has trivial Picard
group for u > 1, and always carries the ray e in Egyptian position with
divisor isomorphic to projective (n-1)-space; the pipeline report below
recomputes each of those statements from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .divisor import GrowthReport, ProjectivityResult, cartier_index, is_ample, is_projective, picard_group
from .egyptian import EgyptianReport, ModificationChecks, ModificationResult, hypothesis_report
from .errors import InvariantError
from .exactlin import FGAbelianGroup
from .fan import Fan, FanIsomorphism


@dataclass(frozen=True)
class YuConfig:
    n: int
    u: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.u < 1:
            raise ValueError("u must be positive")


@dataclass(frozen=True)
class YuFan:
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

    def f_index(self, i: int) -> int:
        return i

    def g_index(self, i: int) -> int:
        return self.n + i

    def h_index(self) -> int:
        return 2 * self.n + 1

    def sigma_index(self, i: int) -> int:
        return i - 1

    def sigma_pair_index(self, i: int, j: int) -> int:
        i, j = min(i, j), max(i, j)
        pairs = list(combinations(range(1, self.n + 1), 2))
        return self.n + pairs.index((i, j))


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

    e_idx = 0
    f_idx = lambda i: i
    g_idx = lambda i: n + i
    h_idx = 2 * n + 1

    cones: list[list[int]] = []
    labels: list[str] = []
    for i in range(1, n + 1):
        cones.append(sorted([e_idx, g_idx(i)] + [f_idx(k) for k in range(1, n + 1) if k != i]))
        labels.append(f"sigma_{i}")
    for i, j in combinations(range(1, n + 1), 2):
        cones.append(sorted([h_idx, g_idx(i), g_idx(j)] + [f_idx(k) for k in range(1, n + 1) if k not in (i, j)]))
        labels.append(f"sigma_{i}{j}")

    fan = Fan.from_cones(n, rays, cones)
    if not fan.is_complete():
        raise InvariantError("the family fan must be complete")
    return YuFan(config, fan, tuple(labels))


@dataclass(frozen=True)
class YuCombinatoricsReport:
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_yu_combinatorics(yu: YuFan) -> YuCombinatoricsReport:
    """Check the circuit relations, facet lists, and pairwise intersections.

    All checks are exact set equalities; any mismatch is reported as a
    failure item rather than raised.
    """
    n, u = yu.n, yu.u
    fan = yu.fan
    rays = fan.rays
    failures: list[str] = []

    def vec_sum(indices):
        total = [0] * n
        for i in indices:
            total = [a + b for a, b in zip(total, rays[i])]
        return tuple(total)

    def scaled(c, idx):
        return tuple(c * x for x in rays[idx])

    e, h = yu.e_index(), yu.h_index()
    f, g = yu.f_index, yu.g_index

    # Circuit relations.
    for i in range(1, n):
        lhs = tuple(a + b for a, b in zip(rays[e], rays[g(i)]))
        rhs = vec_sum(f(j) for j in range(1, n + 1) if j != i)
        if lhs != rhs:
            failures.append(f"circuit e + g_{i} failed")
    lhs = tuple(a + b for a, b in zip(scaled(u, e), rays[g(n)]))
    rhs = vec_sum(f(j) for j in range(1, n))
    if lhs != rhs:
        failures.append("circuit u*e + g_n failed")
    for i, j in combinations(range(1, n + 1), 2):
        lhs = tuple(a + b for a, b in zip(rays[g(i)], rays[g(j)]))
        c = 2 if j != n else u + 1
        rhs = tuple(a + b for a, b in zip(scaled(c, h), vec_sum(f(k) for k in range(1, n + 1) if k not in (i, j))))
        if lhs != rhs:
            failures.append(f"circuit g_{i} + g_{j} failed")

    # Facets of every maximal cone (2n - 2 each, simplicial).
    def facet_sets(cone_index):
        cone = fan.cones[cone_index]
        return {frozenset(fan.ray_index(cone.rays[k]) for k in face.ray_indices)
                for face in cone.facets()}

    for i in range(1, n + 1):
        predicted = set()
        for k in range(1, n + 1):
            if k == i:
                continue
            others = [f(j) for j in range(1, n + 1) if j not in (i, k)]
            predicted.add(frozenset([e] + others))
            predicted.add(frozenset([g(i)] + others))
        actual = facet_sets(yu.sigma_index(i))
        if actual != predicted or len(actual) != 2 * n - 2:
            failures.append(f"facets of sigma_{i} do not match")
    for i, j in combinations(range(1, n + 1), 2):
        predicted = set()
        rest = [f(k) for k in range(1, n + 1) if k not in (i, j)]
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            others = [f(l) for l in range(1, n + 1) if l not in (i, j, k)]
            predicted.add(frozenset([h, g(i)] + others))
            predicted.add(frozenset([h, g(j)] + others))
        predicted.add(frozenset([g(i)] + rest))
        predicted.add(frozenset([g(j)] + rest))
        actual = facet_sets(yu.sigma_pair_index(i, j))
        if actual != predicted or len(actual) != 2 * n - 2:
            failures.append(f"facets of sigma_{i}{j} do not match")

    # Pairwise intersections: three codimension-one patterns, two of
    # codimension three.
    def intersection_rays(a, b):
        return frozenset(fan.ray_index(r) for r in fan.cones[a].meet_rays(fan.cones[b]))

    for i, j in combinations(range(1, n + 1), 2):
        expected = frozenset([e] + [f(k) for k in range(1, n + 1) if k not in (i, j)])
        if intersection_rays(yu.sigma_index(i), yu.sigma_index(j)) != expected:
            failures.append(f"sigma_{i} meet sigma_{j} mismatch")
    for k in range(1, n + 1):
        for i, j in combinations([x for x in range(1, n + 1) if x != k], 2):
            expected = frozenset([h, g(k)] + [f(l) for l in range(1, n + 1) if l not in (i, j, k)])
            got = intersection_rays(yu.sigma_pair_index(i, k), yu.sigma_pair_index(j, k))
            if got != expected:
                failures.append(f"sigma_{i}{k} meet sigma_{j}{k} mismatch")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            expected = frozenset([g(i)] + [f(k) for k in range(1, n + 1) if k not in (i, j)])
            if intersection_rays(yu.sigma_index(i), yu.sigma_pair_index(i, j)) != expected:
                failures.append(f"sigma_{i} meet sigma_{i}{j} mismatch")
    for pair_a, pair_b in combinations(combinations(range(1, n + 1), 2), 2):
        if set(pair_a) & set(pair_b):
            continue
        expected = frozenset([h] + [f(k) for k in range(1, n + 1) if k not in pair_a + pair_b])
        got = intersection_rays(yu.sigma_pair_index(*pair_a), yu.sigma_pair_index(*pair_b))
        if got != expected:
            failures.append(f"sigma_{pair_a} meet sigma_{pair_b} mismatch")
    for i in range(1, n + 1):
        for j, k in combinations([x for x in range(1, n + 1) if x != i], 2):
            expected = frozenset(f(l) for l in range(1, n + 1) if l not in (i, j, k))
            got = intersection_rays(yu.sigma_index(i), yu.sigma_pair_index(j, k))
            if got != expected:
                failures.append(f"sigma_{i} meet sigma_{j}{k} mismatch")

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


@dataclass(frozen=True)
class PipelineReport:
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
