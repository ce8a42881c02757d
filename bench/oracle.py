"""The benchmark's own arithmetic: input generation and independent checks.

Nothing here imports toricfan.  Inputs are generated, and the library's
verdicts re-checked, with plain Python integers and Fractions, so a wrong
answer from the library cannot also pass its own check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd


class WrongAnswer(Exception):
    """The library returned a verdict that the independent check rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> tuple:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def determinant(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def cofactor_normal(rows) -> tuple:
    """A nonzero integer vector orthogonal to d-1 independent vectors in Z^d."""
    d = len(rows) + 1
    return tuple((-1) ** j * determinant([[r[c] for c in range(d) if c != j] for r in rows])
                 for j in range(d))


# ---------------------------------------------------------------------------
# Fans given by formulas: the Y_u family, cube face fans, cross-polytope fans


def yu_fan_data(n: int, u: int) -> tuple[list[tuple], list[list[int]]]:
    """Rays and maximal cones of Y_u in dimension n (rays e, f_1..f_n, g_1..g_n, h)."""
    def unit(i):
        return [1 if k == i else 0 for k in range(n)]

    e = unit(n - 1)
    f = [unit(i) for i in range(n - 1)] + [[-1] * (n - 1) + [0]]
    h = [-x for x in e]
    g = [[a - b for a, b in zip(h, f[i])] for i in range(n - 1)]
    g.append([u * a - b for a, b in zip(h, f[n - 1])])
    rays = [tuple(v) for v in [e] + f + g + [h]]
    cones = [sorted([0, n + i] + [k for k in range(1, n + 1) if k != i]) for i in range(1, n + 1)]
    cones += [sorted([2 * n + 1, n + i, n + j] + [k for k in range(1, n + 1) if k not in (i, j)])
              for i, j in combinations(range(1, n + 1), 2)]
    return rays, cones


def projective_space_data(d: int) -> tuple[list[tuple], list[list[int]]]:
    rays = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)] + [tuple([-1] * d)]
    return rays, [sorted(c) for c in combinations(range(d + 1), d)]


def cube_face_fan(d: int) -> tuple[list[tuple], list[list[int]]]:
    """Cones over the facets of [-1, 1]^d: non-simplicial for d >= 3."""
    rays = list(product((-1, 1), repeat=d))
    cones = [[k for k, r in enumerate(rays) if r[i] == s] for i in range(d) for s in (-1, 1)]
    return rays, cones


def cross_polytope_fan(d: int) -> tuple[list[tuple], list[list[int]]]:
    """Cones over the facets of the cross-polytope: the fan of (P^1)^d."""
    rays = [tuple(s if k == i else 0 for k in range(d)) for s in (1, -1) for i in range(d)]
    cones = [[i + d * flip[i] for i in range(d)] for flip in product((0, 1), repeat=d)]
    return rays, cones


def picard_rank(rays, cones) -> int:
    """Rank of Pic for a complete fan with full-dimensional maximal cones.

    A Cartier divisor is a tuple of characters m_sigma agreeing on shared rays;
    Pic has rank dim(CDiv) - n, and it is free because the fan is complete
    (Cox-Little-Schenck, Prop. 4.2.5).
    """
    n = len(rays[0])
    width = len(cones) * n
    agreement = []
    for k, r in enumerate(rays):
        holding = [ci for ci, mc in enumerate(cones) if k in mc]
        for other in holding[1:]:
            row = [0] * width
            row[holding[0] * n:(holding[0] + 1) * n] = r
            row[other * n:(other + 1) * n] = [-x for x in r]
            agreement.append(row)
    return width - rank(agreement) - n


def check_ample_witness(rays, cones, divisor, characters) -> None:
    """Strict convexity of the support function, in integers.

    Each character must evaluate to -a_k on its cone's rays and exceed -a_k on
    every other ray.
    """
    require(len(divisor) == len(rays), "witness divisor has the wrong length")
    require(len(characters) == len(cones), "one character per maximal cone expected")
    for mc, m in zip(cones, characters):
        inside = set(mc)
        for k, r in enumerate(rays):
            value = dot(m, r)
            if k in inside:
                require(value == -divisor[k], f"character disagrees with the divisor on ray {k}")
            else:
                require(value > -divisor[k], f"support function not strictly convex at ray {k}")


def check_isomorphism(matrix, ray_map, source_rays, source_cones, target_rays, target_cones) -> None:
    require(abs(determinant(matrix)) == 1, "isomorphism matrix is not unimodular")
    for i, r in enumerate(source_rays):
        image = tuple(dot(row, r) for row in matrix)
        require(image == tuple(target_rays[ray_map[i]]), f"matrix does not send ray {i} to its image")
    mapped = {frozenset(ray_map[i] for i in mc) for mc in source_cones}
    require(mapped == {frozenset(mc) for mc in target_cones}, "maximal cones do not map to maximal cones")


# ---------------------------------------------------------------------------
# Random pointed cones in general position


# A de Bruijn cycle over the ray counts 4, 5, 6: consecutive entries (cyclically)
# run through all nine (rays of A, rays of B) combinations once.
RAY_COUNT_CYCLE = (4, 4, 5, 5, 6, 6, 4, 6, 5)


def random_cone_rays(rng: random.Random, d: int, k: int) -> tuple[tuple, ...]:
    """k primitive rays in [-4, 4]^(d-1) x [1, 3], all extreme, in general position.

    The last coordinate is positive, so the cone is pointed.  Rays are drawn
    one at a time, and a draw that breaks general position (every d rays
    independent) or makes some ray non-extreme is redrawn.  General position
    makes every extremality test a d-subset test: a ray is not extreme
    exactly when it lies in the cone over d of the others.
    """
    rays: list = []
    dets: dict = {}
    redraws = 0
    while len(rays) < k:
        if redraws == 50:  # the prefix leaves little room: start over
            rays, dets, redraws = [], {}, 0
        rays.append(primitive([rng.randint(-4, 4) for _ in range(d - 1)] + [rng.randint(1, 3)]))
        added = [s + (len(rays) - 1,) for s in combinations(range(len(rays) - 1), d - 1)]
        for s in added:
            dets[s] = determinant([rays[i] for i in s])
        if any(dets[s] == 0 for s in added) or \
                not all(_is_extreme(i, rays, d, dets) for i in range(len(rays))):
            rays.pop()
            for s in added:
                del dets[s]
            redraws += 1
    return tuple(rays)


def _is_extreme(i, rays, d, dets) -> bool:
    others = [j for j in range(len(rays)) if j != i]
    for s in combinations(others, d):
        base = dets[s]
        # Cramer: lambda_j has the sign of det(s with column j replaced by ray i).
        inside = True
        for pos in range(d):
            replaced = list(s)
            replaced[pos] = i
            order = sorted(range(d), key=lambda t: replaced[t])
            value = dets[tuple(replaced[t] for t in order)] * _parity(order)
            if (value > 0) != (base > 0):
                inside = False
                break
        if inside:
            return False
    return True


def _parity(order) -> int:
    sign, seen = 1, [False] * len(order)
    for start in range(len(order)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


class ConeFacts:
    """Facets and face lattice of a general-position cone, computed independently."""

    def __init__(self, rays):
        self.rays = tuple(sorted(rays))
        d = len(self.rays[0])
        self.dim = d
        self.normals = set()
        incidences = []
        for s in combinations(range(len(self.rays)), d - 1):
            normal = primitive(cofactor_normal([self.rays[i] for i in s]))
            values = [dot(normal, r) for r in self.rays]
            if all(v >= 0 for v in values):
                pass
            elif all(v <= 0 for v in values):
                normal = tuple(-x for x in normal)
            else:
                continue
            self.normals.add(normal)
            incidences.append(frozenset(s))
        faces = {frozenset(range(len(self.rays)))}
        stack = list(faces)
        while stack:
            face = stack.pop()
            for inc in incidences:
                smaller = face & inc
                if smaller not in faces:
                    faces.add(smaller)
                    stack.append(smaller)
        self.faces = faces

    def contains(self, point) -> bool:
        return all(dot(m, point) >= 0 for m in self.normals)

    def face_dim(self, face) -> int:
        # General position: a proper face on s rays is simplicial.
        return self.dim if len(face) == len(self.rays) else len(face)

    def is_face(self, rays) -> bool:
        index = {r: i for i, r in enumerate(self.rays)}
        if any(r not in index for r in rays):
            return False
        return frozenset(index[r] for r in rays) in self.faces
