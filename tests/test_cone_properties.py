"""Property tests of the cone layer against the brute-force oracle in ``oracles.py``.

Generators are integer images ``M @ c`` of random vectors ``c`` in Q^d
under an n x d matrix ``M``: the identity when d = n, else random, so the
cones come in every dimension up to n, in skew subspaces, with or without a
line.  Repeated and non-extreme
generators are mixed in.  For the pointed family the last row of ``M`` picks
the last coordinate of ``c``, which is positive, so no line can occur.
"""

import random
from itertools import product

import pytest

from oracles import brute_force_cone, brute_force_meet, kernel_basis, reference_double_description
from toricfan.cone import Cone, _double_description

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies
SETTINGS = hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
SMALL = st.integers(-2, 2)


@st.composite
def generator_sets(draw, n=None, pointed=None):
    n = draw(st.integers(2, 4)) if n is None else n
    pointed = draw(st.booleans()) if pointed is None else pointed
    d = max(1, n - draw(st.sampled_from((0, 0, 0, 1, 2))))  # full-dimensional most often
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    if d == n:
        rows, last = unit[:-1], unit[-1]
    else:
        rows = draw(st.lists(st.tuples(*[SMALL] * d), min_size=n - 1, max_size=n - 1))
        last = unit[-1] if pointed else draw(st.tuples(*[SMALL] * d))
    lead = st.integers(1, 3) if pointed else st.integers(-3, 3)
    cs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (d - 1), lead), min_size=d, max_size=7))
    gens = [tuple(sum(a * x for a, x in zip(row, c)) for row in rows + [last]) for c in cs]
    gens = [g for g in gens if any(g)]
    hyp.assume(gens)
    for i, j, k in draw(st.lists(st.tuples(*[st.integers(0, len(gens) - 1)] * 2, st.integers(1, 2)),
                                 max_size=2)):
        extra = tuple(k * x + y for x, y in zip(gens[i], gens[j]))
        if any(extra):
            gens.append(extra)  # a multiple when i == j, else (usually) not extreme
    return n, gens


def test_double_description_matches_reference():
    """The kernel returns the reference routine's ``(lineality, rays, zeros)``,
    order included.  Entries in [-3, 3] give zero rows, repeated rows,
    implicit equalities and lines; the tally checks that they all occur.  It
    also counts the runs whose first cut comes right after n pivots (the
    first n rows are independent): the cut that takes every pair as an edge
    with no scan, on n independent rays."""
    rng = random.Random(1996)
    seen = {"line": 0, "implicit equality": 0, "zero row": 0, "repeated row": 0, "cut after n pivots": 0}
    for _ in range(2500):
        n = rng.randint(1, 5)
        eqs, ineqs = ([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, hi))]
                      for hi in (2, 9))
        got = _double_description(n, eqs, ineqs)
        assert got == reference_double_description(n, eqs, ineqs), (n, eqs, ineqs)
        lineality, _, zeros = got
        seen["line"] += bool(lineality)
        seen["implicit equality"] += any(any(a) and all(z >> j & 1 for z in zeros) for j, a in enumerate(ineqs))
        seen["zero row"] += any(not any(a) for a in eqs + ineqs)
        seen["repeated row"] += len(set(ineqs)) < len(ineqs)
        rows = eqs + ineqs
        seen["cut after n pivots"] += len(rows) > n and not kernel_basis(rows[:n], n)
    assert min(seen.values()) >= 50, seen


def _lattice(cone):
    return {frozenset(cone.rays[i] for i in face.ray_indices): k
            for k in range(cone.dim + 1) for face in cone.faces(k)}


@hyp.settings(SETTINGS, max_examples=200)
@hyp.given(generator_sets())
def test_from_rays_matches_oracle(case):
    n, gens = case
    expected = brute_force_cone(n, gens)
    if expected is None:
        with pytest.raises(ValueError, match="contains a line"):
            Cone.from_rays(n, gens)
        return
    rays, equations, normals, faces = expected
    cone = Cone.from_rays(n, gens)
    assert cone.rays == rays
    assert cone.dim == n - len(equations)
    if cone.dim == n:
        assert tuple(sorted(cone.facet_normals)) == normals
    assert _lattice(cone) == faces


@SETTINGS
@hyp.given(generator_sets(pointed=True))
def test_inequalities_round_trip(case):
    n, gens = case
    cone = Cone.from_rays(n, gens)
    assert Cone.from_inequalities(n, cone.span_equations, cone.facet_normals) == cone


@SETTINGS
@hyp.given(generator_sets(pointed=True), st.randoms(use_true_random=False))
def test_generator_order_is_irrelevant(case, rng):
    n, gens = case
    shuffled = list(gens)
    rng.shuffle(shuffled)
    cone, other = Cone.from_rays(n, gens), Cone.from_rays(n, shuffled)
    assert other == cone and other.dim == cone.dim
    assert _lattice(other) == _lattice(cone)
    if cone.dim == n:
        assert other.facet_normals == cone.facet_normals


@hyp.settings(SETTINGS, max_examples=60)  # the oracle's meet scans many (n-1)-subsets
@hyp.given(st.integers(3, 4).flatmap(lambda n: st.tuples(generator_sets(n, True), generator_sets(n, True))))
def test_meet_matches_oracle(pair):
    (n, gens_a), (_, gens_b) = pair
    a, b = Cone.from_rays(n, gens_a), Cone.from_rays(n, gens_b)
    assert a.meet_rays(b) == b.meet_rays(a) == brute_force_meet(n, gens_a, gens_b)


@SETTINGS
@hyp.given(generator_sets(pointed=True))
def test_a_line_raises(case):
    n, gens = case
    with pytest.raises(ValueError, match="contains a line"):
        Cone.from_rays(n, gens + [tuple(-x for x in gens[0])])
    cone = Cone.from_rays(n, gens)
    if cone.dim < n:  # the rays span less than Q^n, so {r.x >= 0} holds a line
        with pytest.raises(ValueError, match="contains a line"):
            Cone.from_inequalities(n, [], cone.rays)


def _attributes(cone):
    return cone.rays, cone.dim, cone.span_equations, cone.facet_normals, cone._incidence


def _random_cone(rng, n):
    """A pointed cone in Q^n: generators ``c`` with a positive last
    coordinate, mapped by the standard basis (full-dimensional, in the
    halfspace x_n > 0) or, one time in three, by a random basis of a
    subspace of dimension d < n (lower-dimensional, in any position)."""
    d = n if rng.random() < 2 / 3 else rng.randint(1, n)
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)] if d == n else \
        [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
    gens = []
    for _ in range(rng.randint(1, n + 2)):
        c = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2)]
        gens.append(tuple(sum(x * row[i] for x, row in zip(c, basis)) for i in range(n)))
    gens = [g for g in gens if any(g)]
    try:
        return Cone.from_rays(n, gens) if gens else None
    except ValueError:  # the random basis was singular and let a line in
        return None


def _pairs(rng):
    """2,000 pairs of ``_random_cone``s in one random dimension from 1 to 5,
    then 250 pairs of 5-D cones over 8-12 random vertices of the 0/1 4-cube
    at height one: their square 2-faces are 3-D faces of four rays, so a row
    can vanish on n - 1 rays that span no facet."""
    pairs = 0
    while pairs < 2000:
        n = rng.randint(1, 5)
        a, b = _random_cone(rng, n), _random_cone(rng, n)
        if a is not None and b is not None:
            pairs += 1
            yield n, a, b
    corners = list(product((0, 1), repeat=4))
    for _ in range(250):
        a, b = (Cone.from_rays(5, [c + (1,) for c in rng.sample(corners, rng.randint(8, 12))]) for _ in "ab")
        yield 5, a, b


def _read_off_cases(n, dim, inequalities, rays, zeros):
    """The cases of ``Cone._read_off`` that one run's output exercises, for a
    cone of dimension ``dim``: from the rays and their zero sets over
    ``inequalities``, read as each row's tight set of rays."""
    if len(rays) < 2:
        return []
    if dim < n:
        return ["lower-dimensional fallback"]
    tight = [frozenset(i for i, z in enumerate(zeros) if z >> j & 1) for j in range(len(inequalities))]
    if any(len(t) == len(rays) for t in tight):  # a zero row, which also sends the read-off to a cold build
        return []
    large = [t for t in tight if len(t) >= n - 1]
    cases = []
    if len(set(large)) < len(large):
        cases.append("repeated tight set")
    if any(t < u for t in large for u in tight):
        cases.append("non-facet tight set of n - 1 rays")
    return cases


def test_warm_meet_and_read_off_match_cold_builds():
    """``meet_rays`` (started from the first cone's rays) equals a cold run
    on both cones' constraints; ``intersect`` and ``from_inequalities``
    (read off that run) equal a cold ``_from_primitive`` build on the same
    rays, attribute for attribute.  The tally checks that every kind of meet
    and of inequality row occurs, and every case of the read-off: a tight set
    of at least n - 1 rays met twice (the first row is kept) or lying under a
    larger one (it is no facet), 2-D meets, whose facets have one ray, and
    the fallback to a cold build when the cone spans less than Q^n."""
    rng = random.Random(1986)
    seen = {"full-dimensional": 0, "lower-dimensional": 0, "zero": 0, "2-D meet": 0,
            "redundant row": 0, "repeated row": 0, "non-primitive row": 0, "zero row": 0,
            "repeated tight set": 0, "non-facet tight set of n - 1 rays": 0, "lower-dimensional fallback": 0}
    for n, a, b in _pairs(rng):
        rays = a.meet_rays(b)
        eqs = a.span_equations + b.span_equations
        _, cold, _ = _double_description(n, eqs, a.facet_normals + b.facet_normals)
        assert rays == tuple(sorted(cold)), (a, b)
        meet = a.intersect(b)
        assert _attributes(meet) == _attributes(Cone._from_primitive(n, list(rays))), (a, b)
        seen["zero" if not rays else "full-dimensional" if meet.dim == n else "lower-dimensional"] += 1
        seen["2-D meet"] += n == meet.dim == 2
        warm, zeros, ineqs = a._meet(b)
        for case in _read_off_cases(n, meet.dim, ineqs, warm, zeros):
            seen[case] += 1

        normals = list(a.facet_normals)
        extra = []
        if len(normals) >= 2 and rng.random() < 0.5:
            extra.append(tuple(x + y for x, y in zip(*rng.sample(normals, 2))))
            seen["redundant row"] += 1
        if normals and rng.random() < 0.5:
            extra.append(rng.choice(normals))
            seen["repeated row"] += 1
        if normals and rng.random() < 0.5:
            k = rng.randint(2, 3)
            extra.append(tuple(k * x for x in rng.choice(normals)))
            seen["non-primitive row"] += 1
        if rng.random() < 0.2:
            extra.append((0,) * n)
            seen["zero row"] += 1
        ineqs = normals + extra
        rng.shuffle(ineqs)
        back = Cone.from_inequalities(n, a.span_equations, ineqs)
        _, cold, zeros = _double_description(n, a.span_equations, ineqs)
        assert _attributes(back) == _attributes(Cone._from_primitive(n, cold)), (a, ineqs)
        assert back == a
        for case in _read_off_cases(n, back.dim, ineqs, cold, zeros):
            seen[case] += 1
    assert min(seen.values()) >= 50, seen
