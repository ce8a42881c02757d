"""The three workloads: inputs from a seed, one pass of questions, verdict checks.

Each workload asks its questions through ``Session.ask`` and checks every
answer with ``oracle`` outside the timed region.  ``BUILD`` names the ops
that construct and validate the object the questions are about,
``QUESTIONS`` the questions every metric counts, and ``PROBES`` questions
that are asked and checked but kept out of the gated metrics (see NOTES.md:
at the parent commit they fail, and a fix must not read as a slowdown).
``QUESTION_CENTRE`` is the statistic of the pooled question latencies that
stays steady on the workload's inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import comb, isqrt
from pathlib import Path

import oracle
from oracle import require


class YuGrid:
    """Library calls on Y_u for n = 3..6, u = 1..3, each instance freshly built per pass."""

    name = "yu_grid"
    BUILD = ("build",)
    QUESTIONS = ("picard", "egyptian", "modify")
    PROBES = ("projective",)
    QUESTION_CENTRE = "interquartile_mean"  # a fixed set: clustered latencies

    def __init__(self, tf, seed: int, workdir: Path):
        self.tf = tf
        self.instances = [(n, u) for n in range(3, 7) for u in range(1, 4)]
        random.Random(seed).shuffle(self.instances)
        self.expected = {(n, u): oracle.yu_fan_data(n, u) for n, u in self.instances}
        self.pn = {n: oracle.projective_space_data(n - 1) for n in range(3, 7)}

    def passes(self):
        while True:
            yield self.run_pass

    def run_pass(self, session) -> None:
        for n, u in self.instances:
            self._instance(session, n, u)

    def _instance(self, session, n: int, u: int) -> None:
        tf = self.tf
        rays, cones = self.expected[(n, u)]

        def check_build(yu):
            require(yu.fan.rays == tuple(rays), "Y_u rays differ from the family's formula")
            require(yu.fan.max_cones == tuple(tuple(c) for c in cones), "Y_u cones differ")

        yu = session.ask("build", lambda: tf.families.yu_fan(n, u), check_build)
        if yu is None:
            return
        fan = yu.fan

        def check_picard(group):
            require(group.rank == (1 if u == 1 else 0), f"Pic rank {group.rank} for u={u}")
            require(not group.invariant_factors, "Pic of a complete fan is free")

        session.ask("picard", lambda: tf.divisor.picard_group(fan), check_picard)

        def egyptian():
            report = tf.egyptian.egyptian_report(fan, 0)
            quotient = fan.quotient(0)
            pn = tf.families.projective_space_fan(n - 1)
            return report, quotient, pn, quotient.isomorphism(pn)

        def check_egyptian(result):
            report, quotient, pn, iso = result
            pn_rays, pn_cones = self.pn[n]
            require(report.verdict, "ray e of Y_u must be in Egyptian position")
            require(pn.rays == tuple(pn_rays) and pn.max_cones == tuple(tuple(c) for c in pn_cones),
                    "projective space fan differs from its definition")
            require(iso is not None, "quotient of Y_u at e must be isomorphic to P^(n-1)")
            oracle.check_isomorphism(iso.matrix, iso.ray_map, quotient.rays, quotient.max_cones,
                                     pn_rays, pn_cones)

        session.ask("egyptian", egyptian, check_egyptian)

        def modify():
            result = tf.egyptian.small_modification(fan, 0)
            return result, tf.egyptian.verify_modification(result)

        def check_modify(pair):
            result, checks = pair
            require(checks.passed, f"modification checks failed: {checks.failures}")
            require(result.fan.rays == fan.rays, "modification changed the rays")
            require(len(result.fan.max_cones) == 2 * n + comb(n, 2), "wrong number of cones")
            require(len(result.exceptional_walls) == n, "wrong number of exceptional walls")

        session.ask("modify", modify, check_modify)

        def check_projective(result):
            require(result.feasible == (u == 1), f"Y_u is projective exactly for u = 1 (u={u})")
            if result.feasible:
                oracle.check_ample_witness(rays, cones, result.witness_divisor,
                                           result.witness_data.characters)

        session.ask("projective", lambda: tf.divisor.is_projective(fan), check_projective)


# Expected CLI outcomes per fan file, known from the geometry (see NOTES.md).
_COMMANDS = ("validate", "picard", "projective", "egyptian", "modify", "report")


class CliFiles:
    """``toricfan.cli.run`` in-process with --json, one command at a time."""

    name = "cli_files"
    BUILD = ("validate",)
    QUESTIONS = ("picard", "egyptian", "modify")
    PROBES = ("projective", "report")
    QUESTION_CENTRE = "interquartile_mean"

    def __init__(self, tf, seed: int, workdir: Path):
        self.tf = tf
        self.files = {}
        for n in (3, 4, 5):
            for u in (1, 2):
                self.files[f"yu_{n}_{u}"] = self._fan_case(
                    *oracle.yu_fan_data(n, u), egyptian=True, splits=n, projective=(u == 1),
                    pic_rank=1 if u == 1 else 0)
        # Ray 0 of the 3-cube fan lies on three square cones, each a pyramid
        # over a triangle: all split.  The 4-cube's cubical cones are not
        # pyramids at a vertex.  The cross-polytope fan is simplicial: no splits.
        self.files["cube_3"] = self._fan_case(*oracle.cube_face_fan(3), egyptian=True, splits=3)
        self.files["cube_4"] = self._fan_case(*oracle.cube_face_fan(4), egyptian=False, splits=0)
        self.files["cross_4"] = self._fan_case(*oracle.cross_polytope_fan(4), egyptian=True, splits=0)
        self.files["malformed"] = {"text": '{"dim": 2, "rays": [[1, 0], [0, 1]', "bad": True}
        # Two 2-D cones that overlap in cone((2,1),(1,2)), a face of neither.
        overlap = {"dim": 2, "rays": [[1, 0], [1, 2], [2, 1], [0, 1]], "max_cones": [[0, 1], [2, 3]]}
        self.files["overlap"] = {"text": json.dumps(overlap), "bad": True, "invalid_fan": True}

        workdir.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        for label, case in self.files.items():
            path = workdir / f"{label}.json"
            path.write_text(case["text"])
            for command in _COMMANDS:
                self.jobs.append((label, command, str(path)))
        random.Random(seed).shuffle(self.jobs)

    @staticmethod
    def _fan_case(rays, cones, *, egyptian, splits, projective=True, pic_rank=None):
        if pic_rank is None:
            pic_rank = oracle.picard_rank(rays, cones)
        text = json.dumps({"dim": len(rays[0]), "rays": [list(r) for r in rays], "max_cones": cones})
        return {"text": text, "rays": rays, "cones": cones, "egyptian": egyptian, "splits": splits,
                "projective": projective, "pic_rank": pic_rank, "bad": False}

    def passes(self):
        while True:
            yield self.run_pass

    def run_pass(self, session) -> None:
        for label, command, path in self.jobs:
            argv = [command, "--fan", path, "--json"]
            if command in ("egyptian", "modify", "report"):
                argv += ["--ray", "0"]
            case = self.files[label]
            session.ask(command, lambda: self._run(argv),
                        lambda out: self._check(command, case, out))

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tf.cli.run(argv)
        return code, buf.getvalue()

    @staticmethod
    def expected_code(command: str, case: dict) -> int:
        if case["bad"]:
            # validate reports a well-formed file describing no fan as the
            # property failing (1); every other command rejects it as input (2).
            return 1 if command == "validate" and case.get("invalid_fan") else 2
        if command in ("egyptian", "modify", "report") and not case["egyptian"]:
            return 1
        if command == "projective" and not case["projective"]:
            return 1
        return 0

    def _check(self, command: str, case: dict, out) -> None:
        code, text = out
        expected = self.expected_code(command, case)
        if code != expected:
            raise UnexpectedExit(code, expected)
        if case["bad"]:
            return
        report = json.loads(text)
        rays, cones = case["rays"], case["cones"]
        if command == "validate":
            require(report["valid"] and report["complete"], "fan must be valid and complete")
            require(report["rays"] == len(rays) and report["max_cones"] == len(cones), "wrong counts")
        elif command == "picard":
            pic = report["picard"]
            require(pic["rank"] == case["pic_rank"] and not pic["invariant_factors"],
                    f"Pic should be Z^{case['pic_rank']}, got {pic['group']}")
        elif command == "projective":
            require(report["projective"] == case["projective"], "wrong projectivity verdict")
            if case["projective"]:
                oracle.check_ample_witness(rays, cones, report["ample_divisor"], report["characters"])
        elif command == "egyptian":
            require(report["egyptian"] == case["egyptian"], "wrong Egyptian verdict for ray 0")
        elif command == "modify" and case["egyptian"]:
            require(report["verification"]["passed"], "modification checks failed")
            require(report["max_cones"] == len(cones) + case["splits"], "wrong number of cones")
            require(len(report["exceptional_walls"]) == case["splits"], "wrong number of walls")
        elif command == "report" and case["egyptian"]:
            require(report["divisor_projective"] and report["modification"]["verified"],
                    "hypotheses should hold")
            require(report["modification"]["max_cones"] == len(cones) + case["splits"],
                    "wrong number of cones in the modification")
            require(isinstance(report["degree"], int) and report["degree"] >= 1, "degree must be >= 1")
            require(bool(report["growth"]), "growth statement missing")


class UnexpectedExit(Exception):
    """A CLI command returned another exit code than the geometry predicts."""

    def __init__(self, code: int, expected: int):
        super().__init__(f"exit {code}, expected {expected}")
        self.code = code
        self.expected = expected


class GeneratorBudgetExceeded(Exception):
    """A cut of an intersection went past ``ConePairs.GENERATOR_BUDGET`` or ``PAIR_BUDGET``."""


class ConePairs:
    """Random pointed cones in dimensions 3 and 4; consecutive cones are intersected.

    A pass is ``BLOCKS_PER_PASS`` blocks, drawn once from the seed and asked
    again in every pass.  A block is a chain of ten 3-D cones whose ray
    counts follow ``oracle.RAY_COUNT_CYCLE``, so its nine consecutive pairs
    cover every (4..6) x (4..6) combination once, plus one 4-D pair whose
    ray counts step through the same nine combinations block by block.
    """

    name = "cone_pairs"
    # A meet fails once a cut of Cone.intersect takes in or gives out more
    # generators than GENERATOR_BUDGET, or would combine more straddling
    # pairs than PAIR_BUDGET.  Pairs within both finish in well under 0.1 s,
    # a pair past them fails in a few ms with little memory, and the counts,
    # unlike a wall-clock deadline, are the same on every run (NOTES.md,
    # "Deadlines").
    GENERATOR_BUDGET = 1000
    PAIR_BUDGET = 5000
    # A safety net, more than 10x the slowest meet within the budgets.
    MEET_DEADLINE_S = 1.0
    BUILD = ("cone",)
    QUESTIONS = ("meet",)
    PROBES = ()
    QUESTION_CENTRE = "median"  # random pairs: the upper quartile moves with the seed
    BLOCKS_PER_PASS = 180

    def __init__(self, tf, seed: int, workdir: Path):
        self.tf = tf
        rng = random.Random(seed)
        cycle = oracle.RAY_COUNT_CYCLE
        self.chains = []  # (dimension, [rays per cone])
        for b in range(self.BLOCKS_PER_PASS):
            self.chains.append((3, [oracle.random_cone_rays(rng, 3, k) for k in cycle + cycle[:1]]))
            counts = (cycle[b % 9], cycle[(b + 1) % 9])
            self.chains.append((4, [oracle.random_cone_rays(rng, 4, k) for k in counts]))
        self.facts = {rays: oracle.ConeFacts(rays) for _, chain in self.chains for rays in chain}
        self._budget_cuts(tf.cone)

    def _budget_cuts(self, module) -> None:
        """Wrap the module's halfspace cut so that a growing generating set fails the meet.

        A cut of at most ``2 * sqrt(PAIR_BUDGET)`` rays cannot straddle more
        pairs than the budget, so the check reads only sizes there, and counts
        the rays on each side of the hyperplane only for larger cuts.
        Without a ``_cut`` to wrap, only the wall-clock ``MEET_DEADLINE_S``
        stops a growing meet.
        """
        cut = getattr(module, "_cut", None)
        if cut is None:
            return
        generators, pairs = self.GENERATOR_BUDGET, self.PAIR_BUDGET
        small = isqrt(4 * pairs)

        def budgeted(rays, functional, keep_positive):
            if len(rays) > generators:
                raise GeneratorBudgetExceeded(f"{len(rays)} generators")
            if len(rays) > small:
                values = [sum(a * b for a, b in zip(functional, r)) for r in rays]
                straddling = sum(v > 0 for v in values) * sum(v < 0 for v in values)
                if straddling > pairs:
                    raise GeneratorBudgetExceeded(f"{straddling} straddling pairs")
            out = cut(rays, functional, keep_positive)
            if len(out) > generators:
                raise GeneratorBudgetExceeded(f"{len(out)} generators")
            return out

        module._cut = budgeted

    def passes(self):
        while True:
            yield self.run_pass

    def run_pass(self, session) -> None:
        for d, chain in self.chains:
            cones = [session.ask("cone", lambda r=rays: self._cone(d, r),
                                 lambda out, r=rays: self._check_cone(r, out)) for rays in chain]
            for (ra, a), (rb, b) in zip(zip(chain, cones), zip(chain[1:], cones[1:])):
                if a is None or b is None:
                    continue
                session.ask("meet", lambda: self._meet(a, b),
                            lambda out: self._check_meet(self.facts[ra], self.facts[rb], out),
                            deadline_s=self.MEET_DEADLINE_S)

    def _cone(self, d, rays):
        cone = self.tf.cone.Cone.from_rays(d, rays)
        faces = [cone.faces(k) for k in range(d + 1)]
        back = self.tf.cone.Cone.from_inequalities(d, cone.span_equations, cone.facet_normals)
        return cone, faces, back

    def _check_cone(self, rays, out) -> None:
        cone, faces, back = out
        facts = self.facts[rays]
        require(cone.rays == facts.rays, "extreme rays differ")
        require(set(cone.facet_normals) == facts.normals, "facet normals differ")
        for k, listed in enumerate(faces):
            mine = {f for f in facts.faces if facts.face_dim(f) == k}
            require({frozenset(f.ray_indices) for f in listed} == mine, f"{k}-faces differ")
        require(back == cone, "from_inequalities does not round-trip")

    def _meet(self, a, b):
        meet = a[0].intersect(b[0])
        return meet, meet.is_face_of(a[0]), meet.is_face_of(b[0])

    @staticmethod
    def _check_meet(fa, fb, out) -> None:
        meet, in_a, in_b = out
        for r in meet.rays:
            require(fa.contains(r) and fb.contains(r), f"intersection ray {r} lies outside a cone")
        require(in_a == fa.is_face(meet.rays), "is_face_of disagrees with the face lattice of A")
        require(in_b == fb.is_face(meet.rays), "is_face_of disagrees with the face lattice of B")


WORKLOADS = {w.name: w for w in (YuGrid, CliFiles, ConePairs)}
