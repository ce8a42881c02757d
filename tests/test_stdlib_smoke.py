"""The stdlib-only contract: the command line, the demos and no dependencies.

    PYTHONPATH=src python -S tests/test_stdlib_smoke.py

``python -S`` hides site-packages, so only the standard library and
``toricfan`` can import.  Run as a script, this file runs every row of
``ROWS`` in process through ``toricfan.cli.run`` (re-entrant), the
ample-witness degrees, every demo with its expected lines and three
process-level checks, prints every failure and exits 1 if there is one.
A ``--json`` row that prints no JSON and a demo that raises are failures
like any other, and the run goes on.
Under pytest, ``test_stdlib_smoke`` runs it the same way in a fresh
``python -S`` process, so tier-1 holds the contract on every Python it runs
on.
"""

import contextlib
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

from toricfan import cli

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cube(d):
    """The face fan of the d-cube: its vertices as rays, one cone per facet."""
    rays = list(product([-1, 1], repeat=d))
    return {"dim": d, "rays": rays,
            "max_cones": [[i for i, r in enumerate(rays) if r[axis] == sign] for axis in range(d) for sign in (-1, 1)]}


def fan(rays, cones):
    return {"dim": len(rays[0]), "rays": rays, "max_cones": cones}


def suspension(d):
    """The d-cube's face fan lifted to height 1 and closed below by -e_(d+1): no ray is Egyptian."""
    base = cube(d)
    top = len(base["rays"])
    return fan([[*r, 1] for r in base["rays"]] + [[0] * d + [-1]],
               [list(range(top))] + [cone + [top] for cone in base["max_cones"]])


def divisor(*coefficients):
    return {"coefficients": list(coefficients)}


P2 = fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])


# Each file as a dict written as JSON, or as a string written verbatim (malformed files).
FILES = {
    "cube4.json": cube(4),
    "cube3.json": cube(3),
    # On this incomplete 4-fan the characters' denominators have lcm 333839880, the Cartier
    # index, which is taken in closed form (trying the lcm's divisors took 24 s).
    "large_lcm.json": fan(
        [[-2, -2, 2, 3], [-2, 3, 2, 3], [-1, -2, -1, 3], [-1, 3, -2, 1], [0, 0, -1, 0],
         [2, 0, 0, -3], [2, 0, 3, 1], [2, 3, 1, 2], [3, 2, 0, -1]],
        [[0, 1, 3, 5], [0, 1, 5, 6], [1, 2, 3, 7], [0, 2, 5, 6], [0, 1, 2, 7], [2, 4, 7, 8], [1, 6, 7, 8],
         [2, 5, 6, 8], [1, 5, 6, 8], [1, 3, 5, 8], [2, 6, 7, 8], [0, 2, 3, 4], [1, 3, 7, 8], [0, 1, 2, 3],
         [2, 4, 5, 8]]),
    "large_lcm_divisor.json": divisor(0, 0, 3, 2, 3, 2, 1, 0, 3),
    "p2_mod3.json": fan([[2, -1], [-1, 2], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "p112.json": fan([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "p112_alt.json": fan([[1, 0], [0, 1], [-1, -2]], [[0, 1], [0, 2], [1, 2]]),  # the same in other coordinates
    "d0.json": divisor(1, 0, 0),
    "p2.json": P2,
    "h.json": divisor(1, 0, 0),
    "h3.json": divisor(1, 1, 1),
    "quadrant.json": fan([[1, 0], [0, 1]], [[0, 1]]),
    "zero.json": divisor(0, 0),
    "ones2.json": divisor(1, 1),
    "de.json": divisor(1, *[0] * 7),  # on Y_{3,2}
    "short.json": divisor(1, 0),
    "bool_divisor.json": divisor(True, *[0] * 7),
    "cross3.json": fan([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                         [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]),
    "ones6.json": divisor(*[1] * 6),
    "ones8.json": divisor(*[1] * 8),
    "overlap.json": fan([[1, 0], [1, 2], [2, 1], [0, 1]], [[0, 1], [2, 3]]),
    "overlap_inner.json": fan([[1, 0], [1, 2], [1, 1], [0, 1]], [[0, 1], [2, 3]]),
    "two.json": fan([[1, 0], [0, 1], [-1, 1]], [[0, 1], [1, 2]]),
    "inner.json": fan([[1, 0], [1, 1], [0, 1]], [[0, 1, 2]]),
    "line.json": fan([[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]]),
    "line_pair.json": fan([[1, 0], [-1, 0]], [[0], [1]]),
    "unused.json": fan([[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1]]),
    "negative.json": fan([[1, 0], [0, 1]], [[0, -1]]),
    "repeated.json": fan([[1, 0], [0, 1]], [[0, 1, 1]]),
    "p1.json": fan([[1], [-1]], [[0], [1]]),
    "one_ray.json": fan([[-1, -3]], [[0]]),
    # One 4-D cone on six rays: an incomplete fan in which ray 5's star is not pyramidal.
    "np.json": fan([[1, 1, 0, 1], [1, -1, 0, 1], [-1, -1, 0, 1], [-1, 1, 0, 1], [0, 0, 1, 1], [0, 3, -1, 1]],
                   [list(range(6))]),
    "suspension.json": suspension(3),
    "oops.json": "{oops",
    "bool_dim.json": '{"dim": true, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
    "bool_ray.json": '{"dim": 1, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
    "bool_index.json": '{"dim": 1, "rays": [[1], [-1]], "max_cones": [[false], [1]]}',
    "array.json": [1, 2],
    "no_rays.json": {"dim": 2, "max_cones": [[0]]},
    "long_ray.json": fan([[1, 0], [0, 1, 1]], [[0, 1]]),
    "int_labels.json": {**P2, "labels": [1, 2, 3]},
    "short_labels.json": {**P2, "labels": ["a"]},
    "array_divisor.json": [1, 0, 0],
    "cut_divisor.json": '{"coefficients":[1,0',
}

COMMANDS = "validate complete cartier index picard classgroup projective egyptian modify degree family report"
REPORT_AT_0 = {"degree": 1, "modification.verified": True, "modification.max_cones": 9}

# (argv, exit code, {JSON key path: expected value}[, seconds]), run in order in the files' directory.
# The value "<missing>" expects the key to be absent.  A command line the parser rejects gets the
# report of every other input error, so rows pin argparse's error messages too.
ROWS = [
    ("--help", 0, {}),
    ("nosuchcommand", 2, {}),
    ("nosuchcommand --json", 2, {"error": "argument command: invalid choice: 'nosuchcommand' (choose from "
                                          + ", ".join(map(repr, COMMANDS.split())) + ")"}),
    *((f"{command} --help", 0, {}) for command in COMMANDS.split()),
    ("picard --json", 2, {"error": "the following arguments are required: --fan"}),
    ("family nope", 2, {}),
    ("family nope --json", 2, {"error": "argument which: invalid choice: 'nope' (choose from 'yu')"}),
    ("family yu --n 3 --json", 2, {"error": "the following arguments are required: --u"}),
    ("family yu --n 2 --u 1 --json", 2, {"error": "n must be at least 3"}),
    ("family yu --n 3 --u 1 --json", 0, {"fan.dim": 3, "fan.rays": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, -1, 0],
                                                                      [-1, 0, -1], [0, -1, -1], [1, 1, -1], [0, 0, -1]]}),
    ("family yu --n 3 --u 2 --emit y.json", 0, {}),
    ("validate --fan y.json", 0, {}),
    ("complete --fan y.json", 0, {}),
    ("picard --fan y.json", 0, {}),
    ("picard --json --fan y.json", 0, {"picard.rank": 0, "picard.trivial": True}),
    ("classgroup --json --fan y.json", 0, {"class_group.rank": 5}),
    *[("projective --fan y.json", 1, {})] * 3,  # the same verdict on every call
    ("projective --json --fan y.json", 1, {"verdict": "Infeasible"}),
    ("egyptian --json --fan y.json --ray 0", 0, {"egyptian": True}),
    ("egyptian --json --fan y.json --ray notanint", 2, {"error": "argument --ray: invalid int value: 'notanint'"}),
    ("egyptian --json --fan y.json", 2, {"error": "the following arguments are required: --ray"}),
    ("modify --fan y.json --ray 0 --emit m.json", 0, {}),
    ("validate --fan m.json", 0, {}),  # Fan.from_cones rebuilds every cone of the refined fan
    ("egyptian --fan m.json --ray 0", 0, {}),
    ("report --json --fan y.json --ray 0", 0,
     {**REPORT_AT_0, "egyptian": True, "divisor_projective": True, "growth": "c₃(E_t) = t² + O(t)"}),
    ("report --json --fan y.json --ray 0 --allow-incomplete", 2, {"error": "unrecognized arguments: --allow-incomplete"}),
    ("cartier --json --fan y.json", 2, {"error": "the following arguments are required: --divisor"}),
    ("cartier --json --fan y.json --divisor de.json", 1, {"cartier": False, "q_cartier": False}),
    ("index --fan y.json --divisor de.json", 1, {}),
    ("index --json --fan m.json --divisor de.json", 0, {"q_cartier": True, "cartier_index": 1}),
    *((f"{command} --json --fan y.json --divisor short.json", 2,  # the library's check, for every divisor command
       {"error": "divisor has 2 coefficients but the fan has 8 rays"}) for command in ("cartier", "index", "degree")),
    ("cartier --json --fan y.json --divisor bool_divisor.json", 2, {"error": "coefficients must be a list of integers"}),
    ("family yu --n 3 --u 1 --emit y1.json", 0, {}),
    ("picard --json --fan y1.json", 0, {"picard.rank": 1}),
    ("projective --fan y1.json", 0, {}),
    ("report --json --fan y1.json --ray 0", 0, REPORT_AT_0),
    ("picard --json --fan cube4.json", 0, {"picard.rank": 1}),
    ("egyptian --fan cube4.json --ray 0", 1, {}),
    ("modify --fan cube4.json --ray 0", 1, {}),
    ("report --json --fan cube4.json --ray 0", 1, {"egyptian": False}),
    ("report --json --fan suspension.json --ray 0", 1, {"egyptian": False, "modification": "<missing>"}),
    ("modify --fan suspension.json --ray 0", 1, {}),
    # Ray 0 splits the 3-cube's three square star cones: 6 - 3 + 2 * 3 = 9 cones.
    ("modify --json --fan cube3.json --ray 0 --emit cube3_mod.json", 0,
     {"max_cones": 9, "exceptional_walls": [[1, 2], [1, 4], [2, 4]]}),
    ("validate --fan cube3_mod.json", 0, {}),
    ("report --json --fan cube3.json --ray 0", 0, REPORT_AT_0),
    ("index --json --fan large_lcm.json --divisor large_lcm_divisor.json", 0, {"cartier_index": 333839880}, 20),
    ("classgroup --json --fan p2_mod3.json", 0, {"class_group.rank": 1, "class_group.invariant_factors": [3]}),
    ("cartier --json --fan p112.json --divisor d0.json", 1, {"q_cartier": True}),  # half-integral character
    ("cartier --json --fan p112_alt.json --divisor d0.json", 1,
     {"cartier": False, "q_cartier": True, "rational_characters": [["-1", "0"], ["-1", "1/2"], ["0", "0"]],
      "characters": "<missing>"}),
    # degree refuses a divisor that is only Q-Cartier; its multiple by the Cartier index is answered.
    ("degree --json --fan p112.json --divisor d0.json", 2,
     {"error": "scale divisor to its Cartier index first: polytope has non-integral vertices"}),
    ("validate --json --fan p2.json", 0, {"valid": True, "complete": True}),
    ("degree --fan p2.json --divisor h.json", 0, {}),
    ("degree --json --fan p2.json --divisor h.json", 0, {"degree": 1}),
    ("degree --json --fan quadrant.json --divisor zero.json", 2, {"error": "polytope is unbounded"}),
    ("degree --json --fan quadrant.json --divisor ones2.json", 2, {"error": "polytope is unbounded"}),
    ("degree --json --fan p2.json --divisor h3.json", 0, {"degree": 9}),
    ("degree --json --fan cross3.json --divisor ones6.json", 0, {"degree": 48}),  # the cube [-1, 1]^3
    ("degree --json --fan cube3.json --divisor ones8.json", 0, {"degree": 8}),  # the octahedron
    ("complete --fan quadrant.json", 1, {}),
    ("picard --json --fan quadrant.json", 2, {"error": "picard group computation requires a complete fan"}),
    ("projective --json --fan quadrant.json", 2, {"error": "projectivity test requires a complete fan"}),
    ("classgroup --json --fan line_pair.json", 2, {"error": "rays do not span the ambient space"}),
    ("egyptian --fan quadrant.json --ray 0", 2, {}),
    ("egyptian --fan quadrant.json --ray 0 --allow-incomplete", 0, {}),
    ("egyptian --json --fan np.json --ray 5", 2,
     {"error": "egyptian position is defined over a complete fan (pass --allow-incomplete to override)"}),
    ("egyptian --fan np.json --ray 5 --allow-incomplete", 1, {}),
    ("report --json --fan np.json --ray 5", 2, {"error": "report requires a complete fan"}),
    ("picard --json --fan nope.json", 2, {"error": "cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"}),
    ("validate --json --fan oops.json", 2,
     {"error": "parse error at line 1, column 2: Expecting property name enclosed in double quotes"}),
    ("validate --json --fan bool_dim.json", 2, {"error": "dim must be a positive integer"}),
    ("validate --json --fan bool_ray.json", 2, {"error": "rays must be a list of integer vectors"}),
    ("validate --json --fan bool_index.json", 2, {"error": "max_cones must be a list of ray-index lists"}),
    # The input errors only the CLI can see: the files' JSON shape and the --ray index.
    ("validate --json --fan array.json", 2, {"error": "fan file must be a JSON object"}),
    ("validate --json --fan no_rays.json", 2, {"error": "fan file is missing the key 'rays'"}),
    ("validate --json --fan long_ray.json", 2, {"error": "ray 1 has length 3, expected 2"}),
    ("validate --json --fan int_labels.json", 2, {"error": "labels must be a list of strings"}),
    ("validate --json --fan short_labels.json", 2, {"error": "labels must match max_cones in length"}),
    ("cartier --json --fan p2.json --divisor array_divisor.json", 2,
     {"error": "divisor file must be a JSON object with a 'coefficients' key"}),
    ("cartier --json --fan p2.json --divisor cut_divisor.json", 2,
     {"error": "parse error at line 1, column 21: Expecting ',' delimiter"}),
    ("egyptian --json --fan p2.json --ray 3", 2, {"error": "ray index 3 out of range 0..2"}),
    ("report --json --fan p2.json --ray -1", 2, {"error": "ray index -1 out of range 0..2"}),
    ("validate --fan overlap.json", 1, {}),
    ("validate --json --fan overlap_inner.json", 1,
     {"valid": False, "error": "not a fan: cones 0,1 overlap badly; intersection rays [(1, 1), (1, 2)]"}),
    ("validate --fan two.json", 0, {}),
    ("validate --json --fan inner.json", 1, {"error": "maximal cone 0 lists a non-extreme generator"}),
    ("validate --json --fan line.json", 1, {"error": "cone contains a line"}),
    ("validate --json --fan unused.json", 1, {"error": "ray 2 does not appear in any maximal cone"}),
    ("validate --json --fan negative.json", 1, {"error": "maximal cone 0 has a ray index out of range"}),
    ("validate --json --fan repeated.json", 1, {"error": "maximal cone 0 repeats a ray index"}),
    *((f"{command} --json --fan p1.json --ray 0", 2,  # a 1-dimensional fan has no quotient by a ray
       {"error": f"{command} needs a fan of dimension at least 2, not 1"})
      for command in ("report", "modify")),
    ("egyptian --fan one_ray.json --ray 0 --allow-incomplete", 0, {}),
    ("modify --fan one_ray.json --ray 0 --allow-incomplete", 2, {}),  # its star quotient is the zero fan
]

# Y_{n,1}'s ample witness and its degree, within 5 s: Y_{6,1}'s box at t = 6 holds 2,599,051
# lattice points, and Y_{7,1}'s has the largest simplex determinant here.
WITNESS_DEGREES = {6: 186, 7: 441}

# Every demo runs; these are the lines some of them must print.
DEMOS = {
    "01_exact_feasibility.py": ["feasible: True  witness: (2, 2, 2)"],
    "02_cones_and_fans.py": ["verdict at (1, 0, 1): pyramidal",
                             "meet: ((0, 1, 1), (1, 0, 1))  face of square: True  face of neighbour: True"],
    "03_divisors_and_picard.py": ["degree of 3H: 9"],
    "04_trivial_picard_family.py": ["combinatorics verified: True"],
}


def lookup(report, path):
    for key in path.split("."):
        if not isinstance(report, dict) or key not in report:
            return "<missing>"
        report = report[key]
    return report


def check(argv, code, expected, seconds=None):
    """Run one row; returns (the --json report or {}, the row's failures)."""
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.run(argv.split())
    elapsed = time.perf_counter() - started
    failures = [f"exit {got}, expected {code}"] if got != code else []
    report = {}
    if "--json" in argv.split():
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            failures.append("printed no JSON report")
    if report and report["exit_code"] != got:
        failures.append(f"report exit_code {report['exit_code']}, returned {got}")
    if seconds is not None and elapsed > seconds:
        failures.append(f"took {elapsed:.2f} s, bound {seconds} s")
    for path, want in expected.items():
        value = lookup(report, path)
        if value != want or type(value) is not type(want):
            failures.append(f"{path} = {value!r}, expected {want!r}")
    return report, [f"toricfan {argv}: {failure}" for failure in failures]


def process_failures():
    """What no in-process check can see: site-packages, a fresh import, the entry point."""
    failures = []
    if importlib.util.find_spec("sympy") is not None:
        failures.append("sympy imports: site-packages is visible (run with python -S)")
    probe = "import sys, toricfan.cli; sys.exit('dataclasses' in sys.modules)"
    if subprocess.run([sys.executable, "-S", "-c", probe], env=ENV).returncode:
        failures.append("import toricfan.cli loads dataclasses")
    entry = subprocess.run([sys.executable, "-S", "-m", "toricfan", "--help"], env=ENV, stdout=subprocess.DEVNULL)
    if entry.returncode:
        failures.append(f"python -S -m toricfan --help exits {entry.returncode}")
    return failures


def main():
    failures = process_failures()
    demos = sorted((ROOT / "demos").glob("*.py"))
    if len(demos) < 4:
        failures.append(f"found {len(demos)} demos, expected at least 4")
    for demo in demos:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception as exc:  # reported like any failure, and the other demos still run
            failures.append(f"demo {demo.name} raised {type(exc).__name__}: {exc}")
            continue
        failures += [f"demo {demo.name} printed no line {line!r}"
                     for line in DEMOS.get(demo.name, []) if line not in out.getvalue().splitlines()]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, data in FILES.items():
                Path(name).write_text(data if isinstance(data, str) else json.dumps(data))
            for row in ROWS:
                failures += check(*row)[1]
            for n, degree in WITNESS_DEGREES.items():
                failures += check(f"family yu --n {n} --u 1 --emit y{n}1.json", 0, {})[1]
                report, problems = check(f"projective --json --fan y{n}1.json", 0, {})
                Path(f"y{n}1_ample.json").write_text(json.dumps(divisor(*report.get("ample_divisor", []))))
                failures += problems + check(f"degree --json --fan y{n}1.json --divisor y{n}1_ample.json",
                                             0, {"degree": degree}, 5)[1]
        finally:
            os.chdir(here)
    for failure in failures:
        print(failure)
    print(f"stdlib smoke: {len(failures)} failed")
    return 1 if failures else 0


def test_a_row_that_prints_no_json_fails_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(cli, "run", lambda argv: 0)
    report, failures = check("picard --json --fan y.json", 0, {"picard.rank": 0})
    assert report == {}
    assert failures == ["toricfan picard --json --fan y.json: printed no JSON report",
                        "toricfan picard --json --fan y.json: picard.rank = '<missing>', expected 0"]


def test_stdlib_smoke():
    proc = subprocess.run([sys.executable, "-S", __file__], env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


if __name__ == "__main__":
    sys.exit(main())
