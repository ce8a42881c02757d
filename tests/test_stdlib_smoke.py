"""The stdlib-only contract: the command line, the demos and no dependencies.

    PYTHONPATH=src python -S tests/test_stdlib_smoke.py

``python -S`` hides site-packages, so only the standard library and
``toricfan`` can import.  Run as a script, this file runs every row of
``ROWS`` in process through ``toricfan.cli.run`` (re-entrant), the
ample-witness degrees, the demos' expected lines and three process-level
checks, prints every failure and exits 1 if there is one.  Under pytest,
``test_stdlib_smoke`` runs it the same way in a fresh ``python -S``
process, so tier-1 holds the contract on every Python it runs on.
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


def divisor(*coefficients):
    return {"coefficients": list(coefficients)}


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
    "d0.json": divisor(1, 0, 0),
    "p2.json": fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "h.json": divisor(1, 0, 0),
    "h3.json": divisor(1, 1, 1),
    "quadrant.json": fan([[1, 0], [0, 1]], [[0, 1]]),
    "zero.json": divisor(0, 0),
    "cross3.json": fan([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                         [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]),
    "ones6.json": divisor(*[1] * 6),
    "ones8.json": divisor(*[1] * 8),
    "overlap.json": fan([[1, 0], [1, 2], [2, 1], [0, 1]], [[0, 1], [2, 3]]),
    "two.json": fan([[1, 0], [0, 1], [-1, 1]], [[0, 1], [1, 2]]),
    "inner.json": fan([[1, 0], [1, 1], [0, 1]], [[0, 1, 2]]),
    "line.json": fan([[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]]),
    "unused.json": fan([[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1]]),
    "negative.json": fan([[1, 0], [0, 1]], [[0, -1]]),
    "repeated.json": fan([[1, 0], [0, 1]], [[0, 1, 1]]),
    "p1.json": fan([[1], [-1]], [[0], [1]]),
    "one_ray.json": fan([[-1, -3]], [[0]]),
}

COMMANDS = "validate complete cartier index picard classgroup projective egyptian modify degree family report"
REPORT_AT_0 = {"degree": 1, "modification.verified": True, "modification.max_cones": 9}

# (argv, exit code, {JSON key path: expected value}[, seconds]), run in order in the files' directory.
ROWS = [
    ("--help", 0, {}),
    ("nosuchcommand", 2, {}),
    *((f"{command} --help", 0, {}) for command in COMMANDS.split()),
    ("family yu --n 3 --u 2 --emit y.json", 0, {}),
    ("validate --fan y.json", 0, {}),
    ("picard --fan y.json", 0, {}),
    ("picard --json --fan y.json", 0, {"picard.rank": 0}),
    ("projective --fan y.json", 1, {}),
    ("egyptian --fan y.json --ray 0", 0, {}),
    ("modify --fan y.json --ray 0 --emit m.json", 0, {}),
    ("validate --fan m.json", 0, {}),  # Fan.from_cones rebuilds every cone of the refined fan
    ("egyptian --fan m.json --ray 0", 0, {}),
    ("report --json --fan y.json --ray 0", 0, REPORT_AT_0),
    ("family yu --n 3 --u 1 --emit y1.json", 0, {}),
    ("picard --json --fan y1.json", 0, {"picard.rank": 1}),
    ("projective --fan y1.json", 0, {}),
    ("report --json --fan y1.json --ray 0", 0, REPORT_AT_0),
    ("picard --json --fan cube4.json", 0, {"picard.rank": 1}),
    ("egyptian --fan cube4.json --ray 0", 1, {}),
    ("modify --fan cube4.json --ray 0", 1, {}),
    ("report --json --fan cube4.json --ray 0", 1, {"egyptian": False}),
    # Ray 0 splits the 3-cube's three square star cones: 6 - 3 + 2 * 3 = 9 cones.
    ("modify --json --fan cube3.json --ray 0 --emit cube3_mod.json", 0,
     {"max_cones": 9, "exceptional_walls": [[1, 2], [1, 4], [2, 4]]}),
    ("validate --fan cube3_mod.json", 0, {}),
    ("report --json --fan cube3.json --ray 0", 0, REPORT_AT_0),
    ("index --json --fan large_lcm.json --divisor large_lcm_divisor.json", 0, {"cartier_index": 333839880}, 20),
    ("classgroup --json --fan p2_mod3.json", 0, {"class_group.rank": 1, "class_group.invariant_factors": [3]}),
    ("cartier --json --fan p112.json --divisor d0.json", 1, {"q_cartier": True}),  # half-integral character
    ("degree --fan p2.json --divisor h.json", 0, {}),
    ("degree --fan quadrant.json --divisor zero.json", 2, {}),  # an unbounded polytope
    ("degree --json --fan p2.json --divisor h3.json", 0, {"degree": 9}),
    ("degree --json --fan cross3.json --divisor ones6.json", 0, {"degree": 48}),  # the cube [-1, 1]^3
    ("degree --json --fan cube3.json --divisor ones8.json", 0, {"degree": 8}),  # the octahedron
    ("picard --fan quadrant.json", 2, {}),
    ("egyptian --fan quadrant.json --ray 0", 2, {}),
    ("egyptian --fan quadrant.json --ray 0 --allow-incomplete", 0, {}),
    ("validate --fan overlap.json", 1, {}),
    ("validate --fan two.json", 0, {}),
    ("validate --json --fan inner.json", 1, {"error": "maximal cone 0 lists a non-extreme generator"}),
    ("validate --json --fan line.json", 1, {"error": "cone contains a line"}),
    ("validate --json --fan unused.json", 1, {"error": "ray 2 does not appear in any maximal cone"}),
    ("validate --json --fan negative.json", 1, {"error": "maximal cone 0 has a ray index out of range"}),
    ("validate --json --fan repeated.json", 1, {"error": "maximal cone 0 repeats a ray index"}),
    ("report --json --fan p1.json --ray 0", 2,  # a 1-dimensional fan has no quotient by a ray
     {"error": "report needs a fan of dimension at least 2, not 1"}),
    ("egyptian --fan one_ray.json --ray 0 --allow-incomplete", 0, {}),
    ("modify --fan one_ray.json --ray 0 --allow-incomplete", 2, {}),  # its star quotient is the zero fan
]

# Y_{n,1}'s ample witness and its degree, within 5 s: Y_{6,1}'s box at t = 6 holds 2,599,051
# lattice points, and Y_{7,1}'s has the largest simplex determinant here.
WITNESS_DEGREES = {6: 186, 7: 441}

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
    report = json.loads(out.getvalue()) if "--json" in argv.split() else {}
    failures = [f"exit {got}, expected {code}"] if got != code else []
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
    for name, lines in DEMOS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
        failures += [f"demo {name} printed no line {line!r}" for line in lines if line not in out.getvalue().splitlines()]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, data in FILES.items():
                Path(name).write_text(json.dumps(data))
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


def test_stdlib_smoke():
    proc = subprocess.run([sys.executable, "-S", __file__], env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


if __name__ == "__main__":
    sys.exit(main())
