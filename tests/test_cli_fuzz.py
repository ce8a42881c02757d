"""The CLI's exit-code contract on seeded random fans, run in-process.

The fans are face fans of random hulls in dimensions 2-4
(``test_fan.random_face_fan``, which ``random_complete_threefolds`` also
draws from), complete and projective, with points in boxes small enough to
give non-simplicial cones, plus random subsets of their maximal
cones, reindexed to the rays they use, which are mostly incomplete.  Each
goes through ``validate``, ``complete``, ``picard``, ``classgroup``,
``projective``, ``egyptian``, ``modify``, ``index``, ``cartier``,
``degree`` and ``report`` with ``--json``: ``egyptian``, ``modify`` and
``report`` at a random ray, the first two with ``--allow-incomplete`` on an
incomplete fan, and ``index``, ``cartier`` and ``degree`` on the same
seeded divisor with coefficients -1..3.  Every run must exit 0, 1 or 2 and
report no ``internal_error``; ``index`` exits 0 or 1, and ``cartier``
agrees with it: the same ``q_cartier``, and exit 0 exactly when the index
is 1.  Completeness is checked against ``oracles.wall_criterion_complete``,
the Picard group against ``oracles.picard_by_cartier_lattice``, and the
Cartier index against ``oracles.cartier_index_by_scan`` whenever
``oracles.denominator_lcm``, which the scan walks up to, is at most
``SCAN_LIMIT``.  The degrees of ``degree`` and ``report`` are checked
against ``oracles.scan_degree`` whenever its box holds at most
``SCAN_LIMIT`` points.  The work is bounded by the number of cases, not by
a timer.
"""

import contextlib
import io
import json
import random

import oracles
from oracles import cartier_index_by_scan, denominator_lcm, picard_by_cartier_lattice, wall_criterion_complete
from test_fan import random_cone_subset, random_face_fan
from toricfan import cli
from toricfan.divisor import divisor_polytope
from toricfan.errors import ResourceLimitError

COMMANDS = ("validate", "complete", "picard", "classgroup", "projective", "egyptian", "modify", "index", "cartier",
            "degree", "report")
SCAN_LIMIT = 10_000
FANS_PER_DIMENSION = {2: 8, 3: 8, 4: 4}
SUBSETS_PER_FAN = 2


def random_fans(seed: int):
    """Seeded face fans per ``FANS_PER_DIMENSION``, each followed by
    ``SUBSETS_PER_FAN`` fans on random proper subsets of its cones."""
    rng = random.Random(seed)
    for d, count in FANS_PER_DIMENSION.items():
        drawn = 0
        while drawn < count:
            fan = random_face_fan(rng, d, box=rng.choice((1, 2, 3)))
            if fan is None:
                continue
            drawn += 1
            yield fan, rng
            for _ in range(SUBSETS_PER_FAN):
                yield random_cone_subset(rng, fan), rng


def run_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv + ["--json"])
    return code, json.loads(buf.getvalue())


def scanned_degree(fan, divisor):
    """The box scan's degree of the divisor's polytope, or None past ``SCAN_LIMIT`` box points."""
    try:
        return oracles.scan_degree(divisor_polytope(fan, divisor))
    except ResourceLimitError:
        return None


def test_random_fans_keep_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.setattr(oracles, "BOX_POINT_LIMIT", SCAN_LIMIT)
    seen = {"complete": 0, "incomplete": 0, "not egyptian": 0, "index scanned": 0, "index past the scan": 0,
            "cartier": 0, "degree scanned": 0, "degree past the scan": 0, "growth": 0}
    codes = set()
    divisor_rng = random.Random(4)  # apart from the fans' generator, which draws the rays
    for k, (fan, rng) in enumerate(random_fans(seed=3)):
        path = tmp_path / f"fan{k}.json"
        path.write_text(cli.fan_to_json(fan))
        divisor = [divisor_rng.randint(-1, 3) for _ in fan.rays]
        divisor_path = tmp_path / f"divisor{k}.json"
        divisor_path.write_text(json.dumps({"coefficients": divisor}))
        complete = wall_criterion_complete(fan)
        seen["complete" if complete else "incomplete"] += 1
        ray = str(rng.randrange(len(fan.rays)))
        for command in COMMANDS:
            argv = [command, "--fan", str(path)]
            if command in ("egyptian", "modify"):
                argv += ["--ray", ray] + ([] if complete else ["--allow-incomplete"])
            if command == "report":
                argv += ["--ray", ray]
            if command in ("index", "cartier", "degree"):
                argv += ["--divisor", str(divisor_path)]
            code, report = run_json(argv)
            assert code in (0, 1, 2) and "internal_error" not in report, (fan, argv, report)
            codes.add(code)
            if command == "complete":
                assert report["complete"] is complete and code == (0 if complete else 1)
            seen["not egyptian"] += command == "egyptian" and code == 1
            if command == "picard":  # refused on an incomplete fan
                assert code == (0 if complete else 2)
                if complete:
                    group = picard_by_cartier_lattice(fan)
                    assert (report["picard"]["rank"], report["picard"]["invariant_factors"]) == \
                        (group.rank, list(group.invariant_factors))
            if command == "cartier":
                assert report["q_cartier"] == index_report["q_cartier"], (fan, divisor, report)
                assert code == (0 if index_report["cartier_index"] == 1 else 1), (fan, divisor, report)
                seen["cartier"] += code == 0
            if command == "degree" and code == 0:
                want = scanned_degree(fan, divisor)
                seen["degree scanned" if want is not None else "degree past the scan"] += 1
                assert want is None or report["degree"] == want, (fan, divisor, report)
            if command == "report" and code == 0:
                seen["growth"] += 1
                want = scanned_degree(fan.quotient(int(ray)), report["ample_divisor_on_divisor_fan"])
                seen["degree scanned" if want is not None else "degree past the scan"] += 1
                assert want is None or report["degree"] == want, (fan, ray, report)
            if command == "index":
                index_report = report
                assert code == (0 if report["q_cartier"] else 1)
                bound = denominator_lcm(fan, divisor)
                if bound is None or bound <= SCAN_LIMIT:
                    seen["index scanned"] += 1
                    assert report["cartier_index"] == cartier_index_by_scan(fan, divisor), (fan, divisor)
                else:
                    seen["index past the scan"] += 1
    assert seen["complete"] == sum(FANS_PER_DIMENSION.values()) and seen["incomplete"] >= 20, seen
    assert seen["not egyptian"] and seen["index scanned"] >= 40 and seen["cartier"], seen
    assert seen["growth"] >= 15 and seen["degree scanned"] >= 12, seen
    assert codes == {0, 1, 2}
