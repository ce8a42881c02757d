"""Command dispatch, file formats, exit codes, and report round trips."""

import argparse
import json
import re
import time

import pytest

from toricfan import cli
from toricfan import divisor as divisor_ops
from toricfan import egyptian, exactlin
from toricfan.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_PROPERTY_FAILS,
    InputError,
    fan_to_json,
    parse_fan_file,
    run,
)
from toricfan.egyptian import ModificationChecks, egyptian_report
from toricfan.fan import Fan
from test_divisor import LARGE_LCM_DIVISOR, LARGE_LCM_FAN
from test_fan import cross_polytope_fan, cube_face_fan


@pytest.fixture()
def yu_file(tmp_path):
    path = tmp_path / "y32.json"
    assert run(["family", "yu", "--n", "3", "--u", "2", "--emit", str(path)]) == EXIT_OK
    return path


class TestFanFiles:
    def test_p1_roundtrip(self):
        fan, labels, warnings = parse_fan_file('{"dim":1,"rays":[[1],[-1]],"max_cones":[[0],[1]]}')
        assert fan.ambient_rank == 1
        assert not warnings
        again, _, _ = parse_fan_file(fan_to_json(fan))
        assert again == fan

    def test_roundtrip_preserves_order(self, yu_file):
        fan, labels, _ = parse_fan_file(yu_file.read_text())
        again, labels2, _ = parse_fan_file(fan_to_json(fan, labels))
        assert again == fan
        assert labels2 == labels
        assert labels[:3] == ["sigma_1", "sigma_2", "sigma_3"]

    def test_zero_ray_rejected(self):
        with pytest.raises(InputError, match="zero"):
            parse_fan_file('{"dim":1,"rays":[[0]],"max_cones":[[0]]}')

    def test_primitivization_warns(self):
        fan, _, warnings = parse_fan_file(
            '{"dim":2,"rays":[[2,0],[0,1],[-1,-1]],"max_cones":[[0,1],[0,2],[1,2]]}'
        )
        assert fan.rays[0] == (1, 0)
        assert warnings and "primitivized" in warnings[0]

    def test_duplicate_after_primitivization_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_fan_file('{"dim":1,"rays":[[2],[1]],"max_cones":[[0],[1]]}')

    def test_malformed_json_location(self):
        with pytest.raises(InputError, match="line 1"):
            parse_fan_file("{nope")


class TestExitCodes:
    def test_picard_reports_trivial(self, yu_file, capsys):
        assert run(["picard", "--fan", str(yu_file), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["picard"]["trivial"] is True

    def test_projective_infeasible(self, yu_file, capsys):
        assert run(["projective", "--fan", str(yu_file)]) == EXIT_PROPERTY_FAILS
        assert "Infeasible" in capsys.readouterr().out

    def test_resource_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "y31.json"
        assert run(["family", "yu", "--n", "3", "--u", "1", "--emit", str(path)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 1)
        assert run(["projective", "--fan", str(path), "--json"]) == EXIT_INPUT_ERROR
        report = json.loads(capsys.readouterr().out)
        assert "ray limit" in report["resource_limit"]
        assert "internal_error" not in report

    def test_cone_ray_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # Three rays hold every simplicial 3-D cone but not the square
        # facet cones of the 3-cube's face fan, whose duals have four.
        for name, (d, rays, cones) in (("cross", cross_polytope_fan(3)), ("cube", cube_face_fan(3))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": d, "rays": rays, "max_cones": cones}))
        monkeypatch.setattr(exactlin, "_DD_RAY_LIMIT", 3)
        assert run(["validate", "--fan", str(tmp_path / "cross.json")]) == EXIT_OK
        capsys.readouterr()
        assert run(["validate", "--fan", str(tmp_path / "cube.json"), "--json"]) == EXIT_INPUT_ERROR
        report = json.loads(capsys.readouterr().out)
        assert "3-ray limit" in report["resource_limit"]
        assert "internal_error" not in report

    def test_family_unwritable_emit_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "y.json"
        assert run(["family", "yu", "--n", "3", "--u", "2", "--emit", str(target), "--json"]) == EXIT_INPUT_ERROR
        report = json.loads(capsys.readouterr().out)
        assert "cannot write" in report["error"]
        assert "internal_error" not in report

    def test_modify_unwritable_emit_exits_2(self, yu_file, tmp_path, capsys):
        target = tmp_path / "missing" / "m.json"
        argv = ["modify", "--fan", str(yu_file), "--ray", "0", "--emit", str(target), "--json"]
        assert run(argv) == EXIT_INPUT_ERROR
        report = json.loads(capsys.readouterr().out)
        assert "cannot write" in report["error"]
        assert "internal_error" not in report

    def test_egyptian_holds(self, yu_file, capsys):
        assert run(["egyptian", "--fan", str(yu_file), "--ray", "0", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["egyptian"] is True

    def test_missing_file(self, tmp_path, capsys):
        assert run(["picard", "--fan", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run(["validate", "--fan", str(bad)]) == EXIT_INPUT_ERROR

    def test_validate_invalid_fan_is_property_failure(self, tmp_path, capsys):
        overlap = tmp_path / "overlap.json"
        overlap.write_text('{"dim":2,"rays":[[1,0],[1,2],[1,1],[0,1]],"max_cones":[[0,1],[2,3]]}')
        assert run(["validate", "--fan", str(overlap)]) == EXIT_PROPERTY_FAILS

    @pytest.mark.parametrize("text", [
        '{"dim": true, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
        '{"dim": 1, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
        '{"dim": 1, "rays": [[1], [-1]], "max_cones": [[false], [1]]}',
    ])
    def test_json_booleans_are_input_errors(self, tmp_path, capsys, text):
        fan = tmp_path / "bools.json"
        fan.write_text(text)
        assert run(["validate", "--fan", str(fan)]) == EXIT_INPUT_ERROR

    def test_complete(self, yu_file, tmp_path, capsys):
        assert run(["complete", "--fan", str(yu_file)]) == EXIT_OK
        part = tmp_path / "part.json"
        part.write_text('{"dim":2,"rays":[[1,0],[0,1]],"max_cones":[[0,1]]}')
        assert run(["complete", "--fan", str(part)]) == EXIT_PROPERTY_FAILS

    def test_exit_codes_deterministic(self, yu_file, capsys):
        codes = {run(["projective", "--fan", str(yu_file)]) for _ in range(3)}
        capsys.readouterr()
        assert codes == {EXIT_PROPERTY_FAILS}

    def test_egyptian_fails_on_non_pyramidal_star(self, tmp_path, capsys):
        rays = [[1, 1, 0, 1], [1, -1, 0, 1], [-1, -1, 0, 1], [-1, 1, 0, 1], [0, 0, 1, 1], [0, 3, -1, 1]]
        fan_file = tmp_path / "np.json"
        fan_file.write_text(json.dumps({"dim": 4, "rays": rays, "max_cones": [list(range(6))]}))
        assert run(["egyptian", "--fan", str(fan_file), "--ray", "5"]) == EXIT_INPUT_ERROR
        capsys.readouterr()
        assert run(["egyptian", "--fan", str(fan_file), "--ray", "5", "--allow-incomplete"]) \
            == EXIT_PROPERTY_FAILS
        capsys.readouterr()

    def test_report_has_no_allow_incomplete_flag(self, yu_file, capsys):
        assert run(["report", "--fan", str(yu_file), "--ray", "0", "--allow-incomplete"]) == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --allow-incomplete" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["nosuchcommand", "picard", "egyptian --fan f.json --ray notanint",
                                      "report --fan f.json --ray 0 --allow-incomplete", "family nope",
                                      "family yu --n 3"])
    def test_rejected_command_line_keeps_argparse_stderr(self, capsys, monkeypatch, argv):
        # The report goes to stdout; stderr holds what argparse's own error() writes.
        assert run(argv.split()) == EXIT_INPUT_ERROR
        ours = capsys.readouterr().err
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        with pytest.raises(SystemExit, match="2"):
            cli._build_parser().parse_args(argv.split())
        assert capsys.readouterr().err == ours and ours.endswith("\n") and ": error: " in ours


P2 = '{"dim":2,"rays":[[1,0],[0,1],[-1,-1]],"max_cones":[[0,1],[0,2],[1,2]]}'
P112 = '{"dim":2,"rays":[[1,0],[0,1],[-1,-2]],"max_cones":[[0,1],[0,2],[1,2]]}'
QUADRANT = '{"dim":2,"rays":[[1,0],[0,1]],"max_cones":[[0,1]]}'
LINE_IN_PLANE = '{"dim":2,"rays":[[1,0],[-1,0]],"max_cones":[[0],[1]]}'


def _json_run(argv, capsys):
    code = run([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestCommandBranches:
    """Each command's verdict and input-error branches, on small fans."""

    @pytest.fixture()
    def write(self, tmp_path):
        def write(name, text):
            path = tmp_path / name
            path.write_text(text)
            return str(path)
        return write

    def test_validate_complete_fan(self, write, capsys):
        code, report = _json_run(["validate", "--fan", write("p2.json", P2)], capsys)
        assert code == EXIT_OK
        assert report["valid"] is True and report["complete"] is True

    def test_cartier_q_cartier_only(self, write, capsys):
        d0 = write("d0.json", '{"coefficients":[1,0,0]}')
        argv = ["cartier", "--fan", write("p112.json", P112), "--divisor", d0]
        code, report = _json_run(argv, capsys)
        assert code == EXIT_PROPERTY_FAILS
        assert report["cartier"] is False and report["q_cartier"] is True
        assert "rational_characters" in report and "characters" not in report

    def test_projective_witness_is_ample(self, write, capsys):
        code, report = _json_run(["projective", "--fan", write("p2.json", P2)], capsys)
        assert code == EXIT_OK and report["projective"] is True
        fan, _, _ = parse_fan_file(P2)
        assert divisor_ops.is_ample(fan, report["ample_divisor"])

    @pytest.mark.parametrize("argv", [
        ["picard", "--fan", "quadrant"],
        ["projective", "--fan", "quadrant"],
        ["classgroup", "--fan", "line"],
        ["degree", "--fan", "quadrant", "--divisor", "ones"],
        ["family", "yu", "--n", "2", "--u", "1"],
        ["family", "yu", "--n", "3"],
    ], ids=["picard-incomplete", "projective-incomplete", "classgroup-not-spanning",
            "degree-unbounded", "family-n2", "family-no-u"])
    def test_input_errors_exit_2(self, write, capsys, argv):
        files = {"quadrant": write("quadrant.json", QUADRANT), "line": write("line.json", LINE_IN_PLANE),
                 "ones": write("ones.json", '{"coefficients":[1,1]}')}
        code, report = _json_run([files.get(arg, arg) for arg in argv], capsys)
        assert code == EXIT_INPUT_ERROR
        assert report["error"] and "internal_error" not in report

    @pytest.mark.parametrize("command", ["egyptian", "modify"])
    def test_incomplete_fan_error_names_the_cli_flag(self, write, capsys, command):
        quadrant = write("quadrant.json", QUADRANT)
        code, report = _json_run([command, "--fan", quadrant, "--ray", "0"], capsys)
        assert code == EXIT_INPUT_ERROR
        assert report["error"] == ("egyptian position is defined over a complete fan "
                                   "(pass --allow-incomplete to override)")
        # Library callers still see the keyword argument they can pass.
        with pytest.raises(ValueError, match=r"pass allow_incomplete=True to override"):
            egyptian_report(parse_fan_file(QUADRANT)[0], 0)

    FAN_COMMANDS = ["validate", "complete", "cartier", "index", "picard", "classgroup", "projective",
                    "egyptian", "modify", "degree", "report"]

    @pytest.mark.parametrize("command", FAN_COMMANDS)
    def test_every_fan_command_times_its_load(self, write, capsys, command):
        # A new row of the command table must join this test or the one after it.
        assert set(self.FAN_COMMANDS) | {"family"} == set(cli._COMMANDS)
        argv = [command, "--fan", write("p2.json", P2)]
        if command in ("cartier", "index", "degree"):
            argv += ["--divisor", write("h.json", '{"coefficients":[1,0,0]}')]
        if command in ("egyptian", "modify", "report"):
            argv += ["--ray", "0"]
        code, report = _json_run(argv, capsys)
        assert "internal_error" not in report and code in (EXIT_OK, EXIT_PROPERTY_FAILS)
        timings = report["timings"]
        stages = {"picard": ["picard_s"], "projective": ["projective_s"], "index": ["index_s"],
                  "degree": ["degree_s"], "modify": ["split_s", "verify_s"]}.get(command, [])
        assert list(timings) == ["total_s", "load_s"] + stages
        # Each figure is rounded to the microsecond.
        parts = [timings[key] for key in ["load_s"] + stages]
        assert min(parts) >= 0 and sum(parts) <= timings["total_s"] + 1e-6 * len(parts)
        assert 0 <= timings["load_s"] <= timings["total_s"]
        assert list(report)[-1] == "timings"

    def test_family_loads_no_fan(self, capsys):
        _, report = _json_run(["family", "yu", "--n", "3", "--u", "1"], capsys)
        assert list(report["timings"]) == ["total_s"]

    def test_degree_beyond_the_point_scan_limit(self, write, capsys):
        # 100000*H on P^2: its box at t = 2 holds about 4*10^10 lattice
        # points, and the volume visits none of them.
        big = write("big.json", '{"coefficients":[100000,0,0]}')
        argv = ["degree", "--fan", write("p2.json", P2), "--divisor", big]
        started = time.perf_counter()
        code, report = _json_run(argv, capsys)
        assert time.perf_counter() - started < 1
        assert code == EXIT_OK
        assert report["degree"] == 10**10
        assert report["vertices"] == [["-100000", "0"], ["-100000", "100000"], ["0", "0"]]
        assert list(report) == ["command", "vertices", "degree", "exit_code", "timings"]


class TestDivisorCommands:
    def test_cartier_and_index(self, yu_file, tmp_path, capsys):
        divisor = tmp_path / "de.json"
        divisor.write_text(json.dumps({"coefficients": [1, 0, 0, 0, 0, 0, 0, 0]}))
        assert run(["cartier", "--fan", str(yu_file), "--divisor", str(divisor), "--json"]) \
            == EXIT_PROPERTY_FAILS
        report = json.loads(capsys.readouterr().out)
        assert report["cartier"] is False and report["q_cartier"] is False
        assert run(["index", "--fan", str(yu_file), "--divisor", str(divisor)]) == EXIT_PROPERTY_FAILS
        capsys.readouterr()

    def test_index_after_modification(self, yu_file, tmp_path, capsys):
        modified = tmp_path / "mod.json"
        assert run(["modify", "--fan", str(yu_file), "--ray", "0", "--emit", str(modified)]) == EXIT_OK
        capsys.readouterr()
        divisor = tmp_path / "de.json"
        divisor.write_text(json.dumps({"coefficients": [1, 0, 0, 0, 0, 0, 0, 0]}))
        assert run(["index", "--fan", str(modified), "--divisor", str(divisor), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["q_cartier"] is True
        assert report["cartier_index"] == 1

    def test_index_in_closed_form(self, tmp_path, capsys):
        dim, rays, cones = LARGE_LCM_FAN
        fan_file = tmp_path / "large_lcm.json"
        fan_file.write_text(json.dumps({"dim": dim, "rays": rays, "max_cones": cones}))
        divisor = tmp_path / "d.json"
        divisor.write_text(json.dumps({"coefficients": LARGE_LCM_DIVISOR}))
        assert run(["index", "--fan", str(fan_file), "--divisor", str(divisor), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["q_cartier"] is True and report["cartier_index"] == 333_839_880
        assert 0 <= report["timings"]["index_s"] < 0.5

    def test_degree_on_projective_space(self, tmp_path, capsys):
        fan_file = tmp_path / "p2.json"
        fan_file.write_text('{"dim":2,"rays":[[1,0],[0,1],[-1,-1]],"max_cones":[[0,1],[0,2],[1,2]]}')
        divisor = tmp_path / "o1.json"
        divisor.write_text('{"coefficients":[1,0,0]}')
        assert run(["degree", "--fan", str(fan_file), "--divisor", str(divisor), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["degree"] == 1

    def test_wrong_length_divisor(self, yu_file, tmp_path, capsys):
        divisor = tmp_path / "short.json"
        divisor.write_text('{"coefficients":[1,0]}')
        assert run(["cartier", "--fan", str(yu_file), "--divisor", str(divisor)]) == EXIT_INPUT_ERROR

    def test_boolean_coefficient_rejected(self, yu_file, tmp_path, capsys):
        divisor = tmp_path / "bool.json"
        divisor.write_text(json.dumps({"coefficients": [True] + [0] * 7}))
        assert run(["cartier", "--fan", str(yu_file), "--divisor", str(divisor)]) == EXIT_INPUT_ERROR


class TestClassGroupCommand:
    def test_classgroup(self, yu_file, capsys):
        assert run(["classgroup", "--fan", str(yu_file), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["class_group"]["rank"] == 5


class TestInternalErrors:
    """Exit 3: a failed re-check of the library, or any unexpected exception."""

    FAILED = ModificationChecks((), (), False, ("wall (1, 2): incident cones (0,), expected (0, 1)",
                                                "quotient fan at the ray changed under the modification"))

    @pytest.mark.parametrize("command", ["modify", "report"])
    def test_failed_modification_checks_exit_3(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "y31.json"
        assert run(["family", "yu", "--n", "3", "--u", "1", "--emit", str(path)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "verify_modification", lambda result: self.FAILED)  # modify's import
        monkeypatch.setattr(egyptian, "verify_modification", lambda result: self.FAILED)  # hypothesis_report's
        code, report = _json_run([command, "--fan", str(path), "--ray", "0"], capsys)
        assert code == EXIT_INTERNAL_ERROR
        assert report["internal_error"] == "; ".join(self.FAILED.failures)

    def test_unexpected_exception_exits_3(self, yu_file, capsys, monkeypatch):
        def picard_group(fan):
            raise KeyError("x")

        monkeypatch.setattr(divisor_ops, "picard_group", picard_group)
        code, report = _json_run(["picard", "--fan", str(yu_file)], capsys)
        assert code == EXIT_INTERNAL_ERROR
        assert report["internal_error"] == "KeyError: 'x'"
        assert "picard_s" in report["timings"]  # the stage is timed though it raised


class TestReportCommand:
    def test_full_pipeline(self, yu_file, capsys):
        assert run(["report", "--fan", str(yu_file), "--ray", "0", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["egyptian"] is True
        assert report["divisor_projective"] is True
        assert report["modification"]["verified"] is True
        assert report["degree"] == 1
        assert report["growth"] == "c₃(E_t) = t² + O(t)"

    def test_incomplete_fan_is_an_input_error(self, tmp_path, capsys):
        rays = [[1, 1, 0, 1], [1, -1, 0, 1], [-1, -1, 0, 1], [-1, 1, 0, 1], [0, 0, 1, 1], [0, 3, -1, 1]]
        fan_file = tmp_path / "np.json"
        fan_file.write_text(json.dumps({"dim": 4, "rays": rays, "max_cones": [list(range(6))]}))
        assert run(["report", "--fan", str(fan_file), "--ray", "5"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["report", "modify"])
    def test_one_dimensional_fan_is_an_input_error(self, tmp_path, capsys, command):
        fan_file = tmp_path / "p1.json"
        fan_file.write_text('{"dim":1,"rays":[[1],[-1]],"max_cones":[[0],[1]]}')
        code, report = _json_run([command, "--fan", str(fan_file), "--ray", "0"], capsys)
        assert code == EXIT_INPUT_ERROR
        assert report["error"] == f"{command} needs a fan of dimension at least 2, not 1"
        assert "internal_error" not in report

    @pytest.mark.parametrize("fan_text, ray", [
        ('{"dim": 2, "rays": [[-1, -3]], "max_cones": [[0]]}', 0),
        ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [2]]}', 2),
    ], ids=["one-ray", "ray-beside-a-quadrant"])
    def test_modify_at_a_ray_that_is_a_maximal_cone_is_an_input_error(self, tmp_path, capsys,
                                                                       fan_text, ray):
        # The star quotient there is the zero fan, which no Fan holds.
        fan_file = tmp_path / "ray.json"
        fan_file.write_text(fan_text)
        argv = ["--fan", str(fan_file), "--ray", str(ray), "--allow-incomplete"]
        code, report = _json_run(["egyptian", *argv], capsys)
        assert code == EXIT_OK and report["per_cone"] == {}
        code, report = _json_run(["modify", *argv], capsys)
        assert code == EXIT_INPUT_ERROR and "internal_error" not in report
        # Each stage is timed even when it ends in exit 2.
        assert list(report["timings"]) == ["total_s", "load_s", "split_s", "verify_s"]
        assert report["error"] == (f"ray {ray} is itself a maximal cone: its star quotient is the "
                                   "zero fan, which a Fan cannot hold")

    def test_not_egyptian_exits_without_modification(self, tmp_path, capsys, cube_suspension_fan):
        from toricfan.cli import fan_to_json
        fan_file = tmp_path / "cube.json"
        fan_file.write_text(fan_to_json(cube_suspension_fan))
        assert run(["report", "--fan", str(fan_file), "--ray", "0", "--json"]) == EXIT_PROPERTY_FAILS
        report = json.loads(capsys.readouterr().out)
        assert report["egyptian"] is False
        assert "modification" not in report  # the pipeline stops at the failed hypothesis
        assert run(["modify", "--fan", str(fan_file), "--ray", "0"]) == EXIT_PROPERTY_FAILS
        capsys.readouterr()

    def test_non_projective_divisor_stops_before_modification(self, yu_file, capsys, monkeypatch):
        # No fixture has an Egyptian ray with a non-projective divisor, so the
        # quotient's projectivity verdict is forced false here.
        monkeypatch.setattr(divisor_ops, "is_projective", lambda fan: divisor_ops.ProjectivityResult(False, None, None))
        assert run(["report", "--fan", str(yu_file), "--ray", "0", "--json"]) == EXIT_PROPERTY_FAILS
        report = json.loads(capsys.readouterr().out)
        assert report["egyptian"] is True and report["divisor_projective"] is False
        assert report["verdict"] == "hypothesis fails: the divisor of the ray is not projective"
        assert "modification" not in report

    def test_family_without_emit_prints_fan(self, capsys):
        assert run(["family", "yu", "--n", "3", "--u", "1", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["fan"]["dim"] == 3
        assert len(report["fan"]["rays"]) == 8

    def test_unknown_family(self, capsys):
        assert run(["family", "nope", "--n", "3", "--u", "1"]) == EXIT_INPUT_ERROR
        capsys.readouterr()


class TestParserReuse:
    """``run`` builds its parser once and must then behave as with a fresh one."""

    @staticmethod
    def _outcomes(capsys, quadrant, yu):
        argvs = [
            ["picard", "--bogus"],
            ["--help"],
            ["egyptian", "--fan", quadrant, "--ray", "0", "--allow-incomplete"],
            # The flag of the previous call must not carry over.
            ["egyptian", "--fan", quadrant, "--ray", "0"],
            ["picard", "--fan", yu, "--json"],
        ]
        outcomes = []
        for argv in argvs:
            code = run(argv)
            out = re.sub(r'((?:total|load|picard)_s"?: )[0-9.e-]+', r"\1T", capsys.readouterr().out)
            outcomes.append((code, out))
        return outcomes

    def test_reused_parser_matches_a_fresh_one(self, yu_file, tmp_path, capsys, monkeypatch):
        quadrant = tmp_path / "quadrant.json"
        quadrant.write_text(QUADRANT)
        files = (str(quadrant), str(yu_file))
        cli._build_parser.cache_clear()
        reused = [self._outcomes(capsys, *files) for _ in range(2)]
        assert cli._build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self._outcomes(capsys, *files)
        assert [code for code, _ in fresh] == [EXIT_INPUT_ERROR, EXIT_OK, EXIT_OK, EXIT_INPUT_ERROR, EXIT_OK]
        assert "usage: toricfan" in fresh[1][1]
        assert reused == [fresh, fresh]
