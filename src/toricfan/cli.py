"""Command-line interface: JSON fan/divisor files and report commands.

Fan files are JSON objects with keys ``dim`` (int), ``rays`` (list of integer
vectors), ``max_cones`` (list of ray-index lists), and optional ``labels``
(list of strings, one per maximal cone).  Ray order in the file is semantic:
divisor files align to it by index.  Divisor files are JSON objects with a
single key ``coefficients`` (list of integers, one per ray).

Exit codes: 0 the command ran and the queried property holds (or data was
produced); 1 the command ran and the property fails; 2 input error; 3
internal invariant violation.

Each command is one row of ``_COMMANDS``: handler, help text and declared
inputs, from which ``_build_parser`` adds its options.  Handlers run each
library stage through ``_stage``, which times it into ``timings`` even when
it raises and turns a ``ValueError`` into an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import divisor as divisor_ops
from .egyptian import egyptian_report, hypothesis_report, split_star, verify_modification
from .errors import InvariantError, ResourceLimitError
from .exactlin import primitive
from .fan import Fan
from .families import yu_fan

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class InputError(Exception):
    """Malformed file, missing argument, or a value the library rejects."""


class FanInvalidError(InputError):
    """The file is well-formed JSON but describes something that is not a fan."""


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` load as ``bool``, a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_fan_file(text: str) -> tuple[Fan, Optional[list[str]], list[str]]:
    """Parse a fan file; returns (fan, labels, warnings).

    Rays are primitivized with a warning rather than rejected; duplicate rays
    (after primitivization) and anything the fan validator rejects raise
    ``InputError``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError("fan file must be a JSON object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise InputError(f"fan file is missing the key {key!r}")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise InputError("dim must be a positive integer")
    rays_in = data["rays"]
    if not isinstance(rays_in, list) or not all(
        isinstance(r, list) and all(_is_int(x) for x in r) for r in rays_in
    ):
        raise InputError("rays must be a list of integer vectors")
    warnings: list[str] = []
    rays: list[tuple[int, ...]] = []
    for i, r in enumerate(rays_in):
        if len(r) != dim:
            raise InputError(f"ray {i} has length {len(r)}, expected {dim}")
        if all(x == 0 for x in r):
            raise InputError(f"ray {i} is zero")
        p = primitive(r)
        if p != tuple(r):
            warnings.append(f"ray {i} = {r} primitivized to {list(p)}")
        rays.append(p)
    if len(set(rays)) != len(rays):
        raise InputError("duplicate rays after primitivization")
    max_cones = data["max_cones"]
    if not isinstance(max_cones, list) or not all(
        isinstance(mc, list) and all(_is_int(i) for i in mc) for mc in max_cones
    ):
        raise InputError("max_cones must be a list of ray-index lists")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError("labels must be a list of strings")
        if len(labels) != len(max_cones):
            raise InputError("labels must match max_cones in length")
    try:
        fan = Fan.from_cones(dim, rays, max_cones)
    except ValueError as exc:
        raise FanInvalidError(str(exc)) from exc
    return fan, labels, warnings


def parse_divisor_file(text: str, fan: Fan) -> tuple[int, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "coefficients" not in data:
        raise InputError("divisor file must be a JSON object with a 'coefficients' key")
    coeffs = data["coefficients"]
    if not isinstance(coeffs, list) or not all(_is_int(x) for x in coeffs):
        raise InputError("coefficients must be a list of integers")
    if len(coeffs) != len(fan.rays):
        raise InputError(
            f"divisor has {len(coeffs)} coefficients but the fan has {len(fan.rays)} rays"
        )
    return tuple(coeffs)


def fan_to_json(fan: Fan, labels: Optional[Sequence[str]] = None) -> str:
    data = {
        "dim": fan.ambient_rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(mc) for mc in fan.max_cones],
    }
    if labels is not None:
        data["labels"] = list(labels)
    return json.dumps(data, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _print_report(report: dict, as_json: bool) -> None:
    report = _jsonable(report)
    if as_json:
        print(json.dumps(report, indent=2))
        return

    def emit_line(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit_line(f"{key}.{k}", v)
        else:
            print(f"{key}: {value}")

    for k, v in report.items():
        emit_line(k, v)


def _group_dict(group) -> dict:
    return {
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "trivial": group.is_trivial,
        "group": str(group),
    }


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _stage(report: dict, key: Optional[str], call):
    """Run one stage: return ``call()``, time it into ``timings[key]`` even
    when it raises (no timing when ``key`` is None), and turn a library
    ``ValueError`` into an ``InputError``."""
    started = time.perf_counter()
    try:
        return call()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    finally:
        if key is not None:
            report.setdefault("timings", {})[key] = round(time.perf_counter() - started, 6)


def _load_fan(args, report: dict) -> tuple[Fan, Optional[list[str]], list[str]]:
    """Read, parse and validate ``--fan`` as the stage ``load_s``."""
    if not args.fan:
        raise InputError("this command needs --fan PATH")
    return _stage(report, "load_s", lambda: parse_fan_file(_read_file(args.fan)))


def _load_divisor(args, fan: Fan) -> tuple[int, ...]:
    if not args.divisor:
        raise InputError("this command needs --divisor PATH")
    return parse_divisor_file(_read_file(args.divisor), fan)


def _need_ray(args, fan: Fan) -> int:
    if args.ray is None:
        raise InputError("this command needs --ray INDEX")
    if not 0 <= args.ray < len(fan.rays):
        raise InputError(f"ray index {args.ray} out of range 0..{len(fan.rays) - 1}")
    return args.ray


def _egyptian_report(args, report, fan: Fan, ray: int):
    # The completeness check is made here so that its message names the CLI
    # flag; the library's own message names its keyword argument.
    if not args.allow_incomplete and not fan.is_complete():
        raise InputError("egyptian position is defined over a complete fan "
                         "(pass --allow-incomplete to override)")
    return _stage(report, None, lambda: egyptian_report(fan, ray, allow_incomplete=True))


def _need_dim_2(args, fan: Fan) -> None:
    # The star of a ray lives in the quotient lattice, which is 0 for a 1-dimensional fan.
    if fan.ambient_rank < 2:
        raise InputError(f"{args.command} needs a fan of dimension at least 2, not {fan.ambient_rank}")


def _cmd_validate(args, report):
    # A well-formed file describing an invalid fan is the property failing;
    # an unreadable or unparseable file is an input error.
    try:
        fan, labels, warnings = _load_fan(args, report)
    except FanInvalidError as exc:
        report["valid"] = False
        report["error"] = str(exc)
        return EXIT_PROPERTY_FAILS
    report["valid"] = True
    report["warnings"] = warnings
    report["rays"] = len(fan.rays)
    report["max_cones"] = len(fan.max_cones)
    report["complete"] = fan.is_complete()
    return EXIT_OK


def _cmd_complete(args, report):
    fan, _, warnings = _load_fan(args, report)
    report["warnings"] = warnings
    verdict = fan.is_complete()
    report["complete"] = verdict
    return EXIT_OK if verdict else EXIT_PROPERTY_FAILS


def _cmd_cartier(args, report):
    fan, _, _ = _load_fan(args, report)
    coeffs = _load_divisor(args, fan)
    # The divisor is Cartier exactly when its rational characters are integral.
    rational = divisor_ops.cartier_data(fan, coeffs, mode="rational")
    integral = rational is not None and all(x.denominator == 1 for m in rational.characters for x in m)
    report["cartier"] = integral
    report["q_cartier"] = rational is not None
    if integral:
        report["characters"] = [[x.numerator for x in m] for m in rational.characters]
    elif rational is not None:
        report["rational_characters"] = [[str(x) for x in m] for m in rational.characters]
    return EXIT_OK if integral else EXIT_PROPERTY_FAILS


def _cmd_index(args, report):
    fan, _, _ = _load_fan(args, report)
    coeffs = _load_divisor(args, fan)
    index = _stage(report, "index_s", lambda: divisor_ops.cartier_index(fan, coeffs))
    report["q_cartier"] = index is not None
    report["cartier_index"] = index
    return EXIT_OK if index is not None else EXIT_PROPERTY_FAILS


def _cmd_picard(args, report):
    fan, _, _ = _load_fan(args, report)
    group = _stage(report, "picard_s", lambda: divisor_ops.picard_group(fan))
    report["picard"] = _group_dict(group)
    return EXIT_OK


def _cmd_classgroup(args, report):
    fan, _, _ = _load_fan(args, report)
    group = _stage(report, None, lambda: divisor_ops.class_group(fan))
    report["class_group"] = _group_dict(group)
    return EXIT_OK


def _cmd_projective(args, report):
    fan, _, _ = _load_fan(args, report)
    result = _stage(report, "projective_s", lambda: divisor_ops.is_projective(fan))
    report["projective"] = result.feasible
    if result.feasible:
        report["ample_divisor"] = list(result.witness_divisor)
        report["characters"] = [list(m) for m in result.witness_data.characters]
    else:
        report["verdict"] = "Infeasible"
    return EXIT_OK if result.feasible else EXIT_PROPERTY_FAILS


def _cmd_egyptian(args, report):
    fan, _, _ = _load_fan(args, report)
    ray = _need_ray(args, fan)
    result = _egyptian_report(args, report, fan, ray)
    report["ray"] = ray
    report["per_cone"] = {
        str(ci): cls.kind.value for ci, cls in result.per_cone
    }
    report["egyptian"] = result.verdict
    return EXIT_OK if result.verdict else EXIT_PROPERTY_FAILS


def _cmd_modify(args, report):
    fan, _, _ = _load_fan(args, report)
    ray = _need_ray(args, fan)
    _need_dim_2(args, fan)
    probe = _egyptian_report(args, report, fan, ray)
    if not probe.verdict:
        report["egyptian"] = False
        report["error"] = "ray not in Egyptian position"
        return EXIT_PROPERTY_FAILS
    result = _stage(report, "split_s", lambda: split_star(fan, probe))
    checks = _stage(report, "verify_s", lambda: verify_modification(result))  # exit 2 if the ray is a maximal cone
    report["egyptian"] = True
    report["max_cones"] = len(result.fan.max_cones)
    report["splits"] = {str(orig): list(pair) for orig, pair in result.split_cones}
    report["exceptional_walls"] = [list(w.ray_indices) for w in result.exceptional_walls]
    report["verification"] = {
        "passed": checks.passed,
        "failures": list(checks.failures),
    }
    if args.emit:
        _write_file(args.emit, fan_to_json(result.fan))
        report["emitted"] = args.emit
    if not checks.passed:
        raise InvariantError("; ".join(checks.failures))
    return EXIT_OK


def _cmd_degree(args, report):
    fan, _, _ = _load_fan(args, report)
    coeffs = _load_divisor(args, fan)
    polytope = _stage(report, None, lambda: divisor_ops.divisor_polytope(fan, coeffs))
    degree = _stage(report, "degree_s", lambda: divisor_ops.polytope_degree(polytope))
    report["vertices"] = [[str(Fraction(x)) for x in v] for v in polytope.vertices]
    report["degree"] = degree
    return EXIT_OK


def _cmd_family(args, report):
    if args.which != "yu":
        raise InputError(f"unknown family {args.which!r} (available: yu)")
    if args.n is None or args.u is None:
        raise InputError("family yu needs --n and --u")
    yu = _stage(report, None, lambda: yu_fan(args.n, args.u))
    report["family"] = "yu"
    report["n"], report["u"] = args.n, args.u
    report["rays"] = len(yu.fan.rays)
    report["max_cones"] = len(yu.fan.max_cones)
    report["complete"] = yu.fan.is_complete()
    if args.emit:
        _write_file(args.emit, fan_to_json(yu.fan, yu.labels))
        report["emitted"] = args.emit
    else:
        report["fan"] = json.loads(fan_to_json(yu.fan, yu.labels))
    return EXIT_OK


def _cmd_report(args, report):
    """Hypothesis check: ray in Egyptian position with projective divisor.

    Prints the steps of ``hypothesis_report`` up to the first that fails.
    When both hypotheses hold the fan admits rank-n locally free sheaves
    with top Chern number growing like degree * t^(n-1), where the degree is
    that of the ample witness found on the divisor's fan; the modification,
    its verification, and the growth statement are appended.
    """
    fan, _, _ = _load_fan(args, report)
    ray = _need_ray(args, fan)
    _need_dim_2(args, fan)
    if not fan.is_complete():
        raise InputError("report requires a complete fan")
    result = hypothesis_report(fan, ray)
    report["egyptian"] = result.egyptian.verdict
    if not result.egyptian.verdict:
        report["verdict"] = "hypothesis fails: ray not in Egyptian position"
        return EXIT_PROPERTY_FAILS
    report["divisor_projective"] = result.quotient_projective.feasible
    if not result.quotient_projective.feasible:
        report["verdict"] = "hypothesis fails: the divisor of the ray is not projective"
        return EXIT_PROPERTY_FAILS
    report["modification"] = {
        "max_cones": len(result.modification.fan.max_cones),
        "exceptional_walls": [list(w.ray_indices) for w in result.modification.exceptional_walls],
        "verified": result.checks.passed,
    }
    if not result.checks.passed:
        raise InvariantError("; ".join(result.checks.failures))
    report["ample_divisor_on_divisor_fan"] = list(result.quotient_projective.witness_divisor)
    report["degree"] = result.growth.degree
    report["growth"] = result.growth.statement
    report["growth_note"] = result.growth.note
    return EXIT_OK


# The only list of commands: name -> (handler, help text, declared inputs).
_COMMANDS = {
    "validate": (_cmd_validate, "parse a fan file and run full fan validation", ("fan",)),
    "complete": (_cmd_complete, "decide completeness by the wall criterion", ("fan",)),
    "cartier": (_cmd_cartier, "decide whether a divisor is Cartier (and Q-Cartier)", ("fan", "divisor")),
    "index": (_cmd_index, "compute the Cartier index of a divisor", ("fan", "divisor")),
    "picard": (_cmd_picard, "compute the Picard group of a complete fan", ("fan",)),
    "classgroup": (_cmd_classgroup, "compute the divisor class group", ("fan",)),
    "projective": (_cmd_projective, "search for an ample divisor (strictly convex support function)", ("fan",)),
    "egyptian": (_cmd_egyptian, "classify the star of a ray as pyramidal extensions",
                 ("fan", "ray", "allow_incomplete")),
    "modify": (_cmd_modify, "apply the small modification at a ray in Egyptian position",
               ("fan", "ray", "allow_incomplete", "emit")),
    "degree": (_cmd_degree, "divisor polytope vertices and degree (normalized volume)", ("fan", "divisor")),
    "family": (_cmd_family, "generate a named fan family (yu: --n, --u)", ("family", "emit")),
    "report": (_cmd_report, "full hypothesis check plus growth statement for a fan and ray", ("fan", "ray")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first ``run`` and reused after.

    Building it costs more than most commands on small fans.  Reuse is safe:
    ``parse_args`` leaves the parser unchanged and returns a fresh namespace
    holding every default again.
    """
    parser = argparse.ArgumentParser(
        prog="toricfan",
        description="Exact computations on rational polyhedral fans and toric divisors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, inputs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if "family" in inputs:
            p.add_argument("which", help="family name (yu)")
            p.add_argument("--n", type=int, help="ambient dimension (>= 3)")
            p.add_argument("--u", type=int, help="family parameter (>= 1)")
        if "fan" in inputs:
            p.add_argument("--fan", help="path to a fan file (JSON)")
        if "divisor" in inputs:
            p.add_argument("--divisor", help="path to a divisor file (JSON)")
        if "ray" in inputs:
            p.add_argument("--ray", type=int, help="ray index into the fan file's ray list")
        if "allow_incomplete" in inputs:
            p.add_argument("--allow-incomplete", action="store_true",
                           help="classify stars in a non-complete fan")
        if "emit" in inputs:
            p.add_argument("--emit", help="write the resulting fan file here")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def run(argv: Sequence[str]) -> int:
    """Run one command; prints a report and returns the exit code.

    May be called any number of times in one process.
    """
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    report: dict = {"command": " ".join(argv)}
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.command][0](args, report)
    except InputError as exc:
        report["error"] = str(exc)
        code = EXIT_INPUT_ERROR
    except ResourceLimitError as exc:  # input beyond the supported scale, not a bug
        report["resource_limit"] = str(exc)
        code = EXIT_INPUT_ERROR
    except InvariantError as exc:
        report["internal_error"] = str(exc)
        code = EXIT_INTERNAL_ERROR
    except Exception as exc:  # unexpected: also an internal failure
        report["internal_error"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL_ERROR
    total_s = round(time.perf_counter() - started, 6)
    loaded = report.pop("timings", {})  # load_s and the stage timings; timings stay the last key
    report["exit_code"] = code
    report["timings"] = {"total_s": total_s, **loaded}
    _print_report(report, getattr(args, "json", False))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
