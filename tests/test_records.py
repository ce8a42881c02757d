"""Result records are ``typing.NamedTuple`` classes.

Each record keeps its field names, order and defaults, builds positionally
or by keyword, prints as ``Name(field=value, ...)``, hashes as its values,
refuses assignment to a field and copies with ``_replace``.  The three
checked records (``FGAbelianGroup``, ``StrictSystem``, ``YuConfig``) run
their checks in ``__new__``, so ``_replace`` checks too.  A classification's
``pieces`` is made on first access and kept.
"""

import ast

import pytest

from test_egyptian import NOT_PYRAMIDAL_RAYS, SQUARE_RAYS
from test_hygiene import SOURCES
from toricfan.cone import Cone, Face
from toricfan.divisor import CartierData, GrowthReport, Polytope, ProjectivityResult
from toricfan.egyptian import (
    EgyptianReport,
    ExceptionalWall,
    HypothesisReport,
    ModificationChecks,
    ModificationResult,
    PyramidalClassification,
    PyramidalKind,
    classify_pyramidal,
)
from toricfan.exactlin import FeasibilityResult, FGAbelianGroup, LinearSolution, StrictSystem
from toricfan.families import PipelineReport, YuCombinatoricsReport, YuConfig, YuFan
from toricfan.fan import FanIsomorphism, Wall

# (record, its fields in order, its defaults, valid values for every field)
RECORDS = [
    (Face, ("ray_indices", "dim"), {}, ((0, 1), 2)),
    (Wall, ("ray_indices", "dim", "incident"), {}, ((0, 1), 2, (0, 3))),
    (FanIsomorphism, ("matrix", "ray_map"), {}, (((1, 0), (0, 1)), (1, 0, 2))),
    (LinearSolution, ("particular", "kernel"), {}, ((1, 2), ((1, -1),))),
    (StrictSystem, ("equalities", "strict_inequalities", "dim"), {}, (((1, 0),), ((0, 1),), 2)),
    (FeasibilityResult, ("feasible", "witness", "rays"), {"rays": ()}, (True, (2, 2), ((1, 1), (1, 1)))),
    (FGAbelianGroup, ("rank", "invariant_factors"), {"invariant_factors": ()}, (1, (2, 4))),
    (CartierData, ("characters", "mode"), {}, (((0, 1), (1, 0)), "integral")),
    (Polytope, ("inequalities", "vertices"), {}, ((((1,), 0), ((-1,), 1)), ((0,), (1,)))),
    (GrowthReport, ("n", "degree", "statement", "note"),
     {"note": "coefficients below the leading term are not determined"}, (3, 1, "c_3 ~ t^3", "leading term")),
    (ProjectivityResult, ("feasible", "witness_divisor", "witness_data"), {}, (False, None, None)),
    (PyramidalClassification, ("kind", "sigma", "ray", "eta_rays", "eta_normal"),
     {"eta_rays": (), "eta_normal": ()}, (PyramidalKind.LOW_DIM, "sigma", (1, 0), ((0, 1),), (1, 0))),
    (EgyptianReport, ("ray", "per_cone", "verdict"), {}, (0, ((0, "cls"),), True)),
    (ExceptionalWall, ("ray_indices", "siblings"), {}, ((1, 2), (0, 4))),
    (ModificationResult, ("original", "fan", "split_cones", "exceptional_walls", "strict_transform_ray"), {},
     ("original", "fan", ((0, (0, 4)),), ("wall",), 0)),
    (ModificationChecks, ("wall_curves", "update_maximal", "quotient_preserved", "failures"), {},
     ((((1, 2), "projective", True),), (((1, 2), True),), True, ())),
    (HypothesisReport, ("egyptian", "quotient", "quotient_projective", "modification", "checks", "growth"),
     dict.fromkeys(["quotient", "quotient_projective", "modification", "checks", "growth"]),
     ("egyptian", "quotient", "projective", "modification", "checks", "growth")),
    (YuConfig, ("n", "u"), {}, (4, 2)),
    (YuFan, ("config", "fan", "labels"), {}, ("config", "fan", ("sigma_1",))),
    (YuCombinatoricsReport, ("failures",), {}, (("circuit of sigma_4 failed",),)),
    (PipelineReport, ("config", "picard", "projective", "egyptian", "modification", "modification_checks",
                      "modified_cartier_index", "divisor_fan_iso", "growth"), {},
     ("config", "picard", "projective", "egyptian", None, None, 2, None, None)),
]

# (a checked record, valid values, a bad set of fields, today's message)
BAD = [
    (FGAbelianGroup, (1, (2,)), {"rank": -1}, "rank must be nonnegative"),
    (FGAbelianGroup, (1, (2,)), {"invariant_factors": (1,)}, "invariant factors must be at least 2"),
    (FGAbelianGroup, (1, (2,)), {"invariant_factors": (4, 6)}, "invariant factors must form a divisibility chain"),
    (StrictSystem, (((1, 0),), (), 2), {"dim": 1}, "row of length 2 in a system of dimension 1"),
    (StrictSystem, (((1, 0),), (), 2), {"strict_inequalities": ((1,),)}, "row of length 1 in a system of dimension 2"),
    (YuConfig, (3, 1), {"n": 2}, "n must be at least 3"),
    (YuConfig, (3, 1), {"u": 0}, "u must be positive"),
]


# A valid change of fields for the checked records; the others take their first value in the last field.
CHANGES = {StrictSystem: {"equalities": ()}, FGAbelianGroup: {"invariant_factors": (3,)}, YuConfig: {"u": 3}}


@pytest.mark.parametrize("record,fields,defaults,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_fields_and_defaults(self, record, fields, defaults, values):
        assert record._fields == fields
        assert record._field_defaults == defaults
        required = fields[:len(fields) - len(defaults)]
        assert record(*values[:len(required)]) == values[:len(required)] + tuple(defaults.values())

    def test_positional_and_keyword_construction(self, record, fields, defaults, values):
        made = record(*values)
        assert made == record(**dict(zip(fields, values))) == record._make(values)
        assert tuple(made) == values and made == values
        assert [getattr(made, name) for name in fields] == list(values)
        assert made._asdict() == dict(zip(fields, values))

    def test_repr(self, record, fields, defaults, values):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(record(*values)) == f"{record.__name__}({body})"

    def test_hash(self, record, fields, defaults, values):
        assert hash(record(*values)) == hash(record(*values)) == hash(values)

    def test_fields_cannot_be_assigned(self, record, fields, defaults, values):
        made = record(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(made, name, values[0])
        assert made == values

    def test_replace(self, record, fields, defaults, values):
        made = record(*values)
        change = CHANGES.get(record, {fields[-1]: values[0]})
        copy = made._replace(**change)
        assert type(copy) is record and made == values
        assert copy == tuple(change.get(name, value) for name, value in zip(fields, values))
        with pytest.raises(ValueError, match="unexpected field names"):
            made._replace(no_such_field=0)


@pytest.mark.parametrize("record,values,bad,message", BAD, ids=[message for *_, message in BAD])
def test_checked_records_refuse_bad_fields(record, values, bad, message):
    good = record(*values)
    with pytest.raises(ValueError, match=f"^{message}$"):
        record(**{**good._asdict(), **bad})
    with pytest.raises(ValueError, match=f"^{message}$"):
        good._replace(**bad)


def test_pieces_are_made_once_and_only_for_a_split():
    square = classify_pyramidal(Cone.from_rays(3, SQUARE_RAYS), (1, 0, 1))
    assert square.kind is PyramidalKind.PYRAMIDAL and "pieces" not in vars(square)
    assert square.pieces is square.pieces and "pieces" in vars(square)
    low = classify_pyramidal(Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), (0, 0, 1))
    rho = (0, 3, -1, 1)
    not_pyramidal = classify_pyramidal(Cone.from_rays(4, NOT_PYRAMIDAL_RAYS), rho)
    assert (low.kind, not_pyramidal.kind) == (PyramidalKind.LOW_DIM, PyramidalKind.NOT_PYRAMIDAL)
    assert low.pieces is None and not_pyramidal.pieces is None
    # The cached pieces live beside the fields: the record still equals its values.
    assert square == tuple(square) and hash(square) == hash(tuple(square))


def _dataclasses_imports(path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "dataclasses":
            found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    assert _dataclasses_imports(path) == []


def test_dataclasses_guard_catches_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import dataclasses\nfrom dataclasses import dataclass\nimport os, dataclasses as dc\n")
    assert _dataclasses_imports(bad) == ["bad.py:1", "bad.py:2", "bad.py:3"]
