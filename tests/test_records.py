"""The result records are named tuples: their fields keep the order and the
defaults they had as frozen dataclasses, and they compare as tuples."""

import pytest

from morphwheel import bending, params, quasistatics, report, telescopic, wheelgeom

RECORDS = [
    (params.Violation, ("field", "constraint")),
    (params.Inconsistency, ("code", "detail", "computed", "reported")),
    (params.ValidationReport, ("violations", "derived")),
    (bending.BendState, ("total_bend", "direction", "per_plate_angle", "plate_angles",
                         "screw_extensions")),
    (bending.RodSizing, ("half_expansion", "rod_max", "rod_min", "outer_segment",
                         "inner_segment")),
    (telescopic.ModuleLengths, ("elongated", "reduced")),
    (telescopic.ScrewDiameterLadder, ("diameters",)),
    (telescopic.ScrewLengthSolution, ("length", "degenerate")),
    (wheelgeom.TransformState, ("module_length", "axial_half_separation", "wheel_radius",
                                "trigger_mode")),
    (wheelgeom.CurvedRodPlan, ("arc_per_sector", "levels", "matched_curvature")),
    (quasistatics.TorqueEntry, ("module_length", "axial_force", "per_motor_torque")),
    (quasistatics.MotorCheck, ("passed", "peak_torque", "stall_torque", "margin", "ratio",
                               "selection_threshold", "note")),
    (report.RunReport, ("digest", "validation", "outputs", "warnings")),
]

DEFAULTS = {
    params.Inconsistency: {"computed": None, "reported": None},
    params.ValidationReport: {"violations": (), "derived": None},
    telescopic.ScrewLengthSolution: {"degenerate": False},
}


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_fields_keep_their_order_and_defaults(record, fields):
    assert issubclass(record, tuple)
    assert record._fields == fields
    assert record._field_defaults == DEFAULTS.get(record, {})


def test_defaults_fill_the_trailing_fields():
    assert telescopic.ScrewLengthSolution(1.0).degenerate is False
    assert params.Inconsistency("code", "detail") == ("code", "detail", None, None)


def test_validation_report_is_valid_without_violations():
    assert params.ValidationReport().valid
    assert params.ValidationReport() == ((), None)
    report = params.validate(params.reference_design())
    assert report.valid and report.derived is not None
    # ``derived`` is a function of the design: equal designs, equal reports.
    assert report == params.validate(params.reference_design())
    assert not params.ValidationReport((params.Violation("f", "c"),)).valid


def test_records_compare_as_tuples():
    lengths = telescopic.ModuleLengths(340.0, 220.0)
    assert lengths == (340.0, 220.0)
    assert lengths.reduction_ratio == 220.0 / 340.0
    assert lengths._replace(reduced=170.0).reduction_ratio == 0.5
    assert lengths._asdict() == {"elongated": 340.0, "reduced": 220.0}
    with pytest.raises(AttributeError):
        lengths.reduced = 1.0  # type: ignore[misc]
