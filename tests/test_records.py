"""The result records, the config sections and the specs are named tuples:
their fields keep the order and the defaults they had as frozen dataclasses,
and they compare as tuples. A type that checks or derives something when it
is built does so on every way of building one."""

import math

import pytest

from morphwheel import bending, params, quasistatics, report, telescopic, wheelgeom
from morphwheel.params import ModuleLayout, TelescopicScrewSpec
from morphwheel.quasistatics import SiliconeForceTable
from morphwheel.report import Objective, SweepSpec

RECORDS = [
    (params.Violation, ("field", "constraint")),
    (params.Verdict, ("code", "passed", "computed", "reported", "detail")),
    (params.ValidationReport, ("violations", "derived")),
    (bending.BendState, ("total_bend", "direction", "per_plate_angle", "plate_angles",
                         "screw_extensions")),
    (bending.RodSizing, ("half_expansion", "rod_max", "rod_min", "inner_segment")),
    (telescopic.ModuleLengths, ("elongated", "reduced")),
    (telescopic.ScrewLengthSolution, ("length", "degenerate")),
    (wheelgeom.CurvedRodPlan, ("arc_per_sector", "levels", "matched_curvature")),
    (report.RunReport, ("digest", "validation", "outputs", "warnings")),
    (params.TelescopicScrewSpec, ("n_levels", "screw_level_length", "stopper_width",
                                  "thread_width", "thread_clearance", "base_screw_diameter")),
    (params.ModuleLayout, ("joint_arm_height", "drive_assembly_length", "tensioner_length",
                           "plate_clearance")),
    (params.PlatformSpec, ("screw_circle_spacing", "max_screw_extension", "joint_mount_width",
                           "universal_joint_diameter", "plate_count")),
    (params.WheelSpec, ("rod_half_length", "hub_offset", "curved_rod_length",
                        "hinge_allowance", "spoke_pairs", "min_half_separation")),
    (params.DriveSpec, ("motor_stall_torque", "screw_lead", "screw_friction",
                        "screw_mean_diameter")),
    (params.ReportedTargets, ("elongated_length", "reduced_length", "chassis_diameter",
                              "wheel_diameter", "rod_half_expansion")),
    (params.DesignParams, ("screw", "layout", "platform", "wheel", "drive", "reported")),
    (quasistatics.SiliconeForceTable, ("samples",)),
    (report.SweepSpec, ("parameter_path", "start", "stop", "steps", "objective")),
]

DEFAULTS = {
    params.ValidationReport: {"violations": (), "derived": None},
    telescopic.ScrewLengthSolution: {"degenerate": False},
    params.TelescopicScrewSpec: {"base_screw_diameter": 2.3},
    params.PlatformSpec: {"plate_count": 4},
    params.WheelSpec: {"spoke_pairs": 6, "min_half_separation": None},
    params.DriveSpec: {"motor_stall_torque": 1470.0, "screw_lead": 2.0,
                       "screw_friction": 0.2, "screw_mean_diameter": 8.0},
    params.ReportedTargets: dict.fromkeys(params.ReportedTargets._fields),
    params.DesignParams: {"drive": params.DriveSpec(), "reported": params.ReportedTargets()},
}


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_fields_keep_their_order_and_defaults(record, fields):
    assert issubclass(record, tuple)
    assert record._fields == fields
    assert record._field_defaults == DEFAULTS.get(record, {})


def test_defaults_fill_the_trailing_fields():
    assert telescopic.ScrewLengthSolution(1.0).degenerate is False


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


SCREW = (4, 20.0, 1.0, 0.5, 0.5)  # the reference screw's required fields
LAYOUT = (5.0, 90.0, 60.0, 10.0)  # the reference layout's required fields


class TestDerivedDefaults:
    """The shaft's level count (``telescopic.shaft_levels``) and the full
    joint height (two arms, in ``params.residual_length``) are no fields:
    each follows the field it is derived from, however the record is built
    or changed (by keyword: ``test_params.TestDefaults``)."""

    @staticmethod
    def derived(screw, layout):
        # The shaft levels and the height of one of the two joints.
        p = params.reference_design()._replace(screw=screw, layout=layout)
        return telescopic.shaft_levels(p), (params.residual_length(p) - sum(layout[1:])) / 2

    def test_positionally(self):
        assert TelescopicScrewSpec(*SCREW) == (*SCREW, 2.3)
        assert ModuleLayout(*LAYOUT) == LAYOUT
        assert self.derived(TelescopicScrewSpec(*SCREW), ModuleLayout(*LAYOUT)) == (3, 10.0)

    def test_a_given_value_is_refused(self):
        with pytest.raises(TypeError):
            TelescopicScrewSpec(*SCREW, 2.3, 3)
        with pytest.raises(TypeError):
            TelescopicScrewSpec(*SCREW, shaft_levels=3)
        with pytest.raises(TypeError):
            ModuleLayout(*LAYOUT, joint_height=10.0)

    def test_through_make(self):
        screw, layout = TelescopicScrewSpec._make([*SCREW, 2.3]), ModuleLayout._make(LAYOUT)
        assert type(screw) is TelescopicScrewSpec and type(layout) is ModuleLayout
        assert self.derived(screw, layout) == (3, 10.0)
        with pytest.raises(TypeError):
            TelescopicScrewSpec._make([*SCREW, 2.3, 3])

    def test_replace_keeps_a_derived_value(self):
        # Changing a field that a derived value does not read keeps it.
        screw, layout = TelescopicScrewSpec(*SCREW), ModuleLayout(*LAYOUT)
        assert self.derived(screw._replace(stopper_width=2.0),
                            layout._replace(plate_clearance=3.0)) == (3, 10.0)

    def test_replace_derives_again(self):
        screw, layout = TelescopicScrewSpec(*SCREW), ModuleLayout(*LAYOUT)
        assert self.derived(screw._replace(n_levels=6),
                            layout._replace(joint_arm_height=7.0)) == (5, 14.0)
        with pytest.raises(ValueError, match="shaft_levels"):
            screw._replace(shaft_levels=None)
        # A section changed by plain ``_replace`` is a sound design.
        p = params.reference_design()
        assert params.validate(p._replace(screw=p.screw._replace(n_levels=6))).valid


class TestDesignParams:
    def test_drive_and_reported_default_to_one_shared_instance(self):
        p = params.reference_design()
        a = params.DesignParams(p.screw, p.layout, p.platform, p.wheel)
        b = params.DesignParams(p.screw, p.layout, p.platform, p.wheel)
        assert a.drive == params.DriveSpec() and a.reported == params.ReportedTargets()
        assert a.drive is b.drive and a.reported is b.reported

    def test_validation_is_kept_per_design(self):
        p = params.reference_design()
        assert p.validation is p.validation
        copy = p._replace()
        assert copy == p
        assert copy.validation == p.validation and copy.validation is not p.validation

    def test_fields_are_read_only(self):
        p = params.reference_design()
        with pytest.raises(AttributeError):
            p.screw = p.screw  # type: ignore[misc]
        with pytest.raises(AttributeError):
            del p.validation
        with pytest.raises(AttributeError):
            p.screw.n_levels = 5  # type: ignore[misc]


GRID = ("wheel.hub_offset", 10.0, 200.0, 5, Objective.MAX_WHEEL_RADIUS)
BAD_GRIDS = [
    ({"steps": 1}, "at least 2 grid points"),
    ({"steps": params._MAX_STEPS + 1}, f"at most {params._MAX_STEPS} grid points"),
    ({"stop": 10.0}, "start and stop must differ"),
]


class TestSweepSpec:
    @pytest.mark.parametrize("change, message", BAD_GRIDS)
    def test_every_way_of_building_one_checks_it(self, change, message):
        values = dict(zip(SweepSpec._fields, GRID), **change)
        with pytest.raises(ValueError, match=message):
            SweepSpec(**values)
        with pytest.raises(ValueError, match=message):
            SweepSpec(*values.values())
        with pytest.raises(ValueError, match=message):
            SweepSpec._make(values.values())
        with pytest.raises(ValueError, match=message):
            SweepSpec(*GRID)._replace(**change)

    def test_a_good_grid_is_built_every_way(self):
        spec = SweepSpec(*GRID)
        assert spec == GRID
        assert SweepSpec._make(GRID) == spec
        assert type(spec._replace(steps=params._MAX_STEPS)) is SweepSpec
        assert spec._replace(steps=3).value(1) == 105.0


SAMPLES = ((1.0, 3.0), (2.0, 1.0))
BAD_SAMPLES = [
    ((), "must not be empty"),
    (((1.0, math.nan),), "must be finite"),
    (((math.inf, 1.0),), "must be finite"),
    (((2.0, 3.0), (1.0, 1.0)), "strictly increasing"),
    (((1.0, 3.0), (1.0, 1.0)), "strictly increasing"),
    (((1.0, 1.0), (2.0, 3.0)), "nonincreasing"),
    (((1.0, 1.0), (2.0, -1.0)), "nonnegative"),
]


class TestSiliconeForceTable:
    @pytest.mark.parametrize("samples, message", BAD_SAMPLES)
    def test_every_way_of_building_one_checks_it(self, samples, message):
        with pytest.raises(ValueError, match=message):
            SiliconeForceTable(samples)
        with pytest.raises(ValueError, match=message):
            SiliconeForceTable(samples=samples)
        with pytest.raises(ValueError, match=message):
            SiliconeForceTable._make([samples])
        with pytest.raises(ValueError, match=message):
            SiliconeForceTable(SAMPLES)._replace(samples=samples)

    def test_read_only(self):
        # No ``__dict__``: a table holds its samples and nothing else.
        table = SiliconeForceTable(SAMPLES)
        with pytest.raises(AttributeError):
            table.lengths = (1.0, 2.0)  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            table.samples = ()  # type: ignore[misc]
        with pytest.raises(AttributeError):
            del table.samples
        assert table == (SAMPLES,) and not hasattr(table, "__dict__")
