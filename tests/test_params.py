import contextlib
import csv
import io
import math
import operator
import random
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphwheel import (
    ConfigError,
    DriveSpec,
    ModuleLayout,
    TelescopicScrewSpec,
    load,
    serialize,
    validate,
)
from morphwheel import params, wheelgeom
from morphwheel.cli import main
from morphwheel.params import residual_length
from morphwheel.quasistatics import SiliconeForceTable, load_force_table, screw_torque
from morphwheel.report import consistency_warnings
from morphwheel.telescopic import shaft_levels

from conftest import random_params, random_valid_params, reference_design
from oracles import set_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MINIMAL_CONFIG = """
screw:
  n_levels: 4
  screw_level_length: 20.0
  stopper_width: 1.0
  thread_width: 0.5
  thread_clearance: 0.5
layout:
  joint_arm_height: 5.0
  drive_assembly_length: 90.0
  tensioner_length: 60.0
  plate_clearance: 10.0
platform:
  screw_circle_spacing: 24.0
  max_screw_extension: 80.0
  joint_mount_width: 5.0
  universal_joint_diameter: 2.5
wheel:
  rod_half_length: 140.0
  hub_offset: 60.0
  curved_rod_length: 120.0
  hinge_allowance: 15.0
"""


class TestValidate:
    def test_reference_design_has_no_violations(self, reference):
        report = validate(reference)
        assert report.valid
        assert len(report.violations) == 0

    def test_zero_levels_reported(self, reference):
        bad = reference._replace(
            screw=reference.screw._replace(n_levels=0),
        )
        report = validate(bad)
        assert any(v.field == "screw.n_levels" and "n_levels >= 1" in v.constraint
                   for v in report.violations)

    def test_joint_height_doubling_rule(self, reference, tmp_path, capsys):
        # A full joint is two arms; a config may restate its height only so.
        text = MINIMAL_CONFIG.replace("joint_arm_height: 5.0",
                                      "joint_arm_height: 5.0\n  joint_height: 11.0")
        with pytest.raises(ConfigError) as exc:
            load(text)
        assert str(exc.value) == ("restated value must equal 2 * joint_arm_height = 10.0 "
                                  "(field: layout.joint_height)")
        config = tmp_path / "design.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        # The arm is the one field: a non-positive one is one violation.
        bad = reference._replace(layout=reference.layout._replace(joint_arm_height=-1.0))
        assert validate(bad).violations \
            == (params.Violation("layout.joint_arm_height", "joint_arm_height > 0"),)

    def test_shaft_levels_must_track_screw_levels(self, reference):
        with pytest.raises(ConfigError) as exc:
            load(MINIMAL_CONFIG.replace("n_levels: 4", "n_levels: 4\n  shaft_levels: 5"))
        assert str(exc.value) \
            == "restated value must equal n_levels - 1 = 3 (field: screw.shaft_levels)"
        for n in (1, 6):
            p = reference._replace(screw=reference.screw._replace(n_levels=n))
            assert shaft_levels(p) == n - 1
            assert load(restated(p)) == p

    def test_all_violations_listed_not_just_first(self, reference):
        bad = reference._replace(
            screw=reference.screw._replace(n_levels=0, screw_level_length=-1.0),
            drive=reference.drive._replace(motor_stall_torque=-5.0),
        )
        fields = {v.field for v in validate(bad).violations}
        assert {"screw.n_levels", "screw.screw_level_length",
                "drive.motor_stall_torque"} <= fields

    def test_validate_is_pure(self, reference):
        assert validate(reference) == validate(reference)

    def test_friction_range(self, reference):
        bad = reference._replace(
            drive=reference.drive._replace(screw_friction=1.0))
        assert any(v.field == "drive.screw_friction" for v in validate(bad).violations)

    @pytest.mark.parametrize("diameter,physical", [
        (0.999, False),  # pi * d below mu * lead
        (1.0, False),    # pi * d == mu * lead == pi exactly
        (1.001, True),
    ])
    def test_non_physical_screw(self, reference, diameter, physical):
        drive = DriveSpec(screw_lead=2.0 * math.pi, screw_friction=0.5,
                          screw_mean_diameter=diameter)
        report = validate(reference._replace(drive=drive))
        assert report.valid is physical
        if physical:
            assert screw_torque(1.0, drive.screw_lead, diameter, drive.screw_friction) > 0
        else:
            assert [(v.field, v.constraint) for v in report.violations] == [
                ("drive.screw_mean_diameter",
                 "pi * screw_mean_diameter > screw_friction * screw_lead")]
            with pytest.raises(ValueError, match="non-physical"):
                screw_torque(1.0, drive.screw_lead, diameter, drive.screw_friction)

    def test_non_positive_screw_diameter_is_one_violation(self, reference):
        drive = reference.drive._replace(screw_mean_diameter=-1.0)
        report = validate(reference._replace(drive=drive))
        assert [v.constraint for v in report.violations] == ["screw_mean_diameter > 0"]

    @pytest.mark.parametrize("h_min,rod,folds", [
        (140.0, 140.0, False),
        (150.0, 140.0, False),
        (139.0, 140.0, True),
        (None, 8.0, False),  # unset, h_min is the 2 mm * 4 levels stopper stack
        (None, 8.5, True),
    ])
    def test_rod_pair_must_fold(self, reference, h_min, rod, folds):
        wheel = reference.wheel._replace(min_half_separation=h_min,
                                         rod_half_length=rod)
        report = validate(reference._replace(wheel=wheel))
        assert report.valid is folds
        if not folds:
            assert [(v.field, v.constraint) for v in report.violations] == [
                ("wheel.min_half_separation", "min_half_separation < rod_half_length")]

    def test_identity_warning_when_both_reported_lengths_supplied(self, reference):
        # 340 - 165 = 175 does not match 2 * 20 * 3 = 120.
        assert any(w.code == "reported_length_identity"
                   for w in consistency_warnings(reference))
        codes_without = [w.code for w in consistency_warnings(
            reference._replace(reported=reference.reported._replace(
                reduced_length=None)))]
        assert "reported_length_identity" not in codes_without

    def test_identity_warning_absent_when_numbers_agree(self, reference):
        ok = reference._replace(
            reported=reference.reported._replace(elongated_length=340.0,
                                                 reduced_length=220.0),
        )
        assert not any(w.code == "reported_length_identity"
                       for w in consistency_warnings(ok))

    def test_validation_checks_no_reported_value(self, reference):
        # The reported block is cross-checked by ``consistency_warnings``
        # only: validation reads none of it.
        bare = reference._replace(reported=params.ReportedTargets())
        assert validate(reference) == validate(bare)


class TestLevelCap:
    """A screw count past ``params._MAX_LEVELS`` is a violation: ``report``
    would print one diameter per level."""

    def test_cap_is_valid_and_one_past_is_not(self, reference):
        cap = params._MAX_LEVELS
        assert validate(set_field(reference, "screw.n_levels", cap)).valid
        past = validate(set_field(reference, "screw.n_levels", cap + 1))
        assert [(v.field, v.constraint) for v in past.violations] \
            == [("screw.n_levels", f"n_levels <= {cap}")]

    def test_one_past_the_cap_is_refused_by_every_verb(self, reference, tmp_path, capsys):
        config = tmp_path / "design.yaml"
        config.write_text(
            serialize(set_field(reference, "screw.n_levels", params._MAX_LEVELS + 1)),
            encoding="utf-8")
        out, sweep_out = tmp_path / "p.csv", tmp_path / "s.csv"
        for argv in (["validate"], ["report"], ["profile", "--out", str(out)],
                     ["sweep", "--sweep-param", "drive.screw_lead", "--sweep-range", "1:4:4",
                      "--objective", "min-peak-torque", "--out", str(sweep_out)]):
            assert main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        line = f"VIOLATION screw.n_levels: n_levels <= {params._MAX_LEVELS}\n"
        assert line in captured.out
        assert captured.err.count(line) == 3
        assert "Traceback" not in captured.err
        assert not out.exists() and not sweep_out.exists()


def with_fields(p, changes):
    for path, value in changes.items():
        p = set_field(p, path, value)
    return p


class TestOverflow:
    """Derived quantities past the float range are violations."""

    @pytest.mark.parametrize("changes,field,constraint", [
        ({"layout.drive_assembly_length": 1e308, "layout.tensioner_length": 1e308},
         "screw.screw_level_length", "elongated length is finite"),
        # 1e200 squared overflows.
        ({"wheel.rod_half_length": 1e200, "screw.screw_level_length": 1e200},
         "wheel.rod_half_length", "wheel radius is finite"),
        ({"wheel.hub_offset": 1e308},
         "wheel.hub_offset", "rim arc of the wheel radius is finite"),
        # A 209 mm arc over 1e-306 mm of rod needs more levels than a float
        # holds, and over 1e-14 mm more than it counts exactly.
        ({"wheel.curved_rod_length": 1e-306, "wheel.hinge_allowance": 0.0},
         "wheel.curved_rod_length", "rim arc / (curved_rod_length - hinge_allowance) < 2**53"),
        ({"wheel.curved_rod_length": 1e-14, "wheel.hinge_allowance": 0.0},
         "wheel.curved_rod_length", "rim arc / (curved_rod_length - hinge_allowance) < 2**53"),
        ({"drive.screw_mean_diameter": 1e200},
         "drive.screw_mean_diameter", "peak torque is finite"),
        # 2 * (1e308 * sin(pi/4) + 1.7e308 / 2) overflows; the rods stay finite.
        ({"platform.max_screw_extension": 1e308, "platform.screw_circle_spacing": 1.7e308},
         "platform.max_screw_extension", "chassis diameter at a pi/4 tilt is finite"),
        # 2 * 1.7e308 * sin(pi/4) overflows; the chassis stays finite.
        ({"platform.joint_mount_width": 1.7e308},
         "platform.joint_mount_width", "rod length at a pi/4 tilt is finite"),
        # 2.3 + 3 * (1.7e308 + 1.5) overflows: the outermost of four levels.
        ({"screw.thread_width": 1.7e308},
         "screw.thread_width", "outermost screw diameter is finite"),
    ])
    def test_refused_by_every_verb(self, reference, tmp_path, capsys, changes, field,
                                   constraint):
        p = with_fields(reference, changes)
        assert [(v.field, v.constraint) for v in validate(p).violations] == [(field, constraint)]
        config = tmp_path / "design.yaml"
        config.write_text(serialize(p), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["report", "--config", str(config)]) == 1
        assert main(["profile", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"VIOLATION {field}: {constraint}\n" in captured.out
        assert captured.err.count(f"VIOLATION {field}: {constraint}\n") == 2
        assert not out.exists()

    def test_rim_level_count_at_2_to_the_53_is_a_violation(self, reference):
        # With no hinge allowance, a rod of the rim arc over 2**53 (a power of
        # two, so the quotient is exact) needs exactly 2**53 levels: refused.
        # One ulp more rod needs just fewer: accepted.
        p = with_fields(reference, {"wheel.hinge_allowance": 0.0})
        arc = wheelgeom.rim_arc(wheelgeom.transform_endpoint_radius(p), p.wheel.spoke_pairs)
        tie = arc / 2.0 ** 53
        for rod, levels, violations in (
                (tie, 2.0 ** 53, [("wheel.curved_rod_length",
                                   "rim arc / (curved_rod_length - hinge_allowance) < 2**53")]),
                (math.nextafter(tie, math.inf), 2.0 ** 53 - 1, [])):
            assert arc / rod == levels
            q = with_fields(p, {"wheel.curved_rod_length": rod})
            v = []
            params._check_radius(q, v, {})
            assert [(x.field, x.constraint) for x in v] == violations
            assert [(x.field, x.constraint) for x in validate(q).violations] == violations

    def test_huge_but_finite_quantities_are_accepted(self, reference, tmp_path, capsys):
        # A 1e17 mm hub needs 2 * pi * 1e17 / 6 / 105, about 1e15, rim rod
        # levels; 1e-7 mm of usable rod needs 2094395103. A wheel stroke
        # lost to rounding against a huge hub or module length is refused
        # (``TestStrokeResolution``), so the hub comes with 1e9 mm rods on
        # a module long enough to fold them, and the drive is 1e11 mm long.
        for changes in ({"wheel.hub_offset": 1e17, "wheel.rod_half_length": 1e9,
                         "screw.screw_level_length": 1e9},
                        {"wheel.curved_rod_length": 1e-7, "wheel.hinge_allowance": 0.0},
                        {"layout.drive_assembly_length": 1e11},
                        {"platform.max_screw_extension": 1e308}):
            p = with_fields(reference, changes)
            assert validate(p).valid
            config = tmp_path / "design.yaml"
            config.write_text(serialize(p), encoding="utf-8")
            assert main(["report", "--config", str(config)]) == 0
            assert main(["profile", "--config", str(config),
                         "--out", str(tmp_path / "p.csv")]) == 0
        assert "curved_rod_levels = 2094395103\n" in capsys.readouterr().out

    def test_infinite_chassis_is_an_invalid_sweep_row(self, reference, tmp_path):
        p = with_fields(reference, {"platform.screw_circle_spacing": 1.7e308})
        config, out = tmp_path / "design.yaml", tmp_path / "s.csv"
        config.write_text(serialize(p), encoding="utf-8")
        assert main(["sweep", "--config", str(config),
                     "--sweep-param", "platform.max_screw_extension",
                     "--sweep-range", "80:1e308:2", "--objective", "min-reduced-length",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["status"], r["reason"]) for r in rows] \
            == [("ok", ""), ("invalid", "platform.max_screw_extension")]
        assert math.isfinite(float(rows[0]["chassis_diameter_mm"]))

    @pytest.mark.parametrize("field", ["screw.n_levels", "screw.shaft_levels",
                                       "platform.plate_count", "wheel.spoke_pairs"])
    def test_count_past_the_float_range_exits_2(self, reference, tmp_path, capsys, field):
        self.assert_refused_past_the_float_range(reference, tmp_path, capsys, field)

    @pytest.mark.parametrize("field", ["screw.screw_level_length", "wheel.hub_offset",
                                       "wheel.min_half_separation"])
    def test_integer_past_the_float_range_exits_2(self, reference, tmp_path, capsys, field):
        self.assert_refused_past_the_float_range(reference, tmp_path, capsys, field)

    @staticmethod
    def assert_refused_past_the_float_range(reference, tmp_path, capsys, field):
        section, key = field.split(".")
        doc = yaml.safe_load(serialize(reference))
        doc[section][key] = 10 ** 400
        config = tmp_path / "design.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"expected a finite number.*{field}"):
            load(config.read_text(encoding="utf-8"))
        out = tmp_path / "p.csv"
        for argv in (["validate"], ["report"], ["profile", "--out", str(out)]):
            assert main([*argv, "--config", str(config)]) == 2
            assert f"expected a finite number (field: {field})" in capsys.readouterr().err
        assert not out.exists()

    def test_only_a_structurally_sound_design_is_checked(self, reference):
        # The overflow checks assume the structural invariants hold.
        p = with_fields(reference, {"wheel.hub_offset": 1e308, "drive.screw_lead": -1.0})
        assert [v.field for v in validate(p).violations] == ["drive.screw_lead"]


class TestStrokeResolution:
    """A wheel stroke that the module length, the rod half-length or the
    wheel radius cannot show in floats is a violation: every state of a
    profile would share one length or one radius."""

    STROKE = ("wheel.rod_half_length",
              "2 * (rod_half_length - min_half_separation) > 2**-30 * elongated length")

    @pytest.mark.parametrize("changes,field,constraint", [
        # 8e200 mm long: the 280 mm stroke rounds away.
        ({"screw.screw_level_length": 1.0e200}, *STROKE),
        ({"layout.drive_assembly_length": 1e307}, *STROKE),
        # The 140 mm radius gain rounds away on the hub.
        ({"wheel.hub_offset": 1e17},
         "wheel.hub_offset", "wheel radius - hub_offset > 2**-30 * wheel radius"),
        # The half-separation moves by 5e-7 of a 1000 mm rod.
        ({"wheel.rod_half_length": 1000.0, "wheel.min_half_separation": 1000.0 - 5e-7},
         "wheel.min_half_separation",
         "rod_half_length - min_half_separation > 2**-30 * rod_half_length"),
    ])
    def test_refused_by_every_verb(self, reference, tmp_path, capsys, changes, field,
                                   constraint):
        p = with_fields(reference, changes)
        assert [(v.field, v.constraint) for v in validate(p).violations] == [(field, constraint)]
        config = tmp_path / "design.yaml"
        config.write_text(serialize(p), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["validate", "--config", str(config)]) == 1
        assert main(["report", "--config", str(config)]) == 1
        assert main(["profile", "--config", str(config), "--steps", "3",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"VIOLATION {field}: {constraint}\n" in captured.out
        assert captured.err.count(f"VIOLATION {field}: {constraint}\n") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.yaml"]

    @pytest.mark.parametrize("path,share", [
        ("wheel.hub_offset", 140.0), ("layout.drive_assembly_length", 280.0)])
    def test_boundary(self, reference, path, share):
        # The stroke's share of the length it changes, just above and just
        # below 2**-30.
        above = with_fields(reference, {path: share * 2.0 ** 30 * 0.99})
        below = with_fields(reference, {path: share * 2.0 ** 30 * 1.01})
        assert validate(above).valid
        assert not validate(below).valid


class TestDefaults:
    def test_shaft_levels_default(self, reference):
        spec = TelescopicScrewSpec(n_levels=4, screw_level_length=20.0,
                                   stopper_width=1.0, thread_width=0.5,
                                   thread_clearance=0.5)
        assert spec.base_screw_diameter == 2.3
        assert shaft_levels(reference._replace(screw=spec)) == 3

    def test_joint_height_default(self, reference):
        layout = ModuleLayout(joint_arm_height=5.0, drive_assembly_length=90.0,
                              tensioner_length=60.0, plate_clearance=10.0)
        # Two joints of two 5 mm arms, then the clearance, drive and tensioner.
        assert residual_length(reference._replace(layout=layout)) == 20.0 + 10.0 + 90.0 + 60.0


class TestLoad:
    def test_minimal_config_fills_defaults(self):
        p = load(MINIMAL_CONFIG)
        assert p.validation.valid
        assert p.screw.base_screw_diameter == 2.3
        assert shaft_levels(p) == 3
        assert residual_length(p) == 180.0
        assert p.platform.plate_count == 4
        assert p.wheel.spoke_pairs == 6
        assert p.wheel.min_half_separation is None
        assert p.drive == DriveSpec()
        assert p.drive.motor_stall_torque == 1470.0
        assert p.drive.screw_lead == 2.0
        assert p.drive.screw_friction == 0.2
        assert p.drive.screw_mean_diameter == 8.0
        assert p.reported.wheel_diameter is None

    def test_negative_length_loads_with_nonempty_report(self):
        text = MINIMAL_CONFIG.replace("screw_level_length: 20.0",
                                      "screw_level_length: -20.0")
        report = load(text).validation
        assert not report.valid
        assert any(v.field == "screw.screw_level_length" for v in report.violations)

    def test_reference_config_file_reproduces_targets(self):
        # The axial budget is fitted to the published 340 mm elongated length,
        # and ``min_half_separation`` pinned to 0 closes the published 400 mm
        # wheel (README, "The paper's reference design").
        p = load((CONFIGS / "reference.yaml").read_text(encoding="utf-8"))
        assert p.validation.valid
        assert p.reported.wheel_diameter == 400.0
        assert p.reported.elongated_length == 340.0
        assert p.validation.derived["elongated_length_mm"] == 340.0
        assert 2.0 * p.validation.derived["wheel_radius_mm"] == 400.0

    def test_missing_section_names_it(self):
        text = MINIMAL_CONFIG[MINIMAL_CONFIG.index("layout:"):]
        with pytest.raises(ConfigError) as exc:
            load(text)
        assert str(exc.value) == "missing required section 'screw' (field: screw)"

    def test_missing_field_names_it(self):
        text = MINIMAL_CONFIG.replace("  rod_half_length: 140.0\n", "")
        with pytest.raises(ConfigError, match="wheel.rod_half_length"):
            load(text)

    def test_empty_config_is_a_parse_error(self):
        with pytest.raises(ConfigError, match="empty"):
            load("")

    def test_bad_yaml_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            load("screw:\n  n_levels: [unclosed\n")
        assert exc.value.line is not None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="screw.bogus"):
            load(MINIMAL_CONFIG.replace("  n_levels: 4\n", "  n_levels: 4\n  bogus: 1\n"))

    def test_wrong_type_rejected(self):
        text = MINIMAL_CONFIG.replace("n_levels: 4", "n_levels: four")
        with pytest.raises(ConfigError, match="screw.n_levels"):
            load(text)

    def test_non_integer_count_rejected(self):
        text = MINIMAL_CONFIG.replace("n_levels: 4", "n_levels: 4.5")
        with pytest.raises(ConfigError, match="screw.n_levels"):
            load(text)

    def test_optional_count_must_be_an_integer(self):
        # ``shaft_levels`` is no field, but a config that restates it gives a count.
        with pytest.raises(ConfigError, match="integer count.*screw.shaft_levels"):
            load(MINIMAL_CONFIG.replace("n_levels: 4", "n_levels: 4\n  shaft_levels: 3.0"))

    @pytest.mark.parametrize("text,message", [
        ("drive: 3\n", r"^config line is outside the plain grammar \(line: 23\)$"),
        ("drive:\n  screw_pitch: 2.0\n", "unknown key.*drive.screw_pitch"),
        ("drive:\n  screw_lead: fast\n", r"^config line is outside the plain grammar "
                                          r"\(field: drive.screw_lead\) \(line: 24\)$"),
    ])
    def test_drive_section_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            load(MINIMAL_CONFIG + text)

    def test_partial_drive_section_keeps_other_defaults(self):
        p = load(MINIMAL_CONFIG + "drive:\n  screw_lead: 3\n")
        assert p.drive == DriveSpec(screw_lead=3.0)
        assert isinstance(p.drive.screw_lead, float)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "1.0e+400", "-1.0e+400"])
    @pytest.mark.parametrize("field", [
        "wheel.hub_offset",
        "wheel.min_half_separation",
        "screw.thread_clearance",
        "wheel.rod_half_length",
        "screw.screw_level_length",
    ])
    def test_non_finite_number_rejected(self, reference, field, value):
        # YAML's names of the non-finite floats are outside the plain
        # grammar; a decimal past the float range is read, and refused.
        section, key = field.split(".")
        doc = yaml.safe_load(serialize(reference))
        doc[section][key] = value
        text = yaml.safe_dump(doc).replace(f"'{value}'", value)
        assert f"{key}: {value}\n" in text
        line = text.split("\n").index(f"  {key}: {value}") + 1
        with pytest.raises(ConfigError) as exc:
            load(text)
        assert str(exc.value) == (f"expected a finite number (field: {field})"
                                  if value[-1].isdigit() else
                                  "config line is outside the plain grammar "
                                  f"(field: {field}) (line: {line})")


# The values a config may restate, as the design derives them.
RESTATED = {"screw.shaft_levels": shaft_levels,
            "layout.joint_height": lambda p: 2.0 * p.layout.joint_arm_height}


def restated(p, shaft=0, joint=0.0):
    """Config text of ``p`` that restates both derived values, the shaft
    levels off by ``shaft`` and the joint height by ``joint``."""
    doc = yaml.safe_load(serialize(p))
    doc["screw"]["shaft_levels"] = RESTATED["screw.shaft_levels"](p) + shaft
    doc["layout"]["joint_height"] = RESTATED["layout.joint_height"](p) + joint
    return yaml.safe_dump(doc)


def run(argv):
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def without_digest(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("digest: "))


class TestRestatedKeys:
    """A config may restate the shaft levels and the full joint height. At
    their derived values (within 1e-9) they change no output; any other
    value exits 2 naming the key."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_restating_the_derived_values_changes_nothing(self, tmp_path, seed, data):
        p = random_valid_params(random.Random(seed))
        text = restated(p, joint=data.draw(st.floats(-5e-10, 5e-10)))
        assert load(text) == p
        path = data.draw(st.sampled_from(["layout.joint_arm_height", "screw.screw_level_length",
                                          "wheel.hub_offset", "drive.screw_friction"]))
        current = operator.attrgetter(path)(p)
        grid = f"{0.5 * current!r}:{2.0 * current + 1.0!r}:1000"
        outputs = []
        config, sweep = tmp_path / "design.yaml", tmp_path / "sweep.csv"
        for config_text in (serialize(p), text):
            config.write_text(config_text, encoding="utf-8")
            runs = [run([verb, "--config", str(config)]) for verb in ("validate", "report")]
            runs.append(run(["sweep", "--config", str(config), "--sweep-param", path,
                             "--sweep-range", grid, "--objective", "min-peak-torque",
                             "--out", str(sweep)]))
            outputs.append([(code, without_digest(out), err) for code, out, err in runs]
                           + [sweep.read_bytes()])
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0][:3]] == [0, 0, 0]

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_value_off_by_more_than_1e_9_exits_2(self, tmp_path, seed, data):
        p = random_valid_params(random.Random(seed))
        path = data.draw(st.sampled_from(sorted(RESTATED)))
        if path == "screw.shaft_levels":
            text = restated(p, shaft=data.draw(st.integers(-3, 3).filter(bool)))
        else:
            off = data.draw(st.floats(2e-9, 1e3)) * data.draw(st.sampled_from([-1.0, 1.0]))
            text = restated(p, joint=off)
        with pytest.raises(ConfigError, match="^restated value must equal ") as exc:
            load(text)
        assert exc.value.field == path
        config, out = tmp_path / "design.yaml", tmp_path / "out.csv"
        config.write_text(text, encoding="utf-8")
        for argv in (["validate"], ["report"], ["profile", "--steps", "3", "--out", str(out)],
                     ["sweep", "--sweep-param", "wheel.hub_offset", "--sweep-range", "1:2:3",
                      "--objective", "min-peak-torque", "--out", str(out)]):
            assert run([*argv, "--config", str(config)]) == (2, "", f"error: {exc.value}\n")
        assert not out.exists()


# Every config field as "section.key", read from the named tuples themselves,
# and every key a config may hold: the fields and the restated values.
CONFIG_PATHS = [f"{section}.{name}"
                for section in params.DesignParams._fields
                for name in getattr(reference_design(), section)._fields]
CONFIG_KEYS = CONFIG_PATHS + sorted(RESTATED)


def one_bad_field_designs():
    """One design per config field set to -1, plus a non-physical screw:
    between them they trip every check ``validate`` makes."""
    reference = reference_design()
    for section in reference._fields:
        spec = getattr(reference, section)
        for name in spec._fields:
            bad = -1 if isinstance(getattr(spec, name), int) else -1.0
            yield reference._replace(**{section: spec._replace(**{name: bad})})
    yield reference._replace(drive=DriveSpec(
                             screw_lead=10.0, screw_friction=0.5, screw_mean_diameter=1.0))


class TestOneVocabulary:
    """A ``Violation`` names its field by the path that ``set_field`` and
    ``sweep --sweep-param`` take, which is also the config key."""

    def test_every_violation_field_is_settable_by_its_name(self):
        rng = random.Random(6)
        designs = [*one_bad_field_designs(), *(random_params(rng) for _ in range(1000))]
        named = set()
        for p in designs:
            for v in validate(p).violations:
                named.add(v.field)
                current = operator.attrgetter(v.field)(p)
                assert set_field(p, v.field, current) == p
        config_keys = {f"{s}.{name}"
                       for s in params.DesignParams._fields
                       if s != "reported"
                       for name in getattr(reference_design(), s)._fields}
        assert named == config_keys

    @pytest.mark.parametrize("path", CONFIG_KEYS)
    def test_string_value_is_named(self, reference, path):
        section, key = path.split(".")
        doc = yaml.safe_load(serialize(reference))
        doc[section][key] = "wide"
        text = yaml.safe_dump(doc)
        with pytest.raises(ConfigError, match="^config line is outside the plain grammar ") as exc:
            load(text)
        assert exc.value.field == path
        line = text.split("\n").index(f"  {key}: wide") + 1
        assert str(exc.value).endswith(f" (field: {path}) (line: {line})")

    @pytest.mark.parametrize("path", CONFIG_KEYS)
    def test_unknown_key_of_its_section_is_named(self, reference, path):
        section = path.split(".")[0]
        doc = yaml.safe_load(serialize(reference))
        doc[section]["bogus"] = 1.0
        with pytest.raises(ConfigError) as exc:
            load(yaml.safe_dump(doc))
        assert str(exc.value) == f"unknown key (field: {section}.bogus)"
        with pytest.raises(ConfigError) as exc:
            set_field(reference, f"{section}.bogus", 1.0)
        assert str(exc.value) == f"unresolvable parameter path (field: {section}.bogus)"
        with pytest.raises(ConfigError) as exc:
            set_field(reference, section, 1.0)
        assert str(exc.value) == f"parameter path is not a numeric field (field: {section})"

    @pytest.mark.parametrize("path", CONFIG_KEYS)
    def test_setting_the_current_value_gives_an_equal_design(self, reference, path):
        # In a config, and a field also through ``set_field``.
        section, key = path.split(".")
        current = RESTATED.get(path, operator.attrgetter(path))(reference)
        doc = yaml.safe_load(serialize(reference))
        doc[section][key] = current
        assert load(yaml.safe_dump(doc)) == reference
        if path not in RESTATED:
            assert set_field(reference, path, current) == reference


class TestRoundTrip:
    def test_reference_round_trips(self, reference):
        assert load(serialize(reference)) == reference

    def test_minimal_round_trips(self):
        p = load(MINIMAL_CONFIG)
        assert load(serialize(p)) == p

    def test_random_designs_round_trip(self):
        rng = random.Random(20260810)
        for _ in range(50):
            p = random_valid_params(rng)
            assert load(serialize(p)) == p

    @given(st.floats(min_value=0.001, max_value=1e6),
           st.floats(min_value=0.001, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_serialization_preserves_exact_floats(self, a, b):
        p = reference_design()
        p = p._replace(
            wheel=p.wheel._replace(rod_half_length=a, hub_offset=b),
        )
        again = load(serialize(p))
        assert again.wheel.rod_half_length == a
        assert again.wheel.hub_offset == b


MALFORMED_YAML = {
    "unclosed flow sequence": "screw:\n  n_levels: [4, 5\n",
    "nested plain mapping": "a: b: c\n",
    "tab indent": "screw:\n\tn_levels: 4\n",
}
# PyYAML's loaders, the oracles of the plain reader: the pure-Python one,
# and libyaml's when PyYAML has it.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def parse_config(text):
    """The document YAML reads of ``text``, as ``yaml.safe_load`` reads it,
    with libyaml's parser when PyYAML has it."""
    return yaml.load(text, Loader=LOADERS[-1])


def assert_refused_at(text, exc, what="config"):
    """``exc``, raised by the plain reader on ``text``, names the first line
    that the reader refuses: it takes the lines before it, not that one."""
    assert exc.line is not None, exc
    lines = text.split("\n")
    params._plain_doc("\n".join(lines[:exc.line - 1]), what)
    with pytest.raises(ConfigError) as again:
        params._plain_doc("\n".join(lines[:exc.line]), what)
    assert again.value.line == exc.line


def plain_outcome(text, what="config"):
    """``repr`` of the plain reader's document of ``text``, or the line at
    which it refused the text, checked to be the first it refuses."""
    try:
        return repr(params._plain_doc(text, what))
    except ConfigError as exc:
        assert_refused_at(text, exc, what)
        return exc.line


class TestYamlLoader:
    """The plain reader reads the shipped files and serialized designs as
    each of PyYAML's loaders reads them, and refuses malformed YAML at a
    line."""

    @staticmethod
    def assert_same(text, what="config"):
        assert [plain_outcome(text, what)] * len(LOADERS) \
            == [repr(yaml.load(text, Loader=loader)) for loader in LOADERS]

    def test_reference_config(self):
        self.assert_same((CONFIGS / "reference.yaml").read_text(encoding="utf-8"))

    def test_minimal_config(self):
        self.assert_same(MINIMAL_CONFIG)

    def test_force_table_file(self):
        text = (CONFIGS / "force_table.yaml").read_text(encoding="utf-8")
        self.assert_same(text, "force table")
        assert load_force_table(text) == SiliconeForceTable(tuple(
            (float(x), float(f)) for x, f in yaml.safe_load(text)["force_table"]))

    def test_random_designs(self):
        rng = random.Random(20261018)
        for _ in range(200):
            self.assert_same(serialize(random_valid_params(rng)))

    @pytest.mark.parametrize("case", sorted(MALFORMED_YAML))
    def test_malformed_config_same_line(self, case):
        # One grammar: a config and a force table are refused at the same
        # line, and no later than the line where PyYAML finds the error.
        text = MALFORMED_YAML[case]
        with pytest.raises(ConfigError) as config:
            load(text)
        with pytest.raises(ConfigError) as table:
            load_force_table(text)
        assert config.value.line == table.value.line == plain_outcome(text)
        for loader in LOADERS:
            with pytest.raises(yaml.YAMLError) as exc:
                yaml.load(text, Loader=loader)
            assert config.value.line <= exc.value.problem_mark.line + 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_YAML))
    def test_malformed_force_table(self, case):
        with pytest.raises(ConfigError) as exc:
            load_force_table(MALFORMED_YAML[case])
        assert str(exc.value).startswith("force table line is outside the plain grammar")
        assert exc.value.line == plain_outcome(MALFORMED_YAML[case], "force table")


# Plain scalars of every implicit type PyYAML resolves, including values its
# constructors refuse (month 13, ``0b_``).
IMPLICIT_SCALARS = (
    "~", "null", "yes", "Off", "true", "0", "-12", "017", "0x1F", "0b101", "1_000",
    "190:20:30", "0b_", "1.5", "-0.0", "1.0e+3", "6.8523015e+5", "1.0e-400", ".inf",
    "-.Inf", ".NaN", "1_000.5", "190:20:30.15", "1.", "2001-12-14",
    "2001-12-14 21:59:43.10 -5", "2001-13-14", "abc", "'1.5'", '"yes"', "=", "<<",
)
TAGS = ("!!str", "!!float", "!!int", "!!bool", "!!null", "!!binary", "!!timestamp",
        "!!map", "!!seq", "!!set", "!!omap", "!!pairs", "!foo", "!!bogus")


class YamlText:
    """Random YAML text, drawn part by part: a block mapping of flow nodes
    with anchors, aliases (some to an enclosing node, a few undefined), merge
    and value keys, duplicate and unhashable keys, and explicit and unknown
    tags."""

    def __init__(self, draw):
        self.draw = draw
        self.anchors = []

    def one_in(self, n: int) -> bool:
        return self.draw(st.integers(0, n - 1)) == 0

    def props(self) -> str:
        out = self.draw(st.sampled_from(TAGS)) + " " if self.one_in(8) else ""
        if self.one_in(2):
            self.anchors.append(f"a{len(self.anchors)}")
            out += f"&{self.anchors[-1]} "
        return out

    def alias(self) -> str:
        # A space after it keeps a following ':' out of its name.
        if self.one_in(50) or not self.anchors:
            return "*undefined "
        return f"*{self.draw(st.sampled_from(self.anchors))} "

    def key(self, depth: int) -> str:
        kind = self.draw(st.sampled_from("sssssssssssm=ca"))
        if kind == "m":
            return "<<"
        if kind == "=":
            return "="
        if kind == "c":
            return self.collection(depth + 1)  # unhashable
        if kind == "a" and self.anchors:
            return self.alias()
        return self.draw(st.sampled_from(("k", "k2", "1", "1.5", "~", "yes")))

    def pair(self, key: str, depth: int) -> str:
        if key == "<<" and not self.one_in(8):
            value = self.alias() if self.anchors and self.one_in(2) else self.collection(
                depth + 1, "{")
        else:
            value = self.node(depth + 1)
        return f"{key}: {value}"

    def collection(self, depth: int, kind: str | None = None) -> str:
        props = self.props()
        kind = kind or self.draw(st.sampled_from("[{"))
        items = [self.node(depth + 1) if kind == "[" else self.pair(self.key(depth), depth)
                 for _ in range(self.draw(st.integers(0, 3)))]
        return props + kind + ", ".join(items) + ("]" if kind == "[" else "}")

    def node(self, depth: int = 0) -> str:
        kind = self.draw(st.sampled_from("aasssscc" if depth < 3 else "aass"))
        if kind == "a" and self.anchors:
            return self.alias()
        if kind == "c":
            return self.collection(depth)
        return self.props() + self.draw(st.sampled_from(IMPLICIT_SCALARS))

    def document(self) -> str:
        lines = []
        for _ in range(self.draw(st.integers(1, 5))):
            key = self.key(0)
            line = self.pair(key, 0)
            lines.append(f"? {key}\n: {line[len(key) + 2:]}"
                         if key.startswith(("[", "{", "!", "&")) else line)
        return "\n".join(lines) + "\n"


# Ten lists of ten, each of aliases to the one before: expanded, the last
# would hold 10**11 strings.
ALIAS_BOMB = "\n".join(
    ["a0: &a0 [" + ", ".join(["x"] * 10) + "]"]
    + [f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 11)])


class TestParseYaml:
    """YAML beyond the plain grammar, with PyYAML's loaders as the oracle:
    the plain reader refuses such a text at its first line outside the
    grammar, and a text it takes is read as ``yaml.load`` reads it."""

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_as_yaml_load(self, loader, data):
        text = YamlText(data.draw).document()
        cut = data.draw(st.one_of(st.none(), st.integers(0, len(text))))
        text = text if cut is None else text[:cut]
        assert_same_as_yaml(text, loader)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", [
        "&a [*a]\n",
        "&a {x: *a, y: [*a]}\n",
        "a: &x {k: 1}\nb: &y {<<: *x, j: 2}\nc: {<<: [*y, *x], =: 3}\n",
        "&a {<<: *a}\n",
        "a: !!set {? x, ? y}\nb: !!omap [{k: &m [*m]}]\nc: *m\n",
        "&a {x: !!omap [{k: *a}]}\n",
        "a: {[1]: 2}\nb: !!bogus x\n",
        "a: !!set {? [1]}\nb: !!bogus x\n",
        "a: !!map x\nb: {{k: 1}: 2}\n",
        "k: 1\nk: 2\n1: a\n1.0: b\n",
        "",
        "--- 1\n--- 2\n",
        "k: 2020-13-45\n",
        "k: [1, {j: !!bool maybe}]\n",
        "a: !!set\n  ? x\n  ? !!timestamp x\n",
        "a: 1\nb: !!omap\n  - k: 1\n  - j: !!int ''\n",
        "a: &x {k: 0b_}\nb: *x\n",
    ])
    def test_cases(self, loader, text):
        # Each text but the empty one is refused at its first line.
        assert assert_same_as_yaml(text, loader) == (1 if text else "None")

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_nesting_past_the_limit_is_refused_at_its_line(self, loader):
        # A config nests 2 levels and a force table 3; a document that YAML
        # reads 11 deep is refused at the line that nests past them.
        def depth(node):
            if not isinstance(node, (dict, list)):
                return 0
            return 1 + max(map(depth, node.values() if isinstance(node, dict) else node))

        nested = "[{k: " * 4 + "[1]" + "}]" * 4
        text = f"force_table:\n  - [1.0, 2.0]\n  - {nested}\n"
        assert depth(yaml.load(text, Loader=loader)) == 11
        for what, fn in (("config", load), ("force table", load_force_table)):
            with pytest.raises(ConfigError) as caught:
                fn(text)
            assert str(caught.value) == f"{what} line is outside the plain grammar (line: 3)"

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_alias_bomb_is_not_expanded(self, loader):
        # PyYAML shares the aliased lists; the plain reader refuses the
        # first anchor, before any alias.
        doc = yaml.load(ALIAS_BOMB, Loader=loader)
        assert all(item is doc["a9"] for item in doc["a10"])
        with pytest.raises(ConfigError) as caught:
            load(ALIAS_BOMB)
        assert str(caught.value) == "config line is outside the plain grammar (line: 1)"


# Values YAML reads as no plain number or not at all: an exponent without
# a sign, hex, octal, a leading dot, an underscore, infinity, a '#' with no
# space before it, an int past ``int``'s digit limit, sexagesimal, a
# timestamp, a bool, a null, a flow sequence, a quoted string, two words,
# an anchor and an alias.
NEAR_MISS_VALUES = ("1e3", "1.5e3", "0x1F", "017", "08", "00", ".5", "-.5", "1_000", ".inf",
                    "-.inf", ".nan", "4#c", "9" * 5000, "190:20:30", "2001-12-14", "yes", "~",
                    "", "[4]", "'4'", "4 5", "&a 4", "*a")
# Keys YAML reads as a bool, a null, an int or a merge key, and unknown keys.
NEAR_MISS_KEYS = ("on", "off", "yes", "no", "true", "false", "null", "Yes", "1", "<<", "bogus",
                  "N_levels")
COMMENTS = ("", " ", "  # c", " #c")
# The ways a drawn text may leave the plain grammar or the design schema:
# in its sections, keys and values, and in its layout.
CONTENT_FLAWS = ("value", "key", "restated key", "repeated key", "header", "header comment",
                 "missing section", "repeated section", "missing key", "empty section")
LAYOUT_FLAWS = ("key before header", "indent", "indent one", "continuation", "tab",
                "break in a comment", "crlf", "prefix", "suffix")
# Characters YAML reads as a line break, besides '\n'.
BREAKS = ("\r", "\x85", "\u2028", "\u2029")


# Number texts of the plain grammar: ints for a count, else ints and
# floats, some as ``serialize`` writes them and some with the six decimals
# of the benchmark's configs.
_SIGNS, _DIGITS = st.sampled_from(("", "-", "+")), st.integers(0, 10 ** 30).map(str)
PLAIN_COUNTS = st.builds(operator.add, _SIGNS, _DIGITS)
PLAIN_NUMBERS = st.one_of(
    PLAIN_COUNTS,
    st.builds("{}{}{}.{}{}".format, _SIGNS, st.sampled_from(("", "0", "00")), _DIGITS,
              st.sampled_from(("", "0", "05")) | _DIGITS,
              st.sampled_from(("", "e+5", "E-3", "e+07", "e-400", "E+400"))),
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda x: yaml.safe_dump(x).split("\n")[0]),
    st.floats(-1e6, 1e6).map("{:.6f}".format))


# Near-miss values, some drawn: a leading zero, an exponent without a sign.
NEAR_MISS_NUMBERS = st.one_of(st.sampled_from(NEAR_MISS_VALUES),
                              st.builds("{}0{}".format, _SIGNS, _DIGITS),
                              st.builds("{}.{}e{}".format, _DIGITS, _DIGITS, _DIGITS))


@st.composite
def config_texts(draw):
    """Config text from the plain grammar: every section and key in a drawn
    order, each value a drawn plain number, with up to three content flaws
    and one layout flaw."""
    def pick(items):
        return items[draw(st.integers(0, len(items) - 1))]

    sections = []
    for name, (_, schema) in params._SECTIONS.items():
        keys = []
        for key in draw(st.permutations(list(schema))):
            number = PLAIN_COUNTS if schema[key].is_count else PLAIN_NUMBERS
            keys.append([key, draw(number), pick(COMMENTS)])
        sections.append([name, pick(COMMENTS), keys])
    flaws = draw(st.lists(st.sampled_from(CONTENT_FLAWS), max_size=3)) \
        + draw(st.lists(st.sampled_from(LAYOUT_FLAWS), max_size=1))
    for flaw in flaws:
        section = pick(sections)
        name, _, keys = section
        if flaw == "value" and keys:
            pick(keys)[1] = draw(NEAR_MISS_NUMBERS)
        elif flaw == "key":
            keys.insert(draw(st.integers(0, len(keys))), [pick(NEAR_MISS_KEYS), "4", ""])
        elif flaw == "restated key":  # in its own section or another
            keys.append([pick(("shaft_levels", "joint_height")),
                         pick(("3", "10.0", "4", "10.5")), ""])
        elif flaw == "repeated key" and keys:
            keys.append(list(pick(keys)))
        elif flaw == "header":
            section[0] = pick(NEAR_MISS_KEYS + tuple(params._SECTIONS))
        elif flaw == "header comment":
            section[1] = "#c"
        elif flaw == "missing section":
            sections.remove(section)
        elif flaw == "repeated section":
            sections.append([name, "", [list(key) for key in keys]])
        elif flaw == "missing key" and keys:
            keys.remove(pick(keys))
        elif flaw == "empty section":
            keys.clear()
        if not sections:
            break
    lines = []
    for name, comment, keys in sections:
        lines.append(f"{name}:{comment}")
        lines += [f"  {key}: {value}{comment}" for key, value, comment in keys]
    for _ in range(draw(st.integers(0, 2))):  # blank and comment lines
        lines.insert(draw(st.integers(0, len(lines))), pick(("", "# note", "   # note", "   ")))
    if "key before header" in flaws:
        lines.insert(0, "  n_levels: 4")
    if "indent" in flaws:  # every key line
        lines = ["  " + line if line.startswith("  ") else line for line in lines]
    for flaw, fix in (("indent one", lambda line: "  " + line),
                      ("tab", lambda line: line.replace(" ", "\t", 1)),
                      ("break in a comment",
                       lambda line: f"{line} # c{pick(BREAKS)}  n_levels: 5")):
        if flaw in flaws and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = fix(lines[i])
    if "continuation" in flaws:
        lines.insert(draw(st.integers(0, len(lines))), pick(("    5", "   more", "  - 4")))
    text = ("\r\n" if "crlf" in flaws else "\n").join(lines) + pick(("", "\n"))
    if "prefix" in flaws:
        text = pick(("\ufeff", "---\n", "%YAML 1.1\n---\n")) + text
    if "suffix" in flaws:
        text += pick(("\n...\n", "\n---\n", "\nscrew: &s\n  n_levels: *s\n"))
    return text


def config_outcome(fn, text):
    """``repr(fn(text))``, or the message, field and line of the
    ``ConfigError`` it raised."""
    try:
        return repr(fn(text))
    except ConfigError as exc:
        return str(exc), exc.field, exc.line


def yaml_only_load(text):
    """``load`` with the document YAML reads in place of the plain reader's."""
    with mock.patch.object(params, "_plain_doc", lambda text, what: parse_config(text)):
        return load(text)


# Near-misses of the plain grammar that it still takes: YAML reads them as
# it does, and ``load`` refuses them as it refuses YAML's document.
TAKEN_NEAR_MISSES = ("key bogus", "section bogus", "only a comment")


def near_misses():
    """A plain config with one near-miss of the plain grammar in it, and the
    line the reader refuses: the first that differs from the plain config,
    or None for a near-miss it takes."""
    plain = serialize(reference_design())
    cases = {f"value {v[:8]}": plain.replace("n_levels: 4", f"n_levels: {v}")
             for v in NEAR_MISS_VALUES}
    cases |= {f"key {k}": plain.replace("\n  n_levels:", f"\n  {k}: 4\n  n_levels:")
              for k in NEAR_MISS_KEYS}
    cases |= {f"section {k}": plain.replace("\nscrew:", f"\n{k}:") for k in NEAR_MISS_KEYS}
    cases |= {
        "repeated key": plain.replace("\n  n_levels: 4", "\n  n_levels: 4\n  n_levels: 4"),
        "repeated section": plain + "screw:\n  n_levels: 4\n",
        "key before header": "  n_levels: 4\n" + plain,
        "four-space indent": plain.replace("\n  ", "\n    "),
        "continuation": plain.replace("n_levels: 4", "n_levels: 4\n    5"),
        "crlf": plain.replace("\n", "\r\n"),
        "tab": plain.replace("n_levels: 4", "n_levels:\t4"),
        "bom": "\ufeff" + plain,
        "document start": "---\n" + plain,
        "anchor": plain.replace("n_levels: 4", "n_levels: &a 4\n  thread_width: *a"),
        "not ascii": plain.replace("n_levels: 4", "n_levels: 4  # 5 \u00b5m"),
        "only a comment": "# only a comment\n",
    }
    cases |= {f"break {ord(c):#x} in a comment":
              plain.replace("n_levels: 4", f"n_levels: 4 # c{c}  n_levels: 5") for c in BREAKS}
    out = []
    for name, text in cases.items():
        line = None if name in TAKEN_NEAR_MISSES else next(
            n for n, (a, b) in enumerate(zip(text.split("\n"), plain.split("\n")), 1) if a != b)
        out.append(pytest.param(text, line, id=name))
    return out


def line_edges():
    """(text, whether the reader takes it) at the edges of the line scan."""
    plain = serialize(reference_design())
    cases = {
        "no final newline": (plain.rstrip("\n"), True),
        "two final newlines": (plain + "\n", True),
        "empty": ("", True),
        "one newline": ("\n", True),
        "spaces line": (plain.replace("\nlayout:", "\n   \nlayout:"), True),
        "header trailing spaces": (plain.replace("layout:\n", "layout:   \n"), True),
    }
    for c in ("\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"):
        cases[f"{ord(c):#x} line"] = (plain.replace("\nlayout:", f"\n{c}\nlayout:"), False)
        cases[f"{ord(c):#x} joining lines"] = (plain.replace("\nlayout:", f"{c}layout:"), False)
    return [pytest.param(text, is_plain, id=name) for name, (text, is_plain) in cases.items()]


def assert_same_as_yaml(text, loader=LOADERS[-1]):
    """The plain reader refuses ``text`` at the first line it does not take,
    or gives the document ``yaml.load`` gives under ``loader``, and then
    ``load`` gives what it gives on YAML's document: the same design, or the
    same error. The plain reader's outcome."""
    outcome = plain_outcome(text)
    if type(outcome) is str:
        assert outcome == repr(yaml.load(text, Loader=loader)), text
        assert config_outcome(load, text) == config_outcome(yaml_only_load, text)
    return outcome


# Force-table rows: strictly increasing length changes and nonincreasing
# forces, some written as ints, most as ``serialize`` or the benchmark
# writes floats; and, drawn into some, one row out of order.
def number_text(draw, value: float) -> str:
    form = draw(st.sampled_from(("yaml", "yaml", "fixed", "int")))
    if form == "int" and value.is_integer():
        return str(int(value))
    return f"{value:.6f}" if form == "fixed" else yaml.safe_dump(value).split("\n")[0]


@st.composite
def force_table_texts(draw):
    """Force-table text in the plain grammar, bare or under ``force_table``,
    with blank and comment lines, and at most one flaw of its layout."""
    n = draw(st.integers(1, 8))
    xs = sorted(draw(st.sets(st.floats(0, 100), min_size=n, max_size=n)))
    forces = sorted(draw(st.lists(st.floats(-1, 10), min_size=n, max_size=n)), reverse=True)
    if n > 1 and draw(st.integers(0, 9)) == 0:
        xs.reverse()
    keyed = draw(st.booleans())
    indent = "  " if keyed else ""
    lines = ["force_table:" + draw(st.sampled_from(("", "  # c")))] if keyed else []
    lines += [f"{indent}- [{number_text(draw, x)}, {number_text(draw, f)}]"
              + draw(st.sampled_from(COMMENTS)) for x, f in zip(xs, forces)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# note"))))
    flaw = draw(st.sampled_from((None,) * 8 + ("indent", "dedent", "key", "flow", "repeat",
                                               "tab", "crlf")))
    i = draw(st.integers(0, len(lines) - 1))
    if flaw == "indent":
        lines[i] = " " + lines[i]
    elif flaw == "dedent":  # a bare row under the header
        lines[i] = lines[i].lstrip()
    elif flaw == "key":  # a key line in place of a row
        lines[i] = "  n_levels: 4"
    elif flaw == "flow":
        lines[i] = lines[i].replace(", ", ",")
    elif flaw == "repeat" and keyed:
        lines.append(lines[0])
    elif flaw == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
    return ("\r\n" if flaw == "crlf" else "\n").join(lines) + draw(st.sampled_from(("", "\n")))


def yaml_force_table(text):
    """The table ``load_force_table`` built from YAML's document of ``text``."""
    doc = parse_config(text)
    if isinstance(doc, dict):
        doc = doc["force_table"] if doc.keys() == {"force_table"} else None
    return SiliconeForceTable(tuple((float(x), float(f)) for x, f in doc or ()))


class TestPlainReader:
    """The plain reader reads configs and force tables without PyYAML. It
    refuses a text at the first line it does not take; every document it
    gives is the one YAML gives, and ``load`` gives what it gives on YAML's
    document: the same design, or the same error."""

    @given(config_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_as_yaml(self, text):
        assert_same_as_yaml(text)

    @given(force_table_texts())
    @settings(max_examples=400, deadline=None)
    def test_force_tables_same_as_yaml(self, text):
        outcome = plain_outcome(text, "force table")
        if type(outcome) is int:
            return
        assert outcome == repr(parse_config(text))
        try:
            expected = repr(yaml_force_table(text))
        except (ValueError, OverflowError):
            expected = None
        try:
            assert repr(load_force_table(text)) == expected
        except ConfigError as exc:
            assert expected is None and exc.line is None, exc

    @given(st.integers(0, 2 ** 64), st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_near_miss_in_a_serialized_design(self, seed, data):
        # One key or value of a plain config, drawn from the near-misses.
        lines = serialize(random_params(random.Random(seed))).split("\n")
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line[:1] == " "]))
        key, value = lines[i].split(": ")
        if data.draw(st.booleans()):
            value = data.draw(NEAR_MISS_NUMBERS)
        else:
            key = "  " + data.draw(st.sampled_from(NEAR_MISS_KEYS))
        lines[i] = f"{key}: {value}"
        outcome = assert_same_as_yaml("\n".join(lines))
        assert outcome == i + 1 or type(outcome) is str

    @pytest.mark.parametrize("text,line", near_misses())
    def test_near_misses_go_to_yaml(self, text, line):
        outcome = assert_same_as_yaml(text)
        assert outcome == line if line else type(outcome) is str

    @pytest.mark.parametrize("text,plain", line_edges())
    def test_line_edges(self, text, plain):
        # The scan reads the text as lines split at '\n' alone, each matched
        # whole: a line that any other break splits, or that holds one, is
        # refused.
        assert (type(assert_same_as_yaml(text)) is str) == plain

    @given(st.integers(0, 2 ** 64), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_serialized_designs_are_plain(self, seed, valid):
        # A design ``serialize`` writes is always taken.
        p = (random_valid_params if valid else random_params)(random.Random(seed))
        text = serialize(p)
        assert plain_outcome(text) == config_outcome(parse_config, text)
        assert load(text) == p

    @pytest.mark.parametrize("text", [(CONFIGS / "reference.yaml").read_text(encoding="utf-8"),
                                      MINIMAL_CONFIG, MINIMAL_CONFIG + "reported:\n"],
                             ids=["reference", "minimal", "empty section"])
    def test_configs_are_plain(self, text):
        # YAML reads a header with no keys as None, a missing section.
        assert plain_outcome(text) == config_outcome(parse_config, text)


DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])
# Numbers in each form PyYAML writes: a bare exponent, which gets ".0" (the
# least subnormal among them), a dotted exponent, a negative zero, a short
# repr and an int in a float field; then the floats ``load`` refuses.
EDGE_VALUES = (1e300, 5e-324, -0.0, 1e16, 0.1, 60, -1e-7, 1.5e16)
NON_FINITE = (math.inf, -math.inf, math.nan)
FLOAT_FIELDS = [f for _, schema in params._SECTIONS.values() for f in schema.values()
                if not f.is_count]


def with_value(p, f, value):
    """``p`` with field ``f`` holding ``value`` as given, unconverted."""
    return p._replace(**{f.section: getattr(p, f.section)._replace(**{f.name: value})})


def yaml_dump(p, dumper):
    """The text ``yaml.dump`` writes of the document of ``p``, sorted, block style."""
    doc = {}
    for name, (_, schema) in params._SECTIONS.items():
        values = {key: value for key in schema
                  if (value := getattr(getattr(p, name), key)) is not None}
        if values:
            doc[name] = values
    return yaml.dump(doc, Dumper=dumper, sort_keys=True, default_flow_style=False)


class TestYamlDumper:
    """``serialize`` writes without PyYAML what PyYAML's ``SafeDumper``, and
    libyaml's ``CSafeDumper`` when it is there, writes of the same document,
    byte for byte. The text of a finite design is a plain config that reads
    back to the design."""

    def assert_same(self, p):
        text = serialize(p)
        for dumper in DUMPERS:
            assert text.encode("utf-8") == yaml_dump(p, dumper).encode("utf-8"), dumper
        values = [getattr(getattr(p, f.section), f.name) for f in FLOAT_FIELDS]
        if all(v is None or math.isfinite(v) for v in values):
            assert plain_outcome(text) == repr(parse_config(text)), text
            assert load(text) == p

    def test_reference_config(self):
        self.assert_same(load((CONFIGS / "reference.yaml").read_text(encoding="utf-8")))

    def test_random_designs(self):
        rng = random.Random(20261019)
        for _ in range(200):
            self.assert_same(random_params(rng))

    @given(st.integers(0, 2 ** 64), st.sampled_from(FLOAT_FIELDS),
           st.one_of(st.floats(), st.integers(-2 ** 53, 2 ** 53), st.sampled_from(EDGE_VALUES)))
    @settings(max_examples=300, deadline=None)
    def test_any_value_in_a_valid_design(self, seed, f, value):
        self.assert_same(with_value(random_valid_params(random.Random(seed)), f, value))

    @pytest.mark.parametrize("value", EDGE_VALUES + NON_FINITE, ids=repr)
    @pytest.mark.parametrize("path", ["wheel.hub_offset", "screw.screw_level_length",
                                      "reported.wheel_diameter"])
    def test_edge_values(self, reference, path, value):
        self.assert_same(with_value(reference, params._field_path(path), value))

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_non_finite_values_are_refused(self, reference, value):
        # YAML's names of the non-finite floats are outside the plain grammar.
        text = serialize(with_value(reference, params._field_path("wheel.hub_offset"), value))
        line = text.split("\n").index(f"  hub_offset: {params._number(value)}") + 1
        with pytest.raises(ConfigError) as exc:
            load(text)
        assert str(exc.value) == ("config line is outside the plain grammar "
                                  f"(field: wheel.hub_offset) (line: {line})")

    def test_a_design_without_values(self):
        # No valid design is empty, but its text is still YAML's.
        empty = params.DesignParams(*(cls(*[None] * len(cls._fields))
                                      for cls, _ in params._SECTIONS.values()))
        assert [serialize(empty)] * len(DUMPERS) == [yaml_dump(empty, d) for d in DUMPERS]
        assert serialize(empty) == "{}\n"

    def test_no_dumper_is_exported(self):
        assert not hasattr(params, "YAML_DUMPER")
