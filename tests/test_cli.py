import contextlib
import csv
import hashlib
import io
import math
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from morphwheel import (
    ConfigError,
    InvalidDesignError,
    cli,
    load,
    params,
    quasistatics,
    report,
    serialize,
    wheelgeom,
)
from morphwheel.cli import main
from morphwheel.params import _MAX_STEPS, _SECTIONS, reference_design, residual_length
from morphwheel.report import Objective, SweepSpec, consistency_warnings, design_card
from morphwheel.telescopic import shaft_levels

import oracles
from conftest import ENTRIES, child_env, random_params, random_valid_params
from oracles import keyframes_json, set_field

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = str(ROOT / "configs" / "reference.yaml")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "design.yaml"
    path.write_text(serialize(reference_design()), encoding="utf-8")
    return str(path)


def non_physical_screw_file(tmp_path):
    # pi * 1 mm is below 0.5 * 10 mm: the screw cannot be driven.
    text = serialize(reference_design()).replace(
        "screw_mean_diameter: 8.0", "screw_mean_diameter: 1.0").replace(
        "screw_lead: 2.0", "screw_lead: 10.0").replace(
        "screw_friction: 0.2", "screw_friction: 0.5")
    path = tmp_path / "screw.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


def non_utf8_file(tmp_path):
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"\xff\xfe")
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConsistencyWarnings:
    def test_reference_flags_the_known_discrepancies(self, reference):
        codes = {w.code for w in consistency_warnings(reference)}
        assert "reduced_length_mismatch" in codes
        assert "chassis_diameter_mismatch" in codes
        assert "reported_length_identity" in codes
        assert "rod_half_expansion_mismatch" in codes
        # elongated and wheel diameter close exactly, so no warning for them
        assert "elongated_length_mismatch" not in codes
        assert "wheel_diameter_mismatch" not in codes

    def test_silent_without_reported_values(self, reference):
        # Only the cross-model stroke check, which reads no reported value,
        # is left.
        import morphwheel.params as params
        bare = reference._replace(reported=params.ReportedTargets())
        assert [w.code for w in consistency_warnings(bare)] \
            == ["wheel_stroke_exceeds_telescopic_stroke"]

    def test_reference_wheel_stroke_ends_below_the_reduced_length(self, reference):
        # 340 - 2 * (140 - 0) = 60 mm, against the 220 mm the stack collapses to.
        (stroke,) = [w for w in consistency_warnings(reference)
                     if w.code == "wheel_stroke_exceeds_telescopic_stroke"]
        assert (stroke.computed, stroke.reported) == (60.0, 220.0)
        assert stroke.computed == wheelgeom.transform_columns(reference, 2)[0][-1]
        assert " = " not in stroke.detail  # the card parser reads ``key = value`` lines

    def test_no_stroke_warning_when_the_wheel_stroke_fits(self, reference):
        # 340 - 2 * (50 - 0) = 240 mm is above the 220 mm reduced length.
        p = set_field(reference, "wheel.rod_half_length", 50.0)
        codes = [w.code for w in consistency_warnings(p)]
        assert "wheel_stroke_exceeds_telescopic_stroke" not in codes
        assert "reduced_length_mismatch" in codes


class TestDesignCard:
    def test_reference_card_targets(self, reference):
        card = design_card(reference)
        out = card.outputs
        assert out["elongated_length_mm"] == 340.0
        assert out["wheel_diameter_mm"] == pytest.approx(400.0)
        assert out["target_elongated_ok"] is True
        assert out["target_wheel_diameter_ok"] is True
        assert out["target_reduced_ok"] is False
        assert out["reduction_ok"] is False
        assert out["motor_check_ok"] is True
        assert out["curved_rod_levels"] == 2

    def test_loose_target_ratio_passes(self, reference):
        card = design_card(reference, target_ratio=0.9)
        assert card.outputs["reduction_ok"] is True

    def test_rod_pair_that_cannot_fold_is_refused(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(min_half_separation=150.0))
        with pytest.raises(InvalidDesignError, match="wheel.min_half_separation"):
            design_card(p)

    def test_card_is_deterministic(self, reference):
        a, b = design_card(reference), design_card(reference)
        assert a.digest == b.digest
        assert a.outputs == b.outputs
        assert a.warnings == b.warnings


class TestConfigDigest:
    @given(st.text())
    @example("")
    @example("é ∑ 😀\n")
    @example("a\r\nb\n")
    @settings(max_examples=200, deadline=None)
    def test_is_the_sha256_of_the_utf8_text(self, text):
        assert report.config_digest(text) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()

    def test_crlf_copy_prints_the_lf_digest(self, tmp_path, capsys):
        # The CLI hashes the text decoded with universal newlines.
        lf = Path(REFERENCE_CONFIG).read_bytes()
        crlf = tmp_path / "crlf.yaml"
        crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
        digests = []
        for path in (REFERENCE_CONFIG, str(crlf)):
            assert main(["report", "--config", path]) == 0
            digests += [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("digest: ")]
        assert digests == ["digest: sha256:" + hashlib.sha256(lf).hexdigest()] * 2


class TestSetField:
    def test_replaces_nested_field(self, reference):
        p = set_field(reference, "wheel.hub_offset", 70.0)
        assert p.wheel.hub_offset == 70.0
        assert reference.wheel.hub_offset == 60.0  # original untouched

    def test_replaces_drive_field(self, reference):
        assert set_field(reference, "drive.screw_lead", 4.0).drive.screw_lead == 4.0

    def test_integer_fields_stay_integers(self, reference):
        p = set_field(reference, "screw.n_levels", 6.0)
        assert p.screw.n_levels == 6
        assert isinstance(p.screw.n_levels, int)

    @pytest.mark.parametrize("value", [2.5, 6.000001, float("inf"), float("nan")])
    def test_non_integral_count_rejected(self, reference, value):
        with pytest.raises(ConfigError, match="screw.n_levels"):
            set_field(reference, "screw.n_levels", value)

    def test_unresolvable_path_named(self, reference):
        with pytest.raises(ConfigError, match="wheel.bogus"):
            set_field(reference, "wheel.bogus", 1.0)

    def test_non_numeric_leaf_rejected(self, reference):
        with pytest.raises(ConfigError, match="numeric"):
            set_field(reference, "screw", 1.0)

    def test_derived_fields_follow(self, reference):
        # The shaft levels and the full joint height (two arms) are derived.
        assert shaft_levels(set_field(reference, "screw.n_levels", 6)) == 5
        p = set_field(reference, "layout.joint_arm_height", 7.0)
        assert residual_length(p) == residual_length(reference) + 4 * 2.0

    def test_a_derived_value_is_no_field(self, reference, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for path in ("screw.shaft_levels", "layout.joint_height"):
            with pytest.raises(ConfigError, match=f"^unresolvable parameter path .*{path}"):
                set_field(reference, path, 3)
            assert main(["sweep", "--config", str(ROOT / "configs" / "reference.yaml"),
                         "--sweep-param", path, "--sweep-range", "2:4:3",
                         "--objective", "min-peak-torque", "--out", str(out)]) == 2
            assert capsys.readouterr().err \
                == f"error: unresolvable parameter path (field: {path})\n"
            assert not out.exists()

    def test_unset_optional_fields(self, reference):
        import morphwheel.params as params
        p = reference._replace(
            wheel=reference.wheel._replace(min_half_separation=None),
            reported=params.ReportedTargets())
        assert set_field(p, "wheel.min_half_separation", 3).wheel.min_half_separation == 3.0
        assert set_field(p, "reported.wheel_diameter", 400).reported.wheel_diameter == 400.0


class TestSweepSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SweepSpec("a", 1.0, 2.0, 1, Objective.MIN_PEAK_TORQUE)
        with pytest.raises(ValueError):
            SweepSpec("a", 2.0, 2.0, 5, Objective.MIN_PEAK_TORQUE)

    def test_step_cap(self):
        SweepSpec("a", 1.0, 2.0, _MAX_STEPS, Objective.MIN_PEAK_TORQUE)
        with pytest.raises(ValueError, match=f"at most {_MAX_STEPS} grid points"):
            SweepSpec("a", 1.0, 2.0, _MAX_STEPS + 1, Objective.MIN_PEAK_TORQUE)

    def test_grid_endpoints(self):
        spec = SweepSpec("a", 20.0, 50.0, 4, Objective.MIN_REDUCED_LENGTH)
        grid = [spec.value(i) for i in range(spec.steps)]
        assert grid[0] == 20.0 and grid[-1] == 50.0 and len(grid) == 4


class TestNonPhysicalScrew:
    @pytest.mark.parametrize("verb,extra", [
        ("validate", []),
        ("report", []),
        ("profile", ["--out", "p.csv"]),
        ("sweep", ["--sweep-param", "wheel.hub_offset", "--sweep-range", "50:80:3",
                   "--objective", "max-wheel-radius", "--out", "s.csv"]),
    ])
    def test_every_verb_refuses_it(self, tmp_path, capsys, verb, extra):
        extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
        assert main([verb, "--config", non_physical_screw_file(tmp_path), *extra]) == 1
        captured = capsys.readouterr()
        assert "VIOLATION drive.screw_mean_diameter: pi * screw_mean_diameter > " \
            "screw_friction * screw_lead\n" in captured.out + captured.err
        assert "Traceback" not in captured.err
        assert not list(tmp_path.glob("*.csv"))


VERB_ARGS = {"profile": ["--steps", "5"],
             "sweep": ["--sweep-param", "wheel.hub_offset", "--sweep-range", "50:80:3",
                       "--objective", "max-wheel-radius"]}
# What a target path is before a run; a missing parent directory holds none.
TARGET_STATES = ("absent", "file", "directory")
OLD_BYTES = b"old\n"


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with its bytes, or None for a directory."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


class TestOutPath:
    @given(verb=st.sampled_from(sorted(VERB_ARGS)), missing_parent=st.booleans(),
           states=st.tuples(st.sampled_from(TARGET_STATES), st.sampled_from(TARGET_STATES)))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_targets_are_all_replaced_or_all_left(self, tmp_path, verb, missing_parent,
                                                  states):
        # A profile's targets are its CSV and then its keyframes; a sweep's is
        # its CSV, and it leaves a keyframes file of the same stem alone.
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            work = Path(work)
            paths = [work / "o.csv", work / "o_keyframes.json"]
            for path, state in zip(paths, states):
                if state == "file":
                    path.write_bytes(OLD_BYTES)
                elif state == "directory":
                    path.mkdir()
            out = work / "missing" / "o.csv" if missing_parent else paths[0]
            targets = paths if verb == "profile" else paths[:1]
            before = tree(work)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([verb, "--config", REFERENCE_CONFIG, *VERB_ARGS[verb],
                             "--out", str(out)])
            refused = missing_parent or "directory" in states[:len(targets)]
            assert code == (2 if refused else 0)
            after = tree(work)
            if refused:  # every target as it was, and no temporary file
                assert after == before
            else:
                assert after.keys() == before.keys() | {p.name for p in targets}
                for name, data in after.items():
                    if work / name in targets:
                        assert data not in (None, b"", OLD_BYTES)
                    else:
                        assert data == before[name]

    @pytest.mark.parametrize("verb,extra", [
        ("profile", []),
        ("sweep", ["--sweep-param", "wheel.hub_offset", "--sweep-range", "50:80:3",
                   "--objective", "max-wheel-radius"]),
    ], ids=["profile", "sweep"])
    @pytest.mark.parametrize("out", ["", ".", "/", "sub/", "sub/.", ".."])
    def test_a_path_without_a_file_name_is_a_usage_error(self, tmp_path, monkeypatch,
                                                         capsys, verb, extra, out):
        # Refused before the config is read: nothing is built or written.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", REFERENCE_CONFIG, *extra, "--out", out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] \
            == [f"morphwheel {verb}: error: argument --out: output path must end in a "
                "file name"]
        assert captured.err.startswith("usage: ")
        assert list(tmp_path.iterdir()) == []


class TestCmdValidate:
    def test_reference_config_is_valid_with_warnings(self, capsys):
        assert main(["validate", "--config", REFERENCE_CONFIG]) == 0
        out = capsys.readouterr().out
        assert "validation: OK" in out
        assert "reduced_length_mismatch" in out
        assert "chassis_diameter_mismatch" in out

    def test_missing_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("layout:\n  joint_arm_height: 5.0\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "screw" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        assert main(["validate", "--config", str(empty)]) == 2

    def test_unreadable_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", non_utf8_file(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, code", [
        ("./x.yaml", 0), ("x.yaml/", 0), ("x.yaml/.", 0), ("d//x.yaml", 0), ("", 2),
        ("d/", 2), ("./nope.yaml", 2), ("latin.yaml", 2)])
    def test_config_path_reads_as_pathlib_reads_it(self, tmp_path, monkeypatch, capsys,
                                                   config, code):
        # The text that ``Path(config).read_text`` gives, or its error.
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        for path in ("x.yaml", "d/x.yaml"):
            Path(path).write_text(serialize(reference_design()), encoding="utf-8")
        Path("latin.yaml").write_bytes(b"\xff\xfe")
        try:
            Path(config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            expected = "", f"error: cannot read config: {exc}\n"
        else:
            assert main(["validate", "--config", "x.yaml"]) == 0
            expected = capsys.readouterr().out, ""
        assert main(["validate", "--config", config]) == code
        assert tuple(capsys.readouterr()) == expected

    def test_invalid_design_exits_1(self, tmp_path, capsys):
        text = serialize(reference_design()).replace(
            "rod_half_length: 140.0", "rod_half_length: -140.0")
        bad = tmp_path / "invalid.yaml"
        bad.write_text(text)
        assert main(["validate", "--config", str(bad)]) == 1
        assert "VIOLATION wheel.rod_half_length" in capsys.readouterr().out


class TestCmdReport:
    def test_reference_card_text(self, config_file, capsys):
        assert main(["report", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "elongated_length_mm = 340" in out
        assert "wheel_diameter_mm = 400" in out
        assert "target_elongated_ok = PASS" in out
        assert "target_wheel_diameter_ok = PASS" in out
        assert "target_reduced_ok = FAIL" in out
        assert "motor_check_ok = PASS" in out

    def test_loose_ratio_flag(self, config_file, capsys):
        assert main(["report", "--config", config_file, "--target-ratio", "0.9"]) == 0
        assert "reduction_ok = PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-1", "0", "1.5"])
    def test_target_ratio_outside_the_unit_interval_exits_2(self, config_file, capsys,
                                                            ratio):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", config_file, f"--target-ratio={ratio}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --target-ratio: target ratio must be in (0, 1]\n" in captured.err

    @pytest.mark.parametrize("bend", ["3.0", "-0.1", "0", "nan", "inf", "1.5708"])
    def test_total_bend_outside_the_envelope_exits_2(self, config_file, capsys, bend):
        # ``bending.distribute_bend`` refuses more than pi/2; the card sizes
        # its rods at a nonzero tilt.
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", config_file, f"--total-bend={bend}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --total-bend: total bend must be in (0, pi/2]\n" in captured.err

    def test_total_bend_of_the_envelope_exits_0(self, config_file, capsys):
        assert main(["report", "--config", config_file,
                     "--total-bend=1.5707963267948966"]) == 0
        assert "per_plate_bend_rad = 0.392699\n" in capsys.readouterr().out

    def test_total_bend_past_pi_over_4_on_one_plate_exits_2(self, tmp_path, capsys):
        config = tmp_path / "one_plate.yaml"
        config.write_text(serialize(set_field(reference_design(), "platform.plate_count", 1)))
        assert main(["report", "--config", str(config), "--total-bend=1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --total-bend: 1.0 rad over 1 plate(s): "
                                "theta_plate must be in [0, pi/4]\n")
        assert main(["report", "--config", str(config)]) == 0

    def test_target_ratio_of_one_exits_0(self, config_file, capsys):
        assert main(["report", "--config", config_file, "--target-ratio", "1"]) == 0
        out = capsys.readouterr().out
        assert "reduction_target = 1\n" in out and "reduction_ok = PASS\n" in out

    def test_rod_pair_that_cannot_fold_exits_1(self, tmp_path, capsys):
        text = serialize(reference_design()).replace(
            "min_half_separation: 0.0", "min_half_separation: 150.0")
        path = tmp_path / "fold.yaml"
        path.write_text(text)
        out = tmp_path / "p.csv"
        assert main(["report", "--config", str(path)]) == 1
        assert main(["profile", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("VIOLATION wheel.min_half_separation: "
                         "min_half_separation < rod_half_length\n") == 2
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_design_refused(self, tmp_path):
        text = serialize(reference_design()).replace(
            "n_levels: 4", "n_levels: 0")
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["report", "--config", str(path)]) == 1

    def test_overrunning_design_exits_1(self, tmp_path, capsys):
        # 2 * (170 - 0) reaches the 340 mm elongated length.
        text = serialize(reference_design()).replace(
            "rod_half_length: 140.0", "rod_half_length: 170.0")
        path = tmp_path / "overrun.yaml"
        path.write_text(text)
        assert main(["report", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "VIOLATION wheel.rod_half_length" in err
        assert "Traceback" not in err

    def test_steps_flag_is_gone(self, config_file):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", config_file, "--steps", "5"])
        assert exc.value.code == 2

    def test_infinite_hub_offset_exits_2(self, tmp_path, capsys):
        # YAML's ``.inf`` is outside the plain grammar; a decimal past the
        # float range is read, and refused.
        text = serialize(reference_design())
        line = text[:text.index("hub_offset: 60.0")].count("\n") + 1
        path = tmp_path / "inf.yaml"
        for value, message in ((".inf", "config line is outside the plain grammar "
                                        f"(field: wheel.hub_offset) (line: {line})"),
                               ("1.0e+400", "expected a finite number (field: wheel.hub_offset)")):
            path.write_text(text.replace("hub_offset: 60.0", f"hub_offset: {value}"))
            assert main(["report", "--config", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCmdProfile:
    def test_two_steps_two_rows(self, config_file, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", "2",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["module_length_mm"]) == 340.0
        assert float(rows[0]["wheel_radius_mm"]) == 60.0
        assert rows[0]["trigger_mode"] == "telescopic"
        assert float(rows[1]["wheel_radius_mm"]) == 200.0
        assert rows[1]["trigger_mode"] == "rigid"

    def test_hundred_steps_monotone_and_reaches_target(self, config_file, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", "100",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 100
        lengths = [float(r["module_length_mm"]) for r in rows]
        radii = [float(r["wheel_radius_mm"]) for r in rows]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert all(a < b for a, b in zip(radii, radii[1:]))
        assert radii[-1] == 200.0

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["profile", "--config", config_file, "--steps", "20",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        kf1 = tmp_path / "a_keyframes.json"
        kf2 = tmp_path / "b_keyframes.json"
        assert kf1.read_bytes() == kf2.read_bytes()

    def test_unwritable_path_exits_2(self, config_file, tmp_path):
        assert main(["profile", "--config", config_file, "--steps", "5",
                     "--out", str(tmp_path / "nodir" / "p.csv")]) == 2

    def test_failed_keyframe_write_leaves_no_csv(self, config_file, tmp_path,
                                                 monkeypatch, capsys):
        # The disk fills up while the keyframe bytes are written, after the
        # CSV and the keyframe temporaries both exist.
        def full_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if Path(path).name.startswith(".p_keyframes.json."):
                def fail(text):
                    raise OSError("no space left on device")
                fh.write = fail
            return fh

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", "5",
                     "--out", str(out)]) == 2
        assert "no space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(config_file)]

    def test_failed_keyframe_replace_keeps_earlier_outputs(self, config_file, tmp_path,
                                                           capsys):
        out = tmp_path / "p.csv"
        out.write_text("earlier run\n")
        (tmp_path / "p_keyframes.json").mkdir()  # a directory cannot be replaced
        assert main(["profile", "--config", config_file, "--steps", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: cannot write output: [Errno 21] "
                                           f"Is a directory: '{tmp_path / 'p_keyframes.json'}'\n")
        assert out.read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["design.yaml", "p.csv", "p_keyframes.json"]
        assert (tmp_path / "p_keyframes.json").is_dir()
        assert not list(tmp_path.rglob(".*.tmp"))

    def test_force_table_override_changes_forces(self, config_file, tmp_path):
        table = tmp_path / "table.yaml"
        table.write_text("- [1.0, 6.8]\n- [8.0, 0.2]\n")
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", "3",
                     "--out", str(out), "--force-table", str(table)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["axial_force_N"]) == 6.8

    def test_non_utf8_force_table_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", "3", "--out", str(out),
                     "--force-table", non_utf8_file(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load force table: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_fewer_than_two_steps_is_a_usage_error(self, config_file, tmp_path,
                                                   capsys, steps):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--config", config_file, "--steps", steps, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --steps: steps must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_step_cap(self, reference, config_file, tmp_path, capsys):
        # The cap is checked before any state is built: a regression past it
        # fails here at once rather than filling memory.
        assert len(wheelgeom.transform_columns(reference, _MAX_STEPS)[0]) == _MAX_STEPS
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", config_file, "--steps", str(_MAX_STEPS + 1),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --steps: steps must be <= {_MAX_STEPS}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.yaml"]

    def test_bad_force_table_exits_2(self, config_file, tmp_path):
        table = tmp_path / "table.yaml"
        table.write_text("- [2.0, 1.0]\n- [1.0, 3.0]\n")
        assert main(["profile", "--config", config_file, "--steps", "3",
                     "--out", str(tmp_path / "p.csv"),
                     "--force-table", str(table)]) == 2


    def test_steps_finer_than_the_design_resolves_exit_2(self, tmp_path, capsys):
        # On a 1.5e11 mm hub, the last of 10000 states would widen the wheel
        # by 7e-7 mm, below the 3e-5 mm float resolution of its radius.
        config = tmp_path / "design.yaml"
        config.write_text(serialize(set_field(reference_design(), "wheel.hub_offset", 1.5e11)))
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", str(config), "--steps", "10000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --steps: 10000 steps are finer than the design "
                              "resolves: state ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.yaml"]
        assert main(["profile", "--config", str(config), "--steps", "2000",
                     "--out", str(out)]) == 0

def profile_oracle(p, steps, table):
    """The profile CSV and keyframe bytes as ``csv.writer`` and ``json.dumps``
    write them from the states and torques of the per-state oracles."""
    states = oracles.transform_profile(p, steps)
    torques = oracles.torque_profile(p, states, table)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(cli.PROFILE_COLUMNS)
    for i, (state, entry) in enumerate(zip(states, torques)):
        writer.writerow([i, repr(state.module_length), repr(state.axial_half_separation),
                         repr(state.wheel_radius), state.trigger_mode.value,
                         repr(entry.axial_force), repr(entry.per_motor_torque)])
    return buf.getvalue().encode(), keyframes_json(states, p).encode()


FORCE_TABLE = Path(REFERENCE_CONFIG).with_name("force_table.yaml")
NEGATIVE_ZERO_END_TABLE = ROOT / "tests" / "data" / "force_table_negative_zero_end.yaml"


class TestProfileFiles:
    """The one-pass writer against ``csv.writer`` and ``json.dumps``."""

    # The builtin table holds the file's samples: both table paths of the
    # shared clamped-end torque write the same bytes.
    @pytest.mark.parametrize("extra", [["--force-table", str(FORCE_TABLE)], []],
                             ids=["table-file", "builtin-table"])
    def test_reference_2000_steps_keep_their_bytes(self, tmp_path, extra):
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", REFERENCE_CONFIG, "--steps", "2000",
                     *extra, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == "5708a62af965845d0847c8c91fb70ec6b8fdc3dcb9d58c6f37f480c331c6b073"
        assert hashlib.sha256((tmp_path / "p_keyframes.json").read_bytes()).hexdigest() \
            == "2a33ee13399f76845aa89e26b0f07a268ffdbd36d8798c4e7dbb18df8a870890"

    @pytest.mark.parametrize("table_path", [None, FORCE_TABLE, NEGATIVE_ZERO_END_TABLE],
                             ids=["default", "file", "negative-zero-end"])
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.one_of(st.sampled_from([2, 3, 50, 2000]), st.integers(2, 2000)))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_the_encoders_on_random_designs(self, tmp_path, table_path, seed,
                                                        steps):
        table = quasistatics.default_force_table() if table_path is None \
            else quasistatics.load_force_table_path(table_path)
        extra = [] if table_path is None else ["--force-table", str(table_path)]
        p = random_valid_params(random.Random(seed))
        config, out = tmp_path / "design.yaml", tmp_path / "p.csv"
        config.write_text(serialize(p), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["profile", "--config", str(config), "--steps", str(steps),
                         "--out", str(out), *extra]) == 0
        csv_bytes, keyframe_bytes = profile_oracle(p, steps, table)
        assert out.read_bytes() == csv_bytes
        assert (tmp_path / "p_keyframes.json").read_bytes() == keyframe_bytes


# Values whose YAML constructor raised its own error rather than a YAML
# one: a ValueError (month 13; a binary int with no digits), a KeyError, an
# AttributeError and an IndexError. Each is outside the plain grammar.
CONSTRUCTOR_ERRORS = ["2020-13-45", "0b_", "!!bool maybe", "!!timestamp x", "!!int ''"]
NON_FINITE = [".inf", "-.inf", ".nan"]


# Forms of YAML outside the plain grammar that one line of a shipped file
# can be rewritten into: of a value or a row's first number, of a header,
# and of any line.
VALUE_FORMS = ["0x1F", "1_000", "1e5", ".inf", "-.inf", ".nan", "'4'", '"4.0"', "&a 4", "*a",
               "!!float 4", "[4]", "{a: 4}"]
HEADER_FORMS = ["{}: {{}}", "{}: &a", "!!map {}:", '"{}":', "&a {}:", "{}: *a"]
LINE_FORMS = [" {}".format, "   {}".format, "\t{}".format, "\ufeff{}".format, "{}\t".format]
SHIPPED = {"config": Path(REFERENCE_CONFIG), "force table": FORCE_TABLE}


@st.composite
def refused_rewrites(draw):
    """(what, text, n, crlf): a shipped config or force table with its line
    n, a header, key or row, rewritten into a form the plain grammar
    refuses, and whether the rewrite is a CRLF line end, which only ``load``
    sees (the CLI reads universal newlines)."""
    what = draw(st.sampled_from(sorted(SHIPPED)))
    lines = SHIPPED[what].read_text(encoding="utf-8").split("\n")
    i = draw(st.sampled_from([i for i, line in enumerate(lines)
                              if line.strip() and not line.lstrip().startswith("#")]))
    line = lines[i]
    kind = draw(st.sampled_from(["value", "line", "crlf"]))
    if kind == "crlf":
        return what, "\n".join(lines[:i + 1]) + "\r\n" + "\n".join(lines[i + 1:]), i + 1, True
    if kind == "line":  # an indented line may also lose its indentation
        lines[i] = draw(st.sampled_from(LINE_FORMS + ([str.lstrip] if line[0] == " " else [])))(line)
    elif line[0] != " ":  # a header
        name = line.split(":")[0]
        lines[i] = draw(st.sampled_from(HEADER_FORMS)).format(name) + line[len(name) + 1:]
    else:  # a key's value or a row's first number
        head, sep, rest = line.partition("[" if "- [" in line else ": ")
        number = rest.split(",")[0].split(" ")[0]
        lines[i] = head + sep + draw(st.sampled_from(VALUE_FORMS)) + rest[len(number):]
    return what, "\n".join(lines), i + 1, False


class TestRefusedInput:
    """Each exits 2 with a one-line message, and writes no output file."""

    def run(self, capsys, tmp_path, argv, files):
        out = tmp_path / "p.csv"
        for verb in (["report"], ["profile", "--out", str(out)]):
            assert main([*verb, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        return captured.err

    @given(refused_rewrites())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_rewritten_line_of_a_shipped_file_is_refused_at_it(self, tmp_path, capsys,
                                                                 rewrite):
        what, text, n, crlf = rewrite
        fn = params.load if what == "config" else quasistatics.load_force_table
        with pytest.raises(ConfigError) as exc:
            fn(text)
        assert exc.value.line == n
        if crlf:
            return
        path = tmp_path / "rewritten.yaml"
        path.write_text(text, encoding="utf-8")
        argv = ["report", "--config", str(path)] if what == "config" else \
            ["report", "--config", REFERENCE_CONFIG, "--force-table", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: ") and err.endswith(f"(line: {n})\n")

    @pytest.mark.parametrize("value", CONSTRUCTOR_ERRORS)
    def test_constructor_error_in_a_config(self, tmp_path, capsys, value):
        lines = Path(REFERENCE_CONFIG).read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("  n_levels:"))
        lines[at] = f"  n_levels: {value}\n"
        config = tmp_path / "design.yaml"
        config.write_text("".join(lines))
        err = self.run(capsys, tmp_path, ["--config", str(config)], ["design.yaml"])
        assert err == ("error: config line is outside the plain grammar "
                       f"(field: screw.n_levels) (line: {at + 1})\n")
        assert main(["validate", "--config", str(config)]) == 2

    @pytest.mark.parametrize("value", CONSTRUCTOR_ERRORS)
    def test_constructor_error_in_a_force_table(self, config_file, tmp_path, capsys, value):
        table = tmp_path / "table.yaml"
        table.write_text(f"- [1.0, 3.4]\n- [2.0, {value}]\n")
        err = self.run(capsys, tmp_path, ["--config", config_file, "--force-table", str(table)],
                       ["design.yaml", "table.yaml"])
        assert err == ("error: cannot load force table: "
                       "force table line is outside the plain grammar (line: 2)\n")

    @pytest.mark.parametrize("entry", [f"[1.0, {v}]" for v in NON_FINITE]
                             + [f"[{v}, 1.0]" for v in NON_FINITE])
    def test_non_finite_force_table(self, config_file, tmp_path, capsys, entry):
        table = tmp_path / "table.yaml"
        table.write_text(f"- {entry}\n")
        err = self.run(capsys, tmp_path, ["--config", config_file, "--force-table", str(table)],
                       ["design.yaml", "table.yaml"])
        # YAML's names of the non-finite floats are outside the plain grammar.
        assert err == ("error: cannot load force table: "
                       "force table line is outside the plain grammar (line: 1)\n")

    def test_force_table_mapping_with_another_key(self, config_file, tmp_path, capsys):
        # As a config's unknown key is refused; a key with a value is no
        # header of the plain grammar.
        table = tmp_path / "table.yaml"
        n = FORCE_TABLE.read_text().count("\n") + 1
        for extra, message in (("bogus:\n", "unknown key (field: bogus)"),
                               ("bogus: 7\n", "force table line is outside the plain grammar "
                                              f"(line: {n})")):
            table.write_text(FORCE_TABLE.read_text() + extra)
            err = self.run(capsys, tmp_path,
                           ["--config", config_file, "--force-table", str(table)],
                           ["design.yaml", "table.yaml"])
            assert err == f"error: cannot load force table: {message}\n"

    @pytest.mark.parametrize("repeat", ["key", "section", "force-table"])
    def test_a_key_given_twice_exits_2(self, config_file, tmp_path, capsys, repeat):
        # YAML keeps the last value; the repeat is refused at its line.
        text, table = Path(REFERENCE_CONFIG).read_text(), FORCE_TABLE.read_text()
        if repeat == "key":
            text = text.replace("  n_levels: 4 ", "  n_levels: 4\n  n_levels: 7 ")
            field, line = "screw.n_levels", text[:text.index("n_levels: 7")].count("\n") + 1
        elif repeat == "section":
            text += "screw:\n"
            field, line = "screw", text.count("\n")
        else:
            table += "force_table:\n  - [1.0, 9.0]\n"
            field, line = "force_table", table.count("\n") - 1
        Path(config_file).write_text(text)
        (tmp_path / "table.yaml").write_text(table)
        err = self.run(capsys, tmp_path, ["--config", config_file,
                                          "--force-table", str(tmp_path / "table.yaml")],
                       ["design.yaml", "table.yaml"])
        prefix = "cannot load force table: " if repeat == "force-table" else ""
        assert err == f"error: {prefix}key given twice (field: {field}) (line: {line})\n"

    def test_peak_torque_past_the_float_range_on_the_force_table(self, tmp_path, capsys):
        # A valid design, whose peak torque is finite on the default table
        # that validation checks, and past the float range on this one.
        config = tmp_path / "design.yaml"
        config.write_text(Path(REFERENCE_CONFIG).read_text().replace(
            "screw_mean_diameter: 8.0", "screw_mean_diameter: 1.0e+10"))
        table = tmp_path / "table.yaml"
        table.write_text("- [1.0, 1.0e+300]\n- [2.0, 1.0]\n")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["report", "--config", str(config)]) == 0
        capsys.readouterr()
        err = self.run(capsys, tmp_path, ["--config", str(config), "--force-table", str(table)],
                       ["design.yaml", "table.yaml"])
        assert err == (f"error: force table {table}: "
                       "the design's peak torque on it is not finite\n")

    @pytest.mark.parametrize("verb, flag, message", [
        ("report", "--total-bend=1.0",
         "--total-bend: 1.0 rad over 1 plate(s): theta_plate must be in [0, pi/4]"),
        ("profile", f"--steps={_MAX_STEPS + 1}", f"--steps: steps must be <= {_MAX_STEPS}")],
        ids=["report", "profile"])
    def test_a_refused_flag_is_named_before_the_peak_torque(self, tmp_path, capsys, verb, flag,
                                                            message):
        # The card, or the profile's states, come before their peak torque
        # on the force table, which is past the float range here too.
        config = tmp_path / "design.yaml"
        config.write_text(Path(REFERENCE_CONFIG).read_text().replace(
            "screw_mean_diameter: 8.0", "screw_mean_diameter: 1.0e+10").replace(
            "plate_count: 4", "plate_count: 1"))
        table = tmp_path / "table.yaml"
        table.write_text("- [1.0, 1.0e+300]\n- [2.0, 1.0]\n")
        out = ["--out", str(tmp_path / "p.csv")] if verb == "profile" else []
        assert main([verb, "--config", str(config), "--force-table", str(table), flag,
                     *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.yaml", "table.yaml"]


class TestCmdSweep:
    @pytest.mark.parametrize("param, grid, objective, digest", [
        ("screw.screw_level_length", "13.5:90.25:1000", "min-peak-torque",
         "a879757d83a11dc77903abb5b37fb6fe8f6babbf1a48d5c923b09f9e3426f567"),
        ("wheel.hub_offset", "10:200:1000", "max-wheel-radius",
         "a31d390c5ddf58676bd89b65043f813cbdd43e44cd20c8104918dce81feba951"),
        ("screw.screw_level_length", "5:30:1000", "min-reduced-length",
         "9a0d34a6a51ab0f26b707cdfe10e0edb2bc560ac424fcbeacbadbf1a1ac82b15"),
        # Sections the three above never vary; the first has 334 invalid
        # rows, the last 33.
        ("drive.screw_friction", "0:1.5:1000", "min-peak-torque",
         "393e94ddc1e5acf46c2630ae27babd10893114c28cacb26806df0eee4bb4e122"),
        ("layout.joint_arm_height", "0.5:40:1000", "min-reduced-length",
         "a3bb04dbf26684a15351476cc481c9ff1b577f38459c93ee3ebb7a14e01bf06c"),
        ("platform.max_screw_extension", "-10:300:1000", "min-peak-torque",
         "423a9353e4d0e5b74eb834a1dcc15bfaed8d5fd1c02ea05cf24e6b76c8317cdc"),
    ], ids=["screw-length", "hub-offset", "with-invalid-rows", "screw-friction",
            "joint-arm-height", "screw-extension"])
    def test_reference_1000_points_keep_their_bytes(self, tmp_path, param, grid, objective,
                                                    digest):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", REFERENCE_CONFIG, "--sweep-param", param,
                     "--sweep-range", grid, "--objective", objective, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_step_cap(self, config_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", f"10:200:{_MAX_STEPS + 1}",
                     "--objective", "max-wheel-radius", "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == f"error: --sweep-range: sweep needs at most {_MAX_STEPS} grid points\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.yaml"]

    @pytest.mark.parametrize("steps", ["3.0", "x", ""])
    def test_steps_not_an_integer_exits_2(self, config_file, tmp_path, capsys, steps):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", f"10:200:{steps}",
                     "--objective", "max-wheel-radius", "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == f"error: --sweep-range: STEPS must be an integer, got {steps!r}\n"
        assert not out.exists()

    def test_screw_length_sweep_monotone_argmin_at_boundary(self, config_file,
                                                            tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw.screw_level_length",
                     "--sweep-range", "20:50:7",
                     "--objective", "min-reduced-length",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 7
        objectives = [float(r["objective"]) for r in rows]
        # reduced length = 2*S_L + K grows with S_L, so the minimum sits at 20
        assert objectives == sorted(objectives)
        assert objectives[0] == pytest.approx(220.0)
        assert "argmin" in capsys.readouterr().out

    def test_two_grid_points(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "50:80:2",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)) == 2

    def test_hub_offset_shifts_radius_additively(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "50:90:5",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        offsets = [float(r["wheel.hub_offset"]) for r in rows]
        radii = [float(r["wheel_radius_mm"]) for r in rows]
        for i in range(1, len(rows)):
            assert radii[i] - radii[0] == pytest.approx(offsets[i] - offsets[0],
                                                        abs=1e-9)

    def test_sweep_matches_standalone_evaluation(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw.screw_level_length",
                     "--sweep-range", "20:40:3",
                     "--objective", "min-peak-torque",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        from morphwheel.telescopic import module_lengths
        for row in rows:
            p = set_field(reference_design(), "screw.screw_level_length",
                          float(row["screw.screw_level_length"]))
            assert float(row["elongated_length_mm"]) \
                == pytest.approx(module_lengths(p).elongated, abs=1e-9)

    def test_steps_flag_is_gone(self, config_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_file,
                  "--sweep-param", "wheel.hub_offset",
                  "--sweep-range", "50:80:3",
                  "--objective", "max-wheel-radius",
                  "--steps", "1", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "s.csv").exists()

    def test_bad_parameter_path_exits_2(self, config_file, tmp_path, capsys):
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw.nope",
                     "--sweep-range", "1:2:3",
                     "--objective", "min-peak-torque",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "screw.nope" in capsys.readouterr().err

    def test_non_integral_count_grid_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw.n_levels",
                     "--sweep-range", "1:10:7",
                     "--objective", "min-reduced-length",
                     "--out", str(out)]) == 2
        assert "screw.n_levels" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_count_grid_labels_rows_with_integers(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw.n_levels",
                     "--sweep-range", "1:10:10",
                     "--objective", "min-reduced-length",
                     "--out", str(out)]) == 0
        assert [r["screw.n_levels"] for r in read_csv(out)] \
            == [str(n) for n in range(1, 11)]

    def test_drive_field_sweep(self, config_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "drive.screw_lead",
                     "--sweep-range", "1:4:4",
                     "--objective", "min-peak-torque",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["drive.screw_lead"]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
        torques = [float(r["peak_torque_Nmm"]) for r in rows]
        assert torques == sorted(torques) and torques[0] < torques[-1]
        assert "argmin min-peak-torque: drive.screw_lead=1" in capsys.readouterr().out

    def test_bare_drive_field_exits_2(self, config_file, tmp_path, capsys):
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "screw_lead",
                     "--sweep-range", "1:4:4",
                     "--objective", "min-peak-torque",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "unresolvable parameter path" in capsys.readouterr().err

    def test_interrupted_sweep_leaves_the_old_csv(self, config_file, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        out.write_text("old\n", encoding="utf-8")
        varying = params._varying
        calls = []

        def interrupted(*args):
            check = varying(*args)

            def interrupting(p):
                calls.append(p)
                if len(calls) == 3:
                    raise KeyboardInterrupt
                return check(p)
            return interrupting

        monkeypatch.setattr(params, "_varying", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", config_file,
                  "--sweep-param", "wheel.hub_offset",
                  "--sweep-range", "10:90:5",
                  "--objective", "max-wheel-radius",
                  "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(tmp_path.iterdir()) == sorted([out, Path(config_file)])
        assert [p.wheel.hub_offset for p in calls] == [10.0, 30.0, 50.0]

    def test_unwritable_path_exits_2(self, config_file, tmp_path, capsys):
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "10:90:5",
                     "--objective", "max-wheel-radius",
                     "--out", str(tmp_path / "nodir" / "s.csv")]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_status_and_reason_columns(self, config_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "wheel.min_half_separation",
                     "--sweep-range=-100:200:4",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert next(csv.reader(fh))[-3:] == ["objective", "status", "reason"]
        rows = read_csv(out)
        assert [r["status"] for r in rows] == ["invalid", "ok", "ok", "invalid"]
        # -100 is negative and also strokes 480 mm of a 340 mm module; the
        # 140 mm rods cannot fold at 200.
        assert rows[0]["reason"] == "wheel.min_half_separation wheel.rod_half_length"
        assert rows[1]["reason"] == rows[2]["reason"] == ""
        assert rows[3]["reason"] == "wheel.min_half_separation"
        for row in (rows[0], rows[3]):
            assert row["wheel_radius_mm"] == row["objective"] == ""
        assert "argmax max-wheel-radius: wheel.min_half_separation=0 -> wheel_radius_mm=200 " \
            "(row 1)" in capsys.readouterr().out

    def test_negative_start_needs_no_equals_sign(self, config_file, tmp_path, capsys):
        outs = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, grid in zip(outs, (["--sweep-range=-100:200:4"],
                                    ["--sweep-range", "-100:200:4"])):
            assert main(["sweep", "--config", config_file,
                         "--sweep-param", "wheel.min_half_separation", *grid,
                         "--objective", "max-wheel-radius", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()
        # A word that starts with a minus and a letter is still an option.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_file, "--sweep-param", "wheel.hub_offset",
                  "--sweep-range", "-x", "--objective", "max-wheel-radius",
                  "--out", str(outs[0])])
        assert exc.value.code == 2
        assert "argument --sweep-range: expected one argument" in capsys.readouterr().err

    def test_a_value_keeps_the_text_only_of_its_own_object(self, config_file, tmp_path,
                                                            monkeypatch):
        # 0.0 and -0.0 are equal values but not one object: each keeps its
        # own text. The objective is written as its metric column is.
        def rows(p, spec, emit):
            emit((0, 0.0, 340.0, 165.0, 0.5, 94.0, 200.0, 0.0, 0.0, "ok", ""))
            emit((1, -0.0, 340.0, 165.0, 0.5, 94.0, 200.0, -0.0, -0.0, "ok", ""))
            emit((2, 1.0, *("",) * 7, "invalid", "wheel.hub_offset"))
        monkeypatch.setattr(cli, "sweep", rows)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "0:1:3", "--objective", "min-peak-torque",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "0,0.0,340.0,165.0,0.5,94.0,200.0,0.0,0.0,ok,",
            "1,-0.0,340.0,165.0,0.5,94.0,200.0,-0.0,-0.0,ok,",
            "2,1.0,,,,,,,,invalid,wheel.hub_offset"]

    @pytest.mark.parametrize("start", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_non_finite_negative_start_needs_no_equals_sign(self, config_file, tmp_path,
                                                            capsys, start):
        # The range reaches the sweep's own check, not argparse's.
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", f"{start}:200:4", "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --sweep-range: START and STOP must be finite, got '{start}:200:4'\n"
        assert not out.exists()

    def test_derived_field_follows_the_swept_count(self, tmp_path):
        out = tmp_path / "s.csv"
        for grid, invalid in [
            # Two levels stroke 280 mm of a 260 mm module: a real violation.
            ("2:6:5", [("invalid", "wheel.rod_half_length")]),
            ("3:6:4", []),
        ]:
            assert main(["sweep", "--config", REFERENCE_CONFIG,
                         "--sweep-param", "screw.n_levels",
                         "--sweep-range", grid,
                         "--objective", "min-reduced-length",
                         "--out", str(out)]) == 0
            rows = read_csv(out)
            assert [(r["status"], r["reason"]) for r in rows] == invalid + [("ok", "")] * 4
            assert [float(r["elongated_length_mm"]) for r in rows[len(invalid):]] \
                == [300.0, 340.0, 380.0, 420.0]

    def test_field_the_config_leaves_unset(self, tmp_path, capsys):
        config = tmp_path / "design.yaml"
        config.write_text(serialize(reference_design()._replace(
            wheel=reference_design().wheel._replace(
                min_half_separation=None))), encoding="utf-8")
        assert "min_half_separation" not in config.read_text()
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(config),
                     "--sweep-param", "wheel.min_half_separation",
                     "--sweep-range", "0:8:3",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        assert [r["status"] for r in read_csv(out)] == ["ok"] * 3
        assert "argmax max-wheel-radius: wheel.min_half_separation=0 " in capsys.readouterr().out

    def test_bad_range_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for grid, err in [
            ("1:2", "expected START:STOP:STEPS, got '1:2'"),
            ("1:2:3:4", "expected START:STOP:STEPS, got '1:2:3:4'"),
            ("x:1:3", "START and STOP must be numbers, got 'x:1:3'"),
            ("1::3", "START and STOP must be numbers, got '1::3'"),
        ]:
            assert main(["sweep", "--config", config_file,
                         "--sweep-param", "wheel.hub_offset",
                         "--sweep-range", grid,
                         "--objective", "min-peak-torque",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: --sweep-range: {err}\n"
            assert not out.exists()

    @pytest.mark.parametrize("grid", ["inf:10:3", "nan:10:3", "10:-inf:3", "10:NaN:3"])
    def test_non_finite_range_exits_2(self, config_file, tmp_path, capsys, grid):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "wheel.hub_offset",
                     f"--sweep-range={grid}",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --sweep-range: START and STOP must be finite, got {grid!r}\n"
        assert not out.exists()


    @pytest.mark.parametrize("grid", ["0:1e308:3", "-1e308:1e308:3", "1e308:-1e308:2"])
    def test_overflowing_grid_exits_2(self, config_file, tmp_path, capsys, grid):
        # Each end is finite, but the span, or the span times the last
        # index, is not: a grid value would be inf or nan.
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", config_file,
                     "--sweep-param", "reported.wheel_diameter",
                     f"--sweep-range={grid}",
                     "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --sweep-range: sweep span "
                                           "(stop - start) * (steps - 1) must be finite\n")
        assert not out.exists()

# Every numeric config field, as a sweep takes it: (path, is a count).
SWEEP_FIELDS = [(f.path, f.is_count) for _, schema in _SECTIONS.values()
                for f in schema.values()]
# Grids that end just before, at and after the end of a write batch, whose
# first also holds the header, and span more than two batches.
LONG_GRIDS = [cli._SWEEP_BATCH - 2, cli._SWEEP_BATCH - 1, cli._SWEEP_BATCH,
              2 * cli._SWEEP_BATCH + 7]


class TestSweepFile:
    """The CLI writes its sweep rows as text; ``csv.writer`` is the oracle."""

    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(SWEEP_FIELDS),
           steps=st.one_of(st.integers(2, 6), st.sampled_from(LONG_GRIDS)),
           objective=st.sampled_from(list(Objective)), data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_are_what_csv_writer_writes(self, tmp_path, seed, field, steps, objective,
                                              data):
        path, is_count = field
        if is_count:
            start = data.draw(st.integers(-3, 12))
            stop = start + data.draw(st.integers(-3, 3).filter(bool)) * (steps - 1)
        else:  # negative values give invalid rows for most fields
            start = data.draw(st.floats(-100.0, 600.0))
            stop = data.draw(st.floats(-100.0, 600.0).filter(lambda v: v != start))
        text = serialize(random_valid_params(random.Random(seed)))
        config, out = tmp_path / "design.yaml", tmp_path / "s.csv"
        config.write_text(text, encoding="utf-8")
        assert main(["sweep", "--config", str(config), "--sweep-param", path,
                     f"--sweep-range={start!r}:{stop!r}:{steps}",
                     "--objective", objective.value, "--out", str(out)]) == 0
        spec = SweepSpec(path, float(start), float(stop), steps, objective)
        expected, rows = io.StringIO(), []
        writer = csv.writer(expected)
        writer.writerow(report.sweep_columns(spec))
        report.sweep(load(text), spec, rows.append)
        writer.writerows(rows)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        # The writer keeps the text of a value equal to the previous row's:
        # 1 == 1.0, so no column may hold both an int and a float.
        for column in zip(*rows):
            assert len({type(v) for v in column} & {int, float}) <= 1

    def test_crafted_rows_are_what_csv_writer_writes(self, tmp_path, monkeypatch):
        # Rows of values that compare equal but print apart, or never compare
        # equal, or are equal new objects, each after its like.
        nan, inf, x = float("nan"), float("inf"), 1.5
        same = float(repr(x))  # equal to ``x``, and a new object
        assert same == x and same is not x
        values = [0.0, -0.0, -0.0, 0.0, nan, nan, inf, inf, -inf, -inf, x, same, x, 0.0]
        rows = [(i, v, v, v, v, v, v, v, v, "ok", "") for i, v in enumerate(values)]

        def crafted(p, spec, emit):
            for row in rows:
                emit(row)
        monkeypatch.setattr(cli, "sweep", crafted)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", REFERENCE_CONFIG, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "0:1:2", "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        expected = io.StringIO()
        csv.writer(expected).writerows(
            [report.sweep_columns(SweepSpec("wheel.hub_offset", 0.0, 1.0, 2,
                                            Objective.MAX_WHEEL_RADIUS)), *rows])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")


    @pytest.mark.parametrize("n", [2 * cli._SWEEP_BATCH + 3, 2 * cli._SWEEP_BATCH + 1])
    def test_crafted_batches_are_what_csv_writer_writes(self, tmp_path, monkeypatch, n):
        # The writer formats each batch a column at a time, and a column of
        # one nonzero value once. Columns, by row i: an int count that is
        # constant in the first batch and then changes; a float constant in
        # each batch, a new object each row, that changes at the boundary;
        # 0.0 and -0.0 in turns; -0.0 alone; one NaN object; a new NaN
        # object each row; inf in one batch and -inf in the next; the
        # objective, as the metric it reads; a status and a reason that
        # change. The last batch holds three rows, or one.
        batch, nan = cli._SWEEP_BATCH, float("nan")
        rows = [(i, 7 if i < batch else 8 + i % 3,
                 float(repr(1.5 if i < batch else 2.5 + i // batch)),
                 0.0 if i % 2 else -0.0, -0.0, nan, float("nan"),
                 math.inf if i // batch % 2 else -math.inf, nan,
                 "ok" if i % 5 else "invalid", "" if i % 5 else "screw.n_levels wheel.hub_offset")
                for i in range(n)]

        def crafted(p, spec, emit):
            for row in rows:
                emit(row)
        monkeypatch.setattr(cli, "sweep", crafted)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", REFERENCE_CONFIG, "--sweep-param", "screw.n_levels",
                     "--sweep-range", "1:2:2", "--objective", "max-wheel-radius",
                     "--out", str(out)]) == 0
        expected = io.StringIO()
        csv.writer(expected).writerows(
            [report.sweep_columns(SweepSpec("screw.n_levels", 1.0, 2.0, 2,
                                            Objective.MAX_WHEEL_RADIUS)), *rows])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

# Values a flag may be given: usual ones, then rare ones, which are out of
# range, non-finite or malformed. The step counts include the cap, rare as a
# run at the cap takes a second, and one past it.
USUAL_FLOATS, RARE_FLOATS = ["0.5", "1"], ["0", "-1", "2.5", "1e400", "inf", "-inf", "nan",
                                           "-NaN", "x", ""]
USUAL_STEPS = ["2", "3", "50"]
RARE_STEPS = [str(_MAX_STEPS), str(_MAX_STEPS + 1), "1", "0", "-3", "2.5", "x", ""]


def pick(usual, rare):
    """A usual value three times in four, else a rare one. (``st.one_of``
    would weigh its branches by distinct strategy, so one usual to one rare.)"""
    return st.sampled_from([usual] * 3 + [rare]).flatmap(st.sampled_from)


# Usual sweep ends by kind of field. Any two count ends differ by a multiple
# of 98, so every grid of 2, 3 or 50 usual steps between them is integral.
USUAL_ENDS = {False: ["-100", "0.5", "12.5", "300"], True: ["-96", "2", "100", "198"]}


@st.composite
def verb_argvs(draw, config: str, work: Path) -> list[str]:
    """An argv of one verb. One time in four it gives every flag of the verb
    a usual value, and a sweep two distinct ends. Otherwise each flag is
    left out one time in twenty and takes a value from its pool, and one
    time in twenty a flag no verb has is added. A flag is given as
    ``--flag=value`` or as two words; a sweep's ends suit its path: counts
    take integral ends."""
    usual = not draw(st.integers(0, 3))
    choose = (lambda values, rare: st.sampled_from(values)) if usual else pick
    config = draw(choose([config], [str(work / "missing.yaml")]))
    table = choose([str(ROOT / "configs" / "force_table.yaml")],
                   [config, str(work / "missing.yaml")])
    out = choose([str(work / "out.csv")], [str(work / "no" / "out.csv"), "", ".", "/"])
    floats = choose(USUAL_FLOATS, RARE_FLOATS)
    steps = choose(USUAL_STEPS, RARE_STEPS)
    path = draw(choose([path for path, _ in SWEEP_FIELDS], ["screw", "screw.bogus", ""]))
    usual_ends = USUAL_ENDS[dict(SWEEP_FIELDS).get(path, False)]
    if usual:
        ranges = st.builds("{0[0]}:{0[1]}:{1}".format, st.lists(
            st.sampled_from(usual_ends), min_size=2, max_size=2, unique=True), steps)
    else:
        ends = pick(usual_ends, RARE_FLOATS)
        ranges = st.sampled_from([st.builds("{}:{}:{}".format, ends, ends, steps)] * 3 + [
            st.sampled_from(["1:2", "1:2:3:4", "", ":", "-x"])]).flatmap(lambda r: r)
    flags = {
        "validate": {"--config": st.just(config)},
        "report": {"--config": st.just(config), "--target-ratio": floats,
                   "--total-bend": floats, "--force-table": table},
        "profile": {"--config": st.just(config), "--steps": steps,
                    "--out": out, "--force-table": table},
        "sweep": {"--config": st.just(config), "--sweep-param": st.just(path),
                  "--sweep-range": ranges,
                  "--objective": choose([o.value for o in Objective], ["bogus"]),
                  "--out": out},
    }
    verb = draw(st.sampled_from(sorted(flags)))
    argv = [verb]
    for flag, values in flags[verb].items():
        if usual or draw(st.integers(0, 19)):
            value = draw(values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not (usual or draw(st.integers(0, 19))):
        argv.append("--bogus")
    return argv


class TestArgv:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_run_exits_0_1_or_2_without_a_traceback(self, tmp_path, seed, data):
        config = tmp_path / "design.yaml"
        config.write_text(serialize(random_valid_params(random.Random(seed))),
                          encoding="utf-8")
        argv = data.draw(verb_argvs(str(config), tmp_path))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# Each verb flag cut to a prefix that names it alone; stray words include
# prefixes that name two flags of a verb.
ABBREVIATED = {"--config": "--conf", "--target-ratio": "--tar", "--total-bend": "--tot",
               "--force-table": "--force", "--steps": "--st", "--out": "--ou",
               "--sweep-param": "--sweep-p", "--sweep-range": "--sweep-r",
               "--objective": "--obj"}
STRAY = ("--bogus", "x", "validate", "-h", "--", "-", "-1", "--conf", "--t", "--sweep")


def good_flags(config: str, work: Path) -> dict[str, list[list[str]]]:
    """Each verb's flags, with a value that it accepts."""
    table, out = str(ROOT / "configs" / "force_table.yaml"), str(work / "out.csv")
    return {"validate": [["--config", config]],
            "report": [["--config", config], ["--target-ratio", "0.5"],
                       ["--total-bend", "0.5"], ["--force-table", table]],
            "profile": [["--config", config], ["--steps", "3"], ["--out", out],
                        ["--force-table", table]],
            "sweep": [["--config", config], ["--sweep-param", "wheel.hub_offset"],
                      ["--sweep-range", "50:80:3"], ["--objective", "max-wheel-radius"],
                      ["--out", out]]}


@st.composite
def any_argvs(draw, config: str, work: Path) -> list[str]:
    """An argv with no verb, an unknown verb or help, or a verb's argv, with
    good flags in any order or with those ``verb_argvs`` draws: some flags
    cut to a prefix, and one time in four one or two stray words."""
    kind = draw(st.sampled_from(["good"] * 6 + ["drawn"] * 6 + ["none", "top", "unknown"]))
    if kind == "none":
        return []
    if kind == "top":
        return draw(st.sampled_from([["-h"], ["--help"], ["--"], ["--", "validate"],
                                     ["-x", "validate"], ["--bogus"]]))
    if kind == "good":
        verb, flags = draw(st.sampled_from(sorted(good_flags(config, work).items())))
        argv = [verb, *(word for flag in draw(st.permutations(flags)) for word in flag)]
    else:
        argv = draw(verb_argvs(config, work))
    if kind == "unknown":
        argv[0] = draw(st.sampled_from(["bogus", "Validate", "valid", "--config", ""]))
    for i, word in enumerate(argv[1:], 1):
        flag, eq, value = word.partition("=")
        if flag in ABBREVIATED:
            argv[i] = draw(pick([flag], [ABBREVIATED[flag]])) + eq + value
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


def run_argv(run, argv):
    """(exit code, stdout, stderr) of ``run(argv)``; the code of a
    ``SystemExit`` it raised stands for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def top_parser_run(argv):
    """The run the top parser dispatches: its namespace's ``func`` called
    with the namespace."""
    args = cli._build_parser()[0].parse_args(argv)
    return args.func(args)


class TestDispatch:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_runs_as_the_top_parser_does(self, tmp_path, seed, data):
        # The same exit code, the same output and the same usage errors.
        config = tmp_path / "design.yaml"
        config.write_text(serialize(random_valid_params(random.Random(seed))),
                          encoding="utf-8")
        argv = data.draw(any_argvs(str(config), tmp_path))
        assert run_argv(main, argv) == run_argv(top_parser_run, argv), argv

    def test_verb_parsers_are_the_top_parsers(self):
        parser, verbs = cli._build_parser()
        [action] = parser._subparsers._group_actions
        assert verbs is action.choices
        assert sorted(verbs) == ["profile", "report", "sweep", "validate"]


class TestPrintReport:
    @given(seed=st.integers(0, 2**32 - 1), valid=st.booleans(),
           reported=st.sampled_from(["none", "reference", "drawn"]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cards_print_as_line_by_line(self, tmp_path, seed, valid, reported):
        # Violations, outputs of each type, tuples among them, and warnings:
        # the one write prints what a ``print`` per line printed.
        rng = random.Random(seed)
        p = (random_valid_params if valid else random_params)(rng)
        if reported == "reference":
            p = p._replace(reported=reference_design().reported)
        elif reported == "drawn":
            p = p._replace(reported=params.ReportedTargets(
                *[rng.choice([None, rng.uniform(1.0, 1000.0)]) for _ in range(5)]))
        config = tmp_path / "design.yaml"
        config.write_text(serialize(p), encoding="utf-8")
        for verb in ("validate", "report"):
            argv = [verb, "--config", str(config)]
            run = run_argv(main, argv)
            with mock.patch.object(cli, "_print_report", oracles.print_report):
                assert run == run_argv(main, argv)


class TestParserReuse:
    def test_main_runs_repeatedly_in_one_process(self, config_file, capsys):
        assert main(["report", "--config", config_file]) == 0
        first = capsys.readouterr()
        assert main(["report", "--config", config_file, "--target-ratio", "0.9"]) == 0
        assert "reduction_target = 0.9\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", config_file, "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["validate", "--config", config_file]) == 0
        capsys.readouterr()
        # Nothing of the earlier runs, flags or defaults, carries over.
        assert main(["report", "--config", config_file]) == 0
        assert capsys.readouterr() == first
        assert cli._build_parser() is cli._build_parser()


CLI = "from morphwheel.cli import main"


class TestProcess:
    def test_console_script_calls_the_entry(self):
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'morphwheel = "morphwheel.cli:entry"' in text

    def test_import_loads_no_dataclasses_inspect_or_csv(self):
        # In a fresh interpreter: pytest itself loads all four.
        code = ("import sys, morphwheel.cli; "
                "print(sorted({'dataclasses', 'inspect', 'csv', 'json'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("imports, argv, error", [
        (CLI, [], ""),
        (CLI, ["validate"], ""),
        (CLI, ["report"], ""),
        (CLI, ["sweep", "--sweep-param", "wheel.hub_offset", "--sweep-range", "10:200:4",
               "--objective", "max-wheel-radius", "--out", "{tmp}/s.csv"], ""),
        (CLI, ["profile", "--steps", "5", "--out", "{tmp}/p.csv"], ""),
        ("from morphwheel.params import *", [], ""),
        (CLI, ["profile", "--steps", "5", "--out", "{tmp}/t.csv",
               "--force-table", str(ROOT / "configs" / "force_table.yaml")], ""),
        # Refused at the first re-indented key line.
        (CLI, ["report", "--config", "{tmp}/indented.yaml"],
         "error: config line is outside the plain grammar (line: 8)\n"),
    ], ids=["import", "validate", "report", "sweep", "profile", "star-import", "force-table",
            "indented"])
    def test_plain_runs_load_no_yaml_or_hashlib(self, tmp_path, imports, argv, error):
        # In a fresh interpreter, which then prints what it loaded of the two.
        text = Path(REFERENCE_CONFIG).read_text(encoding="utf-8")
        (tmp_path / "indented.yaml").write_text(text.replace("\n  ", "\n    "), encoding="utf-8")
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv and "--config" not in argv:
            argv += ["--config", REFERENCE_CONFIG]
        code = (f"import sys; {imports}; "
                "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
                "print(sorted({'yaml', 'hashlib'} & set(sys.modules)), file=sys.stderr); "
                "sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2 if error else 0, f"{error}[]\n")

    @pytest.mark.parametrize("argv, example", [
        (["validate"], "validate.txt"),
        (["report", "--force-table", "configs/force_table.yaml"], "report.txt"),
        (["profile", "--steps", "5", "--out", "{tmp}/p.csv",
          "--force-table", "configs/force_table.yaml"], None),
        (["sweep", "--sweep-param", "wheel.hub_offset", "--sweep-range", "10:200:4",
          "--objective", "max-wheel-radius", "--out", "{tmp}/s.csv"], None),
    ], ids=["validate", "report", "profile", "sweep"])
    def test_runs_need_no_yaml(self, tmp_path, argv, example):
        # In a fresh interpreter where ``import yaml`` fails.
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--config", "configs/reference.yaml"]
        code = ("import sys; sys.modules['yaml'] = None; " + CLI + "; "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        if example is not None:
            assert proc.stdout == (ROOT / "docs" / "examples" / example).read_text()

    def test_main_leaves_sigterm_alone(self, config_file, capsys):
        before = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
        assert main(["validate", "--config", config_file]) == 0
        assert (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)) == before

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_sigterm_leaves_no_temporary_file(self, tmp_path, entry):
        proc, stderr = self.signal_sweep(tmp_path, entry, signal.SIGTERM)
        assert proc.returncode == 128 + signal.SIGTERM == 143
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in stderr
        assert stderr == "error: terminated by SIGTERM\n"

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_sigint_leaves_no_temporary_file(self, tmp_path, entry):
        # Ctrl-C: no KeyboardInterrupt traceback, no death by the signal.
        proc, stderr = self.signal_sweep(tmp_path, entry, signal.SIGINT)
        assert proc.returncode == 128 + signal.SIGINT == 130
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in stderr
        assert stderr == "error: terminated by SIGINT\n"

    @staticmethod
    def signal_sweep(tmp_path, entry, signum):
        """Send ``signum`` to a long sweep once its temporary file exists;
        the ended process and its standard error."""
        out = tmp_path / "s.csv"
        proc = subprocess.Popen(
            [sys.executable, *entry, "sweep", "--config", REFERENCE_CONFIG,
             "--sweep-param", "wheel.hub_offset", "--sweep-range", f"10:200:{_MAX_STEPS}",
             "--objective", "max-wheel-radius", "--out", str(out)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not any(tmp_path.glob(".s.csv.*.tmp")):
                assert proc.poll() is None, "the sweep ended before it was signalled"
                assert time.monotonic() < deadline, "no temporary file within 60 s"
                time.sleep(0.005)
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=60)
        return proc, stderr
