import contextlib
import csv
import io
import json
import math
import operator
import pickle
import random
import re
import sys
import tracemalloc
import types
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import morphwheel.params as params
from morphwheel import (
    ConfigError,
    InvalidDesignError,
    bending,
    cli,
    quasistatics,
    telescopic,
    validate,
    wheelgeom,
)
from morphwheel import report as report_module
from morphwheel.cli import main
from morphwheel.quasistatics import (
    SiliconeForceTable,
    default_force_table,
    load_force_table_path,
    torque_columns,
)
from morphwheel.report import (
    SWEEP_METRICS,
    Objective,
    SweepSpec,
    consistency_warnings,
    design_card,
    sweep,
    sweep_columns,
    verdicts,
)
from morphwheel.wheelgeom import transform_columns

import oracles
from conftest import count_calls, random_params, random_valid_params, reference_design
from oracles import keyframes_json, peak_index, set_field, sweep_row

FORCE_TABLE = Path(__file__).resolve().parent.parent / "configs" / "force_table.yaml"
TABLES = {"default": default_force_table(), "force_table.yaml": load_force_table_path(FORCE_TABLE)}


def overrunning(reference):
    # 2 * (170 - 0) equals the 340 mm elongated length: the stroke closes
    # the module completely.
    return reference._replace(
        wheel=reference.wheel._replace(rod_half_length=170.0))


@pytest.fixture
def count_validate(monkeypatch):
    return count_calls(monkeypatch, params, "validate")


@pytest.fixture
def count_reports(monkeypatch):
    """The arguments of every later ``ValidationReport`` built, by its
    constructor or by ``_make``."""
    built = []

    class Counted(params.ValidationReport):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

        @classmethod
        def _make(cls, iterable):
            built.append((iterable,))
            return super()._make(iterable)

    monkeypatch.setattr(params, "ValidationReport", Counted)
    return built


# The table of quantities in order, as (module, name) of each of its parts:
# the stages of ``validate``, then the sweep's metrics, the flag verdicts, the
# warning verdicts and what only the card prints.
TABLE_PARTS = ((params, "_STRUCTURE"), (params, "_OVERFLOWS"), (report_module, "_METRICS"),
               (report_module, "_FLAGGED"), (report_module, "_WARNED"),
               (report_module, "_CARD_ONLY"))


def count_stages(monkeypatch):
    """Per entry of the table, by name, the designs of every later run of it,
    through ``validate``, a sweep's check, the card or ``verdicts``."""
    calls = {}

    def counted(stage):
        calls[stage.__name__] = runs = []

        def run(p, v, got):
            runs.append(p)
            return stage(p, v, got)
        return run

    for module, name in TABLE_PARTS:
        monkeypatch.setattr(module, name, tuple(
            (reads, counted(stage)) for reads, stage in getattr(module, name)))
    return calls


def stage_runs(calls):
    return {name: len(runs) for name, runs in calls.items()}


# The entries of the table in order, and those whose reads include each field
# that the benchmark sweeps: a point of a sweep of that field runs these, and
# the others up to the metrics run once; ``validate`` runs each stage once.
STAGE_NAMES = ("_check_screw", "_check_layout", "_module_lengths", "_check_platform",
               "_check_rods", "_check_hub", "_check_wheel", "_check_wheel_stroke",
               "_check_drive", "_check_stroke", "_check_screw_diameter", "_check_radius",
               "_check_peak_load", "_check_tilt")
METRIC_NAMES = ("_chassis",)
VERDICT_NAMES = ("_reduction_ok", "_motor_check_ok", "_wheel_diameter",
                 "_reported_length_identity", "_elongated_length_mismatch",
                 "_reduced_length_mismatch", "_chassis_diameter_mismatch",
                 "_rod_half_expansion_mismatch", "_wheel_diameter_mismatch", "_wheel_stroke")
CARD_NAMES = ("_rod_sizing", "_rim_and_ladder")
ENTRY_NAMES = STAGE_NAMES + METRIC_NAMES + VERDICT_NAMES + CARD_NAMES
WHEEL_STAGES = ("_check_hub", "_check_radius")  # ``wheel.hub_offset``
SCREW_STAGES = ("_check_screw", "_module_lengths", "_check_wheel_stroke",
                "_check_stroke")  # ``screw.screw_level_length``


def sweep_runs(points, validations, varying=WHEEL_STAGES):
    """The runs of each entry in a sweep of ``points`` points, after
    ``validations`` runs of ``validate``: no verdict, nothing of the card."""
    runs = dict.fromkeys(ENTRY_NAMES, 0)
    for name in STAGE_NAMES + METRIC_NAMES:
        runs[name] = (name in STAGE_NAMES) * validations + (points if name in varying else 1)
    return runs


@pytest.fixture
def count_parses(monkeypatch):
    """The texts that later ``_plain_doc`` calls read, with what each is, as
    argument tuples."""
    return count_calls(monkeypatch, params, "_plain_doc")


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.yaml"
    path.write_text(params.serialize(reference_design()), encoding="utf-8")
    return str(path)


def bits(values):
    # A float's repr names it exactly, signed zeros included.
    return [repr(v) for v in values]


def own_point(p):
    """The ``SWEEP_METRICS`` that ``sweep`` gives the design ``p`` itself: the
    first row of a sweep of its hub offset that starts at its own value."""
    h = p.wheel.hub_offset
    rows, _ = swept(p, SweepSpec("wheel.hub_offset", h, h + 1.0, 2, Objective.MAX_WHEEL_RADIUS))
    return dict(zip(SWEEP_METRICS, rows[0][2:2 + len(SWEEP_METRICS)]))


class TestClosedForms:
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_card_and_sweep_point_match_the_profile(self, table_name):
        # Oracle: the maximum and the last entry of full profiles. A sweep
        # reads the default table.
        table = TABLES[table_name]
        rng = random.Random(3)
        for _ in range(500):
            p = random_valid_params(rng)
            card = design_card(p, table=table).outputs
            point = own_point(p)
            assert bits(point.values()) == bits(sweep_row(p))
            for steps in (2, 50, 200):
                lengths, _, radii, _ = transform_columns(p, steps)
                forces, torques = torque_columns(p, lengths, table)
                peak_torque = torques[peak_index(torques)]
                assert card["peak_axial_force_N"] == max(forces)
                assert card["peak_torque_Nmm"] == peak_torque
                if table_name == "default":
                    assert point["peak_torque_Nmm"] == peak_torque
                assert card["wheel_radius_mm"] == radii[-1]
                assert point["wheel_radius_mm"] == radii[-1]

    def test_table_starting_below_zero_compression(self, reference):
        # The peak force is interpolated at 0 cm, not the first sample.
        table = SiliconeForceTable(samples=((-1.0, 5.0), (3.0, 1.0), (9.0, 0.0)))
        card = design_card(reference, table=table).outputs
        assert card["peak_axial_force_N"] == 4.0
        _, torques = torque_columns(reference, transform_columns(reference, 50)[0], table)
        assert card["peak_torque_Nmm"] == torques[peak_index(torques)]

    def test_sweep_point_matches_the_card(self, reference):
        card = design_card(reference, table=default_force_table()).outputs
        point = own_point(reference)
        assert list(point) == ["elongated_length_mm", "reduced_length_mm", "reduction_ratio",
                               "chassis_diameter_mm", "wheel_radius_mm", "peak_torque_Nmm"]
        for key, value in point.items():
            assert card[key] == value


    def test_an_infeasible_rod_prints_its_flag_in_place_of_the_rod_lengths(self, reference):
        # A short screw stroke on a wide screw circle: the bend demand
        # outgrows the rod, whose half expansion the rod verdict still reads.
        p = reference._replace(platform=reference.platform._replace(
            max_screw_extension=10.0, screw_circle_spacing=40.0))
        card = design_card(p)
        keys = list(card.outputs)
        assert keys[keys.index("chassis_diameter_mm") + 1:][:2] == ["rod_sizing", "wheel_radius_mm"]
        assert card.outputs["rod_sizing"] == (
            "INFEASIBLE: infeasible rod: bend demand exceeds the telescopic rod length")
        assert not any(key.startswith("rod_") and key.endswith("_mm") for key in keys)
        rod = {v.code: v for v in verdicts(p)}["rod_half_expansion_mismatch"]
        assert rod.computed == bending.rod_half_expansion(p, math.pi / 16)


class TestOverrun:
    def test_validate_refuses_an_overrunning_stroke(self, reference):
        report = validate(overrunning(reference))
        assert [v.field for v in report.violations] == ["wheel.rod_half_length"]
        assert "elongated length" in report.violations[0].constraint

    def test_stroke_just_inside_the_module_is_valid(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(rod_half_length=169.99))
        assert validate(p).valid
        assert transform_columns(p, 50)[0][-1] > 0

    def test_default_min_separation_counts(self, reference):
        # Default h_min is 8 mm, so 174 mm rods stroke 332 mm of 340 mm.
        p = reference._replace(wheel=reference.wheel._replace(
            rod_half_length=174.0, min_half_separation=None))
        assert validate(p).valid
        p = p._replace(wheel=p.wheel._replace(rod_half_length=178.0))
        assert not validate(p).valid

    def test_entry_points_refuse(self, reference):
        p = overrunning(reference)
        with pytest.raises(InvalidDesignError):
            design_card(p)
        with pytest.raises(InvalidDesignError):
            transform_columns(p, 50)

    def test_accepted_designs_compute(self):
        # Over the unfiltered generator, overrunning designs included:
        # validate refuses a design, or its card and profile compute.
        rng = random.Random(0)
        refused = 0
        for _ in range(1000):
            p = random_params(rng)
            if not validate(p).valid:
                refused += 1
                continue
            design_card(p)
            transform_columns(p, 50)
        assert 0 < refused < 1000

    def test_cli_exits_0_or_1_on_random_designs(self, tmp_path, capsys):
        rng = random.Random(1)
        path = tmp_path / "design.yaml"
        for _ in range(100):
            p = random_params(rng)
            path.write_text(params.serialize(p), encoding="utf-8")
            expected = 0 if validate(p).valid else 1
            assert main(["validate", "--config", str(path)]) == expected
            assert main(["report", "--config", str(path)]) == expected
        assert "Traceback" not in capsys.readouterr().err


class TestValidateOnce:
    def test_two_reads_validate_once(self, reference, count_validate):
        assert reference.validation is reference.validation
        assert len(count_validate) == 1

    def test_the_report_leaves_the_design_unchanged(self, reference):
        fresh = reference_design()
        assert reference.validation.valid
        assert reference == fresh
        assert hash(reference) == hash(fresh)
        assert repr(reference) == repr(fresh)
        assert "validation" not in reference._fields
        with pytest.raises(AttributeError):
            reference.validation = validate(fresh)

    def test_entry_points_after_the_report_is_read_do_not_validate(
            self, reference, count_validate):
        assert reference.validation.valid
        count_validate.clear()
        design_card(reference)
        consistency_warnings(reference)
        telescopic.module_lengths(reference)
        transform_columns(reference, 50)
        assert count_validate == []

    def test_a_replaced_design_gets_its_own_report(self, reference):
        assert reference.validation.valid
        p = overrunning(reference)
        with pytest.raises(InvalidDesignError):
            design_card(p)
        with pytest.raises(InvalidDesignError):
            transform_columns(p, 50)

    def test_card_carries_the_design_report(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_valid_params(rng)
            assert design_card(p).validation == validate(p)

    def test_card_without_a_report_validates_once(self, reference, count_validate):
        design_card(reference)
        assert len(count_validate) == 1

    def test_sweep_point_validates_once(self, reference, count_validate, monkeypatch):
        # A sweep checks each point once, by the stages that read the swept
        # field; the others run on its first point only.
        stages = count_stages(monkeypatch)
        point = own_point(reference)
        assert count_validate == []
        assert stage_runs(stages) == sweep_runs(2, 0)
        assert bits(point.values()) == bits(sweep_row(reference))

    def test_cli_validate_validates_once(self, count_validate, design_file):
        assert main(["validate", "--config", design_file]) == 0
        assert len(count_validate) == 1

    def test_cli_report_validates_once(self, count_validate, design_file):
        assert main(["report", "--config", design_file]) == 0
        assert len(count_validate) == 1

    def test_cli_profile_validates_once(self, count_validate, design_file, tmp_path):
        assert main(["profile", "--config", design_file, "--steps", "20",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert len(count_validate) == 1

    def test_card_computes_each_quantity_once(self, reference, monkeypatch):
        # Validation checks the chassis at the largest tilt for overflow; the
        # card itself computes it once, at its own tilt, and takes the module
        # lengths from validation.
        assert reference.validation.valid
        lengths = count_calls(monkeypatch, telescopic, "module_lengths")
        chassis = count_calls(monkeypatch, bending, "chassis_diameter")
        card = design_card(reference)
        assert lengths == []
        assert [args[1] for args in chassis] == [report_module.DEFAULT_TOTAL_BEND / 4]
        assert card.warnings == consistency_warnings(reference)

    @pytest.mark.parametrize("verb", ["validate", "report"])
    def test_cli_parses_the_config_once(self, count_parses, design_file, verb):
        # The plain reader reads the file once.
        assert main([verb, "--config", design_file]) == 0
        text = Path(design_file).read_text(encoding="utf-8")
        assert count_parses == [(text, "config")]

    def test_cli_report_parses_config_and_force_table_once_each(
            self, count_parses, design_file):
        assert main(["report", "--config", design_file,
                     "--force-table", str(FORCE_TABLE)]) == 0
        text = Path(design_file).read_text(encoding="utf-8")
        table = FORCE_TABLE.read_text(encoding="utf-8")
        assert count_parses == [(text, "config"), (table, "force table")]

    @pytest.mark.parametrize("verb", ["validate", "report"])
    def test_cli_parses_a_yaml_config_once(self, count_parses, tmp_path, capsys, verb):
        # Four-space indentation is YAML but not plain: one scan refuses it
        # at its first key line.
        text = params.serialize(reference_design()).replace("\n  ", "\n    ")
        path = tmp_path / "design.yaml"
        path.write_text(text, encoding="utf-8")
        assert main([verb, "--config", str(path)]) == 2
        assert count_parses == [(text, "config")]
        assert capsys.readouterr() \
            == ("", "error: config line is outside the plain grammar (line: 2)\n")

    def test_cli_sweep_validates_once_per_point(self, count_validate, design_file, tmp_path,
                                                monkeypatch):
        # The loaded design validates; each point runs the checks that read
        # the swept field, and the others run once, on the first point.
        stages = count_stages(monkeypatch)
        assert main(["sweep", "--config", design_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "10:200:40", "--objective", "max-wheel-radius",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert len(count_validate) == 1
        assert stage_runs(stages) == sweep_runs(40, 1)

    def test_a_sweep_point_builds_no_report(self, count_reports, reference, design_file,
                                            tmp_path):
        # A point's check gives its violations and quantities; only the
        # design that the CLI loads builds a report.
        spec = SweepSpec("screw.screw_level_length", 20.0, 50.0, 50,
                         Objective.MIN_REDUCED_LENGTH)
        assert sweep(reference, spec, lambda row: None)["status"] == "ok"
        assert count_reports == []
        assert main(["sweep", "--config", design_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "10:200:50", "--objective", "max-wheel-radius",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert len(count_reports) == 1

    def test_sweep_checks_no_reported_value(self, count_validate, monkeypatch, reference):
        # A sweep row carries no verdict, so a point runs no verdict entry
        # and nothing that only the card prints. One card of the design,
        # which the sweep did not validate, runs each entry of the table
        # once; ``verdicts`` then runs no stage and no entry of the card's.
        stages = count_stages(monkeypatch)
        spec = SweepSpec("wheel.hub_offset", 10.0, 200.0, 50, Objective.MAX_WHEEL_RADIUS)
        assert sweep(reference, spec, lambda row: None)["status"] == "ok"
        assert len(count_validate) == 0
        assert stage_runs(stages) == sweep_runs(50, 0)
        for runs in stages.values():
            runs.clear()
        design_card(reference)
        assert stage_runs(stages) == dict.fromkeys(ENTRY_NAMES, 1)
        for runs in stages.values():
            runs.clear()
        verdicts(reference)
        assert stage_runs(stages) \
            == {name: name in METRIC_NAMES + VERDICT_NAMES for name in ENTRY_NAMES}


# The card's flag on each reported target, and the verdict it reads.
TARGET_FLAGS = {"target_elongated_ok": "elongated_length_mismatch",
                "target_reduced_ok": "reduced_length_mismatch",
                "target_wheel_diameter_ok": "wheel_diameter_mismatch"}
CARD_FLAGS = ("reduction_ok", "motor_check_ok")


def passes(code, computed, reported):
    """Whether a verdict of ``code`` passes on its values, under the tolerance
    of its kind: none for a flag or the stroke, the derived gap's scale for
    the identity of the reported lengths, the reported value's for the rest."""
    if code in CARD_FLAGS:
        return computed <= reported
    if code == "wheel_stroke_exceeds_telescopic_stroke":
        return computed >= reported
    scale = computed if code == "reported_length_identity" else reported
    return abs(computed - reported) <= 1e-6 * max(1.0, abs(scale))


@st.composite
def verdict_designs(draw):
    """A random valid design whose stall torque is drawn, or its peak torque
    on the default table, or half that, with no reported values, the
    reference's, values drawn as ``TestPrintReport`` draws them, or its own
    values at the default bend, some moved to either side of the tolerance."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = random_valid_params(rng)
    peak = quasistatics.peak_load(p)[1]
    stall = draw(st.sampled_from([p.drive.motor_stall_torque, peak, peak / 2]))
    p = p._replace(drive=p.drive._replace(motor_stall_torque=stall))
    kind = draw(st.sampled_from(["none", "reference", "drawn", "own"]))
    if kind == "reference":
        return p._replace(reported=reference_design().reported)
    if kind == "drawn":
        return p._replace(reported=params.ReportedTargets(
            *[rng.choice([None, rng.uniform(1.0, 1000.0)]) for _ in range(5)]))
    if kind == "own":
        theta = report_module.DEFAULT_TOTAL_BEND / p.platform.plate_count
        own = (params.elongated_length(p), params.reduced_length(p),
               bending.chassis_diameter(p, theta).chassis_diameter,
               2.0 * wheelgeom.transform_endpoint_radius(p), bending.rod_half_expansion(p, theta))
        scales = st.sampled_from([None, 1.0, 1.0 + 5e-7, 1.0 - 5e-7, 1.0 + 2e-6, 1.5])
        rep = params.ReportedTargets(*[None if (k := draw(scales)) is None else v * k
                                       for v in own])
        if rep.elongated_length is not None and (k := draw(scales)) is not None:
            # A reduced length whose gap to the elongated one is near the derived gap.
            gap = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
            rep = rep._replace(reduced_length=rep.elongated_length - gap * k)
        return p._replace(reported=rep)
    return p


class TestVerdicts:
    @given(p=verdict_designs(), target_ratio=st.floats(0.0, 1.0, exclude_min=True),
           total_bend=st.floats(1e-9, math.pi / 2),
           table=st.sampled_from(sorted(TABLES)))
    @settings(max_examples=300, deadline=None)
    def test_the_list_gives_the_card_and_the_warnings(self, p, target_ratio, total_bend, table):
        table = TABLES[table]
        kwargs = {"target_ratio": target_ratio, "total_bend": total_bend, "table": table}
        if total_bend / p.platform.plate_count > bending.MAX_PLATE_TILT:
            for run in (verdicts, design_card):
                with pytest.raises(ValueError, match="theta_plate"):
                    run(p, **kwargs)
            return
        found = {v.code: v for v in verdicts(p, **kwargs)}
        card = design_card(p, **kwargs)
        # The card's PASS/FAIL values are its verdicts', and the reference's.
        flags = {key: value for key, value in card.outputs.items() if isinstance(value, bool)}
        assert flags == oracles.card_flags(p, target_ratio, total_bend, table)
        assert flags == {**{code: found[code].passed for code in CARD_FLAGS},
                         **{key: found[code].passed for key, code in TARGET_FLAGS.items()
                            if code in found}}
        # The failed verdicts that are not flags are the reference's warnings.
        failed = [v for v in found.values() if not (v.passed or v.code in CARD_FLAGS)]
        assert card.warnings == tuple(failed)
        assert [(v.code, v.detail, v.computed, v.reported) for v in failed] \
            == list(oracles.warnings(p, total_bend))
        assert [(w.code, w.detail, w.computed, w.reported) for w in consistency_warnings(p)] \
            == list(oracles.warnings(p))
        # Each verdict passes exactly when its values meet its tolerance.
        for v in found.values():
            assert v.passed == passes(v.code, v.computed, v.reported), v


    @pytest.mark.parametrize("keyword, value", [
        *(pytest.param("total_bend", bend, id=str(bend))
          for bend in (3.0, 0.0, -0.5, math.nan, math.inf)),
        *(pytest.param("target_ratio", target, id=f"target_ratio={target}")
          for target in (2.0, 0.0, -0.5, math.nan, math.inf))])
    @pytest.mark.parametrize("run", [design_card, verdicts])
    def test_a_bend_outside_the_envelope_is_refused(self, reference, run, keyword, value):
        # ``bending.bend_state`` and the CLI's ``--total-bend`` refuse these
        # bends too: the envelope is (0, pi/2]. The target ratio's range,
        # which ``--target-ratio`` and the inverse sizing take, is (0, 1].
        with pytest.raises(ValueError, match=keyword):
            run(reference, **{keyword: value})

    def test_a_wheel_stroke_that_ends_at_the_reduced_length_passes(self, reference):
        # At a minimum half-separation of 80 mm the 140 mm rods travel 60 mm,
        # so the stroke ends at 340 - 2 * 60 = 220 mm, the reduced length,
        # exactly. One ulp less separation ends it one ulp below: it fails.
        for h_min, end in ((80.0, 220.0), (math.nextafter(80.0, 0.0), math.nextafter(220.0, 0.0))):
            p = set_field(reference, "wheel.min_half_separation", h_min)
            found = {v.code: v for v in verdicts(p)}["wheel_stroke_exceeds_telescopic_stroke"]
            assert (found.computed, found.reported, found.passed) == (end, 220.0, end == 220.0)

    def test_the_largest_bend_over_one_plate_names_the_plate_tilt(self, reference):
        # A bend inside the envelope that tilts one plate past pi/4.
        p = reference._replace(platform=reference.platform._replace(plate_count=1))
        for run in (verdicts, design_card):
            with pytest.raises(ValueError, match=re.escape("theta_plate must be in [0, pi/4]")):
                run(p, total_bend=math.pi / 2)


PACKAGE = (params, telescopic, bending, wheelgeom, quasistatics, report_module, cli)
# The formulas whose values validation keeps for the card and the sweep.
FORMULAS = ("elongated_length", "reduced_length", "transform_endpoint_radius", "peak_load")


def count_formulas(monkeypatch):
    """Per name in ``FORMULAS``, the argument tuples of every later call
    through any module's binding of it."""
    calls = {}
    for name in FORMULAS:
        calls[name] = counted = []
        for module in PACKAGE:
            original = getattr(module, name, None)
            if original is not None:
                def wrapper(*args, _original=original, _counted=counted, **kwargs):
                    _counted.append(args)
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDeriveOnce:
    """Validation keeps the elongated length, the wheel radius and the peak
    load it checks for overflow; the card and a sweep point read them."""

    def test_sweep_point_derives_each_quantity_once(self, monkeypatch):
        # The first point of a sweep of the hub offset derives each quantity
        # once, the second only the wheel radius.
        calls = count_formulas(monkeypatch)
        point = own_point(reference_design())
        assert {name: len(c) for name, c in calls.items()} \
            == {name: 1 + (name == "transform_endpoint_radius") for name in FORMULAS}
        assert bits(point.values()) == bits(sweep_row(reference_design()))

    @pytest.mark.parametrize("table", [None, default_force_table()], ids=["none", "default"])
    def test_default_table_card_derives_each_quantity_once(self, monkeypatch, table):
        calls = count_formulas(monkeypatch)
        design_card(reference_design(), table=table)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(FORMULAS, 1)

    def test_another_table_gets_its_own_peak(self, monkeypatch):
        table = TABLES["force_table.yaml"]
        calls = count_formulas(monkeypatch)
        design_card(reference_design(), table=table)
        # Validation's, on the default table, then the card's.
        assert [args[1:] for args in calls["peak_load"]] == [(), (table,)]

    @pytest.mark.parametrize("verb, peaks", [("report", [(), (TABLES["force_table.yaml"],)]),
                                             ("profile", [()])])
    def test_a_force_table_run_computes_each_peak_once(self, monkeypatch, design_file,
                                                       tmp_path, verb, peaks):
        # Validation's peak, on the default table, and the card's, on the
        # table given; the profile checks its first torque, which is that peak.
        calls = count_calls(monkeypatch, quasistatics, "peak_load")
        out = ["--out", str(tmp_path / "p.csv")] if verb == "profile" else []
        assert main([verb, "--config", design_file, "--force-table", str(FORCE_TABLE),
                     *out]) == 0
        assert [args[1:] for args in calls] == peaks

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_min=True),
           st.floats(1e-9, math.pi / 2), st.sampled_from(sorted(TABLES)))
    @settings(max_examples=200, deadline=None)
    def test_the_report_keeps_what_validation_gave(self, seed, target_ratio, total_bend, table):
        p = random_valid_params(random.Random(seed))
        derived = p.validation.derived
        with pytest.raises(TypeError):
            derived["reduction_ratio"] = 0.0
        with pytest.raises(TypeError):
            del derived["peak_torque_Nmm"]
        before = list(derived.items())
        kwargs = {"target_ratio": target_ratio, "total_bend": total_bend, "table": TABLES[table]}
        for run in (design_card, verdicts):
            with contextlib.suppress(ValueError):  # a bend that tilts a plate past pi/4
                run(p, **kwargs)
        consistency_warnings(p)
        assert p.validation.derived is derived
        assert bits(derived.items()) == bits(before)
        # The card prints validation's values, its peak on the default table.
        card = design_card(p).outputs
        keys = ("elongated_length_mm", "reduced_length_mm", "reduction_ratio", "wheel_radius_mm",
                "peak_axial_force_N", "peak_torque_Nmm")
        assert bits(derived[key] for key in keys) == bits(card[key] for key in keys)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, *sorted(TABLES)]))
    @settings(max_examples=200, deadline=None)
    def test_one_entry_gives_each_quantity(self, seed, table):
        # No entry after validation gives a key that validation, a seed or
        # another entry gave, but ``_motor_check_ok`` the peak on a table
        # other than the default.
        p = random_valid_params(random.Random(seed))
        peak = ["peak_axial_force_N", "peak_torque_Nmm"] if table == "force_table.yaml" else []
        got = {**p.validation.derived, **report_module._SEEDS, "table": table and TABLES[table]}
        for _, entry in report_module._METRICS + report_module._FLAGGED \
                + report_module._WARNED + report_module._CARD_ONLY:
            gave = entry(p, [], got) or {}
            again = peak if entry.__name__ == "_motor_check_ok" else []
            assert [key for key in gave if key in got] == again
            got.update(gave)

    def test_a_report_pickles(self, reference):
        # Through its dict: a mapping proxy does not pickle itself.
        for report in (reference.validation, validate(overrunning(reference))):
            copy = pickle.loads(pickle.dumps(report))
            assert copy == report and type(copy.derived) is type(report.derived)
        # A validated design takes its report along.
        design = pickle.loads(pickle.dumps(reference))
        assert design.__dict__["validation"] == reference.validation

    def test_cli_sweep_derives_each_quantity_once_per_point(self, monkeypatch, design_file,
                                                           tmp_path):
        # The loaded design's validation, then each point's quantities that
        # read the swept field, and the others once, at the first point.
        for path, varying in (("wheel.hub_offset", "transform_endpoint_radius"),
                              ("drive.screw_friction", "peak_load")):
            calls = count_formulas(monkeypatch)
            assert main(["sweep", "--config", design_file, "--sweep-param", path,
                         "--sweep-range", "0.1:0.5:40", "--objective", "min-peak-torque",
                         "--out", str(tmp_path / "s.csv")]) == 0
            assert {name: len(c) for name, c in calls.items()} \
                == {name: 1 + (40 if name == varying else 1) for name in FORMULAS}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_values_are_the_formulas(self, seed):
        # Each entry point gets a design of its own, with no report yet.
        p = random_valid_params(random.Random(seed))
        table = default_force_table()
        row = sweep_row(p)
        lengths = telescopic.module_lengths(p._replace())
        assert bits([*lengths, lengths.reduced / lengths.elongated]) == bits(row[:3])
        assert bits(own_point(p._replace()).values()) == bits(row)
        force = quasistatics.peak_load(p, table)[0]
        keys = ("elongated_length_mm", "reduced_length_mm", "reduction_ratio",
                "chassis_diameter_mm", "wheel_radius_mm", "wheel_diameter_mm",
                "peak_axial_force_N", "peak_torque_Nmm")
        expected = bits([*row[:5], 2.0 * row[4], force, row[5]])
        for card_table in (None, table):
            card = design_card(p._replace(), table=card_table).outputs
            assert bits(card[key] for key in keys) == expected


NUMERIC_PATHS = [(f"{section}.{name}", hint is int)
                 for section, cls in typing.get_type_hints(params.DesignParams).items()
                 for name, hint in typing.get_type_hints(cls).items()]
BLANK = ("",) * 7


def replaced(p, path, value):
    """Oracle for a sweep point: ``p`` with one field set by plain ``_replace``."""
    section, name = path.split(".")
    return p._replace(**{section: getattr(p, section)._replace(**{name: value})})


def expected_row(i, value, p, metric):
    report = validate(p)
    if not report.valid:
        fields = dict.fromkeys(v.field for v in report.violations)
        return (i, value, *BLANK, "invalid", " ".join(fields))
    row = sweep_row(p)
    return (i, value, *row, row[SWEEP_METRICS.index(metric)], "ok", "")


def swept(p, spec):
    """The rows ``report.sweep`` emits, and the best row it returns."""
    rows = []
    best = sweep(p, spec, rows.append)
    return rows, best


def random_spec(rng, p, path, is_count):
    objective = rng.choice(list(Objective))
    current = operator.attrgetter(path)(p)
    steps = rng.randint(2, 12)
    if is_count:
        start = rng.randint(0, 4)
        return SweepSpec(path, start, start + rng.randint(1, 2) * (steps - 1), steps, objective)
    if current is None or current == 0:
        return SweepSpec(path, 0.0, rng.uniform(1.0, 300.0), steps, objective)
    return SweepSpec(path, current * rng.uniform(-0.5, 1.0), current * rng.uniform(1.1, 3.0),
                     steps, objective)


# Float fields that -1 violates: every one outside ``reported``.
CHECKED_FLOAT_PATHS = [path for path, is_count in NUMERIC_PATHS
                       if not is_count and not path.startswith("reported.")]


class TestSweep:
    def test_rows_match_points_built_by_replace(self):
        # Every numeric field of random designs, count fields included, on
        # grids of 2 to 12 points. Every other design has a violation in a
        # section that is not swept, which every row of it lists, with the
        # fields in ``validate``'s order.
        rng = random.Random(7)
        statuses = set()
        for k in range(50):
            valid = random_valid_params(rng)
            for path, is_count in NUMERIC_PATHS:
                p = valid
                if k % 2:
                    section = path.partition(".")[0]
                    broken = rng.choice([f for f in CHECKED_FLOAT_PATHS
                                         if not f.startswith(section + ".")])
                    p = set_field(valid, broken, -1.0)
                    assert broken in {v.field for v in validate(p).violations}
                spec = random_spec(rng, p, path, is_count)
                got, got_best = swept(p, spec)
                expected = []
                for i in range(spec.steps):
                    x = spec.value(i)
                    value = int(x) if is_count else float(x)
                    expected.append(expected_row(i, value, replaced(p, path, value),
                                                 spec.metric))
                assert [bits(row) for row in got] == [bits(row) for row in expected], path
                assert [type(row[1]) for row in got] \
                    == [int if is_count else float] * spec.steps
                if k % 2:
                    assert all(broken in row[-1].split() for row in got)
                ok = [row for row in expected if row[-2] == "ok"]
                pick = max if spec.maximise else min
                best = pick(ok, key=lambda row: row[-3]) if ok else None
                assert got_best == (None if best is None
                                    else dict(zip(sweep_columns(spec), best)))
                statuses.update(row[-2] for row in got)
        assert statuses == {"ok", "invalid"}

    @given(st.integers(0, 2**32 - 1), st.sampled_from(NUMERIC_PATHS))
    @settings(max_examples=200, deadline=None)
    def test_every_ok_row_is_the_card_of_its_design(self, seed, path_kind):
        # Every numeric path, counts and the platform's among them: a row's
        # metrics are the card's of the design that the swept field makes,
        # at each point, not only before a plan is reused.
        path, is_count = path_kind
        rng = random.Random(seed)
        p = random_valid_params(rng)
        spec = random_spec(rng, p, path, is_count)
        at = params._field_path(path).setter(p)
        for row in swept(p, spec)[0]:
            if row[-2] == "ok":
                card = design_card(at(row[1])).outputs
                assert bits(row[2:2 + len(SWEEP_METRICS)]) \
                    == bits(card[m] for m in SWEEP_METRICS), row

    def test_first_of_equal_objectives_is_best(self, reference):
        # The hub offset leaves the reduced length alone: every row ties.
        spec = SweepSpec("wheel.hub_offset", 10.0, 90.0, 5, Objective.MIN_REDUCED_LENGTH)
        rows, best = swept(reference, spec)
        assert len({row[-3] for row in rows}) == 1
        assert best["index"] == 0

    def test_path_and_grid_checked_before_any_point(self, reference, count_validate,
                                                    monkeypatch):
        stages = count_stages(monkeypatch)
        with pytest.raises(ConfigError, match="unresolvable parameter path"):
            swept(reference, SweepSpec("wheel.nope", 1.0, 2.0, 3, Objective.MIN_PEAK_TORQUE))
        emitted = []
        with pytest.raises(ConfigError, match="got 1.5"):
            sweep(reference, SweepSpec("screw.n_levels", 1.0, 2.0, 3,
                                       Objective.MIN_PEAK_TORQUE), emitted.append)
        assert emitted == [] and count_validate == []
        assert stage_runs(stages) == dict.fromkeys(ENTRY_NAMES, 0)
        rows, _ = swept(reference, SweepSpec("wheel.hub_offset", 1.0, 2.0, 3,
                                             Objective.MIN_PEAK_TORQUE))
        assert len(rows) == 3
        # Checks per point, none through ``validate``, nor of the design swept.
        assert count_validate == []
        assert stage_runs(stages) == sweep_runs(3, 0)

    def test_derived_fields_follow_the_swept_field(self, reference):
        spec = SweepSpec("screw.n_levels", 3.0, 6.0, 4, Objective.MIN_REDUCED_LENGTH)
        assert [row[-2] for row in swept(reference, spec)[0]] == ["ok"] * 4
        spec = SweepSpec("layout.joint_arm_height", 4.0, 6.0, 3, Objective.MIN_REDUCED_LENGTH)
        assert [row[3] for row in swept(reference, spec)[0]] == [216.0, 220.0, 224.0]

    def test_unset_optional_fields_can_be_swept(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(min_half_separation=None),
            reported=params.ReportedTargets())
        spec = SweepSpec("wheel.min_half_separation", 0.0, 200.0, 3, Objective.MAX_WHEEL_RADIUS)
        rows, _ = swept(p, spec)
        assert [row[1] for row in rows] == [0.0, 100.0, 200.0]
        assert [row[-2] for row in rows] == ["ok", "ok", "invalid"]
        assert rows[2][-1] == "wheel.min_half_separation"
        spec = SweepSpec("reported.wheel_diameter", 300.0, 500.0, 3, Objective.MAX_WHEEL_RADIUS)
        assert [row[-2] for row in swept(p, spec)[0]] == ["ok"] * 3

    def test_memory_does_not_grow_with_the_grid(self, design_file, tmp_path):
        def peak(points):
            tracemalloc.start()
            try:
                assert main(["sweep", "--config", design_file, "--sweep-param",
                             "wheel.hub_offset", "--sweep-range", f"10:200:{points}",
                             "--objective", "max-wheel-radius",
                             "--out", str(tmp_path / "s.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(500)  # first use: imports, caches and the parser
        small, large = peak(500), peak(4000)
        with open(tmp_path / "s.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 4001
        # Holding the 3500 extra designs or rows would take megabytes.
        assert large - small < 16 * 1024


# Config fields with a float value, and the count fields. A count sets the
# size of what ``report`` prints (the diameter ladder has ``n_levels``
# entries), so counts are drawn small; floats reach ``sys.float_info.max``.
FLOAT_PATHS = [path for path, is_count in NUMERIC_PATHS if not is_count]
COUNT_PATHS = [path for path, is_count in NUMERIC_PATHS if is_count]


REFERENCE_BYTES = (Path(__file__).resolve().parent.parent / "configs"
                   / "reference.yaml").read_bytes()
# Bytes a mutation writes: YAML syntax and digits often, any byte sometimes.
MUTATION_BYTES = st.one_of(st.sampled_from(b"0123456789.-+:eE ,[]{}#&*!|>'\"\n\t~_"),
                           st.integers(0, 255))


@st.composite
def mutated_reference(draw) -> bytes:
    """``configs/reference.yaml`` with a few bytes replaced, inserted or
    deleted."""
    data = bytearray(REFERENCE_BYTES)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "delete":
            del data[at]
        else:
            data[at:at + (edit == "replace")] = bytes([draw(MUTATION_BYTES)])
    return bytes(data)


def run_four_verbs(work: Path, config: bytes, sweep_path: str, sweep_range: str):
    """Exit codes of ``validate``, ``report``, ``profile`` and ``sweep`` on
    the config bytes, their stderr, the sweep's rows (None unless it wrote
    them) and the stdout of ``report``."""
    path, csv_out, sweep_out = work / "design.yaml", work / "p.csv", work / "s.csv"
    path.write_bytes(config)
    codes, outs = {}, {}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        for verb, extra in (("validate", []), ("report", []),
                            ("profile", ["--steps", "3", "--out", str(csv_out)]),
                            ("sweep", ["--sweep-param", sweep_path,
                                       f"--sweep-range={sweep_range}",
                                       "--objective", "min-peak-torque",
                                       "--out", str(sweep_out)])):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    codes[verb] = main([verb, "--config", str(path), *extra])
                except SystemExit as exc:  # argparse refuses the arguments
                    codes[verb] = exc.code
            outs[verb] = out.getvalue()
    rows = list(csv.DictReader(sweep_out.open())) if sweep_out.exists() else None
    return codes, err.getvalue(), rows, outs["report"]


def assert_no_crash(codes, err):
    """Every verb exits 0, 1 or 2 with no traceback, and a design that
    ``validate`` accepts reports and profiles."""
    assert set(codes.values()) <= {0, 1, 2}, codes
    assert "Traceback" not in err
    if codes["validate"] == 0:
        assert codes["report"] == codes["profile"] == 0, err


# Any float up to the largest, and often one within a factor 16 of it, so
# that a sum or a product of a few fields overflows.
HUGE_FLOATS = st.one_of(st.floats(min_value=-1.0, max_value=sys.float_info.max),
                        st.floats(min_value=sys.float_info.max / 16,
                                  max_value=sys.float_info.max))


@st.composite
def huge_designs(draw, max_floats=4):
    """The reference design, or a ``random_params`` design whose rod pair
    need not fold (its minimal half separation drawn up to 600 mm), with up
    to ``max_floats`` float fields up to ``sys.float_info.max`` and two
    small counts."""
    base = draw(st.one_of(st.none(), st.tuples(st.integers(0, 2**32 - 1),
                                               st.floats(0.0, 600.0))))
    if base is None:
        p = reference_design()
    else:
        seed, h_min = base
        p = set_field(random_params(random.Random(seed)), "wheel.min_half_separation", h_min)
    floats = draw(st.dictionaries(st.sampled_from(FLOAT_PATHS), HUGE_FLOATS, max_size=max_floats))
    counts = draw(st.dictionaries(st.sampled_from(COUNT_PATHS), st.integers(0, 12),
                                  max_size=2))
    for path, value in {**floats, **counts}.items():
        p = set_field(p, path, value)
    return p


def refuse_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


class TestHugeFields:
    @given(huge_designs(), st.sampled_from(FLOAT_PATHS),
           st.lists(st.floats(min_value=-1.0, max_value=sys.float_info.max),
                    min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_accepted_designs_report_and_profile(self, tmp_path_factory, p, sweep_path,
                                                 sweep_ends):
        work = tmp_path_factory.mktemp("huge")
        start, stop = sweep_ends
        codes, err, rows, card = run_four_verbs(work, params.serialize(p).encode("utf-8"),
                                                sweep_path, f"{start!r}:{stop!r}:3")
        assert_no_crash(codes, err)
        if codes["validate"] == 0:
            text = (work / "p.csv").read_text()
            assert "nan" not in text and "inf" not in text, text
            assert not re.search(r"\b(inf|nan)\b", card), card
        for row in rows or ():
            if row["status"] == "ok":
                assert all(math.isfinite(float(row[m])) for m in SWEEP_METRICS), row

    # Two huge fields rather than four: more of the designs are accepted.
    @given(huge_designs(max_floats=2), st.sampled_from([2, 3, 50]))
    @settings(max_examples=500, deadline=None)
    def test_accepted_designs_write_finite_keyframes(self, tmp_path_factory, p, steps):
        # The keyframe encoder writes each float as its repr, which is JSON
        # only for a finite float: every state of an accepted design must be.
        text = params.serialize(p)
        try:
            p = params.load(text)
        except ConfigError:  # a field the design derives is past the float range
            return
        if not p.validation.valid:
            return
        work = tmp_path_factory.mktemp("keyframes")
        (work / "design.yaml").write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["profile", "--config", str(work / "design.yaml"),
                         "--steps", str(steps), "--out", str(work / "p.csv")]) == 0
        frames = (work / "p_keyframes.json").read_text(encoding="utf-8")
        json.loads(frames, parse_constant=refuse_constant)
        assert frames == keyframes_json(oracles.transform_profile(p, steps), p)

    # The promises of ``transform_columns``'s docstring, on the CSV: the
    # module length falls strictly, the wheel radius rises strictly and only
    # the first state is telescopic. Validation leaves a wheel stroke that
    # floats resolve into a few dozen states; a finer step count is refused.
    @given(huge_designs(max_floats=2), st.sampled_from([2, 3, 50, 2000]))
    @settings(max_examples=300, deadline=None)
    def test_accepted_designs_keep_the_profile_promises(self, tmp_path_factory, p, steps):
        text = params.serialize(p)
        try:
            p = params.load(text)
        except ConfigError:  # a field the design derives is past the float range
            return
        if not p.validation.valid:
            return
        work = tmp_path_factory.mktemp("promises")
        (work / "design.yaml").write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["profile", "--config", str(work / "design.yaml"),
                         "--steps", str(steps), "--out", str(work / "p.csv")])
        if code != 0:
            assert (steps, code) == (2000, 2), err.getvalue()
            assert err.getvalue().startswith("error: --steps: 2000 steps are finer")
            assert sorted(f.name for f in work.iterdir()) == ["design.yaml"]
            return
        rows = list(csv.DictReader((work / "p.csv").open()))
        lengths = [float(r["module_length_mm"]) for r in rows]
        radii = [float(r["wheel_radius_mm"]) for r in rows]
        assert all(a > b for a, b in zip(lengths, lengths[1:])), lengths
        assert all(a < b for a, b in zip(radii, radii[1:])), radii
        assert [r["trigger_mode"] for r in rows] == ["telescopic"] + ["rigid"] * (steps - 1)

    @given(st.one_of(st.binary(max_size=300), mutated_reference()),
           st.sampled_from(FLOAT_PATHS + COUNT_PATHS))
    @settings(max_examples=300, deadline=None)
    def test_malformed_bytes(self, tmp_path_factory, config, sweep_path):
        codes, err, _, _ = run_four_verbs(tmp_path_factory.mktemp("bytes"), config,
                                          sweep_path, "1:4:4")
        assert_no_crash(codes, err)


# The whole table of quantities: the stages of ``validate``, which end at
# ``VALIDATED``, then the entries after them, of which a sweep runs those
# before ``SWEPT``.
STAGES = sum((getattr(module, name) for module, name in TABLE_PARTS), ())
VALIDATED = len(params._STRUCTURE + params._OVERFLOWS)
SWEPT = VALIDATED + len(report_module._METRICS)
PATHS = [path for path, _ in NUMERIC_PATHS]


def stage_results(p, index):
    """``repr`` of the violations and the quantities of entry ``index`` on
    ``p``, fed by the seeds at their defaults and the entries before it, or
    None for an entry that does not run on the design: an overflow stage on
    a structurally unsound design, an entry after validation on an invalid
    one."""
    got, violations = dict(report_module._SEEDS), []
    for i, (_, stage) in enumerate(STAGES[:index + 1]):
        if i in (len(params._STRUCTURE), VALIDATED) and violations:
            return None
        found = []
        gave = stage(p, found, got)
        violations += found
        got.update(gave or {})
    return repr(found), repr(gave)


# The quantities that validation's stages give, in their order.
DERIVED = ("elongated_length_mm", "reduced_length_mm", "travel", "reduction_ratio",
           "wheel_radius_mm", "peak_axial_force_N", "peak_torque_Nmm")


def checked_report(violations, got):
    """The ``validate`` report of a design whose varying check gave
    ``violations`` and the quantities ``got``: those of validation's stages
    as its read-only ``derived``."""
    if violations:
        return params.ValidationReport(tuple(violations))
    return params.ValidationReport((), types.MappingProxyType({key: got[key] for key in DERIVED}))


# Values at which a check of one field may fail: out of range, or at or
# near the ends of the float range, the largest most often.
BREAKING_FLOATS = st.sampled_from([-1.0, 0.0, 1e-300, sys.float_info.max / 3,
                                   sys.float_info.max, sys.float_info.max])


@st.composite
def stage_designs(draw):
    """A ``random_params`` design with up to four float fields set to a
    value that may fail a check, and in half of them the rod pair's least
    half separation left unset, so that it is derived from the screw."""
    p = random_params(random.Random(draw(st.integers(0, 2**32 - 1))))
    for path in draw(st.lists(st.sampled_from(FLOAT_PATHS), max_size=4)):
        p = set_field(p, path, draw(BREAKING_FLOATS))
    if draw(st.booleans()):
        p = p._replace(wheel=p.wheel._replace(min_half_separation=None))
    return p


class TestStages:
    """A sweep reuses a stage's results for designs that differ only in
    fields the stage does not declare: so they must not change them."""

    def test_validate_runs_each_stage_once_in_order(self, monkeypatch, reference):
        ran = []
        for name in ("_STRUCTURE", "_OVERFLOWS"):
            monkeypatch.setattr(params, name, tuple(
                (reads, lambda p, v, got, stage=stage: ran.append(stage.__name__)
                 or stage(p, v, got)) for reads, stage in getattr(params, name)))
        assert validate(reference).valid
        assert ran == list(STAGE_NAMES)
        # A structurally unsound design runs no overflow stage.
        ran.clear()
        assert not validate(overrunning(reference)).valid
        assert ran == list(STAGE_NAMES[:len(params._STRUCTURE)])

    def test_validate_builds_no_check(self, monkeypatch, reference):
        # ``validate`` runs the stage tables itself and builds no check.
        built = count_calls(monkeypatch, params, "_varying")
        assert validate(reference).valid
        assert built == []

    @given(stage_designs(), st.lists(st.sampled_from(FLOAT_PATHS), max_size=12),
           BREAKING_FLOATS)
    @settings(max_examples=300, deadline=None)
    def test_validate_is_the_sectioned_stages(self, p, broken, value):
        # The same violations in the same order, and the same derived values,
        # as the stages that each read whole sections. Some fields share one
        # breaking value, so that neighbouring checks often fail together.
        for path in broken:
            p = set_field(p, path, value)
        assert repr(validate(p)) == repr(oracles.validate_by_sections(p))

    @pytest.mark.parametrize("path, varying, start, stop", [
        ("screw.screw_level_length", SCREW_STAGES, 20.0, 50.0),
        ("wheel.hub_offset", WHEEL_STAGES, 10.0, 200.0)])
    def test_a_point_runs_the_stages_that_read_its_field(self, monkeypatch, reference, path,
                                                         varying, start, stop):
        assert set().union(*(reads for reads, _ in STAGES)) <= set(PATHS)
        assert [stage.__name__ for _, stage in STAGES] == list(ENTRY_NAMES)
        assert tuple(stage.__name__ for reads, stage in STAGES[:SWEPT] if path in reads) \
            == varying
        stages = count_stages(monkeypatch)
        spec = SweepSpec(path, start, stop, 50, Objective.MIN_PEAK_TORQUE)
        rows, _ = swept(reference, spec)
        assert [row[-2] for row in rows] == ["ok"] * 50
        assert stage_runs(stages) == sweep_runs(50, 0, varying)

    @pytest.mark.parametrize("index", range(len(STAGES)),
                             ids=[stage.__name__ for _, stage in STAGES])
    @given(stage_designs(), stage_designs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_undeclared_sections_leave_the_stage_alone(self, index, p, donor, data):
        # The fields that the entry does not declare, any of its sections'
        # among them, take the donor's values.
        undeclared = [path for path in PATHS if path not in STAGES[index][0]]
        q = p
        for path in data.draw(st.lists(st.sampled_from(undeclared), min_size=1, unique=True)):
            field = params._field_path(path)
            q = field.setter(q)(getattr(getattr(donor, field.section), field.name))
        results = stage_results(p, index), stage_results(q, index)
        assume(None not in results)
        assert results[0] == results[1]

    @given(stage_designs(), st.sampled_from(PATHS),
           st.lists(stage_designs(), min_size=1, max_size=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_varying_check_is_validate(self, p, path, donors, data):
        # Designs that differ only in the field ``path``, any numeric one: a
        # reported value, or an optional field that ``p`` or a donor leaves
        # unset, takes a drawn value or none. The first few may break the
        # field, so that a check resolves its overflow plan only at a later
        # design; ``p`` itself often violates other fields, whose violations
        # the check replays among the varying field's. A sweep's check also
        # gives the metrics of a valid design, as the card's entries do.
        check = params._varying(
            path, (params._STRUCTURE, params._OVERFLOWS + report_module._METRICS),
            report_module._SEEDS)
        field = params._field_path(path)
        lead = data.draw(st.integers(0, 3)) if path in CHECKED_FLOAT_PATHS else 0
        for i, donor in enumerate(donors):
            value = getattr(getattr(donor, field.section), field.name)
            if i < lead:
                value = -1.0
            elif value is None:
                value = data.draw(st.one_of(st.none(), BREAKING_FLOATS))
            q = field.setter(p)(value)
            violations, got = check(q)
            assert repr(checked_report(violations, got)) == repr(validate(q))
            if not violations:
                card = report_module._quantities(q, report_module._METRICS)
                assert bits(got[m] for m in SWEEP_METRICS) == bits(card[m] for m in SWEEP_METRICS)
