import dataclasses
import random
from pathlib import Path

import pytest

import morphwheel.params as params
from morphwheel import InvalidDesignError, bending, telescopic, validate
from morphwheel.cli import main
from morphwheel.quasistatics import (
    SiliconeForceTable,
    default_force_table,
    load_force_table_path,
    states_torque_profile,
)
from morphwheel.report import consistency_warnings, design_card, sweep_point
from morphwheel.wheelgeom import transform_profile

from conftest import random_params, random_valid_params

FORCE_TABLE = Path(__file__).resolve().parent.parent / "configs" / "force_table.yaml"
TABLES = {"default": default_force_table(), "force_table.yaml": load_force_table_path(FORCE_TABLE)}


def overrunning(reference):
    # 2 * (170 - 0) equals the 340 mm elongated length: the stroke closes
    # the module completely.
    return dataclasses.replace(
        reference, wheel=dataclasses.replace(reference.wheel, rod_half_length=170.0))


def count_calls(monkeypatch, module, name):
    """The argument tuples of every later call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def count_validate(monkeypatch):
    return count_calls(monkeypatch, params, "validate")


@pytest.fixture
def count_yaml_loads(monkeypatch):
    calls = []

    class Counted(params.YAML_LOADER):
        def __init__(self, stream):
            calls.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(params, "YAML_LOADER", Counted)
    return calls


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.yaml"
    path.write_text(params.serialize(params.reference_design()), encoding="utf-8")
    return str(path)


class TestClosedForms:
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_card_and_sweep_point_match_the_profile(self, table_name):
        # Oracle: the maximum and the last entry of full profiles.
        table = TABLES[table_name]
        rng = random.Random(3)
        for _ in range(500):
            p = random_valid_params(rng)
            card = design_card(p, table=table).outputs
            point = sweep_point(p, table)
            for steps in (2, 50, 200):
                states = transform_profile(p, steps)
                torques = states_torque_profile(p, states, table)
                peak_force = max(e.axial_force for e in torques.entries)
                assert card["peak_axial_force_N"] == peak_force
                assert card["peak_torque_Nmm"] == torques.peak_torque
                assert point["peak_torque_Nmm"] == torques.peak_torque
                assert card["wheel_radius_mm"] == states[-1].wheel_radius
                assert point["wheel_radius_mm"] == states[-1].wheel_radius

    def test_table_starting_below_zero_compression(self, reference):
        # The peak force is interpolated at 0 cm, not the first sample.
        table = SiliconeForceTable(samples=((-1.0, 5.0), (3.0, 1.0), (9.0, 0.0)))
        card = design_card(reference, table=table).outputs
        assert card["peak_axial_force_N"] == 4.0
        torques = states_torque_profile(reference, transform_profile(reference, 50), table)
        assert card["peak_torque_Nmm"] == torques.peak_torque

    def test_sweep_point_matches_the_card(self, reference):
        table = default_force_table()
        card = design_card(reference, table=table).outputs
        point = sweep_point(reference, table)
        assert list(point) == ["elongated_length_mm", "reduced_length_mm", "reduction_ratio",
                               "chassis_diameter_mm", "wheel_radius_mm", "peak_torque_Nmm"]
        for key, value in point.items():
            assert card[key] == value


class TestOverrun:
    def test_validate_refuses_an_overrunning_stroke(self, reference):
        report = validate(overrunning(reference))
        assert [v.field for v in report.violations] == ["wheel.rod_half_length"]
        assert "elongated length" in report.violations[0].constraint

    def test_stroke_just_inside_the_module_is_valid(self, reference):
        p = dataclasses.replace(
            reference, wheel=dataclasses.replace(reference.wheel, rod_half_length=169.99))
        assert validate(p).valid
        assert transform_profile(p, 50)[-1].module_length > 0

    def test_default_min_separation_counts(self, reference):
        # Default h_min is 8 mm, so 174 mm rods stroke 332 mm of 340 mm.
        p = dataclasses.replace(reference, wheel=dataclasses.replace(
            reference.wheel, rod_half_length=174.0, min_half_separation=None))
        assert validate(p).valid
        p = dataclasses.replace(p, wheel=dataclasses.replace(p.wheel, rod_half_length=178.0))
        assert not validate(p).valid

    def test_entry_points_refuse(self, reference):
        p = overrunning(reference)
        with pytest.raises(InvalidDesignError):
            design_card(p)
        with pytest.raises(InvalidDesignError):
            sweep_point(p, default_force_table())
        with pytest.raises(InvalidDesignError):
            transform_profile(p, 50)

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
            transform_profile(p, 50)
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
        fresh = params.reference_design()
        assert reference.validation.valid
        assert reference == fresh
        assert hash(reference) == hash(fresh)
        assert repr(reference) == repr(fresh)
        assert "validation" not in {f.name for f in dataclasses.fields(reference)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            reference.validation = validate(fresh)

    def test_entry_points_after_the_report_is_read_do_not_validate(
            self, reference, count_validate):
        assert reference.validation.valid
        count_validate.clear()
        design_card(reference)
        consistency_warnings(reference)
        telescopic.module_lengths(reference)
        transform_profile(reference, 50)
        assert count_validate == []

    def test_a_replaced_design_gets_its_own_report(self, reference):
        assert reference.validation.valid
        p = overrunning(reference)
        with pytest.raises(InvalidDesignError):
            design_card(p)
        with pytest.raises(InvalidDesignError):
            sweep_point(p, default_force_table())
        with pytest.raises(InvalidDesignError):
            transform_profile(p, 50)

    def test_card_carries_the_design_report(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_valid_params(rng)
            assert design_card(p).validation == validate(p)

    def test_card_without_a_report_validates_once(self, reference, count_validate):
        design_card(reference)
        assert len(count_validate) == 1

    def test_sweep_point_validates_once(self, reference, count_validate):
        sweep_point(reference, default_force_table())
        assert len(count_validate) == 1

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
        lengths = count_calls(monkeypatch, telescopic, "module_lengths")
        chassis = count_calls(monkeypatch, bending, "chassis_diameter")
        card = design_card(reference)
        assert len(lengths) == 1
        assert len(chassis) == 1
        assert card.warnings == consistency_warnings(reference)

    @pytest.mark.parametrize("verb", ["validate", "report"])
    def test_cli_parses_the_config_once(self, count_yaml_loads, design_file, verb):
        assert main([verb, "--config", design_file]) == 0
        assert len(count_yaml_loads) == 1

    def test_cli_report_parses_config_and_force_table_once_each(
            self, count_yaml_loads, design_file):
        assert main(["report", "--config", design_file,
                     "--force-table", str(FORCE_TABLE)]) == 0
        assert len(count_yaml_loads) == 2

    def test_cli_sweep_validates_once_per_point(self, count_validate, design_file, tmp_path):
        assert main(["sweep", "--config", design_file, "--sweep-param", "wheel.hub_offset",
                     "--sweep-range", "10:200:40", "--objective", "max-wheel-radius",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert len(count_validate) == 1 + 40  # the loaded design, then each point
