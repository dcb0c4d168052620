"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion (a failed assertion means the criterion FAILED).
"""

import math
import random
import time

import pytest

from morphwheel.bending import bend_from_extensions, distribute_bend, screw_extensions
from morphwheel.cli import main
from morphwheel.params import reference_design, serialize
from morphwheel.quasistatics import (
    SELECTION_THRESHOLD,
    default_force_table,
    screw_torque,
    silicone_force,
    torque_columns,
)
from morphwheel.report import consistency_warnings, design_card, verdicts
from morphwheel.telescopic import (
    min_levels,
    min_screw_length,
    module_lengths,
    reduction_ok,
    shaft_levels,
)
from morphwheel.wheelgeom import TriggerMode, bulge_radius, curved_rod_plan, transform_columns

from conftest import random_valid_params
from oracles import peak_index, scan_min_levels, scan_min_screw_length


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_bend_distribution():
    angles = distribute_bend(math.pi / 4, 4)
    assert abs(angles[0] - math.pi / 16) <= 1e-12
    distribute_bend(math.pi / 4, 4)  # warm-up
    t0 = time.perf_counter()
    distribute_bend(math.pi / 4, 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    report(1, f"quarter-bend over 4 plates gives pi/16 per plate "
              f"(exact within 1e-12, {elapsed * 1e6:.1f} us)")


def test_criterion_2_shaft_levels():
    assert shaft_levels(reference_design()) == 3
    report(2, "4-level screw pairs with a 3-level internal shaft")


def test_criterion_3_force_table_fidelity():
    table = default_force_table()
    expected = [(1.0, 3.4), (2.0, 3.2), (3.0, 2.5), (4.0, 2.1),
                (5.0, 1.5), (6.0, 1.0), (7.0, 0.6), (8.0, 0.1)]
    assert list(table.samples) == expected
    for x, f in expected:
        assert silicone_force(table, x) == f
    assert abs(silicone_force(table, 1.5) - 3.3) <= 1e-12
    p = reference_design()
    forces, _ = torque_columns(p, transform_columns(p, 200)[0])
    assert max(forces) == 3.4
    report(3, "all 8 force samples exact, 1.5 cm interpolates to 3.3 N, "
              "profile force maximum is 3.4 N")


def test_criterion_4_reduction_constraint():
    assert reduction_ok(165.0, 340.0)  # ratio 0.4853 <= 0.5
    rng = random.Random(2026)
    for _ in range(1000):
        p = random_valid_params(rng)
        lengths = module_lengths(p)
        gap = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
        assert abs((lengths.elongated - lengths.reduced) - gap) <= 1e-9
    warnings = consistency_warnings(reference_design())
    assert any(w.code == "reported_length_identity" for w in warnings)
    report(4, "165/340 meets the half-length target, length-gap identity holds "
              "on 1000 random designs, and supplying both published lengths "
              "raises the documented inconsistency warning")


def test_criterion_5_inverse_sizing_oracle_equivalence():
    t0 = time.perf_counter()
    assert abs(min_screw_length(4, 180.0, 0.5).length - 45.0) <= 1e-9
    rng = random.Random(5)
    length_cases = levels_cases = 0
    while length_cases < 100:
        n = rng.randint(2, 10)
        k = rng.uniform(10.0, 500.0)
        t = rng.uniform(0.05, 0.95)
        if n * t < 1.5:
            continue
        closed = min_screw_length(n, k, t).length
        scanned = scan_min_screw_length(n, k, t, limit=closed + 1.0)
        assert -1e-6 <= scanned - closed <= 0.1 + 1e-6
        length_cases += 1
    while levels_cases < 100:
        s = rng.uniform(1.0, 100.0)
        k = rng.uniform(10.0, 500.0)
        t = rng.uniform(0.05, 0.95)
        assert min_levels(s, k, t) == scan_min_levels(s, k, t)
        levels_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"closed forms agree with brute-force scans on "
              f"{length_cases}+{levels_cases} random instances and the "
              f"45 mm fixture ({elapsed:.3f} s)")


def test_criterion_6_wheel_geometry():
    rng = random.Random(6)
    for _ in range(1000):
        l = rng.uniform(0.1, 1000.0)
        h = l * rng.uniform(0.0, 1.0)
        br = rng.uniform(0.0, 500.0)
        r = bulge_radius(l, h, br)
        assert abs((r - br) ** 2 + h * h - l * l) <= 1e-9
    assert bulge_radius(5.0, 3.0, 0.0) == 4.0

    p = reference_design()
    lengths, _, radii, modes = transform_columns(p, 200)
    assert lengths[0] == module_lengths(p).elongated
    assert radii[0] == p.wheel.hub_offset
    assert modes[0] is TriggerMode.TELESCOPIC
    for a, b in zip(lengths, lengths[1:]):
        assert a > b
    for a, b in zip(radii, radii[1:]):
        assert a < b
    assert abs(radii[-1] - 200.0) <= 1e-9
    assert abs(2 * radii[-1] - 400.0) <= 1e-9
    report(6, "Pythagorean closure on 1000 random rods (1e-9), 3-4-5 exact, "
              "profile monotone from (340 mm, 60 mm) to the 400 mm wheel")


def test_criterion_7_curved_rod_plan():
    p = reference_design()
    assert curved_rod_plan(200.0, p).levels == 2
    rng = random.Random(7)
    for _ in range(1000):
        radius = rng.uniform(0.5, 2000.0)
        rod = rng.uniform(5.0, 300.0)
        hinge = rng.uniform(0.0, rod * 0.95)
        q = p._replace(
            wheel=p.wheel._replace(curved_rod_length=rod,
                                   hinge_allowance=hinge,
                                   spoke_pairs=rng.randint(3, 12)))
        plan = curved_rod_plan(radius, q)
        usable = rod - hinge
        assert plan.levels * usable >= plan.arc_per_sector
        assert plan.levels == 1 or (plan.levels - 1) * usable < plan.arc_per_sector
    report(7, "fixture rim needs 2 telescoping levels; minimal cover holds on "
              "1000 random plans")


def test_criterion_8_bend_round_trip():
    rng = random.Random(8)
    for _ in range(1000):
        theta = rng.uniform(1e-6, math.pi / 4)
        phi = rng.uniform(0.0, 2 * math.pi - 1e-12)
        r = rng.uniform(0.5, 500.0)
        e = screw_extensions(theta, phi, r)
        assert abs(sum(e)) <= 1e-9
        theta2, phi2 = bend_from_extensions(e, r)
        e2 = screw_extensions(theta2, phi2, r)
        for a, b in zip(e, e2):
            assert abs(a - b) <= 1e-9
        assert abs(theta2 - theta) <= 1e-9
    report(8, "inverse-then-forward kinematics reproduces 1000 random "
              "extension triples within 1e-9; triples always sum to zero")


def test_criterion_9_torque_model():
    rng = random.Random(9)
    for _ in range(200):
        f = rng.uniform(0.0, 100.0)
        lead = rng.uniform(0.5, 10.0)
        d = rng.uniform(2.0, 20.0)
        assert abs(screw_torque(f, lead, d, 0.0) - f * lead / (2 * math.pi)) <= 1e-12

    p = reference_design()
    forces, torques = torque_columns(p, transform_columns(p, 100)[0])
    peak = peak_index(torques)
    assert forces[peak] == max(forces)
    assert peak == min(i for i, f in enumerate(forces) if f == max(forces))

    (check,) = [v for v in verdicts(p) if v.code == "motor_check_ok"]
    assert (check.computed, check.reported) == (torques[peak], 1470.0)
    assert check.passed
    note = design_card(p).outputs["motor_check_note"]
    assert f"{check.computed:.3f}" in note and "500" in note
    print(f"\n  computed peak {check.computed:.3f} N*mm | "
          f"selection threshold {SELECTION_THRESHOLD:.0f} N*mm "
          f"(reference, not an equality target)")
    report(9, "frictionless torque matches the energy balance within 1e-12, "
              "the peak sits at the maximum-force step, and the 1470 N*mm "
              "stall check passes")


def test_criterion_10_profile_determinism(tmp_path):
    config = tmp_path / "design.yaml"
    config.write_text(serialize(reference_design()), encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        assert main(["profile", "--config", str(config), "--steps", "40",
                     "--out", str(out)]) == 0
        outs.append((out.read_bytes(),
                     (tmp_path / f"{name}_keyframes.json").read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    report(10, "repeated profile runs emit byte-identical CSV and keyframes")
