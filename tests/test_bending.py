import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphwheel import InfeasibleError, reference_design
from morphwheel.bending import (
    bend_from_extensions,
    bend_state,
    chassis_diameter,
    distribute_bend,
    rod_sizing,
    screw_circle_radius,
    screw_extensions,
)

angles = st.floats(min_value=1e-6, max_value=math.pi / 4)
directions = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
radii = st.floats(min_value=0.5, max_value=500.0)


def rods_for(half_expansion, chassis_d, theta):
    """``rod_sizing`` of the reference with all of its rod reach (joint
    mount, half joint and full screw) in a screw extension that gives
    ``half_expansion`` at the tilt ``theta``, to within rounding."""
    p = reference_design()
    p = p._replace(platform=p.platform._replace(
        joint_mount_width=0.0, universal_joint_diameter=0.0,
        max_screw_extension=half_expansion / math.sin(theta)))
    return rod_sizing(p, theta, chassis_d)


class TestDistributeBend:
    def test_quarter_turn_over_four_plates(self):
        plate_angles = distribute_bend(math.pi / 4, 4)
        assert plate_angles[0] == math.pi / 16  # exact
        assert plate_angles == pytest.approx(
            (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4), abs=1e-15)

    def test_zero_bend(self):
        assert distribute_bend(0.0, 4) == (0.0, 0.0, 0.0, 0.0)

    def test_third_over_three_plates(self):
        plate_angles = distribute_bend(math.pi / 3, 3)
        assert plate_angles == pytest.approx(
            (math.pi / 9, 2 * math.pi / 9, math.pi / 3), abs=1e-12)

    def test_envelope_enforced(self):
        with pytest.raises(ValueError, match="envelope"):
            distribute_bend(math.pi / 2 + 0.01, 4)
        distribute_bend(math.pi / 2, 4)  # boundary allowed

    @given(st.floats(min_value=1e-9, max_value=math.pi / 2),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_and_last_exact(self, total, count):
        plate_angles = distribute_bend(total, count)
        assert len(plate_angles) == count
        assert plate_angles[-1] == total  # exact by construction
        assert all(b > a for a, b in zip(plate_angles, plate_angles[1:]))


class TestScrewExtensions:
    def test_flat_plate(self):
        assert screw_extensions(0.0, 0.0, 13.86) == (0.0, 0.0, 0.0)

    def test_reference_tilt(self):
        # Oracle: r * sin(theta) * cos(alpha) evaluated directly.
        r = 13.86
        e = screw_extensions(math.pi / 16, 0.0, r)
        amp = r * math.sin(math.pi / 16)
        assert e[0] == pytest.approx(amp, abs=1e-12)
        assert e[0] == pytest.approx(2.704, abs=5e-4)
        assert e[1] == pytest.approx(-amp / 2, abs=1e-12)
        assert e[2] == pytest.approx(-amp / 2, abs=1e-12)

    def test_circle_radius_from_spacing(self):
        # Adjacent screws 24 mm apart sit on a circle of radius 24/sqrt(3).
        assert screw_circle_radius(24.0) == pytest.approx(13.8564, abs=1e-4)

    @given(angles, directions, radii)
    @settings(max_examples=300, deadline=None)
    def test_sum_zero_and_amplitude(self, theta, phi, r):
        e = screw_extensions(theta, phi, r)
        assert abs(sum(e)) < 1e-9
        assert max(abs(x) for x in e) <= r * math.sin(theta) + 1e-12

    @given(angles, directions, radii)
    @settings(max_examples=200, deadline=None)
    def test_cyclic_symmetry(self, theta, phi, r):
        e = screw_extensions(theta, phi, r)
        rotated = screw_extensions(theta, phi + 2 * math.pi / 3, r)
        assert rotated == pytest.approx((e[2], e[0], e[1]), abs=1e-9)


class TestBendFromExtensions:
    def test_zero_triple_canonical(self):
        assert bend_from_extensions((0.0, 0.0, 0.0), 10.0) == (0.0, 0.0)

    def test_round_trip_reference(self):
        r = 13.86
        e = screw_extensions(math.pi / 16, 1.0, r)
        theta, phi = bend_from_extensions(e, r)
        assert theta == pytest.approx(math.pi / 16, abs=1e-12)
        assert phi == pytest.approx(1.0, abs=1e-12)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError, match="incompatible extension triple"):
            bend_from_extensions((1.0, 1.0, 1.0), 10.0)

    def test_overlong_extensions_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            bend_from_extensions((20.0, -10.0, -10.0), 10.0)

    @given(angles, directions, radii)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, theta, phi, r):
        e = screw_extensions(theta, phi, r)
        theta2, phi2 = bend_from_extensions(e, r)
        e2 = screw_extensions(theta2, phi2, r)
        assert e2 == pytest.approx(e, abs=1e-9)
        assert theta2 == pytest.approx(theta, abs=1e-9)
        assert 0.0 <= phi2 < 2 * math.pi


class TestBendState:
    def test_assembled_state_is_consistent(self, reference):
        state = bend_state(reference, math.pi / 4, direction=0.5)
        assert state.per_plate_angle == math.pi / 16
        assert state.plate_angles[-1] == math.pi / 4
        assert abs(sum(state.screw_extensions)) < 1e-9
        for k, angle in enumerate(state.plate_angles[:-1], start=1):
            assert angle == pytest.approx(k * state.per_plate_angle, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
class TestNonFiniteAngles:
    """Every check is written so that NaN fails it: a non-finite angle is
    refused by name, never turned into NaN results or a math domain error."""

    def test_total_bend(self, reference, value):
        with pytest.raises(ValueError, match="envelope"):
            distribute_bend(value, 4)
        with pytest.raises(ValueError, match="envelope"):
            bend_state(reference, value)

    def test_direction(self, reference, value):
        with pytest.raises(ValueError, match="bend direction must be finite"):
            bend_state(reference, 0.5, value)
        with pytest.raises(ValueError, match="bend direction must be finite"):
            screw_extensions(0.1, value, 10.0)

    def test_plate_tilt(self, value):
        with pytest.raises(ValueError, match="per-plate tilt"):
            screw_extensions(value, 0.0, 10.0)

    def test_extensions(self, value):
        with pytest.raises(ValueError, match="sum is not zero"):
            bend_from_extensions((value, 0.0, 0.0), 10.0)


def test_nan_radius_is_refused():
    with pytest.raises(ValueError, match="must be positive"):
        screw_extensions(0.1, 0.0, math.nan)
    with pytest.raises(ValueError, match="must be positive"):
        screw_circle_radius(math.nan)
    with pytest.raises(ValueError, match="must be positive"):
        bend_from_extensions((0.0, 0.0, 0.0), math.nan)


class TestChassisDiameter:
    def test_reference_geometry(self, reference):
        # Oracle: V = 24*cos(pi/3), B = 80*sin(pi/16), D = 2*(V + B).
        geo = chassis_diameter(reference, math.pi / 16)
        assert geo.screw_offset_component == pytest.approx(12.0, abs=1e-9)
        assert geo.triangle_base == pytest.approx(80 * math.sin(math.pi / 16), abs=1e-12)
        assert geo.triangle_base == pytest.approx(15.607, abs=5e-4)
        assert geo.chassis_diameter == pytest.approx(55.2145, abs=5e-4)

    def test_no_bend_leaves_pure_offset(self, reference):
        geo = chassis_diameter(reference, 0.0)
        assert geo.chassis_diameter == pytest.approx(
            reference.platform.screw_circle_spacing, abs=1e-9)

    def test_zero_stroke(self, reference):
        p = reference._replace(
            platform=reference.platform._replace(max_screw_extension=1e-12))
        geo = chassis_diameter(p, math.pi / 8)
        assert geo.chassis_diameter == pytest.approx(
            2 * geo.screw_offset_component, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=math.pi / 4),
           st.floats(min_value=0.0, max_value=math.pi / 4))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_tilt(self, t1, t2):
        from morphwheel import reference_design
        p = reference_design()
        lo, hi = sorted((t1, t2))
        assert chassis_diameter(p, lo).chassis_diameter \
            <= chassis_diameter(p, hi).chassis_diameter + 1e-12


class TestRodSizing:
    def test_reference_geometry(self, reference):
        # Oracle: (5 + 2.5/2 + 80) * sin(pi/16), doubled for the full rod.
        theta = math.pi / 16
        expected_half = (5.0 + 1.25 + 80.0) * math.sin(theta)
        geo = chassis_diameter(reference, theta)
        rods = rod_sizing(reference, theta, geo.chassis_diameter)
        assert rods.half_expansion == pytest.approx(expected_half, abs=1e-12)
        assert rods.half_expansion == pytest.approx(16.827, abs=5e-4)
        assert rods.rod_max == pytest.approx(2 * expected_half, abs=1e-12)

    def test_published_table_values(self):
        # Half expansion and chassis diameter taken from the table.
        theta = math.pi / 16
        rods = rods_for(80.0, 80.0, theta)
        assert rods.rod_max == pytest.approx(160.0, abs=1e-12)
        assert rods.rod_min == pytest.approx(160.0 - 80.0 * math.sin(theta), abs=1e-12)
        assert rods.rod_min == pytest.approx(144.393, abs=5e-4)
        assert rods.inner_segment == pytest.approx(15.607, abs=5e-4)

    def test_vanishing_tilt_needs_no_telescoping(self):
        rods = rods_for(80.0, 80.0, 1e-12)
        assert rods.rod_min == pytest.approx(rods.rod_max, abs=1e-6)
        assert rods.inner_segment == pytest.approx(0.0, abs=1e-6)

    def test_excessive_bend_demand_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="rod"):
            rods_for(10.0, 200.0, math.pi / 4)

    @pytest.mark.parametrize("chassis_d", [math.nan, -math.inf, 0.0, -1.0], ids=repr)
    def test_chassis_diameter_must_be_positive(self, reference, chassis_d):
        # A NaN diameter would give NaN rod lengths.
        with pytest.raises(ValueError, match="chassis diameter must be positive"):
            rod_sizing(reference, math.pi / 16, chassis_d)

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=0.01, max_value=math.pi / 4))
    @settings(max_examples=200, deadline=None)
    def test_segments_partition_the_rod(self, half, d, theta):
        try:
            rods = rods_for(half, d, theta)
        except InfeasibleError:
            return
        # The collapsed rod is the outer segment.
        assert rods.rod_min + rods.inner_segment == rods.rod_max  # exact
        assert rods.rod_min <= rods.rod_max
