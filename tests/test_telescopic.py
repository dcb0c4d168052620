import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphwheel import InfeasibleError, InvalidDesignError, validate
from morphwheel.telescopic import (
    diameter_ladder,
    min_levels,
    min_screw_length,
    module_lengths,
    reduction_ok,
    residual_length,
    shaft_levels,
)

from conftest import random_valid_params
from oracles import scan_min_levels, scan_min_screw_length


def with_levels(p, n, s_l=None):
    screw = p.screw._replace(n_levels=n)
    if s_l is not None:
        screw = screw._replace(screw_level_length=s_l)
    return p._replace(screw=screw)


def with_short_rods(p):
    # 100 mm rods: the 200 mm wheel stroke fits a one-level reference
    # module (220 mm), which the 140 mm reference rods would overrun.
    return p._replace(wheel=p.wheel._replace(rod_half_length=100.0))


class TestModuleLengths:
    def test_reference_lengths(self, reference):
        # Oracle: 2*4*20 + 2*10 + 10 + 90 + 60 and 2*20 + 2*10 + 10 + 90 + 60.
        lengths = module_lengths(reference)
        assert lengths.elongated == pytest.approx(340.0, abs=1e-12)
        assert lengths.reduced == pytest.approx(220.0, abs=1e-12)
        assert lengths.reduction_ratio == pytest.approx(220.0 / 340.0, abs=1e-12)

    def test_single_level_cannot_telescope(self, reference):
        lengths = module_lengths(with_levels(with_short_rods(reference), 1))
        assert lengths.elongated == lengths.reduced
        assert lengths.reduction_ratio == 1.0

    def test_invalid_design_refused_with_report(self, reference):
        bad = reference._replace(
            screw=reference.screw._replace(n_levels=0))
        with pytest.raises(InvalidDesignError) as exc:
            module_lengths(bad)
        assert any(v.field == "screw.n_levels" for v in exc.value.report.violations)

    def test_length_gap_identity_random(self):
        # elongated - reduced == 2 * S_L * (N - 1) for every valid design
        rng = random.Random(7)
        for _ in range(200):
            p = random_valid_params(rng)
            lengths = module_lengths(p)
            gap = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
            assert lengths.elongated - lengths.reduced == pytest.approx(gap, abs=1e-9)


class TestReductionCheck:
    def test_published_lengths_pass(self):
        assert reduction_ok(165.0, 340.0)

    @staticmethod
    def meets_half(p):
        lengths = module_lengths(p)
        return reduction_ok(lengths.reduced, lengths.elongated)

    def test_reference_design_fails(self, reference):
        assert not self.meets_half(reference)

    def test_many_levels_pass(self, reference):
        assert self.meets_half(with_levels(reference, 100))

    def test_boundary_inclusive(self):
        assert reduction_ok(170.0, 340.0)
        assert not reduction_ok(170.1, 340.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -1.0, 0.0, 1.5])
    def test_target_outside_the_unit_interval_raises(self, target):
        with pytest.raises(ValueError, match=r"target_ratio must be in \(0, 1\]"):
            reduction_ok(165.0, 340.0, target)


class TestMinScrewLength:
    def test_reference_case_exact(self):
        # Oracle: brute-force scan at 0.1 mm confirms 45 is minimal.
        sol = min_screw_length(4, 180.0, 0.5)
        assert sol.length == pytest.approx(45.0, abs=1e-9)
        assert not sol.degenerate
        assert scan_min_screw_length(4, 180.0, 0.5) == pytest.approx(45.0)

    def test_solution_hits_target_exactly(self, reference):
        sol = min_screw_length(reference.screw.n_levels, residual_length(reference), 0.5)
        p2 = reference._replace(
            screw=reference.screw._replace(screw_level_length=sol.length))
        assert module_lengths(p2).reduction_ratio == pytest.approx(0.5, abs=1e-9)

    def test_two_levels_at_half_is_infeasible(self, reference):
        p = with_levels(with_short_rods(reference), 2)
        assert validate(p).valid
        with pytest.raises(InfeasibleError, match="not enough levels"):
            min_screw_length(p.screw.n_levels, residual_length(p), 0.5)

    def test_target_one_degenerates_to_zero(self):
        sol = min_screw_length(4, 180.0, 1.0)
        assert sol.length == 0.0
        assert sol.degenerate

    def test_agrees_with_scan_on_random_instances(self):
        rng = random.Random(42)
        checked = 0
        while checked < 120:
            n = rng.randint(2, 10)
            k = rng.uniform(10.0, 500.0)
            t = rng.uniform(0.05, 0.95)
            if n * t < 1.5:  # keep solutions in a scannable range
                continue
            closed = min_screw_length(n, k, t).length
            scanned = scan_min_screw_length(n, k, t, limit=closed + 1.0)
            assert scanned >= closed - 1e-6
            assert scanned - closed <= 0.1 + 1e-6
            checked += 1

    def test_bad_target_rejected(self):
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                min_screw_length(4, 180.0, t)


class TestMinLevels:
    def test_reference_screw_needs_seven(self):
        assert min_levels(20.0, 180.0, 0.5) == 7
        assert scan_min_levels(20.0, 180.0, 0.5) == 7

    def test_consistent_with_min_screw_length(self):
        assert min_levels(45.0, 180.0, 0.5) == 4

    def test_loose_target_needs_two(self):
        # A single level never telescopes (ratio stays 1), so even a 0.999
        # target needs a second level.
        assert min_levels(20.0, 180.0, 0.999) == 2
        assert scan_min_levels(20.0, 180.0, 0.999) == 2

    def test_minimality_on_random_instances(self):
        rng = random.Random(43)

        def ratio(s, n, k):
            return (2 * s + k) / (2 * n * s + k)

        for _ in range(150):
            s = rng.uniform(1.0, 100.0)
            k = rng.uniform(10.0, 500.0)
            t = rng.uniform(0.05, 0.95)
            n = min_levels(s, k, t)
            assert n == scan_min_levels(s, k, t)
            assert ratio(s, n, k) <= t
            if n > 1:
                assert ratio(s, n - 1, k) > t

    def test_solver_wrapper_uses_design_fields(self, reference):
        assert residual_length(reference) == pytest.approx(180.0)
        assert min_levels(reference.screw.screw_level_length,
                          residual_length(reference), 0.5) == 7


class TestDiameterLadder:
    def test_reference_ladder(self, reference):
        # Oracle: repeated addition of T_w + T_c + S_w = 2.0 onto 2.3.
        assert diameter_ladder(reference) == pytest.approx(
            (2.3, 4.3, 6.3, 8.3))

    def test_single_level(self, reference):
        assert diameter_ladder(with_levels(reference, 1)) == (2.3,)

    def test_zero_increment_degenerates_and_is_flagged(self, reference):
        flat = reference._replace(
            screw=reference.screw._replace(thread_width=0.0,
                                           thread_clearance=0.0, stopper_width=0.0),
        )
        assert all(d == 2.3 for d in diameter_ladder(flat))
        assert not validate(flat).valid  # zero widths violate the positivity rules

    @given(st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_for_positive_increment(self, tw, tc, sw, n):
        from morphwheel import reference_design
        base = reference_design()
        p = base._replace(
            screw=base.screw._replace(thread_width=tw,
                                      thread_clearance=tc, stopper_width=sw,
                                      n_levels=n),
        )
        d = diameter_ladder(p)
        assert len(d) == n
        assert d[0] == p.screw.base_screw_diameter
        assert all(b > a for a, b in zip(d, d[1:]))


class TestShaftLevels:
    @pytest.mark.parametrize("n,expected", [(4, 3), (1, 0), (10, 9)])
    def test_one_fewer_than_screw(self, reference, n, expected):
        assert shaft_levels(with_levels(reference, n)) == expected
