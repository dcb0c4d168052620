import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morphwheel import ConfigError, quasistatics, report
from morphwheel.quasistatics import (
    SELECTION_THRESHOLD,
    SiliconeForceTable,
    default_force_table,
    load_force_table,
    load_force_table_path,
    screw_torque,
    silicone_force,
    silicone_forces,
    torque_columns,
)
from morphwheel.wheelgeom import transform_columns

import oracles
from conftest import count_calls, random_valid_params, reference_design
from oracles import peak_index

FORCE_TABLE = Path(__file__).resolve().parent.parent / "configs" / "force_table.yaml"
NEGATIVE_ZERO_END_TABLE = Path(__file__).resolve().parent / "data" \
    / "force_table_negative_zero_end.yaml"


@st.composite
def force_tables(draw) -> SiliconeForceTable:
    """Valid force tables: increasing length changes, nonincreasing
    nonnegative forces."""
    xs = sorted(draw(st.sets(st.floats(0.0, 20.0), min_size=1, max_size=10)))
    fs = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=len(xs), max_size=len(xs))),
                reverse=True)
    return SiliconeForceTable(samples=tuple(zip(xs, fs)))


def ending_in_negative_zero(table: SiliconeForceTable) -> SiliconeForceTable:
    """``table`` with its last force -0.0: equal to a 0.0 before it, but
    printed apart from it."""
    *head, (x, _) = table.samples
    return table._replace(samples=(*head, (x, -0.0)))


# Every kind of table a profile meets: the builtin one, the file that holds
# the same samples, and random ones, some ending in -0.0.
profile_tables = st.one_of(
    st.just(default_force_table()),
    st.builds(load_force_table_path, st.just(FORCE_TABLE)),
    st.just(SiliconeForceTable(samples=((1.0, 2.0), (2.0, 0.0), (3.0, -0.0)))),
    force_tables(),
    force_tables().map(ending_in_negative_zero),
)


class TestForceTable:
    def test_default_table_samples(self):
        table = default_force_table()
        assert len(table.samples) == 8
        assert table.samples[0] == (1.0, 3.4)
        assert table.samples[-1] == (8.0, 0.1)
        assert [f for _, f in table.samples] == [3.4, 3.2, 2.5, 2.1, 1.5, 1.0, 0.6, 0.1]

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SiliconeForceTable(samples=())
        with pytest.raises(ValueError, match="increasing"):
            SiliconeForceTable(samples=((2.0, 3.0), (1.0, 2.0)))
        with pytest.raises(ValueError, match="nonincreasing"):
            SiliconeForceTable(samples=((1.0, 1.0), (2.0, 2.0)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        # A NaN passes every ordering check, so finiteness is checked first.
        for samples in (((1.0, bad),), ((bad, 1.0),), ((1.0, 3.0), (2.0, bad))):
            with pytest.raises(ValueError, match="must be finite"):
                SiliconeForceTable(samples=samples)


class TestForceTableOverride:
    def test_bare_pair_list(self):
        table = load_force_table("- [1.0, 3.0]\n- [2.0, 1.0]\n")
        assert table.samples == ((1.0, 3.0), (2.0, 1.0))

    def test_mapping_form_matches_default(self):
        assert load_force_table(FORCE_TABLE.read_text()) == default_force_table()

    def test_bad_shapes_rejected(self):
        # A row that is no pair of numbers, and flow style, are outside the
        # plain grammar.
        for text in ("- [1.0, 2.0, 3.0]\n", "[]", "- [one, 2.0]\n",
                     "{force_table: [[1.0, 2.0]], other: {}}"):
            with pytest.raises(ConfigError, match=r"^force table line is outside the plain "
                                                  r"grammar \(line: 1\)$"):
                load_force_table(text)
        for text in ("", "# no rows\n", "force_table:\n"):
            with pytest.raises(ConfigError, match="nonempty"):
                load_force_table(text)
        with pytest.raises(ConfigError, match=r"^unknown key \(field: other\)$"):
            load_force_table("force_table:\n  - [1.0, 2.0]\nother:\n")

    def test_table_invariants_enforced(self):
        with pytest.raises(ConfigError, match="increasing"):
            load_force_table("- [2.0, 3.0]\n- [1.0, 1.0]\n")
        with pytest.raises(ConfigError, match="nonnegative"):
            load_force_table("- [1.0, 3.0]\n- [2.0, -0.5]\n")

    @pytest.mark.parametrize("bad", [".inf", "-.inf", ".nan", "1" + "0" * 400, "1.0e+400"])
    def test_non_finite_numbers_rejected(self, bad):
        # YAML's names of the non-finite floats are outside the plain
        # grammar; a decimal past the float range is read, and refused.
        if bad.lstrip("-").startswith("."):
            message = "force table line is outside the plain grammar (line: 1)"
        elif "." in bad:
            message = "invalid force table: length changes and forces must be finite " \
                      "(field: force_table)"
        else:  # an integer past the float range
            message = "expected finite numbers (field: force_table[0])"
        for text in (f"- [1.0, {bad}]\n", f"- [{bad}, 1.0]\n"):
            with pytest.raises(ConfigError) as exc:
                load_force_table(text)
            assert str(exc.value) == message


class TestSiliconeForce:
    def test_samples_reproduced_exactly(self):
        table = default_force_table()
        for x, f in table.samples:
            assert silicone_force(table, x) == f

    def test_midpoint_interpolation(self):
        assert silicone_force(default_force_table(), 1.5) \
            == pytest.approx(3.3, abs=1e-12)

    def test_clamped_below_and_above(self):
        table = default_force_table()
        assert silicone_force(table, 0.0) == 3.4
        assert silicone_force(table, 0.5) == 3.4
        assert silicone_force(table, 8.0) == 0.1
        assert silicone_force(table, 25.0) == 0.1

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            silicone_force(default_force_table(), -0.1)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_nonincreasing(self, x1, x2):
        table = default_force_table()
        lo, hi = sorted((x1, x2))
        assert silicone_force(table, lo) >= silicone_force(table, hi) - 1e-12

    @given(st.floats(min_value=0.0, max_value=9.0))
    @settings(max_examples=200, deadline=None)
    def test_continuity(self, x):
        table = default_force_table()
        eps = 1e-7
        assert silicone_force(table, x + eps) \
            == pytest.approx(silicone_force(table, x), abs=1e-5)


def runs(column) -> list[bool]:
    """Whether each entry of ``column`` past the first is the very object of
    the entry before it."""
    return [a is b for a, b in zip(column, column[1:])]


class TestSiliconeForces:
    """The column of forces against ``silicone_force`` at each length change."""

    @given(profile_tables, st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_force_is_the_lookup_of_its_change(self, table, data):
        # Changes drawn around the samples and exactly at them, some repeated.
        xs = [x for x, _ in table.samples]
        changes = sorted(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, *(x for x in xs if x >= 0)]),
                      st.floats(0.0, xs[-1] + 1.0)), max_size=60)))
        want = [silicone_force(table, x) for x in changes]
        got = silicone_forces(table, changes)
        assert list(map(repr, got)) == list(map(repr, want))
        # The table's own force object wherever the lookup returns one.
        assert [a is b for a, b in zip(got, want)] \
            == [any(b is f for _, f in table.samples) for b in want]
        assert runs(got) == runs(want)

    def test_refusals(self):
        table = default_force_table()
        for changes in ([2.0, 1.0], [-0.1, 1.0], [0.5, -0.1]):
            with pytest.raises(ValueError,
                               match="^length changes must be nonnegative and nondecreasing$"):
                silicone_forces(table, changes)
        assert silicone_forces(table, []) == []


class TestScrewTorque:
    def test_zero_force_zero_torque(self):
        assert screw_torque(0.0, 2.0, 8.0, 0.2) == 0.0

    def test_frictionless_energy_balance(self):
        # Oracle: one turn lifts by the lead, so T = F * lead / (2*pi).
        assert screw_torque(10.0, 2.0, 8.0, 0.0) \
            == pytest.approx(10.0 * 2.0 / (2 * math.pi), abs=1e-12)
        assert screw_torque(10.0, 2.0, 8.0, 0.0) == pytest.approx(3.183, abs=5e-4)

    def test_reference_operating_point(self):
        # Cross-checked from below by the frictionless bound.
        t = screw_torque(1.133, 2.0, 8.0, 0.2)
        assert t == pytest.approx(1.2876, abs=5e-4)
        assert t > screw_torque(1.133, 2.0, 8.0, 0.0)

    def test_nonphysical_geometry_rejected(self):
        with pytest.raises(ValueError, match="non-physical"):
            screw_torque(1.0, 100.0, 1.0, 0.5)  # pi*d < mu*lead

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            screw_torque(-1.0, 2.0, 8.0, 0.2)
        with pytest.raises(ValueError):
            screw_torque(1.0, 2.0, 8.0, 1.0)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_force(self, f1, f2):
        lo, hi = sorted((f1, f2))
        if hi - lo < 1e-9:
            return
        assert screw_torque(lo, 2.0, 8.0, 0.2) < screw_torque(hi, 2.0, 8.0, 0.2)

    @given(st.floats(min_value=0.0, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_friction(self, m1, m2):
        lo, hi = sorted((m1, m2))
        if hi - lo < 1e-9:
            return
        assert screw_torque(5.0, 2.0, 8.0, lo) < screw_torque(5.0, 2.0, 8.0, hi)

    @given(st.floats(min_value=1.0, max_value=50.0),
           st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_increasing_in_diameter_with_friction(self, d1, d2):
        lo, hi = sorted((d1, d2))
        if hi - lo < 1e-9:
            return
        assert screw_torque(5.0, 2.0, lo, 0.2) < screw_torque(5.0, 2.0, hi, 0.2)


def profile_of(p, steps, table=None):
    """The force and torque columns of a ``steps``-state profile of ``p``."""
    return torque_columns(p, transform_columns(p, steps)[0], table)


class TestTorqueProfile:
    def test_peak_at_maximum_force(self, reference):
        forces, torques = profile_of(reference, 50)
        assert forces[peak_index(torques)] == max(forces)
        assert max(forces) == 3.4
        assert peak_index(torques) == 0  # clamp holds the max from the first step

    def test_zero_force_table(self, reference):
        table = SiliconeForceTable(samples=((1.0, 0.0), (2.0, 0.0)))
        _, torques = profile_of(reference, 10, table)
        assert all(t == 0.0 for t in torques)

    def test_linearity_in_force(self, reference):
        base = default_force_table()
        doubled = SiliconeForceTable(
            samples=tuple((x, 2 * f) for x, f in base.samples))
        _, t1 = profile_of(reference, 20, base)
        _, t2 = profile_of(reference, 20, doubled)
        for a, b in zip(t1, t2):
            assert b == pytest.approx(2 * a, rel=1e-12)

    @given(st.integers(0, 2**32), profile_tables, st.integers(2, 2000))
    @settings(max_examples=100, deadline=None)
    def test_each_entry_is_the_screw_formula_on_a_third_of_the_force(self, seed, table,
                                                                       steps):
        # Bit for bit, though states past a clamped end of the table share
        # one computed torque.
        p = random_valid_params(random.Random(seed))
        lengths = transform_columns(p, steps)[0]
        dr = p.drive
        for length, *got in zip(lengths, *torque_columns(p, lengths, table)):
            force = silicone_force(table, (lengths[0] - length) / 10.0)
            torque = screw_torque(force / 3.0, dr.screw_lead, dr.screw_mean_diameter,
                                  dr.screw_friction)
            assert list(map(repr, got)) == [repr(force), repr(torque)]

    @pytest.mark.parametrize("table_path", [None, FORCE_TABLE], ids=["builtin", "file"])
    def test_torque_computed_once_per_run_of_one_force(self, monkeypatch, reference,
                                                       table_path):
        # 1428 of the reference's 2000 states lie past the table's far end,
        # and 72 before its near end; each of those two runs of states gets
        # the table's own sample object as its force.
        table = default_force_table() if table_path is None \
            else load_force_table_path(table_path)
        lengths = transform_columns(reference, 2000)[0]
        calls = count_calls(monkeypatch, quasistatics, "screw_torque")
        forces, _ = torque_columns(reference, lengths, table)
        assert sum(f is table.samples[-1][1] for f in forces) == 1428
        runs = 1 + sum(a is not b for a, b in zip(forces, forces[1:]))
        assert len(calls) == runs <= 2000 - 1428

    def test_aligns_with_transform_profile(self, reference):
        lengths = transform_columns(reference, 25)[0]
        assert list(map(len, torque_columns(reference, lengths))) == [len(lengths)] * 2


class TestPerStateOracle:
    """The force and torque columns against the loop of ``oracles``, which
    calls ``silicone_force`` at every state and ``screw_torque`` at every new
    force object."""

    @pytest.mark.parametrize("table_path", [None, FORCE_TABLE, NEGATIVE_ZERO_END_TABLE],
                             ids=["default", "file", "negative-zero-end"])
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.one_of(st.sampled_from([2, 3]), st.integers(2, 3000)))
    # The reference design, whose length changes at 281 steps are the tenths
    # of a centimetre: every sample of each table is hit exactly.
    @example(seed=None, steps=281)
    @settings(max_examples=100, deadline=None)
    def test_columns_match_the_per_state_loop(self, table_path, seed, steps):
        table = default_force_table() if table_path is None \
            else load_force_table_path(table_path)
        p = reference_design() if seed is None else random_valid_params(random.Random(seed))
        try:
            states = oracles.transform_profile(p, steps)
        except ValueError:  # more steps than the design resolves
            assume(False)
        want = oracles.torque_profile(p, states, table)
        forces, torques = torque_columns(p, [s.module_length for s in states], table)
        for got, column in ((forces, [e.axial_force for e in want]),
                            (torques, [e.per_motor_torque for e in want])):
            assert list(map(repr, got)) == list(map(repr, column))
            assert runs(got) == runs(column)
        samples = [f for _, f in table.samples]

        def sample_of(force):
            return next((i for i, f in enumerate(samples) if force is f), None)
        hits = [sample_of(f) for f in forces]
        assert hits == [sample_of(e.axial_force) for e in want]
        if seed is None:
            assert set(hits) >= set(range(len(samples)))


def motor_check(p, stall_torque=None):
    """The ``motor_check_ok`` verdict on ``p``, with its stall torque set to
    ``stall_torque`` when one is given."""
    if stall_torque is not None:
        p = p._replace(drive=p.drive._replace(motor_stall_torque=stall_torque))
    (check,) = [v for v in report.verdicts(p) if v.code == "motor_check_ok"]
    return check


class TestMotorCheck:
    def test_reference_design_passes(self, reference):
        peak = max(profile_of(reference, 50)[1])
        check = motor_check(reference)
        assert check.passed
        assert (check.computed, check.reported) == (peak, 1470.0)
        assert check.computed / check.reported == pytest.approx(peak / 1470.0)
        # peak and threshold printed side by side on the card, never equated
        note = report.design_card(reference).outputs["motor_check_note"]
        assert f"{peak:.3f}" in note
        assert f"{SELECTION_THRESHOLD:.0f} N*mm" in note and SELECTION_THRESHOLD == 500.0
        assert note.endswith(", margin 1")

    def test_boundary_peak_equals_stall(self, reference):
        peak = max(profile_of(reference, 10)[1])
        check = motor_check(reference, peak)
        assert check.passed and check.computed == check.reported == peak

    def test_overloaded_motor_fails_with_ratio_above_one(self, reference):
        peak = max(profile_of(reference, 10)[1])
        check = motor_check(reference, peak / 2)
        assert not check.passed
        assert check.computed / check.reported > 1.0
