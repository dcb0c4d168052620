import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morphwheel import InvalidDesignError, quasistatics, wheelgeom
from morphwheel.params import _MAX_STEPS, min_half_separation
from morphwheel.telescopic import module_lengths
from morphwheel.wheelgeom import (
    KEYFRAME_SCHEMA_VERSION,
    TriggerMode,
    bulge_radius,
    curved_rod_plan,
    expand_frame,
    keyframes_text,
    transform_columns,
    trigger_state,
)

import oracles
from conftest import random_valid_params
from oracles import keyframes_document, keyframes_json

FORCE_TABLE = Path(__file__).resolve().parent.parent / "configs" / "force_table.yaml"


class TestBulgeRadius:
    def test_pythagorean_triple(self):
        assert bulge_radius(5.0, 3.0, 0.0) == 4.0

    def test_fully_extended_rod_reaches_only_the_hub(self):
        assert bulge_radius(140.0, 140.0, 60.0) == 60.0

    def test_reference_wheel_closes_400mm_diameter(self):
        assert bulge_radius(140.0, 0.0, 60.0) == 200.0

    def test_overstretched_rod_rejected(self):
        with pytest.raises(ValueError, match="stretch"):
            bulge_radius(5.0, 5.1, 0.0)
        with pytest.raises(ValueError):
            bulge_radius(5.0, -0.1, 0.0)

    @given(st.floats(min_value=0.1, max_value=1000.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=300, deadline=None)
    def test_pythagorean_closure(self, l, h_frac, br):
        h = l * h_frac
        r = bulge_radius(l, h, br)
        assert (r - br) ** 2 + h * h == pytest.approx(l * l, abs=1e-9 * max(1.0, l * l))
        assert r >= br


class TestTransformProfile:
    def test_reference_endpoints(self, reference):
        lengths, hs, radii, modes = transform_columns(reference, 50)
        assert lengths[0] == module_lengths(reference).elongated
        assert radii[0] == reference.wheel.hub_offset
        assert modes[0] is TriggerMode.TELESCOPIC
        assert hs[-1] == 0.0
        assert radii[-1] == pytest.approx(200.0, abs=1e-9)
        assert modes[-1] is TriggerMode.RIGID

    def test_two_steps_give_exactly_the_endpoints(self, reference):
        columns = transform_columns(reference, 2)
        assert list(map(len, columns)) == [2] * 4
        assert columns[1] == [reference.wheel.rod_half_length, 0.0]

    def test_strict_monotonicity(self, reference):
        lengths, _, radii, _ = transform_columns(reference, 100)
        for a, b in zip(lengths, lengths[1:]):
            assert a > b
        for a, b in zip(radii, radii[1:]):
            assert a < b

    def test_trigger_flips_at_first_compression(self, reference):
        modes = transform_columns(reference, 10)[3]
        assert modes[0] is TriggerMode.TELESCOPIC
        assert all(m is TriggerMode.RIGID for m in modes[1:])

    def test_no_formula_call_per_state(self, reference, monkeypatch):
        # The radius and the force are computed as columns: no state calls
        # ``bulge_radius`` or ``silicone_force``. The lengths fall strictly,
        # so only the two ends ask the trigger model, and a run of states
        # that share one force object shares one ``screw_torque`` call. Each
        # is looked up through its module at call time, as a wrapper that
        # counts it sees it.
        assert reference.validation.valid  # computed once, before the count
        table = quasistatics.load_force_table_path(FORCE_TABLE)
        calls = Counter()
        for module, name in ((wheelgeom, "bulge_radius"), (wheelgeom, "trigger_state"),
                             (quasistatics, "silicone_force"), (quasistatics, "screw_torque")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        lengths = transform_columns(reference, 2000)[0]
        forces, _ = quasistatics.torque_columns(reference, lengths, table)
        assert calls == {"trigger_state": 2, "screw_torque": 502}
        assert len({id(f) for f in forces}) == 502

    def test_too_few_steps_rejected(self, reference):
        with pytest.raises(ValueError, match="steps"):
            transform_columns(reference, 1)

    def test_default_min_separation_is_the_stopper_stack(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(min_half_separation=None))
        assert min_half_separation(p) == 8.0  # 2 mm * 4 levels
        assert transform_columns(p, 5)[1][-1] == 8.0

    def test_min_separation_beyond_rod_is_refused(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(min_half_separation=150.0))
        with pytest.raises(InvalidDesignError, match="wheel.min_half_separation"):
            transform_columns(p, 5)


class TestPerStateOracle:
    """``transform_columns`` against the loop of ``oracles``, which calls
    ``bulge_radius`` and ``trigger_state`` and builds a ``State`` at every
    state."""

    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.one_of(st.sampled_from([1, 2, 3, _MAX_STEPS + 1]), st.integers(2, 3000)),
           near_cap=st.one_of(st.none(), st.floats(29.5, 30.0)))
    @example(seed=3, steps=2000, near_cap=29.9)  # refused at its last state
    @example(seed=30, steps=3000, near_cap=29.9)  # refused one state before its last
    @settings(max_examples=200, deadline=None)
    def test_states_and_refusals_match_the_per_state_loop(self, seed, steps, near_cap):
        p = random_valid_params(random.Random(seed))
        if near_cap is not None:
            # A rod pair that folds flat on a hub near its validation cap: the
            # last states of a long profile widen the wheel by less than its
            # radius resolves, so some step counts are refused.
            w = p.wheel._replace(min_half_separation=0.0)
            p = p._replace(wheel=w._replace(hub_offset=w.rod_half_length * 2.0 ** near_cap))
            assume(p.validation.valid)
        try:
            want = oracles.transform_profile(p, steps)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                transform_columns(p, steps)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
            return
        columns = transform_columns(p, steps)
        # The reprs hold each value's type and sign.
        assert [list(map(repr, column)) for column in columns] \
            == [list(map(repr, column)) for column in zip(*want)]
        assert all(a is b for a, b in zip(columns[3], (s.trigger_mode for s in want)))


class TestCurvedRodPlan:
    def test_reference_plan_needs_two_levels(self, reference):
        # Oracle: 2*pi*200/6 = 209.44 mm over 105 mm usable per level.
        plan = curved_rod_plan(200.0, reference)
        assert plan.arc_per_sector == pytest.approx(2 * math.pi * 200 / 6, abs=1e-9)
        assert plan.arc_per_sector == pytest.approx(209.4395, abs=1e-3)
        assert plan.levels == 2
        assert plan.matched_curvature == 200.0

    def test_tiny_wheel_needs_one_level(self, reference):
        assert curved_rod_plan(1e-9, reference).levels == 1

    def test_exact_fit_boundary(self, reference):
        # One level exactly covers the sector arc.
        usable = reference.wheel.curved_rod_length - reference.wheel.hinge_allowance
        radius = usable * reference.wheel.spoke_pairs / (2 * math.pi)
        assert curved_rod_plan(radius, reference).levels == 1

    def test_nonpositive_radius_rejected(self, reference):
        with pytest.raises(ValueError):
            curved_rod_plan(0.0, reference)

    def test_hinges_consuming_the_rod_rejected(self, reference):
        p = reference._replace(
            wheel=reference.wheel._replace(hinge_allowance=120.0))
        with pytest.raises(ValueError, match="hinge"):
            curved_rod_plan(200.0, p)

    def test_minimal_cover_random(self, reference):
        rng = random.Random(11)
        for _ in range(300):
            radius = rng.uniform(0.5, 2000.0)
            rod = rng.uniform(5.0, 300.0)
            hinge = rng.uniform(0.0, rod * 0.95)
            p = reference._replace(
                wheel=reference.wheel._replace(curved_rod_length=rod,
                                               hinge_allowance=hinge,
                                               spoke_pairs=rng.randint(3, 12)))
            plan = curved_rod_plan(radius, p)
            usable = rod - hinge
            assert plan.levels * usable >= plan.arc_per_sector
            if plan.levels > 1:
                assert (plan.levels - 1) * usable < plan.arc_per_sector


class TestTriggerState:
    def test_at_full_length(self):
        assert trigger_state(340.0, 340.0) is TriggerMode.TELESCOPIC

    def test_compressed(self):
        assert trigger_state(330.0, 340.0) is TriggerMode.RIGID

    def test_over_extension_impossible(self):
        with pytest.raises(ValueError, match="over-extension"):
            trigger_state(341.0, 340.0)

    def test_zero_length_is_refused(self):
        # No verb reaches this guard: validation keeps every profile length
        # positive. At the boundary itself, a length of 0.0 is refused.
        with pytest.raises(ValueError, match="lengths must be positive"):
            trigger_state(0.0, 340.0)
        assert trigger_state(5e-324, 340.0) is TriggerMode.RIGID


V1_EXAMPLE = Path(__file__).resolve().parent / "data" / "profile_keyframes_v1.json"
V3_EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "examples" \
    / "profile_keyframes.json"


def text_columns(p, steps):
    """The four text columns ``keyframes_text`` takes, as ``profile`` makes them
    from ``transform_columns``: the reprs of the module lengths,
    half-separations and wheel radii, and the trigger modes' values."""
    *floats, modes = transform_columns(p, steps)
    return [*(list(map(repr, column)) for column in floats), [m.value for m in modes]]


def document(p, steps):
    """The keyframe document that ``profile --steps steps`` writes for ``p``."""
    return json.loads(keyframes_text(p, *text_columns(p, steps)))


class TestKeyframes:
    def test_record_geometry(self, reference):
        rec = expand_frame(document(reference, 3), 1)
        _, hs, radii, _ = transform_columns(reference, 3)
        h, r = hs[1], radii[1]
        assert rec["step"] == 1
        assert rec["trigger_mode"] == "rigid"
        assert rec["plate_positions"] == [-h, 0.0, h]
        assert len(rec["spokes"]) == reference.wheel.spoke_pairs
        for spoke in rec["spokes"]:
            x, y, z = spoke["hinge"]
            assert math.hypot(x, y) == pytest.approx(r, abs=1e-9)
            assert z == 0.0
            assert spoke["attachment_top"][2] == h
            assert spoke["attachment_bottom"][2] == -h
            # attachment-to-hinge distance is the rod half-length
            ax, ay, az = spoke["attachment_top"]
            assert math.sqrt((x - ax) ** 2 + (y - ay) ** 2 + az ** 2) \
                == pytest.approx(reference.wheel.rod_half_length, abs=1e-9)
        for x, y, z in rec["rim"]:
            assert math.hypot(x, y) == pytest.approx(r, abs=1e-9)
        assert rec["rim"][0] == rec["rim"][-1]  # closed polyline

    def test_frames_hold_only_scalars(self, reference):
        states = oracles.transform_profile(reference, 4)
        doc = document(reference, 4)
        assert doc["spoke_pairs"] == reference.wheel.spoke_pairs
        assert doc["hub_offset"] == reference.wheel.hub_offset
        assert doc["trigger_mode_runs"] == [["telescopic", 1], ["rigid", 3]]
        assert doc["frames"][2] == keyframes_document(states, reference)["frames"][2]
        for frame in doc["frames"]:
            assert set(frame) == {"module_length", "axial_half_separation", "wheel_radius"}

    def test_document_and_file_round_trip(self, reference):
        states = oracles.transform_profile(reference, 4)
        doc = document(reference, 4)
        assert doc["schema_version"] == KEYFRAME_SCHEMA_VERSION == 3
        assert len(doc["frames"]) == 4
        assert doc == keyframes_document(states, reference)

    def test_file_bytes_deterministic(self, reference):
        a, b = (keyframes_text(reference, *text_columns(reference, 4)) for _ in range(2))
        assert a == b == keyframes_json(oracles.transform_profile(reference, 4), reference)

    def test_file_is_compact_json(self, reference):
        text = keyframes_text(reference, *text_columns(reference, 4))
        assert text.endswith("}\n") and text.count("\n") == 1
        assert ", " not in text and ": " not in text

    def test_expand_frame_reproduces_schema_1(self, reference):
        """The committed 5-step schema-1 example is the oracle for schema 3,
        and for the schema-1 frames the oracles build from schema 2."""
        v1 = json.loads(V1_EXAMPLE.read_text())
        v3 = json.loads(V3_EXAMPLE.read_text())
        assert v1["schema_version"] == 1 and v3["schema_version"] == 3
        assert v3["spoke_pairs"] == v1["spoke_pairs"]
        assert v3["trigger_mode_runs"] == [["telescopic", 1], ["rigid", 4]]
        assert len(v3["frames"]) == len(v1["frames"]) == 5
        frames = oracles.schema2_frames(oracles.transform_profile(reference, 5))
        for i, frame in enumerate(v1["frames"]):
            assert expand_frame(v3, i) == frame
            assert oracles.plottable_frame(frames[i], reference) == frame

    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.one_of(st.sampled_from([2, 3, 2000]), st.integers(2, 2000)))
    @settings(max_examples=30, deadline=None)
    def test_expand_frame_gives_the_schema_2_frame_and_its_geometry(self, seed, steps):
        # Every frame of every step count: the step and trigger mode come
        # back from the frame's index and the header's runs.
        p = random_valid_params(random.Random(seed))
        doc = document(p, steps)
        frames = oracles.schema2_frames(oracles.transform_profile(p, steps))
        assert len(doc["frames"]) == len(frames) == steps
        for i, frame in enumerate(frames):
            assert expand_frame(doc, i) == oracles.plottable_frame(frame, p)

    @pytest.mark.parametrize("i", [-1, 4, 5], ids=["minus-one", "len", "past-len"])
    def test_expand_frame_refuses_an_index_outside_the_frames(self, reference, i):
        with pytest.raises(ValueError, match=fr"frame index must be in range\(4\), got {i}$"):
            expand_frame(document(reference, 4), i)

    @pytest.mark.parametrize("version", [1, 2, 4, "3", None])
    def test_expand_frame_refuses_another_schema(self, reference, version):
        doc = document(reference, 4)
        with pytest.raises(ValueError, match=f"schema_version must be 3, got {version!r}$"):
            expand_frame({**doc, "schema_version": version}, 0)

    def test_expand_frame_refuses_runs_that_miss_the_frame(self, reference):
        doc = {**document(reference, 4), "trigger_mode_runs": [["telescopic", 1], ["rigid", 2]]}
        assert expand_frame(doc, 2)["trigger_mode"] == "rigid"
        with pytest.raises(ValueError, match="trigger_mode_runs cover fewer than 4 frames"):
            expand_frame(doc, 3)
