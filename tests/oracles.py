"""Brute-force oracles: the closed-form inverse sizing in ``telescopic``, the
transformation and torque profiles state by state, the keyframe file as
``json.dumps`` writes it and the schema-2 and schema-1 frames that its
frames expand to, the peak of a torque profile, the metrics of a
sweep row, a card's warnings and PASS/FAIL flags check by check, and a run
report printed line by line, ``validate`` stage by stage as it was when each
stage read whole sections; and ``set_field``, the setter a sweep applies at
each point."""

import json
import math
import types
import typing

from morphwheel import InfeasibleError, bending, params, quasistatics, wheelgeom
from morphwheel.cli import _fmt
from morphwheel.params import (
    _MAX_LEVELS,
    _MIN_STROKE_SHARE,
    Violation,
    elongated_length,
    min_half_separation,
    reduced_length,
    screw_diameter,
)
from morphwheel.report import DEFAULT_TOTAL_BEND
from morphwheel.telescopic import module_lengths
from morphwheel.wheelgeom import (
    ARC_POINTS_PER_SECTOR,
    KEYFRAME_SCHEMA_VERSION,
    TriggerMode,
    bulge_radius,
    trigger_state,
)


def set_field(p, path: str, value: float):
    """A copy of design ``p`` with the dotted numeric field ``path`` set to ``value``."""
    field = params._field_path(path)
    return field.setter(p)(field.value(value))


def _ratio(screw_length: float, n_levels: int, residual: float) -> float:
    return (2.0 * screw_length + residual) / (2.0 * n_levels * screw_length + residual)


def scan_min_screw_length(n_levels: int, residual: float, target_ratio: float,
                          step: float = 0.1, limit: float = 1e4) -> float:
    """First multiple of ``step`` meeting the target."""
    k = 1
    while k * step <= limit:
        s = k * step
        if _ratio(s, n_levels, residual) <= target_ratio:
            return s
        k += 1
    raise InfeasibleError("infeasible: not enough levels for this ratio")


def scan_min_levels(screw_length: float, residual: float, target_ratio: float) -> int:
    """Increment the level count until the check passes."""
    n = 1
    while _ratio(screw_length, n, residual) > target_ratio:
        n += 1
    return n


class State(typing.NamedTuple):
    """One instant of the crawler-to-wheel transformation: one row of
    ``wheelgeom.transform_columns``."""

    module_length: float          # mm
    axial_half_separation: float  # mm, h of the rod pair
    wheel_radius: float           # mm
    trigger_mode: TriggerMode


class Entry(typing.NamedTuple):
    """The load at one state: its module length, then its row of
    ``quasistatics.torque_columns``."""

    module_length: float     # mm
    axial_force: float       # N
    per_motor_torque: float  # N*mm


def transform_profile(p, steps: int) -> list[State]:
    """``wheelgeom.transform_columns`` one state at a time: each state's
    radius from ``bulge_radius``, its trigger mode from ``trigger_state`` and
    its ``State`` from the named tuple's constructor, refusing a state that
    does not shorten the module and widen the wheel where it is built."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if steps > params._MAX_STEPS:
        raise ValueError(f"steps must be <= {params._MAX_STEPS}")
    elongated = module_lengths(p).elongated
    w = p.wheel
    l, hub_offset = w.rod_half_length, w.hub_offset
    h_min = params.min_half_separation(p)

    states = []
    last_length, last_radius = math.inf, -math.inf
    for i in range(steps):
        if i == 0:
            h = l
        elif i == steps - 1:
            h = h_min
        else:
            h = l + (h_min - l) * (i / (steps - 1))
        length = elongated - 2.0 * (l - h)
        radius = bulge_radius(l, h, hub_offset)
        if not (length < last_length and radius > last_radius):
            raise ValueError(f"{steps} steps are finer than the design resolves: state {i} "
                             "does not shorten the module and widen the wheel")
        last_length, last_radius = length, radius
        states.append(State(length, h, radius, trigger_state(length, elongated)))
    return states


def torque_profile(p, states, table=None) -> list[Entry]:
    """``quasistatics.torque_columns`` at the ``states``, one state at a time:
    each state's force from ``silicone_force``, its torque from
    ``screw_torque`` whenever the force is another float object than the
    state's before, and its ``Entry`` from the named tuple's constructor."""
    if table is None:
        table = quasistatics.default_force_table()
    dr = p.drive
    elongated = states[0].module_length
    entries, force, torque = [], None, None
    for state in states:
        f = quasistatics.silicone_force(table, (elongated - state.module_length) / 10.0)
        if f is not force:
            force, torque = f, quasistatics.screw_torque(
                f / 3.0, dr.screw_lead, dr.screw_mean_diameter, dr.screw_friction)
        entries.append(Entry(state.module_length, force, torque))
    return entries


def schema2_frames(states) -> list[dict]:
    """The frames of ``states`` as keyframe schema 2 wrote them: each state's
    step, its three scalars and its trigger mode."""
    return [{
        "step": i,
        "module_length": s.module_length,
        "axial_half_separation": s.axial_half_separation,
        "wheel_radius": s.wheel_radius,
        "trigger_mode": s.trigger_mode.value,
    } for i, s in enumerate(states)]


def plottable_frame(frame: dict, p) -> dict:
    """A schema-2 ``frame`` of design ``p`` with the plate, spoke and rim
    geometry that schema 1 stored beside it: the end plates at -h, 0 and h;
    per spoke pair, at its azimuth, the top and bottom plate attachments at
    the hub offset and the hinge at the wheel radius; the rim as a closed
    polyline of ``ARC_POINTS_PER_SECTOR`` points per spoke sector."""
    h, r, hub = frame["axial_half_separation"], frame["wheel_radius"], p.wheel.hub_offset
    spokes = []
    for k in range(p.wheel.spoke_pairs):
        psi = 2.0 * math.pi * k / p.wheel.spoke_pairs
        x, y = math.cos(psi), math.sin(psi)
        spokes.append({"azimuth": psi, "hinge": [r * x, r * y, 0.0],
                       "attachment_top": [hub * x, hub * y, h],
                       "attachment_bottom": [hub * x, hub * y, -h]})
    n_rim = p.wheel.spoke_pairs * ARC_POINTS_PER_SECTOR
    rim = [[r * math.cos(2.0 * math.pi * k / n_rim), r * math.sin(2.0 * math.pi * k / n_rim), 0.0]
           for k in range(n_rim)]
    return {**frame, "plate_positions": [-h, 0.0, h], "spokes": spokes, "rim": [*rim, rim[0]]}


def keyframes_document(states, p) -> dict:
    """The schema-3 keyframe document of ``states`` of design ``p``: the wheel
    topology and the trigger modes, as ``[mode, count]`` runs in state order,
    once, then the three scalars of each state."""
    runs = []
    for s in states:
        if runs and runs[-1][0] == s.trigger_mode.value:
            runs[-1][1] += 1
        else:
            runs.append([s.trigger_mode.value, 1])
    return {
        "schema_version": KEYFRAME_SCHEMA_VERSION,
        "spoke_pairs": p.wheel.spoke_pairs,
        "hub_offset": p.wheel.hub_offset,
        "arc_points_per_sector": ARC_POINTS_PER_SECTOR,
        "trigger_mode_runs": runs,
        "frames": [{
            "module_length": s.module_length,
            "axial_half_separation": s.axial_half_separation,
            "wheel_radius": s.wheel_radius,
        } for s in states],
    }


def keyframes_json(states, p) -> str:
    """The keyframe file of ``states``: their document as compact, sorted-key
    JSON plus a newline."""
    return json.dumps(keyframes_document(states, p), sort_keys=True, separators=(",", ":")) + "\n"


def peak_index(torques) -> int:
    """Index of the first of the largest per-motor ``torques``."""
    return max(range(len(torques)), key=torques.__getitem__)


def sweep_row(p) -> tuple[float, ...]:
    """The ``report.SWEEP_METRICS`` of a valid design from the public formulas
    alone: the module lengths and their ratio, the chassis diameter at the
    default bend, the fully compressed wheel radius and the peak torque on the
    default force table."""
    elongated, reduced = params.elongated_length(p), params.reduced_length(p)
    theta = DEFAULT_TOTAL_BEND / p.platform.plate_count
    return (elongated, reduced, reduced / elongated,
            bending.chassis_diameter(p, theta).chassis_diameter,
            wheelgeom.transform_endpoint_radius(p), quasistatics.peak_load(p)[1])


_REL_TOL = 1e-6


class Inconsistency(typing.NamedTuple):
    """One WARNING line of a run report: a computed quantity against a
    reported value, or against a second model."""

    code: str
    detail: str
    computed: float | None = None
    reported: float | None = None


def _mismatch(code: str, computed: float, reported: float | None,
              detail: str) -> Inconsistency | None:
    if reported is None:
        return None
    if abs(computed - reported) <= _REL_TOL * max(1.0, abs(reported)):
        return None
    return Inconsistency(code=code, detail=detail, computed=computed, reported=reported)


def _length_identity_warnings(p) -> tuple[Inconsistency, ...]:
    # Elongated and reduced module lengths differ by 2 * S_L * (N - 1) by
    # construction, so any pair of reported lengths must honour the same
    # identity.
    rep = p.reported
    if rep.elongated_length is None or rep.reduced_length is None:
        return ()
    implied = rep.elongated_length - rep.reduced_length
    derived = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
    if abs(implied - derived) <= _REL_TOL * max(1.0, abs(derived)):
        return ()
    return (Inconsistency("reported_length_identity",
                          "reported elongated - reduced length gap does not match "
                          "2 * screw_level_length * (n_levels - 1)", derived, implied),)


def warnings(p, total_bend: float = DEFAULT_TOTAL_BEND) -> tuple[Inconsistency, ...]:
    """The WARNING records of a valid design's card at ``total_bend``, one
    check at a time from the public formulas: the identity of the reported
    lengths first, then each reported value given, then the wheel stroke's
    end against the telescopic reduced length."""
    theta = total_bend / p.platform.plate_count
    rep = p.reported
    elongated, reduced = params.elongated_length(p), params.reduced_length(p)
    stroke_end = elongated - 2.0 * (p.wheel.rod_half_length - params.min_half_separation(p))
    checks = (
        _mismatch("elongated_length_mismatch", elongated, rep.elongated_length,
                  "computed elongated module length differs from the reported value"),
        _mismatch("reduced_length_mismatch", reduced, rep.reduced_length,
                  "computed reduced module length differs from the reported value"),
        _mismatch("chassis_diameter_mismatch",
                  bending.chassis_diameter(p, theta).chassis_diameter, rep.chassis_diameter,
                  "computed chassis diameter differs from the reported value"),
        _mismatch("rod_half_expansion_mismatch", bending.rod_half_expansion(p, theta),
                  rep.rod_half_expansion,
                  "computed rod half expansion differs from the reported value"),
        _mismatch("wheel_diameter_mismatch", 2.0 * wheelgeom.transform_endpoint_radius(p),
                  rep.wheel_diameter,
                  "computed full-compression wheel diameter differs from the reported value"),
        None if stroke_end >= reduced else Inconsistency(
            "wheel_stroke_exceeds_telescopic_stroke",
            "the wheel stroke ends at a module length (computed) below the "
            "telescopic reduced length (reported)", stroke_end, reduced),
    )
    return (*_length_identity_warnings(p), *(c for c in checks if c is not None))


def card_flags(p, target_ratio: float = 0.5, total_bend: float = DEFAULT_TOTAL_BEND,
               table=None) -> dict[str, bool]:
    """The PASS/FAIL values of a valid design's card, in its order: the
    reduction ratio against ``target_ratio``, the peak torque on ``table``
    against the stall torque, and a ``target_*_ok`` per reported length or
    wheel diameter given, which passes when its ``*_mismatch`` warning is
    absent."""
    flags = {"reduction_ok": params.reduced_length(p) / params.elongated_length(p) <= target_ratio,
             "motor_check_ok": quasistatics.peak_load(p, table)[1] <= p.drive.motor_stall_torque}
    codes = {w.code for w in warnings(p, total_bend)}
    for key, target in (("target_elongated_ok", "elongated_length"),
                        ("target_reduced_ok", "reduced_length"),
                        ("target_wheel_diameter_ok", "wheel_diameter")):
        if getattr(p.reported, target) is not None:
            flags[key] = f"{target}_mismatch" not in codes
    return flags


def print_report(rr) -> None:
    """A run report as ``validate`` and ``report`` print it, one ``print`` a
    line, with the CLI's value format."""
    print(f"digest: {rr.digest}")
    if rr.validation.valid:
        print("validation: OK")
    else:
        print(f"validation: {len(rr.validation.violations)} violation(s)")
    for v in rr.validation.violations:
        print(f"VIOLATION {v.field}: {v.constraint}")
    for key, value in rr.outputs.items():
        print(f"{key} = {_fmt(value)}")
    for w in rr.warnings:
        print(f"WARNING {w.code}: computed={_fmt(w.computed)} "
              f"reported={_fmt(w.reported)} ({w.detail})")


# ---------------------------------------------------------------------------
# ``params.validate`` as seven stages that each read whole sections: the
# screw and layout, the platform, the wheel and the drive, then, on a
# structurally sound design only, the stroke and wheel radius, the peak load
# and the plate tilt. The package splits them at check boundaries so that a
# sweep point reruns only the checks that read its field; these are the
# checks as they were before the split.

def _positive(out: list[Violation], section: str, obj, names: tuple[str, ...]) -> None:
    for name in names:
        if not getattr(obj, name) > 0:
            out.append(Violation(f"{section}.{name}", f"{name} > 0"))


def _check_screw(p, v, got):
    s, lay = p.screw, p.layout
    if s.n_levels < 1:
        v.append(Violation("screw.n_levels", "n_levels >= 1"))
    elif s.n_levels > _MAX_LEVELS:
        v.append(Violation("screw.n_levels", f"n_levels <= {_MAX_LEVELS}"))
    _positive(v, "screw", s,
              ("screw_level_length", "stopper_width", "thread_width", "base_screw_diameter"))
    if s.thread_clearance < 0:
        v.append(Violation("screw.thread_clearance", "thread_clearance >= 0"))
    _positive(v, "layout", lay, ("joint_arm_height", "drive_assembly_length",
                                 "tensioner_length", "plate_clearance"))
    return {"elongated_length_mm": elongated_length(p), "reduced_length_mm": reduced_length(p)}


def _check_platform(p, v, got):
    _positive(v, "platform", p.platform, ("screw_circle_spacing", "max_screw_extension",
                                          "joint_mount_width", "universal_joint_diameter"))
    if p.platform.plate_count < 1:
        v.append(Violation("platform.plate_count", "plate_count >= 1"))


def _check_wheel(p, v, got):
    w = p.wheel
    _positive(v, "wheel", w, ("rod_half_length", "curved_rod_length"))
    if w.hub_offset < 0:
        v.append(Violation("wheel.hub_offset", "hub_offset >= 0"))
    if w.hinge_allowance < 0:
        v.append(Violation("wheel.hinge_allowance", "hinge_allowance >= 0"))
    if not w.hinge_allowance < w.curved_rod_length:
        v.append(Violation("wheel.hinge_allowance", "hinge_allowance < curved_rod_length"))
    if w.spoke_pairs < 3:
        v.append(Violation("wheel.spoke_pairs", "spoke_pairs >= 3"))
    if w.min_half_separation is not None and w.min_half_separation < 0:
        v.append(Violation("wheel.min_half_separation", "min_half_separation >= 0"))
    h_min = min_half_separation(p)
    # A rod pair that cannot fold forms no wheel.
    if not h_min < w.rod_half_length:
        v.append(Violation("wheel.min_half_separation",
                           "min_half_separation < rod_half_length"))
    # Each unit of half-separation lost shortens the module by two, so a
    # longer wheel stroke would compress the module to nothing.
    if 2.0 * (w.rod_half_length - h_min) >= got["elongated_length_mm"]:
        v.append(Violation("wheel.rod_half_length",
                           "2 * (rod_half_length - min_half_separation) < elongated length"))
    return {"travel": w.rod_half_length - h_min}


def _check_drive(p, v, got):
    dr = p.drive
    _positive(v, "drive", dr, ("motor_stall_torque", "screw_lead", "screw_mean_diameter"))
    if not 0 <= dr.screw_friction < 1:
        v.append(Violation("drive.screw_friction", "0 <= screw_friction < 1"))
    # With pi * d <= mu * lead no motor torque can raise the load: the screw jams.
    if dr.screw_mean_diameter > 0 \
            and not math.pi * dr.screw_mean_diameter > dr.screw_friction * dr.screw_lead:
        v.append(Violation("drive.screw_mean_diameter",
                           "pi * screw_mean_diameter > screw_friction * screw_lead"))


# The overflow stages, which run only on a structurally sound design. The
# card, the profile and a sweep row print these quantities: none may
# overflow, and the wheel stroke, twice the rod ``travel``, must change the
# module length, the half-separation and the wheel radius by a share that
# floats resolve. The rim plan also rounds the rim arc over the usable rod
# length to a level count and checks it in floats, which count exactly only
# below 2**53.
def _check_stroke(p, v, got):
    w, elongated, travel = p.wheel, got["elongated_length_mm"], got["travel"]
    if not math.isfinite(elongated):
        v.append(Violation("screw.screw_level_length", "elongated length is finite"))
    elif not 2.0 * travel > _MIN_STROKE_SHARE * elongated:
        v.append(Violation("wheel.rod_half_length", "2 * (rod_half_length - "
                           "min_half_separation) > 2**-30 * elongated length"))
    if not travel > _MIN_STROKE_SHARE * w.rod_half_length:
        v.append(Violation("wheel.min_half_separation", "rod_half_length - "
                           "min_half_separation > 2**-30 * rod_half_length"))
    if not math.isfinite(screw_diameter(p, p.screw.n_levels - 1)):
        v.append(Violation("screw.thread_width", "outermost screw diameter is finite"))
    radius = wheelgeom.transform_endpoint_radius(p)
    arc = wheelgeom.rim_arc(radius, w.spoke_pairs)
    if not math.isfinite(radius):
        v.append(Violation("wheel.rod_half_length", "wheel radius is finite"))
    elif not math.isfinite(arc):
        v.append(Violation("wheel.hub_offset", "rim arc of the wheel radius is finite"))
    elif not arc / (w.curved_rod_length - w.hinge_allowance) < 2.0 ** 53:
        v.append(Violation("wheel.curved_rod_length",
                           "rim arc / (curved_rod_length - hinge_allowance) < 2**53"))
    elif not radius - w.hub_offset > _MIN_STROKE_SHARE * radius:
        v.append(Violation("wheel.hub_offset",
                           "wheel radius - hub_offset > 2**-30 * wheel radius"))
    return {"reduction_ratio": got["reduced_length_mm"] / elongated, "wheel_radius_mm": radius}


def _check_peak_load(p, v, got):
    force, torque = quasistatics.peak_load(p)
    if not math.isfinite(torque):
        v.append(Violation("drive.screw_mean_diameter", "peak torque is finite"))
    return {"peak_axial_force_N": force, "peak_torque_Nmm": torque}


def _check_tilt(p, v, got):
    # The card's chassis and rod lengths grow with the plate tilt.
    tilt = bending.MAX_PLATE_TILT
    if not math.isfinite(bending.chassis_diameter(p, tilt).chassis_diameter):
        v.append(Violation("platform.max_screw_extension",
                           "chassis diameter at a pi/4 tilt is finite"))
    if not math.isfinite(2.0 * bending.rod_half_expansion(p, tilt)):
        v.append(Violation("platform.joint_mount_width",
                           "rod length at a pi/4 tilt is finite"))


def validate_by_sections(p) -> params.ValidationReport:
    """``params.validate(p)`` from the seven stages above, run in order: every
    violation in their order and, for a valid design, the read-only mapping of
    the quantities they give, in their order, under the card's keys."""
    v, got = [], {}
    for stages in ((_check_screw, _check_platform, _check_wheel, _check_drive),
                   (_check_stroke, _check_peak_load, _check_tilt)):
        if v:
            break
        for stage in stages:
            got.update(stage(p, v, got) or {})
    if v:
        return params.ValidationReport(tuple(v))
    return params.ValidationReport((), types.MappingProxyType(got))
