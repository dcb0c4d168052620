"""Reference model and output checks, written apart from ``morphwheel``.

Every closed form is re-derived here from the design model itself (the
axial length budget, the hinged rod pair, the power screw, the rim cover)
and nothing is imported from the package, so an algebra slip in the program
cannot hide behind the same slip in its check.

A design is a plain dict of config sections (``screw``, ``layout``,
``platform``, ``wheel``, ``drive``); a force table is a list of
``(length change cm, force N)`` pairs. Each ``check_*`` function raises
``CheckError`` on the first disagreement it finds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from bisect import bisect_right

# Design bend envelope: 45 degrees per platform, shared over its plates.
TOTAL_BEND = math.pi / 4.0
# Transformation steps behind the torque peak of a card or a sweep point.
CARD_STEPS = 50
# Documented config defaults (see configs/reference.yaml).
STOPPER_HEIGHT = 2.0  # mm per screw level: residual rod half-separation
DEFAULTS = {
    "screw": {"base_screw_diameter": 2.3},
    "platform": {"plate_count": 4},
    "wheel": {"spoke_pairs": 6},
    "drive": {"motor_stall_torque": 1470.0, "screw_lead": 2.0,
              "screw_friction": 0.2, "screw_mean_diameter": 8.0},
}

# CSV columns carry repr() floats; the card prints 6 significant digits.
EXACT_REL = 1e-9
CARD_REL = 1e-5


class CheckError(Exception):
    """A program output disagrees with the reference model."""


def _close(got: float, want: float, what: str, rel: float = EXACT_REL) -> None:
    if not abs(got - want) <= rel * abs(want) + 1e-12:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _num(text, what: str) -> float:
    """A number the program printed; a blank, missing or malformed one fails."""
    try:
        return float(text)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: not a number: {text!r}") from None


def _near_tie(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# design quantities

def with_defaults(doc: dict) -> dict:
    """Config sections with every documented default filled in."""
    d = {name: dict(DEFAULTS.get(name, {}), **(doc.get(name) or {}))
         for name in ("screw", "layout", "platform", "wheel", "drive")}
    d["layout"].setdefault("joint_height", 2.0 * d["layout"]["joint_arm_height"])
    d["wheel"].setdefault("min_half_separation",
                          STOPPER_HEIGHT * d["screw"]["n_levels"])
    return d


def with_field(d: dict, path: str, value: float) -> dict:
    """Copy of a design with one ``section.key`` replaced."""
    section, key = path.split(".")
    out = {name: dict(sec) for name, sec in d.items()}
    out[section][key] = value
    return out


def residual(d: dict) -> float:
    """Axial length that never telescopes: two joints, clearance, drive, tensioner."""
    lay = d["layout"]
    return (2.0 * lay["joint_height"] + lay["plate_clearance"]
            + lay["drive_assembly_length"] + lay["tensioner_length"])


def lengths(d: dict) -> tuple[float, float]:
    """(elongated, reduced): two platforms of n levels each, or one level each."""
    s_l, n = d["screw"]["screw_level_length"], d["screw"]["n_levels"]
    k = residual(d)
    return 2.0 * n * s_l + k, 2.0 * s_l + k


def reduction_ratio(s_l: float, n: int, k: float) -> float:
    return (2.0 * s_l + k) / (2.0 * n * s_l + k)


def plate_tilt(d: dict) -> float:
    return TOTAL_BEND / d["platform"]["plate_count"]


def chassis(d: dict) -> tuple[float, float, float]:
    """(screw offset, triangle base, diameter) of the chassis at the design tilt.

    The offset is half the screw spacing (cos 60 degrees); the base is the
    lateral excursion of a fully extended screw at the plate tilt.
    """
    pf = d["platform"]
    offset = pf["screw_circle_spacing"] / 2.0
    base = pf["max_screw_extension"] * math.sin(plate_tilt(d))
    return offset, base, 2.0 * (offset + base)


def bulge_radius(l: float, h: float, hub: float) -> float:
    """Hinge radius of a rod pair of half-length l at half-separation h."""
    return math.sqrt((l - h) * (l + h)) + hub


def h_min(d: dict) -> float:
    return d["wheel"]["min_half_separation"]


def predicts_crash(d: dict) -> bool:
    """True when the wheel stroke 2(l - h_min) uses up the elongated length."""
    elongated, _ = lengths(d)
    return elongated <= 2.0 * (d["wheel"]["rod_half_length"] - h_min(d))


def silicone_force(table: list, x_cm: float) -> float:
    """Piecewise-linear force lookup, clamped to the end samples."""
    xs = [x for x, _ in table]
    if x_cm <= xs[0]:
        return table[0][1]
    if x_cm >= xs[-1]:
        return table[-1][1]
    i = bisect_right(xs, x_cm)
    (x0, f0), (x1, f1) = table[i - 1], table[i]
    return f0 + (f1 - f0) * (x_cm - x0) / (x1 - x0)


def screw_torque(force: float, d: dict) -> float:
    """Raising torque of a square-thread power screw: F d/2 tan(lead angle + friction angle)."""
    dr = d["drive"]
    dm, lead, mu = dr["screw_mean_diameter"], dr["screw_lead"], dr["screw_friction"]
    return force * dm / 2.0 * math.tan(math.atan(lead / (math.pi * dm)) + math.atan(mu))


def per_motor_torque(table: list, d: dict, l: float, h: float) -> tuple[float, float]:
    """(axial force, per-motor torque) once the rod pair has closed from l to h.

    The module has shortened by 2(l - h) mm; the three screws share the load.
    """
    force = silicone_force(table, 2.0 * (l - h) / 10.0)
    return force, screw_torque(force / 3.0, d)


def half_separations(d: dict, steps: int) -> list[float]:
    l, h_end = d["wheel"]["rod_half_length"], h_min(d)
    return [l - (l - h_end) * i / (steps - 1) for i in range(steps)]


def torque_peak(d: dict, table: list, steps: int = CARD_STEPS) -> tuple[float, float]:
    """(peak axial force, peak per-motor torque) over the transformation."""
    l = d["wheel"]["rod_half_length"]
    pairs = [per_motor_torque(table, d, l, h) for h in half_separations(d, steps)]
    return max(f for f, _ in pairs), max(t for _, t in pairs)


def wheel_radius(d: dict) -> float:
    w = d["wheel"]
    return bulge_radius(w["rod_half_length"], h_min(d), w["hub_offset"])


def rim_cover(d: dict, radius: float) -> tuple[float, set[int]]:
    """(arc per sector, acceptable level counts): fewest levels covering the arc."""
    w = d["wheel"]
    arc = 2.0 * math.pi * radius / w["spoke_pairs"]
    usable = w["curved_rod_length"] - w["hinge_allowance"]
    q = arc / usable
    levels = max(1, math.ceil(q))
    ok = {levels}
    if abs(q - round(q)) <= 1e-9 * max(q, 1.0):  # exact cover is a tie
        ok |= {max(1, round(q)), round(q) + 1}
    return arc, ok


# ---------------------------------------------------------------------------
# design card

def expected_card(d: dict, table: list, target: float = 0.5) -> dict:
    """Card values the model predicts; ``None`` marks a boolean at a tie."""
    sc, pf = d["screw"], d["platform"]
    elongated, reduced = lengths(d)
    theta = plate_tilt(d)
    offset, base, diameter = chassis(d)
    step = sc["thread_width"] + sc["thread_clearance"] + sc["stopper_width"]
    out = {
        "elongated_length_mm": elongated,
        "reduced_length_mm": reduced,
        "reduction_ratio": reduced / elongated,
        "reduction_target": target,
        "reduction_ok": None if _near_tie(reduced / elongated, target)
        else reduced / elongated <= target,
        "shaft_levels": sc["n_levels"] - 1,
        "screw_diameters_mm": tuple(sc["base_screw_diameter"] + k * step
                                    for k in range(sc["n_levels"])),
        "total_bend_rad": TOTAL_BEND,
        "per_plate_bend_rad": theta,
        "chassis_offset_mm": offset,
        "chassis_triangle_base_mm": base,
        "chassis_diameter_mm": diameter,
    }
    reach = pf["joint_mount_width"] + pf["universal_joint_diameter"] / 2.0 \
        + pf["max_screw_extension"]
    half = reach * math.sin(theta)
    rod_max = 2.0 * half
    rod_min = rod_max - diameter * math.sin(theta)
    if _near_tie(rod_min, 0.0):
        out["rod_sizing"] = None
    elif rod_min <= 0:
        out["rod_sizing"] = "INFEASIBLE"
    else:
        out.update({
            "rod_half_expansion_mm": half,
            "rod_length_max_mm": rod_max,
            "rod_length_min_mm": rod_min,
            "rod_outer_segment_mm": rod_min,
            "rod_inner_segment_mm": rod_max - rod_min,
        })
    radius = wheel_radius(d)
    arc, levels = rim_cover(d, radius)
    force, torque = torque_peak(d, table)
    stall = d["drive"]["motor_stall_torque"]
    out.update({
        "wheel_radius_mm": radius,
        "wheel_diameter_mm": 2.0 * radius,
        "rim_arc_per_sector_mm": arc,
        "curved_rod_levels": levels,
        "curved_rod_curvature_mm": radius,
        "peak_axial_force_N": force,
        "peak_torque_Nmm": torque,
        "motor_check_ok": None if _near_tie(torque, stall) else torque <= stall,
    })
    return out


_WHEEL_KEYS = ("wheel_radius_mm", "wheel_diameter_mm", "rim_arc_per_sector_mm",
               "curved_rod_levels", "curved_rod_curvature_mm",
               "peak_axial_force_N", "peak_torque_Nmm", "motor_check_ok")


def parse_card(stdout: str) -> dict[str, str]:
    """``key = value`` lines of a design card, by key."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _card_value(key: str, got: str, want) -> None:
    if isinstance(want, bool):
        if got != ("PASS" if want else "FAIL"):
            raise CheckError(f"card {key}: got {got}, expected {want}")
    elif isinstance(want, set):
        if not got.isdigit() or int(got) not in want:
            raise CheckError(f"card {key}: got {got}, expected one of {sorted(want)}")
    elif isinstance(want, int):
        if got != str(want):
            raise CheckError(f"card {key}: got {got}, expected {want}")
    elif isinstance(want, tuple):
        parts = got.split(", ")
        if len(parts) != len(want):
            raise CheckError(f"card {key}: got {len(parts)} values, expected {len(want)}")
        for i, (g, w) in enumerate(zip(parts, want)):
            _close(_num(g, f"card {key}[{i}]"), w, f"card {key}[{i}]", CARD_REL)
    else:
        _close(_num(got, f"card {key}"), want, f"card {key}", CARD_REL)


def check_card(stdout: str, d: dict, table: list, crash: bool = False) -> None:
    """Check every card value the model predicts, parsing the card by key.

    A design whose wheel stroke overruns its length (``crash``) may only
    produce a card that flags its wheel geometry as infeasible.
    """
    card = parse_card(stdout)
    want = expected_card(d, table)
    if crash:
        flag = card.get("wheel_geometry", "")
        if not flag.startswith("INFEASIBLE"):
            raise CheckError("card of an overrunning wheel stroke lacks an INFEASIBLE flag")
        want = {k: v for k, v in want.items() if k not in _WHEEL_KEYS}
    if want.pop("rod_sizing", "") == "INFEASIBLE" \
            and not card.get("rod_sizing", "").startswith("INFEASIBLE"):
        raise CheckError("card rod_sizing: expected an INFEASIBLE flag")
    for key, value in want.items():
        if key not in card:
            raise CheckError(f"card lacks {key}")
        if value is not None:
            _card_value(key, card[key], value)


# ---------------------------------------------------------------------------
# inverse sizing

def _meets(s_l: float, n: int, k: float, target: float) -> bool | None:
    r = reduction_ratio(s_l, n, k)
    return None if abs(r - target) <= 1e-12 else r <= target


def check_min_screw_length(length: float, degenerate: bool, n: int, k: float,
                           target: float) -> None:
    """The returned level length meets the target and no shorter one does."""
    if target == 1.0:
        if not degenerate or length != 0.0:
            raise CheckError("a target ratio of 1 needs no telescoping")
        return
    if degenerate:
        raise CheckError("min_screw_length: unexpected degenerate solution")
    # (2S + K) / (2nS + K) = t  =>  S = K (1 - t) / (2 (n t - 1))
    _close(length, k * (1.0 - target) / (2.0 * (n * target - 1.0)),
           "min_screw_length")
    if _meets(length * (1.0 + 1e-9), n, k, target) is False:
        raise CheckError(f"min_screw_length {length!r} misses the target ratio")
    if _meets(length * (1.0 - 1e-6), n, k, target) is True:
        raise CheckError(f"min_screw_length {length!r} is not minimal")


def check_min_levels(levels: int, s_l: float, k: float, target: float) -> None:
    """The returned level count meets the target and one fewer does not."""
    if levels < 1 or _meets(s_l, levels, k, target) is False:
        raise CheckError(f"min_levels {levels} misses the target ratio")
    if levels > 1 and _meets(s_l, levels - 1, k, target) is True:
        raise CheckError(f"min_levels {levels} is not minimal")


# ---------------------------------------------------------------------------
# profile: CSV and keyframes

def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_profile(csv_text: str, keyframes_text: str, d: dict, table: list,
                  steps: int) -> None:
    """Check the profile CSV row by row and the keyframes frame by frame."""
    w = d["wheel"]
    l, hub = w["rod_half_length"], w["hub_offset"]
    elongated, _ = lengths(d)
    rows = _rows(csv_text)
    if len(rows) != steps:
        raise CheckError(f"profile has {len(rows)} rows, expected {steps}")
    prev = None
    for i, (row, h_want) in enumerate(zip(rows, half_separations(d, steps))):
        length, h, r = (_num(row.get(c), f"row {i} {c}")
                        for c in ("module_length_mm", "h_mm", "wheel_radius_mm"))
        if abs(h - h_want) > 1e-9 * l:
            raise CheckError(f"row {i} h: got {h!r}, expected {h_want!r}")
        _close(r, bulge_radius(l, h, hub), f"row {i} wheel radius")
        _close(length, elongated - 2.0 * (l - h), f"row {i} module length")
        force, torque = per_motor_torque(table, d, l, h)
        _close(_num(row.get("axial_force_N"), f"row {i} axial force"), force,
               f"row {i} axial force")
        _close(_num(row.get("per_motor_torque_Nmm"), f"row {i} torque"), torque,
               f"row {i} torque")
        mode = "telescopic" if i == 0 else "rigid"
        if row["trigger_mode"] != mode:
            raise CheckError(f"row {i} trigger mode {row['trigger_mode']}, expected {mode}")
        if prev is not None and not (length < prev[0] and r > prev[1]):
            raise CheckError(f"row {i}: length must fall and radius rise strictly")
        prev = (length, r)

    frames = json.loads(keyframes_text)["frames"]
    if len(frames) != steps:
        raise CheckError(f"keyframes hold {len(frames)} frames, expected {steps}")
    for i, (frame, row) in enumerate(zip(frames, rows)):
        for key, col in (("module_length", "module_length_mm"),
                         ("axial_half_separation", "h_mm"),
                         ("wheel_radius", "wheel_radius_mm")):
            _close(_num(frame.get(key), f"frame {i} {key}"), float(row[col]),
                   f"frame {i} {key}")
        _check_frame_geometry(frame, i, hub)


def _at_radius(point, radius: float, z: float, what: str) -> None:
    _close(math.hypot(point[0], point[1]), radius, f"{what} radius")
    _close(point[2], z, f"{what} z")


def _check_frame_geometry(frame: dict, i: int, hub: float) -> None:
    """Spokes and rim, where a frame carries them: hinges and rim at the
    wheel radius, rod attachments at the hub offset and +/- h."""
    h, r = frame["axial_half_separation"], frame["wheel_radius"]
    for k, spoke in enumerate(frame.get("spokes", ())):
        _at_radius(spoke["hinge"], r, 0.0, f"frame {i} spoke {k} hinge")
        _at_radius(spoke["attachment_top"], hub, h, f"frame {i} spoke {k} top")
        _at_radius(spoke["attachment_bottom"], hub, -h, f"frame {i} spoke {k} bottom")
    for k, point in enumerate(frame.get("rim", ())):
        _at_radius(point, r, 0.0, f"frame {i} rim point {k}")


# ---------------------------------------------------------------------------
# sweep

SWEEP_OBJECTIVES = {
    "min-reduced-length": ("reduced_length_mm", min, "argmin"),
    "max-wheel-radius": ("wheel_radius_mm", max, "argmax"),
    "min-peak-torque": ("peak_torque_Nmm", min, "argmin"),
}

_BEST = re.compile(r"^(argmin|argmax) (\S+): (\S+)=(\S+) -> (\S+)=(\S+) \(row (\d+)\)$")


def sweep_point(d: dict, table: list) -> dict[str, float]:
    elongated, reduced = lengths(d)
    return {
        "elongated_length_mm": elongated,
        "reduced_length_mm": reduced,
        "reduction_ratio": reduced / elongated,
        "chassis_diameter_mm": chassis(d)[2],
        "wheel_radius_mm": wheel_radius(d),
        "peak_torque_Nmm": torque_peak(d, table)[1],
    }


def check_sweep(csv_text: str, stdout: str, d: dict, table: list, param: str,
                start: float, stop: float, points: int, objective: str) -> None:
    """Every row against the model at its grid value, then the printed best row."""
    metric, best_fn, label = SWEEP_OBJECTIVES[objective]
    rows = _rows(csv_text)
    if len(rows) != points:
        raise CheckError(f"sweep has {len(rows)} rows, expected {points}")
    model = []
    for i, row in enumerate(rows):
        value = start + (stop - start) * i / (points - 1)
        _close(_num(row.get(param), f"sweep row {i} {param}"), value,
               f"sweep row {i} {param}")
        want = sweep_point(with_field(d, param, value), table)
        for key, expected in want.items():
            _close(_num(row.get(key), f"sweep row {i} {key}"), expected,
                   f"sweep row {i} {key}")
        _close(_num(row.get("objective"), f"sweep row {i} objective"), want[metric],
               f"sweep row {i} objective")
        model.append(want[metric])

    lines = [m for m in map(_BEST.match, stdout.splitlines()) if m]
    if len(lines) != 1:
        raise CheckError("sweep output lacks its argmin/argmax line")
    found = lines[0]
    if found.group(1) != label or found.group(2) != objective \
            or found.group(3) != param or found.group(5) != metric:
        raise CheckError(f"sweep best line mislabelled: {found.group(0)}")
    index = int(found.group(7))
    best = best_fn(model)
    if not 0 <= index < points or not _near_tie(model[index], best):
        raise CheckError(f"sweep {label} row {index}, model optimum is {best!r}")
    _close(_num(found.group(6), f"sweep {label} value"), model[index],
           f"sweep {label} value", CARD_REL)
    _close(_num(found.group(4), f"sweep {label} {param}"), start + (stop - start) * index / (points - 1),
           f"sweep {label} {param}", CARD_REL)
