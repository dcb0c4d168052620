"""Crawler-to-wheel transformation geometry.

Axial compression folds each hinged chassis rod pair outward; the hinge
midpoint of a pair with half-length ``l`` at axial half-separation ``h``
bulges to radius ``sqrt(l^2 - h^2)``, and the wheel radius adds the hub
attachment offset on top. The trigger model is a pure length threshold:
rods telescope only at the fully elongated crawler length and lock rigid
the moment the module compresses.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import typing

from .params import _MAX_STEPS, DesignParams, min_half_separation
from .telescopic import module_lengths

__all__ = [
    "TriggerMode",
    "CurvedRodPlan",
    "KEYFRAME_SCHEMA_VERSION",
    "bulge_radius",
    "trigger_state",
    "transform_columns",
    "transform_endpoint_radius",
    "rim_arc",
    "curved_rod_plan",
    "expand_frame",
    "keyframes_text",
]

KEYFRAME_SCHEMA_VERSION = 3
# Rim polyline points per spoke sector, written to the keyframe header.
ARC_POINTS_PER_SECTOR = 8


class TriggerMode(enum.Enum):
    TELESCOPIC = "telescopic"
    RIGID = "rigid"


class CurvedRodPlan(typing.NamedTuple):
    """Telescoping plan for the curved rim rods tiling the wheel circumference."""

    arc_per_sector: float     # mm, rim arc between adjacent spoke joints
    levels: int               # telescoping levels per curved rod
    matched_curvature: float  # mm, rod bend radius (equals the wheel radius)


def bulge_radius(l: float, h: float, br: float) -> float:
    """Radial reach of a hinged rod pair: sqrt(l^2 - h^2) plus the hub offset."""
    if l <= 0:
        raise ValueError("rod half-length must be positive")
    if br < 0:
        raise ValueError("hub offset must be nonnegative")
    if h < 0 or h > l:
        raise ValueError("half-separation must satisfy 0 <= h <= l: rod cannot stretch")
    return math.sqrt(l * l - h * h) + br  # ``transform_columns`` repeats it


def trigger_state(module_length: float, elongated: float) -> TriggerMode:
    """Trigger mode from the current module length.

    Telescopic exactly at the fully elongated length, rigid for any
    compression. Lengths beyond elongated are impossible.
    """
    if module_length <= 0 or elongated <= 0:
        raise ValueError("lengths must be positive")
    if module_length > elongated:
        raise ValueError("module length exceeds the elongated length: over-extension is impossible")
    if module_length == elongated:
        return TriggerMode.TELESCOPIC
    return TriggerMode.RIGID


def transform_columns(p: DesignParams, steps: int) -> tuple[list, list, list, list]:
    """Module length, half-separation, wheel radius and ``TriggerMode``
    columns of the transformation from flat crawler to fully formed wheel.

    The rod-pair half-separation is the driver: it runs from the rod
    half-length (rods flat along the axis, radius equals the hub offset)
    down to the compressed residual. Each unit of half-separation lost
    shortens the module by two (both end plates advance symmetrically), so
    the length column starts exactly at the elongated crawler length and
    decreases strictly while the radius increases strictly. Refuses invalid
    designs with ``InvalidDesignError`` (``p.validation``, computed once per
    design), and with ``ValueError`` a step count finer than the design's
    floats resolve, whose states would not all differ, or past
    ``params._MAX_STEPS``.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if steps > _MAX_STEPS:
        raise ValueError(f"steps must be <= {_MAX_STEPS}")
    elongated = module_lengths(p).elongated
    w = p.wheel
    l, hub_offset = w.rod_half_length, w.hub_offset
    h_min = min_half_separation(p)

    last = steps - 1
    hs = [l, *[l + (h_min - l) * (i / last) for i in range(1, last)], h_min]
    lengths = [elongated - 2.0 * (l - h) for h in hs]
    # ``bulge_radius`` at each h, whose checks every h passes: it lies in
    # [h_min, l], which a valid design keeps in [0, l]. The expression is
    # repeated: a helper shared with ``bulge_radius`` would slow each sweep
    # point, which calls that once, by about 4% (CPython 3.11).
    radii = [math.sqrt(l * l - h * h) + hub_offset for h in hs]
    if not (all(map(operator.lt, lengths[1:], lengths))
            and all(map(operator.gt, radii[1:], radii))):
        i = next(i for i in range(1, steps)
                 if not (lengths[i] < lengths[i - 1] and radii[i] > radii[i - 1]))
        raise ValueError(f"{steps} steps are finer than the design resolves: state {i} "
                         "does not shorten the module and widen the wheel")
    # Lengths fall strictly from the elongated one, so only the ends can be
    # other than rigid.
    modes = [trigger_state(lengths[0], elongated), *[TriggerMode.RIGID] * (steps - 2),
             trigger_state(lengths[last], elongated)]
    return lengths, hs, radii, modes


def transform_endpoint_radius(p: DesignParams) -> float:
    """Wheel radius at full compression: the last radius of every
    ``transform_columns``, without sweeping the whole profile."""
    w = p.wheel
    return bulge_radius(w.rod_half_length, min_half_separation(p), w.hub_offset)


def rim_arc(radius: float, spoke_pairs: int) -> float:
    """Rim arc between adjacent spoke joints of a wheel of ``radius``."""
    return 2.0 * math.pi * radius / spoke_pairs


def curved_rod_plan(radius: float, p: DesignParams) -> CurvedRodPlan:
    """Levels needed for the curved rim rods to cover one wheel sector.

    The deployed rods must tile the circumference, one sector per spoke
    pair; the level count rounds up because an under-covered sector leaves
    a gap in the rim. The rod curvature simply matches the wheel radius.
    """
    if radius <= 0:
        raise ValueError("wheel radius must be positive")
    w = p.wheel
    usable = w.curved_rod_length - w.hinge_allowance
    if usable <= 0:
        raise ValueError("curved rod length must exceed the hinge allowance")
    arc = rim_arc(radius, w.spoke_pairs)
    levels = max(1, math.ceil(arc / usable))
    # Scan around the ceiling so float rounding can never break minimal cover.
    while levels * usable < arc:
        levels += 1
    while levels > 1 and (levels - 1) * usable >= arc:
        levels -= 1
    return CurvedRodPlan(arc_per_sector=arc, levels=levels, matched_curvature=radius)


# ---------------------------------------------------------------------------
# keyframe export
#
# Schema 3 stores the wheel topology and the trigger modes (as runs of
# frames) once in the header, and only three scalars per frame;
# ``expand_frame`` rebuilds one frame's step, mode and plottable geometry.

def expand_frame(doc: dict, i: int) -> dict:
    """Plottable geometry of frame ``i`` of a keyframe document.

    Coordinates are mm, z along the module axis centred between the end
    plates. Each spoke entry gives the rod pair as a three-point polyline
    (top plate attachment, bulged hinge, bottom plate attachment); the rim
    is one closed polyline at the hinge radius. Refuses with ``ValueError`` a
    document of another schema and an ``i`` outside ``range(len(frames))``.
    """
    if (version := doc["schema_version"]) != KEYFRAME_SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {KEYFRAME_SCHEMA_VERSION}, got {version!r}")
    if i not in range(n_frames := len(doc["frames"])):
        raise ValueError(f"frame index must be in range({n_frames}), got {i!r}")
    left = i
    for mode, count in doc["trigger_mode_runs"]:  # the run that holds frame i
        if (left := left - count) < 0:
            break
    else:
        raise ValueError(f"trigger_mode_runs cover fewer than {i + 1} frames")
    frame = {**doc["frames"][i], "step": i, "trigger_mode": mode}
    n_spokes = doc["spoke_pairs"]
    hub = doc["hub_offset"]
    h = frame["axial_half_separation"]
    r = frame["wheel_radius"]
    spokes = []
    for k in range(n_spokes):
        psi = 2.0 * math.pi * k / n_spokes
        c, s = math.cos(psi), math.sin(psi)
        spokes.append({
            "azimuth": psi,
            "attachment_top": [hub * c, hub * s, h],
            "hinge": [r * c, r * s, 0.0],
            "attachment_bottom": [hub * c, hub * s, -h],
        })
    n_rim = n_spokes * doc["arc_points_per_sector"]
    rim = []
    for k in range(n_rim + 1):  # closing point repeats the first
        psi = 2.0 * math.pi * (k % n_rim) / n_rim
        rim.append([r * math.cos(psi), r * math.sin(psi), 0.0])
    return {**frame, "plate_positions": [-h, 0.0, h], "spokes": spokes, "rim": rim}


def keyframes_text(p: DesignParams, lengths: list[str], halves: list[str],
                   radii: list[str], modes: list[str]) -> str:
    """The keyframe file of design ``p``: one line of compact, sorted-key JSON.
    Its four text columns hold, per state in order, the ``repr`` of the module
    length, half-separation and wheel radius (a valid design's are finite, and
    a finite float's JSON text is its ``repr``) and the trigger mode's value (written as runs)."""
    body = ",".join([f'{{"axial_half_separation":{h},"module_length":{length},"wheel_radius":{r}}}'
                     for length, h, r in zip(lengths, halves, radii)])
    runs = ",".join(f'["{mode}",{len(list(run))}]' for mode, run in itertools.groupby(modes))
    w = p.wheel
    return (f'{{"arc_points_per_sector":{ARC_POINTS_PER_SECTOR},"frames":[{body}],'
            f'"hub_offset":{w.hub_offset!r},"schema_version":{KEYFRAME_SCHEMA_VERSION},'
            f'"spoke_pairs":{w.spoke_pairs},"trigger_mode_runs":[{runs}]}}\n')
