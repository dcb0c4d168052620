"""Cascaded platform bending: uniform bend distribution over the plates,
per-screw extension kinematics (forward and inverse), chassis diameter and
telescopic chassis rod sizing.

The screw kinematics use the standard first-order model for a 3-point
platform: for a plate tilted by ``theta`` towards azimuth ``phi``, a screw
at azimuth ``alpha`` on the screw circle extends by
``r * sin(theta) * cos(alpha - phi)``. Large-angle platform kinematics with
full universal-joint constraints are out of scope.
"""

from __future__ import annotations

import math
import typing

from .errors import InfeasibleError
from .params import DesignParams

__all__ = [
    "BendState",
    "ChassisGeometry",
    "RodSizing",
    "SCREW_AZIMUTHS",
    "MAX_PLATE_TILT",
    "MAX_TOTAL_BEND",
    "screw_circle_radius",
    "distribute_bend",
    "screw_extensions",
    "bend_from_extensions",
    "bend_state",
    "chassis_diameter",
    "rod_half_expansion",
    "rod_sizing",
]

# Screw positions on the circular plate, 120 degrees apart.
SCREW_AZIMUTHS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)

# The largest tilt of one plate that the chassis and rod sizing accept.
MAX_PLATE_TILT = math.pi / 4.0

# The module's bend envelope: the largest total bend, either way.
MAX_TOTAL_BEND = math.pi / 2.0

_TWO_PI = 2.0 * math.pi
_COS_60 = math.cos(math.pi / 3.0)


class BendState(typing.NamedTuple):
    """Full bend description of the cascaded platform stack."""

    total_bend: float                 # rad, at the last plate
    direction: float                  # rad, bend azimuth in [0, 2*pi)
    per_plate_angle: float            # rad, tilt between adjacent plates
    plate_angles: tuple[float, ...]   # rad, cumulative angle per plate
    screw_extensions: tuple[float, float, float]  # mm, signed, one per screw


class ChassisGeometry(typing.NamedTuple):
    # A named tuple, not a dataclass: validation and every sweep point build
    # one, and a tuple is built in about half the time.
    chassis_diameter: float       # mm
    triangle_base: float          # mm, bend contribution of the screw stroke
    screw_offset_component: float  # mm, projection of the screw spacing


class RodSizing(typing.NamedTuple):
    """Telescopic chassis rod lengths required by the bend envelope."""

    half_expansion: float  # mm
    rod_max: float         # mm, fully extended rod
    rod_min: float         # mm, fully collapsed rod, also its outer segment
    inner_segment: float   # mm


def screw_circle_radius(spacing: float) -> float:
    """Circumradius of the equilateral screw triangle with the given side."""
    if not spacing > 0:
        raise ValueError("screw spacing must be positive")
    return spacing / math.sqrt(3.0)


def distribute_bend(total_bend: float, plate_count: int) -> tuple[float, ...]:
    """Spread a total bend uniformly over the cascaded plates.

    Plate k carries k times the per-plate angle; the last plate carries the
    full bend exactly. Bends beyond +/- 90 degrees, or not finite, are
    outside the module's envelope and rejected.
    """
    if plate_count < 1:
        raise ValueError("plate_count must be >= 1")
    if not abs(total_bend) <= MAX_TOTAL_BEND:  # NaN fails too
        raise ValueError(f"total bend {total_bend!r} is outside the +/-90 degree envelope")
    per_plate = total_bend / plate_count
    angles = [k * per_plate for k in range(1, plate_count)]
    angles.append(total_bend)  # exact at the last plate by construction
    return tuple(angles)


def screw_extensions(theta_plate: float, direction: float,
                     screw_circle_radius: float) -> tuple[float, float, float]:
    """Signed extension of the three screws for one plate tilt.

    Extensions always sum to zero: the plate pivots about its centre. A tilt
    outside the envelope or NaN, a direction that is not finite, or a radius
    that is not positive (NaN included) raises ``ValueError``.
    """
    if not screw_circle_radius > 0:
        raise ValueError("screw_circle_radius must be positive")
    if not abs(theta_plate) <= MAX_PLATE_TILT + 1e-12:  # slack for round-tripped angles
        raise ValueError("per-plate tilt beyond +/-45 degrees is out of range")
    if not math.isfinite(direction):
        raise ValueError(f"bend direction must be finite, got {direction!r}")
    amplitude = screw_circle_radius * math.sin(theta_plate)
    e = tuple(amplitude * math.cos(a - direction) for a in SCREW_AZIMUTHS)
    return e  # type: ignore[return-value]


def bend_from_extensions(extensions: tuple[float, float, float],
                         screw_circle_radius: float,
                         tol: float = 1e-9) -> tuple[float, float]:
    """Recover (plate tilt, bend azimuth) from a screw extension triple.

    Inverse of ``screw_extensions`` via the first-harmonic decomposition of
    the three samples. The triple must sum to zero within ``tol`` (a plate
    cannot translate axially); the zero triple canonicalizes to (0, 0) and
    the azimuth is returned in [0, 2*pi).
    """
    if not screw_circle_radius > 0:
        raise ValueError("screw_circle_radius must be positive")
    if len(extensions) != 3:
        raise ValueError("expected exactly three extensions")
    if not abs(sum(extensions)) <= tol:  # NaN fails too
        raise ValueError("incompatible extension triple: sum is not zero")
    u = (2.0 / 3.0) * sum(e * math.cos(a) for e, a in zip(extensions, SCREW_AZIMUTHS))
    v = (2.0 / 3.0) * sum(e * math.sin(a) for e, a in zip(extensions, SCREW_AZIMUTHS))
    amplitude = math.hypot(u, v)
    if amplitude == 0.0:
        return 0.0, 0.0
    ratio = amplitude / screw_circle_radius
    if ratio > 1.0 + 1e-9:
        raise ValueError("extension amplitude exceeds the screw circle radius")
    theta = math.asin(min(ratio, 1.0))
    phi = math.atan2(v, u) % _TWO_PI
    return theta, phi


def bend_state(p: DesignParams, total_bend: float, direction: float = 0.0) -> BendState:
    """Assemble the complete bend state for a commanded total bend; a bend
    outside the envelope or a non-finite ``direction`` raises ``ValueError``."""
    angles = distribute_bend(total_bend, p.platform.plate_count)
    per_plate = total_bend / p.platform.plate_count
    r = screw_circle_radius(p.platform.screw_circle_spacing)
    return BendState(
        total_bend=total_bend,
        direction=direction % _TWO_PI,
        per_plate_angle=per_plate,
        plate_angles=angles,
        screw_extensions=screw_extensions(per_plate, direction, r),
    )


def chassis_diameter(p: DesignParams, theta_plate: float) -> ChassisGeometry:
    """Chassis diameter needed to house a plate tilted by ``theta_plate``.

    The radius is the screw-spacing projection plus the lateral excursion of
    a fully extended screw at that tilt.
    """
    if not 0 <= theta_plate <= MAX_PLATE_TILT:
        raise ValueError("theta_plate must be in [0, pi/4]")
    pf = p.platform
    offset = pf.screw_circle_spacing * _COS_60
    base = pf.max_screw_extension * math.sin(theta_plate)
    return ChassisGeometry(2.0 * (base + offset), base, offset)


def rod_half_expansion(p: DesignParams, theta_plate: float) -> float:
    """Lateral excursion at a plate tilt of joint mount, half joint and full screw."""
    pf = p.platform
    reach = pf.joint_mount_width + pf.universal_joint_diameter / 2.0 \
        + pf.max_screw_extension
    return reach * math.sin(theta_plate)


def rod_sizing(p: DesignParams, theta_plate: float, chassis_d: float) -> RodSizing:
    """Telescopic chassis rod sizing for the design's joint and screw geometry.

    The rod must extend to twice the half expansion and still overlap when
    the bend shortens its chord by the chassis-diameter projection; a
    non-positive collapsed length means the bend demand exceeds what any
    two-segment rod can serve.
    """
    if not chassis_d > 0:  # NaN too
        raise ValueError("chassis diameter must be positive")
    if not 0 < theta_plate <= MAX_PLATE_TILT:
        raise ValueError("theta_plate must be in (0, pi/4]")
    half_expansion = rod_half_expansion(p, theta_plate)
    rod_max = 2.0 * half_expansion
    rod_min = rod_max - chassis_d * math.sin(theta_plate)
    if rod_min <= 0:
        raise InfeasibleError(
            "infeasible rod: bend demand exceeds the telescopic rod length"
        )
    return RodSizing(
        half_expansion=half_expansion,
        rod_max=rod_max,
        rod_min=rod_min,
        inner_segment=rod_max - rod_min,
    )
