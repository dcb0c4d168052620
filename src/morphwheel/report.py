"""Design cards, sweep points and cross-checks against reported targets.

Everything here is read-only aggregation over the computation modules; the
CLI renders these structures but owns no logic of its own. Entry points
refuse invalid designs through ``p.validation``, which a design computes
once, on first use.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from . import bending, quasistatics, telescopic, wheelgeom
from .errors import InfeasibleError
from .params import DesignParams, Inconsistency, ValidationReport, require_valid, serialize

__all__ = [
    "RunReport",
    "DEFAULT_TOTAL_BEND",
    "SWEEP_METRICS",
    "consistency_warnings",
    "design_card",
    "sweep_point",
    "config_digest",
]

# Design bend envelope: 45 degrees per platform, shared over its plates.
DEFAULT_TOTAL_BEND = math.pi / 4.0

_REL_TOL = 1e-6


def config_digest(config_text: str) -> str:
    return "sha256:" + hashlib.sha256(config_text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunReport:
    """Deterministic record of one command run."""

    digest: str                 # hash of the canonical config text
    validation: ValidationReport
    outputs: dict[str, object]  # computed quantities, insertion-ordered
    warnings: tuple[Inconsistency, ...]


def _mismatch(code: str, computed: float | None, reported: float | None,
              detail: str) -> Inconsistency | None:
    if computed is None or reported is None:
        return None
    if abs(computed - reported) <= _REL_TOL * max(1.0, abs(reported)):
        return None
    return Inconsistency(code=code, detail=detail, computed=computed, reported=reported)


def consistency_warnings(p: DesignParams,
                         total_bend: float = DEFAULT_TOTAL_BEND) -> tuple[Inconsistency, ...]:
    """Compare computed quantities against any supplied reported values.

    Disagreements are reported as machine-readable records and left
    standing; nothing is patched to make the numbers meet. Invalid designs
    raise ``InvalidDesignError``.
    """
    require_valid(p)
    theta = total_bend / p.platform.plate_count
    try:
        wheel_d = 2.0 * transform_endpoint_radius(p)
    except InfeasibleError:
        wheel_d = None  # the card flags the geometry instead
    return _warnings(p, telescopic.module_lengths(p),
                     bending.chassis_diameter(p, theta).chassis_diameter, theta, wheel_d)


def _warnings(p: DesignParams, lengths: telescopic.ModuleLengths, chassis_d: float,
              theta: float, wheel_d: float | None) -> tuple[Inconsistency, ...]:
    # ``consistency_warnings`` over quantities already computed for a valid
    # design; ``wheel_d`` is None when the wheel geometry is infeasible.
    rep = p.reported
    checks = (
        _mismatch("elongated_length_mismatch", lengths.elongated,
                  rep.elongated_length,
                  "computed elongated module length differs from the reported value"),
        _mismatch("reduced_length_mismatch", lengths.reduced, rep.reduced_length,
                  "computed reduced module length differs from the reported value"),
        _mismatch("chassis_diameter_mismatch", chassis_d, rep.chassis_diameter,
                  "computed chassis diameter differs from the reported value"),
        _mismatch("rod_half_expansion_mismatch", bending.rod_half_expansion(p, theta),
                  rep.rod_half_expansion,
                  "computed rod half expansion differs from the reported value"),
        _mismatch("wheel_diameter_mismatch", wheel_d, rep.wheel_diameter,
                  "computed full-compression wheel diameter differs from the reported value"),
    )
    return (*p.validation.warnings, *(c for c in checks if c is not None))


def transform_endpoint_radius(p: DesignParams) -> float:
    """Wheel radius at full compression: the last state of every
    ``transform_profile``, without sweeping the whole profile."""
    w = p.wheel
    h_min = wheelgeom.compressed_half_separation(p)
    return wheelgeom.bulge_radius(w.rod_half_length, h_min, w.hub_offset)


SWEEP_METRICS = (
    "elongated_length_mm", "reduced_length_mm", "reduction_ratio",
    "chassis_diameter_mm", "wheel_radius_mm", "peak_torque_Nmm",
)


def sweep_point(p: DesignParams, table: quasistatics.SiliconeForceTable) -> dict[str, float]:
    """The ``SWEEP_METRICS`` of one design; raises ``InvalidDesignError``,
    ``InfeasibleError`` or ``ValueError`` for a design without a value."""
    lengths = telescopic.module_lengths(p)  # the one validation of the point
    theta = DEFAULT_TOTAL_BEND / p.platform.plate_count
    return {
        "elongated_length_mm": lengths.elongated,
        "reduced_length_mm": lengths.reduced,
        "reduction_ratio": lengths.reduction_ratio,
        "chassis_diameter_mm": bending.chassis_diameter(p, theta).chassis_diameter,
        "wheel_radius_mm": transform_endpoint_radius(p),
        "peak_torque_Nmm": quasistatics.peak_load(p, table)[1],
    }


def design_card(p: DesignParams, *, target_ratio: float = 0.5,
                total_bend: float = DEFAULT_TOTAL_BEND,
                table: quasistatics.SiliconeForceTable | None = None,
                digest: str | None = None) -> RunReport:
    """One complete design card: every top-level quantity plus pass/fail flags.

    Geometric infeasibilities (for example a rod pair that cannot close) are
    surfaced as string flags in the affected outputs instead of aborting the
    card; invalid designs raise ``InvalidDesignError``. The card's
    ``validation`` is ``p.validation``.
    """
    validation = require_valid(p)
    outputs: dict[str, object] = {}

    lengths = telescopic.module_lengths(p)
    outputs["elongated_length_mm"] = lengths.elongated
    outputs["reduced_length_mm"] = lengths.reduced
    outputs["reduction_ratio"] = lengths.reduction_ratio
    outputs["reduction_target"] = target_ratio
    outputs["reduction_ok"] = telescopic.reduction_ok(
        lengths.reduced, lengths.elongated, target_ratio)
    outputs["shaft_levels"] = telescopic.shaft_levels(p)
    outputs["screw_diameters_mm"] = telescopic.diameter_ladder(p).diameters

    theta = total_bend / p.platform.plate_count
    outputs["total_bend_rad"] = total_bend
    outputs["per_plate_bend_rad"] = theta
    chassis = bending.chassis_diameter(p, theta)
    outputs["chassis_offset_mm"] = chassis.screw_offset_component
    outputs["chassis_triangle_base_mm"] = chassis.triangle_base
    outputs["chassis_diameter_mm"] = chassis.chassis_diameter
    try:
        rods = bending.rod_sizing(p, theta, chassis.chassis_diameter)
        outputs["rod_half_expansion_mm"] = rods.half_expansion
        outputs["rod_length_max_mm"] = rods.rod_max
        outputs["rod_length_min_mm"] = rods.rod_min
        outputs["rod_outer_segment_mm"] = rods.outer_segment
        outputs["rod_inner_segment_mm"] = rods.inner_segment
    except InfeasibleError as exc:
        outputs["rod_sizing"] = f"INFEASIBLE: {exc}"

    try:
        radius = transform_endpoint_radius(p)
        outputs["wheel_radius_mm"] = radius
        outputs["wheel_diameter_mm"] = 2.0 * radius
        plan = wheelgeom.curved_rod_plan(radius, p)
        outputs["rim_arc_per_sector_mm"] = plan.arc_per_sector
        outputs["curved_rod_levels"] = plan.levels
        outputs["curved_rod_curvature_mm"] = plan.matched_curvature

        force, torque = quasistatics.peak_load(p, table)
        outputs["peak_axial_force_N"] = force
        outputs["peak_torque_Nmm"] = torque
        check = quasistatics.motor_check(torque, p.drive.motor_stall_torque)
        outputs["motor_check_ok"] = check.passed
        outputs["motor_check_note"] = check.note
    except InfeasibleError as exc:
        outputs["wheel_geometry"] = f"INFEASIBLE: {exc}"

    rep = p.reported
    if rep.elongated_length is not None:
        outputs["target_elongated_ok"] = _mismatch(
            "", lengths.elongated, rep.elongated_length, "") is None
    if rep.reduced_length is not None:
        outputs["target_reduced_ok"] = _mismatch(
            "", lengths.reduced, rep.reduced_length, "") is None
    if rep.wheel_diameter is not None and "wheel_diameter_mm" in outputs:
        outputs["target_wheel_diameter_ok"] = _mismatch(
            "", outputs["wheel_diameter_mm"],  # type: ignore[arg-type]
            rep.wheel_diameter, "") is None

    return RunReport(
        digest=digest if digest is not None else config_digest(serialize(p)),
        validation=validation,
        outputs=outputs,
        warnings=_warnings(p, lengths, chassis.chassis_diameter, theta,
                           outputs.get("wheel_diameter_mm")),  # type: ignore[arg-type]
    )
