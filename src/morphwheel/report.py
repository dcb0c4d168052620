"""Design cards, sweeps and cross-checks against reported targets.

Everything here is read-only aggregation over the computation modules; the
CLI renders these structures but owns no logic of its own. Entry points
refuse invalid designs through ``p.validation``, which a design computes
once, on first use.
"""

from __future__ import annotations

import enum
import math
import operator
import typing
from collections.abc import Callable

from . import bending, params, quasistatics, telescopic, wheelgeom
from .errors import InfeasibleError
from .params import (
    DesignParams,
    Inconsistency,
    ValidationReport,
    _field_path,
    require_valid,
    serialize,
)

try:  # the interpreter's own SHA-256: ``hashlib`` would load OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "RunReport",
    "DEFAULT_TOTAL_BEND",
    "SWEEP_METRICS",
    "Objective",
    "SweepSpec",
    "consistency_warnings",
    "design_card",
    "sweep_columns",
    "sweep",
    "config_digest",
]

# Design bend envelope: 45 degrees per platform, shared over its plates.
DEFAULT_TOTAL_BEND = math.pi / 4.0

_REL_TOL = 1e-6


def config_digest(config_text: str) -> str:
    """The SHA-256 of ``config_text`` in UTF-8. The CLI hashes the config file
    as decoded with universal newlines, so a copy with CRLF line ends prints
    the digest of the LF file."""
    return "sha256:" + sha256(config_text.encode("utf-8")).hexdigest()


class RunReport(typing.NamedTuple):
    """Deterministic record of one command run."""

    digest: str                 # hash of the CLI's config file text, else of serialize(p)
    validation: ValidationReport
    outputs: dict[str, object]  # computed quantities, insertion-ordered
    warnings: tuple[Inconsistency, ...]


def _mismatch(code: str, computed: float, reported: float | None,
              detail: str) -> Inconsistency | None:
    if reported is None:
        return None
    if abs(computed - reported) <= _REL_TOL * max(1.0, abs(reported)):
        return None
    return Inconsistency(code=code, detail=detail, computed=computed, reported=reported)


def _length_identity_warnings(p: DesignParams) -> tuple[Inconsistency, ...]:
    # Elongated and reduced module lengths differ by 2 * S_L * (N - 1) by
    # construction, so any pair of reported lengths must honour the same
    # identity. Flagged, never patched.
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


def consistency_warnings(p: DesignParams) -> tuple[Inconsistency, ...]:
    """Compare computed quantities, at the ``DEFAULT_TOTAL_BEND``, against any
    supplied reported values, the two reported lengths against each other,
    and the wheel stroke's end against the telescopic reduced length.

    Disagreements are reported as machine-readable records and left
    standing; nothing is patched to make the numbers meet. Invalid designs
    raise ``InvalidDesignError``.
    """
    require_valid(p)
    theta = DEFAULT_TOTAL_BEND / p.platform.plate_count
    return _warnings(p, telescopic.module_lengths(p),
                     bending.chassis_diameter(p, theta).chassis_diameter, theta)


def _warnings(p: DesignParams, lengths: telescopic.ModuleLengths, chassis_d: float,
              theta: float) -> tuple[Inconsistency, ...]:
    # ``consistency_warnings`` over quantities already computed for a valid
    # design; the identity of the reported lengths comes first.
    rep = p.reported
    # The wheel stroke shortens the module by twice the rod travel.
    stroke_end = lengths.elongated - 2.0 * (p.wheel.rod_half_length
                                            - params.min_half_separation(p))
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
        _mismatch("wheel_diameter_mismatch", 2.0 * p.validation.derived.wheel_radius,
                  rep.wheel_diameter,
                  "computed full-compression wheel diameter differs from the reported value"),
        # Two models, not a reported value: the last module length of
        # ``wheelgeom.transform_columns`` against the length the telescopic
        # stack collapses to.
        None if stroke_end >= lengths.reduced else Inconsistency(
            "wheel_stroke_exceeds_telescopic_stroke",
            "the wheel stroke ends at a module length (computed) below the "
            "telescopic reduced length (reported)", stroke_end, lengths.reduced),
    )
    return (*_length_identity_warnings(p), *(c for c in checks if c is not None))


SWEEP_METRICS = (
    "elongated_length_mm", "reduced_length_mm", "reduction_ratio",
    "chassis_diameter_mm", "wheel_radius_mm", "peak_torque_Nmm",
)


# ---------------------------------------------------------------------------
# sweeps

class Objective(enum.Enum):
    MIN_REDUCED_LENGTH = "min-reduced-length"
    MAX_WHEEL_RADIUS = "max-wheel-radius"
    MIN_PEAK_TORQUE = "min-peak-torque"


# The metric each objective reads, and whether it maximises it.
_OBJECTIVE_METRIC = {
    Objective.MIN_REDUCED_LENGTH: ("reduced_length_mm", False),
    Objective.MAX_WHEEL_RADIUS: ("wheel_radius_mm", True),
    Objective.MIN_PEAK_TORQUE: ("peak_torque_Nmm", False),
}


class _SweepFields(typing.NamedTuple):
    parameter_path: str  # dotted field name, e.g. "screw.screw_level_length"
    start: float
    stop: float
    steps: int
    objective: Objective


class SweepSpec(_SweepFields):
    """A sweep's grid and objective. Every way of building one checks the
    grid: the constructor, ``_make`` and ``_replace``."""

    __slots__ = ()
    _make = classmethod(params._remake)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if self.steps > params._MAX_STEPS:
            raise ValueError(f"sweep needs at most {params._MAX_STEPS} grid points")
        if self.start == self.stop:
            raise ValueError("sweep start and stop must differ")
        return self

    def value(self, i: int) -> float:
        """Grid value ``i`` of ``steps``, evenly spaced from start to stop."""
        return self.start + (self.stop - self.start) * i / (self.steps - 1)

    @property
    def metric(self) -> str:
        """The ``SWEEP_METRICS`` column the objective reads."""
        return _OBJECTIVE_METRIC[self.objective][0]

    @property
    def maximise(self) -> bool:
        return _OBJECTIVE_METRIC[self.objective][1]


def sweep_columns(spec: SweepSpec) -> tuple[str, ...]:
    """The names of the values in each row of ``sweep(p, spec, ...)``."""
    return ("index", spec.parameter_path, *SWEEP_METRICS, "objective", "status", "reason")


def sweep(p: DesignParams, spec: SweepSpec,
          emit: Callable[[tuple], object]) -> dict[str, object] | None:
    """Evaluate the ``SWEEP_METRICS`` over the grid of ``spec``, one design per
    grid value with the swept field set to it, and return the best ``ok`` row by
    column (the first of equals), or None when no point has a value.

    The path and every grid value are checked first, before any point is
    evaluated: ``ConfigError`` for a path that names no numeric field or a
    non-integral value of a count field. Then each row goes to ``emit`` as it
    is evaluated, a tuple of plain values under ``sweep_columns(spec)``: the
    index, the swept value, the ``SWEEP_METRICS``, ``objective``, ``status``
    and ``reason``. The status is ``ok`` or ``invalid`` (the design violates
    an invariant; the reason lists the violated fields). Only ``ok`` rows
    carry the metrics. Nothing per point is kept but the best row. A check
    or formula that reads no field of the swept section runs once per sweep;
    the design ``p`` itself is not refused.
    """
    field = _field_path(spec.parameter_path)
    convert = field.value if field.is_count else float
    if field.is_count:  # only a count field refuses a grid value
        for i in range(spec.steps):
            convert(spec.value(i))
    start, span, last = spec.start, spec.stop - spec.start, spec.steps - 1
    at = field.setter(p)
    check = params._varying(field.section)
    metric = SWEEP_METRICS.index(spec.metric)
    better = operator.gt if spec.maximise else operator.lt
    blank = ("",) * (len(SWEEP_METRICS) + 1)
    platform = field.section == "platform"  # else one chassis diameter serves all
    best = best_row = chassis = None
    for i in range(spec.steps):
        value = convert(start + span * i / last)  # ``spec.value(i)``
        report = check(q := at(value))
        if report.violations:
            fields = dict.fromkeys(v.field for v in report.violations)
            emit((i, value, *blank, "invalid", " ".join(fields)))
            continue
        elongated, reduced, radius, peak = report.derived
        if chassis is None or platform:
            theta = DEFAULT_TOTAL_BEND / q.platform.plate_count
            chassis = bending.chassis_diameter(q, theta).chassis_diameter
        values = (elongated, reduced, reduced / elongated, chassis, radius, peak[1])
        objective = values[metric]
        row = (i, value, *values, objective, "ok", "")
        if best is None or better(objective, best):
            best, best_row = objective, row
        emit(row)
    return None if best_row is None else dict(zip(sweep_columns(spec), best_row))


def design_card(p: DesignParams, *, target_ratio: float = 0.5,
                total_bend: float = DEFAULT_TOTAL_BEND,
                table: quasistatics.SiliconeForceTable | None = None,
                digest: str | None = None) -> RunReport:
    """One complete design card: every top-level quantity plus pass/fail flags.

    A chassis rod that the bend demand outgrows is surfaced as a string flag
    in ``rod_sizing`` instead of aborting the card; invalid designs raise
    ``InvalidDesignError``. The card's ``validation`` is ``p.validation``.
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
    outputs["screw_diameters_mm"] = telescopic.diameter_ladder(p)

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
        outputs["rod_outer_segment_mm"] = rods.rod_min
        outputs["rod_inner_segment_mm"] = rods.inner_segment
    except InfeasibleError as exc:
        outputs["rod_sizing"] = f"INFEASIBLE: {exc}"

    radius = validation.derived.wheel_radius
    outputs["wheel_radius_mm"] = radius
    outputs["wheel_diameter_mm"] = 2.0 * radius
    plan = wheelgeom.curved_rod_plan(radius, p)
    outputs["rim_arc_per_sector_mm"] = plan.arc_per_sector
    outputs["curved_rod_levels"] = plan.levels
    outputs["curved_rod_curvature_mm"] = plan.matched_curvature

    # Validation derived the peak load on the default table.
    default = table is None or table is quasistatics.default_force_table()
    force, torque = validation.derived.peak_load if default else quasistatics.peak_load(p, table)
    outputs["peak_axial_force_N"] = force
    outputs["peak_torque_Nmm"] = torque
    check = quasistatics.motor_check(torque, p.drive.motor_stall_torque)
    outputs["motor_check_ok"] = check.passed
    outputs["motor_check_note"] = check.note

    warnings = _warnings(p, lengths, chassis.chassis_diameter, theta)
    codes = {w.code for w in warnings}
    for key, target in (("target_elongated_ok", "elongated_length"),
                        ("target_reduced_ok", "reduced_length"),
                        ("target_wheel_diameter_ok", "wheel_diameter")):
        if getattr(p.reported, target) is not None:
            outputs[key] = f"{target}_mismatch" not in codes

    return RunReport(
        digest=digest if digest is not None else config_digest(serialize(p)),
        validation=validation,
        outputs=outputs,
        warnings=warnings,
    )
