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
    ValidationReport,
    Verdict,
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
    "verdicts",
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
    warnings: tuple[Verdict, ...]  # the failed verdicts that are not card flags


# The verdicts the card prints as flags under their own codes; the others,
# when failed, are its WARNING lines.
_FLAGS = ("reduction_ok", "motor_check_ok")
# The card's flag on each reported target, and the verdict it reads.
_TARGETS = (("target_elongated_ok", "elongated_length_mismatch"),
            ("target_reduced_ok", "reduced_length_mismatch"),
            ("target_wheel_diameter_ok", "wheel_diameter_mismatch"))


def verdicts(p: DesignParams, *, target_ratio: float = 0.5,
             total_bend: float = DEFAULT_TOTAL_BEND,
             table: quasistatics.SiliconeForceTable | None = None) -> tuple[Verdict, ...]:
    """Every verdict on a design: ``reduction_ok`` at ``target_ratio`` and
    ``motor_check_ok`` on ``table``, then the identity of the two reported
    lengths, each reported value given against its quantity at ``total_bend``,
    and the wheel stroke against the telescopic one. Nothing is patched to
    make a verdict pass; invalid designs raise ``InvalidDesignError``."""
    require_valid(p)
    theta = total_bend / p.platform.plate_count
    return _verdicts(p, telescopic.module_lengths(p), target_ratio, theta,
                     bending.chassis_diameter(p, theta).chassis_diameter,
                     _peak_load(p, table)[1])


def consistency_warnings(p: DesignParams) -> tuple[Verdict, ...]:
    """The failed ``verdicts(p)`` that are not card flags: what ``validate``
    and the card print as WARNING lines. Invalid designs raise
    ``InvalidDesignError``."""
    return tuple(v for v in verdicts(p) if not (v.passed or v.code in _FLAGS))


def _peak_load(p: DesignParams, table) -> tuple[float, float]:
    # Validation derived the peak load on the default table.
    if table is None or table is quasistatics.default_force_table():
        return p.validation.derived.peak_load
    return quasistatics.peak_load(p, table)


def _verdicts(p: DesignParams, lengths: telescopic.ModuleLengths, target_ratio: float,
              theta: float, chassis_d: float, peak_torque: float) -> tuple[Verdict, ...]:
    # ``verdicts`` over quantities already computed for a valid design.
    rep, stall = p.reported, p.drive.motor_stall_torque
    found = [Verdict("reduction_ok", telescopic.reduction_ok(
                         lengths.reduced, lengths.elongated, target_ratio),
                     lengths.reduction_ratio, target_ratio,
                     "reduced / elongated module length exceeds the target ratio"),
             Verdict("motor_check_ok", peak_torque <= stall, peak_torque, stall,
                     "peak torque exceeds the motor stall torque, margin 1")]
    if rep.elongated_length is not None and rep.reduced_length is not None:
        # The module lengths differ by 2 * S_L * (N - 1) by construction, so
        # must the reported ones, to a tolerance scaled by that derived gap.
        gap = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
        implied = rep.elongated_length - rep.reduced_length
        found.append(Verdict("reported_length_identity",
                             abs(implied - gap) <= _REL_TOL * max(1.0, abs(gap)), gap, implied,
                             "reported elongated - reduced length gap does not match "
                             "2 * screw_level_length * (n_levels - 1)"))
    # Each reported value given, to a tolerance scaled by that value.
    for code, computed, reported, what in (
            ("elongated_length_mismatch", lengths.elongated, rep.elongated_length,
             "elongated module length"),
            ("reduced_length_mismatch", lengths.reduced, rep.reduced_length,
             "reduced module length"),
            ("chassis_diameter_mismatch", chassis_d, rep.chassis_diameter, "chassis diameter"),
            ("rod_half_expansion_mismatch", bending.rod_half_expansion(p, theta),
             rep.rod_half_expansion, "rod half expansion"),
            ("wheel_diameter_mismatch", 2.0 * p.validation.derived.wheel_radius,
             rep.wheel_diameter, "full-compression wheel diameter")):
        if reported is not None:
            passed = abs(computed - reported) <= _REL_TOL * max(1.0, abs(reported))
            found.append(Verdict(code, passed, computed, reported,
                                 f"computed {what} differs from the reported value"))
    # Two models, not a reported value: the wheel stroke, which shortens the
    # module by twice the rod travel, ends at the last length of
    # ``wheelgeom.transform_columns``; the telescopic stack collapses no lower
    # than its reduced length.
    stroke_end = lengths.elongated - 2.0 * (p.wheel.rod_half_length
                                            - params.min_half_separation(p))
    found.append(Verdict("wheel_stroke_exceeds_telescopic_stroke",
                         stroke_end >= lengths.reduced, stroke_end, lengths.reduced,
                         "the wheel stroke ends at a module length (computed) below the "
                         "telescopic reduced length (reported)"))
    return tuple(found)


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
        if not math.isfinite((self.stop - self.start) * (self.steps - 1)):
            raise ValueError("sweep span (stop - start) * (steps - 1) must be finite")
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
    that does not read the swept field, or a formula that reads no field of
    its section, runs once per sweep; the design ``p`` itself is not refused.
    """
    field = _field_path(spec.parameter_path)
    convert = field.value if field.is_count else float
    if field.is_count:  # only a count field refuses a grid value
        for i in range(spec.steps):
            convert(spec.value(i))
    start, span, last = spec.start, spec.stop - spec.start, spec.steps - 1
    at = field.setter(p)
    check = params._varying(field.path)
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
    """One complete design card: every top-level quantity, the pass/fail flags
    of its ``verdicts`` and, as warnings, the other verdicts it fails.

    A chassis rod that the bend demand outgrows is surfaced as a string flag
    in ``rod_sizing`` instead of aborting the card; invalid designs raise
    ``InvalidDesignError``. The card's ``validation`` is ``p.validation``.
    """
    validation = require_valid(p)
    lengths = telescopic.module_lengths(p)
    theta = total_bend / p.platform.plate_count
    chassis = bending.chassis_diameter(p, theta)
    force, torque = _peak_load(p, table)
    found = {v.code: v for v in _verdicts(p, lengths, target_ratio, theta,
                                          chassis.chassis_diameter, torque)}
    outputs: dict[str, object] = {}

    outputs["elongated_length_mm"] = lengths.elongated
    outputs["reduced_length_mm"] = lengths.reduced
    outputs["reduction_ratio"] = lengths.reduction_ratio
    outputs["reduction_target"] = target_ratio
    outputs["reduction_ok"] = found["reduction_ok"].passed
    outputs["shaft_levels"] = telescopic.shaft_levels(p)
    outputs["screw_diameters_mm"] = telescopic.diameter_ladder(p)

    outputs["total_bend_rad"] = total_bend
    outputs["per_plate_bend_rad"] = theta
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

    outputs["peak_axial_force_N"] = force
    outputs["peak_torque_Nmm"] = torque
    outputs["motor_check_ok"] = found["motor_check_ok"].passed
    # The reference selection threshold beside the peak, for context only.
    outputs["motor_check_note"] = (
        f"peak {torque:.3f} N*mm vs selection threshold "
        f"{quasistatics.SELECTION_THRESHOLD:.0f} N*mm (side-by-side reference, not an "
        f"equality target); stall {p.drive.motor_stall_torque:.0f} N*mm, margin 1")
    for key, code in _TARGETS:
        if code in found:
            outputs[key] = found[code].passed

    return RunReport(
        digest=digest if digest is not None else config_digest(serialize(p)),
        validation=validation,
        outputs=outputs,
        warnings=tuple(v for v in found.values() if not (v.passed or v.code in _FLAGS)),
    )
