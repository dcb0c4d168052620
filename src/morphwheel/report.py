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


# ---------------------------------------------------------------------------
# the table of quantities
#
# One ordered table of entries ``(reads, entry)``, each run as a stage of
# ``params.validate`` is: validation's stages, then ``_METRICS``, the sweep's
# metric beyond them, the verdicts (``_FLAGGED``, ``_WARNED``), each after
# the quantities it takes, and ``_CARD_ONLY``. An entry gives a quantity
# under the key the card prints it by, a verdict under its code, and nothing
# else computes it. A valid design's ``got`` starts from what validation
# gave (its report's ``derived``) and three seeds: ``reduction_target``,
# ``total_bend_rad`` and the force ``table``.

def _chassis(p, v, got):
    # The one plate tilt: the total bend, inside the envelope, over the plates.
    total_bend = got["total_bend_rad"]
    if not 0 < total_bend <= bending.MAX_TOTAL_BEND:  # NaN fails too
        raise ValueError(f"total_bend must be in (0, pi/2], got {total_bend!r}")
    theta = total_bend / p.platform.plate_count
    chassis = bending.chassis_diameter(p, theta)
    return {"per_plate_bend_rad": theta, "chassis_offset_mm": chassis.screw_offset_component,
            "chassis_triangle_base_mm": chassis.triangle_base,
            "chassis_diameter_mm": chassis.chassis_diameter}


def _peak(p, v, got):  # validation gave the peak load on the default table
    table = got["table"]
    if table is not None and table is not quasistatics.default_force_table():
        force, torque = quasistatics.peak_load(p, table)
        return {"peak_axial_force_N": force, "peak_torque_Nmm": torque}


def _reduction_ok(p, v, got):
    target = got["reduction_target"]
    passed = telescopic.reduction_ok(got["reduced_length_mm"], got["elongated_length_mm"],
                                     target)
    return {"reduction_ok": Verdict("reduction_ok", passed, got["reduction_ratio"], target,
                                    "reduced / elongated module length exceeds the target ratio")}


def _motor_check_ok(p, v, got):
    torque, stall = got["peak_torque_Nmm"], p.drive.motor_stall_torque
    return {"motor_check_ok": Verdict("motor_check_ok", torque <= stall, torque, stall,
                                      "peak torque exceeds the motor stall torque, margin 1")}


def _rod_half_expansion(p, v, got):
    return {"rod_half_expansion_mm": bending.rod_half_expansion(p, got["per_plate_bend_rad"])}


def _wheel_diameter(p, v, got):
    return {"wheel_diameter_mm": 2.0 * got["wheel_radius_mm"]}


def _reported_length_identity(p, v, got):
    # The module lengths differ by 2 * S_L * (N - 1) by construction, so must
    # the reported ones, to a tolerance scaled by that derived gap.
    rep = p.reported
    if rep.elongated_length is not None and rep.reduced_length is not None:
        gap = 2.0 * p.screw.screw_level_length * (p.screw.n_levels - 1)
        implied = rep.elongated_length - rep.reduced_length
        return {"reported_length_identity": Verdict(
            "reported_length_identity", abs(implied - gap) <= _REL_TOL * max(1.0, abs(gap)),
            gap, implied, "reported elongated - reduced length gap does not match "
            "2 * screw_level_length * (n_levels - 1)")}


def _mismatch(name: str, reads: str, what: str) -> tuple:
    # The verdict ``{name}_mismatch`` with its reads: the quantity ``{name}_mm``
    # against the reported value given, to a tolerance scaled by that value.
    code, key = f"{name}_mismatch", f"{name}_mm"
    detail = f"computed {what} differs from the reported value"

    def entry(p, v, got):
        if (reported := getattr(p.reported, name)) is not None:
            passed = abs(got[key] - reported) <= _REL_TOL * max(1.0, abs(reported))
            return {code: Verdict(code, passed, got[key], reported, detail)}
    entry.__name__ = f"_{code}"
    return f"reported.{name} {reads}", entry


def _wheel_stroke(p, v, got):
    # Two models, not a reported value: the wheel stroke, which shortens the
    # module by twice the rod travel, ends at the last length of
    # ``wheelgeom.transform_columns``; the telescopic stack collapses no lower
    # than its reduced length.
    reduced = got["reduced_length_mm"]
    stroke_end = got["elongated_length_mm"] - 2.0 * got["travel"]
    return {"wheel_stroke_exceeds_telescopic_stroke": Verdict(
        "wheel_stroke_exceeds_telescopic_stroke", stroke_end >= reduced, stroke_end, reduced,
        "the wheel stroke ends at a module length (computed) below the "
        "telescopic reduced length (reported)")}


def _rod_sizing(p, v, got):
    try:  # a chassis rod that the bend demand outgrows is a string flag
        rods = bending.rod_sizing(p, got["per_plate_bend_rad"], got["chassis_diameter_mm"])
    except InfeasibleError as exc:
        return {"rod_sizing": f"INFEASIBLE: {exc}"}
    return {"rod_length_max_mm": rods.rod_max, "rod_length_min_mm": rods.rod_min,
            "rod_outer_segment_mm": rods.rod_min, "rod_inner_segment_mm": rods.inner_segment}


def _rim_and_ladder(p, v, got):
    plan = wheelgeom.curved_rod_plan(got["wheel_radius_mm"], p)
    return {"rim_arc_per_sector_mm": plan.arc_per_sector, "curved_rod_levels": plan.levels,
            "curved_rod_curvature_mm": plan.matched_curvature,
            "shaft_levels": telescopic.shaft_levels(p),
            "screw_diameters_mm": telescopic.diameter_ladder(p)}


def _table(*rows) -> tuple:
    return tuple((params._reads(names), entry) for names, entry in rows)


# The reads of the plate tilt, and of the quantities that take it.
_TILT = "platform.plate_count"
_CHASSIS = f"{_TILT} platform.max_screw_extension platform.screw_circle_spacing"
_HALF_EXPANSION = f"{_TILT} platform.max_screw_extension platform.joint_mount_width " \
    "platform.universal_joint_diameter"
_METRICS = _table((_CHASSIS, _chassis))
_FLAGGED = _table((params._PEAK, _peak), (params._LENGTHS, _reduction_ok),
                  (f"{params._PEAK} drive.motor_stall_torque", _motor_check_ok))
_WARNED = _table(
    (_HALF_EXPANSION, _rod_half_expansion), (params._RADIUS, _wheel_diameter),
    ("reported.elongated_length reported.reduced_length screw.screw_level_length "
     "screw.n_levels", _reported_length_identity),
    _mismatch("elongated_length", params._LENGTHS, "elongated module length"),
    _mismatch("reduced_length", params._LENGTHS, "reduced module length"),
    _mismatch("chassis_diameter", _CHASSIS, "chassis diameter"),
    _mismatch("rod_half_expansion", _HALF_EXPANSION, "rod half expansion"),
    _mismatch("wheel_diameter", params._RADIUS, "full-compression wheel diameter"),
    (f"{params._TRAVEL} {params._LENGTHS}", _wheel_stroke))
_CARD_ONLY = _table(
    (f"{_CHASSIS} {_HALF_EXPANSION}", _rod_sizing),
    (f"{params._RADIUS} wheel {params._LADDER}", _rim_and_ladder))

# The seeds at their defaults, which a sweep and ``consistency_warnings`` take.
_SEEDS = {"reduction_target": 0.5, "total_bend_rad": DEFAULT_TOTAL_BEND, "table": None}


def _quantities(p: DesignParams, entries: tuple, **seeds) -> dict[str, object]:
    # ``got`` of a valid design: validation's quantities (the proxy's ``copy``
    # copies its dict; ``{**proxy}`` reads key by key) and the seeds, then
    # those that ``entries`` give in order. No later entry finds a violation.
    got = require_valid(p).derived.copy()
    got.update(_SEEDS, **seeds)
    v: list = []
    for _, entry in entries:
        if gave := entry(p, v, got):
            got.update(gave)
    return got


# The verdicts the card prints as flags under their own codes; the others,
# when failed, are its WARNING lines.
_FLAGS = ("reduction_ok", "motor_check_ok")


def _warnings(got: dict) -> tuple[Verdict, ...]:
    return tuple([value for value in got.values() if type(value) is Verdict
                  and not (value.passed or value.code in _FLAGS)])


def verdicts(p: DesignParams, *, target_ratio: float = 0.5,
             total_bend: float = DEFAULT_TOTAL_BEND,
             table: quasistatics.SiliconeForceTable | None = None) -> tuple[Verdict, ...]:
    """Every verdict on a design: ``reduction_ok`` at ``target_ratio`` and
    ``motor_check_ok`` on ``table``, then the identity of the two reported
    lengths, each reported value given against its quantity at ``total_bend``,
    and the wheel stroke against the telescopic one. Nothing is patched to
    make a verdict pass; invalid designs raise ``InvalidDesignError``, and a
    ``total_bend`` outside ``(0, pi/2]`` ``ValueError``."""
    got = _quantities(p, _METRICS + _FLAGGED + _WARNED, reduction_target=target_ratio,
                      total_bend_rad=total_bend, table=table)
    return tuple([value for value in got.values() if type(value) is Verdict])


def consistency_warnings(p: DesignParams) -> tuple[Verdict, ...]:
    """The failed ``verdicts(p)`` that are not card flags: what ``validate``
    and the card print as WARNING lines. Invalid designs raise
    ``InvalidDesignError``."""
    return _warnings(_quantities(p, _METRICS + _WARNED))


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
    carry the metrics, from the table of quantities at the default seeds up
    to ``_METRICS``. Nothing per point is kept but the best row. An entry that
    does not read the swept field runs once per sweep; the design ``p``
    itself is not refused.
    """
    field = _field_path(spec.parameter_path)
    convert = field.value if field.is_count else float
    if field.is_count:  # only a count field refuses a grid value
        for i in range(spec.steps):
            convert(spec.value(i))
    start, span, last = spec.start, spec.stop - spec.start, spec.steps - 1
    at = field.setter(p)
    check = params._varying(field.path, (params._STRUCTURE, params._OVERFLOWS + _METRICS),
                            _SEEDS)
    metrics = operator.itemgetter(*SWEEP_METRICS)
    metric = SWEEP_METRICS.index(spec.metric)
    better = operator.gt if spec.maximise else operator.lt
    blank = ("",) * (len(SWEEP_METRICS) + 1)
    best = best_row = None
    for i in range(spec.steps):
        value = convert(start + span * i / last)  # ``spec.value(i)``
        violations, got = check(at(value))
        if violations:
            fields = dict.fromkeys(v.field for v in violations)
            emit((i, value, *blank, "invalid", " ".join(fields)))
            continue
        values = metrics(got)
        objective = values[metric]
        row = (i, value, *values, objective, "ok", "")
        if best is None or better(objective, best):
            best, best_row = objective, row
        emit(row)
    return None if best_row is None else dict(zip(sweep_columns(spec), best_row))


# The card's outputs in order. An infeasible rod prints ``rod_sizing`` in
# place of its lengths; a flag, the ``passed`` of the verdict it names.
_CARD = """elongated_length_mm reduced_length_mm reduction_ratio reduction_target reduction_ok
    shaft_levels screw_diameters_mm total_bend_rad per_plate_bend_rad chassis_offset_mm
    chassis_triangle_base_mm chassis_diameter_mm rod_half_expansion_mm rod_length_max_mm
    rod_length_min_mm rod_outer_segment_mm rod_inner_segment_mm rod_sizing wheel_radius_mm
    wheel_diameter_mm rim_arc_per_sector_mm curved_rod_levels curved_rod_curvature_mm
    peak_axial_force_N peak_torque_Nmm motor_check_ok""".split()
_CARD_FLAGS = (("reduction_ok", "reduction_ok"), ("motor_check_ok", "motor_check_ok"),
               ("target_elongated_ok", "elongated_length_mismatch"),
               ("target_reduced_ok", "reduced_length_mismatch"),
               ("target_wheel_diameter_ok", "wheel_diameter_mismatch"))


def design_card(p: DesignParams, *, target_ratio: float = 0.5,
                total_bend: float = DEFAULT_TOTAL_BEND,
                table: quasistatics.SiliconeForceTable | None = None,
                digest: str | None = None) -> RunReport:
    """One complete design card: every top-level quantity, the pass/fail flags
    of its ``verdicts`` and, as warnings, the other verdicts it fails.

    A chassis rod that the bend demand outgrows is surfaced as a string flag
    in ``rod_sizing`` instead of aborting the card; invalid designs raise
    ``InvalidDesignError``, and a ``total_bend`` outside ``(0, pi/2]``
    ``ValueError``. The card's ``validation`` is ``p.validation``.
    """
    got = _quantities(p, _METRICS + _FLAGGED + _WARNED + _CARD_ONLY,
                      reduction_target=target_ratio, total_bend_rad=total_bend, table=table)
    outputs = {key: got[key] for key in _CARD if key in got}
    if "rod_sizing" in got:
        del outputs["rod_half_expansion_mm"]
    # The reference selection threshold beside the peak, for context only.
    outputs["motor_check_note"] = (
        f"peak {got['peak_torque_Nmm']:.3f} N*mm vs selection threshold "
        f"{quasistatics.SELECTION_THRESHOLD:.0f} N*mm (side-by-side reference, not an "
        f"equality target); stall {p.drive.motor_stall_torque:.0f} N*mm, margin 1")
    for key, code in _CARD_FLAGS:
        if code in got:
            outputs[key] = got[code].passed
    return RunReport(digest if digest is not None else config_digest(serialize(p)),
                     p.validation, outputs, _warnings(got))
