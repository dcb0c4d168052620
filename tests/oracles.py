"""Brute-force oracles: the closed-form inverse sizing in ``telescopic``, the
keyframe file as ``json.dumps`` writes it, the peak of a torque profile and
the metrics of a sweep row; and ``set_field``, the setter a sweep applies at
each point."""

import json

from morphwheel import InfeasibleError, bending, params, quasistatics, wheelgeom
from morphwheel.report import DEFAULT_TOTAL_BEND
from morphwheel.wheelgeom import ARC_POINTS_PER_SECTOR, KEYFRAME_SCHEMA_VERSION


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


def keyframes_document(states, p) -> dict:
    """The schema-2 keyframe document of ``states`` of design ``p``: the wheel
    topology once, then the scalars of each state."""
    return {
        "schema_version": KEYFRAME_SCHEMA_VERSION,
        "spoke_pairs": p.wheel.spoke_pairs,
        "hub_offset": p.wheel.hub_offset,
        "arc_points_per_sector": ARC_POINTS_PER_SECTOR,
        "frames": [{
            "step": i,
            "module_length": s.module_length,
            "axial_half_separation": s.axial_half_separation,
            "wheel_radius": s.wheel_radius,
            "trigger_mode": s.trigger_mode.value,
        } for i, s in enumerate(states)],
    }


def keyframes_json(states, p) -> str:
    """The keyframe file of ``states``: their document as compact, sorted-key
    JSON plus a newline."""
    return json.dumps(keyframes_document(states, p), sort_keys=True, separators=(",", ":")) + "\n"


def peak_index(entries) -> int:
    """Index of the first torque entry of the largest per-motor torque."""
    return max(range(len(entries)), key=lambda i: entries[i].per_motor_torque)


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
