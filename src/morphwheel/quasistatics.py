"""Quasi-static torque estimation for the transformation.

The silicone skin opposes the shape change with a restoring force that was
measured at whole-centimetre compressions; lookups interpolate linearly and
clamp outside the sampled range. Motor torque follows the raising-load
power-screw formula with the axial load shared equally by the three screws,
which holds for the symmetric straight-line transformation (bent-state
transformations would load the screws unevenly and are not modelled).
"""

from __future__ import annotations

import functools
import operator
import typing
from bisect import bisect_left, bisect_right
from math import isfinite, pi
from pathlib import Path

from . import params
from .errors import ConfigError
from .params import DesignParams

__all__ = [
    "SiliconeForceTable",
    "SELECTION_THRESHOLD",
    "default_force_table",
    "load_force_table",
    "load_force_table_path",
    "silicone_force",
    "silicone_forces",
    "screw_torque",
    "torque_columns",
    "peak_load",
]

# Reference motor-selection threshold, N*mm. Printed alongside the computed
# peak for context; the quasi-static model is not expected to reproduce it.
SELECTION_THRESHOLD = 500.0


class _ForceTableFields(typing.NamedTuple):
    samples: tuple[tuple[float, float], ...]


class SiliconeForceTable(_ForceTableFields):
    """Restoring force vs. module length change. Abscissa in cm, force in N.

    Every way of building one checks the samples: the constructor, ``_make``
    and ``_replace``.
    """

    __slots__ = ()
    _make = classmethod(params._remake)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        samples = self.samples
        if not samples:
            raise ValueError("force table must not be empty")
        if not all(isfinite(v) for sample in samples for v in sample):
            raise ValueError("length changes and forces must be finite")
        xs = [x for x, _ in samples]
        fs = [f for _, f in samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("length changes must be strictly increasing")
        if any(b > a for a, b in zip(fs, fs[1:])):
            raise ValueError("forces must be nonincreasing")
        if fs[-1] < 0:
            raise ValueError("forces must be nonnegative")
        return self


@functools.cache  # one table per process; it is immutable
def default_force_table() -> SiliconeForceTable:
    """Default skin restoring-force samples, one per centimetre of compression."""
    return SiliconeForceTable(samples=(
        (1.0, 3.4),
        (2.0, 3.2),
        (3.0, 2.5),
        (4.0, 2.1),
        (5.0, 1.5),
        (6.0, 1.0),
        (7.0, 0.6),
        (8.0, 0.1),
    ))


def load_force_table(text: str) -> SiliconeForceTable:
    """Parse a force-table override: rows ``- [cm, N]`` of the plain grammar
    (``params._plain_doc``), bare or under the one key ``force_table``."""
    doc = params._plain_doc(text, "force table")
    if type(doc) is dict:
        for key in doc:
            if key != "force_table":
                raise ConfigError("unknown key", field=key)
        doc = doc["force_table"]
    if not doc:
        raise ConfigError("force table must be a nonempty list of (cm, N) pairs",
                          field="force_table")
    samples = []
    for i, (x, force) in enumerate(doc):
        try:
            samples.append((float(x), float(force)))
        except OverflowError:  # an integer past the float range
            raise ConfigError("expected finite numbers", field=f"force_table[{i}]") from None
    try:
        return SiliconeForceTable(samples=tuple(samples))
    except ValueError as exc:
        raise ConfigError(f"invalid force table: {exc}", field="force_table") from exc


def load_force_table_path(path: str | Path) -> SiliconeForceTable:
    return load_force_table(Path(path).read_text(encoding="utf-8"))


def _interpolated(x0: float, f0: float, x1: float, f1: float, xs) -> list[float]:
    # The force at each of ``xs`` on the table segment from (x0, f0) to (x1, f1).
    return [f0 + (x - x0) / (x1 - x0) * (f1 - f0) for x in xs]


def silicone_force(table: SiliconeForceTable, length_change: float) -> float:
    """Restoring force at a given length change (cm).

    Piecewise-linear between samples, clamped to the end forces outside the
    sampled range; lookups exactly at a sample return the stored force.
    """
    if length_change < 0:
        raise ValueError("length change must be nonnegative")
    samples = table.samples
    if length_change <= samples[0][0]:
        return samples[0][1]
    if length_change >= samples[-1][0]:
        return samples[-1][1]
    i = bisect_left(samples, length_change, key=operator.itemgetter(0))
    x0, f0 = samples[i - 1]
    x1, f1 = samples[i]
    if length_change == x1:
        return f1
    return _interpolated(x0, f0, x1, f1, (length_change,))[0]


def silicone_forces(table: SiliconeForceTable, length_changes: list[float]) -> list[float]:
    """``silicone_force`` at each of the nondecreasing ``length_changes``, the
    same float objects, computed one table segment at a time."""
    if not all(map(operator.le, [0.0, *length_changes], length_changes)):
        raise ValueError("length changes must be nonnegative and nondecreasing")
    (x0, f0), *samples = table.samples
    at = bisect_right(length_changes, x0)
    forces = [f0] * at
    for x1, f1 in samples:
        hit = bisect_left(length_changes, x1, at)
        forces += _interpolated(x0, f0, x1, f1, length_changes[at:hit])
        at = bisect_right(length_changes, x1, hit)
        forces += [f1] * (at - hit)
        x0, f0 = x1, f1
    return forces + [f0] * (len(length_changes) - at)


def screw_torque(axial_force: float, lead: float, mean_diameter: float,
                 friction: float) -> float:
    """Torque to raise an axial load with a square-thread power screw.

        T = F * (d/2) * (lead + pi * mu * d) / (pi * d - mu * lead)

    Frictionless screws reduce to the energy balance T = F * lead / (2*pi).
    """
    if axial_force < 0:
        raise ValueError("axial force must be nonnegative")
    if lead <= 0 or mean_diameter <= 0:
        raise ValueError("lead and mean diameter must be positive")
    if not 0 <= friction < 1:
        raise ValueError("friction must be in [0, 1)")
    denom = pi * mean_diameter - friction * lead
    if denom <= 0:
        raise ValueError("non-physical screw geometry: pi * d must exceed mu * lead")
    return axial_force * (mean_diameter / 2.0) \
        * (lead + pi * friction * mean_diameter) / denom


# The three screws share the axial load equally.
_SCREWS = 3.0


def torque_columns(p: DesignParams, lengths: list[float],
                   table: SiliconeForceTable | None = None) -> tuple[list, list]:
    """Axial force and per-motor torque columns at the module ``lengths``, which
    fall from the first, the elongated crawler's. The load is the skin restoring
    force at that compression (the package's one mm-to-cm conversion), shared by
    the three screws; a run of one force object shares one torque object."""
    if table is None:
        table = default_force_table()
    dr = p.drive
    lead, d, mu = dr.screw_lead, dr.screw_mean_diameter, dr.screw_friction
    elongated = lengths[0]
    forces = silicone_forces(table, [(elongated - length) / 10.0 for length in lengths])
    torques, force = [], None
    for f in forces:
        # Identity, not equality: 0.0 and -0.0 are equal but print apart.
        if f is not force:
            force, torque = f, screw_torque(f / _SCREWS, lead, d, mu)
        torques.append(torque)
    return forces, torques


def peak_load(p: DesignParams, table: SiliconeForceTable | None = None) -> tuple[float, float]:
    """(axial force N, per-motor torque N*mm) at the peak of every
    ``torque_columns``: its uncompressed first entry, since table forces
    never increase with compression."""
    if table is None:
        table = default_force_table()
    force = silicone_force(table, 0.0)
    dr = p.drive
    return force, screw_torque(force / _SCREWS, dr.screw_lead, dr.screw_mean_diameter,
                               dr.screw_friction)
