"""Telescopic screw stack model: module lengths, inverse sizing of screw
length and level count against a reduction-ratio target, and the nested
diameter ladder. The reduction ratio itself, and the verdict on it, are
quantities of the design card (``report``).

All functions are pure. The inverse solvers are closed forms; the
brute-force scans that check them live with the tests.
"""

from __future__ import annotations

import math
import typing

from .errors import InfeasibleError
from .params import DesignParams, require_valid, residual_length, screw_diameter

__all__ = [
    "ModuleLengths",
    "ScrewLengthSolution",
    "residual_length",
    "module_lengths",
    "min_screw_length",
    "min_levels",
    "diameter_ladder",
    "shaft_levels",
]


class ModuleLengths(typing.NamedTuple):
    elongated: float  # mm, all screw levels extended
    reduced: float    # mm, stack collapsed to one level


class ScrewLengthSolution(typing.NamedTuple):
    length: float          # mm, minimum level length meeting the target
    degenerate: bool = False  # target ratio of 1 needs no telescoping at all


def module_lengths(p: DesignParams) -> ModuleLengths:
    """Elongated and fully reduced module lengths.

    Elongated stacks all ``n_levels`` screw levels twice (one per cascaded
    platform) on top of the residual; reduced keeps a single collapsed level
    per platform. Refuses invalid designs with their validation report
    (``p.validation``, computed once per design), which holds both lengths.
    """
    derived = require_valid(p).derived
    return ModuleLengths(derived["elongated_length_mm"], derived["reduced_length_mm"])


def _finite_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _ratio(screw_length: float, n_levels: int, residual: float) -> float:
    return (2.0 * screw_length + residual) / (2.0 * n_levels * screw_length + residual)


def min_screw_length(n_levels: int, residual: float,
                     target_ratio: float) -> ScrewLengthSolution:
    """Smallest per-level screw length reaching the reduction target.

    Closed form from setting the reduction ratio equal to the target:

        S = residual * (1 - target) / (2 * (n_levels * target - 1))

    valid when ``n_levels * target > 1``; fewer levels can never reach the
    target because the ratio tends to ``1/n_levels`` as the screws grow.
    """
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    if not 1 <= n_levels < math.inf:  # NaN fails too
        raise ValueError(f"n_levels must be finite and >= 1, got {n_levels!r}")
    _finite_positive(residual=residual)
    if target_ratio == 1.0:
        # Any positive length already satisfies ratio <= 1.
        return ScrewLengthSolution(length=0.0, degenerate=True)
    if n_levels * target_ratio <= 1.0:
        raise InfeasibleError("infeasible: not enough levels for this ratio")

    return ScrewLengthSolution(
        length=residual * (1.0 - target_ratio) / (2.0 * (n_levels * target_ratio - 1.0)))


def min_levels(screw_length: float, residual: float, target_ratio: float) -> int:
    """Smallest level count whose reduction ratio meets the target.

    A finite answer always exists because the ratio tends to 0 as levels are
    added. Starts from the ceiling of the closed form and nudges by scanning
    so float rounding can never return a non-minimal or failing count. A
    closed form at or past 2**53, where adding a level no longer changes the
    float ratio, raises ``ValueError``.
    """
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    _finite_positive(screw_length=screw_length, residual=residual)
    if target_ratio == 1.0:
        return 1
    raw = (2.0 * screw_length + residual * (1.0 - target_ratio)) \
        / (2.0 * screw_length * target_ratio)
    if not raw < 2.0 ** 53:
        raise ValueError(f"the target needs about {raw:.3g} levels, not below 2**53")
    n = max(1, math.ceil(raw - 1e-12))
    while _ratio(screw_length, n, residual) > target_ratio:
        n += 1
    while n > 1 and _ratio(screw_length, n - 1, residual) <= target_ratio:
        n -= 1
    return n


def diameter_ladder(p: DesignParams) -> tuple[float, ...]:
    """Outer diameter in mm per nesting level (``params.screw_diameter``),
    innermost (master screw) first.

    A zero increment is computed as-is (all levels equal); the validator
    flags the underlying zero widths as violations.
    """
    return tuple(screw_diameter(p, k) for k in range(p.screw.n_levels))


def shaft_levels(p: DesignParams) -> int:
    """Telescoping levels of the internal common shaft: one fewer than the screw."""
    if p.screw.n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    return p.screw.n_levels - 1
