"""Seeded inputs: random designs for ``design-batch`` and sweep grids.

Designs are drawn over the property-test ranges of ``tests/conftest.py``
(``random_valid_params``), so every one is structurally valid. About one
such design in five has a wheel stroke ``2 (rod_half_length - h_min)`` at
least as long as its elongated length; ``report`` then exits 2 with
``lengths must be positive``. To keep the failed share of every run exactly
the same, the seed only draws designs that do not overrun, and each round
adds a fixed share of overrunning designs drawn from a constant seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference

# One round of design-batch: its slots, by kind. Every run attempts whole
# rounds, so each run fails the same share of designs (10 in 50). The crash
# share is measured (404 of 2000 conftest designs overrun); the heavy share
# and range are chosen so that the slowest 1% of designs are heavy ones of
# nearly one scan length, and card_p99_ms follows the scan oracle.
ROUND_MAKEUP = {
    "crash": 10,   # overrunning wheel stroke, from CRASH_SEED
    "single": 4,   # one screw level: only the target ratio 1 is reachable
    "heavy": 3,    # target ratio close to 1/n_levels: long scan in min_screw_length
    "normal": 33,
}
CRASH_SEED = 404
CRASH_POOL = 200
# Minimal screw lengths that set each slot's target ratio, in mm.
NORMAL_MIN_SCREW = (1.0, 100.0)
HEAVY_MIN_SCREW = (4800.0, 5000.0)

SWEEP_POINTS = 1000
# (path, objective, start range, stop range). screw_level_length stays above
# 12.5 mm, where the reference design's wheel stroke would overrun its length.
SWEEPS = (
    ("screw.screw_level_length", "min-peak-torque", (13.0, 20.0), (60.0, 100.0)),
    ("wheel.hub_offset", "max-wheel-radius", (0.0, 20.0), (150.0, 250.0)),
)


@dataclass(frozen=True)
class DesignCase:
    name: str
    design: dict       # config sections, as reference.with_defaults returns them
    target: float      # reduction ratio target for inverse sizing
    crash: bool        # the model predicts the wheel stroke overruns

    @property
    def residual(self) -> float:
        return reference.residual(self.design)


def _num(rng: random.Random, lo: float, hi: float) -> float:
    # Six decimals, so the config text holds the exact value the model uses.
    return float(f"{rng.uniform(lo, hi):.6f}")


def random_design(rng: random.Random, n_levels: int) -> dict:
    arm = _num(rng, 1.0, 20.0)
    rod_half = _num(rng, 20.0, 500.0)
    curved = _num(rng, 10.0, 300.0)
    return reference.with_defaults({
        "screw": {
            "n_levels": n_levels,
            "screw_level_length": _num(rng, 1.0, 100.0),
            "stopper_width": _num(rng, 0.1, 5.0),
            "thread_width": _num(rng, 0.1, 3.0),
            "thread_clearance": _num(rng, 0.0, 2.0),
            "base_screw_diameter": _num(rng, 1.0, 10.0),
        },
        "layout": {
            "joint_arm_height": arm,
            "drive_assembly_length": _num(rng, 10.0, 200.0),
            "tensioner_length": _num(rng, 10.0, 200.0),
            "plate_clearance": _num(rng, 1.0, 50.0),
        },
        "platform": {
            "screw_circle_spacing": _num(rng, 5.0, 100.0),
            "max_screw_extension": _num(rng, 10.0, 300.0),
            "joint_mount_width": _num(rng, 1.0, 20.0),
            "universal_joint_diameter": _num(rng, 1.0, 10.0),
            "plate_count": rng.randint(1, 8),
        },
        "wheel": {
            "rod_half_length": rod_half,
            "hub_offset": _num(rng, 0.0, 200.0),
            "curved_rod_length": curved,
            "hinge_allowance": _num(rng, 0.0, curved * 0.9),
            "spoke_pairs": rng.randint(3, 12),
            "min_half_separation": _num(rng, 0.0, rod_half * 0.5),
        },
        "drive": {
            "motor_stall_torque": _num(rng, 100.0, 5000.0),
            "screw_lead": _num(rng, 0.5, 10.0),
            "screw_friction": _num(rng, 0.0, 0.5),
            "screw_mean_diameter": _num(rng, 2.0, 20.0),
        },
    })


def _overrun_margin(d: dict) -> float:
    """Elongated length left after the wheel stroke, as a share of it."""
    elongated, _ = reference.lengths(d)
    return (elongated - 2.0 * (d["wheel"]["rod_half_length"] - reference.h_min(d))) / elongated


def _case(rng: random.Random, kind: str, name: str) -> DesignCase:
    n = 1 if kind == "single" else rng.randint(1 if kind == "crash" else 2, 10)
    while True:
        d = random_design(rng, n)
        margin = _overrun_margin(d)
        # Keep clear of the boundary, so float rounding cannot decide the outcome.
        if (margin < -1e-6) if kind == "crash" else (margin > 1e-6):
            break
    if n == 1:
        target = 1.0
    else:
        lo, hi = HEAVY_MIN_SCREW if kind == "heavy" else NORMAL_MIN_SCREW
        # The ratio reached at this level length: the minimal length is known.
        target = reference.reduction_ratio(rng.uniform(lo, hi), n, reference.residual(d))
    return DesignCase(name=name, design=d, target=target, crash=kind == "crash")


def _slot_order() -> list[str]:
    slots = [kind for kind, count in ROUND_MAKEUP.items() for _ in range(count)]
    random.Random(0).shuffle(slots)
    return slots


def design_rounds(seed: int, rounds: int) -> list[list[DesignCase]]:
    """``rounds`` distinct rounds; overrunning designs do not depend on ``seed``."""
    rng = random.Random(seed)
    crash_rng = random.Random(CRASH_SEED)
    crash_pool = [_case(crash_rng, "crash", f"crash{i:03d}") for i in range(CRASH_POOL)]
    crashes = 0
    out = []
    for r in range(rounds):
        cases = []
        for slot, kind in enumerate(_slot_order()):
            if kind == "crash":
                cases.append(crash_pool[crashes % CRASH_POOL])
                crashes += 1
            else:
                cases.append(_case(rng, kind, f"s{seed}r{r:02d}d{slot:02d}"))
        out.append(cases)
    return out


def config_text(d: dict) -> str:
    """YAML config for a design; numbers keep the six decimals they were drawn with."""
    lines = []
    for section, values in d.items():
        lines.append(f"{section}:")
        for key, value in values.items():
            text = str(value) if isinstance(value, int) else f"{value:.6f}"
            lines.append(f"  {key}: {text}")
    return "\n".join(lines) + "\n"


def sweep_grids(seed: int) -> list[tuple[str, str, float, float, int]]:
    """(path, objective, start, stop, points) for each sweep of a round."""
    rng = random.Random(seed + 1_000_003)
    return [(path, objective, float(f"{rng.uniform(*lo):.6f}"),
             float(f"{rng.uniform(*hi):.6f}"), SWEEP_POINTS)
            for path, objective, lo, hi in SWEEPS]
