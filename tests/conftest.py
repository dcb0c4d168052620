import os
import random
from pathlib import Path

import pytest

from morphwheel import (
    DesignParams,
    DriveSpec,
    ModuleLayout,
    PlatformSpec,
    TelescopicScrewSpec,
    WheelSpec,
    load,
    validate,
)


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The reference design, read from its config file as the README's library
# example reads it.
_REFERENCE = load((ROOT / "configs" / "reference.yaml").read_text(encoding="utf-8"))

# The two ways a process enters the CLI: ``python -m`` and the function the
# console script calls.
ENTRIES = {
    "module": ["-m", "morphwheel.cli"],
    "console-script": ["-c", "import sys; from morphwheel.cli import entry; sys.exit(entry())"],
}


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child Python process that imports this
    checkout's package, with ``extra`` variables set."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_design() -> DesignParams:
    """The design of ``configs/reference.yaml``: a new design on each call,
    which validates on its own first use."""
    return DesignParams(*_REFERENCE)


@pytest.fixture
def reference() -> DesignParams:
    return reference_design()


def count_calls(monkeypatch, module, name):
    """The argument tuples of every later call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_params(rng: random.Random) -> DesignParams:
    """Random design over the property-suite ranges.

    About one draw in five has a wheel stroke that overruns its elongated
    length, which ``validate`` refuses.
    """
    n = rng.randint(1, 10)
    arm = rng.uniform(1.0, 20.0)
    rod_half = rng.uniform(20.0, 500.0)
    curved = rng.uniform(10.0, 300.0)
    return DesignParams(
        screw=TelescopicScrewSpec(
            n_levels=n,
            screw_level_length=rng.uniform(1.0, 100.0),
            stopper_width=rng.uniform(0.1, 5.0),
            thread_width=rng.uniform(0.1, 3.0),
            thread_clearance=rng.uniform(0.0, 2.0),
            base_screw_diameter=rng.uniform(1.0, 10.0),
        ),
        layout=ModuleLayout(
            joint_arm_height=arm,
            drive_assembly_length=rng.uniform(10.0, 200.0),
            tensioner_length=rng.uniform(10.0, 200.0),
            plate_clearance=rng.uniform(1.0, 50.0),
        ),
        platform=PlatformSpec(
            screw_circle_spacing=rng.uniform(5.0, 100.0),
            max_screw_extension=rng.uniform(10.0, 300.0),
            joint_mount_width=rng.uniform(1.0, 20.0),
            universal_joint_diameter=rng.uniform(1.0, 10.0),
            plate_count=rng.randint(1, 8),
        ),
        wheel=WheelSpec(
            rod_half_length=rod_half,
            hub_offset=rng.uniform(0.0, 200.0),
            curved_rod_length=curved,
            hinge_allowance=rng.uniform(0.0, curved * 0.9),
            spoke_pairs=rng.randint(3, 12),
            min_half_separation=rng.uniform(0.0, rod_half * 0.5),
        ),
        drive=DriveSpec(
            motor_stall_torque=rng.uniform(100.0, 5000.0),
            screw_lead=rng.uniform(0.5, 10.0),
            screw_friction=rng.uniform(0.0, 0.5),
            screw_mean_diameter=rng.uniform(2.0, 20.0),
        ),
    )


def random_valid_params(rng: random.Random) -> DesignParams:
    """Random structurally valid design, for property suites: draws from
    ``random_params`` until ``validate`` accepts one."""
    while True:
        p = random_params(rng)
        if validate(p).valid:
            return p
