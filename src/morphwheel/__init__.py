"""morphwheel: design toolkit for a crawler-to-wheel transforming robot module.

Covers the parametric design model (telescopic screw stack, cascaded
bending platforms, chassis rods), the wheel-transformation geometry, and a
quasi-static torque estimate, plus config handling and a CLI.
"""

from .errors import ConfigError, InfeasibleError, InvalidDesignError, MorphwheelError
from .params import (
    DesignParams,
    DriveSpec,
    ModuleLayout,
    PlatformSpec,
    ReportedTargets,
    TelescopicScrewSpec,
    ValidationReport,
    Verdict,
    Violation,
    WheelSpec,
    load,
    reference_design,
    serialize,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DesignParams",
    "DriveSpec",
    "InfeasibleError",
    "InvalidDesignError",
    "ModuleLayout",
    "MorphwheelError",
    "PlatformSpec",
    "ReportedTargets",
    "TelescopicScrewSpec",
    "ValidationReport",
    "Verdict",
    "Violation",
    "WheelSpec",
    "load",
    "reference_design",
    "serialize",
    "validate",
    "__version__",
]
