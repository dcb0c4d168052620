"""Design parameter model: every geometric symbol of the transforming module,
config loading/serialization, and structural validation.

Unit convention, fixed across the whole package:
lengths in mm, angles in radians, forces in N, torques in N*mm.
The force lookup table is the single exception (centimetre abscissa, see
``quasistatics``).

Config files are YAML with one section per field of ``DesignParams``, whose
keys are the fields of that section's named tuple (the ``reported`` block of
published target values, used for cross-checking, is optional); a section may
also restate a value derived from its fields (``_RESTATED``). See
``configs/reference.yaml`` for an annotated example of every key. Configs
and force tables are read in one plain subset of YAML (``_plain_doc``), the
shape ``serialize`` writes, without PyYAML; any other text is refused at its
first line outside it.
"""

from __future__ import annotations

import functools
import math
import re
import types
import typing

from .errors import ConfigError, InvalidDesignError

__all__ = [
    "TelescopicScrewSpec",
    "ModuleLayout",
    "PlatformSpec",
    "WheelSpec",
    "DriveSpec",
    "ReportedTargets",
    "DesignParams",
    "Violation",
    "Verdict",
    "ValidationReport",
    "residual_length",
    "elongated_length",
    "reduced_length",
    "min_half_separation",
    "screw_diameter",
    "validate",
    "require_valid",
    "load",
    "serialize",
]


def _remake(cls, iterable):
    # ``_make``, and so ``_replace``, of a named tuple whose ``__new__`` checks
    # something: a plain named tuple's skips ``__new__``.
    return cls(*iterable)


def _read_only(self, name, value=None):
    # ``__setattr__`` and ``__delattr__`` of a named tuple whose ``__dict__``
    # keeps a value computed from its fields.
    raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")


class TelescopicScrewSpec(typing.NamedTuple):
    """Nested screw stack driving one platform actuator."""

    n_levels: int                    # telescoping levels per screw
    screw_level_length: float        # mm, one level incl. its stopper
    stopper_width: float             # mm, radial stopper between levels
    thread_width: float              # mm
    thread_clearance: float          # mm, radial play between nested threads
    base_screw_diameter: float = 2.3  # mm, innermost (master) screw


class ModuleLayout(typing.NamedTuple):
    """Axial length budget of one module. A full universal joint is two arms."""

    joint_arm_height: float          # mm, one universal-joint arm
    drive_assembly_length: float     # mm, chain drive section
    tensioner_length: float          # mm, chain tensioner section
    plate_clearance: float           # mm, gap between adjacent plates


class PlatformSpec(typing.NamedTuple):
    """One 3-screw tilting platform of the cascaded pair."""

    screw_circle_spacing: float      # mm, distance between adjacent screw centres
    max_screw_extension: float       # mm, full stroke of one telescopic screw
    joint_mount_width: float         # mm, mount footprint at the universal joint
    universal_joint_diameter: float  # mm
    plate_count: int = 4             # cascaded tilt interfaces


class WheelSpec(typing.NamedTuple):
    """Chassis rod pair and rim geometry for the wheel mode."""

    rod_half_length: float           # mm, one rod of the hinged pair
    hub_offset: float                # mm, rod attachment radius at the hub
    curved_rod_length: float         # mm, one curved rim rod level
    hinge_allowance: float           # mm, rim rod length consumed by hinges
    spoke_pairs: int = 6             # rod pairs around the circumference
    min_half_separation: float | None = None  # mm, residual h at full compression
    # None falls back to the stopper stack height (``min_half_separation``).


class DriveSpec(typing.NamedTuple):
    """Gearmotor and power screw of one platform actuator."""

    motor_stall_torque: float = 1470.0   # N*mm (15 kg*cm class gearmotor)
    screw_lead: float = 2.0              # mm per revolution
    screw_friction: float = 0.2          # thread friction coefficient
    screw_mean_diameter: float = 8.0     # mm, effective thread contact diameter


class ReportedTargets(typing.NamedTuple):
    """Published target values, kept for cross-checking computed results.

    All optional; a supplied value is compared against the corresponding
    computed quantity and any disagreement is emitted as a machine-readable
    warning, never silently patched.
    """

    elongated_length: float | None = None   # mm
    reduced_length: float | None = None     # mm
    chassis_diameter: float | None = None   # mm
    wheel_diameter: float | None = None     # mm
    rod_half_expansion: float | None = None  # mm


class _DesignFields(typing.NamedTuple):
    screw: TelescopicScrewSpec
    layout: ModuleLayout
    platform: PlatformSpec
    wheel: WheelSpec
    drive: DriveSpec = DriveSpec()  # immutable, so one default serves every design
    reported: ReportedTargets = ReportedTargets()


class DesignParams(_DesignFields):
    """Single source of truth for every computation in the package."""

    # No ``__slots__``: the ``__dict__`` keeps ``validation``, which takes no
    # part in equality.
    __setattr__ = __delattr__ = _read_only

    @functools.cached_property
    def validation(self) -> ValidationReport:
        """``validate(self)``, run on the first read and kept: the design is
        immutable, so its report cannot go stale."""
        return validate(self)


class Violation(typing.NamedTuple):
    """One violated structural invariant."""

    field: str       # dotted path, e.g. "screw.n_levels"
    constraint: str  # the rule that failed, e.g. "n_levels >= 1"


class Verdict(typing.NamedTuple):
    """One check of a valid design (``report.verdicts``): a computed quantity
    against a reported value, a target or a second model, and in ``detail``
    what its failure means.

    Machine-readable on purpose: downstream tooling asserts on ``code``.
    """

    code: str
    passed: bool
    computed: float
    reported: float
    detail: str


class ValidationReport(typing.NamedTuple):
    violations: tuple[Violation, ...] = ()
    # ``got`` of validation's stages, read-only; None for an invalid design.
    derived: typing.Mapping[str, float] | None = None

    def __reduce__(self):  # a mapping proxy does not pickle; its dict does
        return _report, (self.violations, self.derived and dict(self.derived))

    @property
    def valid(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# derived quantities the validator needs (unvalidated)

# Residual stopper height per telescoping level; keeps the collapsed rod
# pair from closing completely unless the design overrides it.
_STOPPER_HEIGHT = 2.0  # mm

# Most screw levels a design may have. ``report`` prints one diameter per
# level, and no nested stack is built from anywhere near this many.
_MAX_LEVELS = 1000

# Most states a profile, or grid points a sweep, may have. A profile keeps
# every state in memory before it writes, and a sweep's CSV grows by about
# 300 bytes a point; no design study needs anywhere near this many.
_MAX_STEPS = 100_000

# Least share of a length that the wheel stroke may change it by. At this
# share the states of a 50-state profile still differ in floats: its
# flattest step, the radius near full compression, moves by about 2**-42 of
# it, some 2**10 units in the last place.
_MIN_STROKE_SHARE = 2.0 ** -30


def residual_length(p: DesignParams) -> float:
    """Axial length that does not telescope: two joints of two arms each,
    clearance, drive, tensioner."""
    lay = p.layout
    return 4.0 * lay.joint_arm_height + lay.plate_clearance \
        + lay.drive_assembly_length + lay.tensioner_length


def elongated_length(p: DesignParams) -> float:
    """Module length with all ``n_levels`` screw levels extended on both platforms."""
    return 2.0 * p.screw.n_levels * p.screw.screw_level_length + residual_length(p)


def reduced_length(p: DesignParams) -> float:
    """Module length with the stack collapsed to one level per platform."""
    return 2.0 * p.screw.screw_level_length + residual_length(p)


def min_half_separation(p: DesignParams) -> float:
    """Rod-pair half-separation at full compression: the design's value, or
    the stopper stack height when it leaves the field unset."""
    h_min = p.wheel.min_half_separation
    return _STOPPER_HEIGHT * p.screw.n_levels if h_min is None else h_min


def screw_diameter(p: DesignParams, level: int) -> float:
    """Outer diameter of screw level ``level``, 0 the innermost: each level
    adds one thread width, the thread clearance and one stopper width."""
    s = p.screw
    return s.base_screw_diameter + level * (s.thread_width + s.thread_clearance + s.stopper_width)


# ---------------------------------------------------------------------------
# config schema

class _Field(typing.NamedTuple):
    """One config field, named by the dotted path that a config key, a
    ``Violation`` and a sweep parameter share."""

    section: str    # the field of ``DesignParams`` that holds the section
    name: str       # the field of the section
    path: str       # "section.name"
    cls: type       # the section's named tuple
    required: bool  # the field has no default
    is_count: bool  # annotated ``int``

    def value(self, value: float) -> int | float:
        """``value`` as this field holds it: an int for a count, which
        refuses a non-integral value, else a float."""
        if not self.is_count:
            return float(value)
        if not float(value).is_integer():
            raise ConfigError(f"count field needs an integer value, got {value!r}",
                              field=self.path)
        return int(value)

    def setter(self, p: DesignParams):
        """A function of one value (as ``value`` returns it) that gives a copy
        of ``p`` with this field set to it. The section's and the design's
        other fields are read once, here, not per call."""
        fields, design = list(getattr(p, self.section)), list(p)
        j, k = self.cls._fields.index(self.name), DesignParams._fields.index(self.section)
        make, make_design = self.cls._make, DesignParams._make

        def at(value):  # neither class checks its fields in ``__new__``
            fields[j] = value
            design[k] = make(fields)
            return make_design(design)
        return at


def _schema(section: str, cls: type) -> dict[str, _Field]:
    # Every section field is a number, and a count when it is annotated an
    # int. ``typing.NamedTuple`` keeps the annotations as ``ForwardRef``s of
    # their text (``from __future__ import annotations``); ``get_type_hints``
    # evaluates them.
    defaults = cls._field_defaults
    return {name: _Field(section, name, f"{section}.{name}", cls, name not in defaults,
                         hint is int)
            for name, hint in typing.get_type_hints(cls).items()}


# Section name -> (its class, {key: _Field}), in the order of the fields of
# ``DesignParams``, read from its annotations: the one table that ``load``,
# ``serialize``, validation's stages and a sweep read.
_SECTIONS: dict[str, tuple[type, dict[str, _Field]]] = {
    name: (cls, _schema(name, cls))
    for name, cls in typing.get_type_hints(DesignParams).items()}


def _field_path(path: str) -> _Field:
    """Resolve a dotted field name; ``ConfigError`` names a path that is no
    field, or a section rather than a field."""
    section, dot, name = path.partition(".")
    entry = _SECTIONS.get(section)
    if entry is not None and not dot:
        raise ConfigError("parameter path is not a numeric field", field=path)
    found = None if entry is None else entry[1].get(name)
    if found is None:
        raise ConfigError("unresolvable parameter path", field=path)
    return found


# ---------------------------------------------------------------------------
# validation

def _positive(out: list[Violation], section: str, obj, names: tuple[str, ...]) -> None:
    # The path is built only for a failed check: sweep points run these often.
    for name in names:
        if not getattr(obj, name) > 0:
            out.append(Violation(f"{section}.{name}", f"{name} > 0"))


def validate(p: DesignParams) -> ValidationReport:
    """Check every structural invariant of a design.

    Pure: identical input gives an identical report. Every violated
    invariant is listed (no short-circuiting); an empty violations tuple
    means the design is structurally sound. Reported values are not checked
    here: ``report.verdicts`` compares them with the design. A
    design that passes every other check, as their formulas assume, is
    last checked for derived quantities past the float range and for a wheel
    stroke lost to rounding. Its report keeps, as ``derived``, what the
    stages gave.
    """
    v, got = [], {}  # the stage tables as they are at the call
    for stages in (_STRUCTURE, _OVERFLOWS):
        for _, stage in stages:
            if gave := stage(p, v, got):
                got.update(gave)
        if v:
            return ValidationReport(tuple(v))
    return _report((), got)


def _report(violations: tuple[Violation, ...], got: dict | None) -> ValidationReport:
    return ValidationReport(violations, got and types.MappingProxyType(got))


def _check_screw(p, v, got):
    s = p.screw
    if s.n_levels < 1:
        v.append(Violation("screw.n_levels", "n_levels >= 1"))
    elif s.n_levels > _MAX_LEVELS:
        v.append(Violation("screw.n_levels", f"n_levels <= {_MAX_LEVELS}"))
    _positive(v, "screw", s,
              ("screw_level_length", "stopper_width", "thread_width", "base_screw_diameter"))
    if s.thread_clearance < 0:
        v.append(Violation("screw.thread_clearance", "thread_clearance >= 0"))


def _check_layout(p, v, got):
    _positive(v, "layout", p.layout, ("joint_arm_height", "drive_assembly_length",
                                      "tensioner_length", "plate_clearance"))


def _module_lengths(p, v, got):
    return {"elongated_length_mm": elongated_length(p), "reduced_length_mm": reduced_length(p)}


def _check_platform(p, v, got):
    _positive(v, "platform", p.platform, ("screw_circle_spacing", "max_screw_extension",
                                          "joint_mount_width", "universal_joint_diameter"))
    if p.platform.plate_count < 1:
        v.append(Violation("platform.plate_count", "plate_count >= 1"))


def _check_rods(p, v, got):
    _positive(v, "wheel", p.wheel, ("rod_half_length", "curved_rod_length"))


def _check_hub(p, v, got):
    if p.wheel.hub_offset < 0:
        v.append(Violation("wheel.hub_offset", "hub_offset >= 0"))


def _check_wheel(p, v, got):
    w = p.wheel
    if w.hinge_allowance < 0:
        v.append(Violation("wheel.hinge_allowance", "hinge_allowance >= 0"))
    if not w.hinge_allowance < w.curved_rod_length:
        v.append(Violation("wheel.hinge_allowance", "hinge_allowance < curved_rod_length"))
    if w.spoke_pairs < 3:
        v.append(Violation("wheel.spoke_pairs", "spoke_pairs >= 3"))
    if w.min_half_separation is not None and w.min_half_separation < 0:
        v.append(Violation("wheel.min_half_separation", "min_half_separation >= 0"))
    # A rod pair that cannot fold forms no wheel.
    if not min_half_separation(p) < w.rod_half_length:
        v.append(Violation("wheel.min_half_separation",
                           "min_half_separation < rod_half_length"))


def _check_wheel_stroke(p, v, got):
    travel = p.wheel.rod_half_length - min_half_separation(p)
    # Each unit of half-separation lost shortens the module by two, so a
    # longer wheel stroke would compress the module to nothing.
    if 2.0 * travel >= got["elongated_length_mm"]:
        v.append(Violation("wheel.rod_half_length",
                           "2 * (rod_half_length - min_half_separation) < elongated length"))
    return {"travel": travel}


def _check_drive(p, v, got):
    dr = p.drive
    _positive(v, "drive", dr, ("motor_stall_torque", "screw_lead", "screw_mean_diameter"))
    if not 0 <= dr.screw_friction < 1:
        v.append(Violation("drive.screw_friction", "0 <= screw_friction < 1"))
    # With pi * d <= mu * lead no motor torque can raise the load: the screw jams.
    if dr.screw_mean_diameter > 0 \
            and not math.pi * dr.screw_mean_diameter > dr.screw_friction * dr.screw_lead:
        v.append(Violation("drive.screw_mean_diameter",
                           "pi * screw_mean_diameter > screw_friction * screw_lead"))


# The overflow stages, which run only on a structurally sound design. The
# card, the profile and a sweep row print these quantities: none may
# overflow, and the wheel stroke, twice the rod ``travel``, must change the
# module length, the half-separation and the wheel radius by a share that
# floats resolve. The rim plan also rounds the rim arc over the usable rod
# length to a level count and checks it in floats, which count exactly only
# below 2**53.
def _check_stroke(p, v, got):
    elongated, travel = got["elongated_length_mm"], got["travel"]
    if not math.isfinite(elongated):
        v.append(Violation("screw.screw_level_length", "elongated length is finite"))
    elif not 2.0 * travel > _MIN_STROKE_SHARE * elongated:
        v.append(Violation("wheel.rod_half_length", "2 * (rod_half_length - "
                           "min_half_separation) > 2**-30 * elongated length"))
    if not travel > _MIN_STROKE_SHARE * p.wheel.rod_half_length:
        v.append(Violation("wheel.min_half_separation", "rod_half_length - "
                           "min_half_separation > 2**-30 * rod_half_length"))
    # A structurally sound design's elongated length is positive.
    return {"reduction_ratio": got["reduced_length_mm"] / elongated}


def _check_screw_diameter(p, v, got):
    if not math.isfinite(screw_diameter(p, p.screw.n_levels - 1)):
        v.append(Violation("screw.thread_width", "outermost screw diameter is finite"))


def _check_radius(p, v, got):
    w = p.wheel
    radius = wheelgeom.transform_endpoint_radius(p)
    arc = wheelgeom.rim_arc(radius, w.spoke_pairs)
    if not math.isfinite(radius):
        v.append(Violation("wheel.rod_half_length", "wheel radius is finite"))
    elif not math.isfinite(arc):
        v.append(Violation("wheel.hub_offset", "rim arc of the wheel radius is finite"))
    elif not arc / (w.curved_rod_length - w.hinge_allowance) < 2.0 ** 53:
        v.append(Violation("wheel.curved_rod_length",
                           "rim arc / (curved_rod_length - hinge_allowance) < 2**53"))
    elif not radius - w.hub_offset > _MIN_STROKE_SHARE * radius:
        v.append(Violation("wheel.hub_offset",
                           "wheel radius - hub_offset > 2**-30 * wheel radius"))
    return {"wheel_radius_mm": radius}


def _check_peak_load(p, v, got):
    force, torque = quasistatics.peak_load(p)
    if not math.isfinite(torque):
        v.append(Violation("drive.screw_mean_diameter", "peak torque is finite"))
    return {"peak_axial_force_N": force, "peak_torque_Nmm": torque}


def _check_tilt(p, v, got):
    # The card's chassis and rod lengths grow with the plate tilt.
    tilt = bending.MAX_PLATE_TILT
    if not math.isfinite(bending.chassis_diameter(p, tilt).chassis_diameter):
        v.append(Violation("platform.max_screw_extension",
                           "chassis diameter at a pi/4 tilt is finite"))
    if not math.isfinite(2.0 * bending.rod_half_expansion(p, tilt)):
        v.append(Violation("platform.joint_mount_width",
                           "rod length at a pi/4 tilt is finite"))


def _reads(names: str) -> frozenset[str]:
    return frozenset(path for name in names.split() for path in (
        (name,) if "." in name else (f"{name}.{f}" for f in _SECTIONS[name][0]._fields)))


# The stages of ``validate`` in order, each with the fields it reads, also
# through the quantities it takes, which ``_LENGTHS``, ``_TRAVEL``, ``_RADIUS``,
# ``_LADDER`` and ``_PEAK`` name; a section name stands for all its fields. A
# stage is called with the design, the violations to extend and ``got``, the
# quantities that earlier stages returned under the keys the card prints.
_LENGTHS = "screw.n_levels screw.screw_level_length layout"
_TRAVEL = "wheel.rod_half_length wheel.min_half_separation screw.n_levels"
_RADIUS = f"wheel.hub_offset {_TRAVEL}"
_LADDER = "screw.n_levels screw.base_screw_diameter screw.thread_width " \
    "screw.thread_clearance screw.stopper_width"
_PEAK = "drive.screw_lead drive.screw_friction drive.screw_mean_diameter"
_STRUCTURE = tuple((_reads(names), stage) for names, stage in (
    ("screw", _check_screw), ("layout", _check_layout), (_LENGTHS, _module_lengths),
    ("platform", _check_platform), ("wheel.rod_half_length wheel.curved_rod_length", _check_rods),
    ("wheel.hub_offset", _check_hub),
    (f"wheel.hinge_allowance wheel.curved_rod_length wheel.spoke_pairs {_TRAVEL}", _check_wheel),
    (f"{_TRAVEL} {_LENGTHS}", _check_wheel_stroke), ("drive", _check_drive)))
_OVERFLOWS = tuple((_reads(names), stage) for names, stage in (
    (f"{_TRAVEL} {_LENGTHS}", _check_stroke), (_LADDER, _check_screw_diameter),
    (f"{_RADIUS} wheel", _check_radius), (_PEAK, _check_peak_load), ("platform", _check_tilt)))


def _varying(path: str, groups: tuple[tuple, ...], seed: dict
             ) -> typing.Callable[[DesignParams], tuple[list[Violation], dict]]:
    """The ``groups`` of entries, tables shaped as the stages of ``validate``,
    for designs that differ only in the field ``path``, as a sweep's do: a
    function of a design that gives its violations and ``got``, ``seed`` and
    the quantities its entries derived. A group runs only when those before
    it found no violation. The first design to reach a group runs every entry
    and resolves the group's plan: the steps, each an entry that reads
    ``path`` or, in place of one that does not, its violations; the others'
    quantities go to ``kept``, which later designs start from a copy of."""
    plans, kept = [], dict(seed)

    def check(p: DesignParams) -> tuple[list[Violation], dict]:
        v, got = [], kept.copy()
        for steps in plans:
            for step in steps:
                if type(step) is tuple:
                    v += step
                elif gave := step(p, v, got):
                    got.update(gave)
            if v:
                return v, got
        for entries in groups[len(plans):]:
            steps = []
            for reads, entry in entries:
                n = len(v)
                gave = entry(p, v, got) or {}
                got.update(gave)
                if path in reads:
                    steps.append(entry)
                else:
                    kept.update(gave)
                    if len(v) > n:
                        steps.append(tuple(v[n:]))
            plans.append(tuple(steps))
            if v:
                break
        return v, got
    return check


def require_valid(p: DesignParams) -> ValidationReport:
    """``p.validation``; raises ``InvalidDesignError`` (with the report) for
    invalid designs."""
    report = p.validation
    if not report.valid:
        raise InvalidDesignError(report)
    return report


# ---------------------------------------------------------------------------
# config parsing

def _coerce(path: str, value: int | float, is_count: bool):
    if is_count and type(value) is not int:
        raise ConfigError("expected an integer count", field=path)
    # An integer past the float range is as unusable as a non-finite number:
    # every field, counts too, multiplies floats.
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("expected a finite number", field=path)
    return value if is_count else float(value)


# Keys that a config may restate though no design choice sets them: a value
# derived from the rest of the section must equal it, and it is then dropped.
# Section name -> {key: (the rule, the value derived from the section)}.
_RESTATED = {
    "screw": {"shaft_levels": ("n_levels - 1", lambda s: s.n_levels - 1)},
    "layout": {"joint_height": ("2 * joint_arm_height", lambda lay: 2.0 * lay.joint_arm_height)},
}

# Section name -> the keys a config may give it: its fields and restated keys.
_KEYS = {name: schema.keys() | _RESTATED.get(name, {}).keys()
         for name, (_, schema) in _SECTIONS.items()}


def _read_section(doc: dict, name: str, cls: type, schema: dict[str, _Field]):
    """The instance of ``cls`` that section ``name`` of ``doc`` describes."""
    section = doc.get(name)
    if section is None:
        if any(f.required for f in schema.values()):
            raise ConfigError(f"missing required section '{name}'", field=name)
        return cls()
    if not section.keys() <= _KEYS[name]:
        key = next(key for key in section if key not in _KEYS[name])
        raise ConfigError("unknown key", field=f"{name}.{key}")
    fields = []
    for key, f in schema.items():  # the fields of ``cls``, in order
        if key not in section:
            if f.required:
                raise ConfigError("missing required field", field=f.path)
            fields.append(cls._field_defaults[key])
        elif type(value := section[key]) is float and value - value == 0 and not f.is_count:
            fields.append(value)  # a finite float, as ``_coerce`` returns it
        else:
            fields.append(_coerce(f.path, value, f.is_count))
    built = cls._make(fields)  # no section checks its fields in ``__new__``
    for key, (rule, derive) in _RESTATED.get(name, {}).items():
        if key in section:  # a count when the derived value is one
            path, derived = f"{name}.{key}", derive(built)
            if abs(_coerce(path, section[key], isinstance(derived, int)) - derived) > 1e-9:
                raise ConfigError(f"restated value must equal {rule} = {derived!r}", field=path)
    return built


# The plain grammar of configs and force tables. A number is a YAML 1.1
# decimal int or float, as ``serialize`` writes them; a key is followed by
# its ':', and is no word that YAML reads as a bool or a null.
_NUMBER = r"[-+]?(?:0|[1-9][0-9]*|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)"
_KEY = r"(?!(?:yes|no|true|false|on|off|null):)([a-z_]+):"

# One whole line of the grammar, none of whose characters is a '\n': a key
# indented two spaces with a number (first, as the most frequent), a header
# at column 0, a force-table row ``- [x, y]`` bare at column 0 or indented
# two spaces, or a blank or comment line. A comment after a value, a header
# or a row follows a space, as in YAML.
_PLAIN_LINE = re.compile(
    rf"^(?:(?:  {_KEY} +({_NUMBER})|{_KEY}|(  )?- \[({_NUMBER}), ({_NUMBER})\])"
    r"(?: +#[ -~]*| *)| *(?:#[ -~]*)?)$", re.M)
_KEY_LINE = re.compile(f"  {_KEY}")


def _plain_doc(text: str, what: str):
    """The document of ``text``, a config or force table (``what``) in the
    plain grammar, read in one scan: the value ``yaml.safe_load`` gives, or
    None for a text of blank and comment lines.

    Every line matches ``_PLAIN_LINE`` (as many matches as lines: a line
    holds at most one), and the lines nest as YAML's block style nests them:
    a header's key lines, or the rows of the header ``force_table``, follow
    it; bare rows make the whole text a list. Any other text raises
    ``ConfigError`` at the first line that the grammar does not take, with
    the field of a key line; a header, or a key of one header, given twice
    raises at the repeat. Each key is a string to YAML and each number the
    int or float it names, so the document is YAML's; a header without keys
    or rows is None, as in YAML.
    """
    lines = _PLAIN_LINE.findall(text)  # a group that took no part is ''
    bad = None
    if len(lines) != text.count("\n") + 1:
        bad = next(n for n, line in enumerate(text.split("\n"), 1)
                   if not _PLAIN_LINE.fullmatch(line))
        lines = lines[:bad - 1]
    doc = header = section = None
    try:
        for n, (key, value, name, indent, x, y) in enumerate(lines, 1):
            if key:
                if header in (None, "force_table"):
                    break
                if section is None:
                    section = doc[header] = {}
                elif key in section:
                    raise ConfigError("key given twice", field=f"{header}.{key}", line=n)
                section[key] = float(value) if "." in value else int(value)
            elif name:
                if type(doc) is list:
                    break
                if doc is None:
                    doc = {}
                elif name in doc:
                    raise ConfigError("key given twice", field=name, line=n)
                doc[name] = section = None
                header = name
            elif x:
                row = [float(x) if "." in x else int(x), float(y) if "." in y else int(y)]
                if indent and header == "force_table":
                    if section is None:
                        section = doc[header] = []
                    section.append(row)
                elif not indent and type(doc) is not dict:
                    doc = doc or []
                    doc.append(row)
                else:
                    break
        else:  # no line before ``bad`` is refused
            n = bad
    except ValueError:  # ``int`` refuses a text past its digit limit; YAML fails too
        pass  # at line ``n``
    if n is None:
        return doc
    key = _KEY_LINE.match(text.split("\n")[n - 1])
    raise ConfigError(f"{what} line is outside the plain grammar", line=n,
                      field=f"{header}.{key[1]}" if key and header else None)


def load(config_text: str) -> DesignParams:
    """Parse config text into ``DesignParams``.

    Structural problems (a line outside the plain grammar of ``_plain_doc``,
    a key given twice, missing sections or fields, a non-integral count,
    unknown keys, a restated value that differs from the one its section
    derives) raise ``ConfigError`` naming the field and, for the first two,
    the source line. Invariant violations do NOT raise; they are reported in
    the design's ``validation`` so callers can decide.
    """
    doc = _plain_doc(config_text, "config")
    if doc is None:
        raise ConfigError("config is empty")
    if type(doc) is list:
        raise ConfigError("config root must be a mapping of sections")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigError("unknown section", field=key)
    return DesignParams._make(_read_section(doc, name, cls, schema)
                              for name, (cls, schema) in _SECTIONS.items())


def _number(value: int | float) -> str:
    # A number as PyYAML's SafeRepresenter writes it: its repr, with ".0" put
    # before a bare exponent, as YAML 1.1 needs ("1.0e+300"), and YAML's names
    # of the non-finite floats.
    text = repr(value)
    if "e" in text and "." not in text:
        return text.replace("e", ".0e")
    return {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}.get(text, text)


def serialize(p: DesignParams) -> str:
    """Emit config text that ``load`` parses back to an equal ``DesignParams``:
    a plain config, byte for byte what ``yaml.safe_dump`` writes of it in block
    style. A section whose every field is None is left out."""
    out = []
    for name, (_, schema) in sorted(_SECTIONS.items()):
        section = getattr(p, name)
        values = [f"  {key}: {_number(value)}\n" for key in sorted(schema)
                  if (value := getattr(section, key)) is not None]
        if values:
            out += [f"{name}:\n", *values]
    return "".join(out) or "{}\n"


# The formulas ``validate`` checks for overflow; these modules import this
# one, so they are bound once it is complete.
from . import bending, quasistatics, wheelgeom  # noqa: E402
