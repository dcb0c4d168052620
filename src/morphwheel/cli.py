"""Command-line interface.

Verbs: ``validate``, ``report``, ``profile``, ``sweep``. Exit codes follow a
fixed contract: 0 success, 1 validation failure, 2 I/O or parse failure.
All output is deterministic: identical config and flags produce identical
bytes. Set MORPHWHEEL_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import logging
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import quasistatics, wheelgeom
from .errors import ConfigError, InfeasibleError, InvalidDesignError
from .params import DesignParams, load
from .report import (
    DEFAULT_TOTAL_BEND,
    SWEEP_METRICS,
    RunReport,
    config_digest,
    consistency_warnings,
    design_card,
    sweep_point,
)

__all__ = ["Objective", "SweepSpec", "set_field", "main"]

log = logging.getLogger("morphwheel")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

PROFILE_COLUMNS = (
    "step", "module_length_mm", "h_mm", "wheel_radius_mm",
    "trigger_mode", "axial_force_N", "per_motor_torque_Nmm",
)


class Objective(enum.Enum):
    MIN_REDUCED_LENGTH = "min-reduced-length"
    MAX_WHEEL_RADIUS = "max-wheel-radius"
    MIN_PEAK_TORQUE = "min-peak-torque"


@dataclass(frozen=True)
class SweepSpec:
    parameter_path: str  # dotted field name, e.g. "screw.screw_level_length"
    start: float
    stop: float
    steps: int
    objective: Objective

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if self.start == self.stop:
            raise ValueError("sweep start and stop must differ")

    def grid(self) -> list[float]:
        span = self.stop - self.start
        return [self.start + span * i / (self.steps - 1) for i in range(self.steps)]


def set_field(p: DesignParams, path: str, value: float) -> DesignParams:
    """Return a copy of the design with one dotted numeric field replaced."""
    parts = path.split(".")

    def descend(obj, parts):
        name = parts[0]
        if not dataclasses.is_dataclass(obj) or name not in {
            f.name for f in dataclasses.fields(obj)
        }:
            raise ConfigError("unresolvable parameter path", field=path)
        current = getattr(obj, name)
        if len(parts) == 1:
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ConfigError("parameter path is not a numeric field", field=path)
            if isinstance(current, int):
                if not float(value).is_integer():
                    raise ConfigError(f"count field needs an integer value, got {value!r}",
                                      field=path)
                new = int(value)
            else:
                new = float(value)
            return dataclasses.replace(obj, **{name: new})
        return dataclasses.replace(obj, **{name: descend(current, parts[1:])})

    return descend(p, parts)


# ---------------------------------------------------------------------------
# rendering

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _print_report(rr: RunReport, out=None) -> None:
    if out is None:
        out = sys.stdout
    print(f"digest: {rr.digest}", file=out)
    if rr.validation.valid:
        print("validation: OK", file=out)
    else:
        print(f"validation: {len(rr.validation.violations)} violation(s)", file=out)
    for v in rr.validation.violations:
        print(f"VIOLATION {v.field}: {v.constraint}", file=out)
    for key, value in rr.outputs.items():
        print(f"{key} = {_fmt(value)}", file=out)
    for w in rr.warnings:
        print(
            f"WARNING {w.code}: computed={_fmt(w.computed)} "
            f"reported={_fmt(w.reported)} ({w.detail})",
            file=out,
        )


def _load_or_exit(config: str) -> tuple[DesignParams, str]:
    try:
        text = Path(config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        p = load(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return p, text


def _force_table_or_exit(args) -> quasistatics.SiliconeForceTable | None:
    if getattr(args, "force_table", None) is None:
        return None
    try:
        return quasistatics.load_force_table_path(args.force_table)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"error: cannot load force table: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _refused(p: DesignParams, action: str) -> bool:
    """Whether ``p`` is invalid; if so, say why on stderr."""
    if p.validation.valid:
        return False
    print(f"refusing to {action} an invalid design:", file=sys.stderr)
    for v in p.validation.violations:
        print(f"VIOLATION {v.field}: {v.constraint}", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    p, text = _load_or_exit(args.config)
    report = p.validation
    warnings = consistency_warnings(p) if report.valid else ()
    rr = RunReport(
        digest=config_digest(text),
        validation=report,
        outputs={},
        warnings=warnings,
    )
    _print_report(rr)
    return EXIT_OK if report.valid else EXIT_VALIDATION


def cmd_report(args) -> int:
    p, text = _load_or_exit(args.config)
    if _refused(p, "report on"):
        return EXIT_VALIDATION
    table = _force_table_or_exit(args)
    try:
        rr = design_card(
            p,
            target_ratio=args.target_ratio,
            total_bend=args.total_bend,
            table=table,
            digest=config_digest(text),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_report(rr)
    return EXIT_OK


def cmd_profile(args) -> int:
    p, _ = _load_or_exit(args.config)
    if _refused(p, "profile"):
        return EXIT_VALIDATION
    table = _force_table_or_exit(args)
    try:
        states = wheelgeom.transform_profile(p, args.steps)
        torques = quasistatics.states_torque_profile(p, states, table)
    except (InvalidDesignError, InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    keyframe_path = out.with_name(out.stem + "_keyframes.json")
    # Both files go to temporaries next to their targets and replace them
    # only once both are written, so a failed write leaves neither behind.
    tmp_out, tmp_keyframes = (
        path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in (out, keyframe_path))
    try:
        with open(tmp_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(PROFILE_COLUMNS)
            for i, (state, entry) in enumerate(zip(states, torques.entries)):
                writer.writerow([
                    i,
                    repr(state.module_length),
                    repr(state.axial_half_separation),
                    repr(state.wheel_radius),
                    state.trigger_mode.value,
                    repr(entry.axial_force),
                    repr(entry.per_motor_torque),
                ])
        wheelgeom.write_keyframes(states, p, tmp_keyframes)
        os.replace(tmp_keyframes, keyframe_path)
        os.replace(tmp_out, out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        for tmp in (tmp_out, tmp_keyframes):
            tmp.unlink(missing_ok=True)
    log.info("wrote %s and %s", out, keyframe_path)
    print(f"wrote {out} ({len(states)} rows) and {keyframe_path}")
    return EXIT_OK


_OBJECTIVE_METRIC = {
    Objective.MIN_REDUCED_LENGTH: ("reduced_length_mm", min),
    Objective.MAX_WHEEL_RADIUS: ("wheel_radius_mm", max),
    Objective.MIN_PEAK_TORQUE: ("peak_torque_Nmm", min),
}


def cmd_sweep(args) -> int:
    p, _ = _load_or_exit(args.config)
    if _refused(p, "sweep"):
        return EXIT_VALIDATION
    try:
        start, stop, steps = _parse_range(args.sweep_range)
        spec = SweepSpec(
            parameter_path=args.sweep_param,
            start=start,
            stop=stop,
            steps=steps,
            objective=Objective(args.objective),
        )
        # Build every grid point up front so a typo in the path or a
        # non-integral count value fails before any work.
        points = [set_field(p, spec.parameter_path, v) for v in spec.grid()]
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    metric, best_fn = _OBJECTIVE_METRIC[spec.objective]
    table = quasistatics.default_force_table()
    rows = []
    evaluated = operator.attrgetter(spec.parameter_path)  # labels rows with what ran
    for i, point in enumerate(points):
        value = evaluated(point)
        row: dict[str, object] = {"index": i, spec.parameter_path: value}
        try:
            row.update(sweep_point(point, table))
            row["objective"] = row[metric]
        except (InvalidDesignError, InfeasibleError, ValueError) as exc:
            log.debug("grid point %s=%s infeasible: %s", spec.parameter_path, value, exc)
            row["objective"] = ""
        rows.append(row)

    columns = ["index", spec.parameter_path, *SWEEP_METRICS, "objective"]
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([
                    repr(row[c]) if isinstance(row.get(c), float) else row.get(c, "")
                    for c in columns
                ])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    feasible = [r for r in rows if r["objective"] != ""]
    if feasible:
        best = best_fn(feasible, key=lambda r: r["objective"])
        label = "argmax" if best_fn is max else "argmin"
        print(
            f"{label} {spec.objective.value}: {spec.parameter_path}="
            f"{_fmt(best[spec.parameter_path])} -> {metric}={_fmt(best['objective'])} "
            f"(row {best['index']})"
        )
    else:
        print("no feasible grid points")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _profile_steps(text: str) -> int:
    # A profile runs from the elongated to the compressed state, so it has
    # at least those two; fewer is a usage error, not a design failure.
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if steps < 2:
        raise argparse.ArgumentTypeError("steps must be >= 2")
    return steps


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep range must look like START:STOP:STEPS")
    return float(parts[0]), float(parts[1]), int(parts[2])


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # one parser per process; parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphwheel",
        description="Design toolkit for the crawler-to-wheel transforming module",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a design config against all invariants")
    p_validate.add_argument("--config", required=True, help="design config path (YAML)")
    p_validate.set_defaults(func=cmd_validate)

    p_report = sub.add_parser("report", help="print the complete design card")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--target-ratio", type=float, default=0.5,
                          help="reduction ratio target (default 0.5)")
    p_report.add_argument("--total-bend", type=float, default=DEFAULT_TOTAL_BEND,
                          help="total platform bend in radians (default pi/4)")
    p_report.add_argument("--force-table", default=None,
                          help="YAML file of (cm, N) pairs overriding the builtin table")
    p_report.set_defaults(func=cmd_report)

    p_profile = sub.add_parser("profile", help="emit the transformation profile CSV and keyframes")
    p_profile.add_argument("--config", required=True)
    p_profile.add_argument("--steps", type=_profile_steps, default=50)
    p_profile.add_argument("--out", required=True, help="CSV output path; keyframes go next to it")
    p_profile.add_argument("--force-table", default=None,
                           help="YAML file of (cm, N) pairs overriding the builtin table")
    p_profile.set_defaults(func=cmd_profile)

    p_sweep = sub.add_parser("sweep", help="evaluate the design card over a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep-param", required=True,
                         help="dotted field name, e.g. screw.screw_level_length")
    p_sweep.add_argument("--sweep-range", required=True, help="START:STOP:STEPS")
    p_sweep.add_argument("--objective", required=True,
                         choices=[o.value for o in Objective])
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("MORPHWHEEL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
