"""Command-line interface.

Verbs: ``validate``, ``report``, ``profile``, ``sweep``. Exit codes follow a
fixed contract: 0 success, 1 validation failure, 2 I/O or parse failure.
All output is deterministic: identical config and flags produce identical
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import signal
import sys
from pathlib import Path

from . import bending, quasistatics, wheelgeom
from .errors import ConfigError
from .params import DesignParams, load
from .report import (
    DEFAULT_TOTAL_BEND,
    Objective,
    RunReport,
    SweepSpec,
    config_digest,
    consistency_warnings,
    design_card,
    sweep,
    sweep_columns,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_SWEEP_BATCH = 256  # rows of a sweep's CSV per write, all that it holds of them

PROFILE_COLUMNS = (
    "step", "module_length_mm", "h_mm", "wheel_radius_mm",
    "trigger_mode", "axial_force_N", "per_motor_torque_Nmm",
)


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


def _print_report(rr: RunReport) -> None:
    report = rr.validation
    lines = [f"digest: {rr.digest}", "validation: OK" if report.valid
             else f"validation: {len(report.violations)} violation(s)"]
    lines += [f"VIOLATION {v.field}: {v.constraint}" for v in report.violations]
    lines += [f"{key} = {_fmt(value)}" for key, value in rr.outputs.items()]
    lines += [f"WARNING {w.code}: computed={_fmt(w.computed)} "
              f"reported={_fmt(w.reported)} ({w.detail})" for w in rr.warnings]
    print("\n".join(lines))


def _load_or_exit(config: str) -> tuple[DesignParams, str]:
    try:
        try:  # a plain ``open``: building a ``Path`` is most of a read's cost
            with open(config, encoding="utf-8") as file:
                text = file.read()
        except OSError:  # read again, for an error naming the path as ``pathlib`` does
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


def _finite_peak_or_exit(args, torque: float) -> None:
    # Validation checks the peak torque on the default table, not on this one.
    if not math.isfinite(torque):
        print(f"error: force table {args.force_table}: the design's peak torque "
              "on it is not finite", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _refused(p: DesignParams, action: str) -> bool:
    """Whether ``p`` is invalid; if so, say why on stderr."""
    if p.validation.valid:
        return False
    print(f"refusing to {action} an invalid design:", file=sys.stderr)
    for v in p.validation.violations:
        print(f"VIOLATION {v.field}: {v.constraint}", file=sys.stderr)
    return True


@contextlib.contextmanager
def _replacing(*targets: Path):
    """Temporaries next to ``targets``, to be written in the block. They
    replace the targets, in order, only once the block has written them
    all, so a failed or interrupted write leaves no partial file behind; an
    error about a temporary names its target, not the deleted temporary. A
    target that is a directory, which no rename replaces, is refused first."""
    for path in targets:
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in targets]
    named = {os.fspath(tmp): os.fspath(path) for tmp, path in zip(tmps, targets)}
    try:
        yield tmps
        for tmp, path in zip(tmps, targets):
            os.replace(tmp, path)
    except OSError as exc:
        if exc.filename not in named:
            raise
        raise OSError(exc.errno, exc.strerror, named[exc.filename]) from None
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    p, text = _load_or_exit(args.config)
    report = p.validation
    warnings = consistency_warnings(p) if report.valid else ()
    _print_report(RunReport(config_digest(text), report, {}, warnings))
    return EXIT_OK if report.valid else EXIT_VALIDATION


def cmd_report(args) -> int:
    p, text = _load_or_exit(args.config)
    if _refused(p, "report on"):
        return EXIT_VALIDATION
    try:
        rr = design_card(p, target_ratio=args.target_ratio, total_bend=args.total_bend,
                         table=_force_table_or_exit(args), digest=config_digest(text))
    except ValueError as exc:  # a bend that tilts each of few plates past pi/4
        print(f"error: --total-bend: {args.total_bend!r} rad over "
              f"{p.platform.plate_count} plate(s): {exc}", file=sys.stderr)
        return EXIT_IO
    _finite_peak_or_exit(args, rr.outputs["peak_torque_Nmm"])
    _print_report(rr)
    return EXIT_OK


def cmd_profile(args) -> int:
    p, _ = _load_or_exit(args.config)
    if _refused(p, "profile"):
        return EXIT_VALIDATION
    table = _force_table_or_exit(args)
    try:
        *floats, modes = wheelgeom.transform_columns(p, args.steps)
    except ValueError as exc:  # more steps than the design resolves
        print(f"error: --steps: {exc}", file=sys.stderr)
        return EXIT_IO
    forces, torques = quasistatics.torque_columns(p, floats[0], table)
    _finite_peak_or_exit(args, torques[0])  # the elongated crawler's: the peak
    # Four text columns, a ``repr`` per float and a trigger mode ``_value_``
    # per state, make both the CSV rows (as ``csv.writer`` writes them) and the
    # keyframes. A run of rows that share one force object (and so its torque
    # object) formats the two once.
    columns = [*(list(map(repr, column)) for column in floats), [m._value_ for m in modes]]
    tails, force = [], None
    for f, t in zip(forces, torques):
        if f is not force:
            force, tail = f, f",{f!r},{t!r}\r\n"
        tails.append(tail)
    rows = [f"{i},{length},{h},{radius},{mode}{tail}"
            for i, length, h, radius, mode, tail in zip(range(len(modes)), *columns, tails)]
    out = Path(args.out)
    keyframe_path = out.with_name(out.stem + "_keyframes.json")
    try:  # the keyframes replace theirs first: a failure keeps the earlier CSV
        with _replacing(keyframe_path, out) as (tmp_keyframes, tmp_out):
            with open(tmp_out, "w", newline="", encoding="utf-8") as fh:
                fh.write(",".join(PROFILE_COLUMNS) + "\r\n" + "".join(rows))
            with open(tmp_keyframes, "w", encoding="utf-8") as fh:
                fh.write(wheelgeom.keyframes_text(p, *columns))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out} ({len(rows)} rows) and {keyframe_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    p, _ = _load_or_exit(args.config)
    if _refused(p, "sweep"):
        return EXIT_VALIDATION
    try:  # a malformed range, or a grid of too few or too many points, or of one value
        spec = SweepSpec(args.sweep_param, *_parse_range(args.sweep_range),
                         Objective(args.objective))
    except ValueError as exc:
        print(f"error: --sweep-range: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        with _replacing(Path(args.out)) as (tmp,), \
                open(tmp, "w", newline="", encoding="utf-8") as fh:
            columns = sweep_columns(spec)
            objective, metric = columns.index("objective"), columns.index(spec.metric)
            fh.write(",".join(columns) + "\r\n")
            batch = []
            # As ``csv.writer`` writes these rows: no value holds a comma, a
            # quote or a line break, and ``str`` of a float is its repr. A
            # column of one nonzero value, whose equal floats print alike, is
            # formatted once (0.0 == -0.0 print apart; no column mixes 1 and 1.0).
            def flush():
                texts = [None if j == objective else [str(c[0])] * len(c)
                         if c[0] != 0 and c.count(c[0]) == len(c) else list(map(str, c))
                         for j, c in enumerate(zip(*batch))]
                texts[objective] = texts[metric]
                fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")
                batch.clear()

            def write_row(row):
                batch.append(row)
                if len(batch) == _SWEEP_BATCH:
                    flush()
            best = sweep(p, spec, write_row)
            if batch:
                flush()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    if best is not None:
        print(
            f"{'argmax' if spec.maximise else 'argmin'} {spec.objective.value}: "
            f"{spec.parameter_path}={_fmt(best[spec.parameter_path])} -> "
            f"{spec.metric}={_fmt(best['objective'])} (row {best['index']})"
        )
    else:
        print("no feasible grid points")
    print(f"wrote {args.out} ({spec.steps} rows)")
    return EXIT_OK


def _bounded(convert, accept, message: str):
    """An argparse type: ``convert`` the text, and refuse a value that
    ``accept`` does not with ``message``. Either is a usage error, not a
    design failure."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected START:STOP:STEPS, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"START and STOP must be numbers, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"START and STOP must be finite, got {text!r}")
    try:
        return start, stop, int(parts[2])
    except ValueError:
        raise ValueError(f"STEPS must be an integer, got {parts[2]!r}") from None


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # one parser per process; parse_args returns a fresh namespace
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="morphwheel",
        description="Design toolkit for the crawler-to-wheel transforming module",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An output path ends in a file name: ``Path.with_name`` refuses ``''``,
    # ``.`` and ``/``, and ``sub/`` or ``sub/.`` would write a file ``sub``.
    out_path = _bounded(str, lambda path: os.path.basename(path) not in ("", ".", ".."),
                        "output path must end in a file name")

    p_validate = sub.add_parser("validate", help="check a design config against all invariants")
    p_validate.add_argument("--config", required=True, help="design config path (YAML)")
    p_validate.set_defaults(func=cmd_validate)

    p_report = sub.add_parser("report", help="print the complete design card")
    p_report.add_argument("--config", required=True)
    # The range ``telescopic.reduction_ok`` accepts, as the inverse sizing does.
    p_report.add_argument("--target-ratio", default=0.5, type=_bounded(
                              float, lambda r: 0 < r <= 1, "target ratio must be in (0, 1]"),
                          help="reduction ratio target (default 0.5)")
    # ``bending.distribute_bend``'s envelope, and positive: the card sizes
    # its rods at a nonzero tilt.
    p_report.add_argument("--total-bend", default=DEFAULT_TOTAL_BEND, type=_bounded(
                              float, lambda b: 0 < b <= bending.MAX_TOTAL_BEND,
                              "total bend must be in (0, pi/2]"),
                          help="total platform bend in radians (default pi/4)")
    p_report.add_argument("--force-table", default=None,
                          help="YAML file of (cm, N) pairs overriding the builtin table")
    p_report.set_defaults(func=cmd_report)

    p_profile = sub.add_parser("profile", help="emit the transformation profile CSV and keyframes")
    p_profile.add_argument("--config", required=True)
    # A profile runs from the elongated to the compressed state: at least two.
    p_profile.add_argument("--steps", default=50,
                           type=_bounded(int, lambda n: n >= 2, "steps must be >= 2"))
    p_profile.add_argument("--out", required=True, type=out_path,
                           help="CSV output path; keyframes go next to it")
    p_profile.add_argument("--force-table", default=None,
                           help="YAML file of (cm, N) pairs overriding the builtin table")
    p_profile.set_defaults(func=cmd_profile)

    p_sweep = sub.add_parser("sweep", help="evaluate the design card over a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep-param", required=True,
                         help="dotted field name, e.g. screw.screw_level_length")
    p_sweep.add_argument("--sweep-range", required=True, help="START:STOP:STEPS")
    # argparse reads a word that starts with a minus as an option unless the
    # parser's negative-number pattern matches it, by default only a plain
    # number such as -100. No option of this verb starts with a minus and a
    # digit, inf or nan, so any such word is a value, as -100:200:4 is.
    p_sweep._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    p_sweep.add_argument("--objective", required=True,
                         choices=[o.value for o in Objective])
    p_sweep.add_argument("--out", required=True, type=out_path)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser, sub.choices  # the top parser, and each verb's by its name


def main(argv: list[str] | None = None) -> int:
    # The top parser would hand every word after a verb to that verb's
    # parser; it runs only without a verb or with words left over.
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _build_parser()
    verb = verbs.get(argv[0]) if argv else None
    args, rest = (None, argv) if verb is None else verb.parse_known_args(argv[1:])
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


class _Terminated(BaseException):
    """SIGINT or SIGTERM, raised where the process is, so that its
    ``finally`` blocks remove the temporary files; ``BaseException``, so no
    handler of the commands' errors takes it. Its argument is the signal."""


def _terminate(signum, frame):
    raise _Terminated(signal.Signals(signum))


def entry() -> int:
    """The process entry point (the console script and ``python -m
    morphwheel.cli``): ``main``, with SIGINT (Ctrl-C) or SIGTERM ending the
    run through its ``finally`` blocks, exit 128 + the signal's number (130
    or 143) and one ``error:`` line. ``main`` itself leaves the caller's
    signal handlers alone."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _terminate)
    try:
        return main()
    except _Terminated as exc:
        signum = exc.args[0]
        print(f"error: terminated by {signum.name}", file=sys.stderr)
        return 128 + signum


if __name__ == "__main__":
    sys.exit(entry())
