"""Self-test of the benchmark's output checks.

Each check must accept the program's real output and reject a perturbed
copy of it: one CSV radius changed, the sweep's best row swapped, one card
value off by 1e-3 relative, and so on. Run from the root of a checkout:

    python3 bench/selftest.py

Exits 0 when every check accepts the real outputs and fires on every
perturbation, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shutil
import sys
import types

import run

PROFILE_STEPS = 200
SWEEP_POINTS = 50
REL = 1e-3  # relative perturbation of a card value


def _csv_edit(text: str, row: int, column: str, fn) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = fn(rows[row + 1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _scale(factor: float):
    return lambda value: repr(float(value) * factor)


def _perturbed(value: str) -> str | None:
    """A card value changed by REL (a count by one, a flag flipped)."""
    if value in ("PASS", "FAIL"):
        return "FAIL" if value == "PASS" else "PASS"
    if value.isdigit():
        return str(int(value) + 1)
    first, sep, rest = value.partition(", ")
    try:
        return repr(float(first) * (1 + REL)) + sep + rest
    except ValueError:
        return None


def _json_edit(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc["frames"])
    return json.dumps(doc)


class SelfTest:
    def __init__(self, bench: run.Bench):
        self.bench, self.ref = bench, bench.ref
        self.failures: list[str] = []
        self.fired = 0

    def accepts(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except self.ref.CheckError as exc:
            self.failures.append(f"real output rejected ({what}): {exc}")

    def rejects(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except self.ref.CheckError:
            self.fired += 1
            return
        self.failures.append(f"perturbation not caught: {what}")

    def profile(self) -> None:
        b = self.bench
        out = b.dir / "selftest.csv"
        argv = b.profile_argv(out)
        argv[argv.index("--steps") + 1] = str(PROFILE_STEPS)
        rc, _, _, err = b.cli_run("profile", argv)
        if rc != 0:
            self.failures.append(f"profile exited {rc}: {err}")
            return
        csv_text = out.read_text()
        frames = out.with_name("selftest_keyframes.json").read_text()

        def check(c=csv_text, k=frames):
            self.ref.check_profile(c, k, b.design, b.table, PROFILE_STEPS)

        self.accepts("profile", check)
        self.accepts("keyframes without spokes or rim", check, csv_text, _json_edit(
            frames, lambda fs: [f.pop(key) for f in fs for key in ("spokes", "rim")]))
        for column, row, fn in (
            ("wheel_radius_mm", 7, _scale(1 + 1e-6)),
            ("module_length_mm", 3, _scale(1 + 1e-6)),
            ("h_mm", 100, _scale(1 - 1e-6)),
            ("axial_force_N", 50, _scale(1 + 1e-6)),
            ("per_motor_torque_Nmm", 0, _scale(1 + 1e-6)),
            ("trigger_mode", 0, lambda _: "rigid"),
            ("trigger_mode", 9, lambda _: "telescopic"),
            ("wheel_radius_mm", 20, lambda _: ""),
            ("axial_force_N", 30, lambda _: "nan?"),
        ):
            self.rejects(f"profile CSV {column} row {row}", check,
                         _csv_edit(csv_text, row, column, fn), frames)
        self.rejects("profile CSV row dropped", check,
                     "\n".join(csv_text.splitlines()[:-1]) + "\n", frames)

        def spoke_off(fs):
            fs[12]["spokes"][2]["hinge"][0] *= 1 + 1e-6

        def rim_off(fs):
            fs[40]["rim"][5][:2] = [c * (1 + 1e-6) for c in fs[40]["rim"][5][:2]]

        def attachment_z(fs):
            fs[90]["spokes"][0]["attachment_top"][2] += 1e-6

        def radius_off(fs):
            fs[150]["wheel_radius"] *= 1 + 1e-8

        for what, fn in (("spoke hinge off its radius", spoke_off),
                         ("rim point off its radius", rim_off),
                         ("rod attachment off its height", attachment_z),
                         ("frame wheel radius", radius_off),
                         ("frame dropped", lambda fs: fs.pop())):
            self.rejects(f"keyframes {what}", check, csv_text, _json_edit(frames, fn))

    def sweep(self) -> None:
        b = self.bench
        for path, objective, start, stop, _ in b.sweeps:
            out = b.dir / "selftest_sweep.csv"
            rc, _, stdout, err = b.cli_run("sweep", [
                "sweep", "--config", str(run.REFERENCE_CONFIG), "--sweep-param", path,
                "--sweep-range", f"{start!r}:{stop!r}:{SWEEP_POINTS}",
                "--objective", objective, "--out", str(out)])
            if rc != 0:
                self.failures.append(f"sweep exited {rc}: {err}")
                continue
            csv_text = out.read_text()

            def check(c=csv_text, s=stdout, path=path, objective=objective,
                      start=start, stop=stop):
                self.ref.check_sweep(c, s, b.design, b.table, path, start, stop,
                                     SWEEP_POINTS, objective)

            self.accepts(f"sweep {path}", check)
            for column, row in (("wheel_radius_mm", 11), ("reduced_length_mm", 3),
                                ("peak_torque_Nmm", 40), ("objective", 20), (path, 5)):
                self.rejects(f"sweep {path} {column} row {row}", check,
                             _csv_edit(csv_text, row, column, _scale(1 + 1e-6)), stdout)
            self.rejects(f"sweep {path} blank cell", check,
                         _csv_edit(csv_text, 8, "peak_torque_Nmm", lambda _: ""), stdout)
            value = re.search(r"-> \S+=(\S+)", stdout).group(1)
            self.rejects(f"sweep {path} printed value", check, csv_text,
                         stdout.replace(f"={value} ", f"={float(value) * (1 + REL)!r} "))
            if objective == "max-wheel-radius":  # strictly increasing: one best row
                best = f"(row {SWEEP_POINTS - 1})"
                self.rejects(f"sweep {path} best row swapped", check, csv_text,
                             stdout.replace(best, "(row 3)"))

    def card(self) -> None:
        b = self.bench
        case = next(c for c in b.rounds[0]
                    if not c.crash and c.design["screw"]["n_levels"] > 1)
        config = b.dir / f"{case.name}.yaml"
        rc, _, stdout, err = b.cli_run("report", ["report", "--config", str(config)])
        if rc != 0:
            self.failures.append(f"report exited {rc}: {err}")
            return

        def check(text):
            self.ref.check_card(text, case.design, b.table)

        self.accepts("card", check, stdout)
        lines = stdout.splitlines()
        self.accepts("card lines reordered", check, "\n".join(reversed(lines)))
        for i, line in enumerate(lines):
            key, _, value = line.partition(" = ")
            changed = _perturbed(value)
            if changed is None:
                continue
            self.rejects(f"card {key}", check,
                         "\n".join(lines[:i] + [f"{key} = {changed}"] + lines[i + 1:]))
            self.rejects(f"card without {key}", check, "\n".join(lines[:i] + lines[i + 1:]))
            self.rejects(f"card {key} blank", check,
                         "\n".join(lines[:i] + [f"{key} = "] + lines[i + 1:]))

        n = case.design["screw"]["n_levels"]
        s_l, k, t = case.design["screw"]["screw_level_length"], case.residual, case.target
        solution = b.telescopic.min_screw_length(n, k, t)
        self.accepts("min_screw_length", self.ref.check_min_screw_length,
                     solution.length, solution.degenerate, n, k, t)
        for factor in (1 + REL, 1 - REL):
            self.rejects(f"min_screw_length x {factor}", self.ref.check_min_screw_length,
                         solution.length * factor, False, n, k, t)
        levels = b.telescopic.min_levels(s_l, k, t)
        self.accepts("min_levels", self.ref.check_min_levels, levels, s_l, k, t)
        for wrong in (levels + 1, levels - 1):
            self.rejects(f"min_levels {wrong} for {levels}", self.ref.check_min_levels,
                         wrong, s_l, k, t)

    def crash_accounting(self) -> None:
        """An overrunning design fails as predicted; any other failure is an error."""
        b = self.bench
        crash = next(c for c in b.rounds[0] if c.crash)
        errors = len(b.errors)
        b.card(crash)
        if b.failed["cards"] != 1 or len(b.errors) != errors:
            self.failures.append("predicted overrun not counted as one failed operation")
        with contextlib.redirect_stderr(io.StringIO()):
            b.card(dataclasses.replace(crash, crash=False))
        if len(b.errors) == errors:
            self.failures.append("unpredicted failure not reported as a check failure")
        else:
            self.fired += 1
        del b.errors[errors:]

    def library_faults(self) -> None:
        """A library call that raises fails its design and the run goes on."""
        b = self.bench
        case = next(c for c in b.rounds[0] if not c.crash)

        def boom(*_):
            raise RuntimeError("injected fault")

        for what, attr, fault in (
                ("inverse sizing", "telescopic",
                 types.SimpleNamespace(min_screw_length=boom, min_levels=boom)),
                ("cli", "cli", types.SimpleNamespace(main=boom))):
            real, failed, errors = getattr(b, attr), b.failed["cards"], len(b.errors)
            setattr(b, attr, fault)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    b.card(case)
            except Exception as exc:
                self.failures.append(f"{what} fault ended the run: {exc!r}")
            finally:
                setattr(b, attr, real)
            if b.failed["cards"] != failed + 1 or len(b.errors) == errors:
                self.failures.append(f"{what} fault not counted as a failed operation")
            else:
                self.fired += 1
            del b.errors[errors:]


def main() -> int:
    if not (run.SRC / "morphwheel" / "cli.py").is_file():
        print(f"error: no morphwheel sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        test = SelfTest(run.Bench(0, workdir))
        test.profile()
        test.sweep()
        test.card()
        test.crash_accounting()
        test.library_faults()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in test.failures:
        print(f"FAIL {failure}")
    print(f"selftest: {test.fired} perturbations rejected, {len(test.failures)} failures")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
