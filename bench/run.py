"""Benchmark of the morphwheel toolkit, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload design-batch --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``profile-keyframes`` (one long profile with its
keyframes), ``sweep-grid`` (two 1000-point sweeps) and ``design-batch``
(validate, report and inverse sizing over random designs). Each workload
repeats its own operation for ``--seconds`` and gives up to half of that
time to probes of the other two, so every end-to-end metric is defined on
every workload. ``attempted`` and ``failed`` count the workload's own
operations.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
amount of the same work twice, untraced and then traced, and prints the
per-layer metrics. Every output is checked against ``reference.py``. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_CONFIG = ROOT / "configs" / "reference.yaml"
FORCE_TABLE = ROOT / "configs" / "force_table.yaml"

MAIN_KIND = {"profile-keyframes": "profile", "sweep-grid": "sweep",
             "design-batch": "cards"}
PROFILE_STEPS = 2000
# The two kinds a workload does not stress share at most PROBE_SHARE of
# the timed window, equally by time, so a slow host cannot crowd out the
# workload's own kind; each still gets PROBE_MIN profile invocations, sweep
# rounds or design rounds (without overrunning designs).
PROBE_SHARE = 0.5
PROBE_MIN = {"profile": 3, "sweep": 2, "cards": 3}
# Fixed work of a traced run, by the workload's own kind, in the same units;
# the workload's own kind outweighs the others, as it does in a timed run.
TRACED_WORK = {
    "profile": {"profile": 8, "sweep": 2, "cards": 4},
    "sweep": {"profile": 4, "sweep": 8, "cards": 4},
    "cards": {"profile": 4, "sweep": 2, "cards": 24},
}
SETUP_RUNS = 15
IMPORTTIME_RUNS = 3
DESIGN_ROUNDS = 40
IMPORT_LAYERS = ("yaml", "morphwheel.params", "morphwheel.quasistatics", "morphwheel.cli")

# The host's speed swings by about +/-25% over seconds (other tenants), so
# every timed sample is scaled by a pure-Python calibration loop timed next
# to it: scaled = elapsed * CAL_NOMINAL_S / median(last CAL_WINDOW loops).
# A short operation takes one loop before it; a long one (a profile, a
# sweep, a fresh process) takes half the window before and half after.
# CAL_NOMINAL_S is the loop's 10th-percentile time over 30 s on the
# reference machine (2 vCPU at 2.1 GHz, Python 3.11.7), so scaled times read
# as that machine's unloaded seconds.
CAL_LOOPS = 600
CAL_NOMINAL_S = 0.44e-3
CAL_WINDOW = 6

RSS_CHILD = """\
import resource, sys
from morphwheel.cli import main
rc = main(sys.argv[1:])
print("maxrss_kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)
"""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Pair:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first, self.second = first, second


def _calibration_loop() -> int:
    """Allocation, dicts, strings and attribute access, like the program's
    own mix (YAML parsing, dataclasses, formatting); it tracks the program's
    speed about twice as closely as an integer loop does."""
    out = []
    for i in range(CAL_LOOPS):
        pair = _Pair({f"k{i % 17}": i, "x": str(i)}, [i, i + 1])
        out.append((pair.first["x"] + "y").upper())
    return len(out)


class Clock:
    """Scales elapsed times by the recent speed of a calibration loop."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=CAL_WINDOW)

    def calibrate(self, loops: int = 1) -> None:
        for _ in range(loops):
            start = time.perf_counter()
            _calibration_loop()
            self.recent.append(time.perf_counter() - start)

    def scaled(self, elapsed: float) -> float:
        return elapsed * CAL_NOMINAL_S / statistics.median(self.recent)

    def timed(self, fn) -> tuple[object, float, float]:
        """Call ``fn`` between two halves of a calibration window, as a long
        operation is timed: (its result, raw seconds, scaled seconds)."""
        self.calibrate(CAL_WINDOW // 2)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.calibrate(CAL_WINDOW // 2)
        return result, raw, self.scaled(raw)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one calibrated.

    The two CPUs of the reference machine slow down independently, so a
    calibration loop says little about an operation that ran on the other.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    """The program under test, its inputs, and what the runs measured."""

    def __init__(self, seed: int, workdir: Path):
        import yaml

        import inputs
        import reference
        from morphwheel import cli, telescopic

        self.cli, self.telescopic, self.ref = cli, telescopic, reference
        self.dir = workdir
        self.table = [tuple(pair) for pair in
                      yaml.safe_load(FORCE_TABLE.read_text())["force_table"]]
        self.design = reference.with_defaults(yaml.safe_load(REFERENCE_CONFIG.read_text()))
        self.rounds = inputs.design_rounds(seed, DESIGN_ROUNDS)
        for case in {c.name: c for r in self.rounds for c in r}.values():
            (workdir / f"{case.name}.yaml").write_text(inputs.config_text(case.design))
        self.sweeps = inputs.sweep_grids(seed)
        self.clock = Clock()
        # Scaled samples, and the raw wall times behind them.
        self.samples: dict[str, list[float]] = {
            "profile": [], "sweep": [], "card": [], "card_round": []}
        self.raw: dict[str, list[float]] = {key: [] for key in self.samples}
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.errors: list[str] = []
        self.expected: dict[str, tuple[str, ...]] = {}  # output digests, once checked
        self.keyframe_bytes = 0
        self.op_seconds = 0.0  # scaled time inside the program, all operations
        self.rec = None
        self.card_round = 0

    # -- helpers -----------------------------------------------------------

    def error(self, message: str) -> None:
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def check(self, fn, *args) -> bool:
        try:
            fn(*args)
        except self.ref.CheckError as exc:
            self.error(str(exc))
            return False
        except Exception as exc:  # output the check cannot even read
            self.error(f"an output check could not read the output: {exc!r}")
            return False
        return True

    def same_output(self, key: str, paths: list[Path], full_check) -> None:
        """Check a deterministic output fully once, then by digest."""
        digests = tuple(_digest(p) for p in paths)
        if key not in self.expected:
            if self.check(full_check):
                self.expected[key] = digests
        elif digests != self.expected[key]:
            self.error(f"{key}: output differs from an earlier run of the same input")

    def sample(self, key: str, raw: float, scaled: float, record: bool) -> None:
        self.op_seconds += scaled
        if record:
            self.samples[key].append(scaled)
            self.raw[key].append(raw)

    def cli_run(self, op: str, argv: list[str]) -> tuple[int, float, str, str]:
        """(exit code, seconds, stdout, stderr) of ``main(argv)``; the exit
        code is -1 when it raised, and stderr then names the exception."""
        out, err = io.StringIO(), io.StringIO()
        if self.rec is not None:
            self.rec.op = op
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash fails the operation, not the run
                rc = -1
                print(f"raised {exc!r}", file=sys.stderr)
            elapsed = time.perf_counter() - start
        return rc, elapsed, out.getvalue(), err.getvalue()

    # -- operations --------------------------------------------------------

    def profile_argv(self, out: Path) -> list[str]:
        return ["profile", "--config", str(REFERENCE_CONFIG), "--steps", str(PROFILE_STEPS),
                "--out", str(out), "--force-table", str(FORCE_TABLE)]

    def profile(self, record: bool = True) -> None:
        out = self.dir / "profile.csv"
        keyframes = self.dir / "profile_keyframes.json"
        gc.collect()
        (rc, _, _, err), raw, scaled = self.clock.timed(
            lambda: self.cli_run("profile", self.profile_argv(out)))
        self.sample("profile", raw, scaled, record)
        self.attempted["profile"] += record
        if rc != 0:
            self.failed["profile"] += record
            self.error(f"profile exited {rc}: {err.strip()}")
            return
        self.keyframe_bytes = keyframes.stat().st_size
        self.same_output("profile", [out, keyframes], lambda: self.ref.check_profile(
            out.read_text(), keyframes.read_text(), self.design, self.table, PROFILE_STEPS))

    def sweep_round(self, record: bool = True) -> None:
        """Both sweeps of the seed's grids."""
        gc.collect()
        for i, (path, objective, start, stop, points) in enumerate(self.sweeps):
            out = self.dir / f"sweep{i}.csv"
            argv = ["sweep", "--config", str(REFERENCE_CONFIG), "--sweep-param", path,
                    "--sweep-range", f"{start!r}:{stop!r}:{points}",
                    "--objective", objective, "--out", str(out)]
            (rc, _, stdout, err), raw, scaled = self.clock.timed(
                lambda: self.cli_run(f"sweep{i}", argv))
            self.sample("sweep", raw / points, scaled / points, record)
            self.attempted["sweep"] += record
            if rc != 0:
                self.failed["sweep"] += record
                self.error(f"sweep exited {rc}: {err.strip()}")
                continue
            stdout_file = self.dir / f"sweep{i}.out"
            stdout_file.write_text(stdout)
            self.same_output(f"sweep{i}", [out, stdout_file], lambda: self.ref.check_sweep(
                out.read_text(), stdout, self.design, self.table, path, start, stop,
                points, objective))

    def card(self, case, record: bool = True) -> None:
        """Validate, report and inverse sizing of one design: one operation."""
        config = str(self.dir / f"{case.name}.yaml")
        self.clock.calibrate()
        rc, elapsed, stdout, err = self.cli_run(case.name, ["validate", "--config", config])
        failure = None
        if rc == 1 and "VIOLATION" in stdout:
            if not case.crash:
                self.error(f"{case.name}: validate refused a valid design")
        elif rc != 0:
            failure = f"validate exited {rc}: {err.strip()}"
            self.error(f"{case.name}: unexpected failure: {failure}")
        else:
            if "validation: OK" not in stdout:
                self.error(f"{case.name}: validate exited 0 without 'validation: OK'")
            rc, t_report, stdout, err = self.cli_run(case.name, ["report", "--config", config])
            elapsed += t_report
            if rc == 0:
                self.check(self.ref.check_card, stdout, case.design, self.table, case.crash)
            else:
                failure = f"report exited {rc}: {err.strip()}"
                if not (case.crash and rc == 2 and "lengths must be positive" in err):
                    self.error(f"{case.name}: unexpected failure: {failure}")
        t_sizing, sizing_failure = self.inverse_sizing(case)
        elapsed += t_sizing
        if sizing_failure is not None:
            self.error(f"{case.name}: unexpected failure: {sizing_failure}")
            failure = failure or sizing_failure
        if record:
            self.attempted["cards"] += 1
            self.failed["cards"] += failure is not None
        self.sample("card", elapsed, self.clock.scaled(elapsed), record)

    def inverse_sizing(self, case) -> tuple[float, str | None]:
        """(seconds, failure or None) of both inverse sizing calls, checked."""
        n = case.design["screw"]["n_levels"]
        s_l = case.design["screw"]["screw_level_length"]
        k = case.residual
        start = time.perf_counter()
        try:
            solution = self.telescopic.min_screw_length(n, k, case.target)
            levels = self.telescopic.min_levels(s_l, k, case.target)
        except Exception as exc:  # fails the design, not the run
            return time.perf_counter() - start, f"inverse sizing raised {exc!r}"
        elapsed = time.perf_counter() - start
        self.check(self.ref.check_min_screw_length, solution.length, solution.degenerate,
                   n, k, case.target)
        self.check(self.ref.check_min_levels, levels, s_l, k, case.target)
        return elapsed, None

    def cards(self, record: bool = True, with_crashes: bool = True) -> None:
        """The next design round; probes leave out the overrunning designs."""
        cases = self.rounds[self.card_round % len(self.rounds)]
        self.card_round += 1
        cases = [c for c in cases if with_crashes or not c.crash]
        for case in cases:
            self.card(case, record)
        if record:
            for samples in (self.samples, self.raw):
                samples["card_round"].append(sum(samples["card"][-len(cases):]) / len(cases))

    # -- runs --------------------------------------------------------------

    def warm_up(self) -> None:
        """One unrecorded operation of each kind: imports and caches settle."""
        self.profile(record=False)
        self.sweep_round(record=False)
        for case in self.rounds[0][:5]:
            if not case.crash:
                self.card(case, record=False)

    def run_kind(self, kind: str, main: bool) -> None:
        if kind == "profile":
            self.profile()
        elif kind == "sweep":
            self.sweep_round()
        else:
            self.cards(with_crashes=main)

    def measure(self, main: str, seconds: float) -> None:
        """Whole rounds of ``main`` for ``seconds``, interleaved with probes
        of the other kinds that take at most PROBE_SHARE of the time."""
        spent = {kind: 0.0 for kind in PROBE_MIN}
        runs = Counter()
        others = [kind for kind in PROBE_MIN if kind != main]
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            short = [kind for kind in others if runs[kind] < PROBE_MIN[kind]]
            if elapsed >= seconds and runs[main] and not short:
                break
            if short and elapsed >= seconds:
                kind = short[0]
            elif sum(spent[k] for k in others) < PROBE_SHARE * elapsed:
                kind = min(others, key=spent.get)
            else:
                kind = main
            begin = time.perf_counter()
            self.run_kind(kind, main=kind == main)
            spent[kind] += time.perf_counter() - begin
            runs[kind] += 1

    def fixed_work(self, main: str) -> None:
        self.card_round = 0
        for kind, count in TRACED_WORK[main].items():
            for _ in range(count):
                self.run_kind(kind, main=kind == main)


# -- fresh processes -------------------------------------------------------

def setup_seconds(clock: Clock, runs: int) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing ``morphwheel.cli``."""
    argv = [sys.executable, "-c", "import morphwheel.cli"]
    env = child_env()
    for _ in range(2):  # writes bytecode, fills the file cache
        subprocess.run(argv, env=env, check=True, capture_output=True)
    times = [clock.timed(lambda: subprocess.run(argv, env=env, check=True,
                                                capture_output=True))[1:]
             for _ in range(runs)]
    return (statistics.median(scaled for _, scaled in times),
            statistics.median(raw for raw, _ in times))


def import_self_times(runs: int) -> dict[str, float]:
    """Median ``-X importtime`` self time, in s, of each module in IMPORT_LAYERS."""
    found: dict[str, list[float]] = {m: [] for m in IMPORT_LAYERS}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import morphwheel.cli"],
                              env=child_env(), check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                found[fields[2].strip()].append(int(fields[0].split(":")[1]) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in found.items()}


def profile_peak_rss_mb(bench: Bench) -> float:
    """Peak RSS of a fresh process running one profile invocation."""
    out = bench.dir / "rss.csv"
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, *bench.profile_argv(out)],
                          env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        bench.error(f"fresh-process profile exited {proc.returncode}: {proc.stderr.strip()}")
        return 0.0
    digests = (_digest(out), _digest(bench.dir / "rss_keyframes.json"))
    if digests != bench.expected.get("profile"):
        bench.error("fresh-process profile output differs from the in-process one")
    return int(proc.stdout.split()[-1]) / 1024.0


# -- entry point -----------------------------------------------------------

def _timings(samples: dict[str, list[float]]) -> dict[str, float]:
    cards = statistics.quantiles(samples["card"], n=100, method="inclusive")
    return {
        "profile_s": statistics.median(samples["profile"]),
        "sweep_points_per_s": 1.0 / statistics.median(samples["sweep"]),
        "cards_per_s": 1.0 / statistics.median(samples["card_round"]),
        "card_p50_ms": cards[49] * 1e3,
        "card_p99_ms": cards[98] * 1e3,
    }


UNITS = {"setup_s": "s", "profile_s": "s", "profile_peak_rss_mb": "MB",
         "keyframe_bytes": "bytes", "sweep_points_per_s": "points/s",
         "cards_per_s": "designs/s", "card_p50_ms": "ms", "card_p99_ms": "ms"}


def end_to_end(bench: Bench, main: str, seconds: int) -> dict[str, tuple[float, str]]:
    setup_s, setup_raw = setup_seconds(bench.clock, SETUP_RUNS)
    bench.warm_up()
    bench.measure(main, seconds)
    values = {"setup_s": setup_s, **_timings(bench.samples),
              "profile_peak_rss_mb": profile_peak_rss_mb(bench),
              "keyframe_bytes": bench.keyframe_bytes}
    raw = {"setup_s": setup_raw, **_timings(bench.raw)}
    print(f"timed: {len(bench.samples['profile'])} profile calls, "
          f"{len(bench.samples['sweep'])} sweeps, {len(bench.samples['card'])} designs")
    print("unscaled wall-time figures: " + ", ".join(
        f"{name} = {value:.6g} {UNITS[name]}" for name, value in raw.items()))
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def per_layer(bench: Bench, main: str, trace_file: Path) -> dict[str, tuple[float, str]]:
    import trace

    metrics = {f"setup.import.{m}_s": (v, "s")
               for m, v in import_self_times(IMPORTTIME_RUNS).items()}
    bench.warm_up()

    def timed_pass() -> float:
        bench.op_seconds = 0.0
        bench.fixed_work(main)
        return bench.op_seconds

    # Untraced passes on both sides, so that the order of passes (the first
    # one still grows the heap) does not pass for tracing cost.
    untraced = timed_pass()
    rec = bench.rec = trace.Recorder()
    restore, absent = trace.instrument(rec)
    try:
        traced = timed_pass()
    finally:
        restore()
    bench.rec = None
    untraced = (untraced + timed_pass()) / 2.0
    for name in absent:
        print(f"absent: {name} is no longer bound; its metrics read 0", file=sys.stderr)
    rec.dump(trace_file)
    metrics.update(trace.layer_metrics(rec))
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "morphwheel" / "cli.py").is_file():
        print(f"error: no morphwheel sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.seed, workdir)
        main_kind = MAIN_KIND[args.workload]
        if args.trace:
            metrics = per_layer(bench, main_kind,
                                WORK / f"trace-{args.workload}-s{args.seed}.json")
        else:
            metrics = end_to_end(bench, main_kind, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {bench.attempted[main_kind]}, failed = {bench.failed[main_kind]}, "
          f"check failures = {len(bench.errors)}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted[main_kind],
        "failed": bench.failed[main_kind],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
