"""Per-verb timings on the reference design, for the ROADMAP baseline table.

Run from the root of a checkout:

    python3 bench/baseline.py

Times each CLI verb in-process on ``configs/reference.yaml`` (median of
``REPEATS`` calls, after one warm-up call) and one verb as a fresh
process. Prints each figure twice: raw wall time, and scaled by the
calibration loop as ``run.py`` scales its metrics.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys

import run

REPEATS = 15


def main() -> int:
    if not (run.SRC / "morphwheel" / "cli.py").is_file():
        print(f"error: no morphwheel sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.pin_to_one_cpu()
    from morphwheel import telescopic

    workdir = run.WORK / f"baseline-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = run.Bench(0, workdir)
    config = str(run.REFERENCE_CONFIG)
    verbs = [
        ("validate", ["validate", "--config", config]),
        ("report", ["report", "--config", config]),
        ("profile --steps 100", ["profile", "--config", config, "--steps", "100",
                                 "--out", str(workdir / "p.csv")]),
        ("profile --steps 2000", ["profile", "--config", config, "--steps", "2000",
                                  "--out", str(workdir / "p.csv")]),
        ("sweep, 7 points", ["sweep", "--config", config, "--sweep-param",
                             "screw.screw_level_length", "--sweep-range", "20:50:7",
                             "--objective", "min-reduced-length",
                             "--out", str(workdir / "s.csv")]),
        ("sweep, 1000 points", ["sweep", "--config", config, "--sweep-param",
                                "screw.screw_level_length", "--sweep-range", "20:50:1000",
                                "--objective", "min-reduced-length",
                                "--out", str(workdir / "s.csv")]),
    ]
    rows = []
    try:
        def row(name: str, fn, repeats: int = REPEATS) -> None:
            times = [bench.clock.timed(fn)[1:] for _ in range(repeats)]
            rows.append((name, statistics.median(raw for raw, _ in times),
                         statistics.median(scaled for _, scaled in times)))

        for name, argv in verbs:
            rc, _, _, err = bench.cli_run(name, argv)  # warm-up, and the exit check
            if rc != 0:
                print(f"error: {name} exited {rc}: {err}", file=sys.stderr)
                return 1
            row(name, lambda: bench.cli_run(name, argv))
        for residual in (200.0, 2000.0, 20000.0):
            row(f"min_screw_length, residual {residual:g} mm",
                lambda: telescopic.min_screw_length(4, residual, 0.5))
        argv = [sys.executable, "-m", "morphwheel.cli", "validate", "--config", config]
        row("CLI process, validate", lambda: subprocess.run(
            argv, env=run.child_env(), check=True, capture_output=True), REPEATS // 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"medians of {REPEATS} calls, Python {sys.version.split()[0]}")
    print("| run | wall time | scaled |")
    print("|---|---|---|")
    for name, raw_s, scaled_s in rows:
        print(f"| `{name}` | {raw_s * 1e3:.1f} ms | {scaled_s * 1e3:.1f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
