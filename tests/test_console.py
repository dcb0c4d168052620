"""The CLI run as a process, in a fresh interpreter: through ``python -m
morphwheel.cli`` and through the function the console script calls.

Only what needs a process of its own is here: argparse's usage, which wraps
at the width the ``COLUMNS`` variable sets, the files that a run whose
output is a directory leaves behind, the whole error line of a run whose
output's directory is missing, which holds no process id, and a YAML file
nested deep enough to have exhausted the stack of a process that built it."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ENTRIES, child_env

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "reference.yaml")


def run(entry, argv, **env):
    return subprocess.run([sys.executable, *entry, *argv], env=child_env(**env),
                          capture_output=True, text=True, timeout=60)


PROFILE_USAGE = ("usage: morphwheel profile [-h] --config CONFIG [--steps STEPS] --out OUT\n"
                 "                          [--force-table FORCE_TABLE]\n")
REPORT_USAGE = ("usage: morphwheel report [-h] --config CONFIG [--target-ratio TARGET_RATIO]\n"
                "                         [--total-bend TOTAL_BEND] [--force-table FORCE_TABLE]\n")

# A malformed or out-of-range flag: the verb's usage and one error line, the
# same bytes under Python 3.10, 3.11 and 3.12.
USAGE_ERRORS = {
    "steps": (["profile", "--steps", "1", "--out", "{tmp}/one.csv"], PROFILE_USAGE
              + "morphwheel profile: error: argument --steps: steps must be >= 2\n"),
    "total-bend": (["report", "--total-bend", "x"], REPORT_USAGE
                   + "morphwheel report: error: argument --total-bend: invalid float value: 'x'\n"),
    "target-ratio": (["report", "--target-ratio", "abc"], REPORT_USAGE
                     + "morphwheel report: error: argument --target-ratio: "
                       "invalid float value: 'abc'\n"),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("flag", USAGE_ERRORS)
def test_usage_error_bytes(tmp_path, entry, flag):
    argv, err = USAGE_ERRORS[flag]
    argv = [argv[0], "--config", REFERENCE_CONFIG, *(a.format(tmp=tmp_path) for a in argv[1:])]
    proc = run(entry, argv, COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
    assert list(tmp_path.iterdir()) == []


SWEEP_ARGS = ["--sweep-param", "wheel.hub_offset", "--sweep-range", "10:200:4",
              "--objective", "max-wheel-radius"]


def assert_refused_onto_a_directory(entry, verb, args, target):
    # A rename onto a directory fails whoever runs the script, root too. The
    # error names the target, not the temporary file that the run deletes.
    target.mkdir()
    proc = run(entry, [verb, "--config", REFERENCE_CONFIG, *args])
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", f"error: cannot write output: [Errno 21] Is a directory: '{target}'\n")
    assert list(target.parent.rglob("*")) == [target] and target.is_dir()


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_sweep_onto_a_directory_leaves_it_and_no_temporary_file(tmp_path, entry):
    out = tmp_path / "s.csv"
    assert_refused_onto_a_directory(entry, "sweep", [*SWEEP_ARGS, "--out", str(out)], out)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_profile_onto_a_directory_leaves_it_and_no_temporary_file(tmp_path, entry):
    assert_refused_onto_a_directory(entry, "profile", ["--steps", "5", "--out",
                                                       str(tmp_path / "p.csv")],
                                    tmp_path / "p_keyframes.json")


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("verb, args, name", [("sweep", SWEEP_ARGS, "s.csv"),
                                              ("profile", ["--steps", "5"], "p.csv")])
def test_output_in_a_missing_directory_names_the_target(tmp_path, entry, verb, args, name):
    # The temporary file's open fails first; the error names its target.
    out = tmp_path / "nodir" / name
    proc = run(entry, [verb, "--config", REFERENCE_CONFIG, *args, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", f"error: cannot write output: [Errno 2] No such file or directory: '{out}'\n")
    assert list(tmp_path.iterdir()) == []


# Two processes whose PyYAML differs, with libyaml and without. Before
# the plain grammar, libyaml's recursive build of a deeply nested document
# overflowed the C stack (exit 139, no message), and the pure-Python loader
# raised ``RecursionError``; now neither is used, and the grammar refuses
# the first line that nests.
YAML_ENTRIES = {
    "installed-loader": ENTRIES["module"],
    "pure-python-loader": ["-c", "import sys, yaml; del yaml.CSafeLoader; "
                                 "from morphwheel.cli import entry; sys.exit(entry())"],
}
DEEP = 30_000


@pytest.mark.parametrize("entry", YAML_ENTRIES.values(), ids=YAML_ENTRIES.keys())
def test_deeply_nested_config_is_refused(tmp_path, entry):
    config = tmp_path / "deep.yaml"
    config.write_text("screw: " + "[" * DEEP, encoding="utf-8")
    proc = run(entry, ["validate", "--config", str(config)])
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", "error: config line is outside the plain grammar (line: 1)\n")


@pytest.mark.parametrize("entry", YAML_ENTRIES.values(), ids=YAML_ENTRIES.keys())
def test_deeply_nested_force_table_is_refused_and_writes_nothing(tmp_path, entry):
    table = tmp_path / "deep.yaml"
    table.write_text("force_table:\n  - " + "[" * DEEP, encoding="utf-8")
    proc = run(entry, ["profile", "--config", REFERENCE_CONFIG, "--steps", "5",
                       "--out", str(tmp_path / "p.csv"), "--force-table", str(table)])
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", "error: cannot load force table: force table line is outside the "
                   "plain grammar (line: 2)\n")
    assert list(tmp_path.iterdir()) == [table]
