"""Golden test: the committed files in docs/examples/ are what the CLI
writes for the reference config today."""

import contextlib
import io
from pathlib import Path

import pytest

from morphwheel.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"
REFERENCE_CONFIG = str(ROOT / "configs" / "reference.yaml")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("examples")
    assert main(["profile", "--config", REFERENCE_CONFIG, "--steps", "5",
                 "--out", str(out / "profile.csv")]) == 0
    assert main(["sweep", "--config", REFERENCE_CONFIG,
                 "--sweep-param", "screw.screw_level_length",
                 "--sweep-range", "20:50:4",
                 "--objective", "min-reduced-length",
                 "--out", str(out / "sweep.csv")]) == 0
    for verb in ("validate", "report"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([verb, "--config", REFERENCE_CONFIG]) == 0
        (out / f"{verb}.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return out


@pytest.mark.parametrize("name", ["profile.csv", "profile_keyframes.json", "sweep.csv",
                                  "validate.txt", "report.txt"])
def test_committed_example_matches_cli_output(generated, name):
    assert (generated / name).read_bytes() == (EXAMPLES / name).read_bytes()


def test_every_committed_example_is_covered(generated):
    assert sorted(p.name for p in EXAMPLES.iterdir()) \
        == sorted(p.name for p in generated.iterdir())
