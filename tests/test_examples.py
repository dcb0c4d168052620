"""Golden test: the committed files in docs/examples/ are what the CLI
writes for the reference config today, and copies of that config which
differ from it only in form print its card, or, outside the plain grammar,
are refused at their first changed line."""

import contextlib
import io
import re
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
    # The frames do not depend on the force table: the one keyframe encoder
    # writes the same file on both table paths.
    (out / "force-table").mkdir()
    assert main(["profile", "--config", REFERENCE_CONFIG, "--steps", "5",
                 "--force-table", str(ROOT / "configs" / "force_table.yaml"),
                 "--out", str(out / "force-table" / "profile.csv")]) == 0
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
                                  "validate.txt", "report.txt",
                                  "force-table/profile_keyframes.json"])
def test_committed_example_matches_cli_output(generated, name):
    assert (generated / name).read_bytes() == (EXAMPLES / Path(name).name).read_bytes()


def test_every_committed_example_is_covered(generated):
    assert sorted(p.name for p in EXAMPLES.iterdir()) \
        == sorted(p.name for p in generated.iterdir() if p.is_file())


def restated(text: str) -> str:
    """The reference config with its two commented keys given at their
    derived values, each still followed by its comment."""
    text = re.sub(r"# (shaft_levels: 3|joint_height: 10\.0)", r"\1", text)
    assert "\n  shaft_levels: 3 " in text and "\n  joint_height: 10.0 " in text
    return text


# Copies of the reference config, and whether each is plain. The CLI reads
# text with universal newlines, so the CRLF copy is still plain; the
# indented and the tabbed copies are refused at their first changed line.
COPIES = {
    "restated": (restated, True),
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),
    "indented": (lambda text: re.sub(r"(?m)^  ", "    ", text), False),
    "tabbed": (lambda text: text.replace("# mm,", "#\tmm,"), False),
}


def without_digest(card: str) -> list[str]:
    return [line for line in card.splitlines() if not line.startswith("digest: ")]


@pytest.mark.parametrize("copy", COPIES)
def test_copy_of_the_reference_config_prints_its_card(tmp_path, capsys, copy):
    edit, plain = COPIES[copy]
    text = Path(REFERENCE_CONFIG).read_text(encoding="utf-8")
    config = tmp_path / "copy.yaml"
    config.write_bytes(edit(text).encode("utf-8"))
    assert config.read_bytes() != text.encode("utf-8")
    if not plain:
        line = next(n for n, (a, b) in enumerate(
            zip(config.read_text(encoding="utf-8").split("\n"), text.split("\n")), 1) if a != b)
        assert main(["report", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: config line is outside the plain grammar ")
        assert err.endswith(f"(line: {line})\n")
        return
    assert main(["report", "--config", str(config)]) == 0
    assert without_digest(capsys.readouterr().out) \
        == without_digest((EXAMPLES / "report.txt").read_text(encoding="utf-8"))


def test_restated_key_at_another_value_exits_2(tmp_path, capsys):
    config = tmp_path / "mismatch.yaml"
    config.write_text(restated(Path(REFERENCE_CONFIG).read_text(encoding="utf-8")).replace(
        "joint_height: 10.0", "joint_height: 11.0"), encoding="utf-8")
    assert main(["report", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "error: restated value must equal 2 * joint_arm_height "
                                       "= 10.0 (field: layout.joint_height)\n")


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """The README's two ``python`` blocks run as written: the keyframe reader
    where ``profile --out profile.csv`` wrote its keyframes, and the library
    walk-through from the repository root, whose config path is relative."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reader, library = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    with contextlib.redirect_stdout(io.StringIO()):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--config", REFERENCE_CONFIG, "--out", "profile.csv"]) == 0
        namespace = {}
        exec(reader, namespace)
        assert len(namespace["frames"]) == 50
        monkeypatch.chdir(ROOT)
        namespace = {}
        exec(library, namespace)
        assert namespace["check"].passed
