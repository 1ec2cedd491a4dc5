"""The README's examples run as written, in a directory holding the files they name."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cantok import cli, synth, write_candump

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    """The fenced code blocks of README.md in `language`."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
    found = [body for lang, body in blocks if lang == language]
    assert found, f"README.md has no {language} block"
    return found


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    """`capture.log` from the bundled spec, with a zero-width group and a one-frame
    group after it that the examples must skip, and the spec as `layout.json`."""
    spec = synth.bundled_spec_path()
    write_candump(synth.generate_trace(synth.load_ground_truth(spec)), tmp_path / "capture.log")
    with open(tmp_path / "capture.log", "a") as fh:
        fh.write("(100.000000) can0 123#\n(100.010000) can0 123#\n(100.020000) can0 555#01\n")
    (tmp_path / "layout.json").write_text(spec.read_text())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cantok_commands(example_dir):
    commands = [
        shlex.split(line, comments=True)
        for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("cantok ")
    ]
    assert commands
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


def test_python_blocks(example_dir):
    for block in _blocks("python"):
        exec(compile(block, str(README), "exec"), {})


def test_json_layout():
    for block in _blocks("json"):
        synth.ground_truth_from_dict(json.loads(block))
