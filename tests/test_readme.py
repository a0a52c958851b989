"""The README's Library example and command lines run as documented."""

import re
from pathlib import Path

from quantracer import DEFAULT_BARRIER
from quantracer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # The first python block of README.md, run as a script: a public
    # rename that leaves it calling a removed name fails here.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    trajectory, report = capsys.readouterr().out.splitlines()
    position, kind = trajectory.split()
    # P = 0.3 lies above the 0.0216 transmitted fraction: it reflects.
    assert float(position) < -DEFAULT_BARRIER.half_width and kind == "completed"
    assert report == "True True"


def test_command_line_block_runs(tmp_path):
    # Every `quantracer ...` line of the README's command-line block, through
    # cli.main with its output under tmp_path: a renamed flag, preset or
    # subcommand fails here.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line.split("#")[0].split() for block in blocks
             for line in block.splitlines() if line.startswith("quantracer ")]
    assert len(lines) >= 6
    for i, (_, *argv) in enumerate(lines):
        assert main([*argv, "--out", str(tmp_path / f"run{i}.csv")]) == 0, argv
