"""The README's library quick start, run as a doctest, and its command line
examples, run in a shell."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lrpictures

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(lrpictures.__file__).resolve().parents[1])


def test_readme_quick_start_runs():
    # only the python block: run on the whole file, doctest would read the
    # closing fence as expected output
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted == 7 and result.failed == 0


def _sh_commands():
    """The commands of README's command line block, each with the
    ``# {...}`` line written under it, or None."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    (block,) = [b for b in blocks if "lrpictures " in b]
    commands = []
    for line in block.replace("\\\n", "").splitlines():
        line = line.strip()
        if line.startswith("# {"):
            commands[-1][1] = line[2:]
        elif line and not line.startswith("#"):
            commands.append([line, None])
    return commands


def test_readme_command_line_examples_run():
    # `python -m lrpictures` in place of the installed script, in a shell, so
    # the pipeline runs as written; the one command that reads a file is left out
    python = f"{shlex.quote(sys.executable)} -m lrpictures"
    ran = checked = 0
    for command, expect in _sh_commands():
        if "--input tableau.json" in command:
            continue
        script = re.sub(r"(^|\|\s*)lrpictures\b", lambda m: m.group(1) + python, command)
        proc = subprocess.run(
            ["bash", "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        ran += 1
        if expect is not None:
            assert proc.stdout.partition("\n")[0] == expect, command
            checked += 1
    assert (ran, checked) == (10, 2)
