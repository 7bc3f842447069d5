"""README code stays runnable against the current API."""

import re
import shlex
from pathlib import Path

from qszegedy.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert "lift" in capsys.readouterr().out


def _block(after: str, fence: str = "") -> list[str]:
    """Lines of the first ```fence block after the text ``after``."""
    section = README.read_text(encoding="utf-8").split(after, 1)[1]
    return re.search(f"```{fence}\n(.*?)```", section, re.S).group(1).splitlines()


def test_command_line_block_runs(capsys, monkeypatch, tmp_path):
    # Relative output paths (generate --output) land in tmp_path.
    monkeypatch.chdir(tmp_path)
    commands = _block("## Command line", "sh")
    assert commands
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "qszegedy"
        assert main(argv[1:]) == 0, line
        capsys.readouterr()
    assert list(tmp_path.iterdir())


def test_typical_spectrum_output_is_current(capsys):
    assert main(["spectrum", "k3_loops", "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in _block("Typical spectrum output:"):
        if line != "...":
            assert line in out, line
