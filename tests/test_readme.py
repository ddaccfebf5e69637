"""The README's Quick start and library example, run as documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from crownmerge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: Fenced blocks as ``(info string, body)``, in document order.
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks() -> list[tuple[str, str]]:
    return _FENCE.findall(README.read_text())


def _block_after(info: str, needle: str) -> tuple[str, str]:
    """The first ``info`` block containing ``needle``, and the block after it."""
    blocks = _blocks()
    for i, (kind, body) in enumerate(blocks):
        if kind == info and needle in body:
            return body, blocks[i + 1][1]
    raise AssertionError(f"README has no {info} block with {needle!r}")


def _quick_start(runner: CliRunner) -> str:
    """Run every command of the Quick start block; their joined output."""
    commands, _ = _block_after("sh", "crownmerge synth")
    output = ""
    for line in commands.splitlines():
        program, *args = shlex.split(line)
        assert program == "crownmerge"
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        output += result.output
    return output


def test_quick_start_prints_the_documented_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, expected = _block_after("sh", "crownmerge synth")
    assert _quick_start(CliRunner()) == expected


def test_library_example_prints_the_documented_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _quick_start(CliRunner())
    assert Path("demo/scene.txt").is_file()
    code, expected = _block_after("python", "agglomerate(isols, store)")
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == expected
