"""The README's code examples run as written."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from cli_runner import CLI

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block under the README heading ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path):
    code = _fenced_block("Library use", "python")
    assert "dq.quantize_model" in code
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert '"per_module"' in res.stdout


def test_quick_start_block_runs(tmp_path):
    script = _fenced_block("Quick start", "bash").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in script.splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [
        ["deltaquant", name]
        for name in ("train-toy", "importance", "quantize", "eval", "ablate", "curve")
    ]
    for argv in commands:
        res = subprocess.run(
            CLI + argv[1:],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        assert res.returncode == 0, (argv, res.stderr)
    assert (tmp_path / "runs" / "demo" / "curve.csv").read_text().startswith("step,")
