"""The README's examples run to the end with the builtin solver, in bounded time."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 60  # each example takes about two seconds


def fenced_block(heading: str, language: str) -> str:
    """The first fenced block in a language under a level-two README heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def run(argv, cwd) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr; past the bound, the whole process group is killed."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "GSSYNTH_SOLVER": "builtin", "PYTHONPATH": os.pathsep.join(path)}
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the shell's children too
            proc.communicate()
            raise AssertionError(f"{argv[0]} still running after {SECONDS} s") from None
    return proc.returncode, out, err


def test_the_command_line_block_finishes(tmp_path):
    # every command must exit 0, so the instance has to be one it settles
    script = f'set -e\ngssynth() {{ "{sys.executable}" -m gssynth "$@"; }}\n'
    code, out, err = run(["sh", "-c", script + fenced_block("Command line", "sh")], tmp_path)
    assert code == 0, out + err
    assert "witness ok" in out


def test_the_library_snippet_finishes(tmp_path):
    code, out, err = run([sys.executable, "-c", fenced_block("Library", "python")], tmp_path)
    assert code == 0, err
    assert out.startswith("Verdict.REACHABLE")
