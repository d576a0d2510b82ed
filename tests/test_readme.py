"""Every fenced ``python`` block of README.md runs to completion against the
package sources the tests import, and the command-line walkthrough runs
line by line, so a renamed or deleted export or option cannot leave the
quick start broken."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC
from dichromate.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-"], input=code, cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    walkthrough = README.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in walkthrough.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "dichromate":
            codes.append((argv[1], main(argv[1:])))
        elif argv:
            subprocess.run(line, shell=True, check=True)
    capsys.readouterr()
    assert len(codes) == 10
    # K5 is fully z1-labeled, so check-balanced finds an unbalanced cycle
    assert [c for c in codes if c[1] != 0] == [("check-balanced", 1)], codes
