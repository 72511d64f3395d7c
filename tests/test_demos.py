"""Smoke tests: every script in ``demos/`` and every command of the
README's CLI block run to completion."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polyrigid.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def readme_cli_commands():
    """The argument lists of the ``polyrigid`` lines in the code block
    under the README's ``## CLI`` heading."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("polyrigid ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # a flag the CLI no longer has would make its line exit 2
    monkeypatch.chdir(tmp_path)
    path1d = {"dim": 1, "norm": "linf", "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
              "positions": {"a": ["0"], "b": ["1"], "c": ["3"]}}
    (tmp_path / "path1d.json").write_text(json.dumps(path1d))
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"generate", "analyze", "global", "sparsity", "witness"}
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
