"""The README's examples work: its "Command line" lines parse with the
CLI's own parser, and each of its Python blocks runs.  Its "Library
layout" table names the package's modules."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ftbtrace.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
_PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", text, re.S)
    assert block, "README has no Command line code block"
    joined = re.sub(r"\\\n\s*", " ", block.group(1))
    return [shlex.split(line) for line in joined.splitlines() if line.strip()]


def test_readme_command_lines_parse():
    parser = build_parser()
    lines = _command_lines()
    for words in lines:
        assert words[0] == "ftbtrace", words
        parser.parse_args(words[1:])  # argparse exits 2 on a stale option
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {words[1] for words in lines} == set(subparsers.choices)


def test_readme_has_python_blocks():
    assert len(_PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", _PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_block_runs(block):
    # a subprocess each, so a block's registry writes stay out of this run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"## Library layout\n(.*?)\n## ", text, re.S)
    assert section, "README has no Library layout section"
    named = re.findall(r"^\| `(\w+)`", section.group(1), re.M)
    modules = {p.stem for p in (ROOT / "src" / "ftbtrace").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(named) == sorted(modules)  # each once, none stale
