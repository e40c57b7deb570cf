"""The README's "Command line" examples parse with the CLI's own parser."""

import argparse
import re
import shlex
from pathlib import Path

from ftbtrace.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
