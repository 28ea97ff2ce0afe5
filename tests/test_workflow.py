"""The CI workflow's hash-seed step runs the commands tests/test_golden.py pins.

The step lists its commands in a bash array, commands=( ... ), one quoted
command a line.  It is read as plain text, so no YAML parser is needed.
"""

import re
import shlex
from pathlib import Path

from test_golden import COMMANDS

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _hash_seed_commands() -> list:
    text = WORKFLOW.read_text(encoding="utf-8")
    (block,) = re.findall(r"^\s*commands=\(\n(.*?)^\s*\)$", text, re.M | re.S)
    return shlex.split(block)


def test_hash_seed_step_runs_the_golden_commands_in_order():
    assert _hash_seed_commands() == list(COMMANDS.values())
