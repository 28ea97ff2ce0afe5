"""The stdout of the ten CI hash-seed commands matches the files in tests/golden/.

Each command runs in-process through cli.main.  Its stdout is parsed, as JSON
(verify, threshold) or as CSV rows keyed by the header (sweep, inequality),
and compared value by value with the golden file: structure, keys, strings,
null and booleans must match exactly, and numbers within GOLDEN_ATOL
absolute.  Exact bytes would be too strict: at the 12 significant digits the
CSV prints, BLAS-level rounding flips about one value in 10^4.  A failure
names the command, the row and the field that moved.

A change to a golden file is a change of test data: record it in CHANGES.md,
with the digits that moved and why.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from memchan import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_ATOL = 1e-12
MAX_REPORTED = 10

# golden file -> command, as the CI hash-seed step runs it
COMMANDS = {
    "verify.json": "verify",
    "sweep_ad.csv": "sweep ad 0:1:6 0:1.5:6 0:0.7853981633974483:3",
    "sweep_dp.csv": "sweep dp 0:1:6 0:1:6 0:0.7853981633974483:3",
    "sweep_dephasing.csv": "sweep dephasing 0:1:6 0:1:6 0:0.7853981633974483:3",
    "threshold_ad_0.6.json": "threshold ad 0.6 1e-12",
    "threshold_dp_0.5.json": "threshold dp 0.5 1e-12",
    "threshold_dp_0.75.json": "threshold dp 0.75 1e-12",
    "threshold_ad_4.6e-6.json": "threshold ad 4.6e-6 1e-12",
    "inequality_65.csv": "inequality 65",
    "inequality_257.csv": "inequality 257",
}


def _cell(text: str):
    """A CSV cell as a float when it reads as one, else as the string."""
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return {"header": header, "rows": [dict(zip(header, map(_cell, row))) for row in rows]}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mismatches(want, got, where=()):
    """Yield (where, want, got) for every value of got that differs from want."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            yield where + ("keys",), list(want), list(got)
            return
        for key in want:
            yield from _mismatches(want[key], got[key], where + (f"field {key!r}",))
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield where + ("length",), len(want), len(got)
            return
        for i, (w, g) in enumerate(zip(want, got)):
            yield from _mismatches(w, g, where + (f"row {i}",))
    elif _is_number(want) and _is_number(got):
        both_nan = math.isnan(want) and math.isnan(got)
        if not (both_nan or abs(want - got) <= GOLDEN_ATOL):
            yield where, want, got
    elif type(want) is not type(got) or want != got:
        yield where, want, got


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(capsys, name):
    command = COMMANDS[name]
    code = cli.main(command.split())
    got = _parse(name, capsys.readouterr().out)
    want = _parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    moved = [f"{', '.join(at)}: golden {w!r}, got {g!r}" for at, w, g in _mismatches(want, got)]
    if moved:
        report = "\n".join(moved[:MAX_REPORTED])
        pytest.fail(f"memchan {command}: {len(moved)} values moved\n{report}")
    assert code == cli.EXIT_OK
